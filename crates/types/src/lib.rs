//! Shared foundation types for the COLAB asymmetric-multicore scheduling
//! reproduction.
//!
//! This crate defines the vocabulary every other crate in the workspace
//! speaks: strongly-typed identifiers ([`ThreadId`], [`CoreId`], [`AppId`],
//! …), simulated time ([`SimTime`], [`SimDuration`]), and the description of
//! an asymmetric multicore machine ([`MachineConfig`], [`CoreSpec`],
//! [`CoreKind`]) including the four big.LITTLE configurations evaluated by
//! the paper (`2B2S`, `2B4S`, `4B2S`, `4B4S`).
//!
//! # Examples
//!
//! ```
//! use amp_types::{MachineConfig, CoreKind, CoreOrder};
//!
//! let machine = MachineConfig::paper_2b4s(CoreOrder::BigFirst);
//! assert_eq!(machine.num_cores(), 6);
//! assert_eq!(machine.cores_of_kind(CoreKind::Big).count(), 2);
//! assert_eq!(machine.cores_of_kind(CoreKind::Little).count(), 4);
//! ```

#![warn(missing_docs)]

mod error;
mod ids;
mod machine;
mod time;

pub use error::{Error, Result};
pub use ids::{AppId, BarrierId, ChannelId, CoreId, LockId, ThreadId};
pub use machine::{CoreKind, CoreOrder, CoreSpec, MachineConfig};
pub use time::{SimDuration, SimTime};
