//! Description of an asymmetric multicore machine.
//!
//! The paper evaluates four ARM big.LITTLE-like configurations simulated in
//! gem5: big cores resembling out-of-order 2 GHz Cortex-A57s and little cores
//! resembling in-order 1.2 GHz Cortex-A53s, in `2B2S`, `2B4S`, `4B2S` and
//! `4B4S` arrangements (`B` = big, `S` = small/little). [`MachineConfig`]
//! captures exactly that, plus the *core enumeration order* the paper varies
//! between runs (big-first vs little-first) to average out initial-placement
//! effects.

use std::fmt;

use crate::CoreId;

/// The kind of a core in an asymmetric multicore processor.
///
/// # Examples
///
/// ```
/// use amp_types::CoreKind;
/// assert!(CoreKind::Big.is_big());
/// assert_eq!(CoreKind::Little.other(), CoreKind::Big);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CoreKind {
    /// High-performance out-of-order core (Cortex-A57-like, 2.0 GHz).
    Big,
    /// Energy-efficient in-order core (Cortex-A53-like, 1.2 GHz).
    Little,
}

impl CoreKind {
    /// Whether this is the big (high-performance) kind.
    pub const fn is_big(self) -> bool {
        matches!(self, CoreKind::Big)
    }

    /// The opposite kind.
    pub const fn other(self) -> CoreKind {
        match self {
            CoreKind::Big => CoreKind::Little,
            CoreKind::Little => CoreKind::Big,
        }
    }

    /// Both kinds, big first.
    pub const ALL: [CoreKind; 2] = [CoreKind::Big, CoreKind::Little];
}

impl fmt::Display for CoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreKind::Big => f.write_str("big"),
            CoreKind::Little => f.write_str("little"),
        }
    }
}

/// Static description of one core: its kind and clock frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreSpec {
    /// Big or little.
    pub kind: CoreKind,
    /// Clock frequency in GHz; compute progresses at `freq_ghz` cycles/ns
    /// scaled by the running thread's per-kind IPC.
    pub freq_ghz: f64,
}

impl CoreSpec {
    /// The paper's big-core spec: out-of-order, 2.0 GHz.
    pub const fn big() -> CoreSpec {
        CoreSpec {
            kind: CoreKind::Big,
            freq_ghz: 2.0,
        }
    }

    /// The paper's little-core spec: in-order, 1.2 GHz.
    pub const fn little() -> CoreSpec {
        CoreSpec {
            kind: CoreKind::Little,
            freq_ghz: 1.2,
        }
    }
}

/// The order in which cores are enumerated when the simulation starts.
///
/// The paper runs every experiment twice — once with big cores first and once
/// with little cores first — and averages, because the initial assignment of
/// threads to cores depends on enumeration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreOrder {
    /// Big cores occupy the lowest core ids.
    BigFirst,
    /// Little cores occupy the lowest core ids.
    LittleFirst,
}

impl CoreOrder {
    /// Both enumeration orders, for averaging paired runs.
    pub const BOTH: [CoreOrder; 2] = [CoreOrder::BigFirst, CoreOrder::LittleFirst];
}

/// Full static configuration of a simulated asymmetric multicore machine.
///
/// # Examples
///
/// ```
/// use amp_types::{MachineConfig, CoreKind, CoreOrder};
///
/// let m = MachineConfig::asymmetric(4, 2, CoreOrder::LittleFirst);
/// assert_eq!(m.num_cores(), 6);
/// // Little-first: core 0 is little.
/// assert_eq!(m.core(amp_types::CoreId::new(0)).kind, CoreKind::Little);
/// assert_eq!(m.label(), "4B2S");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    cores: Vec<CoreSpec>,
}

impl MachineConfig {
    /// Builds a machine from an explicit core list.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn from_cores(cores: Vec<CoreSpec>) -> MachineConfig {
        assert!(!cores.is_empty(), "a machine needs at least one core");
        MachineConfig { cores }
    }

    /// Builds a big.LITTLE machine with `big` big cores and `little` little
    /// cores, enumerated in the given order.
    ///
    /// # Panics
    ///
    /// Panics if `big + little == 0`.
    pub fn asymmetric(big: usize, little: usize, order: CoreOrder) -> MachineConfig {
        let bigs = std::iter::repeat_n(CoreSpec::big(), big);
        let littles = std::iter::repeat_n(CoreSpec::little(), little);
        let cores: Vec<CoreSpec> = match order {
            CoreOrder::BigFirst => bigs.chain(littles).collect(),
            CoreOrder::LittleFirst => littles.chain(bigs).collect(),
        };
        MachineConfig::from_cores(cores)
    }

    /// A machine with `n` big cores only — the isolated baseline platform
    /// used by the paper's H_NTT/H_ANTT/H_STP metrics.
    pub fn all_big(n: usize) -> MachineConfig {
        MachineConfig::from_cores(vec![CoreSpec::big(); n])
    }

    /// A machine with `n` little cores only — used when training the
    /// speedup model (little-only symmetric runs).
    pub fn all_little(n: usize) -> MachineConfig {
        MachineConfig::from_cores(vec![CoreSpec::little(); n])
    }

    /// The paper's `2B2S` configuration (2 big + 2 little).
    pub fn paper_2b2s(order: CoreOrder) -> MachineConfig {
        MachineConfig::asymmetric(2, 2, order)
    }

    /// The paper's `2B4S` configuration (2 big + 4 little).
    pub fn paper_2b4s(order: CoreOrder) -> MachineConfig {
        MachineConfig::asymmetric(2, 4, order)
    }

    /// The paper's `4B4S` configuration (4 big + 4 little).
    pub fn paper_4b4s(order: CoreOrder) -> MachineConfig {
        MachineConfig::asymmetric(4, 4, order)
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The spec of one core.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this machine.
    pub fn core(&self, id: CoreId) -> CoreSpec {
        self.cores[id.index()]
    }

    /// Iterates over `(CoreId, CoreSpec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CoreId, CoreSpec)> + '_ {
        self.cores
            .iter()
            .enumerate()
            .map(|(i, &spec)| (CoreId::new(i as u32), spec))
    }

    /// Core ids of the given kind, in id order.
    pub fn cores_of_kind(&self, kind: CoreKind) -> impl Iterator<Item = CoreId> + '_ {
        self.iter()
            .filter(move |(_, spec)| spec.kind == kind)
            .map(|(id, _)| id)
    }

    /// Number of cores of the given kind.
    pub fn count_of_kind(&self, kind: CoreKind) -> usize {
        self.cores_of_kind(kind).count()
    }

    /// The paper-style label, e.g. `"4B2S"`; symmetric machines render as
    /// e.g. `"4B"` or `"2S"`.
    pub fn label(&self) -> String {
        let b = self.count_of_kind(CoreKind::Big);
        let s = self.count_of_kind(CoreKind::Little);
        match (b, s) {
            (0, s) => format!("{s}S"),
            (b, 0) => format!("{b}B"),
            (b, s) => format!("{b}B{s}S"),
        }
    }

    /// The all-big machine with the same total core count; the isolated
    /// baseline the heterogeneous metrics normalise against.
    pub fn big_only_twin(&self) -> MachineConfig {
        MachineConfig::all_big(self.num_cores())
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_have_expected_shapes() {
        let order = CoreOrder::BigFirst;
        for (cfg, (b, s)) in [
            (MachineConfig::paper_2b2s(order), (2, 2)),
            (MachineConfig::paper_2b4s(order), (2, 4)),
            (MachineConfig::paper_4b4s(order), (4, 4)),
        ] {
            assert_eq!(cfg.count_of_kind(CoreKind::Big), b);
            assert_eq!(cfg.count_of_kind(CoreKind::Little), s);
        }
    }

    #[test]
    fn enumeration_order_controls_low_ids() {
        let bf = MachineConfig::asymmetric(1, 1, CoreOrder::BigFirst);
        let lf = MachineConfig::asymmetric(1, 1, CoreOrder::LittleFirst);
        assert_eq!(bf.core(CoreId::new(0)).kind, CoreKind::Big);
        assert_eq!(lf.core(CoreId::new(0)).kind, CoreKind::Little);
    }

    #[test]
    fn labels_follow_paper_notation() {
        assert_eq!(
            MachineConfig::paper_2b4s(CoreOrder::BigFirst).label(),
            "2B4S"
        );
        assert_eq!(MachineConfig::all_big(4).label(), "4B");
        assert_eq!(MachineConfig::all_little(2).label(), "2S");
    }

    #[test]
    fn big_only_twin_preserves_core_count() {
        let m = MachineConfig::paper_2b4s(CoreOrder::LittleFirst);
        let twin = m.big_only_twin();
        assert_eq!(twin.num_cores(), 6);
        assert_eq!(twin.count_of_kind(CoreKind::Little), 0);
    }

    #[test]
    fn core_specs_match_paper_hardware() {
        assert_eq!(CoreSpec::big().freq_ghz, 2.0);
        assert_eq!(CoreSpec::little().freq_ghz, 1.2);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_machine_rejected() {
        let _ = MachineConfig::from_cores(vec![]);
    }

    #[test]
    fn kind_other_is_involution() {
        for k in CoreKind::ALL {
            assert_eq!(k.other().other(), k);
        }
    }
}
