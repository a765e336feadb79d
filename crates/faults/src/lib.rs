//! Deterministic fault-injection plans for dynamic asymmetric machines.
//!
//! COLAB's evaluation assumes a static machine: every core online, clock
//! rates fixed, PMU counters clean. Real big.LITTLE parts hotplug cores,
//! throttle clusters under thermal pressure, and lose counter samples.
//! This crate describes those disturbances as data: a [`FaultPlan`] is a
//! time-ordered, seed-reproducible schedule of [`FaultEvent`]s that the
//! simulation engine injects through its ordinary event queue.
//!
//! Two properties carry the whole design:
//!
//! * **Determinism** — a plan is a plain value. The same plan against the
//!   same `(machine, workload, seed)` produces bit-identical runs; the
//!   engine's own RNG stream is never consumed by fault machinery (counter
//!   noise draws from a separate generator seeded by [`FaultPlan::seed`]).
//! * **Emptiness is free** — [`FaultPlan::empty`] injects nothing, draws
//!   nothing, and leaves the event sequence untouched, so fault-free runs
//!   stay byte-identical to a build without this subsystem.
//!
//! [`FaultPlan::random`] generates seeded chaos plans whose hotplug events
//! are rejection-filtered so at least one core is always online — the
//! invariant [`FaultPlan::validate`] enforces for hand-built plans.

#![warn(missing_docs)]

use amp_types::{CoreId, Error, MachineConfig, Result, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injectable disturbance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Hot-unplug: the core stops accepting work; its running thread and
    /// queued threads are forcibly migrated elsewhere.
    CoreOffline {
        /// The core going away.
        core: CoreId,
    },
    /// Hot-plug: the core comes back at its nominal speed.
    CoreOnline {
        /// The core coming back.
        core: CoreId,
    },
    /// DVFS/thermal throttle: the core's clock becomes `factor` × its
    /// nominal frequency from this instant on (1.0 restores nominal).
    Throttle {
        /// The core being rescaled.
        core: CoreId,
        /// Multiplier on the nominal clock, in `(0, 2]`.
        factor: f64,
    },
    /// PMU degradation: from this instant, each synthesized counter value
    /// is dropped (zeroed) with probability `dropout` and the survivors
    /// are perturbed by up to ±`jitter` relative noise.
    CounterNoise {
        /// Per-counter dropout probability in `[0, 1]`.
        dropout: f64,
        /// Relative jitter amplitude in `[0, 1]`.
        jitter: f64,
    },
    /// Interconnect congestion: migration overheads are multiplied by
    /// `factor` from this instant on (1.0 restores nominal).
    MigrationSpike {
        /// Multiplier on migration costs, `>= 0` and finite.
        factor: f64,
    },
}

/// A [`FaultKind`] pinned to an injection instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time at which the fault strikes.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, time-ordered schedule of faults for one run.
///
/// # Examples
///
/// ```
/// use amp_faults::{FaultEvent, FaultKind, FaultPlan};
/// use amp_types::{CoreId, CoreOrder, MachineConfig, SimTime};
///
/// let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
/// let plan = FaultPlan::from_events(7, vec![
///     FaultEvent {
///         at: SimTime::from_millis(50),
///         kind: FaultKind::CoreOffline { core: CoreId::new(3) },
///     },
///     FaultEvent {
///         at: SimTime::from_millis(120),
///         kind: FaultKind::CoreOnline { core: CoreId::new(3) },
///     },
/// ]);
/// assert!(plan.validate(&machine).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The no-fault plan: injects nothing, perturbs nothing.
    pub fn empty() -> FaultPlan {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Builds a plan from explicit events, stably sorted by time. `seed`
    /// feeds the counter-noise generator (irrelevant if the plan has no
    /// [`FaultKind::CounterNoise`] events).
    pub fn from_events(seed: u64, mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at);
        FaultPlan { seed, events }
    }

    /// Generates a seeded chaos plan for `machine`: hotplug cycles,
    /// throttle episodes, counter degradation, and migration spikes,
    /// uniformly placed over `window`. `intensity` scales the expected
    /// event count (0 yields the empty plan; 1.0 ≈ one disturbance per
    /// core). Hotplug events are filtered so at least one core stays
    /// online at every instant, so the result always validates.
    pub fn random(
        machine: &MachineConfig,
        seed: u64,
        intensity: f64,
        window: SimDuration,
    ) -> FaultPlan {
        let cores = machine.num_cores();
        let budget = (intensity * cores as f64).round() as usize;
        if budget == 0 || window.is_zero() {
            return FaultPlan {
                seed,
                events: Vec::new(),
            };
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_5EED);
        let span = window.as_nanos();
        let mut events = Vec::new();
        for _ in 0..budget {
            let at = SimTime::from_nanos(rng.gen_range(0..span.max(1)));
            let core = CoreId::new(rng.gen_range(0..cores as u32));
            match rng.gen_range(0u32..100) {
                // Hotplug cycle: offline now, back online later (possibly
                // past the window — the run may end with the core down).
                0..=39 => {
                    let down = SimDuration::from_nanos(rng.gen_range(span / 20..span / 2));
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::CoreOffline { core },
                    });
                    events.push(FaultEvent {
                        at: at + down,
                        kind: FaultKind::CoreOnline { core },
                    });
                }
                // Throttle episode: slow down, later restore to nominal.
                40..=69 => {
                    let factor = rng.gen_range(0.3..0.9);
                    let hold = SimDuration::from_nanos(rng.gen_range(span / 20..span / 2));
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::Throttle { core, factor },
                    });
                    events.push(FaultEvent {
                        at: at + hold,
                        kind: FaultKind::Throttle { core, factor: 1.0 },
                    });
                }
                70..=84 => {
                    let dropout = rng.gen_range(0.05..0.5);
                    let jitter = rng.gen_range(0.05..0.3);
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::CounterNoise { dropout, jitter },
                    });
                }
                _ => {
                    let factor = rng.gen_range(1.5..8.0);
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::MigrationSpike { factor },
                    });
                }
            }
        }
        events.sort_by_key(|e| e.at);
        // Rejection pass: replay the online mask and drop any offline
        // event that would empty the machine (its paired online event is
        // harmless — onlining an online core is a no-op).
        let mut online = vec![true; cores];
        events.retain(|e| match e.kind {
            FaultKind::CoreOffline { core } => {
                if online[core.index()] && online.iter().filter(|&&o| o).count() > 1 {
                    online[core.index()] = false;
                    true
                } else {
                    false
                }
            }
            FaultKind::CoreOnline { core } => {
                online[core.index()] = true;
                true
            }
            _ => true,
        });
        FaultPlan { seed, events }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The seed for the counter-noise generator.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The events, ascending by injection time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Checks the plan against a machine: core ids in range, factors and
    /// probabilities finite and sane, and — replaying the hotplug events
    /// in order — at least one core online at every instant.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidFaultPlan`] describing the first violation.
    pub fn validate(&self, machine: &MachineConfig) -> Result<()> {
        let bad = |msg: String| Err(Error::InvalidFaultPlan(msg));
        let cores = machine.num_cores();
        let check_core = |core: CoreId| -> Result<()> {
            if core.index() >= cores {
                return bad(format!(
                    "core {} out of range (machine has {cores})",
                    core.index()
                ));
            }
            Ok(())
        };
        if self.events.windows(2).any(|w| w[0].at > w[1].at) {
            return bad("events are not sorted by time".into());
        }
        let mut online = vec![true; cores];
        for event in &self.events {
            match event.kind {
                FaultKind::CoreOffline { core } => {
                    check_core(core)?;
                    online[core.index()] = false;
                    if online.iter().all(|&o| !o) {
                        return bad(format!(
                            "offlining core {} at {} leaves no core online",
                            core.index(),
                            event.at
                        ));
                    }
                }
                FaultKind::CoreOnline { core } => {
                    check_core(core)?;
                    online[core.index()] = true;
                }
                FaultKind::Throttle { core, factor } => {
                    check_core(core)?;
                    if !factor.is_finite() || factor <= 0.0 || factor > 2.0 {
                        return bad(format!("throttle factor {factor} outside (0, 2]"));
                    }
                }
                FaultKind::CounterNoise { dropout, jitter } => {
                    if !(0.0..=1.0).contains(&dropout) || !dropout.is_finite() {
                        return bad(format!("counter dropout {dropout} outside [0, 1]"));
                    }
                    if !(0.0..=1.0).contains(&jitter) || !jitter.is_finite() {
                        return bad(format!("counter jitter {jitter} outside [0, 1]"));
                    }
                }
                FaultKind::MigrationSpike { factor } => {
                    if !factor.is_finite() || factor < 0.0 {
                        return bad(format!(
                            "migration-cost factor {factor} must be finite and >= 0"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_types::CoreOrder;

    fn machine() -> MachineConfig {
        MachineConfig::paper_2b2s(CoreOrder::BigFirst)
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert!(plan.validate(&machine()).is_ok());
    }

    #[test]
    fn from_events_sorts_by_time() {
        let plan = FaultPlan::from_events(
            1,
            vec![
                FaultEvent {
                    at: SimTime::from_millis(20),
                    kind: FaultKind::MigrationSpike { factor: 2.0 },
                },
                FaultEvent {
                    at: SimTime::from_millis(5),
                    kind: FaultKind::CounterNoise {
                        dropout: 0.1,
                        jitter: 0.1,
                    },
                },
            ],
        );
        assert!(plan.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        let w = SimDuration::from_millis(500);
        let a = FaultPlan::random(&machine(), 9, 2.0, w);
        let b = FaultPlan::random(&machine(), 9, 2.0, w);
        assert_eq!(a, b);
        let c = FaultPlan::random(&machine(), 10, 2.0, w);
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn random_plans_always_validate() {
        let m = machine();
        for seed in 0..200 {
            for &intensity in &[0.5, 1.0, 3.0, 8.0] {
                let plan = FaultPlan::random(&m, seed, intensity, SimDuration::from_millis(200));
                plan.validate(&m).expect("generated plan validates");
            }
        }
    }

    #[test]
    fn zero_intensity_is_empty() {
        let plan = FaultPlan::random(&machine(), 3, 0.0, SimDuration::from_millis(1_000));
        assert!(plan.is_empty());
    }

    #[test]
    fn validate_rejects_out_of_range_core() {
        let plan = FaultPlan::from_events(
            0,
            vec![FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::CoreOffline {
                    core: CoreId::new(99),
                },
            }],
        );
        assert!(matches!(
            plan.validate(&machine()),
            Err(Error::InvalidFaultPlan(_))
        ));
    }

    #[test]
    fn validate_rejects_offlining_every_core() {
        let events = (0..4)
            .map(|i| FaultEvent {
                at: SimTime::from_millis(i as u64),
                kind: FaultKind::CoreOffline {
                    core: CoreId::new(i),
                },
            })
            .collect();
        let plan = FaultPlan::from_events(0, events);
        assert!(matches!(
            plan.validate(&machine()),
            Err(Error::InvalidFaultPlan(_))
        ));
    }

    #[test]
    fn validate_rejects_bad_factors() {
        for kind in [
            FaultKind::Throttle {
                core: CoreId::new(0),
                factor: 0.0,
            },
            FaultKind::Throttle {
                core: CoreId::new(0),
                factor: f64::NAN,
            },
            FaultKind::CounterNoise {
                dropout: 1.5,
                jitter: 0.0,
            },
            FaultKind::MigrationSpike { factor: -1.0 },
        ] {
            let plan = FaultPlan::from_events(
                0,
                vec![FaultEvent {
                    at: SimTime::ZERO,
                    kind,
                }],
            );
            assert!(
                plan.validate(&machine()).is_err(),
                "{kind:?} must be rejected"
            );
        }
    }
}
