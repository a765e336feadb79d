//! Chaos test layer for the fault-injection subsystem.
//!
//! Two invariants pin the `amp-faults` contract:
//!
//! 1. **Safety under arbitrary faults** — for 125 random seeded
//!    `FaultPlan`s (25 seeds × all five schedulers) the simulation must
//!    complete without panicking, deadlocking, or routing a runnable
//!    thread to an offline core (`stranded_enqueues == 0`), and every
//!    thread must finish.
//! 2. **Byte-identity of the empty plan** — attaching
//!    `FaultPlan::empty()` must leave a run *exactly* as it was: same
//!    makespan, same per-thread accounting, same event count. The golden
//!    CSV fixtures in `tests/golden/` (checked at `--jobs` 1/2/8 by
//!    `golden_sweep.rs`) extend this pin to the full figure pipeline,
//!    which never attaches a plan at all.

use amp_perf::SpeedupModel;
use amp_sim::{FaultPlan, Simulation, SimulationOutcome};
use amp_types::{CoreOrder, MachineConfig, SimDuration};
use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};
use colab::SchedulerKind;

const FIVE: [SchedulerKind; 5] = [
    SchedulerKind::Linux,
    SchedulerKind::Gts,
    SchedulerKind::Wash,
    SchedulerKind::Colab,
    SchedulerKind::EqualProgress,
];

fn spec() -> WorkloadSpec {
    WorkloadSpec::named(
        "chaos-mix",
        vec![(BenchmarkId::Ferret, 4), (BenchmarkId::Blackscholes, 3)],
    )
}

fn run_with_plan(kind: SchedulerKind, seed: u64, plan: FaultPlan) -> SimulationOutcome {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let model = SpeedupModel::heuristic();
    let sim = Simulation::build_scaled(&machine, &spec(), seed, Scale::quick())
        .expect("workload builds")
        .with_fault_plan(plan)
        .expect("plan is valid for the machine");
    let mut sched = kind.create(&machine, &model);
    sim.run(sched.as_mut()).expect("faulted run completes")
}

#[test]
fn random_fault_plans_never_panic_or_strand_threads() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    // Generous window so hotplug cycles land both inside and past the
    // run; intensity 2.0 expects ~8 faults on 4 cores.
    let window = SimDuration::from_millis(400);
    for seed in 0..25u64 {
        let plan = FaultPlan::random(&machine, seed, 2.0, window);
        for kind in FIVE {
            let outcome = run_with_plan(kind, 40 + seed, plan.clone());
            let d = &outcome.degradation;
            assert_eq!(
                d.stranded_enqueues,
                0,
                "{} stranded threads on offline cores (plan seed {seed})",
                kind.name()
            );
            assert_eq!(
                outcome.threads.len(),
                outcome
                    .threads
                    .iter()
                    .filter(|t| t.work_done > SimDuration::ZERO)
                    .count(),
                "{} left threads without progress (plan seed {seed})",
                kind.name()
            );
            if !plan.is_empty() {
                assert!(
                    d.faults_injected > 0,
                    "{} consumed no faults from a {}-event plan (seed {seed})",
                    kind.name(),
                    plan.len()
                );
            }
        }
    }
}

#[test]
fn empty_fault_plan_is_byte_identical_to_plain_run() {
    for kind in FIVE {
        let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
        let model = SpeedupModel::heuristic();
        let plain = Simulation::build_scaled(&machine, &spec(), 7, Scale::quick())
            .unwrap()
            .run(kind.create(&machine, &model).as_mut())
            .unwrap();
        let faulted = run_with_plan(kind, 7, FaultPlan::empty());

        assert!(faulted.degradation.is_clean(), "{}", kind.name());
        assert_eq!(plain.makespan, faulted.makespan, "{} makespan", kind.name());
        assert_eq!(
            plain.context_switches,
            faulted.context_switches,
            "{} switches",
            kind.name()
        );
        assert_eq!(
            plain.migrations,
            faulted.migrations,
            "{} migrations",
            kind.name()
        );
        assert_eq!(
            plain.events_processed,
            faulted.events_processed,
            "{} events",
            kind.name()
        );
        for (a, b) in plain.apps.iter().zip(&faulted.apps) {
            assert_eq!(a.turnaround, b.turnaround, "{} app {}", kind.name(), a.name);
        }
        for (a, b) in plain.threads.iter().zip(&faulted.threads) {
            assert_eq!(a.finish, b.finish, "{} thread {}", kind.name(), a.name);
            assert_eq!(a.run_time, b.run_time, "{} thread {}", kind.name(), a.name);
            assert_eq!(a.big_time, b.big_time, "{} thread {}", kind.name(), a.name);
            assert_eq!(
                a.migrations,
                b.migrations,
                "{} thread {}",
                kind.name(),
                a.name
            );
            assert_eq!(
                a.pmu_total,
                b.pmu_total,
                "{} thread {} PMU",
                kind.name(),
                a.name
            );
        }
    }
}

#[test]
fn hotplug_cycle_forces_migrations_and_counts_downtime() {
    use amp_sim::faults::{FaultEvent, FaultKind};
    use amp_types::{CoreId, SimTime};

    // Take big core 0 down 5 ms in, bring it back at 60 ms.
    let plan = FaultPlan::from_events(
        1,
        vec![
            FaultEvent {
                at: SimTime::from_millis(5),
                kind: FaultKind::CoreOffline {
                    core: CoreId::new(0),
                },
            },
            FaultEvent {
                at: SimTime::from_millis(60),
                kind: FaultKind::CoreOnline {
                    core: CoreId::new(0),
                },
            },
        ],
    );
    for kind in FIVE {
        let outcome = run_with_plan(kind, 3, plan.clone());
        let d = &outcome.degradation;
        assert_eq!(d.hotplug_offlines, 1, "{}", kind.name());
        assert_eq!(d.hotplug_onlines, 1, "{}", kind.name());
        assert_eq!(d.stranded_enqueues, 0, "{}", kind.name());
        assert!(
            d.offline_core_time >= SimDuration::from_millis(50),
            "{} counted only {} downtime",
            kind.name(),
            d.offline_core_time
        );
    }
}

#[test]
fn offlining_the_last_core_is_a_typed_error_not_a_panic() {
    use amp_sim::faults::{FaultEvent, FaultKind};
    use amp_types::{CoreId, Error, SimTime};

    // `FaultPlan::random` never drains the machine; a hand-built plan
    // that does must be rejected when attached, not blow up mid-run.
    let events = (0..4)
        .map(|c| FaultEvent {
            at: SimTime::from_millis(1),
            kind: FaultKind::CoreOffline {
                core: CoreId::new(c),
            },
        })
        .collect();
    let plan = FaultPlan::from_events(0, events);
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let attached = Simulation::build_scaled(&machine, &spec(), 1, Scale::quick())
        .unwrap()
        .with_fault_plan(plan);
    match attached {
        Ok(_) => panic!("a machine-draining plan must be rejected"),
        Err(err) => assert!(matches!(err, Error::InvalidFaultPlan(_)), "got {err:?}"),
    }
}

#[test]
fn throttled_runs_are_no_faster_than_clean_ones() {
    use amp_sim::faults::{FaultEvent, FaultKind};
    use amp_types::{CoreId, SimTime};

    // Quarter-speed every core early and never restore: a partial
    // throttle can accidentally *improve* an asymmetry-blind schedule
    // by forcing a better placement, but slowing the whole machine
    // cannot.
    let events = (0..4)
        .map(|c| FaultEvent {
            at: SimTime::from_millis(2),
            kind: FaultKind::Throttle {
                core: CoreId::new(c),
                factor: 0.25,
            },
        })
        .collect();
    let plan = FaultPlan::from_events(9, events);
    for kind in FIVE {
        let clean = run_with_plan(kind, 5, FaultPlan::empty());
        let throttled = run_with_plan(kind, 5, plan.clone());
        assert_eq!(throttled.degradation.throttles, 4, "{}", kind.name());
        assert!(
            throttled.makespan >= clean.makespan,
            "{}: throttled {} beat clean {}",
            kind.name(),
            throttled.makespan,
            clean.makespan
        );
    }
}
