//! Pins the CFS-family policies (linux, wash, gts, equal-progress) on
//! the machines where their placement falls back: a machine with no
//! little cores, one with no big cores, and a 2B2S machine that loses
//! both big cores mid-run. No golden fixture reaches these paths, so each
//! run's fingerprint — makespan, per-app turnarounds, events processed
//! and the decision counters — is pinned to recorded values. GTS lays
//! its rule over CFS, so on a machine of one core kind its run must also
//! equal Linux's.

use amp_faults::{FaultEvent, FaultKind, FaultPlan};
use amp_perf::SpeedupModel;
use amp_sim::Simulation;
use amp_types::{CoreId, CoreOrder, MachineConfig, SimTime};
use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};
use colab::SchedulerKind;

const FAMILY: [SchedulerKind; 4] = [
    SchedulerKind::Linux,
    SchedulerKind::Wash,
    SchedulerKind::Gts,
    SchedulerKind::EqualProgress,
];

/// A bottleneck-heavy pipeline next to a compute-bound program, so WASH
/// binds threads to big cores and GTS sees both busy and idle threads.
fn spec() -> WorkloadSpec {
    WorkloadSpec::named(
        "fallback-mix",
        vec![(BenchmarkId::Ferret, 4), (BenchmarkId::Blackscholes, 3)],
    )
}

/// Hot-unplugs both big cores of a big-first 2B2S machine at 150 ms.
fn big_cores_unplugged() -> FaultPlan {
    let offline = |core| FaultEvent {
        at: SimTime::from_millis(150),
        kind: FaultKind::CoreOffline {
            core: CoreId::new(core),
        },
    };
    FaultPlan::from_events(3, vec![offline(0), offline(1)])
}

/// FNV-1a, so a counters block pins as one number.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `makespan_ns [turnaround_ns..] events counters_hash` of one run.
fn fingerprint(kind: SchedulerKind, machine: &MachineConfig, plan: FaultPlan) -> String {
    let sim = Simulation::build_scaled(machine, &spec(), 11, Scale::new(0.5))
        .expect("workload builds")
        .with_fault_plan(plan)
        .expect("plan is valid for the machine");
    let mut sched = kind.create(machine, &SpeedupModel::heuristic());
    let outcome = sim.run(sched.as_mut()).expect("run completes");
    assert_eq!(outcome.degradation.stranded_enqueues, 0, "{}", kind.name());
    let turnarounds: Vec<u64> = outcome
        .apps
        .iter()
        .map(|a| a.turnaround.as_nanos())
        .collect();
    format!(
        "{} {:?} {} {:016x}",
        outcome.makespan.as_nanos(),
        turnarounds,
        outcome.events_processed,
        fnv(&format!("{:?}", outcome.telemetry.counters)),
    )
}

fn check(machine: &MachineConfig, plan: FaultPlan, expected: [&str; 4]) {
    for (kind, want) in FAMILY.into_iter().zip(expected) {
        let got = fingerprint(kind, machine, plan.clone());
        assert_eq!(got, want, "{} on {}", kind.name(), machine.label());
    }
}

/// GTS's makespan, per-app turnarounds and events equal Linux's on
/// `machine`; only the decision counters differ, by GTS's relabels.
fn check_gts_schedules_as_linux(machine: &MachineConfig) {
    let run = |kind| {
        let got = fingerprint(kind, machine, FaultPlan::empty());
        let (run, _counters) = got.rsplit_once(' ').expect("fingerprint ends in a hash");
        run.to_string()
    };
    let (gts, linux) = (run(SchedulerKind::Gts), run(SchedulerKind::Linux));
    assert_eq!(gts, linux, "gts against linux on {}", machine.label());
}

#[test]
fn no_little_cores() {
    check(
        &MachineConfig::all_big(4),
        FaultPlan::empty(),
        [
            "187825000 [187825000, 112304110] 389 509089324eb48c86",
            "187825000 [187825000, 112304110] 389 fa9f7a034f9b63a6",
            "187825000 [187825000, 112304110] 389 8ac5da2cf6abd7f1",
            "187825000 [187825000, 112304110] 389 41affb6a7fca7eae",
        ],
    );
    check_gts_schedules_as_linux(&MachineConfig::all_big(4));
}

#[test]
fn no_big_cores() {
    check(
        &MachineConfig::all_little(4),
        FaultPlan::empty(),
        [
            "389313444 [389313444, 245967250] 629 ffcf5235e1a2e81c",
            "389313444 [389313444, 245967250] 629 ffcf5235e1a2e81c",
            "389313444 [389313444, 245967250] 629 56c0d4109ef18a65",
            "378534207 [378534207, 253742021] 632 fd390e5e07111612",
        ],
    );
    check_gts_schedules_as_linux(&MachineConfig::all_little(4));
}

#[test]
fn big_cluster_hot_unplugged_mid_run() {
    check(
        &MachineConfig::paper_2b2s(CoreOrder::BigFirst),
        big_cores_unplugged(),
        [
            "327756825 [327756825, 238181183] 532 c2df30b0e99dc8bf",
            "294778826 [294778826, 220466257] 516 069538a7fa58bebf",
            "389101361 [389101361, 247010681] 551 76e95f105bf8a9f4",
            "351761729 [351761729, 216070000] 539 eac6110ea8e20281",
        ],
    );
}
