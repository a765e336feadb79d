//! Telemetry integration: the decision counters populate, the event ring
//! honours its capacity, and — the acceptance-critical property —
//! enabling event recording never perturbs scheduling.

use amp_sim::{RoundRobin, SimParams, Simulation, SimulationOutcome};
use amp_types::{CoreOrder, MachineConfig};
use amp_workloads::{BenchmarkId, CompiledWorkload, Scale, WorkloadSpec};

fn run_with(event_capacity: usize) -> SimulationOutcome {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let spec = WorkloadSpec::named(
        "telemetry-mix",
        vec![(BenchmarkId::Ferret, 5), (BenchmarkId::Radix, 3)],
    );
    let params = SimParams {
        event_capacity,
        ..SimParams::default()
    };
    let compiled = CompiledWorkload::compile(&spec, 7, Scale::quick()).unwrap();
    Simulation::from_compiled_with_params(&machine, compiled.apps().to_vec(), 7, params)
        .unwrap()
        .run(&mut RoundRobin::new())
        .unwrap()
}

#[test]
fn counters_and_histograms_collect_without_event_recording() {
    let outcome = run_with(0);
    let t = &outcome.telemetry;
    assert_eq!(t.runs, 1);
    assert!(t.counters.picks > 0, "every dispatch is a pick");
    assert_eq!(
        t.counters.total_migrations(),
        outcome.migrations,
        "telemetry and outcome count the same migrations"
    );
    assert!(t.runqueue_wait.count() > 0);
    assert!(t.wakeup_to_run.count() > 0, "ferret wakes workers");
    assert!(t.futex_block.count() > 0, "pipeline stages block");
    // Ring disabled: nothing recorded, nothing dropped.
    assert!(outcome.telemetry_events.is_empty());
    assert_eq!(t.events_seen, 0);
    assert_eq!(t.events_dropped, 0);
}

#[test]
fn event_ring_honours_capacity_and_counts_drops() {
    let outcome = run_with(16);
    let t = &outcome.telemetry;
    assert!(outcome.telemetry_events.len() <= 16);
    assert!(t.events_seen > 16, "a quick mix overflows a 16-slot ring");
    assert_eq!(
        t.events_dropped,
        t.events_seen - outcome.telemetry_events.len() as u64
    );
    // Drop-oldest: retained events are the most recent, still in order.
    for pair in outcome.telemetry_events.windows(2) {
        assert!(pair[0].at <= pair[1].at, "ring drains oldest-first");
    }
    // The wrapped ring's buffer is rotated, not reordered: each core's
    // sequence numbers run strictly upward through the moved events.
    let mut last_seq: Vec<Option<u64>> = Vec::new();
    for event in &outcome.telemetry_events {
        let core = event.core.index();
        if core >= last_seq.len() {
            last_seq.resize(core + 1, None);
        }
        assert!(
            last_seq[core].is_none_or(|prev| event.seq > prev),
            "core {core} seq {} after {:?}",
            event.seq,
            last_seq[core]
        );
        last_seq[core] = Some(event.seq);
    }
}

#[test]
fn event_recording_does_not_perturb_scheduling() {
    let off = run_with(0);
    let on = run_with(1 << 16);
    assert_eq!(off.makespan, on.makespan, "telemetry must not change time");
    assert_eq!(off.context_switches, on.context_switches);
    assert_eq!(off.migrations, on.migrations);
    for (a, b) in off.threads.iter().zip(on.threads.iter()) {
        assert_eq!(a.finish, b.finish, "thread {:?} finish differs", a.id);
        assert_eq!(a.run_time, b.run_time);
    }
    // Same decisions → same counters; only the ring totals differ.
    assert_eq!(off.telemetry.counters, on.telemetry.counters);
    assert!(!on.telemetry_events.is_empty());
}
