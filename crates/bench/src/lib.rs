//! Shared helpers for the benches and the `repro` figure regenerator.

#![warn(missing_docs)]

use std::borrow::Cow;

use amp_perf::SpeedupModel;
use amp_sim::telemetry::chrome::{Arg, ChromeTrace};
use amp_sim::telemetry::SchedEvent;
use amp_sim::{SimParams, Simulation, SimulationOutcome, TraceEvent};
use amp_types::{CoreId, CoreOrder, MachineConfig, SimTime, ThreadId};
use amp_workloads::{CompiledWorkload, Scale, WorkloadSpec};
use colab::{ExperimentConfig, Harness, SchedulerKind};

/// Builds a harness at the given scale, optionally with the trained
/// Table 2 model (the full pipeline) instead of the analytic heuristic.
///
/// # Panics
///
/// Panics if model training fails — that means a benchmark model is
/// broken, which should fail loudly in benches.
pub fn harness_at(scale: f64, train: bool) -> Harness {
    harness_with(scale, train, 1)
}

/// Like [`harness_at`] with explicit replications per cell.
///
/// # Panics
///
/// Panics if model training fails.
pub fn harness_with(scale: f64, train: bool, replications: u32) -> Harness {
    let config = ExperimentConfig {
        scale: Scale::new(scale),
        seed: 42,
        train_model: train,
        replications,
        ..ExperimentConfig::default()
    };
    Harness::new(config).expect("harness construction succeeds")
}

/// Renders the machine-readable benchmark report for one `repro`
/// invocation (the `--bench-json` payload).
///
/// Combines the process-wide [`colab::simcost`] counters (event-loop
/// wall time and events processed per policy) with the harness's pooled
/// decision telemetry (picks per policy) into one JSON document:
/// aggregate `events_per_sec` and `cells_per_sec`, plus a per-policy
/// breakdown with `run_ns_per_pick` — event-loop wall nanoseconds per
/// scheduler decision, the end-to-end cost of one pick including the
/// dispatch machinery around it.
///
/// `wall_secs` is the whole invocation's wall time and `cells` the
/// number of experiment cells evaluated. Policies with no recorded runs
/// are omitted.
pub fn bench_run_json(harness: &Harness, wall_secs: f64, cells: usize) -> String {
    let cost = colab::simcost::snapshot();
    let picks_by_name: Vec<(&str, u64)> = harness
        .telemetry_by_scheduler()
        .into_iter()
        .map(|(name, report)| (name, report.counters.picks))
        .collect();

    let mut policies = String::new();
    for kind in &cost.kinds {
        if kind.runs == 0 {
            continue;
        }
        let picks = picks_by_name
            .iter()
            .find(|(name, _)| *name == kind.name)
            .map_or(0, |&(_, picks)| picks);
        let per_pick = if picks == 0 { 0.0 } else { kind.run_ns as f64 / picks as f64 };
        if !policies.is_empty() {
            policies.push(',');
        }
        policies.push_str(&format!(
            concat!(
                "\n    {{\"name\": \"{}\", \"runs\": {}, \"run_ms\": {:.3}, ",
                "\"events\": {}, \"events_per_sec\": {:.0}, ",
                "\"segments\": {}, \"segments_per_sec\": {:.0}, ",
                "\"picks\": {}, \"run_ns_per_pick\": {:.1}}}"
            ),
            kind.name,
            kind.runs,
            kind.run_ns as f64 / 1e6,
            kind.events,
            kind.events_per_sec(),
            kind.segments,
            kind.segments_per_sec(),
            picks,
            per_pick,
        ));
    }

    let interning = harness.intern_stats();
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"colab-bench-run/2\",\n",
            "  \"wall_secs\": {:.3},\n",
            "  \"cells\": {},\n",
            "  \"cells_per_sec\": {:.2},\n",
            "  \"sim\": {{\"build_ms\": {:.3}, \"run_ms\": {:.3}, ",
            "\"runs\": {}, \"events\": {}, \"events_per_sec\": {:.0}, ",
            "\"compute_leaves\": {}, \"segments\": {}, ",
            "\"segments_per_sec\": {:.0}}},\n",
            "  \"interning\": {{\"hits\": {}, \"misses\": {}}},\n",
            "  \"policies\": [{}\n  ]\n",
            "}}\n"
        ),
        wall_secs,
        cells,
        if wall_secs > 0.0 { cells as f64 / wall_secs } else { 0.0 },
        cost.build_ns as f64 / 1e6,
        cost.run_ns() as f64 / 1e6,
        cost.runs(),
        cost.events(),
        cost.events_per_sec(),
        cost.leaves(),
        cost.segments(),
        cost.segments_per_sec(),
        interning.hits,
        interning.misses,
        policies,
    )
}

/// Runs `spec` under `kind` on the paper's 2B+2S machine with both the
/// execution trace and the telemetry event ring enabled, then renders
/// the run as Chrome trace-event JSON (loadable in Perfetto or
/// `chrome://tracing`). Used by `repro --trace-json`.
///
/// # Panics
///
/// Panics if the workload fails to build or the simulation fails — both
/// mean a broken benchmark model and should fail loudly.
pub fn chrome_trace_json(spec: &WorkloadSpec, kind: SchedulerKind, scale: f64) -> String {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let params = SimParams {
        trace_capacity: 1 << 18,
        event_capacity: 1 << 16,
        ..SimParams::default()
    };
    let compiled = CompiledWorkload::compile(spec, 42, Scale::new(scale)).expect("workload builds");
    let sim = Simulation::from_compiled_with_params(&machine, compiled.apps().to_vec(), 42, params)
        .expect("workload loads");
    let mut sched = kind.create(&machine, &SpeedupModel::heuristic());
    let outcome = sim.run(sched.as_mut()).expect("simulation completes");
    render_chrome_trace(&machine, &outcome)
}

/// Renders a finished run (with tracing enabled) as Chrome trace-event
/// JSON: one viewer row per core, a slice per dispatch→stop span, and
/// instant markers for the recorded scheduler decision events. `Pick`
/// events are omitted — every slice already is one.
pub fn render_chrome_trace(machine: &MachineConfig, outcome: &SimulationOutcome) -> String {
    const PID: u64 = 1;
    // Measured over the paper workloads: ~48 bytes per trace event (a
    // slice pairs two of them, wakes render nothing) and ~96 per ring
    // event (about half are unrendered picks).
    let bytes = 48 * outcome.trace.events().len() + 96 * outcome.telemetry_events.len();
    let mut trace = ChromeTrace::with_capacity(bytes + 64 * (machine.num_cores() + 1));
    trace.process_name(PID, &format!("{} on {machine}", outcome.scheduler));
    for (id, spec) in machine.iter() {
        trace.thread_name(PID, id.index() as u64, &format!("{} core {}", spec.kind, id.index()));
    }
    let thread_name = |t: ThreadId| match outcome.threads.get(t.index()) {
        Some(stats) => Cow::Borrowed(stats.name.as_str()),
        None => Cow::Owned(format!("t{}", t.index())),
    };
    let mut slice = |core: usize, from: SimTime, to: SimTime, t: ThreadId, stop: &str| {
        trace.complete(
            &thread_name(t),
            "exec",
            PID,
            core as u64,
            from.as_nanos(),
            to.saturating_since(from).as_nanos(),
            &[("thread", Arg::Uint(t.index() as u64)), ("stop", Arg::Str(stop))],
        );
    };

    let mut open: Vec<Option<(SimTime, ThreadId)>> = vec![None; machine.num_cores()];
    for event in outcome.trace.events() {
        match *event {
            TraceEvent::Dispatch { at, core, thread } => {
                open[core.index()] = Some((at, thread));
            }
            TraceEvent::Stop { at, core, thread: _, reason } => {
                if let Some((from, t)) = open[core.index()].take() {
                    slice(core.index(), from, at, t, reason.label());
                }
            }
            _ => {}
        }
    }
    for (ci, entry) in open.iter().enumerate() {
        if let Some((from, t)) = *entry {
            slice(ci, from, outcome.makespan, t, "horizon");
        }
    }

    for stamped in &outcome.telemetry_events {
        let (name, tid, ts) =
            (stamped.event.kind(), stamped.core.index() as u64, stamped.at.as_nanos());
        let mut instant =
            |args: &[(&str, Arg<'_>)]| trace.instant(name, "sched", PID, tid, ts, args);
        let core = |c: CoreId| Arg::Uint(c.index() as u64);
        match stamped.event {
            SchedEvent::Pick { .. } => {}
            SchedEvent::Migrate { thread, from, to, direction } => instant(&[
                ("thread", Arg::Str(&thread_name(thread))),
                ("from", core(from)),
                ("to", core(to)),
                ("dir", Arg::Str(direction.label())),
            ]),
            SchedEvent::Preempt { victim, cause } => instant(&[
                ("victim", Arg::Str(&thread_name(victim))),
                ("cause", Arg::Str(cause.label())),
            ]),
            SchedEvent::Relabel { thread, from, to } => instant(&[
                ("thread", Arg::Str(&thread_name(thread))),
                ("from", Arg::Str(from.label())),
                ("to", Arg::Str(to.label())),
            ]),
            SchedEvent::SlicePredict { thread, predicted_speedup, slice } => instant(&[
                ("thread", Arg::Str(&thread_name(thread))),
                ("speedup", Arg::Fixed2(predicted_speedup)),
                ("slice", Arg::Duration(slice)),
            ]),
            SchedEvent::FutexWake { waker, woken, blocked } => instant(&[
                ("waker", Arg::Str(&thread_name(waker))),
                ("woken", Arg::Str(&thread_name(woken))),
                ("blocked", Arg::Duration(blocked)),
            ]),
            SchedEvent::IdleSteal { thread, from } => instant(&[
                ("thread", Arg::Str(&thread_name(thread))),
                ("from_core", core(from)),
            ]),
            SchedEvent::CoreOffline { core: c } | SchedEvent::CoreOnline { core: c } => {
                instant(&[("core", core(c))])
            }
            SchedEvent::Throttle { core: c, factor } => {
                instant(&[("core", core(c)), ("factor", Arg::Fixed2(factor))])
            }
        }
    }
    trace.finish()
}
