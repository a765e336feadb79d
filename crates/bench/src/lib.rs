//! Shared helpers for the `repro` figure regenerator and its tests.

#![warn(missing_docs)]

use amp_perf::SpeedupModel;
use amp_sim::telemetry::chrome::{Arg, ChromeTrace, Kind, Template};
use amp_sim::telemetry::SchedEvent;
use amp_sim::{SimParams, Simulation, SimulationOutcome};
use amp_types::{CoreId, CoreOrder, MachineConfig, ThreadId};
use amp_workloads::{CompiledWorkload, Scale, WorkloadSpec};
use colab::{ExperimentConfig, Harness, SchedulerKind};

/// Builds a harness at the given scale and the default seed, under the
/// trained Table 2 model.
///
/// # Panics
///
/// Panics if model training fails — that means a benchmark model is
/// broken, which should fail loudly.
pub fn harness_with(scale: f64) -> Harness {
    let config = ExperimentConfig {
        scale: Scale::new(scale),
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
/// `telemetry_buckets` is the memoized telemetry footprint: the latency
/// histogram buckets the harness stores (non-empty ones only), summed
/// over the three histograms of every memoized paper run set. It depends
/// only on the code and the flags, like the event counts.
/// `peak_rss_mb` is the process's resident-memory high-water mark
/// (`VmHWM`) when the report is written, or `null` where the platform
/// does not report it; unlike the counters it varies from run to run.
///
/// `wall_secs` is the whole invocation's wall time and `cells` the
/// number of paper-protocol cells evaluated, the cells whose runs the
/// event counts cover. Policies with no recorded runs are omitted.
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
        let per_pick = if picks == 0 {
            0.0
        } else {
            kind.run_ns as f64 / picks as f64
        };
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
    let telemetry_buckets: usize = harness
        .telemetry_cells()
        .into_iter()
        .map(|(_, _, _, report)| {
            report.wakeup_to_run.buckets().len()
                + report.runqueue_wait.buckets().len()
                + report.futex_block.buckets().len()
        })
        .sum();
    let peak_rss_mb = peak_rss_mb().map_or_else(|| "null".to_string(), |mb| format!("{mb:.2}"));
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"colab-bench-run/4\",\n",
            "  \"wall_secs\": {:.3},\n",
            "  \"cells\": {},\n",
            "  \"cells_per_sec\": {:.2},\n",
            "  \"sim\": {{\"build_ms\": {:.3}, \"run_ms\": {:.3}, ",
            "\"runs\": {}, \"events\": {}, \"events_per_sec\": {:.0}, ",
            "\"compute_leaves\": {}, \"segments\": {}, ",
            "\"segments_per_sec\": {:.0}}},\n",
            "  \"interning\": {{\"hits\": {}, \"misses\": {}}},\n",
            "  \"telemetry_buckets\": {},\n",
            "  \"peak_rss_mb\": {},\n",
            "  \"policies\": [{}\n  ]\n",
            "}}\n"
        ),
        wall_secs,
        cells,
        if wall_secs > 0.0 {
            cells as f64 / wall_secs
        } else {
            0.0
        },
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
        telemetry_buckets,
        peak_rss_mb,
        policies,
    )
}

/// This process's resident-memory high-water mark in MiB, from the
/// `VmHWM` line of `/proc/self/status`; `None` where that is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `spec` under `kind`, predicting speedups with `model`, on the
/// paper's 2B+2S machine with both the execution trace and the telemetry
/// event ring enabled, then renders the run as Chrome trace-event JSON
/// (loadable in Perfetto or `chrome://tracing`). Used by
/// `repro --trace-json` with the model of the run it reports.
///
/// # Panics
///
/// Panics if the workload fails to build or the simulation fails — both
/// mean a broken benchmark model and should fail loudly.
pub fn chrome_trace_json(
    spec: &WorkloadSpec,
    kind: SchedulerKind,
    scale: f64,
    model: &SpeedupModel,
) -> String {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let params = SimParams {
        trace_capacity: 1 << 18,
        event_capacity: 1 << 16,
        ..SimParams::default()
    };
    let compiled = CompiledWorkload::compile(spec, 42, Scale::new(scale)).expect("workload builds");
    let sim = Simulation::from_compiled_with_params(&machine, compiled.apps().to_vec(), 42, params)
        .expect("workload loads");
    let mut sched = kind.create(&machine, model);
    let outcome = sim.run(sched.as_mut()).expect("simulation completes");
    render_chrome_trace(&machine, &outcome)
}

/// Process id of every rendered row.
const PID: u64 = 1;

/// The decision markers [`render_chrome_trace`] writes: each
/// [`SchedEvent::kind`], with its argument keys.
const MARKERS: [(&str, &[&str]); 9] = [
    ("migrate", &["thread", "from", "to", "dir"]),
    ("preempt", &["victim", "cause"]),
    ("relabel", &["thread", "from", "to"]),
    ("slice_predict", &["thread", "speedup", "slice"]),
    ("futex_wake", &["waker", "woken", "blocked"]),
    ("idle_steal", &["thread", "from_core"]),
    ("core_offline", &["core"]),
    ("core_online", &["core"]),
    ("throttle", &["core", "factor"]),
];

/// Category of the execution slices.
const SLICE_CATEGORY: &str = "exec";

/// Category of the decision markers.
const MARKER_CATEGORY: &str = "sched";

/// The template of thread `t`'s slices: named after the thread, with its
/// index and, per slice, the reason it stopped.
fn slice_template(trace: &mut ChromeTrace, t: usize) -> Template {
    trace.template(
        Kind::Complete(Arg::Thread(t)),
        SLICE_CATEGORY,
        PID,
        &[("thread", Some(Arg::Uint(t as u64))), ("stop", None)],
    )
}

/// Renders a finished run (with tracing enabled) as Chrome trace-event
/// JSON: one viewer row per core, a complete event per recorded
/// execution slice, and an instant marker per recorded scheduler
/// decision event.
pub fn render_chrome_trace(machine: &MachineConfig, outcome: &SimulationOutcome) -> String {
    // An upper bound on every one of perfbench's 208 `recorded` renders,
    // at seeds 42 and 13 alike (4 % over in total): 150 bytes per slice
    // and 160 per ring event, so the document is allocated once.
    let bytes = 150 * outcome.trace.events().len() + 160 * outcome.telemetry_events.len();
    let mut trace = ChromeTrace::new(
        outcome.threads.iter().map(|t| t.name.as_str()),
        bytes + 64 * (machine.num_cores() + 1),
    );
    // The templates are built before the first event allocates the
    // document, so that they do not sit after it on the heap.
    let slices: Vec<Template> = (0..outcome.threads.len())
        .map(|t| slice_template(&mut trace, t))
        .collect();
    let markers = MARKERS.map(|(name, keys)| {
        let args: Vec<_> = keys.iter().map(|&key| (key, None)).collect();
        trace.template(Kind::Instant(name), MARKER_CATEGORY, PID, &args)
    });
    trace.process_name(PID, &format!("{} on {machine}", outcome.scheduler));
    for (id, spec) in machine.iter() {
        trace.thread_name(
            PID,
            id.index() as u64,
            &format!("{} core {}", spec.kind, id.index()),
        );
    }
    for slice in outcome.trace.events() {
        let t = slice.thread.index();
        let kind = slices
            .get(t)
            .copied()
            .unwrap_or_else(|| slice_template(&mut trace, t));
        let ts = slice.from.as_nanos();
        let dur = slice.to.saturating_since(slice.from).as_nanos();
        let stop = [Arg::Label(slice.reason.label())];
        trace.complete(&kind, slice.core.index() as u64, ts, dur, &stop);
    }

    let [migrate, preempt, relabel, slice_predict, futex_wake, idle_steal, core_offline, core_online, throttle] =
        &markers;
    let thread = |t: ThreadId| Arg::Thread(t.index());
    let core = |c: CoreId| Arg::Uint(c.index() as u64);
    for stamped in &outcome.telemetry_events {
        let (tid, ts) = (stamped.core.index() as u64, stamped.at.as_nanos());
        let mut instant = |kind: &Template, args: &[Arg]| trace.instant(kind, tid, ts, args);
        match stamped.event {
            SchedEvent::Migrate {
                thread: t,
                from,
                to,
                direction,
            } => instant(
                migrate,
                &[
                    thread(t),
                    core(from),
                    core(to),
                    Arg::Label(direction.label()),
                ],
            ),
            SchedEvent::Preempt { victim, cause } => {
                instant(preempt, &[thread(victim), Arg::Label(cause.label())])
            }
            SchedEvent::Relabel {
                thread: t,
                from,
                to,
            } => instant(
                relabel,
                &[thread(t), Arg::Label(from.label()), Arg::Label(to.label())],
            ),
            SchedEvent::SlicePredict {
                thread: t,
                predicted_speedup,
                slice,
            } => instant(
                slice_predict,
                &[
                    thread(t),
                    Arg::Fixed2(predicted_speedup),
                    Arg::Duration(slice),
                ],
            ),
            SchedEvent::FutexWake {
                waker,
                woken,
                blocked,
            } => instant(
                futex_wake,
                &[thread(waker), thread(woken), Arg::Duration(blocked)],
            ),
            SchedEvent::IdleSteal { thread: t, from } => {
                instant(idle_steal, &[thread(t), core(from)])
            }
            SchedEvent::CoreOffline { core: c } => instant(core_offline, &[core(c)]),
            SchedEvent::CoreOnline { core: c } => instant(core_online, &[core(c)]),
            SchedEvent::Throttle { core: c, factor } => {
                instant(throttle, &[core(c), Arg::Fixed2(factor)])
            }
        }
    }
    trace.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_sim::telemetry::chrome::needs_escape;
    use amp_sim::telemetry::{ClusterDirection, LabelClass, PreemptCause};
    use amp_sim::StopReason;
    use amp_types::SimDuration;

    /// Every text the renderer hands the writer as an [`Arg::Label`] is
    /// copied without escaping, and the marker names, categories and
    /// argument keys are constants: none may hold a byte JSON escapes.
    #[test]
    fn constant_text_needs_no_escape() {
        let (t, c) = (ThreadId::new(0), CoreId::new(0));
        let events = [
            SchedEvent::Migrate {
                thread: t,
                from: c,
                to: c,
                direction: ClusterDirection::BigToBig,
            },
            SchedEvent::Preempt {
                victim: t,
                cause: PreemptCause::Tick,
            },
            SchedEvent::Relabel {
                thread: t,
                from: LabelClass::Flexible,
                to: LabelClass::Flexible,
            },
            SchedEvent::SlicePredict {
                thread: t,
                predicted_speedup: 1.0,
                slice: SimDuration::ZERO,
            },
            SchedEvent::FutexWake {
                waker: t,
                woken: t,
                blocked: SimDuration::ZERO,
            },
            SchedEvent::IdleSteal { thread: t, from: c },
            SchedEvent::CoreOffline { core: c },
            SchedEvent::CoreOnline { core: c },
            SchedEvent::Throttle {
                core: c,
                factor: 1.0,
            },
        ];
        let mut texts: Vec<&str> = events.iter().map(SchedEvent::kind).collect();
        texts.extend(
            [
                StopReason::QuantumExpired,
                StopReason::Preempted,
                StopReason::Blocked,
                StopReason::Finished,
                StopReason::Stolen,
            ]
            .map(StopReason::label),
        );
        texts.extend(ClusterDirection::ALL.map(ClusterDirection::label));
        texts.extend(PreemptCause::ALL.map(PreemptCause::label));
        texts.extend(LabelClass::ALL.map(LabelClass::label));
        texts.extend([SLICE_CATEGORY, MARKER_CATEGORY, "thread", "stop"]);
        for (name, keys) in MARKERS {
            assert!(
                texts.contains(&name),
                "marker `{name}` is a `SchedEvent::kind`"
            );
            texts.extend(keys);
        }
        for text in texts {
            assert!(!needs_escape(text), "{text:?} needs escaping");
        }
    }
}
