//! Visualizes one workload's schedule as a per-core text timeline.
//!
//! ```text
//! timeline [workload] [scheduler] [scale]
//!   workload:  a Table 4 name (Sync-2, Rand-7, …) or a benchmark name
//!              for single-program mode (default: ferret)
//!   scheduler: linux | gts | wash | colab (default: colab)
//!   scale:     workload scale factor (default: 0.25)
//! ```
//!
//! An unknown workload or scheduler name, or a scale that is not a
//! positive number, exits with status 1.
//!
//! The run predicts speedups with the trained Table 2 model, the one
//! `repro` reports under.
//!
//! Each row is a core; each letter is the thread running there (`A` =
//! thread 0); `.` is idle time. The legend maps letters to thread roles
//! and criticality, and a decision-telemetry block summarizes the run.
//!
//! The chart draws the execution trace: one slice per stint of a thread
//! on a core, recorded when the stint ends. The trace is bounded
//! ([`SimParams::trace_capacity`]): recording stops once the buffer
//! fills and later slices are *dropped* (drop-newest), so the chart
//! covers only the stints that ended before then. The telemetry event
//! ring is bounded too but keeps the most *recent* events (drop-oldest).
//! Both report how much was dropped.

use amp_sim::{SimParams, Simulation};
use amp_types::{CoreOrder, MachineConfig};
use amp_workloads::{BenchmarkId, CompiledWorkload, PaperWorkload, Scale, WorkloadSpec};
use colab::SchedulerKind;

fn resolve_workload(name: &str) -> Option<WorkloadSpec> {
    if let Some(w) = PaperWorkload::all().into_iter().find(|w| w.name() == name) {
        return Some(w.spec());
    }
    BenchmarkId::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .map(|b| WorkloadSpec::single(b, b.clamp_threads(4)))
}

fn resolve_scheduler(name: &str) -> Option<SchedulerKind> {
    SchedulerKind::EXTENDED
        .into_iter()
        .find(|k| k.name() == name)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload_name = args.first().map(String::as_str).unwrap_or("ferret");
    let scheduler_name = args.get(1).map(String::as_str).unwrap_or("colab");
    let scale_arg = args.get(2).map(String::as_str).unwrap_or("0.25");

    let Some(spec) = resolve_workload(workload_name) else {
        eprintln!("unknown workload {workload_name}; use a Table 4 name or a benchmark name");
        std::process::exit(1);
    };
    let Some(kind) = resolve_scheduler(scheduler_name) else {
        eprintln!("unknown scheduler {scheduler_name}; use linux, gts, wash or colab");
        std::process::exit(1);
    };
    let scale = match scale_arg.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => scale,
        _ => {
            eprintln!("bad scale {scale_arg}; use a positive number");
            std::process::exit(1);
        }
    };

    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let params = SimParams {
        trace_capacity: 1 << 18,
        event_capacity: 1 << 16,
        ..SimParams::default()
    };
    let sim = match CompiledWorkload::compile(&spec, 42, Scale::new(scale)).and_then(|compiled| {
        Simulation::from_compiled_with_params(&machine, compiled.apps().to_vec(), 42, params)
    }) {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("error building {workload_name}: {e}");
            std::process::exit(1);
        }
    };
    let harness = colab_bench::harness_with(scale, 1);
    let mut sched = kind.create(&machine, harness.model());
    let outcome = match sim.run(sched.as_mut()) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error running {} on {workload_name}: {e}", kind.name());
            std::process::exit(1);
        }
    };

    println!(
        "{} under {} on {machine} — makespan {}, {} switches, {} migrations\n",
        spec.name(),
        outcome.scheduler,
        outcome.makespan,
        outcome.context_switches,
        outcome.migrations
    );
    print!("{}", outcome.trace.gantt(&machine, outcome.makespan, 100));

    println!("\nlegend (letter = thread, sorted by caused-wait):");
    let mut by_wait: Vec<_> = outcome.threads.iter().collect();
    by_wait.sort_by_key(|t| std::cmp::Reverse(t.caused_wait.as_nanos()));
    for t in by_wait.iter().take(12) {
        let letter = (b'A' + (t.id.index() % 26) as u8) as char;
        println!(
            "  {letter} {:<20} caused-wait {:>10}  big-share {:>4.2}",
            t.name,
            t.caused_wait.to_string(),
            if t.run_time.as_nanos() > 0 {
                t.big_time.as_secs_f64() / t.run_time.as_secs_f64()
            } else {
                0.0
            }
        );
    }
    if outcome.trace.dropped() > 0 {
        println!(
            "(trace full: {} later slices dropped — the chart covers only \
             the traced prefix; raise trace_capacity for longer runs)",
            outcome.trace.dropped()
        );
    }

    println!("\ndecision telemetry:");
    print!("{}", outcome.telemetry);
}
