//! Diagnostic: detailed per-scheduler stats for one paper workload.
//!
//! ```text
//! diag [workload] [big] [little] [scale]
//!   workload: a Table 4 name (Sync-2, Rand-7, …; default: Sync-2)
//!   big:      big-core count (default: 2)
//!   little:   little-core count (default: 2)
//!   scale:    workload scale factor (default: 1)
//! ```
//!
//! Runs Linux, WASH and COLAB in that order and prints one block per
//! scheduler. Every scheduler predicts speedups with the trained Table 2
//! model, the one `repro` reports under.
//!
//! Any flag, an unknown workload name, a core count that is not a
//! non-negative integer, a machine with no cores, a scale that is not a
//! positive number, or a fifth positional argument exits with status 1.

use std::process::ExitCode;

use amp_perf::SpeedupModel;
use amp_sim::Simulation;
use amp_types::{CoreOrder, MachineConfig};
use amp_workloads::{PaperWorkload, Scale, WorkloadSpec};
use colab::SchedulerKind;

/// A validated command line.
struct Options {
    workload: PaperWorkload,
    big: usize,
    little: usize,
    scale: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        }
        positional.push(arg);
    }
    if let Some(extra) = positional.get(4) {
        return Err(format!("unexpected argument {extra}"));
    }
    let arg = |i: usize, default: &'static str| positional.get(i).map_or(default, String::as_str);

    let name = arg(0, "Sync-2");
    let workload = PaperWorkload::all()
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name}; use a Table 4 name"))?;
    let cores = |value: &str| {
        value
            .parse::<usize>()
            .map_err(|_| format!("bad core count {value}; use a non-negative integer"))
    };
    let (big, little) = (cores(arg(1, "2"))?, cores(arg(2, "2"))?);
    if big + little == 0 {
        return Err("a machine needs at least one core".into());
    }
    let scale_arg = arg(3, "1.0");
    let scale = match scale_arg.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => scale,
        _ => return Err(format!("bad scale {scale_arg}; use a positive number")),
    };
    Ok(Options {
        workload,
        big,
        little,
        scale,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (big, little, scale) = (opts.big, opts.little, opts.scale);
    let spec = opts.workload.spec();
    println!(
        "workload {} on {big}B{little}S scale {scale}",
        opts.workload.name()
    );

    let harness = colab_bench::harness_with(scale);
    for kind in SchedulerKind::ALL {
        if let Err(e) = run_scheduler(kind, &spec, harness.model(), big, little, scale) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs one scheduler on the workload and prints its diagnostic block.
fn run_scheduler(
    kind: SchedulerKind,
    spec: &WorkloadSpec,
    model: &SpeedupModel,
    big: usize,
    little: usize,
    scale: f64,
) -> Result<(), String> {
    let machine = MachineConfig::asymmetric(big, little, CoreOrder::BigFirst);
    let sim = Simulation::build_scaled(&machine, spec, 42, Scale::new(scale))
        .map_err(|e| format!("building {} workload: {e}", spec.name()))?;
    let mut sched = kind.create(&machine, model);
    let out = sim
        .run(sched.as_mut())
        .map_err(|e| format!("running {}: {e}", kind.name()))?;
    println!(
        "\n== {:<6} makespan {}  util {:.2}  switches {}  migrations {}",
        kind.name(),
        out.makespan,
        out.utilization(),
        out.context_switches,
        out.migrations
    );
    for app in &out.apps {
        println!("  app {:<14} turnaround {}", app.name, app.turnaround);
    }
    let mut by_app: Vec<(f64, f64, f64, f64)> = vec![(0.0, 0.0, 0.0, 0.0); out.apps.len()];
    for t in &out.threads {
        let e = &mut by_app[t.app.index()];
        e.0 += t.big_time.as_secs_f64();
        e.1 += t.little_time.as_secs_f64();
        e.2 += t.blocked_time.as_secs_f64();
        e.3 += t.ready_time.as_secs_f64();
    }
    for (i, (bigt, littlet, blocked, ready)) in by_app.iter().enumerate() {
        println!(
            "  app {:<14} big {:.3}s little {:.3}s blocked {:.3}s ready {:.3}s",
            out.apps[i].name, bigt, littlet, blocked, ready
        );
    }
    let idle_ratio: f64 = 1.0 - out.utilization();
    println!("  idle fraction {:.3}", idle_ratio);
    print!("{}", out.telemetry);
    Ok(())
}
