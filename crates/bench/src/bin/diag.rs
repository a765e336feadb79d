//! Diagnostic: detailed per-scheduler stats for one paper workload.
//!
//! ```text
//! diag [--jobs N] [workload] [big] [little] [scale]
//!   workload: a Table 4 name (Sync-2, Rand-7, …; default: Sync-2)
//!   big:      big-core count (default: 2)
//!   little:   little-core count (default: 2)
//!   scale:    workload scale factor (default: 1)
//! ```
//!
//! `--jobs N` runs the per-scheduler simulations on N worker threads
//! (default: available parallelism). Each scheduler's block is rendered
//! to a buffer and printed in the fixed policy order, so output is
//! byte-identical for every N. Every scheduler predicts speedups with
//! the trained Table 2 model, the one `repro` reports under.
//!
//! An unknown flag or workload name, a core count that is not a
//! non-negative integer, a machine with no cores, a scale that is not a
//! positive number, or a fifth positional argument exits with status 1.

use std::fmt::Write as _;
use std::process::ExitCode;

use amp_perf::SpeedupModel;
use amp_sim::Simulation;
use amp_types::{CoreOrder, MachineConfig};
use amp_workloads::{PaperWorkload, Scale, WorkloadSpec};
use colab::sweep::parallel_map;
use colab::SchedulerKind;

/// A validated command line.
struct Options {
    jobs: usize,
    workload: PaperWorkload,
    big: usize,
    little: usize,
    scale: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            jobs = args
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("--jobs needs a count")?;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        } else {
            positional.push(arg);
        }
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
        jobs,
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

    let harness = colab_bench::harness_with(scale, 1);
    let blocks = parallel_map(opts.jobs, &SchedulerKind::ALL, |&kind| {
        render_scheduler(kind, &spec, harness.model(), big, little, scale)
    });
    for block in blocks {
        match block {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Runs one scheduler on the workload and renders its diagnostic block.
fn render_scheduler(
    kind: SchedulerKind,
    spec: &WorkloadSpec,
    model: &SpeedupModel,
    big: usize,
    little: usize,
    scale: f64,
) -> Result<String, String> {
    let machine = MachineConfig::asymmetric(big, little, CoreOrder::BigFirst);
    let sim = Simulation::build_scaled(&machine, spec, 42, Scale::new(scale))
        .map_err(|e| format!("building {} workload: {e}", spec.name()))?;
    let mut sched = kind.create(&machine, model);
    let out = sim
        .run(sched.as_mut())
        .map_err(|e| format!("running {}: {e}", kind.name()))?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "\n== {:<6} makespan {}  util {:.2}  switches {}  migrations {}",
        kind.name(),
        out.makespan,
        out.utilization(),
        out.context_switches,
        out.migrations
    );
    for app in &out.apps {
        let _ = writeln!(text, "  app {:<14} turnaround {}", app.name, app.turnaround);
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
        let _ = writeln!(
            text,
            "  app {:<14} big {:.3}s little {:.3}s blocked {:.3}s ready {:.3}s",
            out.apps[i].name, bigt, littlet, blocked, ready
        );
    }
    let idle_ratio: f64 = 1.0 - out.utilization();
    let _ = writeln!(text, "  idle fraction {:.3}", idle_ratio);
    let _ = write!(text, "{}", out.telemetry);
    Ok(text)
}
