//! The repository benchmark: one workload per invocation, measured for a
//! fixed time from a single process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid|chaos-mixes|recorded --seed N --seconds S --trace 0|1
//! ```
//!
//! The workload runs as repeated closed batches until `--seconds` have
//! passed. `--trace 0` prints the end-to-end metrics of untraced batches;
//! `--trace 1` interleaves untraced and traced batches and prints the
//! per-layer metrics of the traced ones. The last line of standard output
//! is one JSON object: `correct`, `attempted` and `failed` runs, and the
//! metrics by name with their units. The line before it reports the
//! checks: the simulated-output digest, the shape-check claims, and any
//! failure. End-to-end timings are scaled by a yardstick timed beside the
//! batches, to undo the host's slow phases. See `README.md` beside this
//! file for the metric map.

mod bench;
mod check;
mod hooks;
mod span;
mod stats;
mod yardstick;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::{Batch, Workload, POLICIES};
use hooks::HOOKS;
use span::{layer_totals, LayerTotals};
use stats::{band_mean, median, percentile, tail_percentile};
use yardstick::Yardstick;

/// Batches always run, however short `--seconds` is. The first untraced
/// batch warms caches and is left out of the timings. Peak memory is read
/// once this many untraced batches have run.
const MIN_BATCHES: usize = 3;
/// The percentile of a piece's scaled repeats that times it: its lower
/// quartile.
const PIECE_PCT: f64 = 25.0;
/// Yardstick timings before each batch; the fastest counts.
const YARD_RUNS: usize = 2;
/// The yardstick's time on a quiet host, the one the bounds were set on
/// (a 2.1 GHz Xeon with a 2 MiB L2 per core, 2 vCPUs). End-to-end
/// timings are scaled to a host that runs the yardstick in this time.
const YARD_REF_NS: f64 = 5.5e6;
/// Percentiles tried for the cell-latency tail, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];
/// Training runs each benchmark once on a big-only and once on a
/// little-only machine.
const TRAINING_RUNS: u64 = 2 * amp_workloads::BenchmarkId::ALL.len() as u64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("bad {flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 120)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench-out");
    let out_dir = root.join(std::process::id().to_string());
    let result = run(&args, &out_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
    let _ = std::fs::remove_dir(&root);
    match result {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn run(args: &Args, out_dir: &Path) -> Result<Vec<String>, String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut untraced: Vec<Batch> = Vec::new();
    let mut traced: Vec<Batch> = Vec::new();
    let mut yardstick = Yardstick::new();
    // The high-water mark keeps rising by the allocator's chance as a long
    // run goes on, so it is read at a fixed point instead of at the end.
    // The yardstick's memory stays resident throughout and is left out.
    let mut peak_rss = 0.0;
    // The host speed just before each untraced batch, as the factor that
    // scales its times to the reference host.
    let mut scales: Vec<f64> = Vec::new();
    while untraced.len() < MIN_BATCHES || start.elapsed() < budget {
        let yard = (0..YARD_RUNS).map(|_| yardstick.time()).min().unwrap_or(1);
        scales.push(YARD_REF_NS / yard.max(1) as f64);
        untraced.push(bench::run_batch(args.workload, args.seed, false, out_dir)?);
        if args.trace {
            traced.push(bench::run_batch(args.workload, args.seed, true, out_dir)?);
        }
        if untraced.len() == MIN_BATCHES {
            peak_rss = peak_rss_mb()? - yardstick.resident_mb();
        }
    }

    let mut problems: Vec<String> = Vec::new();
    let all: Vec<&Batch> = untraced.iter().chain(&traced).collect();
    let first = all[0];
    if all.iter().any(|b| b.digest != first.digest) {
        problems.push("sim_digest differs between batches".into());
    }
    if all.iter().any(|b| b.counts != first.counts) {
        problems.push("deterministic counts differ between batches".into());
    }
    if all
        .iter()
        .any(|b| b.claims != first.claims || b.csv_digest != first.csv_digest)
    {
        problems.push("shape check or CSV report differs between batches".into());
    }
    if traced
        .iter()
        .any(|b| hook_calls(b) != hook_calls(&traced[0]))
    {
        problems.push("hook call counts differ between traced batches".into());
    }
    if args.trace && args.workload == Workload::Recorded {
        let (digest, failures) = bench::recorded_digest_without_recording(args.seed)?;
        if digest != first.digest || !failures.is_empty() {
            problems.push("recording on and off gave different outcomes".into());
        }
    }
    if untraced.iter().any(|b| {
        (b.cell_ns.len(), b.body_ns.len(), b.unit_run_ns.len())
            != (
                first.cell_ns.len(),
                first.body_ns.len(),
                first.unit_run_ns.len(),
            )
    }) {
        problems.push("timed pieces differ between batches".into());
    }
    for batch in &all {
        problems.extend(batch.mismatches.iter().cloned());
    }
    let attempted: u64 = all.iter().map(|b| b.runs).sum();
    let failed: u64 = all.iter().map(|b| b.failures.len() as u64).sum();
    let failures: Vec<&String> = all.iter().flat_map(|b| &b.failures).take(5).collect();
    let correct = failed == 0 && problems.is_empty();

    // Every timing is the sum or a band of pieces that each batch repeats,
    // each repeat scaled by its batch's host speed and each piece timed by
    // the lower quartile of its repeats over the timed batches.
    let timed = Timed {
        batches: &untraced[1..],
        scales: &scales[1..],
    };
    let mut cells = timed.pieces(|b| &b.cell_ns);
    cells.sort_by(f64::total_cmp);
    let tail = tail_percentile(cells.len(), &TAIL_LADDER);

    let mut check = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"sim_digest\": \"{:016x}\", \"batches\": {}, \
         \"traced_batches\": {}, \"cell_samples\": {}, \"cell_tail_pct\": {}, \
         \"run_fail_ratio\": {}, \"yard_ms\": {}",
        args.workload.name(),
        args.seed,
        first.digest,
        untraced.len(),
        traced.len(),
        cells.len(),
        tail.unwrap_or(0.0),
        failed as f64 / attempted.max(1) as f64,
        YARD_REF_NS / median(timed.scales) / 1e6,
    );
    if let Some((held, total)) = first.claims {
        let _ = write!(
            check,
            ", \"claims_held\": {held}, \"claims_total\": {total}"
        );
    }
    let metrics = if args.trace {
        let (metrics, unresolved) = per_layer(&untraced, &traced);
        let _ = write!(
            check,
            ", \"unresolved_hooks\": {}",
            json_strings(&unresolved)
        );
        metrics
    } else {
        let band = |lo: f64, hi: f64| {
            if cells.is_empty() {
                0.0
            } else {
                band_mean(&cells, lo, hi)
            }
        };
        let mut setups: Vec<f64> = timed
            .batches
            .iter()
            .zip(timed.scales)
            .flat_map(|(b, scale)| b.setup_ns.iter().map(move |&ns| ns as f64 * scale))
            .collect();
        setups.sort_by(f64::total_cmp);
        let wall_ns: f64 = timed.pieces(|b| &b.body_ns).iter().sum();
        let run_ns: f64 = timed.pieces(|b| &b.unit_run_ns).iter().sum();
        vec![
            metric("setup_s", percentile(&setups, PIECE_PCT) / 1e9, "s"),
            metric("wall_s", wall_ns / 1e9, "s"),
            metric("cell_ms_mid", band(40.0, 60.0) / 1e6, "ms"),
            metric("cell_ms_tail", band(tail.unwrap_or(0.0), 100.0) / 1e6, "ms"),
            metric(
                "sim_minsts_per_s",
                first.insts / 1e6 / (run_ns.max(1.0) / 1e9),
                "Minst/s",
            ),
            metric("peak_rss_mb", peak_rss, "MB"),
        ]
    };
    let strings: Vec<String> = problems.iter().chain(failures).take(8).cloned().collect();
    let _ = write!(check, ", \"problems\": {}}}", json_strings(&strings));

    for m in &metrics {
        eprintln!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(vec![check, result])
}

/// The timed batches, each with the factor that scales its host times to
/// the reference host.
struct Timed<'a> {
    batches: &'a [Batch],
    scales: &'a [f64],
}

impl Timed<'_> {
    /// The scaled host time of each piece `pieces` lists, as the lower
    /// quartile of its repeats. Every batch runs the same pieces in the
    /// same order, so a piece's repeats share an index. Other tenants of a
    /// shared host only ever add time: in phases of minutes, which the
    /// yardstick measures and the scale undoes, and in phases of seconds
    /// that it can miss, which slow some repeats of a piece more than
    /// others; the lower quartile keeps clear of those.
    fn pieces(&self, pieces: fn(&Batch) -> &Vec<u64>) -> Vec<f64> {
        let count = self
            .batches
            .iter()
            .map(|b| pieces(b).len())
            .min()
            .unwrap_or(0);
        (0..count)
            .map(|i| {
                let mut repeats: Vec<f64> = self
                    .batches
                    .iter()
                    .zip(self.scales)
                    .map(|(b, scale)| pieces(b)[i] as f64 * scale)
                    .collect();
                repeats.sort_by(f64::total_cmp);
                percentile(&repeats, PIECE_PCT)
            })
            .collect()
    }
}

fn hook_calls(batch: &Batch) -> Vec<[u64; 7]> {
    batch.hooks.iter().map(|h| h.calls).collect()
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// Host memory high-water mark of this process, from `/proc`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Host nanoseconds of one span's two clock reads, median of repeats.
fn clock_ns() -> f64 {
    const READS: u32 = 100_000;
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
                std::hint::black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&samples)
}

/// The per-layer metrics of the traced batches (medians of per-batch
/// values; counts are exact and equal in every batch), and the hooks
/// whose cost per call is too close to the clock's own to resolve.
fn per_layer(untraced: &[Batch], traced: &[Batch]) -> (Vec<Metric>, Vec<String>) {
    let layers: Vec<_> = traced.iter().map(|b| layer_totals(&b.spans)).collect();
    let total = |name: &str, pick: fn(&LayerTotals) -> u64, scale: f64| {
        let values: Vec<f64> = layers
            .iter()
            .map(|l| l.get(name).map_or(0.0, |t| pick(t) as f64 / scale))
            .collect();
        median(&values)
    };
    let ms = |name: &str| total(name, |t| t.total_ns, 1e6);
    let us = |name: &str| total(name, |t| t.total_ns, 1e3);
    let each = |f: &dyn Fn(&Batch) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let c = traced[0].counts;
    let count = |value: u64| value as f64;

    let mut out = vec![
        metric("sim.run_ms", ms("sim.run"), "ms/batch"),
        metric(
            "sim.self_ms",
            total("sim.run", |t| t.self_ns, 1e6),
            "ms/batch",
        ),
        metric(
            "sim.self_ns_per_event",
            total("sim.run", |t| t.self_ns, 1.0) / c.events.max(1) as f64,
            "ns/event",
        ),
        metric("sim.events", count(c.events), "count"),
        metric("sim.compute_events", count(c.compute_events), "count"),
        metric("sim.compute_leaves", count(c.compute_leaves), "count"),
        metric("sim.context_switches", count(c.context_switches), "count"),
        metric("sim.migrations", count(c.migrations), "count"),
        metric("futex.waits", count(c.futex_waits), "count"),
        metric("futex.wakes", count(c.futex_wakes), "count"),
    ];
    let clock = clock_ns();
    let mut unresolved = Vec::new();
    for (p, kind) in POLICIES.iter().enumerate() {
        let policy = kind.name();
        let hooks = traced[0].hooks[p];
        for (h, hook) in HOOKS.iter().enumerate() {
            let per_call = each(&|b| b.hooks[p].ns[h] as f64 / b.hooks[p].calls[h].max(1) as f64);
            if hooks.calls[h] > 0 && per_call < 2.0 * clock {
                unresolved.push(format!("{policy}.{hook}"));
            }
            out.push(metric(
                format!("sched.{policy}.{hook}.calls"),
                count(hooks.calls[h]),
                "count",
            ));
            out.push(metric(
                format!("sched.{policy}.{hook}.ns"),
                per_call,
                "ns/call",
            ));
        }
        let picks = hooks.calls[1].max(1) as f64;
        out.push(metric(
            format!("sched.{policy}.idle_pick_ratio"),
            hooks.idle_picks as f64 / picks,
            "ratio",
        ));
    }
    let colab = traced[0].hooks[bench::policy_index(colab::SchedulerKind::Colab)];
    out.push(metric(
        "sched.colab.steal_picks",
        count(colab.steal_picks),
        "count",
    ));

    let untraced_replay = median(
        &untraced
            .iter()
            .map(|b| b.replay_ns as f64)
            .collect::<Vec<_>>(),
    );
    out.extend([
        metric("intern.calls", count(c.intern_calls), "count"),
        metric("intern.hits", count(c.intern_hits), "count"),
        metric("intern.misses", count(c.intern_misses), "count"),
        metric("intern.ms", ms("intern"), "ms/batch"),
        metric("workloads.segments", count(c.segments), "count"),
        metric("sim.build.calls", count(c.builds), "count"),
        metric("sim.build_ms", ms("sim.build"), "ms/batch"),
        metric("faults.plan_ms", ms("faults.plan"), "ms/batch"),
        metric("faults.injected", count(c.faults_injected), "count"),
        metric(
            "faults.forced_migrations",
            count(c.forced_migrations),
            "count",
        ),
        metric(
            "faults.stranded_enqueues",
            count(c.stranded_enqueues),
            "count",
        ),
        metric("telemetry.ring_events", count(c.ring_events), "count"),
        metric("telemetry.ring_dropped", count(c.ring_dropped), "count"),
        metric("trace.events", count(c.trace_events), "count"),
        metric("trace.dropped", count(c.trace_dropped), "count"),
        metric("render.chrome_ms", ms("render.chrome"), "ms/batch"),
        metric("render.gantt_ms", ms("render.gantt"), "ms/batch"),
        metric("telemetry.absorb_us", us("telemetry.absorb"), "us/batch"),
        metric("training.ms", ms("training"), "ms"),
        metric("training.sim_runs", count(TRAINING_RUNS), "count"),
        metric("perf.fit_ms", ms("perf.fit"), "ms"),
        metric("perf.r_squared", traced[0].r_squared, "ratio"),
        metric("sweep.run_plan_ms", ms("sweep.run_plan"), "ms/batch"),
        metric("metrics.summary_us", us("metrics.summary"), "us/batch"),
        metric("render.figures_ms", ms("render.figures"), "ms/batch"),
        metric(
            "render.shape_check_ms",
            ms("render.shape_check"),
            "ms/batch",
        ),
        metric("report.csv_ms", ms("report.csv"), "ms/batch"),
        metric("trace.clock_ns", clock, "ns"),
        metric(
            "trace.overhead_ratio",
            each(&|b| b.replay_ns as f64) / untraced_replay.max(1.0),
            "ratio",
        ),
    ]);
    (out, unresolved)
}
