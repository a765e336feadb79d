//! The Chrome trace exporter emits well-formed, non-trivial JSON for
//! every scheduler, and its bytes are pinned.

use amp_perf::{ExecutionProfile, SpeedupModel};
use amp_sim::{FaultPlan, SimParams, Simulation, SimulationOutcome};
use amp_types::{CoreOrder, MachineConfig, SimDuration};
use amp_workloads::{AppBuilder, BenchmarkId, CompiledApp, CompiledWorkload, Scale, WorkloadSpec};
use colab::SchedulerKind;
use colab_bench::{chrome_trace_json, render_chrome_trace};

/// Minimal structural validator: balanced brackets outside strings,
/// terminated strings — enough to prove well-formedness without a JSON
/// parser dependency.
fn check_json_object(text: &str) {
    let mut depth = 0i32;
    let mut in_string = false;
    let mut escaped = false;
    for ch in text.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_string = false;
            }
            continue;
        }
        match ch {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced brackets");
            }
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string");
    assert_eq!(depth, 0, "unbalanced document");
}

#[test]
fn exported_trace_is_valid_and_nontrivial() {
    let spec = WorkloadSpec::single(BenchmarkId::Ferret, 4);
    let json = chrome_trace_json(&spec, SchedulerKind::Colab, 0.1, &SpeedupModel::heuristic());
    check_json_object(&json);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"X\""), "has execution slices");
    assert!(json.contains("\"ph\":\"i\""), "has decision markers");
    assert!(json.contains("thread_name"), "cores are named rows");
    assert!(json.contains("futex_wake") || json.contains("migrate"));
}

#[test]
fn every_scheduler_exports_cleanly() {
    let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 4);
    for kind in SchedulerKind::EXTENDED {
        let json = chrome_trace_json(&spec, kind, 0.1, &SpeedupModel::heuristic());
        check_json_object(&json);
        assert!(
            json.contains("\"ph\":\"X\""),
            "{} trace has slices",
            kind.name()
        );
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The trace capacity `chrome_trace_json` records with.
const FULL: usize = 1 << 18;

/// `spec` at scale 0.1 on 2B2S under `kind` and `plan`, with both event
/// recorders on: the trace at `trace_capacity`, the ring at the capacity
/// `chrome_trace_json` uses.
fn recorded(
    spec: &WorkloadSpec,
    kind: SchedulerKind,
    plan: FaultPlan,
    trace_capacity: usize,
) -> (MachineConfig, SimulationOutcome) {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let params = SimParams {
        trace_capacity,
        event_capacity: 1 << 16,
        ..SimParams::default()
    };
    let compiled = CompiledWorkload::compile(spec, 42, Scale::new(0.1)).expect("workload builds");
    let sim = Simulation::from_compiled_with_params(&machine, compiled.apps().to_vec(), 42, params)
        .expect("workload loads")
        .with_fault_plan(plan)
        .expect("plan fits the machine");
    let mut sched = kind.create(&machine, &SpeedupModel::heuristic());
    let outcome = sim.run(sched.as_mut()).expect("run completes");
    (machine, outcome)
}

/// The multiprogrammed mix.
fn chaos_mix() -> WorkloadSpec {
    WorkloadSpec::named(
        "chaos-mix",
        vec![(BenchmarkId::Ferret, 4), (BenchmarkId::Blackscholes, 3)],
    )
}

/// The multiprogrammed mix under `kind` and `plan`, recorded in full.
fn recorded_mix(kind: SchedulerKind, plan: FaultPlan) -> (MachineConfig, SimulationOutcome) {
    recorded(&chaos_mix(), kind, plan, FULL)
}

fn chaos_plan(machine: &MachineConfig) -> FaultPlan {
    FaultPlan::random(machine, 3, 2.0, SimDuration::from_millis(200))
}

/// The chaos mix under COLAB and a seeded random fault plan, rendered as
/// a Chrome trace.
fn faulted_mix_json() -> String {
    let plan = chaos_plan(&MachineConfig::paper_2b2s(CoreOrder::BigFirst));
    let (machine, outcome) = recorded_mix(SchedulerKind::Colab, plan);
    render_chrome_trace(&machine, &outcome)
}

/// Byte length and FNV-1a 64 of the exporter's output: ferret with six
/// threads at scale 0.1 under each extended policy (the
/// `repro --trace-json` path), then one faulted multiprogrammed run.
const PINNED: [(&str, usize, u64); 5] = [
    ("ferret/linux", 7314, 0x29aa_939e_115b_d24c),
    ("ferret/gts", 7682, 0x3078_08ed_11b0_6c02),
    ("ferret/wash", 7403, 0xbe95_ad4f_34d4_cfec),
    ("ferret/colab", 12384, 0x2f74_2fb5_c3b8_6d62),
    ("chaos-mix/colab+faults", 44268, 0xd3da_784c_c40f_fd08),
];

#[test]
fn exporter_bytes_are_pinned() {
    let spec = WorkloadSpec::single(BenchmarkId::Ferret, 6);
    let mut rendered: Vec<(String, String)> = SchedulerKind::EXTENDED
        .iter()
        .map(|&kind| {
            (
                format!("ferret/{}", kind.name()),
                chrome_trace_json(&spec, kind, 0.1, &SpeedupModel::heuristic()),
            )
        })
        .collect();
    let faulted = faulted_mix_json();
    for marker in ["core_offline", "core_online", "throttle"] {
        assert!(
            faulted.contains(marker),
            "faulted run renders `{marker}` instants"
        );
    }
    rendered.push(("chaos-mix/colab+faults".into(), faulted));
    let got: Vec<(&str, usize, u64)> = rendered
        .iter()
        .map(|(case, json)| (case.as_str(), json.len(), fnv1a(json.as_bytes())))
        .collect();
    assert_eq!(got, PINNED);
}

/// Byte length and FNV-1a 64 of the Gantt chart (width 120 over the
/// makespan) of each run [`PINNED`] covers, in the same order.
const GANTT_PINNED: [(&str, usize, u64); 5] = [
    ("ferret/linux", 532, 0x1ba8_23ba_37e8_5b31),
    ("ferret/gts", 532, 0x7535_cccd_c7f0_eccf),
    ("ferret/wash", 532, 0xbb44_2995_cc0f_967e),
    ("ferret/colab", 532, 0xca9f_0712_5f4b_f2ca),
    ("chaos-mix/colab+faults", 532, 0xfda5_5b0e_8daa_9e8c),
];

#[test]
fn gantt_bytes_are_pinned() {
    let spec = WorkloadSpec::single(BenchmarkId::Ferret, 6);
    let mut runs: Vec<(String, MachineConfig, SimulationOutcome)> = SchedulerKind::EXTENDED
        .iter()
        .map(|&kind| {
            let (machine, outcome) = recorded(&spec, kind, FaultPlan::empty(), FULL);
            assert_eq!(
                render_chrome_trace(&machine, &outcome),
                chrome_trace_json(&spec, kind, 0.1, &SpeedupModel::heuristic()),
                "{} is the run `chrome_trace_json` renders",
                kind.name()
            );
            (format!("ferret/{}", kind.name()), machine, outcome)
        })
        .collect();
    let plan = chaos_plan(&MachineConfig::paper_2b2s(CoreOrder::BigFirst));
    let (machine, outcome) = recorded_mix(SchedulerKind::Colab, plan);
    runs.push(("chaos-mix/colab+faults".into(), machine, outcome));
    let got: Vec<(&str, usize, u64)> = runs
        .iter()
        .map(|(case, machine, outcome)| {
            let gantt = outcome.trace.gantt(machine, outcome.makespan, 120);
            (case.as_str(), gantt.len(), fnv1a(gantt.as_bytes()))
        })
        .collect();
    assert_eq!(got, GANTT_PINNED);
}

/// Thread names holding every kind of text JSON must escape, plus
/// non-ASCII that it must pass through.
const HOSTILE_NAMES: [&str; 6] = [
    "say \"hi\"",
    "back\\slash",
    "line\nbreak",
    "tab\tstop",
    "ctl\u{1}\u{1f}",
    "λ-é",
];

/// A hand-built app of [`HOSTILE_NAMES`] threads contending for one lock
/// and meeting at a barrier, run under COLAB on 2B2S with both recorders
/// on and rendered as a Chrome trace.
fn hostile_names_json() -> String {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let mut app = AppBuilder::new("hostile");
    let lock = app.lock();
    let done = app.barrier(HOSTILE_NAMES.len() as u32);
    let profiles = [
        ExecutionProfile::compute_bound(),
        ExecutionProfile::memory_bound(),
    ];
    for (i, name) in HOSTILE_NAMES.iter().enumerate() {
        app.thread(*name, profiles[i % 2])
            .repeat(20, |body| {
                body.compute(SimDuration::from_micros(400 + 150 * i as u64))
                    .lock(lock)
                    .compute(SimDuration::from_micros(60))
                    .unlock(lock);
            })
            .barrier(done);
    }
    let compiled =
        CompiledApp::compile_all(&[app.build().expect("app is valid")]).expect("app compiles");
    let params = SimParams {
        trace_capacity: 1 << 18,
        event_capacity: 1 << 16,
        ..SimParams::default()
    };
    let sim =
        Simulation::from_compiled_with_params(&machine, compiled, 42, params).expect("app loads");
    let mut sched = SchedulerKind::Colab.create(&machine, &SpeedupModel::heuristic());
    let outcome = sim.run(sched.as_mut()).expect("run completes");
    render_chrome_trace(&machine, &outcome)
}

/// Thread names are escaped wherever they are written: as slice names
/// and as the thread arguments of decision markers. Byte length and
/// FNV-1a 64 of [`hostile_names_json`].
#[test]
fn hostile_thread_names_are_pinned() {
    let json = hostile_names_json();
    check_json_object(&json);
    for escaped in [
        "say \\\"hi\\\"",
        "back\\\\slash",
        "line\\nbreak",
        "tab\\tstop",
        "ctl\\u0001\\u001f",
        "λ-é",
    ] {
        assert!(
            json.contains(&format!("\"name\":\"{escaped}\"")),
            "a slice is named `{escaped}`"
        );
        assert!(
            json.contains(&format!(":\"{escaped}\","))
                || json.contains(&format!(":\"{escaped}\"}}")),
            "a decision marker names `{escaped}`"
        );
    }
    assert!(
        !json.bytes().any(|b| b < 0x20 && b != b'\n'),
        "raw control byte"
    );
    assert_eq!(
        (json.len(), fnv1a(json.as_bytes())),
        (59_289, 0x8151_aad6_f057_672c)
    );
}

/// The text of `"key":value` in one rendered event line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let start = line
        .find(&tag)
        .unwrap_or_else(|| panic!("no `{key}` in {line}"))
        + tag.len();
    let rest = &line[start..];
    &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
}

/// A `ts`/`dur` value (microseconds, three decimals) as nanoseconds.
fn nanos(text: &str) -> u64 {
    let (whole, frac) = text
        .split_once('.')
        .unwrap_or_else(|| panic!("`{text}` has no decimals"));
    assert_eq!(frac.len(), 3, "`{text}` has three decimals");
    let parse = |digits: &str| {
        digits
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("bad number `{text}`"))
    };
    parse(whole) * 1000 + parse(frac)
}

/// Checks the slices of a rendered Chrome trace: each has a non-negative
/// duration and starts no earlier than the previous slice on its core
/// ended. Returns the number of slices.
fn check_slices(case: &str, machine: &MachineConfig, json: &str) -> usize {
    let mut ends = vec![0u64; machine.num_cores()];
    let mut slices = 0;
    for line in json.lines().filter(|l| l.contains("\"ph\":\"X\"")) {
        let dur = field(line, "dur");
        assert!(
            dur.parse::<f64>().is_ok_and(|d| d >= 0.0),
            "{case}: dur < 0: {line}"
        );
        let tid: usize = field(line, "tid").parse().expect("tid is an integer");
        let ts = nanos(field(line, "ts"));
        assert!(
            ts >= ends[tid],
            "{case}: slice on tid {tid} starts at {ts} ns, before the previous ended at {} ns",
            ends[tid]
        );
        ends[tid] = ts + nanos(dur);
        slices += 1;
    }
    slices
}

/// The trace holds one slice per stint: a pick from a runqueue or a
/// steal of a running thread starts one, and every stint of a finished
/// run has ended. Slices on one core never overlap.
#[test]
fn slices_pair_every_dispatch_without_overlap() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    for kind in SchedulerKind::EXTENDED {
        for plan in [FaultPlan::empty(), chaos_plan(&machine)] {
            let case = format!("{}/{} faults", kind.name(), plan.events().len());
            let (machine, outcome) = recorded_mix(kind, plan);
            let slices = outcome.trace.events();
            assert!(!slices.is_empty(), "{case}: dispatched nothing");
            assert_eq!(outcome.trace.dropped(), 0, "{case}");
            let counters = &outcome.telemetry.counters;
            assert_eq!(
                slices.len() as u64,
                counters.picks + counters.idle_steals,
                "{case}: one slice per pick or steal"
            );
            let json = render_chrome_trace(&machine, &outcome);
            assert_eq!(
                check_slices(&case, &machine, &json),
                slices.len(),
                "{case}: one Chrome slice per recorded slice"
            );
        }
    }
}

/// A trace that fills up draws only the slices it recorded: nothing is
/// invented for the stints whose end it missed.
#[test]
fn truncated_trace_draws_only_recorded_slices() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    for kind in SchedulerKind::EXTENDED {
        let (machine, outcome) = recorded(&chaos_mix(), kind, chaos_plan(&machine), 16);
        let case = kind.name();
        assert_eq!(outcome.trace.events().len(), 16, "{case}");
        assert!(outcome.trace.dropped() > 0, "{case}: the trace filled up");
        let json = render_chrome_trace(&machine, &outcome);
        assert!(
            !json.contains("\"stop\":\"horizon\""),
            "{case}: slice to the horizon"
        );
        assert_eq!(check_slices(case, &machine, &json), 16, "{case}");

        let width = 120;
        let last_end = outcome
            .trace
            .events()
            .iter()
            .map(|s| s.to)
            .max()
            .expect("16 slices");
        let last_col = (last_end.as_nanos() as u128 * width as u128
            / outcome.makespan.as_nanos() as u128) as usize;
        assert!(last_col + 1 < width, "{case}: the recorded prefix is short");
        let gantt = outcome.trace.gantt(&machine, outcome.makespan, width);
        for row in gantt.lines() {
            let (_, glyphs) = row.split_once("] ").expect("a core label");
            assert_eq!(glyphs.len(), width, "{case}");
            assert!(
                glyphs[last_col + 1..].bytes().all(|b| b == b'.'),
                "{case}: glyph past the last recorded slice: {row}"
            );
        }
    }
}
