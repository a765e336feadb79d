//! Reproducibility: the entire pipeline is deterministic in its seed, and
//! the two core-enumeration orders genuinely exercise different initial
//! placements (why §5.1 averages over them).

use colab_suite::prelude::*;
use colab_suite::workloads::{Scale, WorkloadSpec};

fn spec() -> WorkloadSpec {
    WorkloadSpec::named(
        "determinism-mix",
        vec![(BenchmarkId::Dedup, 8), (BenchmarkId::Radix, 4)],
    )
}

fn run(order: CoreOrder, seed: u64, which: usize) -> SimulationOutcome {
    let machine = MachineConfig::asymmetric(2, 2, order);
    let sim = Simulation::build_scaled(&machine, &spec(), seed, Scale::new(0.4)).unwrap();
    let model = SpeedupModel::heuristic();
    match which {
        0 => sim.run(&mut CfsScheduler::new(&machine)).unwrap(),
        1 => sim.run(&mut CfsScheduler::wash(&machine, model)).unwrap(),
        _ => sim.run(&mut ColabScheduler::new(&machine, model)).unwrap(),
    }
}

#[test]
fn identical_seeds_reproduce_bit_for_bit() {
    for which in 0..3 {
        let a = run(CoreOrder::BigFirst, 77, which);
        let b = run(CoreOrder::BigFirst, 77, which);
        assert_eq!(a.makespan, b.makespan, "{}", a.scheduler);
        assert_eq!(a.context_switches, b.context_switches);
        assert_eq!(a.migrations, b.migrations);
        for (ta, tb) in a.threads.iter().zip(&b.threads) {
            assert_eq!(ta.finish, tb.finish, "{}: {}", a.scheduler, ta.name);
            assert_eq!(ta.run_time, tb.run_time);
            assert_eq!(ta.caused_wait, tb.caused_wait);
        }
    }
}

#[test]
fn different_seeds_change_microstructure_not_workload_shape() {
    let a = run(CoreOrder::BigFirst, 1, 0);
    let b = run(CoreOrder::BigFirst, 2, 0);
    // Different seeds → different profile jitter → different timings, but
    // the same thread population and the same order of magnitude.
    assert_eq!(a.threads.len(), b.threads.len());
    let ratio = a.makespan.as_secs_f64() / b.makespan.as_secs_f64();
    assert!(ratio > 0.5 && ratio < 2.0, "seed sensitivity ratio {ratio}");
}

#[test]
fn core_enumeration_order_affects_initial_placement() {
    // The AMP-agnostic baseline distributes threads by core id, so
    // big-first and little-first runs should normally differ — the very
    // reason the paper averages over both.
    let bf = run(CoreOrder::BigFirst, 7, 0);
    let lf = run(CoreOrder::LittleFirst, 7, 0);
    assert_ne!(
        (bf.makespan, bf.context_switches),
        (lf.makespan, lf.context_switches),
        "enumeration order had no effect — placement logic suspicious"
    );
}
