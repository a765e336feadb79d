//! Exhaustive end-to-end coverage: every Table 4 workload completes under
//! every scheduler, with sane outcomes, at quick scale.

use colab_suite::prelude::*;
use colab_suite::workloads::{PaperWorkload, Scale};

#[test]
fn every_paper_workload_runs_under_every_scheduler() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let model = SpeedupModel::heuristic();
    for workload in PaperWorkload::all() {
        let spec = workload.spec();
        let mut makespans = Vec::new();
        for which in 0..4 {
            let sim = Simulation::build_scaled(&machine, &spec, 13, Scale::quick())
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            let outcome = match which {
                0 => sim.run(&mut CfsScheduler::new(&machine)),
                1 => sim.run(&mut CfsScheduler::gts(&machine)),
                2 => sim.run(&mut CfsScheduler::wash(&machine, model.clone())),
                _ => sim.run(&mut ColabScheduler::new(&machine, model.clone())),
            }
            .unwrap_or_else(|e| panic!("{workload}: {e}"));

            assert_eq!(
                outcome.apps.len(),
                workload.num_programs(),
                "{workload}: app count"
            );
            assert_eq!(
                outcome.threads.len(),
                workload.paper_thread_total(),
                "{workload}: thread count"
            );
            assert!(
                outcome.threads.iter().all(|t| t.finish > SimTime::ZERO),
                "{workload}: unfinished threads"
            );
            let util = outcome.utilization();
            assert!(
                util > 0.05 && util <= 1.0 + 1e-9,
                "{workload}: utilization {util}"
            );
            makespans.push(outcome.makespan.as_secs_f64());
        }
        // All four schedulers end in the same ballpark (no policy can be
        // catastrophically wrong on a valid workload).
        let max = makespans.iter().cloned().fold(0.0, f64::max);
        let min = makespans.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min < 3.0,
            "{workload}: makespans diverge too far: {makespans:?}"
        );
    }
}
