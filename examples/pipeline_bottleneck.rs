//! Bottleneck acceleration on a pipeline workload (the paper's ferret
//! case, and the shape of its Figure 1 motivating example).
//!
//! A software pipeline has a hot `rank` stage: its threads block the
//! stages downstream of them, so the futex ledger charges them large
//! caused-waiting times. An asymmetry-aware scheduler should both (a) put
//! the core-sensitive rank workers on big cores and (b) *prioritize*
//! bottleneck threads wherever they are queued — which is exactly what
//! separates COLAB's coordinated allocator + selector from an
//! affinity-only policy.
//!
//! ```text
//! cargo run --release --example pipeline_bottleneck
//! ```

use colab_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let workload = colab_suite::workloads::WorkloadSpec::single(BenchmarkId::Ferret, 6);
    let model = SpeedupModel::heuristic();

    // Isolated big-only baseline for H_NTT.
    let big_twin = machine.big_only_twin();
    let baseline = Simulation::build_scaled(&big_twin, &workload, 7, Scale::default())?
        .run(&mut CfsScheduler::new(&big_twin))?
        .makespan;

    println!("ferret (6-stage pipeline, hot rank stage) on {machine}\n");
    for run in 0..3 {
        let sim = Simulation::build_scaled(&machine, &workload, 7, Scale::default())?;
        let outcome = match run {
            0 => sim.run(&mut CfsScheduler::new(&machine))?,
            1 => sim.run(&mut CfsScheduler::wash(&machine, model.clone()))?,
            _ => sim.run(&mut ColabScheduler::new(&machine, model.clone()))?,
        };
        let h_ntt = outcome.makespan.as_secs_f64() / baseline.as_secs_f64();
        println!(
            "== {:<6} H_NTT {:.3} (makespan {} vs {} alone on 4 big cores)",
            outcome.scheduler, h_ntt, outcome.makespan, baseline
        );
        // Show where the criticality signal concentrated and how much big
        // core time each stage earned.
        for t in &outcome.threads {
            let big_share = if t.run_time.as_nanos() > 0 {
                t.big_time.as_secs_f64() / t.run_time.as_secs_f64()
            } else {
                0.0
            };
            println!(
                "   {:<16} caused-wait {:>10}  big-core share {:>5.2}",
                t.name,
                t.caused_wait.to_string(),
                big_share
            );
        }
        println!();
    }
    println!("The rank worker accumulates the caused-waiting; AMP-aware");
    println!("policies cut H_NTT by keeping it on (or handing it to) big cores.");
    Ok(())
}
