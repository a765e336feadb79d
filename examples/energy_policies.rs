//! Energy and energy-delay product across all four policies — the
//! power-budget scenario the paper's introduction motivates, on the
//! "mobile" 2-big 4-little configuration.
//!
//! ```text
//! cargo run --release --example energy_policies
//! ```

use colab_suite::prelude::*;
use colab_suite::workloads::WorkloadSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::paper_2b4s(CoreOrder::BigFirst);
    let workload = WorkloadSpec::named(
        "mobile-mix",
        vec![
            (BenchmarkId::Ferret, 6),
            (BenchmarkId::Blackscholes, 4),
            (BenchmarkId::OceanCp, 4),
        ],
    );
    let model = SpeedupModel::heuristic();

    println!("ferret(6) + blackscholes(4) + ocean_cp(4) on {machine}\n");
    println!(
        "{:<8} {:>12} {:>10} {:>10} {:>12}",
        "policy", "makespan", "energy(J)", "idle(J)", "EDP(J·s)"
    );
    for which in 0..4 {
        let sim = Simulation::build_scaled(&machine, &workload, 21, Scale::default())?;
        let outcome = match which {
            0 => sim.run(&mut CfsScheduler::new(&machine))?,
            1 => sim.run(&mut CfsScheduler::gts(&machine))?,
            2 => sim.run(&mut CfsScheduler::wash(&machine, model.clone()))?,
            _ => sim.run(&mut ColabScheduler::new(&machine, model.clone()))?,
        };
        println!(
            "{:<8} {:>12} {:>10.3} {:>10.3} {:>12.4}",
            outcome.scheduler,
            outcome.makespan.to_string(),
            outcome.energy.total_joules(),
            outcome.energy.idle_joules,
            outcome.edp(),
        );
    }
    println!(
        "\nAMP-aware policies trade watts for seconds; the energy-delay\n\
         product shows whether the trade pays off."
    );
    Ok(())
}
