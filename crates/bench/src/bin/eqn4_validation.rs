//! Eqn. 4 / Fig. 6 validation — the white-box pipeline formula against
//! the discrete-event forward-only pipeline simulator (`sim::pipeline`:
//! one time per stage per micro-batch), including a stress test of the
//! paper's "inter-stage communication is negligible" assumption.
//!
//! With zero communication the formula is exact (also property-tested in
//! `predtop-sim`); this binary quantifies the relative gap as the
//! activation transfer between stages grows from NVLink-like to
//! 10-GbE-like magnitudes.

use predtop_bench::{Protocol, TableWriter};
use predtop_cluster::Platform;
use predtop_models::StageSpec;
use predtop_parallel::plan::pipeline_latency;
use predtop_parallel::{MeshShape, ParallelConfig, StageLatencyProvider};
use predtop_sim::pipeline::simulate_uniform;
use predtop_sim::SimProfiler;

fn main() {
    let proto = Protocol::from_args();
    let platform = Platform::platform2();
    let profiler = SimProfiler::new(platform.clone(), proto.seed);
    let model = proto.gpt3();

    // a realistic 4-stage even partition of the benchmark on 4 devices
    let per = model.num_layers / 4;
    let mesh = MeshShape::new(1, 1);
    let stage_times: Vec<f64> = (0..4)
        .map(|i| {
            let stage = StageSpec::new(model, i * per, (i + 1) * per);
            profiler.stage_latency(&stage, mesh, ParallelConfig::SERIAL)
        })
        .collect();
    eprintln!("[eqn4] stage latencies: {stage_times:?}");

    // activation bytes crossing a stage boundary
    let act_bytes = (model.tokens() * model.hidden * 2) as f64; // bf16

    let mut table = TableWriter::new(
        "Eqn. 4 validation — formula vs event-driven forward-only pipeline simulation (GPT-3, 4 stages, 8 microbatches)",
        &["link", "comm per hop (s)", "formula (s)", "simulated (s)", "gap (%)"],
    );

    let links = [
        ("none (Eqn. 4 assumption)", 0.0),
        ("NVLink 56 GB/s", act_bytes / 56.25e9),
        ("PCIe 25 GB/s", act_bytes / 25e9),
        ("10 GbE 1.25 GB/s", act_bytes / 1.25e9),
        ("1 GbE 0.125 GB/s", act_bytes / 0.125e9),
    ];

    let microbatches = 8;
    let formula = pipeline_latency(&stage_times, microbatches);
    for (name, comm) in links {
        let sim = simulate_uniform(&stage_times, microbatches, &[comm; 3]);
        let gap = 100.0 * (sim.makespan - formula) / formula;
        table.add_row(vec![
            name.to_string(),
            format!("{comm:.6}"),
            format!("{formula:.4}"),
            format!("{:.4}", sim.makespan),
            format!("{gap:+.2}"),
        ]);
    }

    table.print();
    println!(
        "The formula is exact with zero communication and degrades as links slow;\n\
         on NVLink-class links the gap stays well under 1%, supporting §V's assumption."
    );
    let path = table.save_json("eqn4_validation");
    println!("saved {}", path.display());
}
