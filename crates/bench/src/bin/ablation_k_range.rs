//! Ablation — eqn. 1's neighbourhood-range hyperparameter `k`.
//!
//! The DAGRA mask admits attention between nodes within `k` hops along
//! directed paths; the paper sets `k = ∞` "as we want the attention
//! calculation throughout the graph". This ablation sweeps `k` from
//! 1 (direct neighbours only — GAT-like support with transformer
//! machinery) to ∞ and reports the MRE and mask density at each setting.

use predtop_bench::{Protocol, TableWriter};
use predtop_cluster::Platform;
use predtop_gnn::train::{eval_mre, train};
use predtop_gnn::{Dataset, GraphSample, ModelKind};
use predtop_models::sample_stages;
use predtop_parallel::{MeshShape, ParallelConfig, StageLatencyProvider};
use predtop_sim::SimProfiler;

fn main() {
    let proto = Protocol::from_args();
    let platform = Platform::platform2();
    let profiler = SimProfiler::new(platform.clone(), proto.seed);
    let model = proto.gpt3();
    let mesh = MeshShape::new(1, 2);
    let config = ParallelConfig::new(1, 2);

    let stages = sample_stages(
        model,
        proto.stage_budget(&model),
        proto.max_stage_layers.min(model.num_layers),
        proto.seed,
    );
    eprintln!("[ablation-k] profiling {} stages", stages.len());
    let latencies: Vec<f64> = stages
        .iter()
        .map(|s| profiler.stage_latency(s, mesh, config))
        .collect();

    let mut table = TableWriter::new(
        "Ablation — eqn. 1 neighbourhood range k (GPT-3, Platform 2 mesh 2 conf 2, 50% train)",
        &["k", "mask density (%)", "MRE (%)", "epochs"],
    );

    let settings: [(&str, Option<u32>); 4] = [
        ("1", Some(1)),
        ("2", Some(2)),
        ("4", Some(4)),
        ("inf (paper)", None),
    ];
    for (label, k) in settings {
        let samples: Vec<GraphSample> = stages
            .iter()
            .zip(&latencies)
            .map(|(s, &lat)| {
                let g = profiler.stage_graph(s);
                match k {
                    Some(k) => GraphSample::with_attention_range(&g, lat, proto.pe_dim(), k),
                    None => GraphSample::new(&g, lat, proto.pe_dim()),
                }
            })
            .collect();
        // mask density: fraction of allowed attention pairs
        let density: f64 = samples
            .iter()
            .map(|s| {
                let n = s.num_nodes();
                s.dag_allowed.count() as f64 / (n * n) as f64
            })
            .sum::<f64>()
            / samples.len() as f64;

        let ds = Dataset::new(samples);
        let split = ds.split(0.5, proto.seed);
        let mut net = proto.arch(ModelKind::DagTransformer).build(proto.seed);
        let (scaler, report) = train(net.as_mut(), &ds, &split, &proto.train);
        let mre = eval_mre(net.as_ref(), &scaler, &ds, &split.test);
        eprintln!(
            "[ablation-k] k={label}: density {:.1}%, MRE {mre:.2}%",
            density * 100.0
        );
        table.add_row(vec![
            label.to_string(),
            format!("{:.1}", density * 100.0),
            format!("{mre:.2}"),
            report.epochs_run.to_string(),
        ]);
    }

    table.print();
    let path = table.save_json("ablation_k_range");
    println!("saved {}", path.display());
}
