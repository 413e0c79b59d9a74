//! Table V — MRE grid on Platform 1 (2 × NVIDIA A40).
//!
//! For both benchmarks, every (mesh, configuration) scenario of the
//! platform, every training fraction, and all three predictor
//! architectures: train on the profiled stage pool and report the
//! held-out MRE (eqn. 5). `--paper` runs the published protocol.

use predtop_bench::grid::{render_table, run_grid};
use predtop_bench::jsonout::write_json_file;
use predtop_bench::table::results_dir;
use predtop_bench::{platform_scenarios, Protocol};
use predtop_cluster::Platform;

fn main() {
    let proto = Protocol::from_args();
    let platform = Platform::platform1();
    let scenarios = platform_scenarios(&platform);

    for model in [proto.gpt3(), proto.moe()] {
        let result = run_grid(
            &platform,
            "Platform 1",
            model,
            &scenarios,
            &proto,
            &mut |line| eprintln!("{line}"),
        );
        let table = render_table(&result, &scenarios);
        table.print();
        let name = format!(
            "table5_{}",
            model.kind.name().to_lowercase().replace('-', "")
        );
        let path = table.save_json(&name);
        // the raw grid keeps the per-cell epochs and training seconds
        let raw_path = results_dir().join(format!("{name}_raw.json"));
        write_json_file(&raw_path, &result.to_json());
        println!("saved {} and {}", path.display(), raw_path.display());
    }
}
