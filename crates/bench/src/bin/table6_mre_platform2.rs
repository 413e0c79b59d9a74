//! Table VI — MRE grid on Platform 2 (2 nodes × 2 NVIDIA RTX A5500).
//!
//! Same protocol as Table V with the six Platform 2 scenarios,
//! including the cross-node mesh 3 configurations where the 10 GbE
//! inter-node link dominates communication.

use predtop_bench::grid::{render_table, run_grid};
use predtop_bench::jsonout::write_json_file;
use predtop_bench::table::results_dir;
use predtop_bench::{platform_scenarios, Protocol};
use predtop_cluster::Platform;

fn main() {
    let proto = Protocol::from_args();
    let platform = Platform::platform2();
    let scenarios = platform_scenarios(&platform);

    for model in [proto.gpt3(), proto.moe()] {
        let result = run_grid(
            &platform,
            "Platform 2",
            model,
            &scenarios,
            &proto,
            &mut |line| eprintln!("{line}"),
        );
        let table = render_table(&result, &scenarios);
        table.print();
        let name = format!(
            "table6_{}",
            model.kind.name().to_lowercase().replace('-', "")
        );
        let path = table.save_json(&name);
        // the raw grid keeps the per-cell epochs and training seconds
        let raw_path = results_dir().join(format!("{name}_raw.json"));
        write_json_file(&raw_path, &result.to_json());
        println!("saved {} and {}", path.display(), raw_path.display());
    }
}
