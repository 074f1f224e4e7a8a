//! Scaling explorer: interactively sweep the calibrated performance model
//! over system sizes, node counts and optimization stages.
//!
//! ```bash
//! cargo run --release --example scaling_explorer -- [atoms] [nodes]
//! ```
//! Defaults: 1536 atoms, node sweep on both platforms.

use pwdft_repro::perfmodel::{step_time, Platform, Variant, Workload};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let atoms: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1536);
    let fixed_nodes: Option<usize> = args.get(2).and_then(|s| s.parse().ok());
    let w = Workload::silicon(atoms);
    println!(
        "workload: {} Si atoms, {} orbitals, Ng = {:.0} (Ecut 10 Ha)",
        w.n_atoms, w.n_orbitals, w.ng
    );

    for pf in [Platform::fugaku_arm(), Platform::gpu_a100()] {
        println!("\n== {} ==", pf.name);
        let nodes_list: Vec<usize> = match fixed_nodes {
            Some(n) => vec![n],
            None => {
                let mut v = Vec::new();
                let mut n = (w.n_orbitals / (40 * pf.ranks_per_node)).max(1);
                for _ in 0..6 {
                    v.push(n);
                    n *= 2;
                }
                v
            }
        };
        println!(
            "{:>7} {:>10} {:>10} {:>10} {:>10} {:>10}  comm% (Async)",
            "nodes", "BL", "Diag", "ACE", "Ring", "Async"
        );
        for nodes in nodes_list {
            let times: Vec<f64> =
                Variant::ALL.iter().map(|&v| step_time(&pf, &w, nodes, v).total()).collect();
            let ratio = step_time(&pf, &w, nodes, Variant::AceAsync).comm_ratio();
            println!(
                "{:>7} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}  {:.1}%",
                nodes,
                times[0],
                times[1],
                times[2],
                times[3],
                times[4],
                100.0 * ratio
            );
        }
    }
    println!("\n(all times are modeled seconds per 50 as step; see DESIGN.md §7 for calibration)");
}
