//! Fig. 2 — state-protection level `r` versus primary traffic load `Λ`
//! for a link of capacity `C = 100`, at `H = 2, 6, 120`.
//!
//! Regenerates the three curves of the paper's Fig. 2 over `Λ ∈ (0, 100]`.

use altroute_experiments::{cli, Table};
use altroute_teletraffic::reservation::protection_curve;

fn main() {
    cli::bin_flags(&[]);
    let capacity = 100;
    let loads: Vec<f64> = (1..=100).map(f64::from).collect();
    let curves: Vec<(u32, Vec<(f64, u32)>)> = [2u32, 6, 120]
        .into_iter()
        .map(|h| (h, protection_curve(&loads, capacity, h)))
        .collect();

    let mut table = Table::new(["load", "r_H2", "r_H6", "r_H120"]);
    for (i, &load) in loads.iter().enumerate() {
        table.row([
            format!("{load:.0}"),
            curves[0].1[i].1.to_string(),
            curves[1].1[i].1.to_string(),
            curves[2].1[i].1.to_string(),
        ]);
    }
    println!("State-protection level r vs primary load (C = {capacity}), paper Fig. 2\n");
    println!("{}", table.render());
    if let Ok(path) = table.write_csv("fig2_protection_curves") {
        println!("wrote {}", path.display());
    }
}
