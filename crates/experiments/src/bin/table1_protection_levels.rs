//! Table 1 — capacity, primary load, and state-protection levels for the
//! 30 directed NSFNet links under the nominal load, at `H = 6` and
//! `H = 11`.
//!
//! The paper's traffic matrix is not published; it is reconstructed here
//! by non-negative least squares against the Table 1 loads (see
//! DESIGN.md, substitution 1). The binary prints, per link: the paper's
//! `Λ^k`, the reconstruction's achieved `Λ^k`, and the protection levels
//! computed from each, alongside the paper's printed values.

use altroute_experiments::{cli, Table};
use altroute_netgraph::estimate::{nsfnet_nominal_traffic, NSFNET_TABLE1};
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::format_matrix;
use altroute_teletraffic::reservation::protection_level;

fn main() {
    cli::bin_flags(&[]);
    let topo = topologies::nsfnet(100);
    let fit = nsfnet_nominal_traffic();
    println!(
        "Traffic-matrix reconstruction: relative residual {:.4e} after {} iterations\n",
        fit.relative_residual, fit.iterations
    );

    let mut table = Table::new([
        "link",
        "C",
        "paper_load",
        "fit_load",
        "paper_r_H6",
        "our_r_H6",
        "paper_r_H11",
        "our_r_H11",
    ]);
    let mut mismatches = 0u32;
    for &(s, d, paper_load, paper_r6, paper_r11) in &NSFNET_TABLE1 {
        let link = topo.link_between(s, d).expect("Table 1 link exists");
        let fit_load = fit.achieved_loads[link];
        let r6 = protection_level(fit_load, 100, 6);
        let r11 = protection_level(fit_load, 100, 11);
        if r6 != paper_r6 || r11 != paper_r11 {
            mismatches += 1;
        }
        table.row([
            format!("{s}->{d}"),
            "100".to_string(),
            format!("{paper_load:.0}"),
            format!("{fit_load:.1}"),
            paper_r6.to_string(),
            r6.to_string(),
            paper_r11.to_string(),
            r11.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "links where computed r differs from the paper's printed value: {mismatches}/30 \
         (differences stem from Table 1 printing rounded loads)"
    );
    if let Ok(path) = table.write_csv("table1_protection_levels") {
        println!("wrote {}", path.display());
    }

    println!(
        "\nReconstructed nominal traffic matrix (Erlangs):\n{}",
        format_matrix(&fit.traffic)
    );
    println!("total offered traffic: {:.1} Erlangs", fit.traffic.total());
}
