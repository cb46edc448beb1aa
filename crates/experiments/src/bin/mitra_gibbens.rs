//! §3.2 comparison with Mitra & Gibbens — protection levels at `C = 120`,
//! `H = 2` (the fully connected, two-link-alternate setting of their
//! trunk-reservation analysis).
//!
//! The paper notes that in the crucial moderately-high-load range
//! `Λ ∈ [110, 120]`, our Eq. 15 levels differ from Mitra & Gibbens'
//! optimal trunk-reservation values by at most two. This binary prints the
//! Eq. 15 levels across the full load range.

use altroute_experiments::{cli, Table};
use altroute_teletraffic::reservation::{protection_level, shadow_price_bound};

fn main() {
    cli::bin_flags(&[]);
    let capacity = 120;
    let mut table = Table::new(["load", "r_H2", "theorem1_bound"]);
    for load in (60..=140).step_by(5) {
        let load = f64::from(load as u32);
        let r = protection_level(load, capacity, 2);
        table.row([
            format!("{load:.0}"),
            r.to_string(),
            format!("{:.4}", shadow_price_bound(load, capacity, r)),
        ]);
    }
    println!("Protection levels at C = 120, H = 2 (paper §3.2, Mitra-Gibbens comparison)\n");
    println!("{}", table.render());
    println!(
        "crucial range L in [110, 120]: r = {}, {}, {} \
         (paper: within 2 of the Mitra-Gibbens optimal reservations)",
        protection_level(110.0, capacity, 2),
        protection_level(115.0, capacity, 2),
        protection_level(120.0, capacity, 2),
    );
    if let Ok(path) = table.write_csv("mitra_gibbens") {
        println!("wrote {}", path.display());
    }
}
