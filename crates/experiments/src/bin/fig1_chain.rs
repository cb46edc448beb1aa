//! Fig. 1 — the birth–death Markov chain of a link under alternate
//! routing with state protection.
//!
//! The paper's Fig. 1 is a schematic of the chain; this binary regenerates
//! the underlying object for a representative link (the NSFNet link 0→1 at
//! nominal load: `ν = 74`, `C = 100`, `r = 7` at `H = 6`) with a
//! state-dependent overflow stream, prints its rates and stationary
//! distribution, and numerically demonstrates Theorem 1: the expected
//! extra primary-call loss from accepting one alternate call is below
//! `B(Λ, C)/B(Λ, C−r) ≤ 1/H`.

use altroute_experiments::{cli, Table};
use altroute_teletraffic::birth_death::BirthDeathChain;
use altroute_teletraffic::erlang::erlang_b;
use altroute_teletraffic::reservation::{protection_level, shadow_price_bound};

fn main() {
    cli::bin_flags(&[]);
    let (nu, capacity, h) = (74.0, 100u32, 6u32);
    let r = protection_level(nu, capacity, h);
    println!("Link under alternate routing: nu = {nu}, C = {capacity}, H = {h} => r = {r}\n");

    // A state-dependent overflow stream: heavier when the network is
    // busier (arbitrary but illustrative, as the theorem allows any
    // state-dependence).
    let overflow: Vec<f64> = (0..capacity).map(|s| 10.0 + 0.2 * f64::from(s)).collect();
    let chain = BirthDeathChain::protected_link(nu, &overflow, capacity, r);
    let pi = chain.stationary();

    let mut table = Table::new(["state", "birth_rate", "death_rate", "stationary_pi"]);
    for s in (0..=capacity as usize)
        .step_by(10)
        .chain([capacity as usize - 1, capacity as usize])
    {
        let birth = if s < capacity as usize {
            chain.birth_rates()[s]
        } else {
            f64::NAN
        };
        let death = s as f64;
        table.row([
            s.to_string(),
            if birth.is_nan() {
                "-".into()
            } else {
                format!("{birth:.1}")
            },
            format!("{death:.0}"),
            format!("{:.3e}", pi[s]),
        ]);
    }
    println!("{}", table.render());

    println!(
        "time congestion of the protected chain: {:.6}",
        chain.time_congestion()
    );
    println!(
        "Erlang-B of the primary stream alone:   {:.6}",
        erlang_b(nu, capacity)
    );

    // Theorem 1 demonstration: the exact extra loss for an accepted
    // alternate call in the worst accepting state (s = C−r−1) equals the
    // bound at zero overflow and is below 1/H in all cases.
    let bound = shadow_price_bound(nu, capacity, r);
    println!(
        "\nTheorem 1 bound B(L,C)/B(L,C-r) = {bound:.6} <= 1/H = {:.6}",
        1.0 / f64::from(h)
    );
    assert!(bound <= 1.0 / f64::from(h) + 1e-12);

    // First-passage counts of the chain (Eqs. 4-5) respect Eq. 9's bound.
    let xs = chain.first_passage_up_counts();
    let mut ok = true;
    for (s, &x) in xs.iter().enumerate() {
        let cap = 1.0 / erlang_b(nu, s as u32 + 1);
        if x > cap * (1.0 + 1e-9) {
            ok = false;
        }
    }
    println!("Eq. 9 bound X_{{s,s+1}} <= 1/B(nu, s+1) holds for all states: {ok}");

    let mut csv = Table::new(["state", "pi"]);
    for (s, &p) in pi.iter().enumerate() {
        csv.row([s.to_string(), format!("{p:.6e}")]);
    }
    if let Ok(path) = csv.write_csv("fig1_chain") {
        println!("\nwrote {}", path.display());
    }
}
