//! Extension — does the guarantee survive non-Poisson *arrivals*?
//!
//! Theorem 1's assumption A2 takes primary arrivals as Poisson. Here the
//! per-pair arrival processes are made bursty — hyperexponential (H2)
//! inter-arrival times with the same mean but a chosen squared
//! coefficient of variation `cv² > 1` (balanced-means parameterisation) —
//! and the three policies are compared on the quadrangle. The protection
//! levels are still computed from Eq. 15 as if traffic were Poisson
//! (exactly what a deployed system would do), so this measures the
//! control's robustness to A2 violations: the ordering
//! `controlled ≤ single-path` should persist even though the theorem no
//! longer formally applies.

use altroute_core::plan::RoutingPlan;
use altroute_core::select::TieredSelector;
use altroute_experiments::output::fmt_prob;
use altroute_experiments::Table;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::experiment::SimParams;
use altroute_simcore::kernel::{
    AdmissionPolicy, Link, LinkOccupancy, RouteSelector, Selection, TrunkReservation, Uncontrolled,
};
use altroute_simcore::queue::EventQueue;
use altroute_simcore::rng::{RngStream, StreamFactory};

/// Balanced-means H2: with probability `p` rate `r1`, else `r2`, chosen
/// so the mean is `1/rate` and the squared CV is `cv2`.
fn h2_gap(stream: &mut RngStream, rate: f64, cv2: f64) -> f64 {
    if cv2 <= 1.0 {
        return stream.exp(rate);
    }
    // Balanced means: p/r1 = (1-p)/r2 = 1/(2 rate).
    let p = 0.5 * (1.0 + ((cv2 - 1.0) / (cv2 + 1.0)).sqrt());
    let (r1, r2) = (2.0 * p * rate, 2.0 * (1.0 - p) * rate);
    // Draw order is fixed (choice, then sample) to keep common random
    // numbers across policies.
    let choice = stream.uniform();
    if choice < p {
        stream.exp(r1)
    } else {
        stream.exp(r2)
    }
}

#[derive(Clone, Copy)]
enum Ev {
    Arrival { pair: u32 },
    Departure { call: u32 },
}

/// Blocking of one policy — the kernel's tiered `selector` under
/// `admission` — over `params.seeds` replications of H2 arrivals.
fn run_bursty<'p, A: AdmissionPolicy>(
    plan: &'p RoutingPlan,
    traffic: &TrafficMatrix,
    admission: &A,
    mut selector: TieredSelector<'p>,
    cv2: f64,
    params: &SimParams,
) -> f64 {
    let topo = plan.topology();
    let n = topo.num_nodes();
    let capacities: Vec<u32> = topo.links().iter().map(|l| l.capacity).collect();
    let end = params.warmup + params.horizon;
    let (mut blocked_total, mut offered_total) = (0u64, 0u64);
    for s in 0..params.seeds {
        let factory = StreamFactory::new(params.base_seed + u64::from(s));
        let mut network = LinkOccupancy::new(&capacities);
        let mut streams: Vec<Option<RngStream>> = (0..n * n).map(|_| None).collect();
        let mut rates = vec![0.0; n * n];
        let mut queue: EventQueue<Ev> = EventQueue::new();
        for (i, j, t) in traffic.demands() {
            let pair = i * n + j;
            rates[pair] = t;
            let mut st = factory.stream(pair as u64);
            let first = h2_gap(&mut st, t, cv2);
            streams[pair] = Some(st);
            if first < end {
                queue.schedule(first, Ev::Arrival { pair: pair as u32 });
            }
        }
        let mut calls: Vec<Option<&'p [Link]>> = Vec::new();
        while let Some((now, ev)) = queue.pop() {
            if now >= end {
                break;
            }
            match ev {
                Ev::Arrival { pair } => {
                    let pair = pair as usize;
                    let (src, dst) = (pair / n, pair % n);
                    let st = streams[pair].as_mut().unwrap();
                    let hold = st.holding_time();
                    let upick = st.uniform();
                    let gap = h2_gap(st, rates[pair], cv2);
                    if now + gap < end {
                        queue.schedule(now + gap, Ev::Arrival { pair: pair as u32 });
                    }
                    let measured = now >= params.warmup;
                    if measured {
                        offered_total += 1;
                    }
                    match selector.select(src, dst, upick, &network, admission, 1) {
                        Selection::Route { links, .. } => {
                            network.book(links, 1);
                            let id = calls.len() as u32;
                            calls.push(Some(links));
                            queue.schedule(now + hold, Ev::Departure { call: id });
                        }
                        Selection::Blocked => {
                            if measured {
                                blocked_total += 1;
                            }
                        }
                    }
                }
                Ev::Departure { call } => {
                    if let Some(links) = calls[call as usize].take() {
                        network.release(links, 1);
                    }
                }
            }
        }
    }
    blocked_total as f64 / offered_total as f64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, horizon, seeds) = if quick {
        (5.0, 30.0, 3)
    } else {
        (10.0, 100.0, 10)
    };
    let params = SimParams {
        warmup,
        horizon,
        seeds,
        base_seed: 0xB0B5,
    };
    let mut table = Table::new(["cv2", "load", "single-path", "uncontrolled", "controlled"]);
    for cv2 in [1.0, 4.0, 9.0] {
        for load in [85.0, 90.0, 95.0] {
            let traffic = TrafficMatrix::uniform(4, load);
            let plan = RoutingPlan::min_hop(topologies::quadrangle(), &traffic, 3);
            let reservation = TrunkReservation::new(plan.protection_levels().to_vec());
            let single = TieredSelector::single_path(&plan);
            let tiered = TieredSelector::new(&plan);
            table.row([
                format!("{cv2:.0}"),
                format!("{load:.0}"),
                fmt_prob(run_bursty(
                    &plan,
                    &traffic,
                    &Uncontrolled,
                    single,
                    cv2,
                    &params,
                )),
                fmt_prob(run_bursty(
                    &plan,
                    &traffic,
                    &Uncontrolled,
                    tiered.clone(),
                    cv2,
                    &params,
                )),
                fmt_prob(run_bursty(
                    &plan,
                    &traffic,
                    &reservation,
                    tiered,
                    cv2,
                    &params,
                )),
            ]);
        }
    }
    println!("Bursty (H2) arrivals vs the Poisson assumption A2 (quadrangle, H = 3)\n");
    println!("{}", table.render());
    println!("expected: burstier arrivals raise blocking for every policy, but the");
    println!("ordering controlled <= single-path persists — the control is robust to");
    println!("arrival-process misspecification even though Theorem 1 assumes Poisson.");
    if let Ok(path) = table.write_csv("bursty_arrivals") {
        println!("wrote {}", path.display());
    }
}
