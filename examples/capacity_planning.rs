//! Using the teletraffic library as a dimensioning tool: size each link
//! of a mesh for a target blocking, then verify by simulation that the
//! controlled alternate-routing scheme delivers comfortably below target.
//!
//! Run with: `cargo run --release --example capacity_planning`

use altroute::core::policy::PolicyKind;
use altroute::core::primary::PrimaryAssignment;
use altroute::netgraph::graph::Topology;
use altroute::netgraph::topologies;
use altroute::netgraph::traffic::TrafficMatrix;
use altroute::sim::experiment::{Experiment, SimParams};
use altroute::teletraffic::erlang::{dimension_link, erlang_b};

fn main() {
    // Plan: a 6-node ring with two chords, gravity traffic.
    let template = topologies::random_mesh(6, 2, 1, 42);
    let weights = [3.0, 1.0, 2.0, 1.0, 2.0, 4.0];
    let traffic = TrafficMatrix::gravity(6, &weights, 300.0);

    // Dimension each link for <= 1% blocking of its own primary load.
    let target = 0.01;
    let loads = PrimaryAssignment::min_hop(&template).link_loads(&template, &traffic);
    let mut planned = Topology::new();
    for i in 0..template.num_nodes() {
        planned.add_node(template.node_name(i));
    }
    println!(
        "{:>6} {:>10} {:>9} {:>10}",
        "link", "load", "circuits", "B(load,C)"
    );
    for (id, link) in template.links().iter().enumerate() {
        let capacity = dimension_link(loads[id], target, 10_000)
            .expect("target reachable")
            .max(1);
        planned.add_link(link.src, link.dst, capacity);
        println!(
            "{:>3}->{:<2} {:>10.2} {:>9} {:>10.5}",
            link.src,
            link.dst,
            loads[id],
            capacity,
            erlang_b(loads[id], capacity)
        );
    }

    // Verify by simulation.
    let exp = Experiment::new(planned, traffic).expect("valid instance");
    let params = SimParams {
        seeds: 5,
        ..SimParams::default()
    };
    let single = exp.run(PolicyKind::SinglePath, &params);
    let controlled = exp.run(PolicyKind::ControlledAlternate { max_hops: 5 }, &params);
    println!("\nsimulated network blocking:");
    println!("  single-path: {:.5}", single.blocking_mean());
    println!("  controlled:  {:.5}", controlled.blocking_mean());
    println!("\nPer-link dimensioning targets {target} blocking per link; alternate");
    println!("routing then exploits the slack that independent sizing leaves behind.");
}
