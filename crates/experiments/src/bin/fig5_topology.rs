//! Fig. 5 — the NSFNet T3 backbone map: 12 core nodes, 15 duplex trunks
//! (30 directed links), reconstructed from the links of Table 1.

use altroute_experiments::{cli, Table};
use altroute_netgraph::paths::{alternate_paths, min_hop_path};
use altroute_netgraph::topologies;

fn main() {
    cli::bin_flags(&[]);
    let topo = topologies::nsfnet(100);
    println!(
        "NSFNet T3 backbone model (paper Fig. 5): {} nodes, {} directed links\n",
        topo.num_nodes(),
        topo.num_links()
    );

    let mut nodes = Table::new(["node", "name", "degree", "neighbors"]);
    for i in 0..topo.num_nodes() {
        let neighbors: Vec<String> = topo
            .out_links(i)
            .iter()
            .map(|&l| topo.link(l).dst.to_string())
            .collect();
        nodes.row([
            i.to_string(),
            topo.node_name(i).to_string(),
            topo.out_degree(i).to_string(),
            neighbors.join(" "),
        ]);
    }
    println!("{}", nodes.render());

    let mut links = Table::new(["link", "src", "dst", "capacity"]);
    for (id, l) in topo.links().iter().enumerate() {
        links.row([
            id.to_string(),
            l.src.to_string(),
            l.dst.to_string(),
            l.capacity.to_string(),
        ]);
    }
    println!("{}", links.render());

    // The §4.2.2 path-count statistics.
    let mut total = 0usize;
    let (mut min, mut max) = (usize::MAX, 0usize);
    let mut pairs = 0usize;
    for (i, j) in topo.ordered_pairs() {
        let primary = min_hop_path(&topo, i, j).expect("NSFNet is connected");
        let alts = alternate_paths(&topo, i, j, topo.num_nodes() - 1, &primary);
        total += alts.len();
        min = min.min(alts.len());
        max = max.max(alts.len());
        pairs += 1;
    }
    println!(
        "alternate paths per pair (H = {}): avg {:.2}, min {min}, max {max}  (paper: ~9, 5, 15)",
        topo.num_nodes() - 1,
        total as f64 / pairs as f64
    );
    let profile = altroute_netgraph::disjoint::disjointness_profile(&topo);
    println!(
        "link-disjoint paths per pair: avg {:.2}, min {}, max {} (2-edge-connected backbone)",
        profile.average(),
        profile.min,
        profile.max
    );
    if let Ok(path) = links.write_csv("fig5_topology_links") {
        println!("wrote {}", path.display());
    }
}
