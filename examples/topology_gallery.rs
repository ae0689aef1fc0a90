//! Renders the Figure 6/7-style topology gallery for one deployment:
//! the UDG and every structure derived from it, as SVG files.
//!
//! ```text
//! cargo run --release --example topology_gallery -- [output-dir]
//! ```
//!
//! Writes `gallery/*.svg` by default.

use geospan::cds::{build_cds, ClusterRank, Role};
use geospan::core::{BackboneBuilder, BackboneConfig};
use geospan::graph::gen::connected_unit_disk;
use geospan::graph::svg::{render_svg, NodeRole, SvgOptions};
use geospan::graph::Graph;
use geospan::topology::{gabriel, ldel, relative_neighborhood, restricted_delaunay, unit_delaunay};

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "gallery".to_string());
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let (_pts, udg, seed) = connected_unit_disk(100, 200.0, 60.0, 2);
    println!("deployment seed {seed}; writing SVGs to {out_dir}/");

    let cds = build_cds(&udg, &ClusterRank::LowestId);
    let backbone = BackboneBuilder::new(BackboneConfig::new(60.0))
        .build(&udg)
        .expect("valid UDG");
    let roles: Vec<NodeRole> = cds
        .roles
        .iter()
        .map(|r| match r {
            Role::Dominator => NodeRole::Dominator,
            Role::Connector => NodeRole::Connector,
            Role::Dominatee => NodeRole::Dominatee,
        })
        .collect();

    let gallery: Vec<(&str, Graph)> = vec![
        ("udg", udg.clone()),
        ("rng", relative_neighborhood(&udg)),
        ("gabriel", gabriel(&udg)),
        ("rdg", restricted_delaunay(&udg)),
        ("udel", unit_delaunay(&udg)),
        ("ldel", ldel::planarized(&udg).graph),
        ("cds", cds.cds.clone()),
        ("cds_prime", cds.cds_prime.clone()),
        ("icds", cds.icds.clone()),
        ("icds_prime", cds.icds_prime.clone()),
        ("ldel_icds", backbone.ldel_icds().clone()),
        ("ldel_icds_prime", backbone.ldel_icds_prime().clone()),
    ];

    for (name, graph) in &gallery {
        let opts = SvgOptions {
            title: format!("{name} — {} edges", graph.edge_count()),
            ..SvgOptions::default()
        };
        let svg = render_svg(graph, &roles, &opts);
        let path = format!("{out_dir}/{name}.svg");
        std::fs::write(&path, svg).expect("write SVG");
        println!("{path}: {} edges", graph.edge_count());
    }
}
