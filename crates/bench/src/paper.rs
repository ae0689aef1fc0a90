//! The paper's own evaluation: Table I (E1) and Figures 6–12 (E2–E7).
//!
//! Figures 8–10 sweep the node count at R = 60, Figures 11–12 the
//! transmission radius at n = 500, all over the 200×200 region.

use geospan_core::{BackboneBuilder, BackboneConfig, Role};
use geospan_graph::gen::connected_unit_disk;
use geospan_graph::stats::degree_stats;
use geospan_graph::svg::{render_svg, NodeRole, SvgOptions};

use crate::cli::{publish, Artifacts, Flags};
use crate::{
    measure_stretch, sweep_row, sweep_table, table1_rows, table1_topologies, Scenario, Table,
};

/// E1 — **Table I**: average/maximum node degree, length and hop
/// stretch factors, and edge counts of the paper's ten topologies.
pub fn table1(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let scenario = flags.scenario(Scenario::table1());
    println!(
        "Table I: n={} nodes, {}x{} region, radius {}, {} connected instances",
        scenario.n, scenario.side, scenario.side, scenario.radius, scenario.trials
    );
    let opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.4}"));
    let mut table = Table::new([
        "topology", "deg_avg", "deg_max", "len_avg", "len_max", "hop_avg", "hop_max", "edges",
    ]);
    for r in table1_rows(&scenario) {
        table.row(vec![
            r.name,
            format!("{:.4}", r.deg_avg),
            r.deg_max.to_string(),
            opt(r.len_avg),
            opt(r.len_max),
            opt(r.hop_avg),
            opt(r.hop_max),
            format!("{:.2}", r.edges),
        ]);
    }
    publish(out, "table1.csv", &table);
    Ok(())
}

/// E2 — **Figures 6 and 7**: one deployment rendered as the UDG plus
/// the nine derived topologies, node roles drawn as in the paper's
/// Figure 3 (dominators squares, connectors diamonds, dominatees
/// circles).
pub fn fig7_topologies(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let scenario = flags.scenario(Scenario::table1());
    let (_pts, udg, used_seed) =
        connected_unit_disk(scenario.n, scenario.side, scenario.radius, scenario.seed);
    println!(
        "Figure 6/7 gallery: n={}, radius={}, accepted seed {}",
        scenario.n, scenario.radius, used_seed
    );
    // Recover roles from the backbone for coloring.
    let backbone = BackboneBuilder::new(BackboneConfig::new(scenario.radius))
        .build(&udg)
        .expect("valid UDG");
    let roles: Vec<NodeRole> = backbone
        .roles()
        .iter()
        .map(|r| match r {
            Role::Dominator => NodeRole::Dominator,
            Role::Connector => NodeRole::Connector,
            Role::Dominatee => NodeRole::Dominatee,
        })
        .collect();
    for topo in table1_topologies(&udg, scenario.radius) {
        let file = format!(
            "fig7_{}.svg",
            topo.name
                .to_lowercase()
                .replace(['(', ')'], "_")
                .replace('\'', "p")
        );
        let opts = SvgOptions {
            title: topo.name.to_string(),
            ..SvgOptions::default()
        };
        println!("{:<12} {:>5} edges", topo.name, topo.graph.edge_count());
        out.push((file, render_svg(&topo.graph, &roles, &opts)));
    }
    Ok(())
}

/// The node counts Figures 8–10 sweep.
fn node_counts() -> impl Iterator<Item = usize> {
    (20..=100).step_by(10)
}

/// The radii Figures 11–12 sweep.
fn radii() -> impl Iterator<Item = usize> {
    (20..=60).step_by(5)
}

/// The fixed deployment of Figures 11–12: 500 nodes, 5 trials by
/// default (the all-pairs stretch dominates at that size; the paper's
/// trends are stable already at that count).
fn radius_base(flags: &Flags) -> Scenario {
    flags.scenario(Scenario {
        n: 500,
        trials: 5,
        ..Scenario::table1()
    })
}

/// E3 — **Figure 8**: maximum and average node degree of CDS, CDS',
/// ICDS, ICDS', LDel(ICDS), LDel(ICDS') as the node count varies.
pub fn fig8_degree(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let base = flags.scenario(Scenario::table1());
    let names = ["CDS", "CDS'", "ICDS", "ICDS'", "LDel(ICDS)", "LDel(ICDS')"];
    let mut max_t = sweep_table("n", names.iter().map(|n| format!("{n} deg max")));
    let mut avg_t = sweep_table("n", names.iter().map(|n| format!("{n} deg avg")));
    for n in node_counts() {
        let scenario = Scenario { n, ..base };
        let mut maxes = [0usize; 6];
        let mut avgs = [0.0f64; 6];
        for (_pts, udg) in scenario.instances() {
            for topo in table1_topologies(&udg, scenario.radius) {
                if let Some(k) = names.iter().position(|&m| m == topo.name) {
                    let d = degree_stats(&topo.graph);
                    maxes[k] = maxes[k].max(d.max);
                    avgs[k] += d.avg;
                }
            }
        }
        max_t.row(sweep_row(n as f64, maxes.map(|m| m as f64)));
        avg_t.row(sweep_row(
            n as f64,
            avgs.map(|a| a / scenario.trials as f64),
        ));
        eprintln!("n = {n}: done ({} instances)", scenario.trials);
    }
    println!(
        "Figure 8 (degree vs node count), R = {}, {} trials per point\n\nthe maximum degree:",
        base.radius, base.trials
    );
    publish(out, "fig8_degree_max.csv", &max_t);
    println!("\nthe average degree:");
    publish(out, "fig8_degree_avg.csv", &avg_t);
    Ok(())
}

/// Figures 9 and 11: maximum and average length and hop stretch of
/// CDS', ICDS' and LDel(ICDS') at each swept `(x, scenario)` point, as
/// (max table, avg table).
fn stretch_sweep(param: &str, points: impl Iterator<Item = (f64, Scenario)>) -> (Table, Table) {
    let names = ["CDS'", "ICDS'", "LDel(ICDS')"];
    let labels = |stat: &str| -> Vec<String> {
        names
            .iter()
            .flat_map(|n| ["length", "hop"].map(|m| format!("{n} {m} {stat}")))
            .collect()
    };
    let mut max_t = sweep_table(param, labels("max"));
    let mut avg_t = sweep_table(param, labels("avg"));
    for (x, scenario) in points {
        let mut maxes = [0.0f64; 6];
        let mut avgs = [0.0f64; 6];
        for (_pts, udg) in scenario.instances() {
            for topo in table1_topologies(&udg, scenario.radius) {
                let Some(k) = names.iter().position(|&m| m == topo.name) else {
                    continue;
                };
                let r = measure_stretch(&udg, &topo.graph, scenario.radius);
                for (j, (max, avg)) in [(r.length_max, r.length_avg), (r.hop_max, r.hop_avg)]
                    .into_iter()
                    .enumerate()
                {
                    maxes[2 * k + j] = maxes[2 * k + j].max(max);
                    avgs[2 * k + j] += avg;
                }
            }
        }
        max_t.row(sweep_row(x, maxes));
        avg_t.row(sweep_row(x, avgs.map(|a| a / scenario.trials as f64)));
        eprintln!("{param} = {x}: done ({} instances)", scenario.trials);
    }
    (max_t, avg_t)
}

/// E4 — **Figure 9**: maximum and average spanning ratios of CDS',
/// ICDS' and LDel(ICDS') as the node count varies.
pub fn fig9_stretch(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let base = flags.scenario(Scenario::table1());
    let (max_t, avg_t) = stretch_sweep(
        "n",
        node_counts().map(|n| (n as f64, Scenario { n, ..base })),
    );
    println!(
        "Figure 9 (spanning ratios vs node count), R = {}, {} trials per point\n\n\
         the maximum spanning ratios:",
        base.radius, base.trials
    );
    publish(out, "fig9_stretch_max.csv", &max_t);
    println!("\nthe average spanning ratios:");
    publish(out, "fig9_stretch_avg.csv", &avg_t);
    Ok(())
}

/// E6 — **Figure 11**: maximum and average spanning ratios of CDS',
/// ICDS' and LDel(ICDS') as the transmission radius varies.
pub fn fig11_stretch_radius(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let base = radius_base(flags);
    let (max_t, avg_t) = stretch_sweep(
        "R",
        radii().map(|r| {
            let radius = r as f64;
            (radius, Scenario { radius, ..base })
        }),
    );
    println!(
        "Figure 11 (spanning ratios vs transmission radius), n = {}, {} trials per point\n\n\
         the maximum spanning ratios:",
        base.n, base.trials
    );
    publish(out, "fig11_stretch_max.csv", &max_t);
    println!("\nthe average spanning ratios:");
    publish(out, "fig11_stretch_avg.csv", &avg_t);
    Ok(())
}

/// Per-node messages sent and node degree of CDS, ICDS and LDel(ICDS)
/// over the scenario's message-passing builds, as `[CDS max, CDS avg,
/// ICDS max, ICDS avg, LDel max, LDel avg]` for (messages, degree):
/// maxima over all instances, averages over instances.
///
/// The protocols run on the simulator; the counts are measured, not
/// modeled. CDS is the clustering + connector protocol, ICDS adds one
/// status broadcast per node, LDel(ICDS) is everything including the
/// triangulation phase.
fn comm_and_degree(scenario: &Scenario) -> ([f64; 6], [f64; 6]) {
    let mut comm = [0.0f64; 6];
    let mut deg = [0.0f64; 6];
    for (_pts, udg) in scenario.instances() {
        let backbone = BackboneBuilder::new(BackboneConfig::new(scenario.radius).distributed())
            .build(&udg)
            .expect("protocols converge");
        let stats = backbone.stats().expect("distributed build records stats");
        let cds_sent: Vec<usize> = stats.cds.sent_per_node().to_vec();
        let icds_sent: Vec<usize> = cds_sent.iter().map(|c| c + 1).collect();
        let total = stats.total_per_node();
        let graphs = [
            &backbone.cds_graphs().cds,
            &backbone.cds_graphs().icds,
            backbone.ldel_icds(),
        ];
        for (k, (sent, graph)) in [&cds_sent, &icds_sent, &total]
            .into_iter()
            .zip(graphs)
            .enumerate()
        {
            comm[2 * k] = comm[2 * k].max(sent.iter().copied().max().unwrap_or(0) as f64);
            comm[2 * k + 1] += sent.iter().sum::<usize>() as f64 / sent.len() as f64;
            let d = degree_stats(graph);
            deg[2 * k] = deg[2 * k].max(d.max as f64);
            deg[2 * k + 1] += d.avg;
        }
    }
    let t = scenario.trials as f64;
    for k in 0..3 {
        comm[2 * k + 1] /= t;
        deg[2 * k + 1] /= t;
    }
    (comm, deg)
}

/// The three structures Figures 10 and 12 measure, as column labels.
const COMM_NAMES: [&str; 3] = ["CDS", "ICDS", "LDelICDS"];

/// E5 — **Figure 10**: maximum and average per-node communication cost
/// to build CDS, ICDS and LDel(ICDS) as the node count varies.
pub fn fig10_messages(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let base = flags.scenario(Scenario::table1());
    let mut max_t = sweep_table("n", COMM_NAMES.iter().map(|n| format!("{n} comm max")));
    let mut avg_t = sweep_table("n", COMM_NAMES.iter().map(|n| format!("{n} comm avg")));
    for n in node_counts() {
        let (comm, _) = comm_and_degree(&Scenario { n, ..base });
        max_t.row(sweep_row(n as f64, [comm[0], comm[2], comm[4]]));
        avg_t.row(sweep_row(n as f64, [comm[1], comm[3], comm[5]]));
        eprintln!("n = {n}: done ({} instances)", base.trials);
    }
    println!(
        "Figure 10 (per-node communication cost vs node count), R = {}, {} trials per point\n\n\
         the maximum communications:",
        base.radius, base.trials
    );
    publish(out, "fig10_comm_max.csv", &max_t);
    println!("\nthe average communications:");
    publish(out, "fig10_comm_avg.csv", &avg_t);
    Ok(())
}

/// E7 — **Figure 12**: per-node communication cost and node degree of
/// CDS, ICDS and LDel(ICDS) as the transmission radius varies.
pub fn fig12_radius(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let base = radius_base(flags);
    let labels = |metric: &str| -> Vec<String> {
        COMM_NAMES
            .iter()
            .flat_map(|n| ["max", "avg"].map(|s| format!("{n} {metric} {s}")))
            .collect()
    };
    let mut comm_t = sweep_table("R", labels("comm"));
    let mut deg_t = sweep_table("R", labels("deg"));
    for r in radii() {
        let radius = r as f64;
        let (comm, deg) = comm_and_degree(&Scenario { radius, ..base });
        comm_t.row(sweep_row(radius, comm));
        deg_t.row(sweep_row(radius, deg));
        eprintln!("R = {r}: done ({} instances)", base.trials);
    }
    println!(
        "Figure 12 (communication cost and degree vs transmission radius), n = {}, {} trials \
         per point\n\nthe communications:",
        base.n, base.trials
    );
    publish(out, "fig12_comm.csv", &comm_t);
    println!("\nthe node degree:");
    publish(out, "fig12_degree.csv", &deg_t);
    Ok(())
}
