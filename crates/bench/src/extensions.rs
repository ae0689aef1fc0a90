//! Extension experiments (ours): the ablations E8–E9 and the
//! measurements E10–E14 that probe claims the paper makes in passing.

use std::collections::VecDeque;

use geospan_cds::{build_cds, dominatee_edges, CdsGraphs, ClusterRank};
use geospan_core::routing::{backbone_broadcast, backbone_route, gpsr_route};
use geospan_core::{BackboneBuilder, BackboneConfig};
use geospan_graph::paths::{bfs_hops, dijkstra_lengths};
use geospan_graph::planarity::is_plane_embedding;
use geospan_graph::power;
use geospan_graph::stats::degree_stats_over;
use geospan_graph::stretch::StretchOptions;
use geospan_graph::Graph;
use geospan_sim::{FaultPlan, MessageStats, ReliabilityConfig};
use geospan_topology::distributed::run_ldel;
use geospan_topology::distributed2::run_ldel2;
use geospan_topology::rdg::run_rdg;
use geospan_topology::{gabriel, ldel, relative_neighborhood};

use crate::cli::{publish, Artifacts, Flags};
use crate::{measure_stretch, sweep_row, sweep_table, table1_topologies, Scenario, Span, Table};

/// A clustering rank for an instance of `n` nodes and a seed.
type RankOf = fn(usize, u64) -> ClusterRank;
/// A planarizing filter of a backbone graph.
type Planarizer = fn(&Graph) -> Graph;

/// Deterministic pseudo-random election weights for one instance.
fn random_weights(n: usize, seed: u64) -> ClusterRank {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let w = (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % 1_000_000
        })
        .collect();
    ClusterRank::Weight(w)
}

/// E8 (ablation) — how the clustering rank (lowest id, highest degree,
/// random weight) affects backbone size, degree and spanning ratios.
pub fn ablation_rank(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let scenario = flags.scenario(Scenario::table1());
    println!(
        "Ablation E8 (clustering rank), n={}, R={}, {} instances\n",
        scenario.n, scenario.radius, scenario.trials
    );
    let ranks: [(&str, RankOf); 3] = [
        ("lowest-id", |_, _| ClusterRank::LowestId),
        ("highest-degree", |_, _| ClusterRank::HighestDegree),
        ("random-weight", random_weights),
    ];
    let mut table = Table::new([
        "rank",
        "dominators",
        "connectors",
        "backbone_deg_max",
        "len_avg",
        "len_max",
        "hop_avg",
        "hop_max",
    ]);
    let instances = scenario.instances();
    for (name, rank_of) in ranks {
        let (mut doms, mut conns, mut deg_max) = (0.0, 0.0, 0usize);
        let (mut la, mut lm, mut ha, mut hm) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (k, (_pts, udg)) in instances.iter().enumerate() {
            let rank = rank_of(udg.node_count(), scenario.seed + k as u64);
            let backbone =
                BackboneBuilder::new(BackboneConfig::new(scenario.radius).with_rank(rank))
                    .build(udg)
                    .expect("valid UDG");
            doms += backbone.cds_graphs().dominators.len() as f64;
            conns += backbone.cds_graphs().connectors.len() as f64;
            let nodes = backbone.backbone_nodes();
            deg_max = deg_max.max(degree_stats_over(backbone.ldel_icds(), nodes).max);
            let r = measure_stretch(udg, backbone.ldel_icds_prime(), scenario.radius);
            la += r.length_avg;
            lm = lm.max(r.length_max);
            ha += r.hop_avg;
            hm = hm.max(r.hop_max);
        }
        let t = instances.len() as f64;
        table.row(vec![
            name.to_string(),
            format!("{:.2}", doms / t),
            format!("{:.2}", conns / t),
            deg_max.to_string(),
            format!("{:.4}", la / t),
            format!("{lm:.4}"),
            format!("{:.4}", ha / t),
            format!("{hm:.4}"),
        ]);
    }
    publish(out, "ablation_rank.csv", &table);
    Ok(())
}

/// E9 (ablation) — why planarize the backbone with the localized
/// Delaunay graph rather than the cheaper Gabriel or RNG filters? All
/// three are plane graphs; the Delaunay-based one keeps the spanning
/// ratios small — the paper's core design choice.
pub fn ablation_planarizer(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let scenario = flags.scenario(Scenario::table1());
    println!(
        "Ablation E9 (backbone planarizer), n={}, R={}, {} instances\n",
        scenario.n, scenario.radius, scenario.trials
    );
    let planarizers: [(&str, Planarizer); 3] = [
        ("LDel", |g| ldel::planarized(g).graph),
        ("GG", gabriel),
        ("RNG", relative_neighborhood),
    ];
    let mut table = Table::new([
        "planarizer",
        "planar",
        "backbone_deg_max",
        "edges",
        "len_avg",
        "len_max",
        "hop_avg",
        "hop_max",
    ]);
    let instances = scenario.instances();
    for (name, planarize) in planarizers {
        let (mut planar, mut deg_max, mut edges) = (true, 0usize, 0.0);
        let (mut la, mut lm, mut ha, mut hm) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (_pts, udg) in &instances {
            let cds = build_cds(udg, &ClusterRank::LowestId);
            let backbone = planarize(&cds.icds);
            planar &= is_plane_embedding(&backbone);
            deg_max = deg_max.max(degree_stats_over(&backbone, cds.backbone_nodes()).max);
            edges += backbone.edge_count() as f64;
            // Re-attach the dominatee edges to measure spanning ratios.
            let prime = Graph::with_edges(
                backbone.points().to_vec(),
                backbone.edges().chain(dominatee_edges(&cds.dominators_of)),
            );
            let r = measure_stretch(udg, &prime, scenario.radius);
            la += r.length_avg;
            lm = lm.max(r.length_max);
            ha += r.hop_avg;
            hm = hm.max(r.hop_max);
        }
        let t = instances.len() as f64;
        table.row(vec![
            name.to_string(),
            planar.to_string(),
            deg_max.to_string(),
            format!("{:.2}", edges / t),
            format!("{:.4}", la / t),
            format!("{lm:.4}"),
            format!("{:.4}", ha / t),
            format!("{hm:.4}"),
        ]);
    }
    publish(out, "ablation_planarizer.csv", &table);
    Ok(())
}

/// E10 — **power stretch factors** of the spanning Table I topologies,
/// the paper's third spanner metric (`cost = d^β`, β ∈ {2, 4}).
/// Convexity of `d^β` favors many short hops, so structures that keep
/// short edges have better power stretch than length stretch.
pub fn power_stretch(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let scenario = flags.scenario(Scenario::table1());
    let betas = [2.0, 4.0];
    println!(
        "Power stretch (extension), n={}, R={}, {} instances, beta in {betas:?}\n",
        scenario.n, scenario.radius, scenario.trials
    );
    let opts = StretchOptions {
        min_euclidean_separation: scenario.radius,
    };
    let instances = scenario.instances();
    // Per spanning topology: [beta2 avg, beta2 max, beta4 avg, beta4 max].
    let mut agg: Vec<(&str, [f64; 4])> = Vec::new();
    for (_pts, udg) in &instances {
        let spanning = table1_topologies(udg, scenario.radius)
            .into_iter()
            .filter(|t| t.span == Span::AllNodes);
        for (k, topo) in spanning.enumerate() {
            if agg.len() == k {
                agg.push((topo.name, [0.0; 4]));
            }
            for (j, &beta) in betas.iter().enumerate() {
                let r = power::power_stretch(udg, &topo.graph, beta, opts);
                assert_eq!(r.disconnected_pairs, 0, "{} disconnects pairs", topo.name);
                agg[k].1[2 * j] += r.power_avg;
                agg[k].1[2 * j + 1] = agg[k].1[2 * j + 1].max(r.power_max);
            }
        }
    }
    let t = instances.len() as f64;
    let mut table = Table::new([
        "topology",
        "beta2_avg",
        "beta2_max",
        "beta4_avg",
        "beta4_max",
    ]);
    for (name, a) in agg {
        table.row(
            std::iter::once(name.to_string())
                .chain([a[0] / t, a[1], a[2] / t, a[3]].map(|v| format!("{v:.6}")))
                .collect(),
        );
    }
    publish(out, "power_stretch.csv", &table);
    Ok(())
}

/// Delivery and route-quality sums of one routing scheme.
#[derive(Default)]
struct Tally {
    delivered: usize,
    total: usize,
    hop_ratio: f64,
    len_ratio: f64,
}

/// E11 — end-to-end routing quality: GPSR over RNG, GG and PLDel versus
/// the paper's dominating-set-based routing over `LDel(ICDS')`, against
/// shortest paths; plus the backbone broadcast cost versus flooding.
pub fn routing_quality(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let scenario = flags.scenario(Scenario::table1());
    println!(
        "Routing quality (extension), n={}, R={}, {} instances\n",
        scenario.n, scenario.radius, scenario.trials
    );
    let names = ["GPSR/RNG", "GPSR/GG", "GPSR/PLDel", "backbone/LDel(ICDS')"];
    let mut tallies: Vec<Tally> = names.iter().map(|_| Tally::default()).collect();
    let (mut bcast_backbone, mut bcast_flood) = (0usize, 0usize);
    for (_pts, udg) in &scenario.instances() {
        let n = udg.node_count();
        let graphs = [
            relative_neighborhood(udg),
            gabriel(udg),
            ldel::planarized(udg).graph,
        ];
        let backbone = BackboneBuilder::new(BackboneConfig::new(scenario.radius))
            .build(udg)
            .expect("valid UDG");
        for s in (0..n).step_by(6) {
            let oh = bfs_hops(udg, s);
            let ol = dijkstra_lengths(udg, s);
            for t in (1..n).step_by(9).filter(|&t| t != s) {
                let oh = f64::from(oh[t].expect("UDG is connected: BFS reaches every target"));
                let ol = ol[t].expect("UDG is connected: Dijkstra reaches every target");
                let routes = graphs
                    .iter()
                    .map(|g| (gpsr_route(g, s, t, 100 * n), g))
                    .chain([(backbone_route(&backbone, udg, s, t, 100 * n), udg)]);
                for (tally, (r, g)) in tallies.iter_mut().zip(routes) {
                    tally.total += 1;
                    if r.delivered() {
                        tally.delivered += 1;
                        tally.hop_ratio += r.hops() as f64 / oh;
                        tally.len_ratio += r.length(g) / ol;
                    }
                }
            }
            bcast_backbone += backbone_broadcast(&backbone, udg, s).transmissions;
            bcast_flood += n;
        }
    }
    let mut table = Table::new(["scheme", "delivery", "hop_ratio", "len_ratio"]);
    for (name, t) in names.iter().zip(&tallies) {
        let d = t.delivered as f64;
        table.row(vec![
            name.to_string(),
            format!("{:.4}", d / t.total as f64),
            format!("{:.4}", t.hop_ratio / d),
            format!("{:.4}", t.len_ratio / d),
        ]);
    }
    // The broadcast row: backbone transmissions, flooding transmissions,
    // and how many times cheaper the backbone is.
    table.row(vec![
        "broadcast_tx".into(),
        bcast_backbone.to_string(),
        bcast_flood.to_string(),
        format!("{:.4}", bcast_flood as f64 / bcast_backbone as f64),
    ]);
    publish(out, "routing_quality.csv", &table);
    println!("\nbroadcast_tx: backbone transmissions, flooding transmissions, flooding/backbone");
    Ok(())
}

/// After deleting `dead`, is every surviving node still connected to the
/// rest through the given spanning graph? The spanning graph must not
/// split any component the UDG keeps whole.
fn survives(spanning: &Graph, udg: &Graph, dead: usize) -> bool {
    let alive = spanning.filter_edges(|u, v| u != dead && v != dead);
    let udg_alive = udg.filter_edges(|u, v| u != dead && v != dead);
    alive.components().len() == udg_alive.components().len()
}

/// A minimal variant of CDS': a BFS spanning tree of the backbone edges
/// plus a single (smallest) dominator link per dominatee.
fn minimal_prime(cds: &CdsGraphs, udg: &Graph) -> Graph {
    let mut edges = Vec::new();
    if let Some(&root) = cds.backbone_nodes().first() {
        let mut seen = vec![false; udg.node_count()];
        seen[root] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &v in cds.cds.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    edges.push((u, v));
                    queue.push_back(v);
                }
            }
        }
    }
    for (w, doms) in cds.dominators_of.iter().enumerate() {
        if let Some(&d) = doms.first() {
            edges.push((w, d));
        }
    }
    Graph::with_edges(udg.points().to_vec(), edges)
}

/// E12 — robustness, in two parts. Post-hoc failures: for every single
/// backbone-node failure, does the backbone still span and connect the
/// survivors — Algorithm 1's redundant connectors versus a minimal tree
/// (`robustness.csv`). Degradation sweep: the construction itself runs
/// over a faulty radio (loss × crashes, with ack/retransmit and the
/// self-healing election phases) and we measure what survives
/// (`robustness_faults.csv`).
pub fn robustness(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let scenario = flags.scenario(Scenario::table1());
    println!(
        "Robustness to single node failures (extension), n={}, R={}, {} instances\n",
        scenario.n, scenario.radius, scenario.trials
    );
    let (mut full_ok, mut min_ok, mut total) = (0usize, 0usize, 0usize);
    let (mut full_edges, mut min_edges) = (0usize, 0usize);
    for (_pts, udg) in scenario.instances() {
        let cds = build_cds(&udg, &ClusterRank::LowestId);
        let minimal = minimal_prime(&cds, &udg);
        full_edges += cds.cds_prime.edge_count();
        min_edges += minimal.edge_count();
        for &dead in &cds.backbone_nodes() {
            total += 1;
            full_ok += usize::from(survives(&cds.cds_prime, &udg, dead));
            min_ok += usize::from(survives(&minimal, &udg, dead));
        }
    }
    let t = scenario.trials as f64;
    let mut table = Table::new(["variant", "avg_edges", "survival"]);
    for (variant, edges, ok) in [
        ("paper", full_edges, full_ok),
        ("minimal", min_edges, min_ok),
    ] {
        table.row(vec![
            variant.into(),
            format!("{:.2}", edges as f64 / t),
            format!("{:.4}", ok as f64 / total as f64),
        ]);
    }
    publish(out, "robustness.csv", &table);
    println!(
        "\nThe redundant connectors of Algorithm 1 buy measurable fault tolerance \
         for a modest edge overhead."
    );
    publish(out, "robustness_faults.csv", &degradation_sweep(&scenario));
    println!(
        "\nReliability is paid for in messages — per-neighbor acks plus retransmissions that \
         grow with loss. What the overhead buys: across the whole grid the constructed \
         backbone still connects and spans the surviving nodes."
    );
    Ok(())
}

/// E12 part 2: build the backbone over a faulty radio across a loss ×
/// crash grid and measure the degradation.
fn degradation_sweep(scenario: &Scenario) -> Table {
    // The distributed construction with retransmissions is much heavier
    // than the centralized one; a handful of instances per cell gives
    // stable averages.
    let mut sweep = *scenario;
    sweep.trials = sweep.trials.clamp(1, 5);
    let reliability = ReliabilityConfig {
        max_retries: 8,
        ack_timeout: 2,
    };
    println!(
        "\nDegradation sweep: construction under a faulty radio (n={}, R={}, {} instances/cell)",
        sweep.n, sweep.radius, sweep.trials
    );
    let instances = sweep.instances();
    // Zero-fault baseline message cost per instance (same protocols, clean
    // radio) — the denominator of the overhead column.
    let baseline: Vec<f64> = instances
        .iter()
        .map(|(_pts, udg)| {
            let b = BackboneBuilder::new(BackboneConfig::new(sweep.radius).distributed())
                .build(udg)
                .expect("clean distributed build succeeds");
            let s = b.stats().expect("distributed build has stats");
            (s.cds.total_sent() + s.ldel.total_sent()) as f64
        })
        .collect();

    let mut table = Table::new([
        "loss",
        "crashes",
        "survival",
        "len_stretch_max",
        "hop_stretch_max",
        "disconnected_pairs",
        "msg_overhead",
        "retx_per_node",
        "gave_up",
    ]);
    for loss in [0.0, 0.05, 0.10, 0.20] {
        for crashes in [0usize, 1, 2] {
            let (mut survived, mut disconnected, mut retx, mut gave_up) = (0, 0, 0, 0);
            let (mut len_max, mut hop_max, mut overhead) = (0.0f64, 0.0f64, 0.0);
            for (k, (_pts, udg)) in instances.iter().enumerate() {
                let mut plan = FaultPlan::new(sweep.seed + k as u64 + 101).with_loss(loss);
                for c in 0..crashes {
                    let victim = (k * 37 + c * 53 + 11) % sweep.n;
                    plan = plan.with_crash(victim, 1 + 3 * c);
                }
                let config = BackboneConfig::new(sweep.radius)
                    .distributed()
                    .with_faults(plan)
                    .with_reliability(reliability);
                let b = BackboneBuilder::new(config)
                    .build(udg)
                    .expect("faulty build converges");
                let report = b.fault_report().cloned().unwrap_or_default();
                let alive = |v: usize| !report.crashed.contains(&v);
                let routing = b
                    .ldel_icds_prime()
                    .filter_edges(|u, v| alive(u) && alive(v));
                let udg_alive = udg.filter_edges(|u, v| alive(u) && alive(v));
                if routing.components().len() == udg_alive.components().len() {
                    survived += 1;
                }
                let s = measure_stretch(&udg_alive, &routing, sweep.radius);
                if s.length_max.is_finite() {
                    len_max = len_max.max(s.length_max);
                }
                if s.hop_max.is_finite() {
                    hop_max = hop_max.max(s.hop_max);
                }
                disconnected += s.disconnected_pairs;
                let stats = b.stats().expect("faulty build has stats");
                let sent = (stats.cds.total_sent() + stats.ldel.total_sent()) as f64;
                overhead += sent / baseline[k];
                retx += report.retransmissions;
                gave_up += report.gave_up;
            }
            let t = instances.len() as f64;
            table.row(vec![
                loss.to_string(),
                crashes.to_string(),
                format!("{:.4}", survived as f64 / t),
                format!("{len_max:.4}"),
                format!("{hop_max:.4}"),
                disconnected.to_string(),
                format!("{:.4}", overhead / t),
                format!("{:.4}", retx as f64 / (t * sweep.n as f64)),
                gave_up.to_string(),
            ]);
        }
    }
    table
}

/// E13/E14: two message-passing constructions side by side over
/// n = 20…100, as columns `<a|b> comm max`, `<a|b> comm avg`,
/// `<a|b> edges` and `<a|b> len max`. Maxima are over all instances,
/// the rest averaged over instances.
fn protocol_duel(
    base: Scenario,
    names: [&str; 2],
    run: impl Fn(&Graph, f64) -> [(Graph, MessageStats); 2],
) -> Table {
    let [a, b] = names;
    let labels = [
        format!("{a} comm max"),
        format!("{a} comm avg"),
        format!("{b} comm max"),
        format!("{b} comm avg"),
        format!("{a} edges"),
        format!("{b} edges"),
        format!("{a} len max"),
        format!("{b} len max"),
    ];
    let mut table = sweep_table("n", labels);
    for n in (20..=100).step_by(20) {
        let scenario = Scenario { n, ..base };
        let mut acc = [0.0f64; 8];
        for (_pts, udg) in scenario.instances() {
            for (j, (g, stats)) in run(&udg, scenario.radius).iter().enumerate() {
                acc[2 * j] = acc[2 * j].max(stats.max_sent() as f64);
                acc[2 * j + 1] += stats.avg_sent();
                acc[4 + j] += g.edge_count() as f64;
                acc[6 + j] = acc[6 + j].max(measure_stretch(&udg, g, scenario.radius).length_max);
            }
        }
        let t = scenario.trials as f64;
        for k in [1, 3, 4, 5] {
            acc[k] /= t;
        }
        table.row(sweep_row(n as f64, acc));
        eprintln!("n = {n}: done");
    }
    table
}

/// E13 — Gao et al.'s Restricted Delaunay Graph versus the localized
/// Delaunay handshake: near-twins structurally, but the RDG's per-node
/// message cost grows with density (the paper's §II critique).
pub fn rdg_comparison(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let base = flags.scenario(Scenario::table1());
    let table = protocol_duel(base, ["RDG", "LDel"], |udg, radius| {
        let rdg = run_rdg(udg, radius).expect("protocol converges");
        let ldel = run_ldel(udg, radius).expect("protocol converges");
        [rdg, (ldel.ldel.graph, ldel.stats)]
    });
    println!(
        "RDG vs LDel (extension E13), R = {}, {} trials per point\n",
        base.radius, base.trials
    );
    publish(out, "rdg_comparison.csv", &table);
    println!(
        "\nBoth are planar spanners of nearly identical quality; the RDG's per-node message \
         cost grows with density while LDel's stays flat."
    );
    Ok(())
}

/// E14 — `LDel¹` + planarization versus `LDel²`: 1-hop knowledge plus a
/// crossing-removal phase against a 2-hop neighbor exchange. Both run
/// on the simulator and both end planar; this measures what each costs
/// and what each keeps.
pub fn ldel_variants(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let base = flags.scenario(Scenario::table1());
    let table = protocol_duel(base, ["LDel1", "LDel2"], |udg, radius| {
        let one = run_ldel(udg, radius).expect("protocol converges");
        let (two, two_stats) = run_ldel2(udg, radius).expect("protocol converges");
        [(one.ldel.graph, one.stats), (two.graph, two_stats)]
    });
    println!(
        "LDel1+planarize vs LDel2 (extension E14), R = {}, {} trials per point\n",
        base.radius, base.trials
    );
    publish(out, "ldel_variants.csv", &table);
    println!(
        "\nBoth end planar. LDel1 pays two extra local phases; LDel2 pays the 2-hop \
         neighbor-table exchange and keeps slightly fewer triangles."
    );
    Ok(())
}
