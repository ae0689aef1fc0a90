//! `geospan-cli` — drive the spanner pipeline from the command line.
//!
//! ```text
//! geospan-cli generate --n 100 --side 200 --radius 60 --seed 1 --out nodes.csv
//! geospan-cli build    --nodes nodes.csv --radius 60 [--distributed]
//! geospan-cli render   --nodes nodes.csv --radius 60 --topology ldel-icds --out topo.svg
//! geospan-cli route    --nodes nodes.csv --radius 60 --from 0 --to 42
//! geospan-cli traffic  --nodes nodes.csv --radius 60 --rate 0.2 --duration 1000 --seed 1
//! ```
//!
//! Node files are CSV with one `x,y` pair per line.

use std::process::ExitCode;

use geospan::cds::Role;
use geospan::core::routing::backbone_route;
use geospan::core::{validate_positions, verify, Backbone, BackboneBuilder, BackboneConfig};
use geospan::graph::gen::{try_connected_unit_disk, UnitDiskBuilder};
use geospan::graph::svg::{render_svg, NodeRole, SvgOptions};
use geospan::graph::{Graph, Point};
use geospan::sim::{ChurnMix, ChurnPlan, FaultPlan, OverloadConfig, ReliabilityConfig};
use geospan::topology::{gabriel, ldel, relative_neighborhood, restricted_delaunay};
use geospan::traffic::{
    run, AdmissionPolicy, ChurnEngine, Discipline, Forwarding, RepairStrategy, TrafficConfig,
    Workload,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match COMMANDS.iter().find(|(name, ..)| name == command) {
        Some((name, takes, run)) => Flags::parse(name, takes, &args[1..]).and_then(|f| run(&f)),
        None => Err(format!("unknown command `{command}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  geospan-cli generate --n N --side S --radius R [--seed K] [--out FILE]
  geospan-cli build    --nodes FILE --radius R [--distributed]
  geospan-cli render   --nodes FILE --radius R [--topology NAME] --out FILE.svg
  geospan-cli route    --nodes FILE --radius R --from A --to B
  geospan-cli traffic  (--nodes FILE | --n N --side S) --radius R
                       [--policy backbone|gpsr|greedy] [--workload uniform|hotspot|bursty]
                       [--rate P] [--duration T] [--seed K] [--capacity Q] [--service T]
                       [--loss P] [--sink I] [--bias P] [--burst B]
                       [--discipline fifo|priority|drr] [--quantum N]
                       [--retries N] [--ack-timeout T]
                       [--high-watermark N [--low-watermark N] [--backoff-factor F]]
                       [--admit-ticks T [--admit-burst B]] [--shards N]
                       [--churn-rate P [--churn-seed K]]
                       [--out FILE.csv]

topologies:  udg, rng, gabriel, rdg, ldel, cds, ldel-icds, ldel-icds-prime
policies:    backbone (dominating-set routing over LDel(ICDS)),
             gpsr (over LDel(ICDS')), greedy (over the UDG)
disciplines: fifo, priority (by remaining distance), drr (per-destination
             deficit round robin, --quantum packets per visit)
retransmit:  --retries N > 0 enables per-hop link-layer retransmit with
             --ack-timeout service times of backoff
overload:    --high-watermark enables congestion-adaptive retransmit
             (shed retries above the high watermark, inflate backoff
             by --backoff-factor until the queue drains to
             --low-watermark); --admit-ticks enables token-bucket
             source admission (one packet per T ticks per source,
             bursts up to --admit-burst)
sharding:    --shards N (1 to 1024) runs the engine spatially sharded on
             up to N cores; output is bit-identical at every shard count
churn:       --churn-rate P schedules ~P membership/mobility events per
             tick (joins, leaves, moves in equal proportion, seeded by
             --churn-seed) and maintains the backbone with the paper's
             localized 2-hop repair while packets are in flight;
             requires --policy backbone";

/// A command's entry point.
type Command = fn(&Flags) -> Result<(), String>;

/// Every command with the flags it takes and its entry point.
/// `distributed` is the one boolean flag; every other flag takes a value.
#[rustfmt::skip]
const COMMANDS: &[(&str, &[&str], Command)] = &[
    ("generate", &["n", "side", "radius", "seed", "out"], cmd_generate),
    ("build", &["nodes", "radius", "distributed"], cmd_build),
    ("render", &["nodes", "radius", "topology", "out"], cmd_render),
    ("route", &["nodes", "radius", "from", "to"], cmd_route),
    ("traffic", &[
        "nodes", "n", "side", "radius", "policy", "workload", "rate", "duration", "seed",
        "capacity", "service", "loss", "sink", "bias", "burst", "discipline", "quantum",
        "retries", "ack-timeout", "high-watermark", "low-watermark", "backoff-factor",
        "admit-ticks", "admit-burst", "shards", "churn-rate", "churn-seed", "out",
    ], cmd_traffic),
];

/// Builds one topology from the UDG and its backbone.
type Topology = fn(&Graph, &Backbone) -> Graph;

/// Every topology `render` draws, by name; an unknown name is an error
/// that lists these.
#[rustfmt::skip]
const TOPOLOGIES: &[(&str, Topology)] = &[
    ("udg", |udg, _| udg.clone()),
    ("rng", |udg, _| relative_neighborhood(udg)),
    ("gabriel", |udg, _| gabriel(udg)),
    ("rdg", |udg, _| restricted_delaunay(udg)),
    ("ldel", |udg, _| ldel::planarized(udg).graph),
    ("cds", |_, b| b.cds_graphs().cds.clone()),
    ("ldel-icds", |_, b| b.ldel_icds().clone()),
    ("ldel-icds-prime", |_, b| b.ldel_icds_prime().clone()),
];

/// Minimal flag map: `--key value` pairs plus boolean `--distributed`.
struct Flags {
    #[expect(clippy::disallowed_types, reason = "looked up by key, never iterated")]
    kv: std::collections::HashMap<String, String>,
    distributed: bool,
}

impl Flags {
    /// Parses `args` for `command`, rejecting any flag not in `takes`.
    fn parse(command: &str, takes: &[&str], args: &[String]) -> Result<Self, String> {
        #[expect(clippy::disallowed_types, reason = "looked up by key, never iterated")]
        let mut kv = std::collections::HashMap::new();
        let mut distributed = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`"));
            };
            if !takes.contains(&key) {
                return Err(format!("`{command}` does not take --{key}"));
            }
            if key == "distributed" {
                distributed = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for --{key}"))?;
            kv.insert(key.to_string(), value.clone());
        }
        Ok(Flags { kv, distributed })
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.kv
            .get(key)
            .ok_or_else(|| format!("missing --{key}"))?
            .parse()
            .map_err(|_| format!("invalid value for --{key}"))
    }

    fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.kv.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}")),
        }
    }

    /// Rejects `--flag` unless `enabled`, so that a flag whose enabling
    /// flag is absent is refused rather than silently ignored.
    fn requires(&self, flag: &str, enabled: bool, enabling: &str) -> Result<(), String> {
        if self.kv.contains_key(flag) && !enabled {
            return Err(format!("--{flag} needs {enabling}"));
        }
        Ok(())
    }
}

fn load_nodes(flags: &Flags) -> Result<Vec<Point>, String> {
    let path: String = flags.get("nodes")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut pts = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("x,") {
            continue;
        }
        let (x, y) = line
            .split_once(',')
            .ok_or_else(|| format!("{path}:{}: expected `x,y`", lineno + 1))?;
        let parse = |s: &str| match s.trim().parse::<f64>() {
            Ok(c) if c.is_finite() => Ok(c),
            Ok(_) => Err(format!(
                "{path}:{}: non-finite coordinate `{s}`",
                lineno + 1
            )),
            Err(_) => Err(format!("{path}:{}: bad coordinate `{s}`", lineno + 1)),
        };
        pts.push(Point::new(parse(x)?, parse(y)?));
    }
    if pts.is_empty() {
        return Err(format!("{path}: no nodes"));
    }
    Ok(pts)
}

fn udg_of(flags: &Flags, pts: &[Point]) -> Result<(Graph, f64), String> {
    // Checked before the unit disk graph is built: its in-range test
    // overflows on huge coordinates and admits every pair.
    validate_positions(pts).map_err(|e| e.to_string())?;
    let radius: f64 = flags.get("radius")?;
    if !(radius > 0.0 && (radius * radius).is_finite()) {
        return Err("radius must be positive, with a finite square".into());
    }
    Ok((UnitDiskBuilder::new(radius).build(pts), radius))
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let n: usize = flags.get("n")?;
    let side: f64 = flags.get("side")?;
    let radius: f64 = flags.get("radius")?;
    let seed: u64 = flags.get_or("seed", 1)?;
    let (pts, udg, used) = try_connected_unit_disk(n, side, radius, seed)?;
    let mut out = String::from("x,y\n");
    for p in &pts {
        out.push_str(&format!("{},{}\n", p.x, p.y));
    }
    match flags.kv.get("out") {
        Some(path) => {
            std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote {n} nodes to {path} (seed {used}, {} links)",
                udg.edge_count()
            );
        }
        None => print!("{out}"),
    }
    Ok(())
}

fn cmd_build(flags: &Flags) -> Result<(), String> {
    let pts = load_nodes(flags)?;
    let (udg, radius) = udg_of(flags, &pts)?;
    let mut config = BackboneConfig::new(radius);
    if flags.distributed {
        config = config.distributed();
    }
    let backbone = BackboneBuilder::new(config)
        .build(&udg)
        .map_err(|e| e.to_string())?;
    println!("{}", verify(&backbone, &udg, radius));
    if let Some(stats) = backbone.stats() {
        let total = stats.total_per_node();
        println!(
            "  messages/node:   max {}, avg {:.1}",
            total.iter().max().unwrap_or(&0),
            total.iter().sum::<usize>() as f64 / total.len().max(1) as f64
        );
        for (kind, count) in stats.cds.per_kind() {
            println!("    {kind:<14} {count}");
        }
        for (kind, count) in stats.ldel.per_kind() {
            println!("    {kind:<14} {count}");
        }
    }
    Ok(())
}

fn cmd_render(flags: &Flags) -> Result<(), String> {
    let topology: String = flags.get_or("topology", "ldel-icds".to_string())?;
    let Some((_, build)) = TOPOLOGIES.iter().find(|(name, _)| *name == topology) else {
        let names: Vec<&str> = TOPOLOGIES.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown topology `{topology}` (valid topologies: {})",
            names.join(", ")
        ));
    };
    let pts = load_nodes(flags)?;
    let (udg, radius) = udg_of(flags, &pts)?;
    let backbone = BackboneBuilder::new(BackboneConfig::new(radius))
        .build(&udg)
        .map_err(|e| e.to_string())?;
    let graph = build(&udg, &backbone);
    let roles: Vec<NodeRole> = backbone
        .roles()
        .iter()
        .map(|r| match r {
            Role::Dominator => NodeRole::Dominator,
            Role::Connector => NodeRole::Connector,
            Role::Dominatee => NodeRole::Dominatee,
        })
        .collect();
    let opts = SvgOptions {
        title: format!("{topology} — {} edges", graph.edge_count()),
        ..SvgOptions::default()
    };
    let svg = render_svg(&graph, &roles, &opts);
    let path: String = flags.get("out")?;
    std::fs::write(&path, svg).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path} ({} edges)", graph.edge_count());
    Ok(())
}

fn cmd_route(flags: &Flags) -> Result<(), String> {
    let pts = load_nodes(flags)?;
    let (udg, radius) = udg_of(flags, &pts)?;
    let from: usize = flags.get("from")?;
    let to: usize = flags.get("to")?;
    let n = udg.node_count();
    if from >= n || to >= n {
        return Err(format!("endpoints must be < {n}"));
    }
    let backbone = BackboneBuilder::new(BackboneConfig::new(radius))
        .build(&udg)
        .map_err(|e| e.to_string())?;
    let route = backbone_route(&backbone, &udg, from, to, 100 * n);
    if route.delivered() {
        println!(
            "delivered in {} hops, length {:.2}",
            route.hops(),
            route.length(&udg)
        );
        println!("path: {:?}", route.path);
        Ok(())
    } else {
        Err(format!(
            "routing failed: {:?} (path so far {:?})",
            route.outcome, route.path
        ))
    }
}

/// The most packets (`rate × duration`) or churn events
/// (`churn-rate × duration`) one traffic run may schedule: both size an
/// up-front allocation, so a larger product is refused, not attempted.
const MAX_SCHEDULED: f64 = 1e7;

/// The most shards one traffic run may use: the shard drivers keep an
/// s × s grid of boundary slots and scan all of it every round, so 1 024
/// shards already means about 10⁶ slots.
const MAX_SHARDS: usize = 1_024;

fn cmd_traffic(flags: &Flags) -> Result<(), String> {
    let shards: usize = flags.get_or("shards", 1)?;
    if !(1..=MAX_SHARDS).contains(&shards) {
        return Err(format!("shards must be in 1..={MAX_SHARDS}, got {shards}"));
    }
    // Deployment: an explicit node file, or a generated connected field.
    let pts = if flags.kv.contains_key("nodes") {
        load_nodes(flags)?
    } else {
        let n: usize = flags.get("n")?;
        let side: f64 = flags.get("side")?;
        let radius: f64 = flags.get("radius")?;
        let seed: u64 = flags.get_or("seed", 1)?;
        try_connected_unit_disk(n, side, radius, seed)?.0
    };
    let (udg, radius) = udg_of(flags, &pts)?;
    let n = udg.node_count();
    if n < 2 {
        return Err("traffic needs at least two nodes".into());
    }

    let seed: u64 = flags.get_or("seed", 1)?;
    let rate: f64 = flags.get_or("rate", 0.2)?;
    let duration: u64 = flags.get_or("duration", 1_000)?;
    if !(rate > 0.0 && rate.is_finite()) {
        return Err("rate must be positive".into());
    }
    if rate * duration as f64 > MAX_SCHEDULED {
        return Err(format!(
            "rate × duration must be at most {MAX_SCHEDULED:e} expected packets"
        ));
    }
    let workload_name: String = flags.get_or("workload", "uniform".to_string())?;
    let workload = match workload_name.as_str() {
        "uniform" => Workload::uniform(rate, duration),
        "hotspot" => {
            let sink: usize = flags.get_or("sink", 0)?;
            if sink >= n {
                return Err(format!("sink must be < {n}"));
            }
            let bias: f64 = flags.get_or("bias", 0.8)?;
            if !(0.0..=1.0).contains(&bias) {
                return Err("bias must be in [0, 1]".into());
            }
            Workload::hotspot(sink, bias, rate, duration)
        }
        "bursty" => Workload::bursty(flags.get_or("burst", 8)?, rate, duration),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let policy: String = flags.get_or("policy", "backbone".to_string())?;
    let churn_rate: f64 = flags.get_or("churn-rate", 0.0)?;
    if !(churn_rate >= 0.0 && churn_rate.is_finite()) {
        return Err("churn-rate must be non-negative".into());
    }
    if churn_rate * duration as f64 > MAX_SCHEDULED {
        return Err(format!(
            "churn-rate × duration must be at most {MAX_SCHEDULED:e} churn events"
        ));
    }
    if churn_rate > 0.0 && policy != "backbone" {
        return Err("churn maintenance requires --policy backbone".into());
    }

    let loss: f64 = flags.get_or("loss", 0.0)?;
    if !(0.0..=1.0).contains(&loss) {
        return Err("loss must be in [0, 1]".into());
    }
    let faults = if loss > 0.0 {
        FaultPlan::new(seed ^ 0x7a_f1c0).with_loss(loss)
    } else {
        FaultPlan::none()
    };
    let discipline_name: String = flags.get_or("discipline", "fifo".to_string())?;
    let discipline = match Discipline::parse(&discipline_name) {
        Some(Discipline::Drr { .. }) => Discipline::Drr {
            quantum: flags.get_or("quantum", 1)?,
        },
        Some(d) => d,
        None => return Err(format!("unknown discipline `{discipline_name}`")),
    };
    flags.requires(
        "quantum",
        matches!(discipline, Discipline::Drr { .. }),
        "--discipline drr",
    )?;
    let retries: u32 = flags.get_or("retries", 0)?;
    flags.requires("ack-timeout", retries > 0, "--retries > 0")?;
    let reliability = (retries > 0).then_some(ReliabilityConfig {
        max_retries: retries,
        ack_timeout: flags.get_or("ack-timeout", 3)?,
    });
    let watermarks = flags.kv.contains_key("high-watermark");
    flags.requires("low-watermark", watermarks, "--high-watermark")?;
    flags.requires("backoff-factor", watermarks, "--high-watermark")?;
    let overload = if watermarks {
        let high: usize = flags.get("high-watermark")?;
        // Mirror OverloadConfig::for_capacity's 3:1 hysteresis gap.
        let low: usize = flags.get_or("low-watermark", high / 3)?;
        if low > high {
            // The congested band between the two would be empty.
            return Err(format!(
                "--low-watermark {low} is above --high-watermark {high}"
            ));
        }
        Some(OverloadConfig {
            high_watermark: high,
            low_watermark: low,
            backoff_factor: flags.get_or("backoff-factor", 4)?,
        })
    } else {
        None
    };
    let token_bucket = flags.kv.contains_key("admit-ticks");
    flags.requires("admit-burst", token_bucket, "--admit-ticks")?;
    let admission = if token_bucket {
        AdmissionPolicy::TokenBucket {
            ticks_per_token: flags.get("admit-ticks")?,
            burst: flags.get_or("admit-burst", 1)?,
        }
    } else {
        AdmissionPolicy::Open
    };
    let cfg = TrafficConfig {
        queue_capacity: flags.get_or("capacity", 64)?,
        service_time: flags.get_or("service", 1)?,
        max_hops: (50 * n) as u32,
        discipline,
        reliability,
        overload,
        admission,
        shards,
        ..TrafficConfig::default()
    };

    let (outcome, churn) = if churn_rate > 0.0 {
        // Churn events land in [1, duration]; joiners enter inside the
        // deployment square (the generated field's --side, or the node
        // file's bounding box).
        let side: f64 =
            flags.get_or("side", pts.iter().fold(radius, |m, p| m.max(p.x).max(p.y)))?;
        if !(side > 0.0 && side.is_finite()) {
            return Err(format!("side must be positive and finite, got {side}"));
        }
        let churn_seed: u64 = flags.get_or("churn-seed", seed ^ 0xc4u64)?;
        let events = ((churn_rate * duration as f64).round() as usize).max(1);
        let plan = ChurnPlan::generate(churn_seed, n, side, events, duration, ChurnMix::balanced());
        let arrivals = workload.generate(plan.universe(), seed);
        let out = ChurnEngine::new(cfg.shards)
            .run(
                &pts,
                radius,
                &plan,
                &arrivals,
                &faults,
                &cfg,
                RepairStrategy::LocalRepair,
            )
            .map_err(|e| e.to_string())?;
        (out.traffic, Some(out.churn))
    } else {
        let arrivals = workload.generate(n, seed);
        let backbone = BackboneBuilder::new(BackboneConfig::new(radius))
            .build(&udg)
            .map_err(|e| e.to_string())?;
        let forwarding = match policy.as_str() {
            "backbone" => Forwarding::Backbone {
                backbone: &backbone,
                udg: &udg,
            },
            "gpsr" => Forwarding::Gpsr(backbone.ldel_icds_prime()),
            "greedy" => Forwarding::Greedy(&udg),
            other => return Err(format!("unknown policy `{other}`")),
        };
        (run(&forwarding, &udg, &arrivals, &faults, &cfg), None)
    };
    let report = &outcome.report;
    println!(
        "{workload_name} workload over `{policy}` ({n} nodes, rate {rate}, {duration} ticks, \
         seed {seed}, {} queue{})",
        discipline.label(),
        match cfg.reliability {
            Some(rel) => format!(", retransmit x{}", rel.max_retries),
            None => String::new(),
        }
    );
    print!("{}", report.format());
    if let Some(c) = &churn {
        println!(
            "churn: {} joins, {} leaves, {} moves; {} kept, {} local repairs, {} rebuilds; \
             repair cost {}, {} stale ticks, worst window {:.1}% delivery",
            c.joins,
            c.leaves,
            c.moves,
            c.kept,
            c.local_repairs,
            c.full_rebuilds,
            c.repair_cost,
            c.staleness_ticks,
            100.0
                * c.windows
                    .iter()
                    .map(|w| w.delivery_ratio())
                    .fold(1.0, f64::min)
        );
    }
    if let Some(path) = flags.kv.get("out") {
        let (repair_cost, staleness) = churn
            .as_ref()
            .map_or((0, 0), |c| (c.repair_cost, c.staleness_ticks));
        let csv = format!(
            "policy,workload,discipline,retx,rate,duration,seed,offered,delivered,\
             delivery_ratio,drop_stuck,drop_queue,drop_loss,drop_crash,drop_hop_limit,\
             drop_retry_shed,refused,retransmissions,latency_p50,latency_p99,latency_mean,\
             hop_stretch_avg,length_stretch_avg,queue_peak_max,drop_departed,churn_rate,\
             repair_cost,staleness_ticks\n\
             {policy},{workload_name},{},{},{rate},{duration},{seed},{},{},{:.6},{},{},{},{},{},{},{},{},{},{},{:.4},{:.4},{:.4},{},{},{churn_rate},{repair_cost},{staleness}\n",
            discipline.label(),
            if cfg.reliability.is_some() { "on" } else { "off" },
            report.offered,
            report.delivered,
            report.delivery_ratio(),
            report.drops.stuck,
            report.drops.queue_full,
            report.drops.link_loss,
            report.drops.node_crash,
            report.drops.hop_limit,
            report.drops.retry_shed,
            report.refused,
            report.retransmissions,
            report.latency_p50,
            report.latency_p99,
            report.latency_mean,
            report.hop_stretch_avg,
            report.length_stretch_avg,
            report.queue_peak_max,
            report.drops.node_departed
        );
        std::fs::write(path, csv).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
