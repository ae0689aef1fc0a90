//! The five workloads: operating points, set-up, the measured operation,
//! output checks, and the traced per-layer breakdown.
//!
//! Every workload follows one shape. Set-up generates the inputs from the
//! seed, several times. The measured operation then repeats until the time
//! budget is spent. Each repetition's output is digested and must match the
//! first. Checks that do not belong in the timed interval run once
//! afterwards. In a traced run every untraced repetition is followed by a
//! traced one that wraps the same calls, and their stage replays, in spans.
//!
//! `setup_s` and `op_s` are medians of the repetitions' wall times, scaled
//! to a reference host speed (see [`calibrate`]); the raw medians are
//! reported as `host.setup_wall_s` and `host.op_wall_s`.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use geospan_cds::protocol::run_cds;
use geospan_cds::{assemble, cluster, find_connectors, ClusterRank, Role};
use geospan_core::maintenance::{MaintenanceAction, MobileBackbone};
use geospan_core::routing::backbone_route;
use geospan_core::{verify, Backbone, BackboneBuilder, BackboneConfig, BackboneError};
use geospan_graph::gen::{connected_unit_disk, UnitDiskBuilder};
use geospan_graph::paths::DistanceOracle;
use geospan_graph::planarity::is_plane_embedding;
use geospan_graph::{Graph, Point};
use geospan_sim::{
    ChurnEvent, ChurnPlan, FaultPlan, OverloadConfig, ReliabilityConfig, TimedChurn,
};
use geospan_topology::distributed::run_ldel;
use geospan_topology::ldel::{ldel1, planarize};
use geospan_traffic::{
    AdmissionPolicy, ChurnEngine, Forwarding, PacketOutcome, RepairStrategy, RunStats,
    ShardedEngine, TrafficConfig, TrafficOutcome, Workload,
};

use crate::report::{median, quantile, spread, Digest, Report, Samples};
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "build_central",
    "build_distributed",
    "traffic_steady",
    "traffic_saturated",
    "churn_repair",
];

/// Transmission radius of every deployment (Table I of the paper).
const RADIUS: f64 = 60.0;

/// Table I density: a side of `200 * sqrt(n / 100)` keeps 100 nodes per
/// 200 x 200 square at every size.
fn side(n: usize) -> f64 {
    200.0 * (n as f64 / 100.0).sqrt()
}

/// SplitMix64 finalizer: derives independent input seeds from the
/// workload seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    /// Self-test sizes instead of the benchmark's operating points.
    pub tiny: bool,
    /// Worker threads for the data-parallel stages and the sharded
    /// engines. The benchmark measures at 1: on a shared two-core host the
    /// second core's availability was the largest source of noise, so
    /// parallel speed-up is a traced metric (`traffic.shard_speedup`).
    pub threads: usize,
}

impl Run {
    fn size<T>(&self, full: T, tiny: T) -> T {
        if self.tiny {
            tiny
        } else {
            full
        }
    }
}

/// Runs one workload; returns its report and the spans it recorded.
pub fn run_workload(name: &str, run: &Run) -> (Report, Tracer) {
    let mut b = Bench {
        run: run.clone(),
        report: Report::new(name),
        tracer: Tracer::new(),
        samples: Samples::default(),
        setup_wall: 0.0,
        op_wall: 0.0,
        calibrations: Vec::new(),
    };
    match name {
        "build_central" => b.build_central(),
        "build_distributed" => b.build_distributed(),
        "traffic_steady" => b.traffic(&TrafficPoint::steady(run)),
        "traffic_saturated" => b.traffic(&TrafficPoint::saturated(run)),
        "churn_repair" => b.churn(),
        other => panic!("unknown workload `{other}`"),
    }
    let Bench {
        mut report,
        tracer,
        samples,
        setup_wall,
        op_wall,
        calibrations,
        ..
    } = b;
    if !calibrations.is_empty() {
        let calib = median(&calibrations);
        let scale = CALIBRATION_REFERENCE_S / calib;
        report.metric("host.calib_ms", calib * 1e3, "ms");
        report.metric("host.setup_wall_s", setup_wall, "s");
        report.metric("setup_s", setup_wall * scale, "s");
        report.metric("host.op_wall_s", op_wall, "s");
        report.metric("op_s", op_wall * scale, "s");
    }
    if run.trace {
        samples.into_report(&mut report);
        report.metric("trace.spans", tracer.len() as f64, "count");
    }
    report.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    (report, tracer)
}

struct Bench {
    run: Run,
    report: Report,
    tracer: Tracer,
    samples: Samples,
    /// Median set-up and operation wall times, seconds.
    setup_wall: f64,
    op_wall: f64,
    /// Calibration times taken before each measured repetition.
    calibrations: Vec<f64>,
}

/// A connected Table I deployment.
struct Deployment {
    points: Vec<Point>,
    udg: Graph,
}

impl Bench {
    /// Runs `setup` repeatedly, records the median wall time, and keeps
    /// the last result.
    fn setup<T>(&mut self, mut setup: impl FnMut(&mut Samples) -> T) -> T {
        let start = Instant::now();
        let mut times = Vec::new();
        let mut last = None;
        while times.len() < SETUP_MIN_REPS
            || (start.elapsed() < SETUP_BUDGET && times.len() < SETUP_MAX_REPS)
        {
            drop(last.take());
            let t = Instant::now();
            last = Some(setup(&mut self.samples));
            times.push(t.elapsed().as_secs_f64());
        }
        self.setup_wall = median(&times);
        self.report.meta("setup_reps", times.len().to_string());
        last.expect("at least one set-up repetition")
    }

    /// Repeats the measured operation until the budget is spent, timing
    /// [`calibrate`] before each repetition, and records the median wall
    /// time. `rep(None)` is one untraced repetition; in a traced run each
    /// is followed by `rep(Some(..))`. Both return the operation's wall
    /// time in seconds.
    fn drive(
        &mut self,
        mut rep: impl FnMut(Option<(&mut Tracer, &mut Samples)>, &mut Report) -> f64,
    ) {
        let min_reps = if self.run.trace { 1 } else { 3 };
        let start = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        while plain.len() < min_reps || start.elapsed() < self.run.budget {
            self.calibrations.push(calibrate());
            plain.push(rep(None, &mut self.report));
            if self.run.trace {
                traced.push(rep(
                    Some((&mut self.tracer, &mut self.samples)),
                    &mut self.report,
                ));
            }
        }
        self.op_wall = median(&plain);
        self.report.meta("op_reps", plain.len().to_string());
        self.report
            .meta("op_spread", format!("{:.6}", spread(&plain)));
        self.report.meta("op_times", format!("{plain:?}"));
        if self.run.trace {
            // Tracing overhead: traced minus untraced time of the same call.
            self.report.metric(
                "trace.overhead_ms",
                (median(&traced) - median(&plain)) * 1e3,
                "ms",
            );
        }
    }

    // ----------------------------------------------------------------
    // build_central / build_distributed
    // ----------------------------------------------------------------

    fn build_central(&mut self) {
        let n = self.run.size(200_000, 400);
        self.report.meta(
            "operating_point",
            format!("{{\"n\": {n}, \"side\": {:.3}, \"radius\": {RADIUS}, \"construction\": \"centralized\"}}", side(n)),
        );
        let seed = self.run.seed;
        let dep = self.setup(|s| deploy(seed, s, n));
        let builder = BackboneBuilder::new(BackboneConfig::new(RADIUS));
        let udg = &dep.udg;
        let mut last: Option<Backbone> = None;
        self.drive(|tr, report| match tr {
            None => {
                last = None;
                let t = Instant::now();
                let built = builder.build(udg);
                let secs = t.elapsed().as_secs_f64();
                if let Some(b) = accept(report, built) {
                    let d = backbone_digest(&b, None);
                    report.digest("build", d);
                    last = Some(b);
                }
                secs
            }
            Some((tracer, samples)) => {
                let (built, build_ms) = tracer.time("core.build", || builder.build(udg));
                drop(built);
                stage_replay(tracer, samples, udg, build_ms);
                build_ms / 1e3
            }
        });
        if self.run.trace && !self.run.tiny {
            // Coverage: the stage spans account for the build.
            let cov = self.samples.median_of("core.build_coverage").unwrap_or(0.0);
            self.report.check(cov >= 0.9, || {
                format!("stage spans cover {:.1}% of build_ms (< 90%)", cov * 100.0)
            });
        }
        if let Some(b) = last {
            self.finish_build(&b, udg);
        }
    }

    fn build_distributed(&mut self) {
        let n = self.run.size(10_000, 200);
        self.report.meta(
            "operating_point",
            format!("{{\"n\": {n}, \"side\": {:.3}, \"radius\": {RADIUS}, \"construction\": \"distributed\"}}", side(n)),
        );
        let seed = self.run.seed;
        let dep = self.setup(|s| deploy(seed, s, n));
        let builder = BackboneBuilder::new(BackboneConfig::new(RADIUS).distributed());
        let udg = &dep.udg;
        let mut last: Option<Backbone> = None;
        self.drive(|tr, report| match tr {
            None => {
                last = None;
                let t = Instant::now();
                let built = builder.build(udg);
                let secs = t.elapsed().as_secs_f64();
                if let Some(b) = accept(report, built) {
                    let per_node = b.stats().map(|s| s.total_per_node());
                    report.digest("build", backbone_digest(&b, per_node.as_deref()));
                    last = Some(b);
                }
                secs
            }
            Some((tracer, samples)) => {
                let (built, build_ms) = tracer.time("core.build", || builder.build(udg));
                drop(built);
                let stages = tracer.begin("core.build_stages");
                let rank = ClusterRank::LowestId;
                let (cds, protocol_ms) = tracer.time("cds.protocol", || {
                    run_cds(udg, &rank).expect("CDS protocol converges")
                });
                let (ldel, distributed_ms) = tracer.time("topology.distributed", || {
                    run_ldel(&cds.0.icds, RADIUS).expect("LDel protocol converges")
                });
                tracer.end(stages);
                samples.add("core.build_ms", build_ms, "ms");
                samples.add("cds.protocol_ms", protocol_ms, "ms");
                samples.add("topology.distributed_ms", distributed_ms, "ms");
                let covered = protocol_ms + distributed_ms;
                samples.add("core.build_other_ms", build_ms - covered, "ms");
                samples.add("core.build_coverage", covered / build_ms, "ratio");
                let messages = cds.1.total_sent() + ldel.stats.total_sent();
                samples.add("sim.msgs_per_s", messages as f64 / (covered / 1e3), "1/s");
                build_ms / 1e3
            }
        });
        let Some(b) = last else { return };
        if let Some(stats) = b.stats() {
            let per_node = stats.total_per_node();
            let max = per_node.iter().copied().max().unwrap_or(0);
            let avg = per_node.iter().sum::<usize>() as f64 / per_node.len().max(1) as f64;
            let r = &mut self.report;
            r.metric("sim.msgs_per_node_max", max as f64, "count");
            r.metric("sim.msgs_per_node_avg", avg, "count");
            r.metric(
                "sim.messages",
                (stats.cds.total_sent() + stats.ldel.total_sent()) as f64,
                "count",
            );
            r.metric(
                "sim.retx",
                (stats.cds.total_retx() + stats.ldel.total_retx()) as f64,
                "count",
            );
            for (stage, s) in [("cds", &stats.cds), ("ldel", &stats.ldel)] {
                for (kind, count) in s.per_kind() {
                    r.metric(&format!("sim.kind.{stage}.{kind}"), *count as f64, "count");
                }
            }
            // Lemma 3: O(1) messages per node. The bound is the
            // workspace's own test threshold.
            r.check(max <= 150, || {
                format!("{max} messages at one node breaks the constant per-node bound of 150")
            });
        }
        // The protocols must build exactly what the centralized reference
        // builds on the same graph.
        if let Ok(central) = BackboneBuilder::new(BackboneConfig::new(RADIUS)).build(udg) {
            let same = central.roles() == b.roles()
                && central.ldel_icds().edges().eq(b.ldel_icds().edges());
            self.report.check(same, || {
                "distributed backbone differs from the centralized one".to_string()
            });
        }
        self.finish_build(&b, udg);
    }

    /// Output checks and quality metrics of a built backbone: structural
    /// invariants, then backbone routing over a seeded sample of pairs.
    fn finish_build(&mut self, b: &Backbone, udg: &Graph) {
        check_backbone(&mut self.report, b, udg);
        let sample = route_sample(
            &mut self.tracer,
            b,
            udg,
            &sample_pairs(
                udg.node_count(),
                self.run.size(16, 4),
                self.run.size(64, 16),
                self.run.seed,
            ),
        );
        self.report.check(sample.delivered == sample.pairs, || {
            format!(
                "backbone routing delivered {} of {} sampled pairs",
                sample.delivered, sample.pairs
            )
        });
        self.report.metric(
            "delivery_ratio",
            sample.delivered as f64 / sample.pairs as f64,
            "ratio",
        );
        self.report
            .metric("hop_stretch_avg", sample.hop_stretch_avg, "ratio");
        let r = &mut self.report;
        r.metric(
            "cds.backbone_nodes",
            b.backbone_nodes().len() as f64,
            "count",
        );
        r.metric(
            "topology.ldel_edges",
            b.ldel_icds().edge_count() as f64,
            "count",
        );
        r.metric(
            "topology.triangles",
            b.ldel_icds_full().triangles.len() as f64,
            "count",
        );
        if self.run.trace {
            sample.record(&mut self.samples, true);
        }
    }

    // ----------------------------------------------------------------
    // traffic_steady / traffic_saturated
    // ----------------------------------------------------------------

    fn traffic(&mut self, point: &TrafficPoint) {
        let n = point.n;
        self.report.meta("operating_point", point.describe());
        let seed = self.run.seed;
        let (dep, backbone, arrivals) = self.setup(|s| {
            let dep = deploy(seed, s, n);
            let t = Instant::now();
            let built = BackboneBuilder::new(BackboneConfig::new(RADIUS)).build(&dep.udg);
            s.add("core.build_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
            let t = Instant::now();
            let arrivals = Workload::uniform(point.rate, point.duration).generate(n, mix(seed, 2));
            s.add(
                "traffic.workload_gen_ms",
                t.elapsed().as_secs_f64() * 1e3,
                "ms",
            );
            (dep, built, arrivals)
        });
        let Some(backbone) = accept(&mut self.report, backbone) else {
            return;
        };
        let udg = &dep.udg;
        let faults = FaultPlan::new(mix(seed, 3)).with_loss(point.loss);
        let cfg = point.config();
        let fw = Forwarding::Backbone {
            backbone: &backbone,
            udg,
        };
        let engine = ShardedEngine::new(point.shards).with_threads(point.threads);
        // The parallel side of the shard speed-up.
        let parallel = ShardedEngine::new(2).with_threads(2);
        let mut last: Option<(TrafficOutcome, RunStats)> = None;
        self.drive(|tr, report| match tr {
            None => {
                last = None;
                let t = Instant::now();
                let (out, stats) = engine.run_with_stats(&fw, udg, &arrivals, &faults, &cfg);
                let secs = t.elapsed().as_secs_f64();
                let ok = check_ledger(report, &out);
                report.operation(ok);
                report.digest("traffic run", traffic_digest(&out, &stats).value());
                last = Some((out, stats));
                secs
            }
            Some((tracer, samples)) => {
                let ((out, stats), run_ms) = tracer.time("traffic.run", || {
                    engine.run_with_stats(&fw, udg, &arrivals, &faults, &cfg)
                });
                let stretch_ms = stretch_baseline(tracer, udg, &out);
                let ((parallel_out, _), parallel_ms) = tracer.time("traffic.run_2x2", || {
                    parallel.run_with_stats(&fw, udg, &arrivals, &faults, &cfg)
                });
                report.check(parallel_out == out, || {
                    "2 shards x 2 threads changed the traffic outcome".to_string()
                });
                samples.add("traffic.shard_speedup", run_ms / parallel_ms, "ratio");
                record_engine(samples, &stats, run_ms, stretch_ms, 0.0);
                run_ms / 1e3
            }
        });
        if self.run.trace && point.shards == 1 && !self.run.tiny {
            // Coverage: the replayed stretch baseline plus the engine
            // account for the run, so the replay may not exceed it.
            let run_ms = self.samples.median_of("traffic.run_ms").unwrap_or(0.0);
            let stretch_ms = self
                .samples
                .median_of("graph.stretch_baseline_ms")
                .unwrap_or(0.0);
            self.report.check(stretch_ms <= 1.1 * run_ms, || {
                format!("stretch baseline {stretch_ms:.1} ms exceeds the run's {run_ms:.1} ms")
            });
        }
        let Some((out, stats)) = last else { return };
        let r = &mut self.report;
        r.metric("delivery_ratio", out.report.delivery_ratio(), "ratio");
        r.metric("hop_stretch_avg", out.report.hop_stretch_avg, "ratio");
        record_traffic(r, &out, &stats);
        r.meta("packets_offered", out.report.offered.to_string());
        if point.shards == 1 {
            // The operating point sits under the saturation frontier.
            let ratio = out.report.delivery_ratio();
            r.check(ratio >= 0.99, || {
                format!("delivery {ratio:.4} below 0.99 at the steady operating point")
            });
        }
        if self.run.trace {
            stage_replay_once(&mut self.tracer, &mut self.samples, udg);
            let pairs: Vec<(usize, usize)> = arrivals
                .iter()
                .take(self.run.size(2_000, 200))
                .map(|a| (a.src, a.dst))
                .collect();
            route_sample(&mut self.tracer, &backbone, udg, &pairs).record(&mut self.samples, false);
        }
    }

    // ----------------------------------------------------------------
    // churn_repair
    // ----------------------------------------------------------------

    fn churn(&mut self) {
        let n = self.run.size(300, 60);
        let events = self.run.size(120, 15);
        let duration: u64 = self.run.size(1_200, 300);
        let rate = self.run.size(1.0, 0.3);
        let seed = self.run.seed;
        self.report.meta(
            "operating_point",
            format!(
                "{{\"n\": {n}, \"side\": {:.3}, \"radius\": {RADIUS}, \"events\": {events}, \"mix\": \"3 moves : 1 join : 1 leave\", \
                 \"ticks\": {duration}, \"rate_per_tick\": {rate}, \"repair\": \"local\", \"shards\": 1}}",
                side(n)
            ),
        );
        let (dep, plan, arrivals) = self.setup(|s| {
            let dep = deploy(seed, s, n);
            let plan = churn_plan(mix(seed, 4), n, side(n), events, duration);
            let t = Instant::now();
            let arrivals =
                Workload::uniform(rate, duration).generate(plan.universe(), mix(seed, 2));
            s.add(
                "traffic.workload_gen_ms",
                t.elapsed().as_secs_f64() * 1e3,
                "ms",
            );
            (dep, plan, arrivals)
        });
        let cfg = TrafficConfig {
            max_hops: (50 * plan.universe()) as u32,
            ..TrafficConfig::default()
        };
        let engine = ChurnEngine::new(1).with_threads(self.run.threads);
        let faults = FaultPlan::none();
        let serve = || {
            engine.run(
                &dep.points,
                RADIUS,
                &plan,
                &arrivals,
                &faults,
                &cfg,
                RepairStrategy::LocalRepair,
            )
        };
        let home = home_positions(&dep.points, &plan);
        let home_udg = UnitDiskBuilder::new(RADIUS).build(&home);
        let mut last = None;
        self.drive(|tr, report| match tr {
            None => {
                last = None;
                let t = Instant::now();
                let result = serve();
                let secs = t.elapsed().as_secs_f64();
                match result {
                    Ok(out) => {
                        let ok = check_ledger(report, &out.traffic);
                        let c = &out.churn;
                        let ok = report.check(
                            c.kept + c.local_repairs + c.full_rebuilds
                                == c.joins + c.leaves + c.moves,
                            || "a churn event was neither kept, repaired nor rebuilt".to_string(),
                        ) && ok;
                        report.operation(ok);
                        let mut d = traffic_digest(&out.traffic, &out.stats);
                        for v in [
                            c.joins,
                            c.leaves,
                            c.moves,
                            c.kept,
                            c.local_repairs,
                            c.full_rebuilds,
                        ] {
                            d.usize(v);
                        }
                        d.u64(c.repair_cost);
                        d.u64(c.staleness_ticks);
                        for w in &c.windows {
                            for v in [w.offered, w.delivered, w.dropped, w.refused] {
                                d.usize(v);
                            }
                        }
                        report.digest("churn run", d.value());
                        last = Some(out);
                    }
                    Err(e) => {
                        report.operation(false);
                        report.check(false, || format!("churn run failed: {e}"));
                    }
                }
                secs
            }
            Some((tracer, samples)) => {
                let (result, run_ms) = tracer.time("traffic.run", serve);
                let Ok(out) = result else { return run_ms / 1e3 };
                let stretch_ms = stretch_baseline(tracer, &home_udg, &out.traffic);
                let replay = maintenance_replay(tracer, samples, &home, &plan);
                let c = &out.churn;
                report.check(
                    (replay.kept, replay.local, replay.full)
                        == (c.kept, c.local_repairs, c.full_rebuilds),
                    || "replayed maintenance disagrees with the churn run".to_string(),
                );
                report.check(replay.verified, || {
                    "the repaired backbone fails verify()".to_string()
                });
                record_engine(samples, &out.stats, run_ms, stretch_ms, replay.total_ms);
                run_ms / 1e3
            }
        });
        let Some(out) = last else { return };
        let r = &mut self.report;
        r.metric(
            "delivery_ratio",
            out.traffic.report.delivery_ratio(),
            "ratio",
        );
        r.metric(
            "hop_stretch_avg",
            out.traffic.report.hop_stretch_avg,
            "ratio",
        );
        record_traffic(r, &out.traffic, &out.stats);
        let c = &out.churn;
        r.metric("maintenance.kept", c.kept as f64, "count");
        r.metric("maintenance.local", c.local_repairs as f64, "count");
        r.metric("maintenance.full", c.full_rebuilds as f64, "count");
        r.metric("maintenance.repair_cost", c.repair_cost as f64, "count");
        let min_window = c
            .windows
            .iter()
            .map(|w| w.delivery_ratio())
            .fold(1.0, f64::min);
        r.metric("maintenance.min_window_delivery", min_window, "ratio");
        r.meta("packets_offered", out.traffic.report.offered.to_string());
        if self.run.trace {
            // The initial deployment: joiners enter the run parked, with
            // no links.
            stage_replay_once(&mut self.tracer, &mut self.samples, &dep.udg);
        }
    }
}

/// Set-up repeats at least this often, and until it has taken
/// [`SETUP_BUDGET`] (or [`SETUP_MAX_REPS`] repetitions).
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// The time [`calibrate`] takes on the reference host speed.
const CALIBRATION_REFERENCE_S: f64 = 0.04;

/// A fixed, cache-resident integer kernel; returns its wall time.
///
/// On a shared host, speed can drift by tens of percent over minutes as
/// other work comes and goes. The kernel is timed before every
/// measured repetition, and reported times are scaled by
/// `CALIBRATION_REFERENCE_S / median(kernel time)`: seconds at a
/// reference host speed. The kernel is the benchmark's own code, so a
/// change to the program under test moves the scaled times exactly as it
/// moves the raw ones.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 1u64;
    let mut table = [0u64; 512];
    for i in 0..8_000_000u64 {
        x = mix(x, i);
        table[(x as usize) & 511] ^= x;
    }
    std::hint::black_box(table);
    t.elapsed().as_secs_f64()
}

/// Generates the connected deployment and times it as `graph.gen_ms`.
fn deploy(seed: u64, samples: &mut Samples, n: usize) -> Deployment {
    let t = Instant::now();
    let (points, udg, _) = connected_unit_disk(n, side(n), RADIUS, mix(seed, 1));
    samples.add("graph.gen_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    samples.add("graph.udg_edges", udg.edge_count() as f64, "count");
    Deployment { points, udg }
}

/// Unwraps a build, counting it as one operation.
fn accept(report: &mut Report, built: Result<Backbone, BackboneError>) -> Option<Backbone> {
    report.operation(built.is_ok());
    match built {
        Ok(b) => Some(b),
        Err(e) => {
            report.check(false, || format!("build failed: {e}"));
            None
        }
    }
}

/// Digest of a backbone's roles and `LDel(ICDS)` edges, plus per-node
/// message counts for a distributed build.
fn backbone_digest(b: &Backbone, per_node: Option<&[usize]>) -> u64 {
    let mut d = Digest::new();
    for r in b.roles() {
        d.u64(match r {
            Role::Dominator => 1,
            Role::Connector => 2,
            Role::Dominatee => 3,
        });
    }
    for (u, v) in b.ldel_icds().edges() {
        d.usize(u);
        d.usize(v);
    }
    d.usize(b.ldel_icds_prime().edge_count());
    d.usize(b.ldel_icds_full().triangles.len());
    for &m in per_node.unwrap_or(&[]) {
        d.usize(m);
    }
    d.value()
}

/// Structural invariants of the paper's backbone that hold at any size.
fn check_backbone(report: &mut Report, b: &Backbone, udg: &Graph) {
    report.check(is_plane_embedding(b.ldel_icds()), || {
        "LDel(ICDS) is not a plane embedding".to_string()
    });
    report.check(b.ldel_icds_prime().is_connected(), || {
        "LDel(ICDS') does not span the connected UDG".to_string()
    });
    let g = b.cds_graphs();
    let mut bad_domination = 0usize;
    for (v, doms) in g.dominators_of.iter().enumerate() {
        let dominator = g.roles[v] == Role::Dominator;
        let ok = if dominator {
            doms.is_empty()
        } else {
            !doms.is_empty()
                && doms.len() <= 5
                && doms
                    .iter()
                    .all(|&d| g.roles[d] == Role::Dominator && udg.has_edge(v, d))
        };
        bad_domination += usize::from(!ok);
    }
    report.check(bad_domination == 0, || {
        format!("{bad_domination} nodes break domination or Lemma 1 (<= 5 dominators)")
    });
    let adjacent_dominators = g
        .dominators
        .iter()
        .filter(|&&d| {
            udg.neighbors(d)
                .iter()
                .any(|&w| g.roles[w] == Role::Dominator)
        })
        .count();
    report.check(adjacent_dominators == 0, || {
        format!("{adjacent_dominators} dominators have a dominator neighbor")
    });
    let stray = b
        .ldel_icds()
        .edges()
        .filter(|&(u, v)| !udg.has_edge(u, v) || !g.is_backbone(u) || !g.is_backbone(v))
        .count();
    report.check(stray == 0, || {
        format!("{stray} LDel(ICDS) edges are not UDG links between backbone nodes")
    });
}

/// Replays the centralized pipeline stage by stage, each in its own span,
/// and records stage times, coverage and counts for a build of `build_ms`.
fn stage_replay(tracer: &mut Tracer, samples: &mut Samples, udg: &Graph, build_ms: f64) {
    let stages = tracer.begin("core.build_stages");
    let rank = ClusterRank::LowestId;
    let (clustering, cluster_ms) = tracer.time("cds.cluster", || cluster(udg, &rank));
    let (connectors, connectors_ms) =
        tracer.time("cds.connectors", || find_connectors(udg, &clustering));
    let (graphs, assemble_ms) =
        tracer.time("cds.assemble", || assemble(udg, &clustering, &connectors));
    let (raw, ldel1_ms) = tracer.time("topology.ldel1", || ldel1(&graphs.icds));
    let (ldel, planarize_ms) = tracer.time("topology.planarize", || planarize(&graphs.icds, raw));
    tracer.end(stages);
    samples.add(
        "cds.backbone_nodes",
        graphs.backbone_nodes().len() as f64,
        "count",
    );
    samples.add(
        "topology.ldel_edges",
        ldel.graph.edge_count() as f64,
        "count",
    );
    samples.add("topology.triangles", ldel.triangles.len() as f64, "count");
    let covered = cluster_ms + connectors_ms + assemble_ms + ldel1_ms + planarize_ms;
    samples.add("core.build_ms", build_ms, "ms");
    samples.add("cds.cluster_ms", cluster_ms, "ms");
    samples.add("cds.connectors_ms", connectors_ms, "ms");
    samples.add("cds.assemble_ms", assemble_ms, "ms");
    samples.add("topology.ldel1_ms", ldel1_ms, "ms");
    samples.add("topology.planarize_ms", planarize_ms, "ms");
    samples.add("core.build_other_ms", build_ms - covered, "ms");
    samples.add("core.build_coverage", covered / build_ms, "ratio");
}

/// [`stage_replay`] next to one fresh build of `udg`, for workloads that
/// build their backbone during set-up.
fn stage_replay_once(tracer: &mut Tracer, samples: &mut Samples, udg: &Graph) {
    let builder = BackboneBuilder::new(BackboneConfig::new(RADIUS));
    let (built, build_ms) = tracer.time("core.build", || builder.build(udg));
    drop(built);
    stage_replay(tracer, samples, udg, build_ms);
}

/// `per_source` seeded destinations for each of `sources` seeded sources.
fn sample_pairs(n: usize, sources: usize, per_source: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = SplitMix(mix(seed, 5));
    let mut pairs = Vec::with_capacity(sources * per_source);
    for _ in 0..sources {
        let src = rng.below(n);
        for _ in 0..per_source {
            let mut dst = rng.below(n);
            while dst == src {
                dst = rng.below(n);
            }
            pairs.push((src, dst));
        }
    }
    pairs
}

struct RouteSample {
    pairs: usize,
    delivered: usize,
    hop_stretch_avg: f64,
    hops_avg: f64,
    route_ms: f64,
    baseline_ms: f64,
}

impl RouteSample {
    /// Records the routing layer; `baseline` also records the distance
    /// oracle as the workload's stretch baseline.
    fn record(&self, samples: &mut Samples, baseline: bool) {
        samples.add(
            "core.route_us",
            self.route_ms * 1e3 / self.pairs.max(1) as f64,
            "us",
        );
        samples.add("core.route_hops_avg", self.hops_avg, "count");
        if baseline {
            samples.add("graph.stretch_baseline_ms", self.baseline_ms, "ms");
        }
    }
}

/// Routes every pair with `backbone_route`, then measures hop stretch
/// against UDG shortest hop paths from a `DistanceOracle`.
fn route_sample(
    tracer: &mut Tracer,
    b: &Backbone,
    udg: &Graph,
    pairs: &[(usize, usize)],
) -> RouteSample {
    let n = udg.node_count();
    let (routes, route_ms) = tracer.time("core.route", || {
        pairs
            .iter()
            .map(|&(s, d)| backbone_route(b, udg, s, d, n))
            .collect::<Vec<_>>()
    });
    let (best, baseline_ms) = tracer.time("graph.stretch_baseline", || {
        let mut oracle = DistanceOracle::new(udg);
        pairs
            .iter()
            .map(|&(s, d)| oracle.hops(s, d))
            .collect::<Vec<_>>()
    });
    let (mut delivered, mut hops, mut stretch) = (0usize, 0usize, 0.0);
    for (route, best) in routes.iter().zip(&best) {
        if route.delivered() {
            delivered += 1;
            hops += route.hops();
            stretch += route.hops() as f64 / f64::from(best.unwrap_or(1).max(1));
        }
    }
    RouteSample {
        pairs: pairs.len(),
        delivered,
        hop_stretch_avg: stretch / delivered.max(1) as f64,
        hops_avg: hops as f64 / delivered.max(1) as f64,
        route_ms,
        baseline_ms,
    }
}

/// The distance-oracle work the engine's aggregation does: hop and length
/// baselines for every delivered pair, in arrival order.
fn stretch_baseline(tracer: &mut Tracer, udg: &Graph, out: &TrafficOutcome) -> f64 {
    let ((), ms) = tracer.time("graph.stretch_baseline", || {
        let mut oracle = DistanceOracle::new(udg);
        for p in out
            .packets
            .iter()
            .filter(|p| p.delivered() && p.src != p.dst)
        {
            std::hint::black_box((oracle.hops(p.src, p.dst), oracle.length(p.src, p.dst)));
        }
    });
    ms
}

/// Packet conservation: every offered packet is delivered, dropped or
/// refused.
fn check_ledger(report: &mut Report, out: &TrafficOutcome) -> bool {
    let r = &out.report;
    report.check(
        r.offered == r.delivered + r.drops.total() + r.refused,
        || {
            format!(
                "ledger broken: offered {} != delivered {} + drops {} + refused {}",
                r.offered,
                r.delivered,
                r.drops.total(),
                r.refused
            )
        },
    )
}

/// Digest of a traffic report and the shard-independent run statistics.
fn traffic_digest(out: &TrafficOutcome, stats: &RunStats) -> Digest {
    let r = &out.report;
    let d_ = &r.drops;
    let mut d = Digest::new();
    for v in [
        r.offered,
        r.delivered,
        d_.stuck,
        d_.queue_full,
        d_.link_loss,
        d_.node_crash,
        d_.hop_limit,
        d_.retry_shed,
        d_.node_departed,
        r.refused,
        r.retransmissions,
        r.duplicates_suppressed,
        r.queue_peak_max,
    ] {
        d.usize(v);
    }
    for v in [
        r.latency_p50,
        r.latency_p99,
        r.latency_max,
        r.duration,
        stats.events,
        stats.rounds,
    ] {
        d.u64(v);
    }
    for v in [
        r.latency_mean,
        r.hop_stretch_avg,
        r.hop_stretch_max,
        r.length_stretch_avg,
        r.length_stretch_max,
        r.queue_peak_mean,
    ] {
        d.f64(v);
    }
    d
}

/// Per-layer engine timings of one traced repetition.
fn record_engine(
    samples: &mut Samples,
    stats: &RunStats,
    run_ms: f64,
    stretch_ms: f64,
    maint_ms: f64,
) {
    let engine_ms = run_ms - stretch_ms - maint_ms;
    samples.add("graph.stretch_baseline_ms", stretch_ms, "ms");
    samples.add("traffic.run_ms", run_ms, "ms");
    samples.add("traffic.engine_ms", engine_ms, "ms");
    samples.add(
        "traffic.events_per_s",
        stats.events as f64 / (engine_ms / 1e3),
        "1/s",
    );
}

/// The deterministic traffic-layer counts of a run.
fn record_traffic(r: &mut Report, out: &TrafficOutcome, stats: &RunStats) {
    let rep = &out.report;
    let d = &rep.drops;
    for (cause, count) in [
        ("stuck", d.stuck),
        ("queue_full", d.queue_full),
        ("link_loss", d.link_loss),
        ("node_crash", d.node_crash),
        ("hop_limit", d.hop_limit),
        ("retry_shed", d.retry_shed),
        ("node_departed", d.node_departed),
    ] {
        r.metric(&format!("traffic.drops.{cause}"), count as f64, "count");
    }
    r.metric("traffic.refused", rep.refused as f64, "count");
    r.metric(
        "traffic.retransmissions",
        rep.retransmissions as f64,
        "count",
    );
    r.metric("traffic.queue_peak_max", rep.queue_peak_max as f64, "count");
    r.metric("traffic.queue_peak_mean", rep.queue_peak_mean, "count");
    r.metric("traffic.latency_p50_ticks", rep.latency_p50 as f64, "ticks");
    r.metric("traffic.latency_p99_ticks", rep.latency_p99 as f64, "ticks");
    r.metric(
        "traffic.admitted_delivery_ratio",
        rep.admitted_delivery_ratio(),
        "ratio",
    );
    let (mut useful, mut sent) = (0u64, 0u64);
    for p in &out.packets {
        let tx = u64::from(p.hops) + u64::from(p.retries);
        sent += tx;
        if p.outcome == PacketOutcome::Delivered {
            useful += u64::from(p.hops);
        }
    }
    r.metric(
        "traffic.tx_useful_ratio",
        useful as f64 / sent.max(1) as f64,
        "ratio",
    );
    r.metric("traffic.events", stats.events as f64, "count");
    r.metric("traffic.rounds", stats.rounds as f64, "count");
    r.metric(
        "traffic.boundary_messages",
        stats.boundary_messages as f64,
        "count",
    );
    r.metric(
        "traffic.idle_shard_rounds",
        stats.idle_shard_rounds as f64,
        "count",
    );
    r.metric("traffic.imbalance", stats.imbalance(), "ratio");
}

/// Event kinds of a churn plan, repeated in this proportion: three moves
/// to each join and leave.
const CHURN_MIX: [ChurnKind; 5] = [
    ChurnKind::Move,
    ChurnKind::Move,
    ChurnKind::Move,
    ChurnKind::Join,
    ChurnKind::Leave,
];

#[derive(Debug, Clone, Copy)]
enum ChurnKind {
    Join,
    Leave,
    Move,
}

/// A churn schedule over `n` initial nodes in a `side x side` field with
/// exactly the [`CHURN_MIX`] proportions, in a seeded order, one event
/// every `horizon / events` ticks.
///
/// Every move pays a full `verify`, while a join or leave pays one only
/// when it forces a repair. Fixing the mix, rather than drawing each
/// event's kind, keeps the maintenance work a seed asks for from swinging
/// with the draw; which node leaves or moves, and where joins and moves
/// land, stay random.
fn churn_plan(seed: u64, n: usize, side: f64, events: usize, horizon: u64) -> ChurnPlan {
    let mut rng = SplitMix(seed);
    let mut kinds: Vec<ChurnKind> = (0..events)
        .map(|k| CHURN_MIX[k % CHURN_MIX.len()])
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    let mut present: Vec<usize> = (0..n).collect();
    let mut next_join = n;
    let mut out = Vec::with_capacity(events);
    for (k, kind) in kinds.into_iter().enumerate() {
        let tick = 1 + k as u64 * horizon / events as u64;
        let event = match kind {
            ChurnKind::Join => {
                present.push(next_join);
                next_join += 1;
                ChurnEvent::Join {
                    node: next_join - 1,
                    position: rng.point(side),
                }
            }
            ChurnKind::Leave if present.len() > 2 => ChurnEvent::Leave {
                node: present.swap_remove(rng.below(present.len())),
            },
            _ => ChurnEvent::Move {
                node: present[rng.below(present.len())],
                to: rng.point(side),
            },
        };
        out.push(TimedChurn { tick, event });
    }
    ChurnPlan::new(n, out)
}

/// A SplitMix64 stream for the benchmark's own input choices.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = mix(self.0, 7);
        (self.0 % bound as u64) as usize
    }

    fn point(&mut self, side: f64) -> Point {
        let mut unit = || self.below(1 << 30) as f64 / f64::from(1u32 << 30);
        Point::new(unit() * side, unit() * side)
    }
}

/// Every node of a churn universe at the position it first powers up at.
fn home_positions(initial: &[Point], plan: &ChurnPlan) -> Vec<Point> {
    let mut home = initial.to_vec();
    for v in initial.len()..plan.universe() {
        home.push(
            plan.join_position(v)
                .expect("every joiner carries a position"),
        );
    }
    home
}

struct Replay {
    kept: usize,
    local: usize,
    full: usize,
    total_ms: f64,
    verified: bool,
}

/// Replays the churn plan against a `MobileBackbone` exactly as the churn
/// engine applies it, timing each maintenance call, then verifies the
/// repaired backbone once.
fn maintenance_replay(
    tracer: &mut Tracer,
    samples: &mut Samples,
    home: &[Point],
    plan: &ChurnPlan,
) -> Replay {
    let joiners: BTreeSet<usize> = (plan.initial()..home.len()).collect();
    let root = tracer.begin("maintenance");
    let (mobile, init_ms) = tracer.time("maintenance.init", || {
        MobileBackbone::with_departed(home.to_vec(), BackboneConfig::new(RADIUS), joiners)
    });
    let mut replay = Replay {
        kept: 0,
        local: 0,
        full: 0,
        total_ms: init_ms,
        verified: false,
    };
    let Ok(mut mobile) = mobile else {
        tracer.end(root);
        return replay;
    };
    let mut per_kind: [(&str, Vec<f64>); 3] = [
        ("leave", Vec::new()),
        ("join", Vec::new()),
        ("move", Vec::new()),
    ];
    let mut touched = Vec::new();
    for timed in plan.events() {
        let (kind, (result, ms)) = match timed.event {
            ChurnEvent::Leave { node } => (
                0,
                tracer.time("maintenance.leave", || mobile.remove_node(node)),
            ),
            ChurnEvent::Join { node, position } => (
                1,
                tracer.time("maintenance.join", || mobile.rejoin_node(node, position)),
            ),
            ChurnEvent::Move { node, to } => {
                let mut pts = mobile.points().to_vec();
                pts[node] = to;
                (
                    2,
                    tracer.time("maintenance.move", || mobile.update_positions(pts)),
                )
            }
        };
        per_kind[kind].1.push(ms);
        replay.total_ms += ms;
        match result.map(|r| r.action) {
            Ok(MaintenanceAction::Kept) => replay.kept += 1,
            Ok(MaintenanceAction::LocalRepair { touched: t }) => {
                replay.local += 1;
                touched.push(t.len() as f64);
            }
            Ok(MaintenanceAction::FullRebuild { .. }) => replay.full += 1,
            Err(_) => {}
        }
    }
    let (report, verify_ms) = tracer.time("core.verify", || {
        verify(mobile.backbone(), mobile.udg(), RADIUS)
    });
    tracer.end(root);
    replay.verified = report.all_ok();
    for (kind, times) in &per_kind {
        if !times.is_empty() {
            samples.add(
                format!("maintenance.{kind}_ms_p50"),
                quantile(times, 0.5),
                "ms",
            );
            samples.add(
                format!("maintenance.{kind}_ms_p90"),
                quantile(times, 0.9),
                "ms",
            );
        }
    }
    if !touched.is_empty() {
        samples.add(
            "maintenance.touched_avg",
            touched.iter().sum::<f64>() / touched.len() as f64,
            "count",
        );
    }
    samples.add("maintenance.total_ms", replay.total_ms, "ms");
    samples.add("core.verify_ms", verify_ms, "ms");
    replay
}

/// A traffic workload's operating point.
struct TrafficPoint {
    n: usize,
    rate: f64,
    duration: u64,
    loss: f64,
    queue: usize,
    overload: bool,
    admission: AdmissionPolicy,
    shards: usize,
    threads: usize,
}

impl TrafficPoint {
    /// Uniform load under the saturation frontier, one shard.
    fn steady(run: &Run) -> TrafficPoint {
        TrafficPoint {
            n: run.size(2_000, 150),
            rate: run.size(8.0, 1.0),
            duration: run.size(2_000, 300),
            loss: 0.05,
            queue: 64,
            overload: false,
            admission: AdmissionPolicy::Open,
            shards: 1,
            threads: 1,
        }
    }

    /// Uniform load far above the frontier under overload control, two
    /// shards driven by `run.threads` workers.
    fn saturated(run: &Run) -> TrafficPoint {
        TrafficPoint {
            n: run.size(1_000, 120),
            rate: run.size(40.0, 6.0),
            duration: run.size(8_000, 300),
            loss: 0.05,
            queue: 32,
            overload: true,
            admission: AdmissionPolicy::TokenBucket {
                ticks_per_token: 20,
                burst: 4,
            },
            shards: 2,
            threads: run.threads,
        }
    }

    fn config(&self) -> TrafficConfig {
        TrafficConfig {
            queue_capacity: self.queue,
            max_hops: (50 * self.n) as u32,
            reliability: Some(ReliabilityConfig::default()),
            overload: self
                .overload
                .then(|| OverloadConfig::for_capacity(self.queue)),
            admission: self.admission,
            shards: self.shards,
            ..TrafficConfig::default()
        }
    }

    fn describe(&self) -> String {
        let admission = match self.admission {
            AdmissionPolicy::Open => "\"open\"".to_string(),
            AdmissionPolicy::TokenBucket {
                ticks_per_token,
                burst,
            } => format!("{{\"ticks_per_token\": {ticks_per_token}, \"burst\": {burst}}}"),
        };
        format!(
            "{{\"n\": {}, \"side\": {:.3}, \"radius\": {RADIUS}, \"workload\": \"uniform\", \
             \"rate_per_tick\": {}, \"ticks\": {}, \"loss\": {}, \"retransmit\": \"3 retries, ack timeout 3\", \
             \"queue\": {}, \"overload\": {}, \"admission\": {admission}, \"shards\": {}, \"threads\": {}, \
             \"routing\": \"backbone\", \"loop\": \"open\"}}",
            self.n,
            side(self.n),
            self.rate,
            self.duration,
            self.loss,
            self.queue,
            self.overload,
            self.shards,
            self.threads
        )
    }
}
