//! Hostile point sets — duplicates, non-finite coordinates, exact
//! lattices — through the builder, `MobileBackbone` maintenance and the
//! CLI's CSV path, bad node indices through maintenance, and
//! out-of-range CLI parameters: an error or a valid backbone, never a
//! panic or a hang.

use std::collections::BTreeSet;
use std::process::Command;

use geospan::core::maintenance::MobileBackbone;
use geospan::core::{guarantees_hold, BackboneBuilder, BackboneConfig, BackboneError};
use geospan::geometry::Point;
use geospan::graph::gen::{uniform_points, UnitDiskBuilder};
use geospan::graph::Graph;
use proptest::prelude::*;

const RADIUS: f64 = 40.0;

/// How a clean deployment is spoiled.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Node `j` is moved onto node `i` (`-0.0` where `i` has `0.0`, when
    /// `signed_zero` is set).
    Duplicate { signed_zero: bool },
    /// One coordinate of one node becomes this non-finite value.
    NonFinite(f64),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<bool>().prop_map(|signed_zero| Damage::Duplicate { signed_zero }),
        Just(Damage::NonFinite(f64::NAN)),
        Just(Damage::NonFinite(f64::INFINITY)),
        Just(Damage::NonFinite(f64::NEG_INFINITY)),
    ]
}

/// Applies `damage` to `pts` at the nodes picked by `i` and `j`.
fn spoil(pts: &mut [Point], damage: Damage, i: usize, j: usize) {
    let n = pts.len();
    let (i, j) = (i % n, j % n);
    match damage {
        Damage::Duplicate { signed_zero } => {
            let j = if i == j { (j + 1) % n } else { j };
            if signed_zero {
                pts[i].x = 0.0;
                pts[j] = Point::new(-0.0, pts[i].y);
            } else {
                pts[j] = pts[i];
            }
        }
        Damage::NonFinite(c) => {
            if j % 2 == 0 {
                pts[i].x = c;
            } else {
                pts[i].y = c;
            }
        }
    }
}

/// An exact `nx × ny` lattice: every unit cell is a co-circular quad.
fn lattice(nx: usize, ny: usize, spacing: f64) -> Vec<Point> {
    (0..nx)
        .flat_map(|i| (0..ny).map(move |j| Point::new(i as f64 * spacing, j as f64 * spacing)))
        .collect()
}

fn build(
    pts: &[Point],
    distributed: bool,
) -> Result<(Graph, geospan::core::Backbone), BackboneError> {
    let udg = UnitDiskBuilder::new(RADIUS).build(pts);
    let mut config = BackboneConfig::new(RADIUS);
    if distributed {
        config = config.distributed();
    }
    let b = BackboneBuilder::new(config).build(&udg)?;
    Ok((udg, b))
}

/// Runs `geospan-cli build` on `pts` written as CSV.
fn cli_build(pts: &[Point], radius: f64, test: &str) -> std::process::Output {
    let dir = std::env::temp_dir().join(format!("geospan-hostile-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let nodes = dir.join("nodes.csv");
    let csv: String = pts.iter().map(|p| format!("{},{}\n", p.x, p.y)).collect();
    std::fs::write(&nodes, format!("x,y\n{csv}")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_geospan-cli"))
        .args(["build", "--nodes"])
        .arg(&nodes)
        .args(["--radius", &radius.to_string()])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spoiled_point_sets_are_rejected_by_the_builder(
        n in 2usize..60,
        seed in any::<u64>(),
        damage in damage(),
        (i, j) in (any::<usize>(), any::<usize>()),
        distributed in any::<bool>(),
    ) {
        let mut pts = uniform_points(n, 150.0, seed);
        spoil(&mut pts, damage, i, j);
        let err = build(&pts, distributed).map(|_| ()).unwrap_err();
        prop_assert!(
            matches!(err, BackboneError::InvalidInput { .. }),
            "{damage:?}: {err}"
        );
    }

    #[test]
    fn exact_lattices_build_valid_backbones(
        nx in 1usize..9,
        ny in 1usize..9,
        spacing in prop_oneof![Just(RADIUS), Just(RADIUS / 2.0), Just(RADIUS / 2f64.sqrt()), 5.0f64..45.0],
        distributed in any::<bool>(),
    ) {
        let (udg, b) = build(&lattice(nx, ny, spacing), distributed).unwrap();
        prop_assert!(guarantees_hold(&b, &udg));
    }
}

/// A maintenance operation that lands a node on a hostile position.
#[derive(Debug, Clone, Copy)]
enum HostileUpdate {
    /// `update_positions` with node `j` moved onto node `i`, or one
    /// coordinate of node `i` made non-finite (per [`Damage`]).
    Move(Damage),
    /// Node `i` departs, then rejoins onto node `j`'s position.
    RejoinOntoOccupied,
    /// Node `i` departs, then departs again.
    RemoveDeparted,
    /// Live node `i` rejoins at node `j`'s position.
    RejoinLive,
    /// Node `n + i`, past the last node, departs or rejoins.
    OutOfBounds {
        /// Rejoin rather than depart.
        rejoin: bool,
    },
}

fn hostile_update() -> impl Strategy<Value = HostileUpdate> {
    prop_oneof![
        damage().prop_map(HostileUpdate::Move),
        Just(HostileUpdate::RejoinOntoOccupied),
        Just(HostileUpdate::RemoveDeparted),
        Just(HostileUpdate::RejoinLive),
        any::<bool>().prop_map(|rejoin| HostileUpdate::OutOfBounds { rejoin }),
    ]
}

/// The observable state a rejected operation must leave untouched.
fn snapshot(m: &MobileBackbone) -> (Vec<Point>, Vec<(usize, usize)>, BTreeSet<usize>) {
    (
        m.points().to_vec(),
        m.backbone().ldel_icds_prime().edges().collect(),
        m.departed().clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hostile_maintenance_is_rejected_and_leaves_the_backbone_unchanged(
        n in 3usize..50,
        seed in any::<u64>(),
        update in hostile_update(),
        (i, j) in (any::<usize>(), any::<usize>()),
    ) {
        let pts = uniform_points(n, 150.0, seed);
        let mut mobile = MobileBackbone::new(pts.clone(), BackboneConfig::new(RADIUS)).unwrap();
        let (i, j) = (i % n, j % n);
        let j = if i == j { (j + 1) % n } else { j };
        let result = match update {
            HostileUpdate::Move(damage) => {
                let before = snapshot(&mobile);
                let mut moved = pts;
                spoil(&mut moved, damage, i, j);
                let r = mobile.update_positions(moved).map(|_| ());
                prop_assert_eq!(snapshot(&mobile), before);
                r
            }
            HostileUpdate::RejoinOntoOccupied => {
                mobile.remove_node(i).unwrap();
                let before = snapshot(&mobile);
                let r = mobile.rejoin_node(i, pts[j]).map(|_| ());
                prop_assert_eq!(snapshot(&mobile), before);
                r
            }
            HostileUpdate::RemoveDeparted => {
                mobile.remove_node(i).unwrap();
                let before = snapshot(&mobile);
                let r = mobile.remove_node(i).map(|_| ());
                prop_assert_eq!(snapshot(&mobile), before);
                r
            }
            HostileUpdate::RejoinLive => {
                let before = snapshot(&mobile);
                let r = mobile.rejoin_node(i, pts[j]).map(|_| ());
                prop_assert_eq!(snapshot(&mobile), before);
                r
            }
            HostileUpdate::OutOfBounds { rejoin } => {
                let before = snapshot(&mobile);
                let r = if rejoin {
                    mobile.rejoin_node(n + i, pts[j]).map(|_| ())
                } else {
                    mobile.remove_node(n + i).map(|_| ())
                };
                prop_assert_eq!(snapshot(&mobile), before);
                r
            }
        };
        let err = result.unwrap_err();
        prop_assert!(
            matches!(err, BackboneError::InvalidInput { .. }),
            "{update:?}: {err}"
        );
    }
}

#[test]
fn departed_index_out_of_bounds_is_an_error() {
    let n = 20;
    for d in [n, n + 1, usize::MAX] {
        let departed = BTreeSet::from([0, d]);
        let err = MobileBackbone::with_departed(
            uniform_points(n, 150.0, 5),
            BackboneConfig::new(RADIUS),
            departed,
        )
        .unwrap_err();
        assert!(
            matches!(&err, BackboneError::InvalidInput { reason }
                if reason.contains(&format!("departed node {d} out of bounds"))),
            "{err}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cli_reports_hostile_csv_as_an_error(
        n in 2usize..40,
        seed in any::<u64>(),
        damage in damage(),
        (i, j) in (any::<usize>(), any::<usize>()),
    ) {
        let mut pts = uniform_points(n, 150.0, seed);
        spoil(&mut pts, damage, i, j);
        let out = cli_build(&pts, RADIUS, "spoiled");
        let stderr = String::from_utf8_lossy(&out.stderr);
        prop_assert!(!out.status.success(), "{damage:?} accepted");
        prop_assert!(!stderr.contains("panicked"), "{damage:?}: {stderr}");
        prop_assert!(
            stderr.contains("non-finite coordinate") || stderr.contains("share position"),
            "{damage:?}: {stderr}"
        );
    }
}

#[test]
fn cli_builds_an_exact_lattice() {
    let out = cli_build(&lattice(6, 5, RADIUS), RADIUS, "lattice");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("planar:          yes"));
}

/// Coordinates so large that squared distances overflow used to slip
/// through the unit disk test (every pair admitted, then rejected as an
/// infinitely long edge); they are now refused before the unit disk
/// graph is built, naming a node. A few thousand nodes keep a quadratic
/// all-pairs graph from passing unnoticed.
#[test]
fn cli_rejects_coordinates_too_large_to_square() {
    let scale = 1e300;
    let pts: Vec<Point> = uniform_points(3_000, 150.0, 3)
        .into_iter()
        .map(|p| Point::new(p.x * scale, p.y * scale))
        .collect();
    let out = cli_build(&pts, RADIUS * scale, "huge");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("invalid input: node ")
            && stderr.contains("squared distances can overflow"),
        "{stderr}"
    );
}

/// A radius whose square overflows is refused with a message, not a
/// panic in the unit disk builder.
#[test]
fn cli_rejects_radius_with_infinite_square() {
    let out = cli_build(&uniform_points(40, 150.0, 3), 1e200, "radius");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("finite square"), "{stderr}");
}

/// Out-of-range parameters exit 1 with a message naming the problem:
/// none panics in the generator, the fault plan or the workload, and
/// none hangs the generator.
#[test]
fn cli_rejects_out_of_range_parameters() {
    let dir = std::env::temp_dir().join(format!("geospan-hostile-{}-params", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let nodes = dir.join("nodes.csv");
    let csv: String = uniform_points(60, 150.0, 1)
        .iter()
        .map(|p| format!("{},{}\n", p.x, p.y))
        .collect();
    std::fs::write(&nodes, csv).unwrap();
    let traffic = format!(
        "traffic --nodes {} --radius 45 --duration 50",
        nodes.display()
    );
    for (args, msg) in [
        (format!("{traffic} --loss 2"), "loss must be in [0, 1]"),
        (format!("{traffic} --loss NaN"), "loss must be in [0, 1]"),
        (
            format!("{traffic} --workload hotspot --bias 3"),
            "bias must be in [0, 1]",
        ),
        (
            format!("{traffic} --rate 1e300"),
            "rate × duration must be at most",
        ),
        (
            format!("{traffic} --churn-rate 1e12"),
            "churn-rate × duration must be at most",
        ),
        (
            format!("{traffic} --churn-rate 0.01 --side -5"),
            "side must be positive and finite",
        ),
        (
            "traffic --n 5 --side -1 --radius 5".into(),
            "side must be positive and finite",
        ),
        (
            "generate --n 10 --side 0 --radius 5".into(),
            "side must be positive and finite",
        ),
        (
            "generate --n 10 --side inf --radius 5".into(),
            "side must be positive and finite",
        ),
        (
            "generate --n 10 --side 10 --radius 0.001".into(),
            "no connected deployment found",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_geospan-cli"))
            .args(args.split_whitespace())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
        assert!(stderr.contains(msg), "{args}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
