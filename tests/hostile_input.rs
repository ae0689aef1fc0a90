//! Hostile point sets — duplicates, non-finite coordinates, exact
//! lattices — through the builder, `MobileBackbone` maintenance and the
//! CLI's CSV path: an error or a valid backbone, never a panic.

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
fn cli_build(pts: &[Point], test: &str) -> std::process::Output {
    let dir = std::env::temp_dir().join(format!("geospan-hostile-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let nodes = dir.join("nodes.csv");
    let csv: String = pts.iter().map(|p| format!("{},{}\n", p.x, p.y)).collect();
    std::fs::write(&nodes, format!("x,y\n{csv}")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_geospan-cli"))
        .args(["build", "--nodes"])
        .arg(&nodes)
        .args(["--radius", &RADIUS.to_string()])
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
    /// A newcomer arrives on node `i`'s position.
    AddOntoOccupied,
}

fn hostile_update() -> impl Strategy<Value = HostileUpdate> {
    prop_oneof![
        damage().prop_map(HostileUpdate::Move),
        Just(HostileUpdate::RejoinOntoOccupied),
        Just(HostileUpdate::AddOntoOccupied),
    ]
}

/// The observable state a rejected operation must leave untouched.
fn snapshot(m: &MobileBackbone) -> (Vec<Point>, Vec<(usize, usize)>, usize) {
    (
        m.points().to_vec(),
        m.backbone().ldel_icds_prime().edges().collect(),
        m.update_count(),
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
            HostileUpdate::AddOntoOccupied => {
                let before = snapshot(&mobile);
                let r = mobile.add_node(pts[i]).map(|_| ());
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
        let out = cli_build(&pts, "spoiled");
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
    let out = cli_build(&lattice(6, 5, RADIUS), "lattice");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("planar:          yes"));
}
