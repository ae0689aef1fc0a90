//! Mobility maintenance: the paper's claim that the *logical* backbone
//! survives node movement until a used link breaks.
//!
//! Nodes drift with a random-waypoint-like jitter and a `MobileBackbone`
//! absorbs each position update. While every used link holds, the
//! logical topology is kept verbatim (the paper's point: no update
//! needed even though positions changed). When a link breaks, the
//! maintainer re-elects dominators and connectors only inside the 2-hop
//! neighborhood of the break, falling back to a full reconstruction only
//! when the localized repair fails verification — and reports which path
//! it took.
//!
//! ```text
//! cargo run --release --example mobility
//! ```

use geospan::core::maintenance::{MaintenanceAction, MobileBackbone};
use geospan::core::BackboneConfig;
use geospan::graph::gen::{connected_unit_disk, UnitDiskBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RADIUS: f64 = 60.0;
const SIDE: f64 = 200.0;
const STEPS: usize = 400;
const SPEED: f64 = 0.25; // max displacement per step, per axis

fn main() {
    let (mut pts, _udg, _seed) = connected_unit_disk(80, SIDE, RADIUS, 23);
    let mut mobile =
        MobileBackbone::new(pts.clone(), BackboneConfig::new(RADIUS)).expect("valid UDG");
    let mut rng = StdRng::seed_from_u64(99);

    let (mut kept, mut repairs, mut rebuilds) = (0usize, 0usize, 0usize);
    let mut repaired_nodes = 0usize;
    for step in 0..STEPS {
        // Drift every node a little, staying inside the field.
        for p in &mut pts {
            p.x = (p.x + rng.random_range(-SPEED..SPEED)).clamp(0.0, SIDE);
            p.y = (p.y + rng.random_range(-SPEED..SPEED)).clamp(0.0, SIDE);
        }
        if !UnitDiskBuilder::new(RADIUS).build(&pts).is_connected() {
            println!("step {step}: field disconnected, halting the demo");
            break;
        }
        let report = mobile.update_positions(pts.clone()).expect("valid UDG");
        match report.action {
            MaintenanceAction::Kept => kept += 1,
            MaintenanceAction::LocalRepair { touched } => {
                repairs += 1;
                repaired_nodes += touched.len();
            }
            MaintenanceAction::FullRebuild { reason } => {
                rebuilds += 1;
                println!("step {step}: full rebuild ({reason})");
            }
        }
    }

    println!("{STEPS} movement steps at max speed {SPEED} per axis:");
    println!("  backbone kept verbatim for {kept} steps");
    println!(
        "  local repairs: {} (avg {:.1} nodes touched of {}), full rebuilds: {}",
        repairs,
        repaired_nodes as f64 / repairs.max(1) as f64,
        mobile.points().len(),
        rebuilds
    );
    println!(
        "  (slow movement amortizes maintenance: ~{:.1} steps per repair)",
        kept.max(1) as f64 / (repairs + rebuilds).max(1) as f64
    );
}
