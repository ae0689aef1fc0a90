//! The centralized `LDel(ICDS)` at the `build_central` benchmark's size:
//! n = 2·10⁵ at Table I density (side `200 · √(n / 100)`, radius 60),
//! seeds 1 and 7919.
//!
//! A faster LDel¹ may only make the build quicker, never change what it
//! builds: the digest covers the `LDel¹` triangles and the planarized
//! structure's triangles, Gabriel edges and `PLDel` edges, recorded
//! before the per-node Delaunay star replaced whole local
//! triangulations. It also prints how many nodes fell back from the
//! star walk to Bowyer–Watson on an exact tie (none is expected on a
//! uniform deployment; every fallback is output-neutral).
//!
//! `#[ignore]`d (about 10 s in release); the bench-smoke CI job runs it
//! with `cargo test --release -p geospan-core --test ldel_scale --
//! --ignored`.

use geospan_core::{BackboneBuilder, BackboneConfig};
use geospan_geometry::{delaunay_star, Point};
use geospan_graph::gen::connected_unit_disk;
use geospan_graph::Graph;
use geospan_topology::ldel::ldel1;

/// 64-bit FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    const NEW: Fnv = Fnv(0xcbf2_9ce4_8422_2325);

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A run of words, then its length.
    fn words(&mut self, ws: impl IntoIterator<Item = usize>) {
        let len = ws.into_iter().inspect(|&w| self.word(w as u64)).count();
        self.word(len as u64);
    }
}

/// Nodes of `g` with degree ≥ 2 whose Delaunay star walk meets an exact
/// tie.
fn star_ties(g: &Graph) -> usize {
    let (mut pts, mut star) = (Vec::<Point>::new(), Vec::new());
    (0..g.node_count())
        .filter(|&u| {
            pts.clear();
            pts.push(g.position(u));
            pts.extend(g.neighbors(u).iter().map(|&v| g.position(v)));
            pts.len() >= 3 && delaunay_star(&pts, 0, &mut star).is_err()
        })
        .count()
}

#[test]
#[ignore = "benchmark-scale build; run with --release -- --ignored"]
fn planarized_icds_at_benchmark_scale() {
    let (n, radius) = (200_000, 60.0);
    let side = 200.0 * (n as f64 / 100.0).sqrt();
    let mut got = Vec::new();
    for seed in [1u64, 7919] {
        let (_pts, udg, _s) = connected_unit_disk(n, side, radius, seed);
        let b = BackboneBuilder::new(BackboneConfig::new(radius))
            .build(&udg)
            .expect("centralized build succeeds");
        let icds = &b.cds_graphs().icds;
        let raw = ldel1(icds);
        let pl = b.ldel_icds_full();
        let mut h = Fnv::NEW;
        h.words(raw.triangles.iter().flatten().copied());
        h.words(pl.triangles.iter().flatten().copied());
        h.words(pl.gabriel_edges.iter().flat_map(|&(u, v)| [u, v]));
        h.words(pl.graph.edges().flat_map(|(u, v)| [u, v]));
        println!(
            "seed {seed}: {} LDel¹ triangles, {} kept, {} Gabriel edges, {} PLDel edges, \
             {} star ties, digest {}",
            raw.triangles.len(),
            pl.triangles.len(),
            pl.gabriel_edges.len(),
            pl.graph.edge_count(),
            star_ties(icds),
            h.0
        );
        got.push((seed, h.0));
    }
    assert_eq!(
        got,
        [(1, 16474247239611310966), (7919, 14076456569463654982)],
        "planarized LDel(ICDS) changed"
    );
}
