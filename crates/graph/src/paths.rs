//! Shortest paths: BFS for hop counts, Dijkstra for Euclidean lengths.
//!
//! The paper's spanner definitions compare, for every node pair, the
//! shortest *hop* path and the shortest *length* path in a topology
//! against the same quantities in the full unit disk graph. These are the
//! single-source primitives behind those comparisons, and the batched
//! [`pair_distances`] and [`DistanceOracle`] that answer many pairs with
//! one 64-source BFS per block of nearby sources.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use crate::{Graph, Point};

/// Hop distance from `src` to every node (`None` for unreachable nodes).
///
/// # Panics
/// Panics if `src` is out of bounds.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
/// use geospan_graph::paths::bfs_hops;
/// let g = Graph::with_edges(
///     vec![Point::new(0.,0.), Point::new(1.,0.), Point::new(2.,0.)],
///     [(0,1),(1,2)]);
/// let d = bfs_hops(&g, 0);
/// assert_eq!(d, vec![Some(0), Some(1), Some(2)]);
/// ```
pub fn bfs_hops(g: &Graph, src: usize) -> Vec<Option<u32>> {
    hop_row(g, src).into_iter().map(hop).collect()
}

/// A hop row's entry for a node the search did not reach. A hop count
/// is below the node count, so no real one reaches it.
const UNREACHED: u32 = u32::MAX;

/// The one BFS: hop distances from `src`, [`UNREACHED`] where none
/// exists. Half the size of a `Vec<Option<u32>>` row, which matters to
/// the rows [`DistanceOracle`] keeps.
///
/// # Panics
/// Panics if `src` is out of bounds.
fn hop_row(g: &Graph, src: usize) -> Vec<u32> {
    let n = g.node_count();
    assert!(src < n, "source {src} out of bounds for {n} nodes");
    let mut dist = vec![UNREACHED; n];
    dist[src] = 0;
    let mut q = VecDeque::with_capacity(n);
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u];
        for &v in g.neighbors(u) {
            if dist[v] == UNREACHED {
                dist[v] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// A [`hop_row`] entry as a hop count.
#[inline]
fn hop(h: u32) -> Option<u32> {
    (h != UNREACHED).then_some(h)
}

/// Sources one [`multi_bfs`] pass carries: one bit of a `u64` each.
const BATCH: usize = 64;

/// One BFS from up to [`BATCH`] sources at once (Then et al., "The More
/// the Merrier", VLDB 2014). Source `i` is bit `i` of a word per node:
/// `seen` holds the sources that reached the node, `visit` those that
/// reached it at the current level and push on from it, `next` those
/// arriving at the next level. Only the frontier's rows are scanned, so a
/// pass costs one traversal however many of its sources share the work.
///
/// Calls `reach(level, v, bits)` once for every level at which new
/// sources reach `v`, with their bits; a source reaches itself at level
/// 0. Repeated sources share a node and report their bits together.
fn multi_bfs(g: &Graph, sources: &[usize], mut reach: impl FnMut(u32, usize, u64)) {
    debug_assert!(sources.len() <= BATCH);
    let n = g.node_count();
    let (offsets, targets) = g.csr();
    let mut seen = vec![0u64; n];
    let mut visit = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut frontier = Vec::new();
    for (i, &s) in sources.iter().enumerate() {
        if visit[s] == 0 {
            frontier.push(s);
        }
        visit[s] |= 1 << i;
    }
    for &s in &frontier {
        seen[s] = visit[s];
        reach(0, s, visit[s]);
    }
    let mut reached = Vec::new();
    let mut level = 0;
    while !frontier.is_empty() {
        level += 1;
        for &u in &frontier {
            let bits = std::mem::take(&mut visit[u]);
            for &v in &targets[offsets[u]..offsets[u + 1]] {
                let new = bits & !seen[v];
                if new != 0 {
                    if next[v] == 0 {
                        reached.push(v);
                    }
                    next[v] |= new;
                }
            }
        }
        frontier.clear();
        for &v in &reached {
            let bits = std::mem::take(&mut next[v]);
            seen[v] |= bits;
            visit[v] = bits;
            reach(level, v, bits);
        }
        std::mem::swap(&mut frontier, &mut reached);
    }
}

/// The indices `0..count` sorted by the Morton (Z-order) key of
/// `position(i)`, ties by index. The key interleaves the bits of each
/// coordinate quantised to 16 bits across the positions' bounding box,
/// so nearby positions sort together and a [`multi_bfs`] pass from 64
/// consecutive ones shares most of its traversal. The order changes only
/// how fast the passes run, never what they report. Float-to-int casts
/// saturate and map NaN to 0, so no coordinate (infinite, or a range
/// that overflows) can panic here.
fn morton_order(count: usize, position: impl Fn(usize) -> Point) -> Vec<usize> {
    let (mut lo, mut hi) = (
        Point::new(f64::MAX, f64::MAX),
        Point::new(f64::MIN, f64::MIN),
    );
    for i in 0..count {
        let p = position(i);
        (lo.x, lo.y) = (lo.x.min(p.x), lo.y.min(p.y));
        (hi.x, hi.y) = (hi.x.max(p.x), hi.y.max(p.y));
    }
    let quantise = |x: f64, lo: f64, hi: f64| spread_bits(((x - lo) / (hi - lo) * 65535.0) as u16);
    let mut keyed: Vec<(u32, usize)> = (0..count)
        .map(|i| {
            let p = position(i);
            (
                quantise(p.x, lo.x, hi.x) | quantise(p.y, lo.y, hi.y) << 1,
                i,
            )
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// The bits of `q` moved to the even positions of a `u32`.
fn spread_bits(q: u16) -> u32 {
    let mut x = u32::from(q);
    x = (x | x << 8) & 0x00ff_00ff;
    x = (x | x << 4) & 0x0f0f_0f0f;
    x = (x | x << 2) & 0x3333_3333;
    (x | x << 1) & 0x5555_5555
}

/// Euclidean-length distance from `src` to every node (`None` for
/// unreachable nodes). Edge weights are the embedded edge lengths.
///
/// The result is that of the textbook Dijkstra to the bit, NaN and
/// infinite lengths included: `Option` distances, a settled set, and a
/// heap that pops the least distance under [`f64::total_cmp`] first,
/// ties by the least node, with a node's distance lowered only by a
/// strictly smaller sum `d(u) + |uv|`. The row runs leaner than that
/// (`f64` distances with a reached flag, no settled set, integer heap
/// keys), because a row pops every entry it pushes and pays for each
/// pop; the goal-directed searches of [`pair_distances`], which pop few,
/// use a radix queue instead.
///
/// # Panics
/// Panics if `src` is out of bounds.
pub fn dijkstra_lengths(g: &Graph, src: usize) -> Vec<Option<f64>> {
    let points = g.points();
    dijkstra(g, src, |u, v, _| points[u].distance(points[v]))
}

/// Every edge slot's length, aligned with the targets of
/// [`Graph::csr`]: the slot of `v` in `u`'s row holds
/// `points[u].distance(points[v])`, the value [`dijkstra_lengths`]
/// computes for that edge, so searches that read it agree to the bit.
fn slot_lengths(g: &Graph) -> Vec<f64> {
    let points = g.points();
    let (offsets, targets) = g.csr();
    let mut lengths = Vec::with_capacity(targets.len());
    for (u, row) in offsets.windows(2).enumerate() {
        lengths.extend(
            targets[row[0]..row[1]]
                .iter()
                .map(|&v| points[u].distance(points[v])),
        );
    }
    lengths
}

/// The one Dijkstra: `weight(u, v, slot)` is the non-negative (or NaN)
/// weight of the edge in slot `slot` of [`Graph::csr`], from `u` to `v`:
/// its length here, `|uv|^β` for
/// [`dijkstra_power`](crate::power::dijkstra_power).
///
/// Kept lean because a row pops every entry it pushes: `f64` distances
/// with a reached flag, and a binary heap of `(total_order(d), node)`
/// entries, whose integer order ([`total_order`]) is that of `(d, node)`
/// under [`f64::total_cmp`]. An entry whose key no longer matches its node's
/// distance is stale. No settled set is needed: the non-NaN keys pop in
/// ascending order, a relaxation `fl(d + w)` with `w ≥ 0` is never below
/// `d`, and no comparison with a NaN holds, so a relaxation never lowers
/// a node that has already been popped. Pops, ties and NaNs included,
/// thus run in the order of a textbook Dijkstra that keeps that set,
/// and the rows are the same to the bit.
///
/// # Panics
/// Panics if `src` is out of bounds.
pub(crate) fn dijkstra(
    g: &Graph,
    src: usize,
    weight: impl Fn(usize, usize, usize) -> f64,
) -> Vec<Option<f64>> {
    let n = g.node_count();
    assert!(src < n, "source {src} out of bounds for {n} nodes");
    let (offsets, targets) = g.csr();
    let mut dist = vec![0.0; n];
    let mut reached = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);
    reached[src] = true;
    heap.push(Reverse((total_order(0.0), src)));
    while let Some(Reverse((key, u))) = heap.pop() {
        let du = dist[u];
        if key != total_order(du) {
            continue; // `dist[u]` dropped since this entry was pushed
        }
        let row = offsets[u]..offsets[u + 1];
        for (slot, &v) in row.clone().zip(&targets[row]) {
            let cand = du + weight(u, v, slot);
            if !reached[v] || cand < dist[v] {
                reached[v] = true;
                dist[v] = cand;
                heap.push(Reverse((total_order(cand), v)));
            }
        }
    }
    dist.into_iter()
        .zip(reached)
        .map(|(d, reached)| reached.then_some(d))
        .collect()
}

/// `x`'s bits, mapped so that their integer order is [`f64::total_cmp`]'s:
/// a value with the sign bit set (NaNs included) has every bit flipped,
/// any other only the sign bit.
fn total_order(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// A monotone radix heap of `(key, node)` entries on `u64` keys (Ahuja,
/// Mehlhorn, Orlin and Tarjan, "Faster algorithms for the shortest path
/// problem", JACM 1990). Bucket 0 holds the entries whose key equals the
/// last key popped, bucket `i ≥ 1` those whose highest bit differing
/// from it is bit `i − 1`. A pop that finds bucket 0 empty takes the
/// lowest nonempty bucket: its least key becomes the last popped, and
/// all its entries fall to lower buckets. A push costs one
/// `leading_zeros` and one `Vec::push`, so entries that are never popped
/// cost next to nothing, and an entry that is popped moves down at most
/// 64 times.
///
/// Keys must not fall below the last pop. A key that does is raised to
/// it: [`push`](Self::push) returns the key the entry holds. Equal keys
/// pop in no particular order.
#[derive(Debug)]
struct RadixQueue {
    /// The last key popped, 0 before the first pop.
    last: u64,
    buckets: [Vec<(u64, usize)>; 65],
}

impl RadixQueue {
    fn new() -> Self {
        RadixQueue {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// The bucket of a key that is not below the last pop.
    fn bucket(&self, key: u64) -> usize {
        (u64::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    /// Queues `node` at `key`, raised to the last pop if below it, and
    /// returns the key it is queued at.
    fn push(&mut self, key: u64, node: usize) -> u64 {
        let key = key.max(self.last);
        let b = self.bucket(key);
        self.buckets[b].push((key, node));
        key
    }

    /// An entry with the least key, or `None` if the queue is empty.
    fn pop(&mut self) -> Option<(u64, usize)> {
        if self.buckets[0].is_empty() {
            let i = self.buckets.iter().position(|b| !b.is_empty())?;
            let mut spill = std::mem::take(&mut self.buckets[i]);
            self.last = spill.iter().map(|&(key, _)| key).min()?;
            for &(key, node) in &spill {
                let b = self.bucket(key);
                self.buckets[b].push((key, node));
            }
            spill.clear();
            self.buckets[i] = spill;
        }
        self.buckets[0].pop()
    }

    /// Empties the queue, keeping its buckets' capacity.
    fn clear(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.last = 0;
    }
}

/// Exact goal-directed length searches from one source to one target,
/// with scratch reused across searches.
///
/// This is A* on the key `g + |vd|`, where `g` is accumulated exactly as
/// [`dijkstra_lengths`] accumulates it (`g(u) + points[u].distance(points[v])`)
/// and `|vd|` is `points[v].distance(points[d])`, for graphs whose
/// coordinates are all finite. Dijkstra's float
/// distances are the least fixpoint `D(v) = min_u fl(D(u) + |uv|)`: the
/// smallest left-to-right float sum over any path, since `fl(x + w)` is
/// monotone in `x` and never below it for `w ≥ 0`. A* returns `D(d)` bit
/// for bit because
///
/// * every `g` it records is such a sum, so `g(v) ≥ D(v)` throughout;
/// * a node whose `g` drops is pushed again and re-expanded, so each node
///   on a Dijkstra tree path to `d` is eventually expanded at `g = D`;
/// * it stops only when a popped key exceeds `limit(best)`, and until
///   every node of that path is expanded at `g = D`, no popped key
///   exceeds `B`, the largest `key(v) = fl(D(v) + |vd|)` of a node `v`
///   on it, which is at most `limit(best)`.
///
/// The queue is a [`RadixQueue`], whose keys must not fall below the
/// last pop. A consistent `|vd|` keeps the keys monotone in exact
/// arithmetic, but rounding can leave a new key just below the key just
/// popped, and such a key is raised to the last pop. That keeps the
/// third point: until the path is expanded at `g = D`, its first node
/// not yet so expanded is queued at `key(v)` or at an earlier pop,
/// whichever is larger, so by induction over the pops neither that
/// entry nor any pop before it exceeds `B`.
///
/// `B ≤ limit(best)` is where rounding enters. Take `v` on a tree path of
/// `m ≤ n − 1` remaining edges with computed lengths `ŵ_j`, and write
/// `u = 2⁻⁵³`. `distance` rounds each coordinate difference, each
/// square, their sum and the square root, so it is within a factor
/// `(1 ± u)³ ⊂ 1 ± 4u` of the true length, and by the triangle
/// inequality `|vd| ≤ (1 + 9u) Σ ŵ_j`. Each of the `m` float additions
/// that build `D(d)` from `D(v)` loses at most a factor `1 − u`, and the
/// key's own sum gains at most `1 + u`, so
/// `key(v) ≤ (1 + 1.01 (n + 10) u) D(d)` for every `n < 10¹³`. When a
/// squared difference underflows into the subnormal range, each
/// `distance` is also off by at most `2⁻⁵³⁷` absolutely, and the `m + 1`
/// of them add at most `n · 2⁻⁵³⁶`. Hence
///
/// `limit(best) = best + (best · (n + 16) · ε + n · 2⁻⁵³⁶)`, with `ε = 2u`
///
/// bounds every such key with about 2× room for the rounding of `limit`
/// itself. The margin is a correctness bound, not a tuning knob: at the
/// paper's scales it is about `10⁻¹³` relative, and only exact or
/// near-exact ties fall inside it. A `|vd|` that overflows to infinity
/// is replaced by the trivial lower bound 0.
///
/// `dist` and `to_goal` are valid for a node only where `stamp` holds
/// the current `epoch`, so a search costs no `O(n)` clear. Edge lengths
/// are read from [`slot_lengths`], computed once per searcher, which the
/// searcher's Dijkstra rows ([`LengthSearch::row`]) share.
///
/// The searches and the rows keep separate queues on purpose. A search
/// pops few of the entries it pushes (65 of 316, and expands 46 nodes,
/// for uniform pairs at Table I density and n = 2 000), and a radix
/// queue push is a bit scan and a `Vec::push`, where a binary heap's
/// costs a sift. A row pops every entry, and there the binary heap of
/// [`dijkstra`] is faster than the radix queue's redistributions.
///
/// The finite-coordinate precondition is not checked. With a NaN or
/// infinite coordinate an edge length or a key can be NaN; the search
/// never queues a NaN key and lets a NaN `dist[d]` be overwritten, so it
/// can answer `None` where the row answers `Some(NaN)`, and a NaN where
/// the row answers `+∞`. The hot loop carries no branch for that case.
#[derive(Debug)]
struct LengthSearch {
    /// [`slot_lengths`] of the searched graph.
    slot_len: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Best length from the source found so far (`g`).
    dist: Vec<f64>,
    /// `|vd|`, computed once per node and search (`h`).
    to_goal: Vec<f64>,
    /// The key of each node's latest queue entry; an entry popped at
    /// another key is stale.
    key: Vec<u64>,
    queue: RadixQueue,
    /// Searches run and nodes expanded by them, for the mean cost of one.
    searches: u64,
    expanded: u64,
}

/// `2⁻⁵³⁶`: twice the absolute error of one
/// [`Point::distance`](crate::Point::distance) whose squared differences
/// underflow (see [`LengthSearch`]).
const UNDERFLOW_SLACK: f64 = f64::from_bits((1023 - 536) << 52);

impl LengthSearch {
    fn new(g: &Graph) -> Self {
        let n = g.node_count();
        LengthSearch {
            slot_len: slot_lengths(g),
            stamp: vec![0; n],
            epoch: 0,
            dist: vec![0.0; n],
            to_goal: vec![0.0; n],
            key: vec![0; n],
            queue: RadixQueue::new(),
            searches: 0,
            expanded: 0,
        }
    }

    /// Whether one [`dijkstra_lengths`] row, which settles all `n`
    /// nodes, is expected to cost no more than `queries` searches, at
    /// the mean number of nodes the searches so far expanded. Without a
    /// search to go by, searches are preferred.
    fn prefers_row(&self, queries: usize) -> bool {
        let n = self.stamp.len() as u128;
        self.searches > 0
            && queries as u128 * u128::from(self.expanded) >= n * u128::from(self.searches)
    }

    /// [`dijkstra_lengths`]`(g, src)`, bit for bit, over the slot lengths.
    fn row(&self, g: &Graph, src: usize) -> Vec<Option<f64>> {
        dijkstra(g, src, |_, _, slot| self.slot_len[slot])
    }

    /// Starts a search: invalidates every node's `dist` and `to_goal`.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// The length [`dijkstra_lengths`]`(g, src)[dst]` returns, bit for
    /// bit, found by a search aimed at `dst`.
    fn length(&mut self, g: &Graph, src: usize, dst: usize) -> Option<f64> {
        if src == dst {
            return Some(0.0);
        }
        self.next_epoch();
        self.searches += 1;
        let points = g.points();
        let (offsets, targets) = g.csr();
        let n = points.len();
        let goal = points[dst];
        let margin = (n + 16) as f64 * f64::EPSILON;
        let slack = n as f64 * UNDERFLOW_SLACK;
        let mut limit = f64::INFINITY;
        let to_goal = |v: usize| {
            let h = points[v].distance(goal);
            if h.is_finite() {
                h
            } else {
                0.0
            }
        };
        self.stamp[src] = self.epoch;
        self.dist[src] = 0.0;
        self.to_goal[src] = to_goal(src);
        self.key[src] = self.queue.push(self.to_goal[src].to_bits(), src);
        while let Some((key, u)) = self.queue.pop() {
            if f64::from_bits(key) > limit {
                break;
            }
            if key != self.key[u] {
                continue; // `dist[u]` dropped since this entry was pushed
            }
            self.expanded += 1;
            let du = self.dist[u];
            let row = offsets[u]..offsets[u + 1];
            for (&v, &length) in targets[row.clone()].iter().zip(&self.slot_len[row]) {
                let cand = du + length;
                if self.stamp[v] != self.epoch {
                    self.stamp[v] = self.epoch;
                    self.to_goal[v] = to_goal(v);
                } else if cand >= self.dist[v] {
                    continue;
                }
                self.dist[v] = cand;
                if v == dst {
                    // The target is never expanded: no path through it
                    // leads back to it any shorter.
                    limit = cand + (cand * margin + slack);
                    continue;
                }
                // At least +0 unless NaN, which fails the test below, so
                // its bits order as its value does.
                let key = cand + self.to_goal[v];
                if key <= limit {
                    self.key[v] = self.queue.push(key.to_bits(), v);
                }
            }
        }
        self.queue.clear();
        (self.stamp[dst] == self.epoch).then(|| self.dist[dst])
    }
}

/// A lazy shortest-path oracle over one graph.
///
/// Hop rows are computed on first use and cached, so measuring many
/// packets against the same sources — the traffic engine's per-packet
/// stretch accounting — costs one traversal per source at most, not one
/// per query. The nodes are cut into blocks of 64 consecutive nodes in
/// the Morton order of their positions (the order [`pair_distances`]
/// batches by). A block's first source to miss gets its own [`bfs_hops`]
/// row. The second shows the block is in use: one 64-source BFS then
/// computes the rows of every source of the block that has none, so the
/// oracle keeps a row for every source of each block it touched twice.
/// A few sources scattered over a large graph thus cost one row each,
/// not 64.
///
/// Lengths come from the same exact goal-directed search as
/// [`pair_distances`]: an A* per query on a radix queue, aimed at the
/// target, equal bit for bit to [`dijkstra_lengths`] (the exactness
/// argument, with its stopping margin, `best · (n + 16) · ε` plus an
/// underflow term, and the raise of keys below the last pop, is
/// documented on the search in the source). A pair the hop row finds
/// unreachable is answered `None` without a length search. The oracle
/// does not see its queries in advance, so it applies the cost rule of
/// [`pair_distances`] online: once a source's length queries times the
/// mean number of nodes a search expanded reach `n`, that source's
/// [`dijkstra_lengths`] row is computed and cached, and answers the rest.
/// Searches and rows read edge lengths from one array, computed at the
/// first length query.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
/// use geospan_graph::paths::DistanceOracle;
/// let g = Graph::with_edges(
///     vec![Point::new(0.,0.), Point::new(1.,0.), Point::new(2.,0.)],
///     [(0,1),(1,2)]);
/// let mut oracle = DistanceOracle::new(&g);
/// assert_eq!(oracle.hops(0, 2), Some(2));
/// assert!((oracle.length(0, 2).unwrap() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct DistanceOracle<'a> {
    g: &'a Graph,
    /// BFS hop rows per source, [`UNREACHED`] where no path exists.
    hops: Vec<Option<Vec<u32>>>,
    /// Every node, in [`morton_order`]: block `b` is
    /// `by_position[b * BATCH..][..BATCH]`.
    by_position: Vec<usize>,
    /// Each node's block.
    block_of: Vec<usize>,
    /// Whether a source of the block has missed before.
    missed: Vec<bool>,
    lengths: Vec<Option<Vec<Option<f64>>>>,
    /// Length queries per source that have no cached row.
    queries: Vec<usize>,
    /// Created by the first length query.
    search: Option<LengthSearch>,
}

impl<'a> DistanceOracle<'a> {
    /// An oracle over `g` with no rows computed yet.
    pub fn new(g: &'a Graph) -> Self {
        let n = g.node_count();
        let points = g.points();
        let by_position = morton_order(n, |v| points[v]);
        let mut block_of = vec![0; n];
        for (rank, &v) in by_position.iter().enumerate() {
            block_of[v] = rank / BATCH;
        }
        DistanceOracle {
            g,
            hops: vec![None; n],
            by_position,
            block_of,
            missed: vec![false; n.div_ceil(BATCH)],
            lengths: vec![None; n],
            queries: vec![0; n],
            search: None,
        }
    }

    /// Hop distance from `src` to `dst` (`None` when unreachable).
    ///
    /// # Panics
    /// Panics if either endpoint is out of bounds.
    pub fn hops(&mut self, src: usize, dst: usize) -> Option<u32> {
        if self.hops[src].is_none() && std::mem::replace(&mut self.missed[self.block_of[src]], true)
        {
            self.fill_block(self.block_of[src]);
        }
        hop(self.hops[src].get_or_insert_with(|| hop_row(self.g, src))[dst])
    }

    /// Computes, in one [`multi_bfs`] pass, the hop row of every source
    /// of `block` that has none.
    fn fill_block(&mut self, block: usize) {
        let n = self.g.node_count();
        let members = &self.by_position[block * BATCH..n.min((block + 1) * BATCH)];
        let sources: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&s| self.hops[s].is_none())
            .collect();
        let mut rows = vec![vec![UNREACHED; n]; sources.len()];
        multi_bfs(self.g, &sources, |level, v, mut bits| {
            while bits != 0 {
                rows[bits.trailing_zeros() as usize][v] = level;
                bits &= bits - 1;
            }
        });
        for (s, row) in sources.into_iter().zip(rows) {
            self.hops[s] = Some(row);
        }
    }

    /// Euclidean shortest-path length from `src` to `dst` (`None` when
    /// unreachable), bit-identical to [`dijkstra_lengths`] when every
    /// coordinate of the graph is finite (the precondition of
    /// [`pair_distances`]).
    ///
    /// # Panics
    /// Panics if either endpoint is out of bounds.
    pub fn length(&mut self, src: usize, dst: usize) -> Option<f64> {
        self.hops(src, dst)?;
        if let Some(row) = &self.lengths[src] {
            return row[dst];
        }
        self.queries[src] += 1;
        let g = self.g;
        let search = self.search.get_or_insert_with(|| LengthSearch::new(g));
        if search.prefers_row(self.queries[src]) {
            return self.lengths[src].insert(search.row(g, src))[dst];
        }
        search.length(g, src, dst)
    }
}

/// Hop and length distances of a batch of `(src, dst)` pairs, answered
/// in input order.
///
/// Returns exactly what [`DistanceOracle::hops`] and
/// [`DistanceOracle::length`] would, and what [`bfs_hops`] and
/// [`dijkstra_lengths`] rows would: hop counts equal, lengths
/// bit-identical to Dijkstra's.
///
/// Precondition for the lengths: every coordinate of `g` is finite. A
/// NaN or infinite coordinate can make an edge length NaN or infinite,
/// and there a search may answer `None` or a NaN where the row answers a
/// NaN or `+∞`. Every graph the pipeline builds meets it:
/// `BackboneBuilder` rejects such positions and `UnitDiskBuilder` links
/// none of them.
///
/// Hops come from one 64-source BFS per 64 distinct sources. Every node
/// carries one `u64` word per BFS state, one bit per source, and a pass
/// scans only the frontier's rows (Then et al., "The More the Merrier",
/// VLDB 2014). The sources are batched in the Morton order of their
/// positions, so a batch's sources lie close together and share most of
/// their traversal. Each pair waits in a list at its destination and is
/// answered at the level its source's bit arrives there. No row is kept,
/// so memory is `O(n + pairs)` rather than the oracle's `O(n · sources)`.
///
/// A length comes from one of two exact computations, chosen per source
/// by cost alone, with the sources visited in ascending order:
///
/// * an A* search aimed at the target, on the key `g + |vd|`. In a unit
///   disk graph `|vd|` is a consistent lower bound on the remaining
///   length, so the search expands only a thin ellipse around the
///   segment. It re-expands a node whose `g` drops and stops only once
///   the smallest key exceeds the best length found by a relative
///   margin of `(n + 16) · ε` (plus `n · 2⁻⁵³⁶` for underflowing
///   distances). That margin bounds the rounding of `distance` and of
///   the sums along any path, so the result is Dijkstra's to the bit;
///   the derivation is on the search in the source. Its queue is a
///   monotone radix heap, which makes a push nearly free: most entries a
///   search pushes are never popped. Rounding can leave a new key just
///   below the last pop; it is queued at the last pop instead, which the
///   derivation shows cannot stop the search early.
/// * one [`dijkstra_lengths`] row, which settles every node. It pops
///   every entry it pushes, and there a binary heap is faster.
///
/// Both read each edge's length from one array computed per call, with
/// the expression [`dijkstra_lengths`] uses. With `k` pairs at a source
/// and `s̄` the mean number of nodes the searches of this batch expanded
/// so far, the source gets a row when `k · s̄ ≥ n` and `k` searches
/// otherwise; the first source always searches. Pairs the BFS finds
/// unreachable get `None` without a length search.
///
/// # Panics
/// Panics if a source or a destination is out of bounds, before any
/// search runs.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
/// use geospan_graph::paths::pair_distances;
/// let g = Graph::with_edges(
///     vec![Point::new(0.,0.), Point::new(1.,0.), Point::new(2.,0.)],
///     [(0,1),(1,2)]);
/// assert_eq!(pair_distances(&g, &[(2, 0), (0, 1)]), vec![(Some(2), Some(2.0)), (Some(1), Some(1.0))]);
/// ```
pub fn pair_distances(g: &Graph, pairs: &[(usize, usize)]) -> Vec<(Option<u32>, Option<f64>)> {
    let n = g.node_count();
    for &(src, dst) in pairs {
        assert!(src < n, "source {src} out of bounds for {n} nodes");
        assert!(dst < n, "destination {dst} out of bounds for {n} nodes");
    }
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_by_key(|&i| pairs[i].0);
    let groups: Vec<&[usize]> = order.chunk_by(|&a, &b| pairs[a].0 == pairs[b].0).collect();
    let hops = batched_hops(g, pairs, &groups);
    let mut out = vec![(None, None); pairs.len()];
    let mut search = LengthSearch::new(g);
    for group in groups {
        let src = pairs[group[0]].0;
        let row = search.prefers_row(group.len()).then(|| search.row(g, src));
        for &i in group {
            let dst = pairs[i].1;
            let length = match (hops[i], &row) {
                (None, _) => None,
                (Some(_), Some(row)) => row[dst],
                (Some(_), None) => search.length(g, src, dst),
            };
            out[i] = (hops[i], length);
        }
    }
    out
}

/// The hop counts of `pairs`, whose indices `groups` partitions by
/// source: one [`multi_bfs`] pass per [`BATCH`] groups, in the Morton
/// order of their sources.
fn batched_hops(g: &Graph, pairs: &[(usize, usize)], groups: &[&[usize]]) -> Vec<Option<u32>> {
    /// The end of a destination's list of waiting pairs.
    const END: usize = usize::MAX;
    let points = g.points();
    let source = |k: usize| pairs[groups[k][0]].0;
    let mut hops = vec![None; pairs.len()];
    // The pairs of the current pass waiting at each destination `d`:
    // `first[d]`, then along `link`; `bit[i]` is pair `i`'s source bit.
    let mut first = vec![END; g.node_count()];
    let mut link = vec![END; pairs.len()];
    let mut bit = vec![0u8; pairs.len()];
    for batch in morton_order(groups.len(), |k| points[source(k)]).chunks(BATCH) {
        for (b, &k) in batch.iter().enumerate() {
            for &i in groups[k] {
                let d = pairs[i].1;
                (link[i], first[d], bit[i]) = (first[d], i, b as u8);
            }
        }
        let sources: Vec<usize> = batch.iter().map(|&k| source(k)).collect();
        multi_bfs(g, &sources, |level, v, bits| {
            let mut i = first[v];
            while i != END {
                if bits >> bit[i] & 1 != 0 {
                    hops[i] = Some(level);
                }
                i = link[i];
            }
        });
        for &k in batch {
            for &i in groups[k] {
                first[pairs[i].1] = END;
            }
        }
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use geospan_geometry::Point;
    use proptest::prelude::*;

    /// A 5-node graph: a straight chain 0-1-2-3 plus a long chord 0-4-3.
    fn diamond() -> Graph {
        Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(3.0, 0.0),
                Point::new(1.5, 4.0),
            ],
            [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)],
        )
    }

    #[test]
    fn bfs_hop_counts() {
        let g = diamond();
        let d = bfs_hops(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(2), Some(1)]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = diamond();
        g.remove_edge(0, 4);
        g.remove_edge(4, 3);
        let d = bfs_hops(&g, 0);
        assert_eq!(d[4], None);
        assert_eq!(d[3], Some(3));
    }

    #[test]
    fn dijkstra_prefers_short_detour() {
        let g = diamond();
        let d = dijkstra_lengths(&g, 0);
        // Straight chain is length 3; the chord through node 4 is ~8.5.
        assert!((d[3].unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(d[0], Some(0.0));
    }

    #[test]
    fn oracle_matches_single_source_runs() {
        let g = diamond();
        let mut oracle = DistanceOracle::new(&g);
        for src in 0..g.node_count() {
            let hops = bfs_hops(&g, src);
            let lens = dijkstra_lengths(&g, src);
            for dst in 0..g.node_count() {
                assert_eq!(oracle.hops(src, dst), hops[dst]);
                assert_eq!(oracle.length(src, dst), lens[dst]);
                // Cached second query agrees.
                assert_eq!(oracle.hops(src, dst), hops[dst]);
            }
        }
    }

    /// Four points a hair off the segment from node 0 to node 4, which
    /// is also an edge. The chain is one ulp shorter than the chord, yet
    /// the search only finds it by popping keys that exceed the chord's
    /// length, within the stopping margin.
    #[test]
    fn search_pops_within_the_margin() {
        let g = Graph::with_edges(
            vec![
                Point::new(32.98129196946951, 2.3404751818280833),
                Point::new(42.63889045032106, 2.3404752350147002),
                Point::new(59.736012286232324, 2.340475117470329),
                Point::new(67.00613131071931, 2.34047511187868),
                Point::new(196.04224065533938, 2.3404751818280833),
            ],
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        );
        let chord = g.edge_length(0, 4);
        let want = dijkstra_lengths(&g, 0)[4].unwrap();
        assert!(want < chord);
        let got = LengthSearch::new(&g).length(&g, 0, 4).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
    }

    /// Finite edges of about `10¹⁵⁴` whose endpoints' distances to the
    /// target overflow: an infinite `|vd|` would tie every key at
    /// infinity, let the longer route via node 2 reach the target first,
    /// and cut off the straight route via node 4.
    #[test]
    fn search_survives_overflowing_distances_to_the_target() {
        let e = 1e154;
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(3.0 * e, 0.0),
                Point::new(0.9 * e, 0.5 * e),
                Point::new(2.1 * e, 0.5 * e),
                Point::new(e, 0.0),
                Point::new(2.0 * e, 0.0),
            ],
            [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1)],
        );
        assert!(g.points()[2].distance(g.points()[1]).is_infinite());
        let want = dijkstra_lengths(&g, 0)[1];
        assert_eq!(want, Some(3.0 * e));
        assert_eq!(LengthSearch::new(&g).length(&g, 0, 1), want);
    }

    /// Node 3 is first queued from node 1 (`g = 3`), then from node 2
    /// at a lower key (`g = √5`), before either entry pops. The target is
    /// unreachable, so the search pops every entry: the stale one is
    /// skipped, and each of the four nodes is expanded once.
    #[test]
    fn search_skips_stale_entries() {
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(0.5, 1.0),
                Point::new(1.0, 2.0),
                Point::new(100.0, 0.0),
            ],
            [(0, 1), (0, 2), (1, 3), (2, 3)],
        );
        let mut search = LengthSearch::new(&g);
        assert_eq!(search.length(&g, 0, 4), None);
        assert_eq!(search.expanded, 4);
    }

    proptest! {
        /// Random interleavings of pushes and pops against a sorted
        /// reference: pushes at the last pop (ties), a little above it,
        /// below it (raised to it), and anywhere in `u64` at several scales; each pop
        /// returns a queued entry with the least key, and a raised entry
        /// comes back at the pop it was raised to. After `clear` no key is
        /// raised.
        #[test]
        fn radix_queue_pops_like_a_sorted_list(
            ops in prop::collection::vec((0u8..6, 0u64..8, any::<u64>()), 0..400),
        ) {
            let mut queue = RadixQueue::new();
            let mut queued: Vec<(u64, usize)> = Vec::new();
            let mut last = 0u64;
            for (node, (op, small, any)) in ops.into_iter().enumerate() {
                let key = match op {
                    0 => last,
                    1 => last.saturating_add(small),
                    2 => last.saturating_sub(small),
                    3 => any >> (small * 8),
                    _ => {
                        let popped = queue.pop();
                        queued.sort_unstable();
                        prop_assert_eq!(popped.map(|(key, _)| key), queued.first().map(|&(key, _)| key));
                        if let Some(entry) = popped {
                            let i = queued.iter().position(|&e| e == entry);
                            prop_assert!(i.is_some(), "popped {:?}, never queued", entry);
                            queued.remove(i.unwrap_or_default());
                            last = entry.0;
                        }
                        continue;
                    }
                };
                let held = queue.push(key, node);
                prop_assert_eq!(held, key.max(last));
                queued.push((held, node));
            }
            queued.sort_unstable();
            let mut drained = Vec::new();
            while let Some((key, node)) = queue.pop() {
                drained.push((key, node));
            }
            prop_assert!(drained.windows(2).all(|w| w[0].0 <= w[1].0));
            drained.sort_unstable();
            prop_assert_eq!(drained, queued);
            queue.clear();
            prop_assert_eq!(queue.push(0, 0), 0);
            prop_assert_eq!(queue.pop(), Some((0, 0)));
        }
    }

    /// [`total_order`] sorts as [`f64::total_cmp`] does, on signed
    /// zeros, subnormals, infinities and NaNs of both signs.
    #[test]
    fn total_order_matches_total_cmp() {
        let xs = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE / 4.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for x in xs {
            for y in xs {
                assert_eq!(total_order(x).cmp(&total_order(y)), x.total_cmp(&y));
            }
        }
    }

    #[test]
    fn search_scratch_survives_epoch_wraparound() {
        let g = diamond();
        let mut search = LengthSearch::new(&g);
        search.epoch = u32::MAX - 1;
        for _ in 0..3 {
            for src in 0..g.node_count() {
                for (dst, &want) in dijkstra_lengths(&g, src).iter().enumerate() {
                    assert_eq!(search.length(&g, src, dst), want);
                }
            }
        }
        assert!(search.epoch < 100);
    }

    #[test]
    #[should_panic(expected = "source 5 out of bounds for 5 nodes")]
    fn pair_distances_rejects_an_out_of_bounds_source() {
        pair_distances(&diamond(), &[(0, 1), (5, 0)]);
    }

    #[test]
    #[should_panic(expected = "destination 9 out of bounds for 5 nodes")]
    fn pair_distances_rejects_an_out_of_bounds_destination() {
        pair_distances(&diamond(), &[(0, 1), (2, 9)]);
    }

    /// Infinite, NaN, extreme and subnormal coordinates, and ranges that
    /// overflow: the order is still a permutation, ties by index.
    #[test]
    fn morton_order_takes_any_coordinate() {
        let xs = [
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE / 4.0,
            -1e300,
        ];
        let points: Vec<Point> = xs
            .iter()
            .flat_map(|&x| xs.iter().map(move |&y| Point::new(x, y)))
            .collect();
        let mut order = morton_order(points.len(), |i| points[i]);
        order.sort_unstable();
        assert!(order.iter().copied().eq(0..points.len()));
        assert_eq!(morton_order(3, |_| Point::new(1.0, 1.0)), vec![0, 1, 2]);
    }

    #[test]
    fn dijkstra_agrees_with_bfs_on_unit_edges() {
        // All edges the same length: hop counts and lengths coincide.
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(3.0, 0.0),
            ],
            [(0, 1), (1, 2), (2, 3)],
        );
        let hops = bfs_hops(&g, 0);
        let lens = dijkstra_lengths(&g, 0);
        for v in 0..4 {
            assert!((lens[v].unwrap() - hops[v].unwrap() as f64).abs() < 1e-12);
        }
    }
}
