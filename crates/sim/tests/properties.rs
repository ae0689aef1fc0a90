//! Property tests for the simulator: flooding semantics on arbitrary
//! communication graphs, and a golden digest of the delivery order
//! under every radio.

use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
use geospan_graph::Graph;
use geospan_sim::{
    Context, FaultPlan, FaultReport, MessageKind, MessageStats, Network, PhaseReport, Protocol,
    Radio,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Token;

impl MessageKind for Token {
    fn kind(&self) -> &'static str {
        "token"
    }
}

#[derive(Debug)]
struct Flood {
    origin: bool,
    have: bool,
}

impl Protocol for Flood {
    type Message = Token;
    fn on_phase(&mut self, ctx: &mut Context<'_, Token>, phase: usize) {
        if phase == 0 && self.origin {
            self.have = true;
            ctx.broadcast(Token);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Token>, _from: usize, _msg: &Token) {
        if !self.have {
            self.have = true;
            ctx.broadcast(Token);
        }
    }
}

fn deployment() -> impl Strategy<Value = (Graph, usize)> {
    (2usize..50, 15.0f64..60.0, any::<u64>()).prop_flat_map(|(n, radius, seed)| {
        let pts = uniform_points(n, 100.0, seed);
        let g = UnitDiskBuilder::new(radius).build(&pts);
        (Just(g), 0..n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flooding_reaches_exactly_the_component((g, src) in deployment()) {
        let mut net = Network::new(&g, |id| Flood { origin: id == src, have: false });
        let report = net.run_phase(0, 4 * g.node_count() + 8).unwrap();
        // Which nodes should be reached?
        let component: Vec<usize> = g
            .components()
            .into_iter()
            .find(|c| c.contains(&src))
            .unwrap();
        for (id, node) in net.nodes().iter().enumerate() {
            prop_assert_eq!(node.have, component.contains(&id), "node {}", id);
        }
        // One transmission per reached node; stats agree with the report.
        prop_assert_eq!(report.messages, component.len());
        prop_assert_eq!(net.stats().total_sent(), component.len());
        prop_assert_eq!(net.stats().per_kind()["token"], component.len());
        let max = net.stats().max_sent();
        prop_assert!(max <= 1);
    }

    #[test]
    fn jitter_preserves_flooding_semantics(
        (g, src) in deployment(),
        delay in 2usize..6,
        seed in any::<u64>()
    ) {
        let mut net = Network::new(&g, |id| Flood { origin: id == src, have: false })
            .with_radio(&Radio { jitter: Some((delay, seed)), ..Radio::default() });
        let budget = 4 * delay * (g.node_count() + 8);
        net.run_phase(0, budget).unwrap();
        let component: Vec<usize> = g
            .components()
            .into_iter()
            .find(|c| c.contains(&src))
            .unwrap();
        for (id, node) in net.nodes().iter().enumerate() {
            prop_assert_eq!(node.have, component.contains(&id), "node {}", id);
        }
        prop_assert_eq!(net.stats().total_sent(), component.len());
    }
}

/// A payload whose kind is its parity, so the per-kind statistics see
/// two kinds.
#[derive(Clone, Debug)]
struct Word(u64);

impl MessageKind for Word {
    fn kind(&self) -> &'static str {
        if self.0.is_multiple_of(2) {
            "even"
        } else {
            "odd"
        }
    }
}

/// Broadcasts a node may make per phase in reply to what it hears.
const ECHO_BUDGET: u32 = 3;

/// A protocol whose broadcasts depend on the order its node hears
/// things in: every reception folds `(from, payload)` into a running
/// hash, and the node echoes the hash (twice when it is divisible by 6)
/// whenever it is divisible by 3, while its budget lasts. Each node logs
/// every `(round, from, payload)` it handles, so a digest of the logs
/// pins each node's delivery sequence, round by round.
#[derive(Debug, Default)]
struct Echo {
    log: Vec<(usize, usize, u64)>,
    acc: u64,
    sent: u32,
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = (a ^ b.rotate_left(29)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Protocol for Echo {
    type Message = Word;
    fn on_phase(&mut self, ctx: &mut Context<'_, Word>, phase: usize) {
        self.sent = 0;
        let v = ctx.node() as u64;
        if (v + phase as u64).is_multiple_of(5) {
            // Two transmissions from one sender in one round.
            ctx.broadcast(Word(mix(v, phase as u64)));
            ctx.broadcast(Word(mix(v + 1, phase as u64)));
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Word>, from: usize, msg: &Word) {
        self.log.push((ctx.round(), from, msg.0));
        self.acc = mix(self.acc ^ msg.0, from as u64);
        if self.sent < ECHO_BUDGET && self.acc.is_multiple_of(3) {
            self.sent += 1;
            ctx.broadcast(Word(self.acc));
            if self.acc.is_multiple_of(6) {
                ctx.broadcast(Word(self.acc >> 1));
            }
        }
    }
}

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
    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        let len = ws.into_iter().inspect(|&w| self.word(w)).count();
        self.word(len as u64);
    }

    /// One run: the phase reports, every node's log, the message counts
    /// and the fault report.
    fn run(
        &mut self,
        phases: &[PhaseReport],
        nodes: &[Echo],
        stats: &MessageStats,
        r: &FaultReport,
    ) {
        self.words(
            phases
                .iter()
                .flat_map(|p| [p.rounds as u64, p.messages as u64]),
        );
        for node in nodes {
            self.words(
                node.log
                    .iter()
                    .flat_map(|&(round, from, payload)| [round as u64, from as u64, payload]),
            );
        }
        self.words(stats.sent_per_node().iter().map(|&c| c as u64));
        for (kind, &count) in stats.per_kind() {
            self.words(kind.bytes().map(u64::from).chain([count as u64]));
        }
        self.words(
            [
                r.dropped,
                r.duplicated,
                r.retransmissions,
                r.gave_up,
                r.rounds,
            ]
            .map(|c| c as u64),
        );
        self.words(r.crashed.iter().map(|&v| v as u64));
    }
}

/// The radios the order pin covers: perfect; 20 % loss plus a crash at
/// round 3 under the default ack/retransmit layer; 30 % duplication
/// under the same layer; and delays in `1..=3`.
fn order_radios(n: usize, seed: u64) -> [Radio; 4] {
    let mut radios: [Radio; 4] = Default::default();
    radios[1].faults = FaultPlan::new(seed).with_loss(0.2).with_crash(n / 3, 3);
    radios[2].faults = FaultPlan::new(seed).with_duplication(0.3);
    radios[3].jitter = Some((3, seed));
    radios
}

/// The order in which the engine delivers, emits and enqueues is part of
/// its contract: the same deployment and radio give every node the same
/// `(round, from, payload)` sequence and the same statistics, run after
/// run and across changes to the engine.
#[test]
fn delivery_order_golden_digests() {
    let mut h = [Fnv::NEW, Fnv::NEW, Fnv::NEW, Fnv::NEW];
    for (n, radius, seed) in [(40, 30.0, 3u64), (60, 25.0, 11), (90, 20.0, 42)] {
        let g = UnitDiskBuilder::new(radius).build(&uniform_points(n, 100.0, seed));
        for (h, radio) in h.iter_mut().zip(order_radios(n, seed)) {
            let mut net = Network::new(&g, |_| Echo::default()).with_radio(&radio);
            let phases = net
                .run_phases(2, net.round_budget())
                .expect("echo quiesces");
            let (nodes, stats, report) = net.into_outcome();
            h.run(&phases, &nodes, &stats, &report);
        }
    }
    assert_eq!(
        h.map(|h| h.0),
        [
            14774313505736648677,
            1277229962493220869,
            4842546206183350113,
            359435843833678641
        ]
    );
}
