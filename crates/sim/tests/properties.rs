//! Property tests for the simulator: flooding semantics on arbitrary
//! communication graphs.

use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
use geospan_graph::Graph;
use geospan_sim::{Context, MessageKind, Network, Protocol, Radio};
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
