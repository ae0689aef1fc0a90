//! Graph diameter utilities.
//!
//! The paper studies how spanning ratios and message costs vary with the
//! diameter of the unit disk graph (varied through the transmission
//! radius); these helpers report it.

use rayon::prelude::*;

use crate::paths::{bfs_hops, dijkstra_lengths};
use crate::Graph;

/// The hop diameter: the largest finite hop distance between any pair.
///
/// Returns `None` for graphs with fewer than 2 nodes. Disconnected pairs
/// are ignored (the diameter of the largest distances that exist). The
/// `n` independent searches ([`bfs_hops`]) run in parallel over the
/// graph's CSR rows, and their maxima are folded serially in source
/// order.
pub fn hop_diameter(g: &Graph) -> Option<u32> {
    let n = g.node_count();
    if n < 2 {
        return None;
    }
    let per_source: Vec<Option<u32>> = (0..n)
        .into_par_iter()
        .map(|u| bfs_hops(g, u).into_iter().flatten().max())
        .collect();
    per_source.into_iter().flatten().max()
}

/// The Euclidean-length diameter: the largest finite shortest-path length
/// between any pair.
///
/// Returns `None` for graphs with fewer than 2 nodes. One
/// [`dijkstra_lengths`] search per source, parallelized like
/// [`hop_diameter`].
pub fn length_diameter(g: &Graph) -> Option<f64> {
    let n = g.node_count();
    if n < 2 {
        return None;
    }
    let per_source: Vec<Option<f64>> = (0..n)
        .into_par_iter()
        .map(|u| {
            let mut best: Option<f64> = None;
            for d in dijkstra_lengths(g, u).into_iter().flatten() {
                if best.is_none_or(|b| d > b) {
                    best = Some(d);
                }
            }
            best
        })
        .collect();
    let mut best: Option<f64> = None;
    for d in per_source.into_iter().flatten() {
        if best.is_none_or(|b| d > b) {
            best = Some(d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use geospan_geometry::Point;

    fn chain(n: usize) -> Graph {
        let pts = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        Graph::with_edges(pts, (0..n - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn chain_diameters() {
        let g = chain(6);
        assert_eq!(hop_diameter(&g), Some(5));
        assert_eq!(length_diameter(&g), Some(5.0));
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(hop_diameter(&Graph::new(vec![])), None);
        assert_eq!(hop_diameter(&Graph::new(vec![Point::ORIGIN])), None);
        assert_eq!(length_diameter(&Graph::new(vec![Point::ORIGIN])), None);
    }

    #[test]
    fn disconnected_uses_finite_pairs() {
        let mut g = chain(4);
        g.remove_edge(1, 2);
        // Components {0,1} and {2,3}: largest finite hop distance is 1.
        assert_eq!(hop_diameter(&g), Some(1));
    }
}
