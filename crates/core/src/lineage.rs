//! Lineage retrieval (Section 2.5, "Retrieving lineage").
//!
//! Whenever Algorithm 1 inserts a value `v` into `poss(x)`, it stores a
//! pointer back to a `(node, value)` pair that produced it: the preferred
//! parent for Step 1, and every contributing `(closed parent, value)` pair
//! for Step 2 floods. Following the pointers from `(x, v)` reaches a root
//! whose explicit belief is `v` — each possible value has at least one
//! lineage the system can return to the user. As the paper notes, the
//! recording is sound but not complete: Step 1 skips lineages that arrive
//! later over non-preferred edges.

use crate::value::Value;
use std::collections::HashMap;
use trustmap_graph::NodeId;

/// Lineage pointers recorded during resolution.
#[derive(Debug, Clone)]
pub struct Lineage {
    /// `sources[x][v]` = nodes whose possible value `v` produced `v` at `x`.
    sources: Vec<HashMap<Value, Vec<NodeId>>>,
    /// Nodes that were flooded together with `x` (its SCC), used to expand a
    /// pointer hop into an explicit path if desired.
    scc_peers: Vec<Option<Vec<NodeId>>>,
}

impl Lineage {
    pub(crate) fn new(n: usize) -> Self {
        Lineage {
            sources: vec![HashMap::new(); n],
            scc_peers: vec![None; n],
        }
    }

    pub(crate) fn record_preferred(&mut self, x: NodeId, parent: NodeId, values: &[Value]) {
        let entry = &mut self.sources[x as usize];
        for &v in values {
            entry.entry(v).or_default().push(parent);
        }
    }

    pub(crate) fn record_flood(
        &mut self,
        x: NodeId,
        values: &[Value],
        external: &[(NodeId, Value)],
        scc: &[NodeId],
    ) {
        let entry = &mut self.sources[x as usize];
        for &v in values {
            let from: Vec<NodeId> = external
                .iter()
                .filter(|&&(_, w)| w == v)
                .map(|&(z, _)| z)
                .collect();
            entry.entry(v).or_default().extend(from);
        }
        self.scc_peers[x as usize] = Some(scc.to_vec());
    }

    /// The immediate lineage sources of value `v` at node `x`: nodes whose
    /// own possible value `v` flowed into `x`. Empty for roots.
    pub fn sources(&self, x: NodeId, v: Value) -> &[NodeId] {
        self.sources[x as usize]
            .get(&v)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The SCC that was flooded together with `x`, if `x` was closed in
    /// Step 2.
    pub fn flood_peers(&self, x: NodeId) -> Option<&[NodeId]> {
        self.scc_peers[x as usize].as_deref()
    }

    /// Traces one lineage chain from `(x, v)` back to a root: the sequence
    /// of lineage hops `x, z_1, z_2, …, root`. Step-2 hops jump from an SCC
    /// member directly to the external contributor.
    ///
    /// Returns `None` when `v` is not a recorded possible value of `x` with
    /// a lineage (e.g. `x` is a root or unresolved).
    pub fn trace(&self, x: NodeId, v: Value) -> Option<Vec<NodeId>> {
        let mut chain = vec![x];
        let mut cur = x;
        loop {
            let srcs = self.sources(cur, v);
            match srcs.first() {
                Some(&z) => {
                    // Lineage pointers always reference nodes closed strictly
                    // earlier, so this cannot cycle.
                    chain.push(z);
                    cur = z;
                }
                None => {
                    // Either a root (chain complete) or a dead end (v was
                    // never recorded at x).
                    return if chain.len() > 1 || !self.sources[x as usize].is_empty() {
                        Some(chain)
                    } else {
                        None
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::network::TrustNetwork;
    use crate::resolution::{resolve_with, Options};

    #[test]
    fn lineage_traces_to_root() {
        // root -> a -> b (preferred chain).
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let b = net.user("b");
        let root = net.user("root");
        let v = net.value("v");
        net.trust(a, root, 10).unwrap();
        net.trust(b, a, 10).unwrap();
        net.believe(root, v).unwrap();
        let btn = crate::binary::binarize(&net);
        let res = resolve_with(
            &btn,
            Options {
                lineage: true,
                ..Default::default()
            },
        )
        .unwrap();
        let lin = res.lineage().unwrap();
        let chain = lin.trace(btn.node_of(b), v).unwrap();
        assert_eq!(
            chain,
            vec![btn.node_of(b), btn.node_of(a), btn.node_of(root)]
        );
        // The root itself has no lineage.
        assert!(lin.trace(btn.node_of(root), v).is_none());
    }

    #[test]
    fn flood_lineage_points_outside_scc() {
        // Two oscillators fed by a v-root and a w-root: the cycle {a, b}
        // with equal priorities, and Figure 4b's {x1, x2}, whose every
        // cycle edge is preferred.
        let mut osc = TrustNetwork::new();
        let [a, b, r1, r2] = ["a", "b", "r1", "r2"].map(|n| osc.user(n));
        let [v, w] = ["v", "w"].map(|n| osc.value(n));
        osc.trust(a, b, 100).unwrap();
        osc.trust(b, a, 100).unwrap();
        osc.trust(a, r1, 50).unwrap();
        osc.trust(b, r2, 50).unwrap();
        osc.believe(r1, v).unwrap();
        osc.believe(r2, w).unwrap();
        let mut fig4b = TrustNetwork::new();
        let [x1, x2, x3, x4] = ["x1", "x2", "x3", "x4"].map(|n| fig4b.user(n));
        let [v, w] = ["v", "w"].map(|n| fig4b.value(n));
        fig4b.trust(x1, x2, 100).unwrap();
        fig4b.trust(x1, x3, 80).unwrap();
        fig4b.trust(x2, x1, 50).unwrap();
        fig4b.trust(x2, x4, 40).unwrap();
        fig4b.believe(x3, v).unwrap();
        fig4b.believe(x4, w).unwrap();

        for (net, [a, b]) in [(osc, [a, b]), (fig4b, [x1, x2])] {
            let btn = crate::binary::binarize(&net);
            let res = resolve_with(
                &btn,
                Options {
                    lineage: true,
                    ..Default::default()
                },
            )
            .unwrap();
            let lin = res.lineage().unwrap();
            let na = btn.node_of(a);
            assert_eq!(res.poss(na), &[v, w]);
            for value in [v, w] {
                // Each value came from its root (possibly through a
                // cascade node).
                let chain = lin.trace(na, value).unwrap();
                assert_eq!(*chain.first().unwrap(), na);
                let root_of_chain = *chain.last().unwrap();
                assert_eq!(btn.belief(root_of_chain).positive(), Some(value));
            }
            // a and b were flooded together (their SCC includes both,
            // possibly with cascade nodes).
            let peers = lin.flood_peers(na).unwrap();
            assert!(peers.contains(&btn.node_of(b)) || peers.contains(&na));
        }
    }
}
