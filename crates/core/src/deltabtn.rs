//! The live, patchable BTN behind the incremental engines.
//!
//! Both delta-resolution engines — [`crate::incremental`] (Algorithm 1)
//! and [`crate::skeptic_incremental`] (Algorithm 2) — maintain the same
//! structural state: a [`Btn`] kept equivalent to the evolving network,
//! per-user parent lists, a forward child adjacency, and a free list that
//! recycles the synthetic cascade nodes of Figure 9 across rebuilds. This
//! module owns that machinery once; the engines layer their cached
//! solutions (possible sets / `repPoss`) on top through the
//! [`NodeSideTables`] hook.
//!
//! The key properties the engines rely on:
//!
//! * **Bulk build** — the BTN is born as [`crate::binary::binarize`] lays
//!   it out, in one pass; the engines seed it with one whole-network
//!   solve.
//! * **Persistent belief roots** — a user's synthetic `x0` root survives
//!   belief-value flips and revocations, so those edits are non-structural
//!   (only the explicit belief at one existing node changes).
//! * **Targeted re-binarization** — a new trust mapping rebuilds only the
//!   edited user's cascade, recycling its freed interior nodes; the rest
//!   of the BTN is untouched.
//! * **Seed reporting** — every node whose structure or belief changed is
//!   pushed onto the caller's seed list, which the engines forward-close
//!   into their dirty regions.

use crate::binary::{binarize_with_spare, cascade, push_node, Btn, NodeKind, Parents};
use crate::network::TrustNetwork;
use crate::signed::ExplicitBelief;
use crate::user::User;
use std::sync::Arc;
use trustmap_graph::NodeId;

/// Engine-owned node-indexed side tables that must track the BTN's node
/// count and forget the state of recycled nodes.
pub(crate) trait NodeSideTables {
    /// The BTN grew to `n` nodes; side arrays must cover `0..n`.
    fn grow(&mut self, n: usize);
    /// Node `x` was freed (recycled into the allocator); clear any cached
    /// solution state so its next incarnation starts blank.
    fn reset(&mut self, x: NodeId);
    /// Reserve room for `additional` more nodes in every side array (see
    /// [`DeltaBtn::reserve_side`]).
    fn reserve(&mut self, additional: usize);
}

/// The live BTN plus the structural side state needed to patch it.
#[derive(Debug, Clone)]
pub(crate) struct DeltaBtn {
    /// The binarized network being maintained. Built with
    /// [`crate::binary::binarize`]'s layout; edits then recycle synthetic
    /// nodes and append late users, so it stays structurally equivalent
    /// to a fresh binarization under its own layout — always address
    /// users through [`Btn::node_of`].
    pub btn: Btn,
    /// Per-user parent lists `(parent node, priority)` in declaration
    /// order — the engine-side mirror of the network's mappings, so edits
    /// never rescan the global mapping table.
    pub plists: Vec<Vec<(NodeId, i64)>>,
    /// Forward adjacency (parent → children), kept in sync with `btn`'s
    /// `Parents` under cascade rebuilds.
    pub children: Vec<Vec<NodeId>>,
    /// Per-user interior cascade nodes (the `y_i` of Figure 9), owned so a
    /// rebuild knows exactly which nodes to recycle.
    cascade_nodes: Vec<Vec<NodeId>>,
    /// Recycled synthetic node ids.
    free: Vec<NodeId>,
}

/// Spare capacity, in nodes, a bulk build leaves in every node table of
/// `nodes` nodes: as many again — the headroom push-growth's doubling
/// leaves. Laid out at exact size, the tables would all re-allocate at
/// once on the first structural edit.
fn headroom(nodes: usize) -> usize {
    nodes
}

impl DeltaBtn {
    /// Builds the live BTN for `net` in one bulk pass: binarization's
    /// nodes and layout, with the per-user parent lists, the child
    /// adjacency and each user's cascade nodes derived from it. The
    /// engines then seed their solution with one whole-network solve over
    /// [`DeltaBtn::btn`] and give their own node tables the same headroom
    /// through [`DeltaBtn::reserve_side`]; [`DeltaBtn::reconcile_user`]
    /// is for edits only.
    pub fn new(net: &TrustNetwork) -> DeltaBtn {
        let btn = binarize_with_spare(net, headroom);
        let mut plists: Vec<Vec<(NodeId, i64)>> = vec![Vec::new(); net.user_count()];
        for m in net.mappings() {
            plists[m.child.index()].push((m.parent.0, m.priority));
        }
        let nodes = btn.node_count();
        let mut out_degree = vec![0u32; nodes];
        for z in btn.parents.iter().flat_map(Parents::iter) {
            out_degree[z as usize] += 1;
        }
        let mut children: Vec<Vec<NodeId>> = Vec::with_capacity(nodes + headroom(nodes));
        children.extend(
            out_degree
                .into_iter()
                .map(|d| Vec::with_capacity(d as usize)),
        );
        let mut cascade_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); net.user_count()];
        for x in btn.nodes() {
            for z in btn.parents[x as usize].iter() {
                children[z as usize].push(x);
            }
            // Binarization allocates each cascade's interior nodes in
            // ascending order, as a rebuild would.
            if let NodeKind::Cascade(u, _) = btn.kind[x as usize] {
                cascade_nodes[u.index()].push(x);
            }
        }
        DeltaBtn {
            btn,
            plists,
            children,
            cascade_nodes,
            free: Vec::new(),
        }
    }

    /// Gives the engine's `side` tables, solved at exact size, the
    /// headroom the BTN's own tables were built with.
    pub fn reserve_side(&self, side: &mut dyn NodeSideTables) {
        side.reserve(headroom(self.btn.node_count()));
    }

    /// Appends nodes for users created in `net` since the last sync and
    /// refreshes the shared value domain.
    pub fn grow_users(&mut self, net: &TrustNetwork, side: &mut dyn NodeSideTables) {
        for u in self.btn.user_count..net.user_count() {
            let user = User(u as u32);
            let id = push_node(&mut self.btn, ExplicitBelief::None, NodeKind::User(user));
            self.btn.user_node.push(id);
            self.btn.belief_root.push(None);
            self.btn.user_count += 1;
            self.plists.push(Vec::new());
            self.cascade_nodes.push(Vec::new());
            let n = self.btn.node_count();
            self.children.resize_with(n, Vec::new);
            side.grow(n);
        }
        // New names share the network's tables (a handle copy each).
        if self.btn.user_names.len() != net.user_count() {
            self.btn.user_names = Arc::clone(net.user_names());
        }
        if self.btn.domain.len() != net.domain().len() {
            self.btn.domain = net.domain().clone();
        }
    }

    /// Adds `node` to its parents' child lists.
    fn link(&mut self, node: NodeId) {
        for z in self.btn.parents[node as usize].iter() {
            self.children[z as usize].push(node);
        }
    }

    /// Removes `node` from its parents' child lists.
    fn unlink(&mut self, node: NodeId) {
        for z in self.btn.parents[node as usize].iter() {
            let list = &mut self.children[z as usize];
            if let Some(pos) = list.iter().position(|&c| c == node) {
                list.swap_remove(pos);
            }
        }
    }

    /// Frees a synthetic node back into the allocator, resetting its
    /// structural and engine-side state.
    fn recycle(&mut self, node: NodeId, side: &mut dyn NodeSideTables) {
        self.btn.parents[node as usize] = Parents::None;
        self.btn.beliefs[node as usize] = ExplicitBelief::None;
        self.children[node as usize].clear();
        side.reset(node);
        self.free.push(node);
    }

    /// Allocates (or recycles) a synthetic node.
    fn alloc_node(&mut self, kind: NodeKind, side: &mut dyn NodeSideTables) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.btn.kind[id as usize] = kind;
            id
        } else {
            let id = push_node(&mut self.btn, ExplicitBelief::None, kind);
            let n = self.btn.node_count();
            self.children.resize_with(n, Vec::new);
            side.grow(n);
            id
        }
    }

    /// Rebuilds user `u`'s belief root and cascade from the stored parent
    /// list — the targeted re-binarization of one user's neighborhood.
    /// Every node whose structure or belief changed is pushed onto
    /// `seeds`.
    pub fn reconcile_user(
        &mut self,
        net: &TrustNetwork,
        u: User,
        seeds: &mut Vec<NodeId>,
        side: &mut dyn NodeSideTables,
    ) {
        let x = self.btn.node_of(u);
        // Detach the old structure, recycling interior cascade nodes.
        self.unlink(x);
        let old_interiors = std::mem::take(&mut self.cascade_nodes[u.index()]);
        for y in old_interiors {
            self.unlink(y);
            self.recycle(y, side);
        }

        let mut plist = self.plists[u.index()].clone();
        let b0 = net.belief(u).clone();
        if b0.is_some() {
            if plist.is_empty() {
                // Parentless believers stay roots (binarize step 1).
                self.btn.belief_root[u.index()] = Some(x);
                self.btn.beliefs[x as usize] = b0;
            } else {
                // The belief moves to a persistent highest-priority root x0.
                let x0 = match self.btn.belief_root[u.index()] {
                    Some(r) if r != x => r,
                    _ => {
                        let id = self.alloc_node(NodeKind::BeliefRoot(u), side);
                        self.btn.belief_root[u.index()] = Some(id);
                        id
                    }
                };
                self.btn.beliefs[x0 as usize] = b0;
                self.btn.beliefs[x as usize] = ExplicitBelief::None;
                self.btn.parents[x0 as usize] = Parents::None;
                let top = plist.iter().map(|&(_, p)| p).max().expect("nonempty");
                plist.push((x0, top.saturating_add(1)));
                seeds.push(x0);
            }
        } else {
            match self.btn.belief_root[u.index()] {
                Some(r) if r != x => {
                    // Free the synthetic root entirely.
                    self.recycle(r, side);
                }
                Some(_) => {
                    self.btn.beliefs[x as usize] = ExplicitBelief::None;
                }
                None => {}
            }
            self.btn.belief_root[u.index()] = None;
        }

        // Rebuild the cascade (Figure 9) for the new parent list.
        match plist.len() {
            0 => self.btn.parents[x as usize] = Parents::None,
            1 => self.btn.parents[x as usize] = Parents::One(plist[0].0),
            _ => {
                plist.sort_by_key(|&(_, p)| p);
                // Split borrows: `cascade` mutates `btn` while the
                // allocator updates the structural side tables.
                let free = &mut self.free;
                let cascade_u = &mut self.cascade_nodes[u.index()];
                let children = &mut self.children;
                cascade(&mut self.btn, x, &plist, &mut |btn, i| {
                    let kind = NodeKind::Cascade(u, i as u32);
                    let id = if let Some(id) = free.pop() {
                        btn.kind[id as usize] = kind;
                        id
                    } else {
                        let id = push_node(btn, ExplicitBelief::None, kind);
                        children.push(Vec::new());
                        side.grow(btn.node_count());
                        id
                    };
                    cascade_u.push(id);
                    id
                });
            }
        }

        // Reattach the rebuilt structure.
        self.link(x);
        let interiors = std::mem::take(&mut self.cascade_nodes[u.index()]);
        for &y in &interiors {
            self.link(y);
            seeds.push(y);
        }
        self.cascade_nodes[u.index()] = interiors;
        seeds.push(x);
    }
}
