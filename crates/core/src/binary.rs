//! Binary trust networks and binarization (Proposition 2.8, Appendix B.3).
//!
//! A *binary trust network* (BTN) restricts every node to at most two
//! incoming edges and allows explicit beliefs only on root nodes. Every
//! general trust network is equivalent to a BTN of at most triple total size
//! (Figure 11): nodes with `k > 2` parents are expanded into a cascade of
//! binary combination steps, ordered from lower- to higher-priority parents
//! (the ordering matters for cyclic networks — see Figure 12).
//!
//! The cascade follows the five rules of Figure 9 exactly; see
//! [`binarize`] for the construction and the per-rule comments.
//!
//! **Known limitation (paper erratum E5, `tests/binarization_erratum.rs`):**
//! for *cyclic* networks where a tied parent group sits above a
//! lower-priority parent of the same child, the cascade is not
//! equivalence-preserving — the binarized network can admit values the
//! source network forbids, because the lower parent is dominated by the
//! tie's single surviving value instead of every tied member. Tie-free
//! networks are unaffected. This and every other documented deviation is
//! collected in `docs/FIDELITY.md` at the repository root.

use crate::names::NameTable;
use crate::network::TrustNetwork;
use crate::signed::ExplicitBelief;
use crate::user::User;
use crate::value::Domain;
use std::fmt;
use std::sync::Arc;
use trustmap_graph::{Csr, DiGraph, NodeId};

/// The (at most two) parents of a BTN node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parents {
    /// A root (no incoming edges).
    None,
    /// A single parent; a sole parent is by definition *preferred*.
    One(NodeId),
    /// Two parents with distinct priorities: `high` is preferred.
    Pref {
        /// The preferred (higher-priority) parent.
        high: NodeId,
        /// The non-preferred parent.
        low: NodeId,
    },
    /// Two parents with equal priorities; neither is preferred.
    Tied(NodeId, NodeId),
}

impl Parents {
    /// The preferred parent, if one exists.
    pub fn preferred(&self) -> Option<NodeId> {
        match *self {
            Parents::One(z) => Some(z),
            Parents::Pref { high, .. } => Some(high),
            _ => None,
        }
    }

    /// Both parents in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + Clone {
        let (a, b) = match *self {
            Parents::None => (None, None),
            Parents::One(z) => (Some(z), None),
            Parents::Pref { high, low } => (Some(high), Some(low)),
            Parents::Tied(a, b) => (Some(a), Some(b)),
        };
        a.into_iter().chain(b)
    }

    /// Whether this node has no parents.
    pub fn is_root(&self) -> bool {
        matches!(self, Parents::None)
    }

    /// Number of parents (0, 1, or 2).
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Parents::None => 0,
            Parents::One(_) => 1,
            Parents::Pref { .. } | Parents::Tied(..) => 2,
        }
    }

    /// Whether there are no parents (clippy-companion of [`Parents::len`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.is_root()
    }
}

/// What a BTN node stands for — all a node stores of its identity; its
/// display name is rendered from this on demand ([`Btn::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeKind {
    /// The node of a user of the source network.
    User(User),
    /// The synthetic root `x0` carrying the owner's explicit belief.
    BeliefRoot(User),
    /// Interior node `y_i` of the owner's cascade (Figure 9).
    Cascade(User, u32),
}

/// The display name of a BTN node: the user's name, or `<owner>::b0` /
/// `<owner>::y<i>` for synthetic nodes. Borrowed from the [`Btn`];
/// `to_string()` it to keep it.
#[derive(Debug, Clone, Copy)]
pub struct NodeName<'a> {
    users: &'a NameTable,
    kind: NodeKind,
}

impl fmt::Display for NodeName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            NodeKind::User(u) => f.write_str(self.users.name(u.0)),
            NodeKind::BeliefRoot(u) => write!(f, "{}::b0", self.users.name(u.0)),
            NodeKind::Cascade(u, i) => write!(f, "{}::y{i}", self.users.name(u.0)),
        }
    }
}

/// A binary trust network: the normal form all resolution algorithms run on.
///
/// Nodes `0..user_count` correspond one-to-one to the users of the source
/// [`TrustNetwork`]; higher node ids are synthetic (explicit-belief roots
/// `x0` and cascade nodes `y_i` from Appendix B.3). Stable solutions of the
/// BTN restricted to the original users coincide with those of the source
/// network (Proposition 2.8).
#[derive(Debug, Clone)]
pub struct Btn {
    pub(crate) domain: Domain,
    pub(crate) beliefs: Vec<ExplicitBelief>,
    pub(crate) parents: Vec<Parents>,
    pub(crate) kind: Vec<NodeKind>,
    /// The source network's user names (shared, not copied).
    pub(crate) user_names: Arc<NameTable>,
    pub(crate) user_count: usize,
    pub(crate) belief_root: Vec<Option<NodeId>>,
    /// `user_node[u]` = the node representing user `u`. [`binarize`] lays
    /// users out as nodes `0..user_count` (identity); the incremental
    /// resolver appends late-created users after synthetic nodes, so the
    /// indirection keeps [`Btn::node_of`] correct in both cases.
    pub(crate) user_node: Vec<NodeId>,
}

impl Btn {
    /// The nodes of `net`'s users alone, node `u` for user `u`: no
    /// parents, beliefs or synthetic nodes yet, and room for `capacity`
    /// nodes in every node table.
    fn of_users(net: &TrustNetwork, capacity: usize) -> Btn {
        let n = net.user_count();
        let mut beliefs = Vec::with_capacity(capacity);
        beliefs.resize(n, ExplicitBelief::None);
        let mut parents = Vec::with_capacity(capacity);
        parents.resize(n, Parents::None);
        let mut kind = Vec::with_capacity(capacity);
        kind.extend((0..n as u32).map(|u| NodeKind::User(User(u))));
        Btn {
            domain: net.domain().clone(),
            beliefs,
            parents,
            kind,
            user_names: Arc::clone(net.user_names()),
            user_count: n,
            belief_root: vec![None; n],
            user_node: (0..n as NodeId).collect(),
        }
    }

    /// Number of nodes (original users + synthetic nodes).
    pub fn node_count(&self) -> usize {
        self.parents.len()
    }

    /// Number of edges (trust mappings) in the BTN.
    pub fn edge_count(&self) -> usize {
        self.parents.iter().map(|p| p.iter().count()).sum()
    }

    /// The BTN size `|U| + |E|`.
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Number of original users; node `u` represents user `u` for
    /// `u < user_count`.
    pub fn user_count(&self) -> usize {
        self.user_count
    }

    /// The node representing `user`.
    pub fn node_of(&self, user: User) -> NodeId {
        self.user_node[user.index()]
    }

    /// The original user represented by `node`, if it is not synthetic.
    pub fn origin(&self, node: NodeId) -> Option<User> {
        match self.kind[node as usize] {
            NodeKind::User(u) => Some(u),
            _ => None,
        }
    }

    /// The user whose structure `node` belongs to: the user of a user
    /// node, the owner of a synthetic belief root or cascade node.
    pub(crate) fn owner(&self, node: NodeId) -> User {
        match self.kind[node as usize] {
            NodeKind::User(u) | NodeKind::BeliefRoot(u) | NodeKind::Cascade(u, _) => u,
        }
    }

    /// The explicit belief attached to `node` (non-`None` only on roots).
    pub fn belief(&self, node: NodeId) -> &ExplicitBelief {
        &self.beliefs[node as usize]
    }

    /// The parent structure of `node`.
    pub fn parents(&self, node: NodeId) -> &Parents {
        &self.parents[node as usize]
    }

    /// The preferred parent of `node`, if any.
    pub fn preferred_parent(&self, node: NodeId) -> Option<NodeId> {
        self.parents[node as usize].preferred()
    }

    /// Root nodes carrying explicit beliefs.
    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as NodeId)
            .filter(|&x| self.parents[x as usize].is_root() && self.beliefs[x as usize].is_some())
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count() as NodeId
    }

    /// Whether any node's priorities are tied.
    pub fn has_ties(&self) -> bool {
        self.parents.iter().any(|p| matches!(p, Parents::Tied(..)))
    }

    /// Whether any root carries negative explicit beliefs.
    pub fn has_negative_beliefs(&self) -> bool {
        self.beliefs.iter().any(|b| b.has_negatives())
    }

    /// The value domain (shared with the source network).
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Display name for `node` (user name, or synthetic marker).
    pub fn name(&self, node: NodeId) -> NodeName<'_> {
        NodeName {
            users: &self.user_names,
            kind: self.kind[node as usize],
        }
    }

    /// The root node carrying `user`'s explicit belief: the user's own node
    /// if they are parentless, or the synthetic `x0` root created by
    /// binarization. `None` if the user holds no explicit belief.
    ///
    /// Bulk resolution (Section 4) seeds per-object values at these nodes.
    pub fn belief_root(&self, user: User) -> Option<NodeId> {
        self.belief_root[user.index()]
    }

    /// Replaces the explicit belief at a root node, e.g. to re-seed the same
    /// network structure with another object's values (Section 4 assumes the
    /// set of believers is identical across objects).
    ///
    /// # Panics
    /// Panics if `node` is not a root.
    pub fn set_root_belief(&mut self, node: NodeId, belief: ExplicitBelief) {
        assert!(
            self.parents[node as usize].is_root(),
            "beliefs can only be re-seeded at root nodes"
        );
        self.beliefs[node as usize] = belief;
    }

    /// The edge graph (parent → child), with reverse adjacency built.
    pub fn graph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.node_count());
        for x in 0..self.node_count() as NodeId {
            for z in self.parents[x as usize].iter() {
                g.add_edge(z, x);
            }
        }
        g.build_in_adjacency();
        g
    }

    /// The edge graph (parent → child) as a flat [`Csr`] — the
    /// representation the resolution hot loop traverses. In-adjacency needs
    /// no companion structure: every node's (≤ 2) in-edges are its
    /// [`Parents`].
    pub fn csr(&self) -> Csr {
        let n = self.node_count();
        let edges =
            (0..n as NodeId).flat_map(|x| self.parents[x as usize].iter().map(move |z| (z, x)));
        Csr::from_edges(n, edges)
    }
}

/// Binarizes a general trust network (Proposition 2.8).
///
/// Steps, following Appendix B.3:
/// 1. Every user `x` holding an explicit belief *and* at least one parent is
///    given a fresh root `x0` carrying the belief, wired as `x`'s strictly
///    highest-priority parent.
/// 2. Every node with `k > 2` parents (or 2 parents, uniformly) is expanded
///    into a cascade `y_2 … y_k = x` ordered by ascending priority, applying
///    rules (a)–(e) of Figure 9. Equal-priority parents form tied sub-trees;
///    strictly dominating parents enter through preferred edges.
pub fn binarize(net: &TrustNetwork) -> Btn {
    binarize_with_spare(net, |_| 0)
}

/// [`binarize`], leaving room in every node table for `spare(nodes)` more
/// nodes than it lays out — for a BTN that edits will grow.
pub(crate) fn binarize_with_spare(net: &TrustNetwork, spare: impl FnOnce(usize) -> usize) -> Btn {
    let n = net.user_count();

    // Parent lists `(parent node, priority)` of all children in one array,
    // child `x` at `start[x]..start[x + 1]`, in declaration order so
    // tie-breaking is deterministic; a believer with parents has one more
    // slot, at the end, for its belief root. Counting first also gives the
    // final node count, so no per-node vector grows below.
    let mut start = vec![0usize; n + 1];
    for m in net.mappings() {
        start[m.child.index() + 1] += 1;
    }
    let mut synthetic = 0;
    for x in 0..n {
        let declared = start[x + 1];
        let rooted = declared > 0 && net.belief(User(x as u32)).is_some();
        let k = declared + rooted as usize;
        synthetic += rooted as usize + k.saturating_sub(2);
        start[x + 1] = start[x] + k;
    }
    let mut plists = vec![(0 as NodeId, 0i64); start[n]];
    let mut fill = start[..n].to_vec();
    for m in net.mappings() {
        let at = &mut fill[m.child.index()];
        plists[*at] = (m.parent.0, m.priority);
        *at += 1;
    }

    let mut btn = Btn::of_users(net, n + synthetic + spare(n + synthetic));

    for x in 0..n {
        let user = User(x as u32);
        let b0 = net.belief(user);
        if b0.is_some() {
            if start[x] == start[x + 1] {
                // Parentless believers stay roots.
                btn.beliefs[x] = b0.clone();
                btn.belief_root[x] = Some(x as NodeId);
            } else {
                // Step 1: move the belief to a fresh highest-priority root x0.
                let x0 = push_node(&mut btn, b0.clone(), NodeKind::BeliefRoot(user));
                btn.belief_root[x] = Some(x0);
                let declared = &plists[start[x]..fill[x]];
                let top = declared.iter().map(|&(_, p)| p).max().expect("nonempty");
                plists[fill[x]] = (x0, top.saturating_add(1));
            }
        }
    }

    for x in 0..n {
        let plist = &mut plists[start[x]..start[x + 1]];
        match plist.len() {
            0 => {}
            1 => btn.parents[x] = Parents::One(plist[0].0),
            _ => {
                // Ascending priority; stable for deterministic tie layout.
                plist.sort_by_key(|&(_, p)| p);
                cascade(&mut btn, x as NodeId, plist, &mut |btn, i| {
                    let kind = NodeKind::Cascade(User(x as u32), i as u32);
                    push_node(btn, ExplicitBelief::None, kind)
                });
            }
        }
    }
    debug_assert_eq!(btn.node_count(), n + synthetic);
    btn
}

pub(crate) fn push_node(btn: &mut Btn, belief: ExplicitBelief, kind: NodeKind) -> NodeId {
    let id = btn.parents.len() as NodeId;
    btn.beliefs.push(belief);
    btn.parents.push(Parents::None);
    btn.kind.push(kind);
    id
}

/// Expands node `x` with sorted parent list `plist` (ascending priority)
/// into the cascade of Figure 9. Indices below are 1-based to match the
/// paper's rules; `y_i` is the cascade node created at step `i`.
///
/// Interior cascade nodes are obtained through `alloc(btn, i)` so callers
/// control allocation: [`binarize`] appends fresh nodes, while the
/// incremental resolver recycles nodes freed by earlier cascade rebuilds.
pub(crate) fn cascade(
    btn: &mut Btn,
    x: NodeId,
    plist: &[(NodeId, i64)],
    alloc: &mut dyn FnMut(&mut Btn, usize) -> NodeId,
) {
    let k = plist.len();
    debug_assert!(k >= 2);
    // 1-based accessors.
    let z = |i: usize| plist[i - 1].0;
    let p = |i: usize| plist[i - 1].1;

    // `prev` is y_{i-1}; `below` is y_{j-1} for the first member j of
    // i's priority group — everything accumulated under that group.
    let mut prev = z(1);
    let mut below = prev;
    for i in 2..=k {
        if p(i - 1) != p(i) {
            below = prev;
        }
        let y = if i == k { x } else { alloc(btn, i) };
        // x = y_k is treated as if p(k) < p(k+1): only rules (a), (d), (e).
        let pnext = (i < k).then(|| p(i + 1));
        let parents = if p(i - 1) == p(i) {
            if p(1) == p(i) {
                // (a) p1 = p_{i-1} = p_i: extend the lowest tied group.
                Parents::Tied(prev, z(i))
            } else if pnext == Some(p(i)) {
                // (c) p1 < p_{i-1} = p_i = p_{i+1}: extend an inner tied
                // group with its next member.
                Parents::Tied(prev, z(i + 1))
            } else {
                // (d) p1 < p_{i-1} = p_i < p_{i+1}: close the tied group —
                // its combined sub-tree y_{i-1} dominates everything below
                // the group (accumulated in y_{j-1}).
                Parents::Pref {
                    high: prev,
                    low: below,
                }
            }
        } else if pnext == Some(p(i)) {
            // (b) p_{i-1} < p_i = p_{i+1}: open a new tied group with its
            // first two members (the accumulator reconnects at rule (d)).
            Parents::Tied(z(i), z(i + 1))
        } else {
            // (e) p_{i-1} < p_i < p_{i+1}: a singleton group — z_i strictly
            // dominates everything accumulated so far.
            Parents::Pref {
                high: z(i),
                low: prev,
            }
        };
        btn.parents[y as usize] = parents;
        prev = y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::indus_network;

    #[test]
    fn already_binary_network_unchanged() {
        let (mut net, [_, _, charlie]) = indus_network();
        let jar = net.value("jar");
        net.believe(charlie, jar).unwrap();
        let btn = binarize(&net);
        // Charlie has no parents, so the belief stays put: no new nodes.
        assert_eq!(btn.node_count(), 3);
        assert_eq!(btn.edge_count(), 3);
        // Alice (node 0) has Bob preferred (prio 100) over Charlie (50).
        assert_eq!(btn.parents(0), &Parents::Pref { high: 1, low: 2 },);
        assert_eq!(btn.parents(1), &Parents::One(0));
        assert!(btn.parents(2).is_root());
    }

    #[test]
    fn explicit_belief_with_parents_moves_to_root() {
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let b = net.user("b");
        let v = net.value("v");
        net.trust(b, a, 10).unwrap();
        net.believe(b, v).unwrap();
        let btn = binarize(&net);
        // b gets a synthetic root x0 as preferred parent.
        assert_eq!(btn.node_count(), 3);
        let x0 = 2;
        assert_eq!(btn.belief(x0), &ExplicitBelief::Pos(v));
        assert_eq!(btn.parents(b.0), &Parents::Pref { high: x0, low: a.0 });
        assert_eq!(btn.belief(b.0), &ExplicitBelief::None);
        assert_eq!(btn.origin(x0), None);
        assert_eq!(btn.origin(b.0), Some(b));
        assert_eq!(btn.name(x0).to_string(), "b::b0");
        assert_eq!(btn.name(b.0).to_string(), "b");
    }

    /// The worked example of Figure 10: seven parents with priorities
    /// p1 = p2 < p3 = p4 = p5 < p6 < p7.
    #[test]
    fn figure_10_cascade() {
        let mut net = TrustNetwork::new();
        let x = net.user("x");
        let z: Vec<User> = (1..=7).map(|i| net.user(&format!("z{i}"))).collect();
        let prios = [1, 1, 5, 5, 5, 8, 9];
        for (zi, pi) in z.iter().zip(prios) {
            net.trust(x, *zi, pi).unwrap();
        }
        let btn = binarize(&net);
        // 7 parents → 5 new cascade nodes y2..y6.
        assert_eq!(btn.node_count(), 8 + 5);
        let y = |i: usize| (8 + i - 2) as NodeId; // y2 is the first new node
        let zn = |i: usize| z[i - 1].0;
        // y2 = (a): Tied(z1, z2)
        assert_eq!(btn.parents(y(2)), &Parents::Tied(zn(1), zn(2)));
        assert_eq!(btn.name(y(2)).to_string(), "x::y2");
        assert_eq!(btn.name(y(6)).to_string(), "x::y6");
        // y3 = (b): Tied(z3, z4)
        assert_eq!(btn.parents(y(3)), &Parents::Tied(zn(3), zn(4)));
        // y4 = (c): Tied(y3, z5)
        assert_eq!(btn.parents(y(4)), &Parents::Tied(y(3), zn(5)));
        // y5 = (d): Pref{ high: y4, low: y2 }
        assert_eq!(
            btn.parents(y(5)),
            &Parents::Pref {
                high: y(4),
                low: y(2)
            }
        );
        // y6 = (e): Pref{ high: z6, low: y5 }
        assert_eq!(
            btn.parents(y(6)),
            &Parents::Pref {
                high: zn(6),
                low: y(5)
            }
        );
        // x = y7 = (e): Pref{ high: z7, low: y6 }
        assert_eq!(
            btn.parents(x.0),
            &Parents::Pref {
                high: zn(7),
                low: y(6)
            }
        );
    }

    #[test]
    fn all_equal_priorities_make_tied_chain() {
        let mut net = TrustNetwork::new();
        let x = net.user("x");
        let z: Vec<User> = (1..=4).map(|i| net.user(&format!("z{i}"))).collect();
        for zi in &z {
            net.trust(x, *zi, 7).unwrap();
        }
        let btn = binarize(&net);
        assert_eq!(btn.node_count(), 5 + 2);
        let y2 = 5;
        let y3 = 6;
        assert_eq!(btn.parents(y2), &Parents::Tied(z[0].0, z[1].0));
        assert_eq!(btn.parents(y3), &Parents::Tied(y2, z[2].0));
        assert_eq!(btn.parents(x.0), &Parents::Tied(y3, z[3].0));
        assert!(btn.has_ties());
    }

    #[test]
    fn strictly_increasing_priorities_make_pref_chain() {
        let mut net = TrustNetwork::new();
        let x = net.user("x");
        let z: Vec<User> = (1..=4).map(|i| net.user(&format!("z{i}"))).collect();
        for (i, zi) in z.iter().enumerate() {
            net.trust(x, *zi, i as i64).unwrap();
        }
        let btn = binarize(&net);
        let y2 = 5;
        let y3 = 6;
        assert_eq!(
            btn.parents(y2),
            &Parents::Pref {
                high: z[1].0,
                low: z[0].0
            }
        );
        assert_eq!(
            btn.parents(y3),
            &Parents::Pref {
                high: z[2].0,
                low: y2
            }
        );
        assert_eq!(
            btn.parents(x.0),
            &Parents::Pref {
                high: z[3].0,
                low: y3
            }
        );
        assert!(!btn.has_ties());
    }

    /// Figure 11: binarizing an n-clique (distinct priorities) yields
    /// n(n-2) nodes and 2n(n-2) edges.
    #[test]
    fn clique_growth_matches_figure_11() {
        for n in 4..=8usize {
            let mut net = TrustNetwork::new();
            let users: Vec<User> = (0..n).map(|i| net.user(&format!("u{i}"))).collect();
            for &x in &users {
                let mut p = 0;
                for &zi in &users {
                    if zi != x {
                        net.trust(x, zi, p).unwrap();
                        p += 1;
                    }
                }
            }
            let btn = binarize(&net);
            assert_eq!(btn.node_count(), n * (n - 2), "nodes for n={n}");
            assert_eq!(btn.edge_count(), 2 * n * (n - 2), "edges for n={n}");
            // The size blow-up factor |E'|+|U'| over |E|+|U| approaches 3.
            assert!(btn.size() <= 3 * net.size());
        }
    }

    #[test]
    fn graph_has_reverse_adjacency() {
        let (net, _) = indus_network();
        let btn = binarize(&net);
        let g = btn.graph();
        assert!(g.has_in_adjacency());
        assert_eq!(g.edge_count(), btn.edge_count());
    }

    #[test]
    fn two_tied_parents_simple() {
        let mut net = TrustNetwork::new();
        let x = net.user("x");
        let a = net.user("a");
        let b = net.user("b");
        net.trust(x, a, 5).unwrap();
        net.trust(x, b, 5).unwrap();
        let btn = binarize(&net);
        assert_eq!(btn.node_count(), 3);
        assert_eq!(btn.parents(x.0), &Parents::Tied(a.0, b.0));
        assert_eq!(btn.preferred_parent(x.0), None);
    }
}
