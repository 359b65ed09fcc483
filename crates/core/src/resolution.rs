//! The Resolution Algorithm (Algorithm 1, Section 2.4).
//!
//! Computes, for every node of a BTN, the set of **possible** beliefs (values
//! taken in some stable solution) and thereby the **certain** belief (the
//! value taken in *every* stable solution, which exists exactly when the
//! possible set is a singleton — see the completeness proof of Theorem 2.12).
//!
//! The algorithm alternates two steps until all reachable nodes are closed:
//!
//! * **Step 1** greedily propagates possible sets along *preferred* edges
//!   whose source is closed (a preferred parent's belief always wins, so the
//!   child's possible set equals the parent's).
//! * **Step 2** finds a *minimal* SCC of the remaining open nodes (no
//!   incoming edges from other open SCCs; all its in-edges come from closed
//!   nodes through non-preferred edges) and floods it with the union of the
//!   possible values of all closed parents — inside an SCC every value
//!   arriving on a non-preferred edge can cycle around and support itself
//!   (the oscillator of Example 2.6).
//!
//! ### SCC processing modes
//!
//! The printed algorithm processes *one* minimal SCC per iteration and
//! recomputes the SCC graph each time — Θ(n²) even on networks of many
//! independent cycles, where the paper nonetheless measures linear running
//! time (Figure 8a). [`SccMode::BatchSources`] (the default) floods **all**
//! source SCCs of the current condensation in one round, which is equivalent
//! (every source SCC's in-edges come from nodes closed before the round) and
//! linear on the Figure 8 workloads, while still Θ(n²) on the nested-SCC
//! family of Figure 14. [`SccMode::SingleMinimal`] is the literal paper
//! algorithm, kept for the ablation benchmarks.
//!
//! Even batched, every Step-2 round re-condenses the whole remaining open
//! subgraph, so networks whose SCCs unlock serially pay many passes. The
//! [`crate::parallel`] module removes that multiplier entirely: one
//! trim-first condensation pass yields a level-sharded schedule solved by
//! worker threads, bit-identical to this resolver at every thread count.

use crate::binary::Btn;
use crate::cow::CowTable;
use crate::error::{Error, Result};
use crate::lineage::Lineage;
use crate::value::Value;
use std::collections::BTreeSet;
use std::sync::Arc;
use trustmap_graph::{reach::reachable_from_many, NodeId, SccScratch};

/// How Step 2 consumes the SCC condensation of the open subgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SccMode {
    /// Flood every source SCC of the current condensation per round
    /// (equivalent, and linear on cycle-rich workloads).
    #[default]
    BatchSources,
    /// Flood exactly one minimal SCC per round, recomputing the condensation
    /// each time — the literal Algorithm 1.
    SingleMinimal,
}

/// Tuning options for [`resolve_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// SCC processing mode.
    pub mode: SccMode,
    /// Record lineage pointers (Section 2.5, *Retrieving lineage*).
    pub lineage: bool,
}

/// The output of Algorithm 1.
#[derive(Debug, Clone)]
pub struct Resolution {
    poss: Vec<Arc<[Value]>>,
    reachable: Vec<bool>,
    lineage: Option<Lineage>,
    rounds: usize,
}

impl Resolution {
    /// The possible beliefs of `node`, sorted. Empty means the belief is
    /// undefined in every stable solution.
    pub fn poss(&self, node: NodeId) -> &[Value] {
        &self.poss[node as usize]
    }

    /// The certain belief of `node`: defined iff exactly one value is
    /// possible (`cert(x) = {a}` iff `poss(x) = {a}`).
    pub fn cert(&self, node: NodeId) -> Option<Value> {
        match *self.poss(node) {
            [v] => Some(v),
            _ => None,
        }
    }

    /// Whether `node` is reachable from a root (unreachable nodes have
    /// undefined beliefs and are skipped by the algorithm).
    pub fn is_reachable(&self, node: NodeId) -> bool {
        self.reachable[node as usize]
    }

    /// Lineage pointers, if requested via [`Options::lineage`].
    pub fn lineage(&self) -> Option<&Lineage> {
        self.lineage.as_ref()
    }

    /// Number of Step-2 rounds executed (each recomputes the open SCC graph);
    /// the driver of the quadratic worst case (Appendix B.5).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// A shared handle to `node`'s possible set (O(1): bumps the refcount
    /// instead of copying the values).
    pub fn share_poss(&self, node: NodeId) -> Arc<[Value]> {
        Arc::clone(&self.poss[node as usize])
    }

    /// Consumes the resolution into its per-node possible sets (used by
    /// the incremental resolver to seed its cache without cloning).
    pub fn into_poss(self) -> Vec<Arc<[Value]>> {
        self.poss
    }

    /// Assembles a resolution from externally computed parts — the exit of
    /// the sharded parallel resolver ([`crate::parallel`]), whose `rounds`
    /// counts topological levels rather than Step-2 rounds. No lineage.
    pub(crate) fn from_parts(
        poss: Vec<Arc<[Value]>>,
        reachable: Vec<bool>,
        rounds: usize,
    ) -> Resolution {
        Resolution {
            poss,
            reachable,
            lineage: None,
            rounds,
        }
    }
}

/// Runs Algorithm 1 with default options.
///
/// Fails with [`Error::NegativeBeliefsUnsupported`] if the BTN carries
/// constraints — those require the Skeptic algorithm
/// ([`crate::skeptic::resolve_skeptic`]) or the acyclic evaluator.
pub fn resolve(btn: &Btn) -> Result<Resolution> {
    resolve_with(btn, Options::default())
}

/// Runs Algorithm 1 with explicit [`Options`].
pub fn resolve_with(btn: &Btn, opts: Options) -> Result<Resolution> {
    if let Some(x) = btn.nodes().find(|&x| btn.belief(x).has_negatives()) {
        let user = btn.origin(x).unwrap_or(crate::user::User(x));
        return Err(Error::NegativeBeliefsUnsupported(user));
    }

    let n = btn.node_count();
    // The hot loop streams the graph as a flat CSR; in-edges need no
    // companion structure because every node's (≤ 2) in-edges are its
    // `Parents`.
    let csr = btn.csr();

    // (I) Initialization: close the roots with their explicit beliefs.
    let mut closed = vec![false; n];
    let mut poss: Vec<Arc<[Value]>> = vec![Arc::from([] as [Value; 0]); n];
    let mut lineage = opts.lineage.then(|| Lineage::new(n));
    let mut open_left = 0usize;

    let roots: Vec<NodeId> = btn.roots().collect();
    // Nodes unreachable from every root can never acquire a belief
    // (Section 2.2) and are excluded up front.
    let reachable = reachable_from_many(&csr, roots.iter().copied(), |_| true);
    for x in btn.nodes() {
        if reachable[x as usize] {
            open_left += 1;
        }
    }

    // Closing `z` enqueues its preferred-edge children for Step 1. Scanning
    // `csr.neighbors(z)` at close time replaces the old per-node
    // `Vec<Vec<_>>` child lists: each adjacency list is scanned exactly
    // once over the whole run, with no extra allocation.
    let push_pref_children = |z: NodeId, worklist: &mut Vec<NodeId>| {
        for &c in csr.neighbors(z) {
            if btn.preferred_parent(c) == Some(z) {
                worklist.push(c);
            }
        }
    };

    let mut worklist: Vec<NodeId> = Vec::new();
    for &r in &roots {
        let v = btn
            .belief(r)
            .positive()
            .expect("roots carry positive beliefs in the basic model");
        poss[r as usize] = Arc::from(vec![v]);
        closed[r as usize] = true;
        open_left -= 1;
        push_pref_children(r, &mut worklist);
    }

    let mut rounds = 0usize;
    let mut scratch = SccScratch::new();
    let mut is_source: Vec<bool> = Vec::new();
    let mut sources: Vec<u32> = Vec::new();

    // (M) Main loop.
    loop {
        // (S1) Drain preferred-edge propagations.
        while let Some(x) = worklist.pop() {
            let xs = x as usize;
            if closed[xs] || !reachable[xs] {
                continue;
            }
            let z = btn.preferred_parent(x).expect("worklist nodes have one");
            debug_assert!(closed[z as usize]);
            poss[xs] = Arc::clone(&poss[z as usize]);
            closed[xs] = true;
            open_left -= 1;
            if let Some(l) = lineage.as_mut() {
                l.record_preferred(x, z, &poss[xs]);
            }
            push_pref_children(x, &mut worklist);
        }
        if open_left == 0 {
            break;
        }

        // (S2) Condense the open subgraph and flood source SCCs. The SCC
        // scratch is reused across rounds, so each round costs O(open
        // subgraph), with no fresh allocations.
        rounds += 1;
        scratch.run(&csr, btn.nodes(), |v| {
            reachable[v as usize] && !closed[v as usize]
        });
        let comp_count = scratch.count();
        debug_assert!(comp_count > 0, "open nonempty implies a source SCC");

        // A component is minimal ("source") iff none of its members has an
        // open in-neighbor in another component — computed directly from
        // the `Parents` in-edges, without materializing the quotient graph.
        is_source.clear();
        is_source.resize(comp_count, true);
        for &x in scratch.visited() {
            let cx = scratch.comp_of(x).expect("visited");
            for z in btn.parents(x).iter() {
                let zs = z as usize;
                if reachable[zs] && !closed[zs] && scratch.comp_of(z) != Some(cx) {
                    is_source[cx as usize] = false;
                }
            }
        }
        sources.clear();
        sources.extend(
            is_source
                .iter()
                .enumerate()
                .filter(|(_, &s)| s)
                .map(|(c, _)| c as u32),
        );
        if opts.mode == SccMode::SingleMinimal {
            // The literal Algorithm 1 floods exactly one minimal SCC.
            sources.truncate(1);
        }

        for &c in &sources {
            let members = scratch.members(c);
            // possS = union of the possible values of all *already closed*
            // parents, snapshotted before any member of S closes (the z_j of
            // the paper are outside S by construction). The same external
            // (node, value) pairs serve as the lineage pointers of every
            // member — inside S any external value can cycle to any member.
            let mut union: BTreeSet<Value> = BTreeSet::new();
            let mut external: Vec<(NodeId, Value)> = Vec::new();
            for &x in members {
                for z in btn.parents(x).iter() {
                    if closed[z as usize] {
                        union.extend(poss[z as usize].iter().copied());
                        if lineage.is_some() {
                            external.extend(poss[z as usize].iter().map(|&v| (z, v)));
                        }
                    }
                }
            }
            let set: Arc<[Value]> = Arc::from(union.into_iter().collect::<Vec<_>>());
            for &x in members {
                if let Some(l) = lineage.as_mut() {
                    l.record_flood(x, &set, &external, members);
                }
                poss[x as usize] = Arc::clone(&set);
                closed[x as usize] = true;
                open_left -= 1;
                push_pref_children(x, &mut worklist);
            }
        }
    }

    Ok(Resolution {
        poss,
        reachable,
        lineage,
        rounds,
    })
}

/// Convenience: binarize `net` and resolve, returning per-*user* results.
///
/// The returned vectors are indexed by [`crate::user::User`] id and cover
/// only the original users (synthetic cascade nodes are dropped).
///
/// For **tie-free** networks this computes exactly the Definition 2.4
/// possible/certain beliefs. With tied priorities on cyclic networks the
/// result follows the *binarized* semantics, which can be strictly wider
/// (see the erratum note in [`crate::binary`]); the exact alternatives are
/// [`crate::stable::enumerate_stable`] and the direct logic-program
/// translation in the facade crate.
pub fn resolve_network(net: &crate::network::TrustNetwork) -> Result<UserResolution> {
    let btn = crate::binary::binarize(net);
    let res = resolve(&btn)?;
    Ok(UserResolution::from_resolution(
        &btn,
        &res,
        net.user_count(),
    ))
}

/// One user's row of a [`UserResolution`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct UserRow {
    /// Sorted possible beliefs (a slice shared with the resolver's
    /// per-node cache).
    poss: Arc<[Value]>,
    /// The certain belief: `poss`'s only element, if it has exactly one.
    cert: Option<Value>,
}

impl UserRow {
    /// The row of a user whose possible set is `poss`.
    pub(crate) fn of(poss: Arc<[Value]>) -> Self {
        let cert = match *poss {
            [v] => Some(v),
            _ => None,
        };
        UserRow { poss, cert }
    }
}

/// Per-user resolution results (possible and certain beliefs).
///
/// Rows live in a chunked copy-on-write table ([`crate::cow`]), so a
/// clone — an epoch view, a cloned session — copies one pointer per 256
/// users, and patching a clone's rows copies only the chunks written to.
/// Possible sets are `Arc<[Value]>` slices aliasing the resolver's
/// per-node cache: building a table bumps one refcount per user and
/// never deep-copies a set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserResolution {
    pub(crate) rows: CowTable<UserRow>,
}

impl UserResolution {
    /// Extracts per-user results from a node-level [`Resolution`].
    pub fn from_resolution(btn: &Btn, res: &Resolution, user_count: usize) -> Self {
        let rows = (0..user_count as u32)
            .map(|u| UserRow::of(res.share_poss(btn.node_of(crate::user::User(u)))))
            .collect();
        UserResolution { rows }
    }

    /// Number of users covered.
    pub fn user_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of row chunks (`ceil(users / 256)`): the pointers a clone
    /// of this table copies.
    pub fn spine_len(&self) -> usize {
        self.rows.spine_len()
    }

    /// The possible beliefs of `user`.
    pub fn poss(&self, user: crate::user::User) -> &[Value] {
        &self.rows[user.index()].poss
    }

    /// The certain belief of `user`.
    pub fn cert(&self, user: crate::user::User) -> Option<Value> {
        self.rows[user.index()].cert
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::binarize;
    use crate::network::{indus_network, TrustNetwork};

    /// Example 2.5 / Figure 4a: x1 trusts x2 (100) and x3 (50).
    #[test]
    fn simple_tn_unique_solution() {
        let mut net = TrustNetwork::new();
        let x1 = net.user("x1");
        let x2 = net.user("x2");
        let x3 = net.user("x3");
        let v = net.value("v");
        let w = net.value("w");
        net.trust(x1, x2, 100).unwrap();
        net.trust(x1, x3, 50).unwrap();
        net.believe(x2, v).unwrap();
        net.believe(x3, w).unwrap();
        let r = resolve_network(&net).unwrap();
        assert_eq!(r.cert(x1), Some(v));
        assert_eq!(r.cert(x2), Some(v));
        assert_eq!(r.cert(x3), Some(w));
    }

    /// Example 2.6 / Figure 4b: the oscillator has two stable solutions;
    /// x1, x2 have possible values {v, w} and no certain value.
    #[test]
    fn oscillator_two_solutions() {
        let mut net = TrustNetwork::new();
        let x1 = net.user("x1");
        let x2 = net.user("x2");
        let x3 = net.user("x3");
        let x4 = net.user("x4");
        let v = net.value("v");
        let w = net.value("w");
        net.trust(x1, x2, 100).unwrap();
        net.trust(x1, x3, 80).unwrap();
        net.trust(x2, x1, 50).unwrap();
        net.trust(x2, x4, 40).unwrap();
        net.believe(x3, v).unwrap();
        net.believe(x4, w).unwrap();
        let r = resolve_network(&net).unwrap();
        assert_eq!(r.poss(x1), &[v, w]);
        assert_eq!(r.poss(x2), &[v, w]);
        assert_eq!(r.cert(x1), None);
        assert_eq!(r.cert(x2), None);
        assert_eq!(r.cert(x3), Some(v));
        assert_eq!(r.cert(x4), Some(w));
    }

    /// Example 2.5 continued: with only Charlie's belief, everyone sees jar;
    /// once Bob asserts cow, Alice switches to cow (priority 100 > 50).
    #[test]
    fn indus_updates_are_order_invariant() {
        let (mut net, [alice, bob, charlie]) = indus_network();
        let jar = net.value("jar");
        let cow = net.value("cow");
        net.believe(charlie, jar).unwrap();
        let r = resolve_network(&net).unwrap();
        assert_eq!(r.cert(alice), Some(jar));
        assert_eq!(r.cert(bob), Some(jar));

        net.believe(bob, cow).unwrap();
        let r = resolve_network(&net).unwrap();
        assert_eq!(r.cert(alice), Some(cow), "Alice trusts Bob over Charlie");
        assert_eq!(r.cert(bob), Some(cow));
        assert_eq!(r.cert(charlie), Some(jar));

        // Example 1.2's revocation: Charlie updates jar → cow; both peers
        // follow because resolution is order-invariant.
        net.believe(charlie, cow).unwrap();
        net.revoke(bob).unwrap();
        let r = resolve_network(&net).unwrap();
        assert_eq!(r.cert(alice), Some(cow));
        assert_eq!(r.cert(bob), Some(cow));
    }

    #[test]
    fn unreachable_nodes_undefined() {
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let b = net.user("b");
        let c = net.user("c");
        let v = net.value("v");
        net.believe(a, v).unwrap();
        net.trust(b, c, 1).unwrap(); // b trusts c; neither reachable from a
        let r = resolve_network(&net).unwrap();
        assert_eq!(r.cert(a), Some(v));
        assert!(r.poss(b).is_empty());
        assert!(r.poss(c).is_empty());
    }

    #[test]
    fn tied_parents_yield_both_values() {
        let mut net = TrustNetwork::new();
        let x = net.user("x");
        let a = net.user("a");
        let b = net.user("b");
        let v = net.value("v");
        let w = net.value("w");
        net.trust(x, a, 5).unwrap();
        net.trust(x, b, 5).unwrap();
        net.believe(a, v).unwrap();
        net.believe(b, w).unwrap();
        let r = resolve_network(&net).unwrap();
        assert_eq!(r.poss(x), &[v, w]);
        assert_eq!(r.cert(x), None);
    }

    #[test]
    fn modes_agree() {
        // Chain of oscillators: both SCC modes must compute identical sets.
        let mut net = TrustNetwork::new();
        let v = net.value("v");
        let w = net.value("w");
        let mut prev: Option<crate::user::User> = None;
        for i in 0..6 {
            let a = net.user(&format!("a{i}"));
            let b = net.user(&format!("b{i}"));
            let r1 = net.user(&format!("r1{i}"));
            let r2 = net.user(&format!("r2{i}"));
            net.trust(a, b, 100).unwrap();
            net.trust(b, a, 100).unwrap();
            net.trust(a, r1, 50).unwrap();
            net.trust(b, r2, 50).unwrap();
            net.believe(r1, v).unwrap();
            net.believe(r2, w).unwrap();
            if let Some(p) = prev {
                net.trust(a, p, 10).unwrap();
            }
            prev = Some(b);
        }
        let btn = binarize(&net);
        let batch = resolve_with(
            &btn,
            Options {
                mode: SccMode::BatchSources,
                lineage: false,
            },
        )
        .unwrap();
        let single = resolve_with(
            &btn,
            Options {
                mode: SccMode::SingleMinimal,
                lineage: false,
            },
        )
        .unwrap();
        for x in btn.nodes() {
            assert_eq!(batch.poss(x), single.poss(x), "node {x}");
        }
        // SingleMinimal needs at least as many rounds as BatchSources.
        assert!(single.rounds() >= batch.rounds());
    }

    #[test]
    fn negative_beliefs_rejected() {
        use crate::signed::NegSet;
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let v = net.value("v");
        net.reject(a, NegSet::of([v])).unwrap();
        let btn = binarize(&net);
        assert!(matches!(
            resolve(&btn),
            Err(Error::NegativeBeliefsUnsupported(_))
        ));
    }

    #[test]
    fn self_supporting_value_needs_lineage() {
        // A 2-cycle with NO external beliefs: no value may appear
        // (Example 2.6's "u has no lineage" argument).
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let b = net.user("b");
        net.trust(a, b, 1).unwrap();
        net.trust(b, a, 1).unwrap();
        net.value("u");
        let r = resolve_network(&net).unwrap();
        assert!(r.poss(a).is_empty());
        assert!(r.poss(b).is_empty());
    }
}
