//! The Skeptic Resolution Algorithm (Algorithm 2, Section 3.2).
//!
//! Computes a *representation* `repPoss(x)` of the possible beliefs of every
//! node under the Skeptic paradigm, in worst-case quadratic time — the PTIME
//! counterpoint to the NP-hard Agnostic/Eclectic paradigms (Theorem 3.4).
//!
//! `repPoss(x)` holds explicit positive values, explicit negative values,
//! and a `⊥` marker; Figure 18's five cases decode it into the full possible
//! and certain belief sets ([`SkepticResolution::poss`] /
//! [`SkepticResolution::cert`]).
//!
//! ### Fidelity notes (documented deviations and findings)
//!
//! * Following Appendix B.7, Step 1 closes a node through a preferred edge
//!   only when the parent's `repPoss` is **Type 2** (contains a positive or
//!   ⊥): a Type-1 (negative-only) parent cannot stop positives from arriving
//!   later over the non-preferred edge, so the node must wait for Step 2.
//! * Unlike the printed initialization (which seeds only positive roots),
//!   roots with *negative* explicit beliefs are also closed, carrying their
//!   negatives in `repPoss`. Without this, pure-constraint chains resolve to
//!   the empty set and Figure 18's negative-only cases could never arise.
//! * `prefNeg` tracks — exactly as printed — only *explicit* negatives
//!   propagated along preferred chains. Negatives that become certain at a
//!   preferred parent through its own non-preferred edge are **not**
//!   tracked, so Algorithm 2 can over-approximate `poss` (and
//!   under-approximate `cert`) on such networks; the unit test
//!   `paper_blocking_approximation` pins the smallest counterexample we
//!   found. On the paper's own examples (Figure 6) and on positive-only
//!   networks the algorithm is exact, and the exact alternatives are
//!   [`crate::acyclic`] (DAGs) and [`crate::stable_signed`] (ground truth).
//!
//! The full dossier of these deviations — with the counterexample networks
//! drawn out — lives in `docs/FIDELITY.md` at the repository root.
//!
//! ### Plan/solve form
//!
//! [`resolve_skeptic`] is the sequential reference. The production
//! solvers — [`SkepticPlannedResolver`] and
//! [`crate::skeptic_incremental`] — run [`crate::parallel`]'s one-pass
//! core in `SkepticDomain`, which supplies only what Algorithm 2 does
//! differently: roots carry their constraints, Step 1 copies only a
//! Type-2 parent, and a flood blocks positives into ⊥ through `prefNeg`.
//! Results equal [`resolve_skeptic`] at every thread count
//! (`tests/skeptic_oracle.rs`).

use crate::binary::{Btn, Parents};
use crate::cow::CowTable;
use crate::error::{Error, Result};
use crate::parallel::{BeliefDomain, ParOptions, PlannedResolver, ReplayNet, Store};
use crate::signed::{BeliefSet, ExplicitBelief, NegSet};
use crate::user::User;
use crate::value::Value;
use std::collections::BTreeSet;
use trustmap_graph::{
    reach::reachable_from_many, tarjan_scc_filtered, Adjacency, Condensation, NodeId,
};

/// The representation of the possible beliefs of one node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepPoss {
    /// Possible positive values.
    pub pos: BTreeSet<Value>,
    /// Explicitly tracked possible negative values.
    pub neg: NegSet,
    /// Whether the inconsistent belief set ⊥ is possible.
    pub bottom: bool,
}

impl RepPoss {
    fn empty() -> Self {
        RepPoss {
            pos: BTreeSet::new(),
            neg: NegSet::empty(),
            bottom: false,
        }
    }

    /// Type 2 = contains a positive value or ⊥ (Appendix B.7); such a node
    /// always blocks its non-preferred siblings downstream.
    pub fn is_type2(&self) -> bool {
        !self.pos.is_empty() || self.bottom
    }

    /// Whether nothing at all was recorded: an unreachable node, or one
    /// closed on nothing (a `Negs(∅)` root and its pure descendants).
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty() && !self.bottom
    }

    /// Decodes the possible beliefs this representation stands for (the
    /// expansion rules above Figure 18): a positive `v+` implies every
    /// other negative, ⊥ implies every negative.
    pub fn decode_poss(&self) -> PossBeliefs {
        let mut neg = self.neg.clone();
        if self.bottom {
            neg = NegSet::all();
        }
        for &v in &self.pos {
            neg = neg.union(&NegSet::all_but(v));
        }
        PossBeliefs {
            pos: self.pos.clone(),
            neg,
        }
    }

    /// Decodes the certain beliefs (the five cases of Figure 18).
    pub fn decode_cert(&self) -> BeliefSet {
        match self.pos.len() {
            // Cases 1–2: no positive; the stored negatives (everything, if
            // ⊥ is possible) are certain.
            0 => BeliefSet::negative(if self.bottom {
                NegSet::all()
            } else {
                self.neg.clone()
            }),
            1 => {
                let v = *self.pos.iter().next().expect("len checked");
                if self.neg.contains(v) || self.bottom {
                    // Case 4: v+ possible but so is a set without it; only
                    // the complement negatives are shared.
                    BeliefSet::negative(NegSet::all_but(v))
                } else {
                    // Case 3: the unique solution holds v+ and all other
                    // negatives.
                    BeliefSet {
                        pos: Some(v),
                        neg: NegSet::all_but(v),
                    }
                }
            }
            // Case 5: k ≥ 2 positives; certain are the negatives of all
            // *other* values.
            _ => {
                let mut neg = NegSet::all();
                for &v in &self.pos {
                    neg = neg.without(v);
                }
                BeliefSet::negative(neg)
            }
        }
    }

    /// The certain positive value, if any (Figure 18 case 3 — the
    /// basic-model notion of certainty).
    pub fn cert_positive(&self) -> Option<Value> {
        self.decode_cert().pos
    }
}

/// Decoded possible beliefs: positive values plus the negative closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PossBeliefs {
    /// All possible positive beliefs.
    pub pos: BTreeSet<Value>,
    /// All possible negative beliefs.
    pub neg: NegSet,
}

/// Output of Algorithm 2.
#[derive(Debug, Clone)]
pub struct SkepticResolution {
    pub(crate) rep: Vec<RepPoss>,
    pub(crate) pref_neg: Vec<NegSet>,
}

impl SkepticResolution {
    /// The raw representation for `node`.
    pub fn rep_poss(&self, node: NodeId) -> &RepPoss {
        &self.rep[node as usize]
    }

    /// The `prefNeg` set computed in preprocessing (explicit negatives
    /// forced onto `node` through preferred chains).
    pub fn pref_neg(&self, node: NodeId) -> &NegSet {
        &self.pref_neg[node as usize]
    }

    /// Decodes the possible beliefs of `node` (the expansion rules above
    /// Figure 18; see [`RepPoss::decode_poss`]).
    pub fn poss(&self, node: NodeId) -> PossBeliefs {
        self.rep[node as usize].decode_poss()
    }

    /// Decodes the certain beliefs of `node` (the five cases of Figure 18;
    /// see [`RepPoss::decode_cert`]).
    pub fn cert(&self, node: NodeId) -> BeliefSet {
        self.rep[node as usize].decode_cert()
    }

    /// The certain positive value, if any (the basic-model notion).
    pub fn cert_positive(&self, node: NodeId) -> Option<Value> {
        self.rep[node as usize].cert_positive()
    }
}

/// Per-user skeptic results — the decoded, user-indexed counterpart of
/// [`SkepticResolution`] maintained by [`crate::skeptic_incremental`] and
/// served through [`crate::Session`]. Rows live in a chunked
/// copy-on-write table ([`crate::cow`]): a clone shares every user's
/// representation until one side patches it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SkepticUserResolution {
    pub(crate) rep: CowTable<RepPoss>,
}

impl SkepticUserResolution {
    /// Number of users covered.
    pub fn user_count(&self) -> usize {
        self.rep.len()
    }

    /// The raw representation of `user`'s possible beliefs.
    pub fn rep_poss(&self, user: User) -> &RepPoss {
        &self.rep[user.index()]
    }

    /// The possible beliefs of `user` (see [`RepPoss::decode_poss`]).
    pub fn poss(&self, user: User) -> PossBeliefs {
        self.rep[user.index()].decode_poss()
    }

    /// The certain beliefs of `user` (see [`RepPoss::decode_cert`]).
    pub fn cert(&self, user: User) -> BeliefSet {
        self.rep[user.index()].decode_cert()
    }

    /// The certain positive value of `user`, if any.
    pub fn cert_positive(&self, user: User) -> Option<Value> {
        self.rep[user.index()].cert_positive()
    }
}

/// (P) Preprocessing shared by the sequential and the planned resolvers:
/// the `prefNeg` preferred-chain fixpoint (explicit negatives only — see
/// the fidelity notes; sets only grow, so preferred cycles converge) over
/// any forward adjacency of the BTN.
pub(crate) fn skeptic_preprocess<A>(g: &A, btn: &Btn) -> Vec<NegSet>
where
    A: Adjacency + ?Sized,
{
    let n = btn.node_count();
    let mut pref_neg: Vec<NegSet> = vec![NegSet::empty(); n];
    let mut worklist: Vec<NodeId> = Vec::new();
    for x in btn.nodes() {
        if let ExplicitBelief::Negs(neg) = btn.belief(x) {
            pref_neg[x as usize] = neg.clone();
            worklist.push(x);
        }
    }
    while let Some(z) = worklist.pop() {
        for w in g.neighbors(z) {
            if btn.parents(w).preferred() != Some(z) {
                continue;
            }
            // In a BTN non-roots carry no explicit positive belief, so the
            // `v+ ∉ b0(x)` guard is vacuous here.
            let merged = pref_neg[w as usize].union(&pref_neg[z as usize]);
            if merged != pref_neg[w as usize] {
                pref_neg[w as usize] = merged;
                worklist.push(w);
            }
        }
    }
    pref_neg
}

/// Runs Algorithm 2 on a tie-free BTN (constraints allowed).
pub fn resolve_skeptic(btn: &Btn) -> Result<SkepticResolution> {
    if let Some(x) = btn
        .nodes()
        .find(|&x| matches!(btn.parents(x), crate::binary::Parents::Tied(..)))
    {
        let user = btn.origin(x).unwrap_or(crate::user::User(x));
        return Err(Error::TiesUnsupported(user));
    }

    let n = btn.node_count();
    let graph = btn.graph();

    let pref_neg = skeptic_preprocess(&graph, btn);
    let reachable = reachable_from_many(&graph, btn.roots(), |_| true);
    let mut pref_children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for x in btn.nodes() {
        if let Some(z) = btn.preferred_parent(x) {
            pref_children[z as usize].push(x);
        }
    }

    // (I) Initialization: close every root. Positive roots carry their
    // value; negative roots carry their constraint (see fidelity notes).
    let mut rep: Vec<RepPoss> = vec![RepPoss::empty(); n];
    let mut closed = vec![false; n];
    let roots: Vec<NodeId> = btn.roots().collect();
    let mut open_left = (0..n).filter(|&x| reachable[x]).count();

    let mut s1: Vec<NodeId> = Vec::new();
    for &r in &roots {
        match btn.belief(r) {
            ExplicitBelief::Pos(v) => {
                rep[r as usize].pos.insert(*v);
            }
            ExplicitBelief::Negs(neg) => {
                rep[r as usize].neg = neg.clone();
            }
            ExplicitBelief::None => unreachable!("roots have beliefs"),
        }
        closed[r as usize] = true;
        open_left -= 1;
        s1.extend(pref_children[r as usize].iter().copied());
    }

    // (M) Main loop.
    loop {
        // (S1) Preferred copies — only from Type-2 parents (Appendix B.7).
        while let Some(x) = s1.pop() {
            let xs = x as usize;
            if closed[xs] || !reachable[xs] {
                continue;
            }
            let z = btn.preferred_parent(x).expect("worklist invariant");
            if !closed[z as usize] || !rep[z as usize].is_type2() {
                continue;
            }
            rep[xs] = rep[z as usize].clone();
            closed[xs] = true;
            open_left -= 1;
            s1.extend(pref_children[xs].iter().copied());
        }
        if open_left == 0 {
            break;
        }

        // (S2) Flood source SCCs of the open subgraph.
        let is_open = |v: NodeId| reachable[v as usize] && !closed[v as usize];
        let scc = tarjan_scc_filtered(&graph, is_open);
        let cond = Condensation::new(&graph, scc, is_open);
        let sources: Vec<u32> = cond.sources().collect();
        debug_assert!(!sources.is_empty());

        for c in sources {
            let members: Vec<NodeId> = cond.members(c).to_vec();
            let in_s: BTreeSet<NodeId> = members.iter().copied().collect();
            // Closed nodes with edges into S.
            let mut entry_nodes: BTreeSet<NodeId> = BTreeSet::new();
            for &x in &members {
                for (z, _) in graph.in_neighbors(x) {
                    if closed[*z as usize] {
                        entry_nodes.insert(*z);
                    }
                }
            }

            // Collect updates first (rep of members must not change while
            // other entries are still being processed).
            let mut add_pos: Vec<BTreeSet<Value>> = vec![BTreeSet::new(); members.len()];
            let mut add_bottom = vec![false; members.len()];
            let mut add_neg: Vec<NegSet> = vec![NegSet::empty(); members.len()];

            for &zj in &entry_nodes {
                let zrep = rep[zj as usize].clone();
                for &v in &zrep.pos {
                    // S' = S minus nodes whose preferred side forces v−.
                    let in_sprime =
                        |x: NodeId| in_s.contains(&x) && !pref_neg[x as usize].contains(v);
                    // Entry points of zj into S'.
                    let entry_pts = graph
                        .out_neighbors(zj)
                        .iter()
                        .map(|&(w, _)| w)
                        .filter(|&w| in_sprime(w));
                    let reach = reachable_from_many(&graph, entry_pts, in_sprime);
                    for (i, &x) in members.iter().enumerate() {
                        if reach[x as usize] {
                            add_pos[i].insert(v);
                        } else {
                            add_bottom[i] = true;
                        }
                    }
                }
                for (i, _) in members.iter().enumerate() {
                    add_neg[i] = add_neg[i].union(&zrep.neg);
                    add_bottom[i] |= zrep.bottom;
                }
            }

            for (i, &x) in members.iter().enumerate() {
                let r = &mut rep[x as usize];
                r.pos.extend(add_pos[i].iter().copied());
                r.neg = r.neg.union(&add_neg[i]);
                r.bottom |= add_bottom[i];
                closed[x as usize] = true;
                open_left -= 1;
                s1.extend(pref_children[x as usize].iter().copied());
            }
        }
    }

    Ok(SkepticResolution { rep, pref_neg })
}

// ---------------------------------------------------------------------------
// Algorithm 2's belief domain for the one-pass solver.
// ---------------------------------------------------------------------------

/// Algorithm 2's belief domain of [`crate::parallel`]'s one-pass core: a
/// node holds its `repPoss`, Step 1 copies only a Type-2 preferred parent
/// (Appendix B.7), and a flood turns a positive that a member's own
/// `prefNeg` blocks into ⊥ — the per-(entry, value) S′ walk. The
/// preprocessing `prefNeg` is this domain's own per-node input.
pub(crate) struct SkepticDomain<'a> {
    /// Explicit negatives forced through preferred chains (preprocessing).
    pub pref_neg: &'a [NegSet],
}

/// [`SkepticDomain`]'s flood scratch — the S′ walk's node-indexed stamp
/// arrays and its buffers — kept per worker (or per incremental engine).
/// The stamp arrays grow at the first flood that needs them, so a solve
/// without cyclic units never allocates them.
#[derive(Debug, Clone, Default)]
pub(crate) struct SkepticScratch {
    /// Epoch-stamped visited marks of the per-(entry, value) S′ floods.
    mark: Vec<u32>,
    /// Epoch-stamped membership of the component currently flooding.
    in_comp: Vec<u32>,
    /// Current epoch for `mark` / `in_comp` (0 = never stamped).
    epoch: u32,
    queue: Vec<NodeId>,
    entries_buf: Vec<NodeId>,
    adds: Vec<RepPoss>,
}

/// Bumps the epoch counter, clearing the stamp arrays on (astronomically
/// rare) wrap-around so stale stamps can never collide.
fn next_epoch(epoch: &mut u32, mark: &mut [u32], in_comp: &mut [u32]) -> u32 {
    *epoch = epoch.wrapping_add(1);
    if *epoch == 0 {
        mark.fill(0);
        in_comp.fill(0);
        *epoch = 1;
    }
    *epoch
}

impl BeliefDomain for SkepticDomain<'_> {
    type Rep = RepPoss;
    type Scratch = SkepticScratch;

    fn empty(&self) -> RepPoss {
        RepPoss::empty()
    }

    fn is_empty(rep: &RepPoss) -> bool {
        rep.is_empty()
    }

    /// A Type-1 (negative-only) parent cannot stop positives arriving later
    /// over the non-preferred edge, so the node must wait for Step 2.
    #[inline(always)]
    fn copies(rep: &RepPoss) -> bool {
        rep.is_type2()
    }

    /// Positive roots carry their value, negative roots their constraint
    /// (see the fidelity notes).
    #[inline(always)]
    fn root(_s: &mut SkepticScratch, belief: &ExplicitBelief) -> Option<RepPoss> {
        let mut rep = RepPoss::empty();
        match belief {
            ExplicitBelief::Pos(v) => {
                rep.pos.insert(*v);
            }
            ExplicitBelief::Negs(neg) => rep.neg = neg.clone(),
            ExplicitBelief::None => {}
        }
        (!rep.is_empty()).then_some(rep)
    }

    /// Every parent's representation, with a positive that the node's own
    /// `prefNeg` blocks turned into ⊥ (S′ excludes the node).
    #[inline(always)]
    fn join<A, S>(
        net: &ReplayNet<'_, A, Self>,
        store: &S,
        _s: &mut SkepticScratch,
        x: NodeId,
    ) -> Option<RepPoss>
    where
        A: ?Sized,
        S: Store<RepPoss> + ?Sized,
    {
        let pref_neg = &net.dom.pref_neg[x as usize];
        let mut rep = RepPoss::empty();
        for z in net.parents[x as usize].iter() {
            let zrep = store.get(z);
            for &v in &zrep.pos {
                if pref_neg.contains(v) {
                    rep.bottom = true;
                } else {
                    rep.pos.insert(v);
                }
            }
            rep.neg = rep.neg.union(&zrep.neg);
            rep.bottom |= zrep.bottom;
        }
        (!rep.is_empty()).then_some(rep)
    }

    /// Each entry (a closed parent with an edge into S) passes its
    /// negatives and ⊥ to every member, and each of its positives `v` to
    /// the members it reaches through S′ = S minus the nodes whose
    /// `prefNeg` forces `v−`; the others get ⊥.
    fn flood<A, S>(
        net: &ReplayNet<'_, A, Self>,
        store: &mut S,
        s: &mut SkepticScratch,
        members: &[NodeId],
    ) where
        A: Adjacency + ?Sized,
        S: Store<RepPoss> + ?Sized,
    {
        let SkepticScratch {
            mark,
            in_comp,
            epoch,
            queue,
            entries_buf,
            adds,
        } = s;
        let pref_neg = net.dom.pref_neg;
        if mark.len() < pref_neg.len() {
            mark.resize(pref_neg.len(), 0);
            in_comp.resize(pref_neg.len(), 0);
        }
        let comp_stamp = next_epoch(epoch, mark, in_comp);
        for &x in members {
            in_comp[x as usize] = comp_stamp;
        }

        // The entries are the members' non-empty parents: open members are
        // still empty, and an empty closed node would add nothing.
        entries_buf.clear();
        for &x in members {
            entries_buf.extend(
                net.parents[x as usize]
                    .iter()
                    .filter(|&z| !store.get(z).is_empty()),
            );
        }
        entries_buf.sort_unstable();
        entries_buf.dedup();

        // Collect every entry's additions before writing any member.
        adds.clear();
        adds.resize(members.len(), RepPoss::default());
        for &zj in entries_buf.iter() {
            let zrep = store.get(zj);
            for &v in zrep.pos.iter() {
                // If nothing in S blocks v, the flood is total and the
                // search through S′ is skipped.
                let any_blocked = members.iter().any(|&x| pref_neg[x as usize].contains(v));
                if !any_blocked {
                    for a in adds.iter_mut() {
                        a.pos.insert(v);
                    }
                    continue;
                }
                let bfs = next_epoch(epoch, mark, in_comp);
                queue.clear();
                queue.push(zj);
                while let Some(u) = queue.pop() {
                    for w in net.g.neighbors(u) {
                        let ws = w as usize;
                        if in_comp[ws] == comp_stamp && !pref_neg[ws].contains(v) && mark[ws] != bfs
                        {
                            mark[ws] = bfs;
                            queue.push(w);
                        }
                    }
                }
                for (i, &x) in members.iter().enumerate() {
                    if mark[x as usize] == bfs {
                        adds[i].pos.insert(v);
                    } else {
                        adds[i].bottom = true;
                    }
                }
            }
            for a in adds.iter_mut() {
                a.neg = a.neg.union(&zrep.neg);
                a.bottom |= zrep.bottom;
            }
        }
        for (i, &x) in members.iter().enumerate() {
            store.set(x, std::mem::take(&mut adds[i]));
        }
    }
}

// ---------------------------------------------------------------------------
// The planned resolver.
// ---------------------------------------------------------------------------

/// A reusable shard schedule for Algorithm 2 over one BTN *structure*: a
/// [`PlannedResolver`] run in Algorithm 2's belief domain.
///
/// The plan depends only on the trust edges, never on the explicit
/// beliefs, so one plan serves any number of (sign-compatible) belief
/// assignments over the same network; [`crate::bulk_skeptic`] exploits
/// this for few-objects signed bulk workloads. Plan once with
/// [`SkepticPlannedResolver::new`], then call
/// [`SkepticPlannedResolver::resolve`] per assignment.
pub struct SkepticPlannedResolver(PlannedResolver);

impl SkepticPlannedResolver {
    /// Plans the condensation shards of `btn`'s structure. Fails like
    /// [`resolve_skeptic`] on tied priorities.
    pub fn new(btn: &Btn, opts: ParOptions) -> Result<SkepticPlannedResolver> {
        if let Some(x) = btn
            .nodes()
            .find(|&x| matches!(btn.parents(x), Parents::Tied(..)))
        {
            let user = btn.origin(x).unwrap_or(User(x));
            return Err(Error::TiesUnsupported(user));
        }
        Ok(SkepticPlannedResolver(PlannedResolver::new(btn, opts)))
    }

    /// Runs Algorithm 2 over this plan with `threads` workers.
    ///
    /// `btn` must have the same node count and trust structure the plan
    /// was built from; only its explicit (root) beliefs may differ. The
    /// result equals [`resolve_skeptic`] on every node.
    pub fn resolve(&self, btn: &Btn, threads: usize) -> Result<SkepticResolution> {
        let pref_neg = skeptic_preprocess(&self.0.view, btn);
        let dom = SkepticDomain {
            pref_neg: &pref_neg,
        };
        let rep = self.0.solve(btn, dom, threads);
        Ok(SkepticResolution { rep, pref_neg })
    }
}

/// Runs Algorithm 2 sharded over `threads` workers (one-shot convenience
/// over [`SkepticPlannedResolver`]).
pub fn resolve_skeptic_parallel(btn: &Btn, threads: usize) -> Result<SkepticResolution> {
    let planned = SkepticPlannedResolver::new(
        btn,
        ParOptions {
            threads,
            ..ParOptions::default()
        },
    )?;
    planned.resolve(btn, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acyclic::{evaluate_acyclic, figure_6_network};
    use crate::binary::binarize;
    use crate::network::TrustNetwork;
    use crate::paradigm::Paradigm;

    /// Figure 6d end-to-end: x3 holds a+, x5/x7/x9 collapse to ⊥.
    #[test]
    fn figure_6_skeptic() {
        let (net, x) = figure_6_network();
        let a = net.domain().get("a").unwrap();
        let btn = binarize(&net);
        let r = resolve_skeptic(&btn).unwrap();
        let node = |u| btn.node_of(u);

        let x3 = r.rep_poss(node(x[2]));
        assert_eq!(x3.pos, BTreeSet::from([a]));
        assert!(!x3.bottom);
        assert_eq!(r.cert_positive(node(x[2])), Some(a));

        for &xi in &[x[4], x[6], x[8]] {
            let rep = r.rep_poss(node(xi));
            assert!(rep.bottom, "{} should be ⊥", net.user_name(xi));
            assert!(rep.pos.is_empty());
            assert!(r.cert(node(xi)).is_bottom());
        }
    }

    /// On positive-only networks Algorithm 2 must agree with Algorithm 1
    /// (the paradigms collapse, Section 3.3) — including on cycles.
    #[test]
    fn collapses_to_basic_on_positive_networks() {
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
        let btn = binarize(&net);
        let basic = crate::resolution::resolve(&btn).unwrap();
        let skeptic = resolve_skeptic(&btn).unwrap();
        for node in btn.nodes() {
            let expected: BTreeSet<Value> = basic.poss(node).iter().copied().collect();
            assert_eq!(skeptic.rep_poss(node).pos, expected, "node {node}");
            assert!(!skeptic.rep_poss(node).bottom);
            assert_eq!(skeptic.cert_positive(node), basic.cert(node));
        }
    }

    /// Pure-constraint chains carry negatives (Figure 18 case 1).
    #[test]
    fn negative_chain_case_1() {
        use crate::signed::NegSet;
        let mut net = TrustNetwork::new();
        let root = net.user("root");
        let mid = net.user("mid");
        let leaf = net.user("leaf");
        let a = net.value("a");
        net.trust(mid, root, 1).unwrap();
        net.trust(leaf, mid, 1).unwrap();
        net.reject(root, NegSet::of([a])).unwrap();
        let btn = binarize(&net);
        let r = resolve_skeptic(&btn).unwrap();
        for u in [root, mid, leaf] {
            let rep = r.rep_poss(btn.node_of(u));
            assert!(rep.neg.contains(a));
            assert!(rep.pos.is_empty() && !rep.bottom);
            let cert = r.cert(btn.node_of(u));
            assert!(cert.neg.contains(a) && cert.pos.is_none());
        }
    }

    /// A constraint on the preferred side plus the matching value on the
    /// non-preferred side yields ⊥ (Figure 18 case 2).
    #[test]
    fn blocked_value_becomes_bottom() {
        use crate::signed::NegSet;
        let mut net = TrustNetwork::new();
        let x = net.user("x");
        let guard = net.user("guard");
        let src = net.user("src");
        let a = net.value("a");
        net.trust(x, guard, 2).unwrap();
        net.trust(x, src, 1).unwrap();
        net.reject(guard, NegSet::of([a])).unwrap();
        net.believe(src, a).unwrap();
        let btn = binarize(&net);
        let r = resolve_skeptic(&btn).unwrap();
        let rep = r.rep_poss(btn.node_of(x));
        assert!(rep.bottom);
        assert!(rep.pos.is_empty());
        assert!(r.cert(btn.node_of(x)).is_bottom());
        // Exact reference agrees (DAG).
        let exact = evaluate_acyclic(&btn, Paradigm::Skeptic).unwrap();
        assert!(exact[btn.node_of(x) as usize].is_bottom());
    }

    /// Figure 18 decode spot checks on hand-built representations.
    #[test]
    fn fig18_decode_cases() {
        use crate::signed::NegSet;
        let v0 = Value(0);
        let v1 = Value(1);
        let mk = |rep: RepPoss| SkepticResolution {
            rep: vec![rep],
            pref_neg: vec![NegSet::empty()],
        };
        // Case 1: only negatives.
        let r = mk(RepPoss {
            pos: BTreeSet::new(),
            neg: NegSet::of([v0]),
            bottom: false,
        });
        assert_eq!(r.cert(0), BeliefSet::negative(NegSet::of([v0])));
        assert_eq!(r.poss(0).neg, NegSet::of([v0]));
        // Case 2: ⊥ plus negatives.
        let r = mk(RepPoss {
            pos: BTreeSet::new(),
            neg: NegSet::of([v0]),
            bottom: true,
        });
        assert!(r.cert(0).is_bottom());
        assert!(r.poss(0).neg.is_all());
        // Case 3: sole positive, not contradicted.
        let r = mk(RepPoss {
            pos: BTreeSet::from([v0]),
            neg: NegSet::empty(),
            bottom: false,
        });
        let cert = r.cert(0);
        assert_eq!(cert.pos, Some(v0));
        assert!(cert.neg.contains(v1) && !cert.neg.contains(v0));
        // Case 4: positive and its own negative.
        let r = mk(RepPoss {
            pos: BTreeSet::from([v0]),
            neg: NegSet::of([v0]),
            bottom: false,
        });
        let cert = r.cert(0);
        assert_eq!(cert.pos, None);
        assert!(cert.neg.contains(v1) && !cert.neg.contains(v0));
        let poss = r.poss(0);
        assert!(poss.neg.is_all());
        // Case 5: two positives.
        let r = mk(RepPoss {
            pos: BTreeSet::from([v0, v1]),
            neg: NegSet::empty(),
            bottom: false,
        });
        let cert = r.cert(0);
        assert_eq!(cert.pos, None);
        assert!(!cert.neg.contains(v0) && !cert.neg.contains(v1));
        assert!(cert.neg.contains(Value(2)));
    }

    /// The sharded resolver equals the sequential Algorithm 2 on every
    /// node at every thread count (including forced tiny shards).
    fn assert_parallel_equiv(net: &TrustNetwork) {
        let btn = binarize(net);
        let seq = resolve_skeptic(&btn).expect("sequential resolves");
        for threads in [1usize, 2, 3, 8] {
            for (shard_target, exact_deps) in [(8192, false), (1, true)] {
                let planned = SkepticPlannedResolver::new(
                    &btn,
                    crate::parallel::ParOptions {
                        threads,
                        shard_target,
                        exact_deps,
                    },
                )
                .expect("tie-free");
                let par = planned.resolve(&btn, threads).expect("resolves");
                for x in btn.nodes() {
                    assert_eq!(
                        seq.rep_poss(x),
                        par.rep_poss(x),
                        "node {x} ({}) at {threads} threads, target {shard_target}",
                        btn.name(x)
                    );
                    assert_eq!(seq.pref_neg(x), par.pref_neg(x), "prefNeg of {x}");
                }
            }
        }
    }

    /// Figure 6 plus the unit-test networks, sharded: cycles with guards,
    /// negative chains, blocked values.
    #[test]
    fn parallel_skeptic_matches_sequential() {
        let (net, _) = figure_6_network();
        assert_parallel_equiv(&net);

        // Constraint guard over an oscillating 2-cycle with blocked value.
        use crate::signed::NegSet;
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let b = net.user("b");
        let guard = net.user("guard");
        let s1 = net.user("s1");
        let s2 = net.user("s2");
        let tail = net.user("tail");
        let v0 = net.value("v0");
        net.value("v1");
        net.trust(a, guard, 200).unwrap();
        net.trust(a, b, 100).unwrap();
        net.trust(b, a, 100).unwrap();
        net.trust(a, s1, 50).unwrap();
        net.trust(b, s2, 50).unwrap();
        net.trust(tail, b, 10).unwrap();
        net.reject(guard, NegSet::of([v0])).unwrap();
        net.believe(s1, v0).unwrap();
        net.believe(s2, v0).unwrap();
        assert_parallel_equiv(&net);

        // Pure-negative chain with an unreachable side branch.
        let mut net = TrustNetwork::new();
        let root = net.user("root");
        let mid = net.user("mid");
        let leaf = net.user("leaf");
        let dead = net.user("dead");
        let a = net.value("a");
        net.trust(mid, root, 1).unwrap();
        net.trust(leaf, mid, 1).unwrap();
        net.trust(leaf, dead, 2).unwrap();
        net.reject(root, NegSet::of([a])).unwrap();
        assert_parallel_equiv(&net);
    }

    /// One plan, re-seeded root beliefs (the bulk shape): the skeptic plan
    /// is reusable across sign-compatible assignments.
    #[test]
    fn skeptic_plan_reuse_across_beliefs() {
        use crate::signed::NegSet;
        let mut net = TrustNetwork::new();
        let x = net.user("x");
        let guard = net.user("guard");
        let src = net.user("src");
        let a = net.value("a");
        let b = net.value("b");
        net.trust(x, guard, 2).unwrap();
        net.trust(x, src, 1).unwrap();
        net.reject(guard, NegSet::of([a])).unwrap();
        net.believe(src, a).unwrap();
        let btn = binarize(&net);
        let planned =
            SkepticPlannedResolver::new(&btn, crate::parallel::ParOptions::default()).unwrap();

        let first = planned.resolve(&btn, 2).unwrap();
        assert!(first.rep_poss(btn.node_of(x)).bottom);

        // Re-seed: src now asserts b (not blocked) — same plan, new result.
        let mut work = btn.clone();
        let root = btn.belief_root(src).expect("src believes");
        work.set_root_belief(root, ExplicitBelief::Pos(b));
        let second = planned.resolve(&work, 2).unwrap();
        assert_eq!(second.cert_positive(btn.node_of(x)), Some(b));
        let reference = resolve_skeptic(&work).unwrap();
        for node in btn.nodes() {
            assert_eq!(
                second.rep_poss(node),
                reference.rep_poss(node),
                "node {node}"
            );
        }
    }

    #[test]
    fn parallel_skeptic_rejects_ties() {
        let mut net = TrustNetwork::new();
        let x = net.user("x");
        let a = net.user("a");
        let b = net.user("b");
        let v = net.value("v");
        net.trust(x, a, 5).unwrap();
        net.trust(x, b, 5).unwrap();
        net.believe(a, v).unwrap();
        let btn = binarize(&net);
        assert!(matches!(
            resolve_skeptic_parallel(&btn, 2),
            Err(Error::TiesUnsupported(_))
        ));
    }

    /// The documented fidelity gap: a negative certain at the preferred
    /// parent but acquired over a *non-preferred* edge is not in `prefNeg`,
    /// so the printed algorithm reports a blocked value as possible. The
    /// exact DAG evaluator disagrees — this test pins the approximation.
    #[test]
    fn paper_blocking_approximation() {
        use crate::signed::NegSet;
        let mut net = TrustNetwork::new();
        let q = net.user("q");
        let z = net.user("z");
        let w = net.user("w");
        let y = net.user("y");
        let x = net.user("x");
        let a = net.value("a");
        let c = net.value("c");
        net.reject(q, NegSet::of([c])).unwrap();
        net.reject(z, NegSet::of([a])).unwrap();
        net.believe(w, a).unwrap();
        net.trust(y, q, 2).unwrap();
        net.trust(y, z, 1).unwrap();
        net.trust(x, y, 2).unwrap();
        net.trust(x, w, 1).unwrap();
        let btn = binarize(&net);
        // Exact: x = ⊥ (a+ is blocked by a− certain at y).
        let exact = evaluate_acyclic(&btn, Paradigm::Skeptic).unwrap();
        assert!(exact[btn.node_of(x) as usize].is_bottom());
        // Algorithm 2 as printed: a+ still listed possible at x.
        let r = resolve_skeptic(&btn).unwrap();
        assert!(r.rep_poss(btn.node_of(x)).pos.contains(&a));
    }
}
