//! Incremental delta-resolution for the *signed* (Skeptic) pipeline.
//!
//! [`crate::incremental`] removed the Section 2.5 "simply re-run the
//! algorithm" baseline for the basic model; this module does the same for
//! Algorithm 2: a live BTN whose per-node `repPoss` representations are
//! patched in place per edit batch, **including constraint (negative
//! belief) edits**, which previously forced a full quadratic re-run.
//!
//! The delta pipeline mirrors the basic engine:
//!
//! 1. **Delta capture.** Belief flips — positive *or* negative — and
//!    revocations only change the explicit belief at the user's persistent
//!    belief-root node; new trust mappings re-binarize one cascade through
//!    the shared `deltabtn` machinery.
//! 2. **Dirty region.** `repPoss(x)` depends only on `x`'s ancestors (its
//!    open-SCC mates are ancestors too) and on the `prefNeg` of those
//!    nodes, which itself flows forward along preferred chains — so the
//!    forward closure of the touched nodes bounds everything that can
//!    change, exactly as in the basic model.
//! 3. **Boundary freeze + regional re-solve.** A region-local pass
//!    refreshes `prefNeg`, then Algorithm 2's Step-1/Step-2 alternation
//!    ([`crate::skeptic`]'s regional replay, also the cyclic-unit solver
//!    of [`SkepticPlannedResolver`]) re-runs inside the region with clean
//!    nodes frozen at their cached representations.
//!
//! `tests/skeptic_oracle.rs` checks equivalence with a from-scratch
//! [`resolve_skeptic`](crate::skeptic::resolve_skeptic) over random signed
//! edit streams; the `skeptic_bench` binary measures the per-edit win.

use crate::binary::{Btn, Parents};
use crate::cow::CowCopies;
use crate::deltabtn::{DeltaBtn, NodeSideTables};
use crate::error::{Error, Result};
use crate::incremental::{BeliefChange, Edit};
use crate::network::TrustNetwork;
use crate::parallel::ParOptions;
use crate::signed::{ExplicitBelief, NegSet};
use crate::skeptic::{
    solve_skeptic_region, RepPoss, SkepticNet, SkepticPlannedResolver, SkepticResolution,
    SkepticScratch, SkepticUserResolution, VecStore,
};
use crate::user::User;
use crate::value::Value;
use trustmap_graph::NodeId;

/// One atomic edit of a *signed* trust network: the positive-model
/// [`Edit`]s plus constraint assertion. The vocabulary of
/// [`crate::Session`]'s signed path and of
/// [`SkepticIncremental::apply_edits`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignedEdit {
    /// `user` asserts (or updates) the explicit positive belief `value`.
    Believe(User, Value),
    /// `user` revokes their explicit belief (positive or negative).
    Revoke(User),
    /// `child` declares a new trust mapping to `parent` with `priority`.
    Trust {
        /// The trusting user.
        child: User,
        /// The trusted user.
        parent: User,
        /// Larger = more trusted; local to `child`.
        priority: i64,
    },
    /// `user` asserts the constraint rejecting `neg` (Definition 3.3's
    /// negative explicit beliefs; ranges and reference lists compile to
    /// these).
    Reject(User, NegSet),
}

impl From<Edit> for SignedEdit {
    fn from(edit: Edit) -> SignedEdit {
        match edit {
            Edit::Believe(u, v) => SignedEdit::Believe(u, v),
            Edit::Revoke(u) => SignedEdit::Revoke(u),
            Edit::Trust {
                child,
                parent,
                priority,
            } => SignedEdit::Trust {
                child,
                parent,
                priority,
            },
        }
    }
}

/// Engine-side node tables the [`DeltaBtn`] keeps in sync.
struct SkepticSide<'a> {
    rep: &'a mut Vec<RepPoss>,
    pref_neg: &'a mut Vec<NegSet>,
    dirty: &'a mut Vec<bool>,
    region: &'a mut SkepticScratch,
}

impl NodeSideTables for SkepticSide<'_> {
    fn grow(&mut self, n: usize) {
        self.rep.resize(n, RepPoss::default());
        self.pref_neg.resize(n, NegSet::empty());
        self.dirty.resize(n, false);
        self.region.grow(n);
    }

    fn reset(&mut self, x: NodeId) {
        self.rep[x as usize] = RepPoss::default();
        self.pref_neg[x as usize] = NegSet::empty();
    }

    fn reserve(&mut self, additional: usize) {
        self.rep.reserve_exact(additional);
        self.pref_neg.reserve_exact(additional);
        self.dirty.reserve_exact(additional);
        self.region.reserve(additional);
    }
}

/// Fails if any of `nodes` has tied parent priorities (Algorithm 2
/// requires a tie-free BTN), naming the user whose structure it belongs
/// to: every node at a build, the reconciled nodes at an edit batch.
fn check_ties(btn: &Btn, nodes: impl IntoIterator<Item = NodeId>) -> Result<()> {
    match nodes
        .into_iter()
        .find(|&x| matches!(btn.parents(x), Parents::Tied(..)))
    {
        Some(x) => Err(Error::TiesUnsupported(btn.owner(x))),
        None => Ok(()),
    }
}

/// The incremental skeptic engine: a live BTN plus its cached Algorithm-2
/// resolution, patched in place per (signed) edit batch.
#[derive(Debug, Clone)]
pub struct SkepticIncremental {
    /// The live BTN and its structural maintenance (shared with the basic
    /// engine through [`crate::deltabtn`]).
    delta: DeltaBtn,
    /// Cached per-node representations (the resolution being maintained).
    rep: Vec<RepPoss>,
    /// Cached `prefNeg` preprocessing (explicit negatives forced through
    /// preferred chains), refreshed region-locally per batch.
    pref_neg: Vec<NegSet>,
    /// Users whose nodes were in the last dirty region (for snapshot
    /// patching).
    last_dirty_users: Vec<User>,
    // ---- reusable scratch ----
    dirty: Vec<bool>,
    dirty_list: Vec<NodeId>,
    region: SkepticScratch,
    stack: Vec<NodeId>,
}

impl SkepticIncremental {
    /// Builds the engine from `net` and solves it fully once: one bulk
    /// BTN build, then one whole-network solve through
    /// [`SkepticPlannedResolver`] adopted as the cache.
    ///
    /// Fails like [`crate::skeptic::resolve_skeptic`] on tied priorities;
    /// constraints are of course supported.
    pub fn new(net: &TrustNetwork) -> Result<Self> {
        let delta = DeltaBtn::new(net);
        check_ties(&delta.btn, delta.btn.nodes())?;
        let opts = ParOptions {
            threads: 1,
            ..ParOptions::default()
        };
        let SkepticResolution { rep, pref_neg } =
            SkepticPlannedResolver::new(&delta.btn, opts)?.resolve(&delta.btn, 1)?;
        let n = delta.btn.node_count();
        let mut engine = SkepticIncremental {
            delta,
            rep,
            pref_neg,
            last_dirty_users: Vec::new(),
            dirty: vec![false; n],
            dirty_list: Vec::new(),
            region: SkepticScratch::new(n),
            stack: Vec::new(),
        };
        let (delta, mut side) = engine.split();
        delta.reserve_side(&mut side);
        Ok(engine)
    }

    /// The live BTN beside this engine's node tables, borrowed apart so
    /// the [`DeltaBtn`] can patch the one and keep the other in sync.
    fn split(&mut self) -> (&mut DeltaBtn, SkepticSide<'_>) {
        let side = SkepticSide {
            rep: &mut self.rep,
            pref_neg: &mut self.pref_neg,
            dirty: &mut self.dirty,
            region: &mut self.region,
        };
        (&mut self.delta, side)
    }

    /// The live BTN backing the cached resolution (own node layout —
    /// always address users through [`Btn::node_of`]).
    pub fn btn(&self) -> &Btn {
        &self.delta.btn
    }

    /// The cached representation of `node`'s possible beliefs.
    pub fn rep_poss(&self, node: NodeId) -> &RepPoss {
        &self.rep[node as usize]
    }

    /// The cached `prefNeg` of `node`.
    pub fn pref_neg(&self, node: NodeId) -> &NegSet {
        &self.pref_neg[node as usize]
    }

    /// Number of users the engine currently covers.
    pub fn user_count(&self) -> usize {
        self.delta.btn.user_count
    }

    /// Users whose nodes were touched by the most recent edit batch.
    pub fn last_dirty_users(&self) -> &[User] {
        &self.last_dirty_users
    }

    /// Size of the most recent dirty region (in BTN nodes).
    pub fn last_dirty_len(&self) -> usize {
        self.dirty_list.len()
    }

    /// The BTN nodes of the most recent dirty region (forward-closed over
    /// trust edges; retained until the next batch). Exact-mode maintenance
    /// ([`crate::exact`]) re-solves exactly this region.
    pub fn last_dirty_nodes(&self) -> &[NodeId] {
        &self.dirty_list
    }

    /// The snapshot row of `user`: a copy of its node's representation.
    fn user_row(&self, user: User) -> RepPoss {
        self.rep[self.delta.btn.node_of(user) as usize].clone()
    }

    /// Extracts a full per-user snapshot (deep-clones the per-user
    /// representations; O(users · set sizes)).
    pub fn user_resolution(&self) -> SkepticUserResolution {
        let users = self.delta.btn.user_count as u32;
        SkepticUserResolution {
            rep: (0..users).map(|u| self.user_row(User(u))).collect(),
        }
    }

    /// Patches `res` in place after an edit batch: extends it for users
    /// created since it was built and overwrites the rows of users whose
    /// nodes were in the last dirty region — nothing else is touched, so
    /// a copy-on-write `res` un-shares only those users' chunks. Returns
    /// what that un-sharing copied.
    pub fn patch_user_resolution(&self, res: &mut SkepticUserResolution) -> CowCopies {
        res.rep.grow(self.delta.btn.user_count, RepPoss::default());
        for &u in &self.last_dirty_users {
            res.rep.set(u.index(), self.user_row(u));
        }
        res.rep.take_copies()
    }

    /// Applies a batch of edits that have already been committed to `net`,
    /// re-solving the combined dirty region once. Returns every user whose
    /// certain *positive* value (Figure 18 case 3) changed.
    ///
    /// Fails with [`Error::TiesUnsupported`] if a trust edit introduced
    /// tied priorities; the engine's cached solution is stale after that
    /// and the engine must be discarded.
    pub fn apply_edits(
        &mut self,
        net: &TrustNetwork,
        edits: &[SignedEdit],
    ) -> Result<Vec<BeliefChange>> {
        self.grow_users(net);
        let mut seeds: Vec<NodeId> = Vec::new();
        for edit in edits {
            match edit {
                SignedEdit::Believe(u, v) => match self.delta.btn.belief_root[u.index()] {
                    // The persistent belief root makes value flips — of
                    // either sign — purely non-structural.
                    Some(root) => {
                        self.delta.btn.beliefs[root as usize] = ExplicitBelief::Pos(*v);
                        seeds.push(root);
                    }
                    None => self.reconcile_user(net, *u, &mut seeds),
                },
                SignedEdit::Reject(u, neg) => match self.delta.btn.belief_root[u.index()] {
                    Some(root) => {
                        self.delta.btn.beliefs[root as usize] = ExplicitBelief::Negs(neg.clone());
                        seeds.push(root);
                    }
                    None => self.reconcile_user(net, *u, &mut seeds),
                },
                SignedEdit::Revoke(u) => {
                    if self.delta.btn.belief_root[u.index()].is_some() {
                        // Unlike the basic engine, a revoke must *rebuild*
                        // the cascade rather than keep the beliefless root
                        // in place: a dead root interposed as preferred
                        // parent changes which edges are preferred, and
                        // Algorithm 2's `prefNeg` preprocessing (and its
                        // Step-1 Type-2 gate) are sensitive to exactly
                        // that structure — the engine's BTN must stay
                        // binarize-equivalent, not merely
                        // Algorithm-1-equivalent.
                        self.reconcile_user(net, *u, &mut seeds);
                    }
                }
                SignedEdit::Trust {
                    child,
                    parent,
                    priority,
                } => {
                    // Mirror the network layer's upsert: re-declaring an
                    // existing (child, parent) edge updates the priority
                    // in place instead of duplicating the entry.
                    let parent_node = self.delta.btn.node_of(*parent);
                    let plist = &mut self.delta.plists[child.index()];
                    match plist.iter_mut().find(|(p, _)| *p == parent_node) {
                        Some(slot) => slot.1 = *priority,
                        None => plist.push((parent_node, *priority)),
                    }
                    self.reconcile_user(net, *child, &mut seeds);
                }
            }
        }
        check_ties(&self.delta.btn, seeds.iter().copied())?;

        self.compute_dirty(&seeds);
        // Capture pre-solve certain positives of every user in the region.
        let mut before: Vec<(User, Option<Value>)> = Vec::new();
        for &x in &self.dirty_list {
            if let Some(u) = self.delta.btn.origin(x) {
                before.push((u, self.rep[x as usize].cert_positive()));
            }
        }
        self.solve_region();
        self.last_dirty_users.clear();
        let mut changes = Vec::new();
        for (u, old) in before {
            self.last_dirty_users.push(u);
            let new = self.rep[self.delta.btn.node_of(u) as usize].cert_positive();
            if old != new {
                changes.push(BeliefChange {
                    user: u,
                    before: old,
                    after: new,
                });
            }
        }
        Ok(changes)
    }

    /// Appends nodes for users created in `net` since the engine was built.
    fn grow_users(&mut self, net: &TrustNetwork) {
        let (delta, mut side) = self.split();
        delta.grow_users(net, &mut side);
    }

    /// Routes a structural reconcile through the shared [`DeltaBtn`].
    fn reconcile_user(&mut self, net: &TrustNetwork, u: User, seeds: &mut Vec<NodeId>) {
        let (delta, mut side) = self.split();
        delta.reconcile_user(net, u, seeds, &mut side);
    }

    /// Marks the forward closure of `seeds` over trust edges as dirty.
    fn compute_dirty(&mut self, seeds: &[NodeId]) {
        self.dirty_list.clear();
        self.stack.clear();
        for &s in seeds {
            if !self.dirty[s as usize] {
                self.dirty[s as usize] = true;
                self.dirty_list.push(s);
                self.stack.push(s);
            }
        }
        while let Some(v) = self.stack.pop() {
            for i in 0..self.delta.children[v as usize].len() {
                let c = self.delta.children[v as usize][i];
                if !self.dirty[c as usize] {
                    self.dirty[c as usize] = true;
                    self.dirty_list.push(c);
                    self.stack.push(c);
                }
            }
        }
    }

    /// Region-local refresh of the `prefNeg` preprocessing: for dirty
    /// nodes, `prefNeg(x)` = `x`'s own explicit negatives ∪ the `prefNeg`
    /// of its preferred parent (cached for clean parents, fixpoint across
    /// preferred cycles inside the region — sets only grow, so the
    /// worklist converges). Clean nodes cannot change: a `prefNeg` source
    /// whose negatives changed dirties its whole preferred-chain forward
    /// closure.
    fn update_pref_neg(&mut self) {
        for &x in &self.dirty_list {
            let xs = x as usize;
            let mut neg = match &self.delta.btn.beliefs[xs] {
                ExplicitBelief::Negs(n) => n.clone(),
                _ => NegSet::empty(),
            };
            if let Some(z) = self.delta.btn.parents[xs].preferred() {
                if !self.dirty[z as usize] {
                    neg = neg.union(&self.pref_neg[z as usize]);
                }
            }
            self.pref_neg[xs] = neg;
        }
        self.stack.clear();
        self.stack.extend(self.dirty_list.iter().copied());
        while let Some(z) = self.stack.pop() {
            for i in 0..self.delta.children[z as usize].len() {
                let w = self.delta.children[z as usize][i];
                let ws = w as usize;
                if !self.dirty[ws] || self.delta.btn.parents[ws].preferred() != Some(z) {
                    continue;
                }
                let merged = self.pref_neg[ws].union(&self.pref_neg[z as usize]);
                if merged != self.pref_neg[ws] {
                    self.pref_neg[ws] = merged;
                    self.stack.push(w);
                }
            }
        }
    }

    /// Algorithm 2 restricted to the dirty region, with clean nodes frozen
    /// at their cached representations as the boundary. Clears the dirty
    /// mask; `dirty_list` keeps the region for inspection until the next
    /// batch.
    fn solve_region(&mut self) {
        self.update_pref_neg();

        let net = SkepticNet {
            g: &self.delta.children[..],
            parents: &self.delta.btn.parents,
            beliefs: &self.delta.btn.beliefs,
            pref_neg: &self.pref_neg,
        };
        let mut store = VecStore(&mut self.rep);
        solve_skeptic_region(&net, &mut store, &mut self.region, &self.dirty_list);

        for &x in &self.dirty_list {
            self.dirty[x as usize] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::binarize;
    use crate::skeptic::resolve_skeptic;

    /// Every user's representation in the engine equals a from-scratch
    /// Algorithm 2 run over the same network.
    fn assert_matches_full(engine: &SkepticIncremental, net: &TrustNetwork) {
        let btn = binarize(net);
        let full = resolve_skeptic(&btn).expect("resolves");
        for u in net.users() {
            assert_eq!(
                engine.rep_poss(engine.btn().node_of(u)),
                full.rep_poss(btn.node_of(u)),
                "user {} ({})",
                u,
                net.user_name(u)
            );
            assert_eq!(
                engine.pref_neg(engine.btn().node_of(u)),
                full.pref_neg(btn.node_of(u)),
                "prefNeg of user {}",
                u
            );
        }
    }

    fn guarded_oscillator() -> (TrustNetwork, [User; 5], [Value; 2]) {
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let b = net.user("b");
        let guard = net.user("guard");
        let s1 = net.user("s1");
        let s2 = net.user("s2");
        let v0 = net.value("v0");
        let v1 = net.value("v1");
        net.trust(a, guard, 200).unwrap();
        net.trust(a, b, 100).unwrap();
        net.trust(b, a, 100).unwrap();
        net.trust(a, s1, 50).unwrap();
        net.trust(b, s2, 50).unwrap();
        net.reject(guard, NegSet::of([v0])).unwrap();
        net.believe(s1, v0).unwrap();
        net.believe(s2, v0).unwrap();
        (net, [a, b, guard, s1, s2], [v0, v1])
    }

    #[test]
    fn initial_build_matches_full_resolve() {
        let (net, _, _) = guarded_oscillator();
        let engine = SkepticIncremental::new(&net).unwrap();
        assert_matches_full(&engine, &net);
    }

    #[test]
    fn constraint_edit_is_incremental_and_non_structural() {
        let (mut net, [a, _, guard, _, _], [v0, v1]) = guarded_oscillator();
        let mut engine = SkepticIncremental::new(&net).unwrap();
        let nodes_before = engine.btn().node_count();
        assert!(engine.rep_poss(engine.btn().node_of(a)).bottom);

        // The guard now rejects v1 instead: a's ⊥ dissolves.
        net.reject(guard, NegSet::of([v1])).unwrap();
        let changes = engine
            .apply_edits(&net, &[SignedEdit::Reject(guard, NegSet::of([v1]))])
            .unwrap();
        assert_matches_full(&engine, &net);
        assert_eq!(
            engine.btn().node_count(),
            nodes_before,
            "constraint flips must not change the BTN"
        );
        assert!(changes.iter().any(|c| c.user == a && c.after == Some(v0)));
    }

    #[test]
    fn sign_flips_at_one_root() {
        // Pos → Negs → revoked → Pos at the same persistent root.
        let (mut net, [_, _, _, s1, _], [_v0, v1]) = guarded_oscillator();
        let mut engine = SkepticIncremental::new(&net).unwrap();

        net.reject(s1, NegSet::of([v1])).unwrap();
        engine
            .apply_edits(&net, &[SignedEdit::Reject(s1, NegSet::of([v1]))])
            .unwrap();
        assert_matches_full(&engine, &net);

        net.revoke(s1).unwrap();
        engine.apply_edits(&net, &[SignedEdit::Revoke(s1)]).unwrap();
        assert_matches_full(&engine, &net);

        net.believe(s1, v1).unwrap();
        engine
            .apply_edits(&net, &[SignedEdit::Believe(s1, v1)])
            .unwrap();
        assert_matches_full(&engine, &net);
    }

    #[test]
    fn trust_edit_rebuilds_one_cascade() {
        let (mut net, [a, _, _, _, _], [_, v1]) = guarded_oscillator();
        let mut engine = SkepticIncremental::new(&net).unwrap();

        let fresh = net.user("fresh");
        net.believe(fresh, v1).unwrap();
        net.trust(a, fresh, 300).unwrap();
        engine
            .apply_edits(
                &net,
                &[
                    SignedEdit::Believe(fresh, v1),
                    SignedEdit::Trust {
                        child: a,
                        parent: fresh,
                        priority: 300,
                    },
                ],
            )
            .unwrap();
        assert_matches_full(&engine, &net);
        assert_eq!(
            engine.rep_poss(engine.btn().node_of(a)).cert_positive(),
            Some(v1)
        );
    }

    #[test]
    fn dirty_region_stays_local() {
        // Two disconnected guarded clusters: an edit in one must not touch
        // the other.
        let mut net = TrustNetwork::new();
        let v = net.value("v");
        let w = net.value("w");
        let make = |net: &mut TrustNetwork, tag: &str| {
            let x = net.user(&format!("x{tag}"));
            let g = net.user(&format!("g{tag}"));
            let s = net.user(&format!("s{tag}"));
            net.trust(x, g, 2).unwrap();
            net.trust(x, s, 1).unwrap();
            net.reject(g, NegSet::of([w])).unwrap();
            net.believe(s, v).unwrap();
            (x, g, s)
        };
        let (_, g1, _) = make(&mut net, "1");
        let (x2, _, _) = make(&mut net, "2");
        let mut engine = SkepticIncremental::new(&net).unwrap();

        net.reject(g1, NegSet::of([v])).unwrap();
        engine
            .apply_edits(&net, &[SignedEdit::Reject(g1, NegSet::of([v]))])
            .unwrap();
        assert_matches_full(&engine, &net);
        let x2_node = engine.btn().node_of(x2);
        assert!(
            !engine.dirty_list.contains(&x2_node),
            "independent cluster leaked into the dirty region"
        );
        assert!(engine.last_dirty_len() <= 4, "region should be one cluster");
    }

    #[test]
    fn tie_creation_is_rejected() {
        let (mut net, [a, _, _, _, _], _) = guarded_oscillator();
        let mut engine = SkepticIncremental::new(&net).unwrap();
        let rival = net.user("rival");
        net.trust(a, rival, 200).unwrap(); // ties with the guard mapping
        let err = engine.apply_edits(
            &net,
            &[SignedEdit::Trust {
                child: a,
                parent: rival,
                priority: 200,
            }],
        );
        assert!(matches!(err, Err(Error::TiesUnsupported(_))));
    }

    #[test]
    fn new_users_grow_the_engine() {
        let (mut net, [_, b, _, _, _], [v0, _]) = guarded_oscillator();
        let mut engine = SkepticIncremental::new(&net).unwrap();

        let dave = net.user("dave");
        net.trust(dave, b, 10).unwrap();
        engine
            .apply_edits(
                &net,
                &[SignedEdit::Trust {
                    child: dave,
                    parent: b,
                    priority: 10,
                }],
            )
            .unwrap();
        assert_matches_full(&engine, &net);
        let _ = v0;
    }

    #[test]
    fn snapshot_patching_tracks_edits() {
        let (mut net, [a, _, guard, _, _], [v0, v1]) = guarded_oscillator();
        let mut engine = SkepticIncremental::new(&net).unwrap();
        let mut snap = engine.user_resolution();
        assert!(snap.rep_poss(a).bottom);

        net.reject(guard, NegSet::of([v1])).unwrap();
        engine
            .apply_edits(&net, &[SignedEdit::Reject(guard, NegSet::of([v1]))])
            .unwrap();
        engine.patch_user_resolution(&mut snap);
        assert_eq!(snap, engine.user_resolution());
        assert_eq!(snap.cert_positive(a), Some(v0));
    }
}
