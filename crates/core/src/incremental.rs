//! Incremental delta-resolution over edit streams.
//!
//! The paper's answer to updates is *"simply re-run the algorithm"*
//! (Section 2.5) — correct, but O(network) per edit. This module keeps
//! Algorithm 1's fixpoint **incrementally**:
//!
//! 1. **Delta capture.** Each [`Edit`] touches one user `u`. Belief flips
//!    and revocations change only the explicit belief at `u`'s persistent
//!    belief-root node; new trust mappings re-binarize `u`'s cascade in
//!    place, recycling freed cascade nodes (see `deltabtn`).
//! 2. **Dirty region.** A node's possible set depends solely on its
//!    ancestors, so only the forward closure of the touched nodes over
//!    trust edges can change.
//! 3. **Regional re-solve.** The region is re-solved by the regional
//!    replay the one-pass solver runs on its cyclic units
//!    (`parallel::replay_region`), with clean nodes frozen at their cached
//!    sets — exactly the state a full run is in when it reaches the
//!    region — so the patched fixpoint equals a from-scratch
//!    [`resolve_network`] (`tests/incremental_oracle.rs`).
//!
//! Cost per edit is O(dirty region + its edges) plus one SCC-scratch run
//! per Step-2 round; `edits_bench` (`crates/bench/src/bin/edits_bench.rs`)
//! measures two to three orders of magnitude over full re-resolution.
//! Building the engine is the paper's re-run itself: one bulk
//! binarization and one whole-network solve, adopted as the cache.
//!
//! [`resolve_network`]: crate::resolution::resolve_network

use crate::binary::Btn;
use crate::cow::CowCopies;
use crate::deltabtn::{DeltaBtn, NodeSideTables};
use crate::error::{Error, Result};
use crate::network::TrustNetwork;
use crate::parallel::{
    replay_region, resolve_parallel, BasicDomain, BasicScratch, ReplayNet, ReplayScratch,
};
use crate::resolution::{UserResolution, UserRow};
use crate::signed::ExplicitBelief;
use crate::user::User;
use crate::value::Value;
use std::sync::Arc;
use trustmap_graph::NodeId;

/// One atomic edit of the trust network, in the vocabulary of Section 2.5.
///
/// Carries everything the incremental resolver needs to patch its state;
/// [`crate::Session::apply_edit`] routes these through the delta path while
/// arbitrary closures fall back to full recomputation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// `user` asserts (or updates) the explicit belief `value`.
    Believe(User, Value),
    /// `user` revokes their explicit belief (Example 1.2).
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
}

/// Counters describing how a [`crate::Session`] resolved its edit stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaStats {
    /// Edits routed through the incremental path.
    pub incremental_edits: u64,
    /// Full builds/rebuilds of the resolver state.
    pub full_rebuilds: u64,
    /// Total dirty nodes re-solved by incremental batches.
    pub dirty_nodes: u64,
    /// Dirty-region size of the most recent incremental batch.
    pub last_dirty_nodes: usize,
    /// Users among those nodes: the rows the batch rewrote in each
    /// snapshot table.
    pub last_dirty_users: usize,
    /// Explicit batches committed through [`crate::Session::commit`].
    pub batch_commits: u64,
    /// Epoch views rendered by [`crate::Session::epoch_at`] (a quiet
    /// re-publish returns the cached handle and renders nothing).
    pub epochs_rendered: u64,
    /// Snapshot-table chunks copied because a published view (or a cloned
    /// session) still shared them when an edit rewrote one of their rows
    /// ([`crate::cow`]) — what publishing costs beyond the spine.
    pub publish_chunks_copied: u64,
    /// Rows those chunks held.
    pub publish_rows_copied: u64,
}

impl DeltaStats {
    /// Adds what patching one snapshot table had to un-share.
    pub(crate) fn count_copies(&mut self, copies: CowCopies) {
        self.publish_chunks_copied += copies.chunks;
        self.publish_rows_copied += copies.rows;
    }
}

/// A change in one user's certain belief produced by an edit batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeliefChange {
    /// The affected user.
    pub user: User,
    /// The certain belief before the edit (`None` = conflicted/undefined).
    pub before: Option<Value>,
    /// The certain belief after the edit.
    pub after: Option<Value>,
}

/// Engine-side node tables the [`DeltaBtn`] keeps in sync with its node
/// count and free list.
struct BasicSide<'a> {
    poss: &'a mut Vec<Arc<[Value]>>,
    dirty: &'a mut Vec<bool>,
    replay: &'a mut ReplayScratch<BasicScratch>,
    empty: &'a Arc<[Value]>,
}

impl NodeSideTables for BasicSide<'_> {
    fn grow(&mut self, n: usize) {
        self.poss.resize(n, Arc::clone(self.empty));
        self.dirty.resize(n, false);
        self.replay.grow(n);
    }

    fn reset(&mut self, x: NodeId) {
        self.poss[x as usize] = Arc::clone(self.empty);
    }

    fn reserve(&mut self, additional: usize) {
        self.poss.reserve_exact(additional);
        self.dirty.reserve_exact(additional);
        self.replay.reserve(additional);
    }
}

/// The incremental resolution engine: a live BTN plus its resolved state,
/// patched in place per edit batch.
#[derive(Debug, Clone)]
pub struct IncrementalResolver {
    /// The live BTN and its structural maintenance (shared with the
    /// skeptic engine through [`crate::deltabtn`]).
    delta: DeltaBtn,
    /// Cached per-node possible sets (the resolution being maintained).
    /// A node is reachable iff its set is non-empty.
    poss: Vec<Arc<[Value]>>,
    /// Users whose nodes were in the last dirty region (for snapshot
    /// patching).
    last_dirty_users: Vec<User>,
    // ---- reusable scratch ----
    dirty: Vec<bool>,
    dirty_list: Vec<NodeId>,
    replay: ReplayScratch<BasicScratch>,
    stack: Vec<NodeId>,
    empty: Arc<[Value]>,
}

impl IncrementalResolver {
    /// Builds the engine from `net` and solves it fully once: one bulk
    /// BTN build, then one whole-network solve through the one-pass solver
    /// [`crate::parallel::resolve_parallel`] uses, adopted as the cache.
    ///
    /// Fails like [`crate::resolution::resolve`] if the network carries
    /// constraints (negative beliefs) — those require the Skeptic pipeline.
    pub fn new(net: &TrustNetwork) -> Result<Self> {
        if let Some(u) = net.first_negative_user() {
            return Err(Error::NegativeBeliefsUnsupported(u));
        }
        let delta = DeltaBtn::new(net);
        let poss = resolve_parallel(&delta.btn, 1)?.into_poss();
        let n = delta.btn.node_count();
        let mut engine = IncrementalResolver {
            delta,
            poss,
            last_dirty_users: Vec::new(),
            dirty: vec![false; n],
            dirty_list: Vec::new(),
            replay: ReplayScratch::new(n),
            stack: Vec::new(),
            empty: Arc::from([] as [Value; 0]),
        };
        let (delta, mut side) = engine.split();
        delta.reserve_side(&mut side);
        Ok(engine)
    }

    /// The live BTN beside this engine's node tables, borrowed apart so
    /// the [`DeltaBtn`] can patch the one and keep the other in sync.
    fn split(&mut self) -> (&mut DeltaBtn, BasicSide<'_>) {
        let side = BasicSide {
            poss: &mut self.poss,
            dirty: &mut self.dirty,
            replay: &mut self.replay,
            empty: &self.empty,
        };
        (&mut self.delta, side)
    }

    /// Routes a structural reconcile through the shared [`DeltaBtn`],
    /// keeping this engine's node tables in sync.
    fn reconcile_user(&mut self, net: &TrustNetwork, u: User, seeds: &mut Vec<NodeId>) {
        let (delta, mut side) = self.split();
        delta.reconcile_user(net, u, seeds, &mut side);
    }

    /// The live BTN backing the cached resolution.
    ///
    /// Built with [`crate::binary::binarize`]'s layout and structurally
    /// equivalent to it ever after, but edits give it its own node layout:
    /// synthetic nodes are recycled across cascade rebuilds and
    /// late-created users sit after them, so always address users through
    /// [`Btn::node_of`].
    pub fn btn(&self) -> &Btn {
        &self.delta.btn
    }

    /// The cached possible set of `node`.
    pub fn poss(&self, node: NodeId) -> &[Value] {
        &self.poss[node as usize]
    }

    /// Number of users the engine currently covers (its network view may
    /// trail the live network until the next edit batch grows it).
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

    /// The snapshot row of `user`: a shared handle to its node's set.
    fn user_row(&self, user: User) -> UserRow {
        let node = self.delta.btn.node_of(user);
        UserRow::of(Arc::clone(&self.poss[node as usize]))
    }

    /// Extracts a full per-user snapshot (one refcount bump per user).
    pub fn user_resolution(&self) -> UserResolution {
        let users = self.delta.btn.user_count as u32;
        UserResolution {
            rows: (0..users).map(|u| self.user_row(User(u))).collect(),
        }
    }

    /// Patches `res` in place after an edit batch: extends it for users
    /// created since it was built and overwrites the rows of users whose
    /// nodes were in the last dirty region — nothing else is touched, so
    /// a copy-on-write `res` un-shares only those users' chunks. Returns
    /// what that un-sharing copied.
    pub fn patch_user_resolution(&self, res: &mut UserResolution) -> CowCopies {
        res.rows.grow(
            self.delta.btn.user_count,
            UserRow::of(Arc::clone(&self.empty)),
        );
        for &u in &self.last_dirty_users {
            res.rows.set(u.index(), self.user_row(u));
        }
        res.rows.take_copies()
    }

    /// Applies a batch of edits that have already been committed to `net`,
    /// re-solving the combined dirty region once. Returns every user whose
    /// *certain* belief changed.
    pub fn apply_edits(&mut self, net: &TrustNetwork, edits: &[Edit]) -> Vec<BeliefChange> {
        self.grow_users(net);
        let mut seeds: Vec<NodeId> = Vec::new();
        for edit in edits {
            match *edit {
                Edit::Believe(u, v) => match self.delta.btn.belief_root[u.index()] {
                    // Fast path: the user's belief root persists across
                    // value flips — a purely non-structural edit.
                    Some(root) => {
                        self.delta.btn.beliefs[root as usize] = ExplicitBelief::Pos(v);
                        seeds.push(root);
                    }
                    None => self.reconcile_user(net, u, &mut seeds),
                },
                Edit::Revoke(u) => {
                    if let Some(root) = self.delta.btn.belief_root[u.index()] {
                        // Keep the (now beliefless) root in place: it goes
                        // unreachable, Step 2 falls back to the lower
                        // parents, and a later re-assertion is again
                        // non-structural.
                        self.delta.btn.beliefs[root as usize] = ExplicitBelief::None;
                        seeds.push(root);
                    }
                }
                Edit::Trust {
                    child,
                    parent,
                    priority,
                } => {
                    // Mirror the network layer's upsert: re-declaring an
                    // existing (child, parent) edge updates the priority
                    // in place instead of duplicating the entry.
                    let parent_node = self.delta.btn.node_of(parent);
                    let plist = &mut self.delta.plists[child.index()];
                    match plist.iter_mut().find(|(p, _)| *p == parent_node) {
                        Some(slot) => slot.1 = priority,
                        None => plist.push((parent_node, priority)),
                    }
                    self.reconcile_user(net, child, &mut seeds);
                }
            }
        }

        self.compute_dirty(&seeds);
        // Capture pre-solve certain beliefs of every user in the region.
        let mut before: Vec<(User, Option<Value>)> = Vec::new();
        for &x in &self.dirty_list {
            if let Some(u) = self.delta.btn.origin(x) {
                let set = &self.poss[x as usize];
                before.push((u, if set.len() == 1 { Some(set[0]) } else { None }));
            }
        }
        self.solve_region();
        self.last_dirty_users.clear();
        let mut changes = Vec::new();
        for (u, old) in before {
            self.last_dirty_users.push(u);
            let set = &self.poss[self.delta.btn.node_of(u) as usize];
            let new = if set.len() == 1 { Some(set[0]) } else { None };
            if old != new {
                changes.push(BeliefChange {
                    user: u,
                    before: old,
                    after: new,
                });
            }
        }
        changes
    }

    /// Appends nodes for users created in `net` since the engine was built.
    fn grow_users(&mut self, net: &TrustNetwork) {
        let (delta, mut side) = self.split();
        delta.grow_users(net, &mut side);
    }

    /// Marks the forward closure of `seeds` over trust edges as dirty —
    /// exactly the nodes whose possible sets may change.
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

    /// Algorithm 1 restricted to the dirty region, with clean nodes frozen
    /// at their cached possible sets as the boundary: the regional replay
    /// the one-pass solver runs on its cyclic units. Clears the dirty
    /// mask; `dirty_list` keeps the region for inspection until the next
    /// batch.
    fn solve_region(&mut self) {
        let net = ReplayNet {
            g: &self.delta.children[..],
            parents: &self.delta.btn.parents,
            beliefs: &self.delta.btn.beliefs,
            dom: BasicDomain {
                empty: Arc::clone(&self.empty),
            },
        };
        replay_region(&net, &mut self.poss[..], &mut self.replay, &self.dirty_list);
        for &x in &self.dirty_list {
            self.dirty[x as usize] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::indus_network;
    use crate::resolution::resolve_network;

    /// Every user's possible set in the engine equals a from-scratch
    /// resolve of the same network.
    fn assert_matches_full(engine: &IncrementalResolver, net: &TrustNetwork) {
        let full = resolve_network(net).expect("resolves");
        for u in net.users() {
            let node = engine.btn().node_of(u);
            assert_eq!(
                engine.poss(node),
                full.poss(u),
                "user {} ({})",
                u,
                net.user_name(u)
            );
        }
    }

    #[test]
    fn initial_build_matches_full_resolve() {
        let (mut net, [_, _, charlie]) = indus_network();
        let jar = net.value("jar");
        net.believe(charlie, jar).unwrap();
        let engine = IncrementalResolver::new(&net).unwrap();
        assert_matches_full(&engine, &net);
    }

    #[test]
    fn belief_flip_is_non_structural() {
        let (mut net, [_, bob, charlie]) = indus_network();
        let jar = net.value("jar");
        let cow = net.value("cow");
        net.believe(charlie, jar).unwrap();
        net.believe(bob, cow).unwrap();
        let mut engine = IncrementalResolver::new(&net).unwrap();
        let nodes_before = engine.btn().node_count();

        net.believe(bob, jar).unwrap();
        engine.apply_edits(&net, &[Edit::Believe(bob, jar)]);
        assert_matches_full(&engine, &net);
        assert_eq!(
            engine.btn().node_count(),
            nodes_before,
            "belief flips must not change the BTN"
        );
    }

    #[test]
    fn revoke_falls_back_to_lower_parents() {
        let (mut net, [alice, bob, charlie]) = indus_network();
        let jar = net.value("jar");
        let cow = net.value("cow");
        net.believe(charlie, jar).unwrap();
        net.believe(bob, cow).unwrap();
        let mut engine = IncrementalResolver::new(&net).unwrap();
        assert_eq!(engine.poss(engine.btn().node_of(alice)), &[cow]);

        net.revoke(bob).unwrap();
        let changes = engine.apply_edits(&net, &[Edit::Revoke(bob)]);
        assert_matches_full(&engine, &net);
        assert_eq!(engine.poss(engine.btn().node_of(alice)), &[jar]);
        assert!(changes
            .iter()
            .any(|c| c.user == alice && c.before == Some(cow) && c.after == Some(jar)));

        // Re-asserting reuses the persistent root: still equivalent.
        net.believe(bob, cow).unwrap();
        engine.apply_edits(&net, &[Edit::Believe(bob, cow)]);
        assert_matches_full(&engine, &net);
    }

    #[test]
    fn trust_edit_rebuilds_one_cascade() {
        let mut net = TrustNetwork::new();
        let x = net.user("x");
        let users: Vec<User> = (0..5).map(|i| net.user(&format!("z{i}"))).collect();
        let v: Vec<Value> = (0..5).map(|i| net.value(&format!("v{i}"))).collect();
        for (i, &z) in users.iter().enumerate() {
            net.trust(x, z, i as i64 + 1).unwrap();
            net.believe(z, v[i]).unwrap();
        }
        let mut engine = IncrementalResolver::new(&net).unwrap();
        assert_matches_full(&engine, &net);

        // A new top-priority parent: x's cascade is rebuilt, nodes recycled.
        let z5 = net.user("z5");
        let v5 = net.value("v5");
        net.believe(z5, v5).unwrap();
        net.trust(x, z5, 100).unwrap();
        engine.apply_edits(
            &net,
            &[
                Edit::Believe(z5, v5),
                Edit::Trust {
                    child: x,
                    parent: z5,
                    priority: 100,
                },
            ],
        );
        assert_matches_full(&engine, &net);
        assert_eq!(engine.poss(engine.btn().node_of(x)), &[v5]);
    }

    #[test]
    fn dirty_region_stays_local() {
        // Two disconnected oscillator clusters: an edit in one must not
        // touch the other.
        let mut net = TrustNetwork::new();
        let v = net.value("v");
        let w = net.value("w");
        let make = |net: &mut TrustNetwork, tag: &str| {
            let a = net.user(&format!("a{tag}"));
            let b = net.user(&format!("b{tag}"));
            let r = net.user(&format!("r{tag}"));
            net.trust(a, b, 10).unwrap();
            net.trust(b, a, 10).unwrap();
            net.trust(a, r, 5).unwrap();
            net.believe(r, v).unwrap();
            (a, b, r)
        };
        let (_, _, r1) = make(&mut net, "1");
        let (a2, _, _) = make(&mut net, "2");
        let mut engine = IncrementalResolver::new(&net).unwrap();

        net.believe(r1, w).unwrap();
        engine.apply_edits(&net, &[Edit::Believe(r1, w)]);
        assert_matches_full(&engine, &net);
        // Cluster 2 is untouched: its user must not be in the dirty set.
        let a2_node = engine.btn().node_of(a2);
        assert!(
            !engine.dirty_list.contains(&a2_node),
            "independent cluster leaked into the dirty region"
        );
        assert!(engine.last_dirty_len() <= 4, "region should be one cluster");
    }

    #[test]
    fn oscillator_edits_preserve_ambiguity() {
        // Figure 4b oscillator: flipping roots keeps poss = {v, w}.
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
        let mut engine = IncrementalResolver::new(&net).unwrap();
        assert_eq!(engine.poss(engine.btn().node_of(x1)), &[v, w]);

        net.believe(x3, w).unwrap();
        engine.apply_edits(&net, &[Edit::Believe(x3, w)]);
        assert_matches_full(&engine, &net);
        assert_eq!(engine.poss(engine.btn().node_of(x1)), &[w]);

        net.believe(x3, v).unwrap();
        engine.apply_edits(&net, &[Edit::Believe(x3, v)]);
        assert_matches_full(&engine, &net);
        assert_eq!(engine.poss(engine.btn().node_of(x1)), &[v, w]);
    }

    #[test]
    fn new_users_grow_the_engine() {
        let (mut net, [_, bob, charlie]) = indus_network();
        let jar = net.value("jar");
        net.believe(charlie, jar).unwrap();
        let mut engine = IncrementalResolver::new(&net).unwrap();

        let dave = net.user("Dave");
        net.trust(dave, bob, 10).unwrap();
        engine.apply_edits(
            &net,
            &[Edit::Trust {
                child: dave,
                parent: bob,
                priority: 10,
            }],
        );
        assert_matches_full(&engine, &net);
        assert_eq!(engine.poss(engine.btn().node_of(dave)), &[jar]);
    }

    #[test]
    fn negative_beliefs_rejected_up_front() {
        use crate::signed::NegSet;
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let v = net.value("v");
        net.reject(a, NegSet::of([v])).unwrap();
        assert!(matches!(
            IncrementalResolver::new(&net),
            Err(Error::NegativeBeliefsUnsupported(_))
        ));
    }

    #[test]
    fn believe_revoke_and_new_cascade_match_full() {
        let (mut net, [_, bob, charlie]) = indus_network();
        let jar = net.value("jar");
        let cow = net.value("cow");
        net.believe(charlie, jar).unwrap();
        let mut engine = IncrementalResolver::new(&net).unwrap();

        net.believe(bob, cow).unwrap();
        engine.apply_edits(&net, &[Edit::Believe(bob, cow)]);
        assert_matches_full(&engine, &net);

        net.revoke(bob).unwrap();
        engine.apply_edits(&net, &[Edit::Revoke(bob)]);
        assert_matches_full(&engine, &net);

        // A structural edit (new cascade) stays equal too.
        let dave = net.user("Dave");
        net.trust(dave, bob, 10).unwrap();
        engine.apply_edits(
            &net,
            &[Edit::Trust {
                child: dave,
                parent: bob,
                priority: 10,
            }],
        );
        assert_matches_full(&engine, &net);
    }

    #[test]
    fn oscillator_flood_after_edit_matches_full() {
        // Figure 4b: the {x1, x2} oscillator is flooded again when the
        // region is re-solved incrementally.
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
        let mut engine = IncrementalResolver::new(&net).unwrap();

        net.believe(x4, v).unwrap();
        engine.apply_edits(&net, &[Edit::Believe(x4, v)]);
        assert_matches_full(&engine, &net);
        assert_eq!(engine.poss(engine.btn().node_of(x1)), &[v]);
    }
}
