//! Incremental delta-resolution over edit streams.
//!
//! The paper's answer to updates is *"simply re-run the algorithm"*
//! (Section 2.5) — correct, but O(network) per edit. For a community
//! database the hot path is the edit stream: one user flips one belief and
//! the system must refresh the consistent snapshot. This module maintains
//! Algorithm 1's fixpoint **incrementally**:
//!
//! 1. **Delta capture.** Each [`Edit`] touches one user `u`. Belief flips
//!    and revocations only change the explicit belief at `u`'s persistent
//!    belief-root node; new trust mappings re-binarize `u`'s cascade in
//!    place (recycling freed cascade nodes through a free list) — the rest
//!    of the BTN is untouched.
//! 2. **Dirty region.** Only nodes downstream of the touched nodes can
//!    change (a node's possible set depends solely on its ancestors), so
//!    the dirty region is the forward closure of the touched nodes over
//!    trust edges.
//! 3. **Boundary freeze + regional re-solve.** Clean nodes keep their
//!    cached possible sets and act as pre-closed boundary inputs; Algorithm
//!    1 (Step 1 preferred-edge propagation + Step 2 SCC flooding, batched)
//!    re-runs *inside the dirty region only*, patching the cached per-node
//!    possible sets in place.
//!
//! The regional solve is exactly Algorithm 1 restricted to the dirty
//! subgraph: outside the region every node is either closed (reachable,
//! cached) or excluded (unreachable), which is precisely the state the full
//! algorithm would be in when it reached those nodes — so the patched
//! fixpoint equals a from-scratch [`resolve_network`]
//! (`tests/incremental_oracle.rs` checks this equivalence on random edit
//! streams).
//!
//! Cost per edit is O(dirty region + its edges) plus one SCC-scratch run
//! per Step-2 round — no allocation proportional to the network. The
//! `edits_bench` binary (`crates/bench/src/bin/edits_bench.rs`) measures
//! two to three orders of magnitude over full re-resolution on 10^5-node
//! power-law networks.
//!
//! Building the engine is the paper's re-run itself: one bulk
//! binarization and one whole-network solve, adopted as the cache.
//!
//! [`resolve_network`]: crate::resolution::resolve_network

use crate::binary::Btn;
use crate::cow::CowCopies;
use crate::deltabtn::{DeltaBtn, NodeSideTables};
use crate::error::{Error, Result};
use crate::lineage::Lineage;
use crate::network::TrustNetwork;
use crate::parallel::resolve_parallel;
use crate::resolution::{resolve_with, Options, UserResolution, UserRow};
use crate::signed::ExplicitBelief;
use crate::user::User;
use crate::value::Value;
use std::collections::BTreeSet;
use std::sync::Arc;
use trustmap_graph::{NodeId, SccScratch};

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
    reachable: &'a mut Vec<bool>,
    dirty: &'a mut Vec<bool>,
    closed: &'a mut Vec<bool>,
    lineage: Option<&'a mut Lineage>,
    empty: &'a Arc<[Value]>,
}

impl NodeSideTables for BasicSide<'_> {
    fn grow(&mut self, n: usize) {
        self.poss.resize(n, Arc::clone(self.empty));
        self.reachable.resize(n, false);
        self.dirty.resize(n, false);
        self.closed.resize(n, false);
        if let Some(l) = self.lineage.as_deref_mut() {
            l.ensure(n);
        }
    }

    fn reset(&mut self, x: NodeId) {
        self.poss[x as usize] = Arc::clone(self.empty);
        self.reachable[x as usize] = false;
    }

    fn reserve(&mut self, additional: usize) {
        self.poss.reserve_exact(additional);
        self.reachable.reserve_exact(additional);
        self.dirty.reserve_exact(additional);
        self.closed.reserve_exact(additional);
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
    poss: Vec<Arc<[Value]>>,
    /// Cached reachability from belief roots.
    reachable: Vec<bool>,
    /// Users whose nodes were in the last dirty region (for snapshot
    /// patching).
    last_dirty_users: Vec<User>,
    /// Region-locally maintained lineage pointers (None = not traced).
    lineage: Option<Lineage>,
    // ---- reusable scratch ----
    dirty: Vec<bool>,
    dirty_list: Vec<NodeId>,
    closed: Vec<bool>,
    scratch: SccScratch,
    is_source: Vec<bool>,
    worklist: Vec<NodeId>,
    stack: Vec<NodeId>,
    members_buf: Vec<NodeId>,
    empty: Arc<[Value]>,
}

impl IncrementalResolver {
    /// Builds the engine from `net` and solves it fully once, through
    /// the one-pass solver [`crate::parallel::resolve_parallel`] uses.
    ///
    /// Fails like [`crate::resolution::resolve`] if the network carries
    /// constraints (negative beliefs) — those require the Skeptic pipeline.
    pub fn new(net: &TrustNetwork) -> Result<Self> {
        IncrementalResolver::build(net, false)
    }

    /// Like [`IncrementalResolver::new`] but records lineage pointers
    /// (Section 2.5, *Retrieving lineage*) and keeps them fresh across
    /// edits: the build solves through Algorithm 1 as printed
    /// ([`crate::resolution::resolve_with`]), which records them, and
    /// each regional solve clears and re-records the pointers of dirty
    /// nodes only, so provenance queries stay O(chain) after edits
    /// instead of requiring a from-scratch traced resolution.
    pub fn new_traced(net: &TrustNetwork) -> Result<Self> {
        IncrementalResolver::build(net, true)
    }

    /// One bulk BTN build, then one whole-network solve adopted as the
    /// cache: the one-pass solver, or Algorithm 1 as printed when lineage
    /// pointers must be recorded.
    fn build(net: &TrustNetwork, traced: bool) -> Result<Self> {
        if let Some(u) = net.first_negative_user() {
            return Err(Error::NegativeBeliefsUnsupported(u));
        }
        let delta = DeltaBtn::new(net);
        let (poss, reachable, lineage) = if traced {
            let opts = Options {
                lineage: true,
                ..Options::default()
            };
            resolve_with(&delta.btn, opts)?.into_parts()
        } else {
            resolve_parallel(&delta.btn, 1)?.into_parts()
        };
        let n = delta.btn.node_count();
        let mut engine = IncrementalResolver {
            delta,
            poss,
            reachable,
            last_dirty_users: Vec::new(),
            lineage,
            dirty: vec![false; n],
            dirty_list: Vec::new(),
            closed: vec![false; n],
            scratch: SccScratch::new(),
            is_source: Vec::new(),
            worklist: Vec::new(),
            stack: Vec::new(),
            members_buf: Vec::new(),
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
            reachable: &mut self.reachable,
            dirty: &mut self.dirty,
            closed: &mut self.closed,
            lineage: self.lineage.as_mut(),
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

    /// The maintained lineage pointers, if the engine was built with
    /// [`IncrementalResolver::new_traced`].
    pub fn lineage(&self) -> Option<&Lineage> {
        self.lineage.as_ref()
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
    /// at their cached possible sets as the boundary. Clears the dirty
    /// mask; `dirty_list` keeps the region for inspection until the next
    /// batch.
    fn solve_region(&mut self) {
        // (R) Recompute reachability inside the region. A dirty node is
        // reachable iff it is a belief root, or any parent is a reachable
        // clean node (whose reachability cannot have changed), or a
        // reachable dirty node (computed by this BFS).
        self.stack.clear();
        for &x in &self.dirty_list {
            self.reachable[x as usize] = false;
        }
        for &x in &self.dirty_list {
            let xs = x as usize;
            if self.reachable[xs] {
                continue;
            }
            let is_root =
                self.delta.btn.parents[xs].is_root() && self.delta.btn.beliefs[xs].is_some();
            let from_boundary = self.delta.btn.parents[xs]
                .iter()
                .any(|z| !self.dirty[z as usize] && self.reachable[z as usize]);
            if is_root || from_boundary {
                self.reachable[xs] = true;
                self.stack.push(x);
            }
        }
        while let Some(v) = self.stack.pop() {
            for i in 0..self.delta.children[v as usize].len() {
                let c = self.delta.children[v as usize][i];
                let cs = c as usize;
                if self.dirty[cs] && !self.reachable[cs] {
                    self.reachable[cs] = true;
                    self.stack.push(c);
                }
            }
        }

        // (I) Initialize the region: everything open and empty, then close
        // the roots with their explicit beliefs.
        if let Some(l) = self.lineage.as_mut() {
            l.ensure(self.delta.btn.node_count());
            for &x in &self.dirty_list {
                l.clear_node(x);
            }
        }
        let mut open_left = 0usize;
        for &x in &self.dirty_list {
            let xs = x as usize;
            self.poss[xs] = Arc::clone(&self.empty);
            self.closed[xs] = false;
            if self.reachable[xs] {
                open_left += 1;
            }
        }
        for &x in &self.dirty_list {
            let xs = x as usize;
            if self.reachable[xs]
                && self.delta.btn.parents[xs].is_root()
                && self.delta.btn.beliefs[xs].is_some()
            {
                let v = self.delta.btn.beliefs[xs]
                    .positive()
                    .expect("engine rejects negative beliefs");
                self.poss[xs] = Arc::from(vec![v]);
                self.closed[xs] = true;
                open_left -= 1;
            }
        }
        // Seed Step 1: dirty nodes whose preferred parent is already
        // closed — either a clean reachable boundary node or a dirty root.
        self.worklist.clear();
        for &x in &self.dirty_list {
            let xs = x as usize;
            if self.reachable[xs] && !self.closed[xs] {
                if let Some(z) = self.delta.btn.parents[xs].preferred() {
                    if self.closed_at(z) {
                        self.worklist.push(x);
                    }
                }
            }
        }

        // (M) Main loop: Step 1 / Step 2 alternation inside the region.
        while open_left > 0 {
            while let Some(x) = self.worklist.pop() {
                let xs = x as usize;
                if self.closed[xs] || !self.reachable[xs] {
                    continue;
                }
                let z = self.delta.btn.parents[xs]
                    .preferred()
                    .expect("worklist node");
                debug_assert!(self.closed_at(z));
                self.poss[xs] = Arc::clone(&self.poss[z as usize]);
                self.closed[xs] = true;
                open_left -= 1;
                if let Some(l) = self.lineage.as_mut() {
                    l.record_preferred(x, z, &self.poss[xs]);
                }
                self.push_pref_children(x);
            }
            if open_left == 0 {
                break;
            }

            // Step 2 on the open part of the region: reusable-scratch
            // Tarjan over the dirty candidates only.
            let (btn, dirty, reachable, closed, children) = (
                &self.delta.btn,
                &self.dirty,
                &self.reachable,
                &self.closed,
                &self.delta.children,
            );
            let keep =
                |v: NodeId| dirty[v as usize] && reachable[v as usize] && !closed[v as usize];
            self.scratch
                .run(&children[..], self.dirty_list.iter().copied(), keep);
            let comp_count = self.scratch.count();
            debug_assert!(comp_count > 0, "open region must contain a source SCC");
            self.is_source.clear();
            self.is_source.resize(comp_count, true);
            for &x in self.scratch.visited() {
                let cx = self.scratch.comp_of(x).expect("visited");
                for z in btn.parents[x as usize].iter() {
                    if keep(z) && self.scratch.comp_of(z) != Some(cx) {
                        self.is_source[cx as usize] = false;
                    }
                }
            }

            let mut flooded = 0usize;
            for c in 0..comp_count as u32 {
                if !self.is_source[c as usize] {
                    continue;
                }
                flooded += 1;
                // possS = union of the cached/solved possible sets of all
                // closed parents (boundary nodes included), snapshotted
                // before any member closes. The same external pairs become
                // every member's lineage pointers when tracing is on.
                let mut union: BTreeSet<Value> = BTreeSet::new();
                let mut external: Vec<(NodeId, Value)> = Vec::new();
                for &x in self.scratch.members(c) {
                    for z in self.delta.btn.parents[x as usize].iter() {
                        let zs = z as usize;
                        let z_closed = if self.dirty[zs] {
                            self.closed[zs]
                        } else {
                            self.reachable[zs]
                        };
                        if z_closed {
                            union.extend(self.poss[zs].iter().copied());
                            if self.lineage.is_some() {
                                external.extend(self.poss[zs].iter().map(|&v| (z, v)));
                            }
                        }
                    }
                }
                let set: Arc<[Value]> = Arc::from(union.into_iter().collect::<Vec<_>>());
                if let Some(l) = self.lineage.as_mut() {
                    self.members_buf.clear();
                    self.members_buf.extend_from_slice(self.scratch.members(c));
                    for &x in &self.members_buf {
                        l.record_flood(x, &set, &external, &self.members_buf);
                    }
                }
                for i in 0..self.scratch.members(c).len() {
                    let x = self.scratch.members(c)[i];
                    self.poss[x as usize] = Arc::clone(&set);
                    self.closed[x as usize] = true;
                    open_left -= 1;
                }
                for i in 0..self.scratch.members(c).len() {
                    let x = self.scratch.members(c)[i];
                    self.push_pref_children(x);
                }
            }
            // A finite open region always has a source SCC; failing this
            // would loop forever, so assert unconditionally.
            assert!(flooded > 0, "no source SCC found in open region");
        }

        // Clear the dirty mask for the next batch (the list itself is kept
        // for inspection/patching).
        for &x in &self.dirty_list {
            self.dirty[x as usize] = false;
        }
    }

    /// Whether `z` counts as closed for the regional solve: solved nodes
    /// inside the region, cached reachable nodes outside it.
    #[inline]
    fn closed_at(&self, z: NodeId) -> bool {
        if self.dirty[z as usize] {
            self.closed[z as usize]
        } else {
            self.reachable[z as usize]
        }
    }

    /// Enqueues the dirty preferred-edge children of a freshly closed node.
    fn push_pref_children(&mut self, z: NodeId) {
        for i in 0..self.delta.children[z as usize].len() {
            let c = self.delta.children[z as usize][i];
            if self.dirty[c as usize] && self.delta.btn.parents[c as usize].preferred() == Some(z) {
                self.worklist.push(c);
            }
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

    /// Every possible value of every reachable user must trace to a root
    /// explicitly asserting it — the soundness half of Section 2.5's
    /// lineage property, maintained across edits.
    fn assert_lineage_sound(engine: &IncrementalResolver) {
        let lin = engine.lineage().expect("traced engine");
        let btn = engine.btn();
        for x in btn.nodes() {
            for &v in engine.poss(x) {
                if btn.parents(x).is_root() {
                    continue;
                }
                let chain = lin
                    .trace(x, v)
                    .unwrap_or_else(|| panic!("({x}, {v:?}) has no lineage"));
                let root = *chain.last().expect("nonempty chain");
                assert_eq!(
                    btn.belief(root).positive(),
                    Some(v),
                    "chain of ({x}, {v:?}) ends at a root asserting something else"
                );
            }
        }
    }

    #[test]
    fn traced_engine_keeps_lineage_fresh_across_edits() {
        let (mut net, [_, bob, charlie]) = indus_network();
        let jar = net.value("jar");
        let cow = net.value("cow");
        net.believe(charlie, jar).unwrap();
        let mut engine = IncrementalResolver::new_traced(&net).unwrap();
        assert_lineage_sound(&engine);

        net.believe(bob, cow).unwrap();
        engine.apply_edits(&net, &[Edit::Believe(bob, cow)]);
        assert_matches_full(&engine, &net);
        assert_lineage_sound(&engine);

        net.revoke(bob).unwrap();
        engine.apply_edits(&net, &[Edit::Revoke(bob)]);
        assert_lineage_sound(&engine);

        // A structural edit (new cascade) keeps chains valid too.
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
        assert_lineage_sound(&engine);
    }

    #[test]
    fn oscillator_flood_lineage_after_edit() {
        // Figure 4b: flood lineage must point outside the SCC, also after
        // the region is re-solved incrementally.
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
        let mut engine = IncrementalResolver::new_traced(&net).unwrap();

        net.believe(x4, v).unwrap();
        engine.apply_edits(&net, &[Edit::Believe(x4, v)]);
        assert_matches_full(&engine, &net);
        assert_lineage_sound(&engine);
        let n1 = engine.btn().node_of(x1);
        assert!(engine.lineage().unwrap().flood_peers(n1).is_some());
    }
}
