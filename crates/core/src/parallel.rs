//! The one-pass solver: condensation-sharded resolution, written once for
//! both semantics.
//!
//! The sequential Algorithm 1 ([`crate::resolution::resolve`]) interleaves
//! preferred-edge propagation with repeated SCC condensations of the whole
//! open subgraph. This module restructures the same computation around one
//! insight: a node's final result depends only on its **ancestors**, so the
//! SCC condensation of the BTN is a DAG whose components can be solved
//! independently — and in parallel — as soon as their predecessors are
//! sealed.
//!
//! The pipeline:
//!
//! 1. [`ShardPlan::build`] computes the schedule with a trim-first peel:
//!    the acyclic bulk levels in one Kahn pass, only the cyclic residue
//!    runs Tarjan (see `trustmap_graph::shard`). No reachability BFS is
//!    needed either — a finalized node is reachable iff its representation
//!    is non-empty, so emptiness doubles as the closed-boundary test
//!    (unreachable parents contribute nothing to Step-2 floods, exactly as
//!    in the sequential resolvers).
//! 2. `std::thread::scope` workers pull ready shards from a shared queue;
//!    sealing a shard decrements downstream dependency counters (exact
//!    shard edges, or per-level frontier counters on very deep plans),
//!    enqueueing shards that hit zero. Level-synchronous in structure, but
//!    without global barriers in exact mode: a fast worker starts on the
//!    next level while slow shards of the previous one still run.
//!
//! ### One core, two belief domains
//!
//! On a network without constraints the Skeptic semantics coincides with
//! the basic one (Section 3): Algorithm 1 is Algorithm 2 with no
//! negatives. So the closed form `settle`, the regional replay
//! `replay_region` (Step 1/Step 2 restricted to a cyclic unit, or to an
//! incremental engine's dirty region), the store, the scratch and the
//! shard backend are written once over a `BeliefDomain`, which carries
//! what differs: what a root holds, when Step 1 may copy a closed
//! preferred parent, and how a node or a source SCC floods. `BasicDomain`
//! (Algorithm 1) lives here, `SkepticDomain` (Algorithm 2) in
//! [`crate::skeptic`]. When a unit is solved every outside parent is
//! final: ancestors are sealed and unreachable parents stay empty.
//!
//! ### Determinism invariants
//!
//! The result is **bit-for-bit identical** to the sequential resolvers at
//! every thread count:
//!
//! * shard membership and work granularity come from the deterministic
//!   [`ShardPlan`], never from thread timing;
//! * each node is written by exactly one shard, and every cross-shard read
//!   crosses a seal whose happens-before edge is the dependency counter
//!   (`AcqRel` chain) plus the ready-queue mutex;
//! * floods join values through sorted sets, so merge order inside a
//!   step cannot influence content;
//! * units inside a shard are solved in plan order, the same every run.
//!
//! `tests/parallel_oracle.rs` and `tests/skeptic_oracle.rs` check equality
//! against [`resolve`] and [`resolve_skeptic`] over random networks at 1–8
//! threads.
//!
//! [`resolve`]: crate::resolution::resolve
//! [`resolve_skeptic`]: crate::skeptic::resolve_skeptic

// The crate denies `unsafe_code`; this module (the raw-pointer result slab
// of the intra-solve scheduler) is the only place that opts back in. Every
// block below rests on the [`SharedSlab`] contract and says which half.
#![allow(unsafe_code)]

use crate::binary::{Btn, Parents};
use crate::compact::plan_whole;
use crate::error::{Error, Result};
use crate::resolution::{Resolution, UserResolution};
use crate::signed::ExplicitBelief;
use crate::value::Value;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use trustmap_graph::shard::{DepMode, PlanScratch};
use trustmap_graph::{Adjacency, NodeId, RegionCompactor, SccScratch, ShardPlan};

/// Tuning options for [`resolve_parallel_with`].
#[derive(Debug, Clone, Copy)]
pub struct ParOptions {
    /// Worker threads (clamped to at least 1 and at most the shard count).
    pub threads: usize,
    /// Target member nodes per shard — the work-unit granularity.
    pub shard_target: usize,
    /// Request exact shard-edge dependencies instead of the default level
    /// frontier. Exact deps cost one extra pass over the region's in-edges
    /// but let fast workers run ahead of whole-level barriers — worth it
    /// on deep, skewed condensations with real cores to fill; the frontier
    /// is cheaper to build on the shallow balanced plans of typical trust
    /// networks. Results are identical either way.
    pub exact_deps: bool,
}

impl Default for ParOptions {
    fn default() -> Self {
        ParOptions {
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            shard_target: 8192,
            exact_deps: false,
        }
    }
}

/// Runs Algorithm 1 sharded over `threads` workers.
///
/// Produces a [`Resolution`] whose possible sets are identical to
/// [`crate::resolution::resolve`] (its `rounds()` reports the number of
/// topological levels instead of Step-2 rounds). Fails like the sequential
/// resolver if the BTN carries constraints.
pub fn resolve_parallel(btn: &Btn, threads: usize) -> Result<Resolution> {
    resolve_parallel_with(
        btn,
        ParOptions {
            threads,
            ..ParOptions::default()
        },
    )
}

/// [`resolve_parallel`] with explicit [`ParOptions`].
pub fn resolve_parallel_with(btn: &Btn, opts: ParOptions) -> Result<Resolution> {
    PlannedResolver::new(btn, opts).resolve(btn, opts.threads)
}

/// A reusable shard schedule for one BTN *structure*.
///
/// The plan depends only on the trust edges ([`Parents`]), never on the
/// explicit beliefs, so one plan serves any number of belief assignments
/// over the same network — exactly Section 4's bulk setting, where the
/// network is fixed and each object re-seeds the root beliefs. Plan once
/// with [`PlannedResolver::new`], then call [`PlannedResolver::resolve`]
/// per assignment; the per-call cost drops to the solve itself. The same
/// plan runs Algorithm 2 ([`crate::skeptic::SkepticPlannedResolver`] wraps
/// one).
///
/// The whole-network plan is the degenerate identity case of the
/// region-compact layer (`trustmap_graph::region`), so it shares the one
/// planning entry point with the exact engine's dirty-region solves.
pub struct PlannedResolver {
    pub(crate) view: RegionCompactor,
    plan: ShardPlan,
    nodes: usize,
}

impl PlannedResolver {
    /// Plans the condensation shards of `btn`'s structure.
    pub fn new(btn: &Btn, opts: ParOptions) -> PlannedResolver {
        let n = btn.node_count();
        let mut view = RegionCompactor::new();
        let plan = plan_whole(
            &mut view,
            &btn.parents,
            &mut SccScratch::new(),
            &mut PlanScratch::default(),
            opts.shard_target,
            opts.exact_deps,
        );
        PlannedResolver {
            view,
            plan,
            nodes: n,
        }
    }

    /// Solves `btn` over this plan with `threads` workers.
    ///
    /// `btn` must have the same node count and trust structure the plan
    /// was built from; only its explicit (root) beliefs may differ.
    pub fn resolve(&self, btn: &Btn, threads: usize) -> Result<Resolution> {
        if let Some(x) = btn.nodes().find(|&x| btn.belief(x).has_negatives()) {
            let user = btn.origin(x).unwrap_or(crate::user::User(x));
            return Err(Error::NegativeBeliefsUnsupported(user));
        }
        let dom = BasicDomain {
            empty: Arc::from([] as [Value; 0]),
        };
        let poss = self.solve(btn, dom, threads);
        let reachable = poss.iter().map(|s| !s.is_empty()).collect();
        Ok(Resolution::from_parts(
            poss,
            reachable,
            self.plan.level_count(),
        ))
    }

    /// Runs the one-pass solver of `dom` over this plan with `threads`
    /// workers: every node's representation, by BTN node id.
    pub(crate) fn solve<D: BeliefDomain>(&self, btn: &Btn, dom: D, threads: usize) -> Vec<D::Rep> {
        assert_eq!(
            btn.node_count(),
            self.nodes,
            "plan was built for a different BTN structure"
        );
        let mut reps = vec![dom.empty(); self.nodes];
        let ctx = ShardCtx {
            net: ReplayNet {
                g: &self.view,
                parents: &btn.parents,
                beliefs: &btn.beliefs,
                dom,
            },
            plan: &self.plan,
            slab: SharedSlab::new(&mut reps),
        };
        run_shards(
            &self.plan,
            threads,
            || ReplayScratch::new(self.nodes),
            |worker, s| ctx.solve_shard(worker, s),
        );
        reps
    }
}

/// Convenience: binarize `net` and resolve in parallel, returning per-user
/// results — the sharded counterpart of
/// [`crate::resolution::resolve_network`].
pub fn resolve_network_parallel(
    net: &crate::network::TrustNetwork,
    threads: usize,
) -> Result<UserResolution> {
    let btn = crate::binary::binarize(net);
    let res = resolve_parallel(&btn, threads)?;
    Ok(UserResolution::from_resolution(
        &btn,
        &res,
        net.user_count(),
    ))
}

// ---------------------------------------------------------------------------
// The belief domain: what differs between Algorithm 1 and Algorithm 2.
// ---------------------------------------------------------------------------

/// The operations where the two semantics differ. Everything else — the
/// closed form, the replay, the store, the scratch and the shard backend —
/// is written once over this trait. "Closed" is "non-empty" in both: a
/// node is written only when it closes, and an unreachable node never is.
pub(crate) trait BeliefDomain: Sized + Sync {
    /// A node's representation: a possible set, or a `repPoss`.
    type Rep: Clone + Send + Sync;
    /// Worker-local scratch of this domain's floods.
    type Scratch: Clone + std::fmt::Debug + Default;

    /// The empty representation: an unreachable node, or an open one.
    fn empty(&self) -> Self::Rep;

    /// Whether `rep` records nothing at all.
    fn is_empty(rep: &Self::Rep) -> bool;

    /// Step 1's gate: whether a node may copy its closed preferred parent
    /// holding `rep` (non-empty for Algorithm 1; Type 2 for Algorithm 2).
    fn copies(rep: &Self::Rep) -> bool;

    /// What a root holding `belief` holds (`None`: nothing).
    fn root(s: &mut Self::Scratch, belief: &ExplicitBelief) -> Option<Self::Rep>;

    /// The flood of `x` alone: every parent is final and Step 1 may not
    /// copy the preferred one (`None`: nothing arrives).
    fn join<A, S>(
        net: &ReplayNet<'_, A, Self>,
        store: &S,
        s: &mut Self::Scratch,
        x: NodeId,
    ) -> Option<Self::Rep>
    where
        A: ?Sized,
        S: Store<Self::Rep> + ?Sized;

    /// Step 2's flood of the source SCC `members` — all open, all empty,
    /// every parent outside them final — writing each member.
    fn flood<A, S>(
        net: &ReplayNet<'_, A, Self>,
        store: &mut S,
        s: &mut Self::Scratch,
        members: &[NodeId],
    ) where
        A: Adjacency + ?Sized,
        S: Store<Self::Rep> + ?Sized;
}

/// Immutable network view of the solver, indexed by BTN node id.
pub(crate) struct ReplayNet<'a, A: ?Sized, D> {
    /// Forward adjacency (edges parent → child).
    pub g: &'a A,
    /// Per-node (≤ 2) parents.
    pub parents: &'a [Parents],
    /// Per-node explicit beliefs (non-`None` only at roots).
    pub beliefs: &'a [ExplicitBelief],
    /// The belief domain, with any per-node input of its own.
    pub dom: D,
}

/// Where the solver reads and writes representations: an exclusively
/// borrowed slice for the incremental engines, the [`SharedSlab`] for the
/// parallel workers.
pub(crate) trait Store<R> {
    /// The representation of `x`.
    fn get(&self, x: NodeId) -> &R;
    /// Stores the representation of `x` (the caller must own `x`'s unit).
    fn set(&mut self, x: NodeId, rep: R);
}

impl<R> Store<R> for [R] {
    #[inline]
    fn get(&self, x: NodeId) -> &R {
        &self[x as usize]
    }
    #[inline]
    fn set(&mut self, x: NodeId, rep: R) {
        self[x as usize] = rep;
    }
}

// ---------------------------------------------------------------------------
// Shared result storage.
// ---------------------------------------------------------------------------

/// Raw shared view of a per-node result slab.
///
/// # Safety contract (upheld by the scheduler)
///
/// * every node belongs to at most one shard, and only the worker holding
///   that shard calls [`SharedSlab::write`] for it;
/// * [`SharedSlab::read`] targets only nodes of *sealed* shards, the
///   worker's own shard, or never-written slots (frozen boundary /
///   unreachable nodes), with the happens-before edge provided by the
///   dependency-counter `AcqRel` chain plus the ready-queue mutex.
pub(crate) struct SharedSlab<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: see the scheduler contract above — disjoint writes, reads only
// across seals. The payload must itself be safe to move/share across the
// worker threads.
unsafe impl<T: Send + Sync> Send for SharedSlab<T> {}
unsafe impl<T: Send + Sync> Sync for SharedSlab<T> {}

impl<T> SharedSlab<T> {
    pub(crate) fn new(slice: &mut [T]) -> Self {
        SharedSlab {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Reads the slot of `x` (see the safety contract).
    #[inline]
    pub(crate) unsafe fn read(&self, x: NodeId) -> &T {
        debug_assert!((x as usize) < self.len);
        &*self.ptr.add(x as usize)
    }

    /// Writes the slot of `x` (caller must own `x`'s shard).
    #[inline]
    pub(crate) unsafe fn write(&self, x: NodeId, value: T) {
        debug_assert!((x as usize) < self.len);
        *self.ptr.add(x as usize) = value;
    }

    /// Prefetches the slot of `x` (a hint; no synchronization implied).
    #[inline]
    pub(crate) unsafe fn prefetch(&self, x: NodeId) {
        debug_assert!((x as usize) < self.len);
        trustmap_graph::shard::prefetch(self.ptr.add(x as usize));
    }
}

/// [`Store`] over the parallel workers' shared slab.
///
/// Safety: the scheduler guarantees each node is written by exactly one
/// worker, and reads target sealed shards or the worker's own unit (see
/// [`SharedSlab`]).
struct SlabStore<'a, R>(&'a SharedSlab<R>);

impl<R> Store<R> for SlabStore<'_, R> {
    #[inline]
    fn get(&self, x: NodeId) -> &R {
        // SAFETY: scheduler contract (sealed ancestors / own unit).
        unsafe { self.0.read(x) }
    }
    #[inline]
    fn set(&mut self, x: NodeId, rep: R) {
        // SAFETY: the worker owns every node of the unit it solves, and no
        // unit writes a node twice.
        unsafe { self.0.write(x, rep) }
    }
}

// ---------------------------------------------------------------------------
// The shard scheduler.
// ---------------------------------------------------------------------------

struct Queue {
    ready: Mutex<Vec<u32>>,
    cv: Condvar,
    /// Seal counters, by the plan's [`DepMode`]: remaining predecessors
    /// per shard (exact edges) or remaining unsealed shards per level
    /// (frontier).
    remaining: Vec<AtomicU32>,
    done: AtomicUsize,
    total: usize,
    /// Set when a worker unwinds mid-shard: its shard never seals, so the
    /// siblings must stop waiting for `done` to reach `total`.
    aborted: AtomicBool,
}

/// Wakes every sibling when its worker unwinds, so a panicking shard
/// solve surfaces as a panic of [`run_shards`] (the scope
/// re-raises it once all workers have left) instead of a hang on the
/// ready-queue condvar.
struct AbortOnPanic<'a>(&'a Queue);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.aborted.store(true, Ordering::Release);
            // Hold the lock (poisoned or not) so no sibling can miss the
            // wake-up between its empty pop and its wait.
            let _guard = self.0.ready.lock();
            self.0.cv.notify_all();
        }
    }
}

/// Drives every shard of `plan` to completion over `threads` workers,
/// each with its own scratch from `new_worker`. The scheduler owns
/// claiming, sealing, and the dependency-counter happens-before chain;
/// `solve_shard` solves every unit of one shard, may read the results of
/// nodes in sealed shards and must write each of its own nodes once.
///
/// With `threads <= 1` the shards run inline on the caller's thread in id
/// order (ids ascend with level, so that order is dependency-safe).
///
/// # Panics
/// Re-raises a panic of any `solve_shard` call after every worker has
/// stopped.
pub(crate) fn run_shards<W>(
    plan: &ShardPlan,
    threads: usize,
    new_worker: impl Fn() -> W + Sync,
    solve_shard: impl Fn(&mut W, u32) + Sync,
) {
    let nshards = plan.shard_count();
    if nshards == 0 {
        return;
    }
    let threads = threads.clamp(1, nshards);

    if threads == 1 {
        let mut worker = new_worker();
        for s in 0..nshards as u32 {
            solve_shard(&mut worker, s);
        }
        return;
    }

    let mut ready = plan.initial_ready();
    // Pop from the back; reversing keeps the sequential-schedule order as
    // the default claim order (purely a scheduling nicety — results do not
    // depend on it).
    ready.reverse();
    let counts = match plan.dep_mode() {
        DepMode::Edges => plan.in_counts(),
        DepMode::Frontier => plan.level_counts(),
    };
    let queue = Queue {
        ready: Mutex::new(ready),
        cv: Condvar::new(),
        remaining: counts.iter().map(|&c| AtomicU32::new(c)).collect(),
        done: AtomicUsize::new(0),
        total: nshards,
        aborted: AtomicBool::new(false),
    };

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| worker_loop(plan, &queue, &new_worker, &solve_shard));
        }
    });
    debug_assert_eq!(queue.done.load(Ordering::Relaxed), nshards);
}

/// One worker: claim ready shards until every shard is sealed (or a
/// sibling unwound).
fn worker_loop<W>(
    plan: &ShardPlan,
    queue: &Queue,
    new_worker: &impl Fn() -> W,
    solve_shard: &impl Fn(&mut W, u32),
) {
    let mut worker = new_worker();
    let _wake_siblings = AbortOnPanic(queue);
    'claims: loop {
        let s = {
            let mut ready = queue.ready.lock().expect("queue poisoned");
            loop {
                if queue.aborted.load(Ordering::Acquire) {
                    break 'claims;
                }
                if let Some(s) = ready.pop() {
                    break s;
                }
                if queue.done.load(Ordering::Acquire) == queue.total {
                    break 'claims;
                }
                ready = queue.cv.wait(ready).expect("queue poisoned");
            }
        };

        solve_shard(&mut worker, s);

        // Seal. The `AcqRel` read-modify-write chain on each counter
        // publishes this shard's writes to whichever worker observes the
        // count reach zero.
        let remaining = &queue.remaining;
        match plan.dep_mode() {
            DepMode::Edges => {
                for &t in plan.successors(s) {
                    if remaining[t as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                        queue.ready.lock().expect("queue poisoned").push(t);
                        queue.cv.notify_one();
                    }
                }
            }
            DepMode::Frontier => {
                let l = plan.level_of_shard(s);
                if remaining[l as usize].fetch_sub(1, Ordering::AcqRel) == 1
                    && (l as usize + 1) < plan.level_count()
                {
                    let next: Vec<u32> = plan.level_shards(l + 1).rev().collect();
                    let mut ready = queue.ready.lock().expect("queue poisoned");
                    ready.extend(next);
                    queue.cv.notify_all();
                }
            }
        }
        if queue.done.fetch_add(1, Ordering::AcqRel) + 1 == queue.total {
            // Hold the lock so no worker can miss the final wake-up
            // between its empty-pop and its wait.
            let _guard = queue.ready.lock().expect("queue poisoned");
            queue.cv.notify_all();
        }
    }
}

/// The shard backend of both semantics (immutable during the parallel
/// phase): the whole-network identity view, the BTN's parents and
/// beliefs, the domain, the plan, and the result slab, all in global node
/// ids.
struct ShardCtx<'a, D: BeliefDomain> {
    net: ReplayNet<'a, RegionCompactor, D>,
    plan: &'a ShardPlan,
    slab: SharedSlab<D::Rep>,
}

impl<D: BeliefDomain> ShardCtx<'_, D> {
    /// Solves every unit of shard `s` in plan order.
    fn solve_shard(&self, worker: &mut ReplayScratch<D::Scratch>, s: u32) {
        let mut store = SlabStore(&self.slab);
        let parents = self.net.parents;
        if self.plan.singleton_layout() {
            // All-singleton plan (a self-loop can never peel, so none exist
            // here): stream the shard's node list as a two-stage software
            // pipeline — parents are prefetched LOOKAHEAD nodes ahead, and
            // at half that distance (when the parents line has arrived) the
            // parents' slots are prefetched in turn, so both random
            // accesses of a node are resident when it is solved.
            const LOOKAHEAD: usize = 8;
            use trustmap_graph::shard::prefetch;
            let nodes = self.plan.shard_nodes(s);
            for i in 0..nodes.len() {
                if i + LOOKAHEAD < nodes.len() {
                    prefetch(&parents[nodes[i + LOOKAHEAD] as usize]);
                }
                if i + LOOKAHEAD / 2 < nodes.len() {
                    for z in parents[nodes[i + LOOKAHEAD / 2] as usize].iter() {
                        // SAFETY: a cache hint on an in-bounds slot; nothing
                        // is read.
                        unsafe { self.slab.prefetch(z) };
                    }
                }
                if let Some(rep) = settle(&self.net, &store, &mut worker.flood, nodes[i]) {
                    store.set(nodes[i], rep);
                }
            }
            return;
        }
        for u in self.plan.units(s) {
            let members = self.plan.unit_members(u);
            // An acyclic singleton unit: every parent is final, so the
            // closed form applies at once (the slab starts empty, so an
            // empty result needs no write).
            if let [x] = *members {
                if !parents[x as usize].iter().any(|z| z == x) {
                    if let Some(rep) = settle(&self.net, &store, &mut worker.flood, x) {
                        store.set(x, rep);
                    }
                    continue;
                }
            }
            replay_region(&self.net, &mut store, worker, members);
        }
    }
}

// ---------------------------------------------------------------------------
// The closed form and the regional replay.
// ---------------------------------------------------------------------------

/// The representation of a node whose parents will not change any more:
/// a root's own belief, Step 1's copy of a preferred parent the domain
/// lets it copy, else the flood of the node alone. `None` is the empty
/// representation (the node is unreachable, or nothing arrives): its slot
/// keeps the empty value it holds.
///
/// An empty parent is unreachable or closed on nothing, passes nothing
/// on, and no domain lets Step 1 copy it. Forced inline, with Algorithm
/// 1's domain operations: out of line they cost the one-pass solver about
/// a fifth of its time on power-law networks.
#[inline(always)]
fn settle<A, D, S>(
    net: &ReplayNet<'_, A, D>,
    store: &S,
    s: &mut D::Scratch,
    x: NodeId,
) -> Option<D::Rep>
where
    A: ?Sized,
    D: BeliefDomain,
    S: Store<D::Rep> + ?Sized,
{
    let xs = x as usize;
    let parents = &net.parents[xs];
    if parents.is_root() {
        // A beliefless root stays empty (unreachable).
        return D::root(s, &net.beliefs[xs]);
    }
    if let Some(z) = parents.preferred() {
        let zrep = store.get(z);
        if D::copies(zrep) {
            return Some(zrep.clone());
        }
    }
    D::join(net, store, s, x)
}

/// Reusable node-indexed scratch of [`replay_region`] and the shard
/// workers — allocated once per worker (or once per incremental engine)
/// and reused across every region it solves. `F` is the domain's own
/// flood scratch.
#[derive(Debug, Clone)]
pub(crate) struct ReplayScratch<F> {
    /// Membership flags of the region currently being solved.
    in_region: Vec<bool>,
    /// Closed flags, valid only inside the current region.
    closed: Vec<bool>,
    scc: SccScratch,
    worklist: Vec<NodeId>,
    is_source: Vec<bool>,
    members_buf: Vec<NodeId>,
    flood: F,
}

impl<F: Default> ReplayScratch<F> {
    /// Scratch for a graph of `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        ReplayScratch {
            in_region: vec![false; n],
            closed: vec![false; n],
            scc: SccScratch::new(),
            worklist: Vec::new(),
            is_source: Vec::new(),
            members_buf: Vec::new(),
            flood: F::default(),
        }
    }

    /// Grows the node-indexed arrays to cover `n` nodes.
    pub(crate) fn grow(&mut self, n: usize) {
        self.in_region.resize(n, false);
        self.closed.resize(n, false);
    }

    /// Reserves room for `additional` more nodes in the node-indexed
    /// arrays.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.in_region.reserve_exact(additional);
        self.closed.reserve_exact(additional);
    }
}

/// The Step-1/Step-2 alternation restricted to `members`, with every node
/// outside them final. This is the one regional replay of the codebase:
/// the one-pass solver's cyclic units (outside nodes are sealed ancestor
/// units) and both incremental engines' dirty regions (outside nodes are
/// clean, at their cached representations) run it, for either domain.
///
/// It keeps the one-pass invariant: a node is closed and reachable iff
/// its representation is non-empty. Members are reset to empty first and
/// written only when they close, so the domain's Step-1 test decides
/// inside the region and out. Reachability is never computed: an
/// unreachable member closes empty when its parents have all closed, or
/// with its flood. A cyclic unit is all-reachable or all-unreachable, but
/// a dirty region is not, so a child whose preferred parent Step 1 may not
/// copy waits for the flood of its own SCC, where its other parents count.
///
/// A member whose parents have all closed is a source SCC on its own and
/// is flooded at once through [`settle`] (belief roots included; the
/// printed algorithms' batched Step 2 would flood it in its next round),
/// so chains of unreachable members cost no condensation rounds. On return
/// every member is closed and the scratch flags are clean.
pub(crate) fn replay_region<A, D, S>(
    net: &ReplayNet<'_, A, D>,
    store: &mut S,
    scratch: &mut ReplayScratch<D::Scratch>,
    members: &[NodeId],
) where
    A: Adjacency + ?Sized,
    D: BeliefDomain,
    S: Store<D::Rep> + ?Sized,
{
    let ReplayScratch {
        in_region,
        closed,
        scc,
        worklist,
        is_source,
        members_buf,
        flood,
    } = scratch;
    for &x in members {
        in_region[x as usize] = true;
        debug_assert!(!closed[x as usize], "closed flags must start clean");
        store.set(x, net.dom.empty());
    }
    let mut open_left = members.len();
    worklist.clear();
    worklist.extend_from_slice(members);

    loop {
        // (S1) Preferred-edge copies, and the floods of members whose
        // parents have all closed (belief roots included).
        while let Some(x) = worklist.pop() {
            let xs = x as usize;
            if closed[xs] {
                continue;
            }
            let parents = &net.parents[xs];
            let copies = parents.preferred().is_some_and(|z| D::copies(store.get(z)));
            if !copies
                && parents
                    .iter()
                    .any(|z| in_region[z as usize] && !closed[z as usize])
            {
                continue;
            }
            if let Some(rep) = settle(net, store, flood, x) {
                store.set(x, rep);
            }
            closed[xs] = true;
            open_left -= 1;
            worklist.extend(
                net.g
                    .neighbors(x)
                    .filter(|&w| in_region[w as usize] && !closed[w as usize]),
            );
        }
        if open_left == 0 {
            break;
        }

        // (S2) Condense the open members and flood the source sub-SCCs.
        scc.run(net.g, members.iter().copied(), |v| {
            in_region[v as usize] && !closed[v as usize]
        });
        let comp_count = scc.count();
        is_source.clear();
        is_source.resize(comp_count, true);
        for &x in scc.visited() {
            let cx = scc.comp_of(x).expect("visited");
            for z in net.parents[x as usize].iter() {
                if in_region[z as usize] && !closed[z as usize] && scc.comp_of(z) != Some(cx) {
                    is_source[cx as usize] = false;
                }
            }
        }

        let mut flooded = 0usize;
        for sub in 0..comp_count as u32 {
            if !is_source[sub as usize] {
                continue;
            }
            flooded += 1;
            members_buf.clear();
            members_buf.extend_from_slice(scc.members(sub));
            // Open members hold the empty representation, so a non-empty
            // parent is closed: the flood joins exactly the closed parents.
            debug_assert!(members_buf.iter().all(|&x| {
                D::is_empty(store.get(x))
                    && net.parents[x as usize].iter().all(|z| {
                        !in_region[z as usize] || closed[z as usize] || D::is_empty(store.get(z))
                    })
            }));
            D::flood(net, store, flood, members_buf);
            for &x in members_buf.iter() {
                closed[x as usize] = true;
                open_left -= 1;
            }
            for &x in members_buf.iter() {
                worklist.extend(
                    net.g
                        .neighbors(x)
                        .filter(|&w| in_region[w as usize] && !closed[w as usize]),
                );
            }
        }
        // A finite open subgraph always has a source SCC; failing this
        // would loop forever, so assert unconditionally.
        assert!(flooded > 0, "no source SCC in an open region");
    }

    // Restore the all-clean flag invariant for the next region.
    for &x in members {
        in_region[x as usize] = false;
        closed[x as usize] = false;
    }
}

// ---------------------------------------------------------------------------
// Algorithm 1's domain: possible sets.
// ---------------------------------------------------------------------------

type PossSet = Arc<[Value]>;

/// Algorithm 1's belief domain: a node holds its possible set, sorted and
/// shared by `Arc`. Step 1 copies any non-empty preferred parent, and a
/// flood is the sorted union of the closed parents' sets.
pub(crate) struct BasicDomain {
    /// The one empty set every open or unreachable node shares.
    pub(crate) empty: PossSet,
}

/// Interning cap: beyond this many distinct sets the cache stops growing
/// (lookups still hit; misses allocate fresh).
const SET_CACHE_CAP: usize = 4096;

/// Content-interning cache: most possible sets repeat (domains are small
/// relative to networks), so solves reuse one allocation per distinct set
/// instead of allocating per node.
type SetCache = HashMap<Vec<Value>, PossSet>;

/// [`BasicDomain`]'s flood scratch: the merge buffer and the interning
/// cache. No node-indexed arrays.
#[derive(Debug, Clone, Default)]
pub(crate) struct BasicScratch {
    buf: Vec<Value>,
    cache: SetCache,
}

/// Interns `vals` (sorted, deduplicated) in the worker cache.
fn intern(cache: &mut SetCache, vals: &[Value]) -> PossSet {
    if let Some(set) = cache.get(vals) {
        return Arc::clone(set);
    }
    let set: PossSet = Arc::from(vals);
    if cache.len() < SET_CACHE_CAP {
        cache.insert(vals.to_vec(), Arc::clone(&set));
    }
    set
}

impl BeliefDomain for BasicDomain {
    type Rep = PossSet;
    type Scratch = BasicScratch;

    #[inline]
    fn empty(&self) -> PossSet {
        Arc::clone(&self.empty)
    }

    #[inline(always)]
    fn is_empty(rep: &PossSet) -> bool {
        rep.is_empty()
    }

    #[inline(always)]
    fn copies(rep: &PossSet) -> bool {
        !rep.is_empty()
    }

    #[inline(always)]
    fn root(s: &mut BasicScratch, belief: &ExplicitBelief) -> Option<PossSet> {
        belief.positive().map(|v| intern(&mut s.cache, &[v]))
    }

    /// The union of the parents' sets, reusing an existing allocation
    /// whenever one side is redundant.
    #[inline(always)]
    fn join<A, S>(
        net: &ReplayNet<'_, A, Self>,
        store: &S,
        s: &mut BasicScratch,
        x: NodeId,
    ) -> Option<PossSet>
    where
        A: ?Sized,
        S: Store<PossSet> + ?Sized,
    {
        let mut live = net.parents[x as usize]
            .iter()
            .filter(|&z| !store.get(z).is_empty());
        let a = live.next()?;
        let Some(b) = live.next() else {
            return Some(Arc::clone(store.get(a)));
        };
        let (sa, sb) = (store.get(a), store.get(b));
        if Arc::ptr_eq(sa, sb) {
            return Some(Arc::clone(sa));
        }
        merge_sorted(sa, sb, &mut s.buf);
        if s.buf.as_slice() == sa.as_ref() {
            return Some(Arc::clone(sa));
        }
        if s.buf.as_slice() == sb.as_ref() {
            return Some(Arc::clone(sb));
        }
        Some(intern(&mut s.cache, &s.buf))
    }

    /// possS = the union of all closed parents' sets. Open members and
    /// unreachable nodes hold empty sets, so the plain union over every
    /// parent is exactly the union over the closed ones.
    fn flood<A, S>(
        net: &ReplayNet<'_, A, Self>,
        store: &mut S,
        s: &mut BasicScratch,
        members: &[NodeId],
    ) where
        A: Adjacency + ?Sized,
        S: Store<PossSet> + ?Sized,
    {
        let mut union: BTreeSet<Value> = BTreeSet::new();
        for &x in members {
            for z in net.parents[x as usize].iter() {
                union.extend(store.get(z).iter().copied());
            }
        }
        if union.is_empty() {
            return;
        }
        s.buf.clear();
        s.buf.extend(union);
        let set = intern(&mut s.cache, &s.buf);
        for &x in members {
            store.set(x, Arc::clone(&set));
        }
    }
}

/// Merges two sorted deduplicated slices into `out` (cleared first).
fn merge_sorted(a: &[Value], b: &[Value], out: &mut Vec<Value>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::binarize;
    use crate::network::TrustNetwork;
    use crate::resolution::resolve;

    fn assert_equiv(net: &TrustNetwork, threads: usize) {
        let btn = binarize(net);
        let seq = resolve(&btn).expect("sequential resolves");
        let par = resolve_parallel(&btn, threads).expect("parallel resolves");
        for x in btn.nodes() {
            assert_eq!(seq.poss(x), par.poss(x), "node {x} at {threads} threads");
            assert_eq!(
                seq.is_reachable(x),
                par.is_reachable(x),
                "reachability of {x}"
            );
        }
    }

    #[test]
    fn oscillator_matches_sequential() {
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
        for threads in 1..=4 {
            assert_equiv(&net, threads);
        }
        let r = resolve_network_parallel(&net, 2).unwrap();
        assert_eq!(r.poss(x1), &[v, w]);
        assert_eq!(r.cert(x3), Some(v));
    }

    #[test]
    fn preferred_edge_breaks_cycle_inside_unit() {
        // x1's preferred parent is the external root r: Step 1 must close
        // x1 before the {x1, x2} cycle floods, exactly as sequentially.
        let mut net = TrustNetwork::new();
        let x1 = net.user("x1");
        let x2 = net.user("x2");
        let r = net.user("r");
        let s = net.user("s");
        let v = net.value("v");
        let w = net.value("w");
        net.trust(x1, r, 100).unwrap();
        net.trust(x1, x2, 50).unwrap();
        net.trust(x2, x1, 100).unwrap();
        net.trust(x2, s, 50).unwrap();
        net.believe(r, v).unwrap();
        net.believe(s, w).unwrap();
        for threads in 1..=4 {
            assert_equiv(&net, threads);
        }
        let res = resolve_network_parallel(&net, 3).unwrap();
        assert_eq!(res.cert(x1), Some(v));
        assert_eq!(res.cert(x2), Some(v));
    }

    #[test]
    fn unreachable_preferred_parent_falls_back_to_union() {
        // x's preferred parent dangles (no belief anywhere upstream); its
        // low-priority parent must still supply the value.
        let mut net = TrustNetwork::new();
        let x = net.user("x");
        let dead = net.user("dead");
        let live = net.user("live");
        let v = net.value("v");
        net.trust(x, dead, 100).unwrap();
        net.trust(x, live, 1).unwrap();
        net.believe(live, v).unwrap();
        for threads in 1..=4 {
            assert_equiv(&net, threads);
        }
        let r = resolve_network_parallel(&net, 2).unwrap();
        assert_eq!(r.cert(x), Some(v));
        assert!(r.poss(dead).is_empty());
    }

    #[test]
    fn tied_parents_and_unreachable_nodes() {
        let mut net = TrustNetwork::new();
        let x = net.user("x");
        let a = net.user("a");
        let b = net.user("b");
        let lonely = net.user("lonely");
        let v = net.value("v");
        let w = net.value("w");
        net.trust(x, a, 5).unwrap();
        net.trust(x, b, 5).unwrap();
        net.believe(a, v).unwrap();
        net.believe(b, w).unwrap();
        let _ = lonely;
        for threads in 1..=4 {
            assert_equiv(&net, threads);
        }
        let r = resolve_network_parallel(&net, 2).unwrap();
        assert_eq!(r.poss(x), &[v, w]);
        assert!(r.poss(lonely).is_empty());
    }

    #[test]
    fn nested_scc_chain_matches() {
        // Chained 2-cycles: multi-level plans with cyclic units.
        let mut net = TrustNetwork::new();
        let v = net.value("v");
        let w = net.value("w");
        let r1 = net.user("r1");
        let r2 = net.user("r2");
        net.believe(r1, v).unwrap();
        net.believe(r2, w).unwrap();
        let mut prev = r1;
        for i in 0..8 {
            let a = net.user(&format!("a{i}"));
            let b = net.user(&format!("b{i}"));
            net.trust(a, b, 10).unwrap();
            net.trust(b, a, 10).unwrap();
            net.trust(a, prev, 5).unwrap();
            net.trust(b, r2, 1).unwrap();
            prev = b;
        }
        for threads in [1, 2, 3, 8] {
            assert_equiv(&net, threads);
        }
    }

    #[test]
    fn beliefless_cycle_stays_empty() {
        // A 2-cycle with no external beliefs must stay undefined
        // (Example 2.6's "no lineage" case).
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let b = net.user("b");
        net.trust(a, b, 1).unwrap();
        net.trust(b, a, 1).unwrap();
        net.value("u");
        for threads in 1..=4 {
            assert_equiv(&net, threads);
        }
        let r = resolve_network_parallel(&net, 2).unwrap();
        assert!(r.poss(a).is_empty());
        assert!(r.poss(b).is_empty());
    }

    #[test]
    fn empty_and_beliefless_networks() {
        let net = TrustNetwork::new();
        assert_equiv(&net, 4);
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let b = net.user("b");
        net.trust(a, b, 1).unwrap();
        assert_equiv(&net, 4);
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
            resolve_parallel(&btn, 2),
            Err(Error::NegativeBeliefsUnsupported(_))
        ));
    }

    #[test]
    fn planned_resolver_reuses_one_plan_across_beliefs() {
        // Section 4's bulk shape: fixed structure, reseeded root beliefs.
        let mut net = TrustNetwork::new();
        let x = net.user("x");
        let a = net.user("a");
        let b = net.user("b");
        let v = net.value("v");
        let w = net.value("w");
        net.trust(x, a, 10).unwrap();
        net.trust(x, b, 5).unwrap();
        net.believe(a, v).unwrap();
        net.believe(b, w).unwrap();
        let btn = binarize(&net);
        let planned = PlannedResolver::new(&btn, ParOptions::default());

        let mut work = btn.clone();
        let first = planned.resolve(&work, 2).unwrap();
        assert_eq!(
            first.poss(btn.node_of(x)),
            resolve(&btn).unwrap().poss(btn.node_of(x))
        );

        // Reseed: a now asserts w — same plan, new fixpoint.
        let root = btn.belief_root(a).expect("a believes");
        work.set_root_belief(root, crate::signed::ExplicitBelief::Pos(w));
        let second = planned.resolve(&work, 2).unwrap();
        assert_eq!(second.poss(btn.node_of(x)), &[w]);
        assert_eq!(
            second.poss(btn.node_of(x)),
            resolve(&work).unwrap().poss(btn.node_of(x))
        );
    }

    #[test]
    fn a_panicking_shard_panics_run_shards_instead_of_hanging() {
        // Eight independent one-node shards; shard 0 panics. Its
        // siblings drain the other seven and would then wait forever for
        // `done` to reach 8.
        let g = trustmap_graph::Csr::from_digraph(&trustmap_graph::DiGraph::new(8));
        let plan = ShardPlan::build(
            &g,
            |_| std::iter::empty(),
            |_| true,
            0..8,
            &mut SccScratch::new(),
            1,
            false,
        );
        assert_eq!(plan.shard_count(), 8);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                run_shards(&plan, 4, || (), |_, s| assert_ne!(s, 0, "shard 0 blows up"))
            });
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("run_shards hung on a panicked worker");
        assert!(panicked, "the worker's panic must reach the caller");
    }

    #[test]
    fn extreme_shard_targets_match_sequential() {
        // Shard target 1 puts every unit in its own shard: the scheduler
        // must still produce identical results, in both dep modes' reach.
        // At the other end any `usize` is a legal target; ones past the
        // u32 unit-id range used to wrap a chunk end and panic a worker.
        let mut net = TrustNetwork::new();
        let v = net.value("v");
        let root = net.user("root");
        net.believe(root, v).unwrap();
        let mut prev = root;
        for i in 0..20 {
            let u = net.user(&format!("u{i}"));
            net.trust(u, prev, 1).unwrap();
            prev = u;
        }
        let btn = binarize(&net);
        let seq = resolve(&btn).unwrap();
        for shard_target in [1, u32::MAX as usize, usize::MAX / 4, usize::MAX] {
            for threads in [1, 2, 4] {
                for exact_deps in [false, true] {
                    let par = resolve_parallel_with(
                        &btn,
                        ParOptions {
                            threads,
                            shard_target,
                            exact_deps,
                        },
                    )
                    .unwrap();
                    for x in btn.nodes() {
                        assert_eq!(
                            seq.poss(x),
                            par.poss(x),
                            "node {x} target {shard_target} exact={exact_deps}"
                        );
                    }
                }
            }
        }
    }
}
