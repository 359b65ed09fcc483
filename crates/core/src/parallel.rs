//! Condensation-sharded parallel resolution.
//!
//! The sequential Algorithm 1 ([`crate::resolution::resolve`]) interleaves
//! preferred-edge propagation with repeated SCC condensations of the whole
//! open subgraph. This module restructures the same computation around one
//! insight: a node's final possible set depends only on its **ancestors**,
//! so the SCC condensation of the BTN is a DAG whose components can be
//! solved independently — and in parallel — as soon as their predecessors
//! are sealed.
//!
//! The pipeline:
//!
//! 1. [`ShardPlan::build`] computes the schedule with a trim-first peel:
//!    the acyclic bulk levels in one Kahn pass, only the cyclic residue
//!    runs Tarjan (see `trustmap_graph::shard`). No reachability BFS is
//!    needed either — in this algorithm a finalized node is reachable iff
//!    its possible set is non-empty, so emptiness doubles as the
//!    closed-boundary test (unreachable parents contribute nothing to
//!    Step-2 unions, exactly as in the sequential resolver).
//! 2. `std::thread::scope` workers pull ready shards from a shared queue;
//!    sealing a shard decrements downstream dependency counters (exact
//!    shard edges, or per-level frontier counters on very deep plans),
//!    enqueueing shards that hit zero. Level-synchronous in structure, but
//!    without global barriers in exact mode: a fast worker starts on the
//!    next level while slow shards of the previous one still run.
//!
//! ### Per-unit solving
//!
//! When a unit is processed every external parent is final: ancestors are
//! sealed (dependency edges only point downward) and unreachable parents
//! hold empty sets forever. Acyclic singleton units take a closed-form
//! fast path — root belief, preferred-parent copy, or sorted ≤2-way union
//! with content interning. Cyclic units run `replay_region`, Algorithm
//! 1's Step-1/Step-2 alternation restricted to their members — the one
//! regional replay, which the incremental engine runs on its dirty
//! regions too.
//!
//! ### Determinism invariants
//!
//! The result is **bit-for-bit identical** to the sequential resolver at
//! every thread count:
//!
//! * shard membership and work granularity come from the deterministic
//!   [`ShardPlan`], never from thread timing;
//! * each node is written by exactly one shard, and every cross-shard read
//!   crosses a seal whose happens-before edge is the dependency counter
//!   (`AcqRel` chain) plus the ready-queue mutex;
//! * floods union values through sorted sets, so merge order inside a
//!   step cannot influence content;
//! * units inside a shard are solved in plan order, the same every run.
//!
//! `tests/parallel_oracle.rs` checks equality against [`resolve`] over
//! random networks at 1–8 threads.
//!
//! [`resolve`]: crate::resolution::resolve

// The crate denies `unsafe_code`; this module (the raw-pointer result slab
// of the intra-solve scheduler) and two items of `crate::skeptic` are the
// only places that opt back in. Every block below rests on the
// [`SharedSlab`] contract and says which half.
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
/// per assignment; the per-call cost drops to the solve itself.
///
/// The whole-network plan is the degenerate identity case of the
/// region-compact layer (`trustmap_graph::region`), so it shares the one
/// planning entry point with the exact engine's dirty-region solves.
pub struct PlannedResolver {
    view: RegionCompactor,
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
        assert_eq!(
            btn.node_count(),
            self.nodes,
            "plan was built for a different BTN structure"
        );
        if let Some(x) = btn.nodes().find(|&x| btn.belief(x).has_negatives()) {
            let user = btn.origin(x).unwrap_or(crate::user::User(x));
            return Err(Error::NegativeBeliefsUnsupported(user));
        }
        let empty: Arc<[Value]> = Arc::from([] as [Value; 0]);
        let mut poss = vec![empty; self.nodes];
        let ctx = Ctx {
            net: ReplayNet {
                g: &self.view,
                parents: &btn.parents,
                beliefs: &btn.beliefs,
            },
            plan: &self.plan,
            poss: SharedSlab::new(&mut poss),
        };
        run_shards(&ctx, threads);
        let reachable = poss.iter().map(|s| !s.is_empty()).collect();
        Ok(Resolution::from_parts(
            poss,
            reachable,
            self.plan.level_count(),
        ))
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
// Shared possible-set storage.
// ---------------------------------------------------------------------------

type PossSet = Arc<[Value]>;

/// Raw shared view of a per-node result slab (`Arc<[Value]>` possible sets
/// here, [`crate::skeptic::RepPoss`] representations in the skeptic
/// pipeline).
///
/// # Safety contract (upheld by the scheduler)
///
/// * every node belongs to at most one shard, and only the worker holding
///   that shard calls [`SharedSlab::write`] / [`SharedSlab::get_mut`] for
///   it;
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

    /// Mutable access to the slot of `x` (caller must own `x`'s shard).
    #[inline]
    #[allow(clippy::mut_from_ref)] // the slab is a cell; see safety contract
    pub(crate) unsafe fn get_mut(&self, x: NodeId) -> &mut T {
        debug_assert!((x as usize) < self.len);
        &mut *self.ptr.add(x as usize)
    }

    /// Prefetches the slot of `x` (a hint; no synchronization implied).
    #[inline]
    pub(crate) unsafe fn prefetch(&self, x: NodeId) {
        debug_assert!((x as usize) < self.len);
        trustmap_graph::shard::prefetch(self.ptr.add(x as usize));
    }
}

// ---------------------------------------------------------------------------
// Worker-local scratch.
// ---------------------------------------------------------------------------

/// Interning cap: beyond this many distinct sets the cache stops growing
/// (lookups still hit; misses allocate fresh).
const SET_CACHE_CAP: usize = 4096;

/// Content-interning cache: most possible sets repeat (domains are small
/// relative to networks), so solves reuse one allocation per distinct set
/// instead of allocating per node.
type SetCache = HashMap<Vec<Value>, PossSet>;

/// Per-worker scratch — allocated once per worker, reused across every
/// unit the worker solves (no shared mutable state).
struct Worker {
    replay: ReplayScratch,
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

// ---------------------------------------------------------------------------
// The shard scheduler.
// ---------------------------------------------------------------------------

/// Shared solving context (immutable during the parallel phase): the
/// whole-network identity view, the BTN's parents and beliefs, the plan,
/// and the result slab, all in global node ids.
struct Ctx<'a> {
    net: ReplayNet<'a, RegionCompactor>,
    plan: &'a ShardPlan,
    poss: SharedSlab<PossSet>,
}

/// A shard-solving backend the generic scheduler can drive.
///
/// Implementors own the shared result storage (through a [`SharedSlab`])
/// and the per-unit solving semantics; the scheduler owns claiming,
/// sealing, and the dependency-counter happens-before chain. Algorithm 1
/// ([`Ctx`]) and Algorithm 2 ([`crate::skeptic`]'s planned resolver) are
/// the two backends.
pub(crate) trait ShardSolver: Sync {
    /// Worker-local scratch, allocated once per worker thread.
    type Worker;

    /// Allocates a fresh worker scratch.
    fn new_worker(&self) -> Self::Worker;

    /// Solves every unit of shard `s`. May read the results of nodes in
    /// sealed shards and must write each of its own nodes exactly once.
    fn solve_shard(&self, worker: &mut Self::Worker, s: u32);

    /// The plan being executed (drives the scheduler).
    fn plan(&self) -> &ShardPlan;
}

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

/// Wakes every sibling when its worker unwinds, so a panicking
/// [`ShardSolver`] surfaces as a panic of [`run_shards`] (the scope
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

/// Drives every shard of `solver.plan()` to completion over `threads`
/// workers — the generic scheduler behind both the Algorithm-1 and the
/// Algorithm-2 (skeptic) planned resolvers.
///
/// With `threads <= 1` the shards run inline on the caller's thread in id
/// order (ids ascend with level, so that order is dependency-safe).
///
/// # Panics
/// Re-raises a panic of any [`ShardSolver::solve_shard`] call after every
/// worker has stopped.
pub(crate) fn run_shards<S: ShardSolver>(solver: &S, threads: usize) {
    let plan = solver.plan();
    let nshards = plan.shard_count();
    if nshards == 0 {
        return;
    }
    let threads = threads.clamp(1, nshards);

    if threads == 1 {
        let mut worker = solver.new_worker();
        for s in 0..nshards as u32 {
            solver.solve_shard(&mut worker, s);
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
            scope.spawn(|| worker_loop(solver, &queue));
        }
    });
    debug_assert_eq!(queue.done.load(Ordering::Relaxed), nshards);
}

/// One worker: claim ready shards until every shard is sealed (or a
/// sibling unwound).
fn worker_loop<S: ShardSolver>(solver: &S, queue: &Queue) {
    let plan = solver.plan();
    let mut worker = solver.new_worker();
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

        solver.solve_shard(&mut worker, s);

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

impl ShardSolver for Ctx<'_> {
    type Worker = Worker;

    fn new_worker(&self) -> Worker {
        Worker {
            replay: ReplayScratch::new(self.poss.len),
            cache: SetCache::new(),
        }
    }

    fn solve_shard(&self, worker: &mut Worker, s: u32) {
        solve_shard(self, worker, s);
    }

    fn plan(&self) -> &ShardPlan {
        self.plan
    }
}

/// Solves every unit of shard `s` in plan order.
fn solve_shard(ctx: &Ctx<'_>, worker: &mut Worker, s: u32) {
    let Worker { replay, cache } = worker;
    let mut store = SlabPoss {
        slab: &ctx.poss,
        cache,
    };
    let parents = ctx.net.parents;
    if ctx.plan.singleton_layout() {
        // All-singleton plan (a self-loop can never peel, so none exist
        // here): stream the shard's node list as a two-stage software
        // pipeline — parents are prefetched LOOKAHEAD nodes ahead, and at
        // half that distance (when the parents line has arrived) the
        // parents' poss slots are prefetched in turn, so both random
        // accesses of a node are resident when it is solved.
        const LOOKAHEAD: usize = 8;
        use trustmap_graph::shard::prefetch;
        let nodes = ctx.plan.shard_nodes(s);
        for i in 0..nodes.len() {
            if i + LOOKAHEAD < nodes.len() {
                prefetch(&parents[nodes[i + LOOKAHEAD] as usize]);
            }
            if i + LOOKAHEAD / 2 < nodes.len() {
                for z in parents[nodes[i + LOOKAHEAD / 2] as usize].iter() {
                    // SAFETY: a cache hint on an in-bounds slot; nothing is
                    // read.
                    unsafe { ctx.poss.prefetch(z) };
                }
            }
            solve_singleton(&ctx.net, &mut store, &mut replay.union_buf, nodes[i]);
        }
        return;
    }
    for u in ctx.plan.units(s) {
        let members = ctx.plan.unit_members(u);
        if let [x] = *members {
            if !parents[x as usize].iter().any(|z| z == x) {
                solve_singleton(&ctx.net, &mut store, &mut replay.union_buf, x);
                continue;
            }
        }
        replay_region(&ctx.net, &mut store, replay, members);
    }
}

/// Closed-form solve of an acyclic singleton unit: every parent is final,
/// so [`settle`] applies at once.
///
/// Forced inline, with `settle`: as out-of-line calls they cost the
/// one-pass solver about a fifth of its time on power-law networks.
#[inline(always)]
fn solve_singleton(
    net: &ReplayNet<'_, RegionCompactor>,
    store: &mut SlabPoss<'_>,
    buf: &mut Vec<Value>,
    x: NodeId,
) {
    let xs = x as usize;
    if let Some(set) = settle(store, &net.parents[xs], &net.beliefs[xs], buf) {
        store.set(x, set);
    }
}

// ---------------------------------------------------------------------------
// Algorithm 1's regional replay.
// ---------------------------------------------------------------------------

/// Where the regional replay reads and writes possible sets: an exclusively
/// borrowed slice for the incremental engine, the [`SharedSlab`] for the
/// parallel workers (as [`crate::skeptic::RepStore`] is for Algorithm 2).
pub(crate) trait PossStore {
    /// The possible set of `x`.
    fn poss(&self, x: NodeId) -> &PossSet;
    /// Stores the possible set of `x` (the caller must own `x`'s region).
    fn set(&mut self, x: NodeId, set: PossSet);
    /// A set holding `vals` (sorted, deduplicated).
    fn make(&mut self, vals: &[Value]) -> PossSet {
        Arc::from(vals)
    }
}

impl PossStore for [PossSet] {
    #[inline]
    fn poss(&self, x: NodeId) -> &PossSet {
        &self[x as usize]
    }
    #[inline]
    fn set(&mut self, x: NodeId, set: PossSet) {
        self[x as usize] = set;
    }
}

/// [`PossStore`] over the parallel workers' shared slab, interning the
/// sets it makes in the worker's cache.
///
/// Safety: the scheduler guarantees each node is written by exactly one
/// worker, and reads target sealed shards or the worker's own unit (see
/// [`SharedSlab`]).
struct SlabPoss<'a> {
    slab: &'a SharedSlab<PossSet>,
    cache: &'a mut SetCache,
}

impl PossStore for SlabPoss<'_> {
    #[inline]
    fn poss(&self, x: NodeId) -> &PossSet {
        // SAFETY: scheduler contract (sealed ancestors / own unit).
        unsafe { self.slab.read(x) }
    }
    #[inline]
    fn set(&mut self, x: NodeId, set: PossSet) {
        // SAFETY: the worker owns every node of the unit it solves, and no
        // unit writes a node twice.
        unsafe { self.slab.write(x, set) }
    }
    fn make(&mut self, vals: &[Value]) -> PossSet {
        intern(self.cache, vals)
    }
}

/// Immutable network view of the replay, indexed by BTN node id.
pub(crate) struct ReplayNet<'a, A: ?Sized> {
    /// Forward adjacency (edges parent → child).
    pub g: &'a A,
    /// Per-node (≤ 2) parents.
    pub parents: &'a [Parents],
    /// Per-node explicit beliefs (non-`None` only at roots).
    pub beliefs: &'a [ExplicitBelief],
}

/// Reusable node-indexed scratch of [`replay_region`] — allocated once per
/// worker (or once per incremental engine) and reused across every region
/// it solves.
#[derive(Debug, Clone)]
pub(crate) struct ReplayScratch {
    /// Membership flags of the region currently being solved.
    in_region: Vec<bool>,
    /// Closed flags, valid only inside the current region.
    closed: Vec<bool>,
    scc: SccScratch,
    worklist: Vec<NodeId>,
    is_source: Vec<bool>,
    members_buf: Vec<NodeId>,
    union_buf: Vec<Value>,
    empty: PossSet,
}

impl ReplayScratch {
    /// Scratch for a graph of `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        ReplayScratch {
            in_region: vec![false; n],
            closed: vec![false; n],
            scc: SccScratch::new(),
            worklist: Vec::new(),
            is_source: Vec::new(),
            members_buf: Vec::new(),
            union_buf: Vec::new(),
            empty: Arc::from([] as [Value; 0]),
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

/// Algorithm 1's set for a node whose parents will not change any more:
/// Step 1's copy of a non-empty preferred parent, else the flood of the
/// node alone — the union of its parents' sets — and at a root its own
/// belief. `None` is the empty set (the node is unreachable): its slot
/// keeps the empty set it holds.
///
/// An empty parent is unreachable (Algorithm 1 never closes it) and passes
/// nothing on, which is why Step 1 must not copy from it.
#[inline(always)]
fn settle<S: PossStore + ?Sized>(
    store: &mut S,
    parents: &Parents,
    belief: &ExplicitBelief,
    buf: &mut Vec<Value>,
) -> Option<PossSet> {
    if parents.is_root() {
        // A believing root; beliefless roots stay empty (unreachable).
        return belief.positive().map(|v| store.make(&[v]));
    }
    if let Some(z) = parents.preferred() {
        if !store.poss(z).is_empty() {
            return Some(Arc::clone(store.poss(z)));
        }
    }
    // Reuse an existing allocation whenever one side is redundant.
    let mut live = parents.iter().filter(|&z| !store.poss(z).is_empty());
    let a = live.next()?;
    let Some(b) = live.next() else {
        return Some(Arc::clone(store.poss(a)));
    };
    let (sa, sb) = (store.poss(a), store.poss(b));
    if Arc::ptr_eq(sa, sb) {
        return Some(Arc::clone(sa));
    }
    merge_sorted(sa, sb, buf);
    if buf.as_slice() == sa.as_ref() {
        return Some(Arc::clone(sa));
    }
    if buf.as_slice() == sb.as_ref() {
        return Some(Arc::clone(sb));
    }
    Some(store.make(buf))
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

/// Algorithm 1's Step-1/Step-2 alternation restricted to `members`, with
/// every node outside them final. This is the one regional replay of the
/// codebase: the parallel solver's cyclic units (outside nodes are sealed
/// ancestor units) and the incremental engine's dirty regions (outside
/// nodes are clean, at their cached sets) both run it.
///
/// It keeps the one-pass solver's invariant: a node is closed and
/// reachable iff its set is non-empty. Members are reset to the empty set
/// first and written only when they close, so one emptiness test decides
/// Step 1 inside the region and out. Reachability is never computed: an
/// unreachable member closes empty when its parents have all closed, or
/// with its flood. A cyclic unit is all-reachable or all-unreachable, but
/// a dirty region is not, so a child whose preferred parent closed empty
/// waits for the flood of its own SCC, where its other parents count.
///
/// A member whose parents have all closed is a source SCC on its own and
/// is flooded at once (the batched Step 2 of
/// [`crate::resolution::resolve_with`] would flood it in its next round),
/// so chains of unreachable members cost no condensation rounds. On return
/// every member is closed and the scratch flags are clean.
pub(crate) fn replay_region<A, S>(
    net: &ReplayNet<'_, A>,
    store: &mut S,
    scratch: &mut ReplayScratch,
    members: &[NodeId],
) where
    A: Adjacency + ?Sized,
    S: PossStore + ?Sized,
{
    let ReplayScratch {
        in_region,
        closed,
        scc,
        worklist,
        is_source,
        members_buf,
        union_buf,
        empty,
    } = scratch;
    for &x in members {
        in_region[x as usize] = true;
        debug_assert!(!closed[x as usize], "closed flags must start clean");
        store.set(x, Arc::clone(empty));
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
            let copies = parents
                .preferred()
                .is_some_and(|z| !store.poss(z).is_empty());
            if !copies
                && parents
                    .iter()
                    .any(|z| in_region[z as usize] && !closed[z as usize])
            {
                continue;
            }
            if let Some(set) = settle(store, parents, &net.beliefs[xs], union_buf) {
                store.set(x, set);
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
            // possS = union of all closed parents' sets, snapshotted
            // before any member closes. Open members and unreachable nodes
            // hold empty sets, so the plain union over every parent is
            // exactly the union over the closed ones.
            let mut union: BTreeSet<Value> = BTreeSet::new();
            for &x in members_buf.iter() {
                for z in net.parents[x as usize].iter() {
                    union.extend(store.poss(z).iter().copied());
                }
            }
            union_buf.clear();
            union_buf.extend(union);
            let set = (!union_buf.is_empty()).then(|| store.make(union_buf));
            for &x in members_buf.iter() {
                if let Some(set) = &set {
                    store.set(x, Arc::clone(set));
                }
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
        /// Eight independent one-node shards; shard 0 panics. Its
        /// siblings drain the other seven and would then wait forever for
        /// `done` to reach 8.
        struct Bomb(ShardPlan);
        impl ShardSolver for Bomb {
            type Worker = ();
            fn new_worker(&self) {}
            fn solve_shard(&self, _: &mut (), s: u32) {
                assert_ne!(s, 0, "shard 0 blows up");
            }
            fn plan(&self) -> &ShardPlan {
                &self.0
            }
        }
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
            let outcome = std::panic::catch_unwind(|| run_shards(&Bomb(plan), 4));
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
