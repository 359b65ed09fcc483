//! Condensation sharding: the static schedule of the parallel resolver.
//!
//! The SCC condensation of a directed graph is a DAG, and a node's resolved
//! state depends only on its ancestors — so condensation components can be
//! solved concurrently as long as every predecessor is finished first (the
//! level-synchronous structure parallel SCC engines exploit). [`ShardPlan`]
//! computes that schedule without ever running a whole-graph Tarjan:
//!
//! 1. **Trim peel.** A Kahn-style peel over in-degree counters removes the
//!    acyclic bulk of the graph in one pass, assigning each peeled node its
//!    topological **level** (`1 + max(level of active parents)`). Trust
//!    networks are overwhelmingly acyclic, so this usually consumes the
//!    whole graph — the same "trim before SCC" observation made by parallel
//!    SCC decompositions (Hong et al.).
//! 2. **Cyclic residue.** Nodes the peel cannot reach sit in cycles or
//!    strictly downstream of one. Only this residue runs Tarjan; its
//!    components are leveled by a second Kahn pass over the quotient.
//! 3. **Units and shards.** Every peeled node and every residue component
//!    becomes a *unit*; units of one level are chunked into *shards* of
//!    roughly `target_nodes` member nodes — the work quantum handed to a
//!    worker. Units on the same level are pairwise edge-free (any
//!    dependency strictly increases the level), hence independent.
//! 4. **Dependencies.** Frontier mode (the default) keeps one seal counter
//!    per level: level `L + 1` opens when the last shard of level `L`
//!    seals — O(shards) to build. Exact mode stores deduplicated
//!    shard-to-shard edges (bitset-built, one pass over the region's
//!    in-edges); a shard is ready the moment its own predecessors sealed,
//!    which pays off on deep, skewed condensations where whole-level
//!    barriers leave workers idle. Both modes admit the same ready-queue
//!    driver and produce identical results.
//!
//! All phases are deterministic (fixed iteration orders, no timing
//! dependence), so shard membership — and therefore the work a thread
//! performs — is identical across runs and thread counts.

use crate::adjacency::Adjacency;
use crate::digraph::NodeId;
use crate::scc::SccScratch;

/// Best-effort cache prefetch of `p` (no-op on architectures without a
/// hint instruction). The peel — and the resolver's solve loops — touch
/// one random slot per edge; issuing the load a few items ahead hides
/// most of the miss latency.
#[inline(always)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; any address is allowed.
    #[allow(unsafe_code)]
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// How many neighbors ahead the peel prefetches.
const PEEL_LOOKAHEAD: usize = 8;

/// Unassigned marker in the node → shard map.
const NO_SHARD: u32 = u32::MAX;

/// Level bits of the narrow peel word (the rest hold the pending count).
const P32_LEVEL_BITS: u32 = 24;

/// One node's packed (pending, level) peel state. The peel does one
/// random access into the state array per edge, so word size directly
/// sets the array's cache footprint.
trait PeelState: Copy + Default {
    /// Packs an initial pending count (level 0), or `None` if `count`
    /// does not fit this word.
    fn init(count: u32) -> Option<Self>;
    /// Whether the node has been peeled.
    fn is_peeled(self) -> bool;
    /// The node's current level.
    fn level(self) -> u32;
    /// Marks the node peeled (level kept).
    fn peel(self) -> Self;
    /// Raises the level to at least `next` and decrements pending.
    fn absorb(self, next: u32) -> Self;
    /// Whether pending reached zero.
    fn pending_zero(self) -> bool;
}

/// Narrow state: 8-bit pending (255 = peeled), 24-bit level. Fits any
/// graph with in-degrees ≤ 254 and fewer than 2²⁴ nodes — in particular
/// every binarized trust network (in-degree ≤ 2).
#[derive(Debug, Clone, Copy, Default)]
struct P32(u32);

impl PeelState for P32 {
    #[inline]
    fn init(count: u32) -> Option<Self> {
        (count < 0xFF).then_some(P32(count))
    }
    #[inline]
    fn is_peeled(self) -> bool {
        self.0 & 0xFF == 0xFF
    }
    #[inline]
    fn level(self) -> u32 {
        self.0 >> 8
    }
    #[inline]
    fn peel(self) -> Self {
        P32(self.0 | 0xFF)
    }
    #[inline]
    fn absorb(self, next: u32) -> Self {
        let lvl = (self.0 >> 8).max(next);
        P32((lvl << 8) | ((self.0 & 0xFF) - 1))
    }
    #[inline]
    fn pending_zero(self) -> bool {
        self.0 & 0xFF == 0
    }
}

/// Wide state: 32-bit pending (`u32::MAX` = peeled), 32-bit level.
#[derive(Debug, Clone, Copy, Default)]
struct P64(u64);

impl PeelState for P64 {
    #[inline]
    fn init(count: u32) -> Option<Self> {
        (count < u32::MAX).then_some(P64(count as u64))
    }
    #[inline]
    fn is_peeled(self) -> bool {
        self.0 as u32 == u32::MAX
    }
    #[inline]
    fn level(self) -> u32 {
        (self.0 >> 32) as u32
    }
    #[inline]
    fn peel(self) -> Self {
        P64(self.0 | u32::MAX as u64)
    }
    #[inline]
    fn absorb(self, next: u32) -> Self {
        let lvl = ((self.0 >> 32) as u32).max(next);
        P64(((lvl as u64) << 32) | ((self.0 as u32 - 1) as u64))
    }
    #[inline]
    fn pending_zero(self) -> bool {
        self.0 as u32 == 0
    }
}

/// Exact dependencies are refused above this many shards (the bitset costs
/// shards² bits); such plans fall back to frontier scheduling.
pub const EXACT_DEPS_LIMIT: usize = 4096;

/// Reusable [`ShardPlan`] construction buffers: the peel's packed
/// (pending, level) state words and its traversal stack — the only
/// build-internal allocations proportional to the planned node space.
/// Engines that replan per dirty region pool one of these so steady-state
/// planning reallocates nothing beyond the plan's own (region-sized)
/// vectors.
#[derive(Debug, Default)]
pub struct PlanScratch {
    state32: Vec<P32>,
    state64: Vec<P64>,
    stack: Vec<NodeId>,
}

impl PlanScratch {
    /// Bytes currently retained by the pooled peel buffers.
    pub fn scratch_bytes(&self) -> usize {
        self.state32.capacity() * std::mem::size_of::<P32>()
            + self.state64.capacity() * std::mem::size_of::<P64>()
            + self.stack.capacity() * std::mem::size_of::<NodeId>()
    }
}

/// How shard readiness is tracked.
#[derive(Debug, Clone)]
enum Deps {
    /// Exact deduplicated shard-to-shard edges: `succ[starts[s]..starts[s+1]]`
    /// are the downstream shards of `s`; `in_counts[t]` predecessors must
    /// seal before `t` is ready.
    Edges {
        succ_targets: Vec<u32>,
        succ_starts: Vec<u32>,
        in_counts: Vec<u32>,
    },
    /// Level frontier: level `l + 1` becomes ready when all
    /// `level_counts[l]` shards of level `l` have sealed.
    Frontier { level_counts: Vec<u32> },
}

/// The dependency representation a [`ShardPlan`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepMode {
    /// Exact shard-edge dependencies.
    Edges,
    /// Strict level frontier.
    Frontier,
}

/// The level-ordered shard schedule of a graph region.
///
/// *Units* are the atomic work items: a single acyclic node, or one
/// strongly connected component of the cyclic residue. Unit ids ascend
/// with level and are contiguous per shard; shard ids ascend with level
/// too, so iterating shards in id order is a valid sequential schedule.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Member nodes grouped by unit. With `unit_starts == None` every unit
    /// is a singleton and `unit_nodes[u]` is unit `u`'s only member.
    unit_nodes: Vec<NodeId>,
    unit_starts: Option<Vec<u32>>,
    /// Unit ranges per shard: units `shard_unit_starts[s]..shard_unit_starts[s+1]`.
    shard_unit_starts: Vec<u32>,
    /// Level of each shard (shards never span levels).
    shard_level: Vec<u32>,
    /// Owning shard per node; built only in exact-deps mode (empty
    /// otherwise).
    node_shard: Vec<u32>,
    /// First shard id of each level: `level_shard_starts[l]..level_shard_starts[l+1]`.
    level_shard_starts: Vec<u32>,
    deps: Deps,
    levels: u32,
}

impl ShardPlan {
    /// Builds the schedule for the subgraph induced by `active` nodes.
    ///
    /// * `g` — forward adjacency (edges parent → child) over the full node
    ///   id space; edges touching inactive nodes are ignored.
    /// * `in_edges` — yields the in-neighbors (parents) of a node. Must
    ///   enumerate the same edge multiset as `g` (duplicates included), or
    ///   the peel's counters desynchronize.
    /// * `active` — membership of the region to schedule.
    /// * `candidates` — iterator over the active nodes, **without
    ///   repeats** (extra inactive ids are fine and filtered); its order
    ///   fixes the deterministic unit layout.
    /// * `scratch` — reused Tarjan buffers for the cyclic residue.
    /// * `target_nodes` — member nodes per shard (at least one unit each).
    /// * `exact_deps` — request exact shard-edge dependencies (falls back
    ///   to frontier above [`EXACT_DEPS_LIMIT`] shards).
    pub fn build<A, I, It, K>(
        g: &A,
        in_edges: I,
        active: K,
        candidates: impl Iterator<Item = NodeId> + Clone,
        scratch: &mut SccScratch,
        target_nodes: usize,
        exact_deps: bool,
    ) -> ShardPlan
    where
        A: Adjacency + ?Sized,
        I: Fn(NodeId) -> It,
        It: Iterator<Item = NodeId>,
        K: Fn(NodeId) -> bool,
    {
        ShardPlan::build_pooled(
            g,
            in_edges,
            active,
            candidates,
            None,
            scratch,
            &mut PlanScratch::default(),
            target_nodes,
            exact_deps,
        )
    }

    /// [`ShardPlan::build`] with the active-in-degree of every node
    /// precomputed by the caller (`in_degrees[x]` = number of active
    /// parents of `x`; ignored for inactive nodes). Callers that already
    /// scan the in-edges — e.g. to build the forward CSR — fuse the count
    /// into that scan and skip a whole pass here.
    #[allow(clippy::too_many_arguments)] // mirrors build() plus the degree table
    pub fn build_with_in_degrees<A, I, It, K>(
        g: &A,
        in_edges: I,
        active: K,
        candidates: impl Iterator<Item = NodeId> + Clone,
        in_degrees: &[u32],
        scratch: &mut SccScratch,
        target_nodes: usize,
        exact_deps: bool,
    ) -> ShardPlan
    where
        A: Adjacency + ?Sized,
        I: Fn(NodeId) -> It,
        It: Iterator<Item = NodeId>,
        K: Fn(NodeId) -> bool,
    {
        ShardPlan::build_pooled(
            g,
            in_edges,
            active,
            candidates,
            Some(in_degrees),
            scratch,
            &mut PlanScratch::default(),
            target_nodes,
            exact_deps,
        )
    }

    /// The fully pooled build: like [`ShardPlan::build_with_in_degrees`]
    /// (with the degree table optional) but drawing the peel's node-space
    /// buffers from a caller-owned [`PlanScratch`], so replanning a region
    /// allocates nothing proportional to the planned node count beyond the
    /// returned plan itself. This is the funnel every other build entry
    /// wraps.
    #[allow(clippy::too_many_arguments)] // mirrors build() plus the scratch pools
    pub fn build_pooled<A, I, It, K>(
        g: &A,
        in_edges: I,
        active: K,
        candidates: impl Iterator<Item = NodeId> + Clone,
        in_degrees: Option<&[u32]>,
        scratch: &mut SccScratch,
        plan_scratch: &mut PlanScratch,
        target_nodes: usize,
        exact_deps: bool,
    ) -> ShardPlan
    where
        A: Adjacency + ?Sized,
        I: Fn(NodeId) -> It,
        It: Iterator<Item = NodeId>,
        K: Fn(NodeId) -> bool,
    {
        // The peel's one random memory access per edge is the build's hot
        // spot, so the packed (pending, level) word is kept as small as the
        // graph allows: u32 when degrees and node count fit (halving the
        // state footprint doubles its cache residency), u64 otherwise.
        if g.node_count() < (1 << P32_LEVEL_BITS) {
            let PlanScratch { state32, stack, .. } = plan_scratch;
            if let Some(plan) = ShardPlan::build_core::<P32, _, _, _, _>(
                g,
                &in_edges,
                &active,
                candidates.clone(),
                in_degrees,
                scratch,
                state32,
                stack,
                target_nodes,
                exact_deps,
            ) {
                return plan;
            }
        }
        let PlanScratch { state64, stack, .. } = plan_scratch;
        ShardPlan::build_core::<P64, _, _, _, _>(
            g,
            &in_edges,
            &active,
            candidates,
            in_degrees,
            scratch,
            state64,
            stack,
            target_nodes,
            exact_deps,
        )
        .expect("the wide peel state accepts any graph")
    }

    /// The build pipeline over a concrete peel-state word. Returns `None`
    /// if some in-degree is unrepresentable in `W` (the caller retries
    /// with the wider word).
    #[allow(clippy::too_many_arguments)] // single internal funnel
    fn build_core<W, A, I, It, K>(
        g: &A,
        in_edges: &I,
        active: &K,
        candidates: impl Iterator<Item = NodeId> + Clone,
        in_degrees: Option<&[u32]>,
        scratch: &mut SccScratch,
        state: &mut Vec<W>,
        stack: &mut Vec<NodeId>,
        target_nodes: usize,
        exact_deps: bool,
    ) -> Option<ShardPlan>
    where
        W: PeelState,
        A: Adjacency + ?Sized,
        I: Fn(NodeId) -> It,
        It: Iterator<Item = NodeId>,
        K: Fn(NodeId) -> bool,
    {
        let n = g.node_count();
        let target_nodes = target_nodes.max(1);
        // Unit ids are u32 positions: a target past that range (any
        // `usize` is a legal `ParOptions::shard_target`) means "one shard
        // per level", not a wrapped chunk end.
        let target_units = u32::try_from(target_nodes).unwrap_or(u32::MAX);

        // (1) Trim peel. `state[x]` packs the node's unfinished-active-
        // parent count and its level into one word — one cache line per
        // touched node; the word array comes from the caller's pool.
        // Zero-pending nodes peel immediately, each peel decrements its
        // children and propagates `level + 1`; unit counts per level
        // accumulate during the peel itself.
        state.clear();
        state.resize(n, W::default());
        stack.clear();
        let mut active_total = 0usize;
        for x in candidates.clone() {
            if !active(x) {
                continue;
            }
            active_total += 1;
            let count = match in_degrees {
                Some(d) => d[x as usize],
                None => in_edges(x).filter(|&z| active(z)).count() as u32,
            };
            state[x as usize] = W::init(count)?;
            if count == 0 {
                stack.push(x);
            }
        }
        let mut level_unit_counts: Vec<u32> = Vec::new();
        let mut peeled_total = 0usize;
        while let Some(z) = stack.pop() {
            let zs = z as usize;
            let lvl = state[zs].level();
            state[zs] = state[zs].peel();
            peeled_total += 1;
            if lvl as usize >= level_unit_counts.len() {
                level_unit_counts.resize(lvl as usize + 1, 0);
            }
            level_unit_counts[lvl as usize] += 1;
            let degree = g.degree(z);
            for i in 0..degree {
                if i + PEEL_LOOKAHEAD < degree {
                    prefetch(&state[g.neighbor(z, i + PEEL_LOOKAHEAD) as usize]);
                }
                let w = g.neighbor(z, i);
                let ws = w as usize;
                let s = state[ws];
                if !active(w) || s.is_peeled() {
                    continue;
                }
                let absorbed = s.absorb(lvl + 1);
                state[ws] = absorbed;
                if absorbed.pending_zero() {
                    // The row lookup for `w` is cold; start it now so it is
                    // resident by the time `w` pops.
                    g.prefetch_neighbors(w);
                    stack.push(w);
                }
            }
        }
        let level = |x: NodeId| state[x as usize].level();
        let is_peeled = |x: NodeId| state[x as usize].is_peeled();

        // (2) Cyclic residue: Tarjan + Kahn over the quotient. Empty for
        // acyclic regions — the common case pays nothing here.
        let mut comp_level: Vec<u32> = Vec::new();
        let mut residue: Vec<NodeId> = Vec::new();
        if peeled_total < active_total {
            residue = candidates
                .clone()
                .filter(|&x| active(x) && !is_peeled(x))
                .collect();
            scratch.run(g, residue.iter().copied(), |v| active(v) && !is_peeled(v));
            let k = scratch.count();
            comp_level = vec![0u32; k];
            let mut comp_pending = vec![0u32; k];
            for &x in &residue {
                let c = scratch.comp_of(x).expect("residue is the run's domain");
                let mut seed_level = 0u32;
                let mut external = 0u32;
                for z in in_edges(x) {
                    if !active(z) {
                        continue;
                    }
                    if is_peeled(z) {
                        seed_level = seed_level.max(level(z) + 1);
                    } else if scratch.comp_of(z) != Some(c) {
                        external += 1;
                    }
                }
                let cs = c as usize;
                comp_level[cs] = comp_level[cs].max(seed_level);
                comp_pending[cs] += external;
            }
            let mut cstack: Vec<u32> = (0..k as u32)
                .filter(|&c| comp_pending[c as usize] == 0)
                .collect();
            while let Some(c) = cstack.pop() {
                let next = comp_level[c as usize] + 1;
                for &x in scratch.members(c) {
                    for w in g.neighbors(x) {
                        if !active(w) || is_peeled(w) {
                            continue;
                        }
                        let cw = scratch.comp_of(w).expect("active residue");
                        if cw == c {
                            continue;
                        }
                        let cws = cw as usize;
                        comp_level[cws] = comp_level[cws].max(next);
                        comp_pending[cws] -= 1;
                        if comp_pending[cws] == 0 {
                            cstack.push(cw);
                        }
                    }
                }
            }
            for &l in &comp_level {
                if l as usize >= level_unit_counts.len() {
                    level_unit_counts.resize(l as usize + 1, 0);
                }
                level_unit_counts[l as usize] += 1;
            }
        }

        // (3) Units bucketed by level (candidate order for peeled nodes,
        // component order for the residue — deterministic), then chunked
        // into shards.
        let levels = level_unit_counts.len() as u32;
        let mut level_unit_starts = vec![0u32; levels as usize + 1];
        for l in 0..levels as usize {
            level_unit_starts[l + 1] = level_unit_starts[l] + level_unit_counts[l];
        }
        let total_units = level_unit_starts[levels as usize] as usize;

        // Unit descriptors bucketed by level. The all-singleton fast path
        // writes node ids straight into `unit_nodes` (identity layout, no
        // `unit_starts` array); the residue path goes through descriptors.
        let mut unit_nodes: Vec<NodeId>;
        let mut unit_starts: Option<Vec<u32>> = None;
        let mut shard_unit_starts: Vec<u32> = vec![0];
        let mut shard_level: Vec<u32> = Vec::new();
        let mut level_shard_starts = vec![0u32; levels as usize + 1];
        if residue.is_empty() {
            unit_nodes = vec![0; total_units];
            let mut cursor = level_unit_starts.clone();
            for x in candidates.clone() {
                if active(x) && is_peeled(x) {
                    let slot = &mut cursor[level(x) as usize];
                    unit_nodes[*slot as usize] = x;
                    *slot += 1;
                }
            }
            // Chunk: unit ids are positions in `unit_nodes`.
            for l in 0..levels as usize {
                let lo = level_unit_starts[l];
                let hi = level_unit_starts[l + 1];
                let mut start = lo;
                while start < hi {
                    let end = start.saturating_add(target_units).min(hi);
                    shard_unit_starts.push(end);
                    shard_level.push(l as u32);
                    start = end;
                }
                level_shard_starts[l + 1] = shard_level.len() as u32;
            }
        } else {
            // Descriptor: component ids are offset past the node id space.
            const COMP_BASE: u64 = 1 << 32;
            let mut bucketed: Vec<u64> = vec![0; total_units];
            let mut cursor = level_unit_starts.clone();
            for x in candidates.clone() {
                if active(x) && is_peeled(x) {
                    let slot = &mut cursor[level(x) as usize];
                    bucketed[*slot as usize] = x as u64;
                    *slot += 1;
                }
            }
            for (c, &l) in comp_level.iter().enumerate() {
                let slot = &mut cursor[l as usize];
                bucketed[*slot as usize] = COMP_BASE + c as u64;
                *slot += 1;
            }
            unit_nodes = Vec::with_capacity(peeled_total + residue.len());
            let mut starts: Vec<u32> = Vec::with_capacity(total_units + 1);
            starts.push(0);
            for l in 0..levels as usize {
                let units =
                    &bucketed[level_unit_starts[l] as usize..level_unit_starts[l + 1] as usize];
                let mut nodes_in_shard = 0usize;
                for &desc in units {
                    if nodes_in_shard >= target_nodes {
                        shard_unit_starts.push(starts.len() as u32 - 1);
                        shard_level.push(l as u32);
                        nodes_in_shard = 0;
                    }
                    if desc >= COMP_BASE {
                        let c = (desc - COMP_BASE) as u32;
                        unit_nodes.extend_from_slice(scratch.members(c));
                        nodes_in_shard += scratch.members(c).len();
                    } else {
                        unit_nodes.push(desc as NodeId);
                        nodes_in_shard += 1;
                    }
                    starts.push(unit_nodes.len() as u32);
                }
                if nodes_in_shard > 0 {
                    shard_unit_starts.push(starts.len() as u32 - 1);
                    shard_level.push(l as u32);
                }
                level_shard_starts[l + 1] = shard_level.len() as u32;
            }
            unit_starts = Some(starts);
        }
        let nshards = shard_level.len();

        // (4) Dependencies.
        let mut node_shard: Vec<u32> = Vec::new();
        let deps = if exact_deps && nshards <= EXACT_DEPS_LIMIT {
            node_shard = vec![NO_SHARD; n];
            for s in 0..nshards as u32 {
                let lo = shard_unit_starts[s as usize];
                let hi = shard_unit_starts[s as usize + 1];
                let range = match &unit_starts {
                    None => lo as usize..hi as usize,
                    Some(starts) => starts[lo as usize] as usize..starts[hi as usize] as usize,
                };
                for &x in &unit_nodes[range] {
                    node_shard[x as usize] = s;
                }
            }
            // Dedup via an upstream bitset per shard (shards² bits).
            let words = nshards.div_ceil(64);
            let mut upstream = vec![0u64; nshards * words];
            for &x in &unit_nodes {
                let sx = node_shard[x as usize] as usize;
                for z in in_edges(x) {
                    let sz = node_shard[z as usize];
                    if sz != NO_SHARD && sz != sx as u32 {
                        upstream[sx * words + sz as usize / 64] |= 1 << (sz % 64);
                    }
                }
            }
            let mut in_counts = vec![0u32; nshards];
            let mut succ_counts = vec![0u32; nshards];
            for s in 0..nshards {
                for (w, &bits) in upstream[s * words..(s + 1) * words].iter().enumerate() {
                    let mut bits = bits;
                    in_counts[s] += bits.count_ones();
                    while bits != 0 {
                        succ_counts[w * 64 + bits.trailing_zeros() as usize] += 1;
                        bits &= bits - 1;
                    }
                }
            }
            let mut succ_starts = vec![0u32; nshards + 1];
            for s in 0..nshards {
                succ_starts[s + 1] = succ_starts[s] + succ_counts[s];
            }
            let mut cursor = succ_starts.clone();
            let mut succ_targets = vec![0u32; succ_starts[nshards] as usize];
            for s in 0..nshards {
                for (w, &bits) in upstream[s * words..(s + 1) * words].iter().enumerate() {
                    let mut bits = bits;
                    while bits != 0 {
                        let z = w * 64 + bits.trailing_zeros() as usize;
                        succ_targets[cursor[z] as usize] = s as u32;
                        cursor[z] += 1;
                        bits &= bits - 1;
                    }
                }
            }
            Deps::Edges {
                succ_targets,
                succ_starts,
                in_counts,
            }
        } else {
            let level_counts = (0..levels as usize)
                .map(|l| level_shard_starts[l + 1] - level_shard_starts[l])
                .collect();
            Deps::Frontier { level_counts }
        };

        Some(ShardPlan {
            unit_nodes,
            unit_starts,
            shard_unit_starts,
            shard_level,
            node_shard,
            level_shard_starts,
            deps,
            levels,
        })
    }

    /// Number of shards. Shard ids ascend with level, so `0..shard_count()`
    /// is a valid sequential schedule.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shard_level.len()
    }

    /// Number of topological levels.
    #[inline]
    pub fn level_count(&self) -> usize {
        self.levels as usize
    }

    /// Total nodes covered by the plan.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.unit_nodes.len()
    }

    /// Unit ids owned by shard `s`.
    #[inline]
    pub fn units(&self, s: u32) -> std::ops::Range<u32> {
        self.shard_unit_starts[s as usize]..self.shard_unit_starts[s as usize + 1]
    }

    /// Whether every unit of the plan is a singleton node (no cyclic
    /// residue was found). Solvers can then stream [`ShardPlan::shard_nodes`]
    /// directly instead of iterating unit ranges.
    #[inline]
    pub fn singleton_layout(&self) -> bool {
        self.unit_starts.is_none()
    }

    /// All member nodes of shard `s`, contiguous and in unit order.
    #[inline]
    pub fn shard_nodes(&self, s: u32) -> &[NodeId] {
        let units = self.units(s);
        let (lo, hi) = match &self.unit_starts {
            None => (units.start as usize, units.end as usize),
            Some(starts) => (
                starts[units.start as usize] as usize,
                starts[units.end as usize] as usize,
            ),
        };
        &self.unit_nodes[lo..hi]
    }

    /// Member nodes of unit `u`. A unit with more than one member is a
    /// strongly connected component; single members may still carry a
    /// self-loop (the solver checks).
    #[inline]
    pub fn unit_members(&self, u: u32) -> &[NodeId] {
        match &self.unit_starts {
            None => std::slice::from_ref(&self.unit_nodes[u as usize]),
            Some(starts) => {
                let lo = starts[u as usize] as usize;
                let hi = starts[u as usize + 1] as usize;
                &self.unit_nodes[lo..hi]
            }
        }
    }

    /// The shard owning `x`. Only available in exact-deps mode (the
    /// frontier plan does not materialize the node → shard map).
    #[inline]
    pub fn shard_of_node(&self, x: NodeId) -> Option<u32> {
        let s = *self.node_shard.get(x as usize)?;
        (s != NO_SHARD).then_some(s)
    }

    /// The level of shard `s`.
    #[inline]
    pub fn level_of_shard(&self, s: u32) -> u32 {
        self.shard_level[s as usize]
    }

    /// Shard ids of level `l` (contiguous by construction).
    #[inline]
    pub fn level_shards(&self, l: u32) -> std::ops::Range<u32> {
        self.level_shard_starts[l as usize]..self.level_shard_starts[l as usize + 1]
    }

    /// The dependency representation this plan carries.
    pub fn dep_mode(&self) -> DepMode {
        match self.deps {
            Deps::Edges { .. } => DepMode::Edges,
            Deps::Frontier { .. } => DepMode::Frontier,
        }
    }

    /// Exact mode: downstream shards of `s` (deduplicated).
    ///
    /// # Panics
    /// Panics in frontier mode.
    #[inline]
    pub fn successors(&self, s: u32) -> &[u32] {
        match &self.deps {
            Deps::Edges {
                succ_targets,
                succ_starts,
                ..
            } => {
                let lo = succ_starts[s as usize] as usize;
                let hi = succ_starts[s as usize + 1] as usize;
                &succ_targets[lo..hi]
            }
            Deps::Frontier { .. } => panic!("successors() requires exact deps"),
        }
    }

    /// Exact mode: incoming shard-edge counts (0 = initially ready).
    ///
    /// # Panics
    /// Panics in frontier mode.
    #[inline]
    pub fn in_counts(&self) -> &[u32] {
        match &self.deps {
            Deps::Edges { in_counts, .. } => in_counts,
            Deps::Frontier { .. } => panic!("in_counts() requires exact deps"),
        }
    }

    /// Frontier mode: shards per level (the seal countdown of each level).
    ///
    /// # Panics
    /// Panics in exact mode.
    #[inline]
    pub fn level_counts(&self) -> &[u32] {
        match &self.deps {
            Deps::Frontier { level_counts } => level_counts,
            Deps::Edges { .. } => panic!("level_counts() requires frontier deps"),
        }
    }

    /// Shards ready before any sealing: exact mode returns zero-in-count
    /// shards, frontier mode the level-0 shards. Ascending order.
    pub fn initial_ready(&self) -> Vec<u32> {
        match &self.deps {
            Deps::Edges { in_counts, .. } => in_counts
                .iter()
                .enumerate()
                .filter(|(_, &d)| d == 0)
                .map(|(s, _)| s as u32)
                .collect(),
            Deps::Frontier { .. } if self.levels > 0 => self.level_shards(0).collect(),
            Deps::Frontier { .. } => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use crate::digraph::{DiGraph, NodeId};

    /// Builds an exact-deps plan over the whole graph with in-edges from a
    /// reverse CSR.
    fn plan_of(n: usize, edges: &[(NodeId, NodeId)], target: usize) -> ShardPlan {
        let mut g = DiGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        let fwd = Csr::from_digraph(&g);
        let rev = Csr::reversed_from_digraph(&g);
        let mut scratch = SccScratch::new();
        ShardPlan::build(
            &fwd,
            |x| rev.neighbors(x).iter().copied(),
            |_| true,
            0..n as NodeId,
            &mut scratch,
            target,
            true,
        )
    }

    fn level_of(plan: &ShardPlan, x: NodeId) -> u32 {
        plan.level_of_shard(plan.shard_of_node(x).unwrap())
    }

    #[test]
    fn diamond_levels() {
        // 0 -> {1, 2} -> 3: levels 0, 1, 1, 2.
        let plan = plan_of(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], 1);
        assert_eq!(level_of(&plan, 0), 0);
        assert_eq!(level_of(&plan, 1), 1);
        assert_eq!(level_of(&plan, 2), 1);
        assert_eq!(level_of(&plan, 3), 2);
        assert_eq!(plan.level_count(), 3);
        assert_eq!(plan.node_count(), 4);
    }

    #[test]
    fn cycle_chain_levels() {
        // {0,1} -> {2,3} -> {4,5}: one cyclic unit per level.
        let plan = plan_of(
            6,
            &[
                (0, 1),
                (1, 0),
                (2, 3),
                (3, 2),
                (4, 5),
                (5, 4),
                (1, 2),
                (3, 4),
            ],
            1,
        );
        assert_eq!(plan.level_count(), 3);
        assert_eq!(level_of(&plan, 0), 0);
        assert_eq!(level_of(&plan, 2), 1);
        assert_eq!(level_of(&plan, 5), 2);
        // Cycle members share a unit.
        let s = plan.shard_of_node(2).unwrap();
        let unit = plan
            .units(s)
            .find(|&u| plan.unit_members(u).contains(&2))
            .unwrap();
        let mut members = plan.unit_members(unit).to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![2, 3]);
    }

    #[test]
    fn cycle_with_downstream_tail() {
        // {0,1} -> 2 -> 3: the tail is residue (stuck behind the cycle)
        // but must become singleton units on increasing levels.
        let plan = plan_of(4, &[(0, 1), (1, 0), (1, 2), (2, 3)], 1);
        assert_eq!(plan.level_count(), 3);
        assert_eq!(level_of(&plan, 0), 0);
        assert_eq!(level_of(&plan, 2), 1);
        assert_eq!(level_of(&plan, 3), 2);
        let s = plan.shard_of_node(3).unwrap();
        let unit = plan.units(s).next().unwrap();
        assert_eq!(plan.unit_members(unit), &[3]);
    }

    #[test]
    fn sequential_order_is_topological() {
        let plan = plan_of(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (2, 5),
                (5, 6),
                (4, 7),
                (6, 7),
            ],
            2,
        );
        assert_eq!(plan.dep_mode(), DepMode::Edges);
        for s in 0..plan.shard_count() as u32 {
            for &t in plan.successors(s) {
                assert!(t > s, "shard {s} -> {t} violates id order");
                assert!(plan.level_of_shard(t) > plan.level_of_shard(s));
            }
        }
    }

    #[test]
    fn in_counts_match_successor_edges_deduped() {
        let plan = plan_of(
            7,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (2, 3), (3, 4), (5, 6)],
            1,
        );
        let mut recount = vec![0u32; plan.shard_count()];
        for s in 0..plan.shard_count() as u32 {
            for &t in plan.successors(s) {
                recount[t as usize] += 1;
            }
        }
        assert_eq!(&recount, plan.in_counts());
        // Parallel 2 -> 3 edges collapse to one dependency.
        let s3 = plan.shard_of_node(3).unwrap();
        assert_eq!(plan.in_counts()[s3 as usize], 2);
    }

    #[test]
    fn chunking_respects_target_and_levels() {
        // 10 independent singletons, target 3: shards of sizes 3,3,3,1 —
        // all on level 0 and all initially ready.
        let plan = plan_of(10, &[], 3);
        assert_eq!(plan.level_count(), 1);
        assert_eq!(plan.shard_count(), 4);
        let sizes: Vec<usize> = (0..4u32).map(|s| plan.units(s).len()).collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
        assert_eq!(plan.initial_ready().len(), 4);
    }

    #[test]
    fn targets_past_u32_saturate_to_one_shard_per_level() {
        // A chain has one unit per level, so every level after the first
        // chunks from a non-zero start: a wrapped `start + target` used to
        // end the chunk before it began.
        let edges: Vec<(NodeId, NodeId)> = (0..5).map(|i| (i, i + 1)).collect();
        for target in [u32::MAX as usize, usize::MAX / 4, usize::MAX] {
            let plan = plan_of(6, &edges, target);
            assert_eq!(plan.shard_count(), 6, "target {target}");
            for s in 0..6u32 {
                assert_eq!(plan.units(s).len(), 1, "shard {s} at target {target}");
            }
        }
    }

    #[test]
    fn frontier_mode_matches_structure() {
        // Same graph, frontier deps: identical shards/levels, level
        // counters instead of edges.
        let mut g = DiGraph::new(4);
        for &(u, v) in &[(0u32, 1u32), (0, 2), (1, 3), (2, 3)] {
            g.add_edge(u, v);
        }
        let fwd = Csr::from_digraph(&g);
        let rev = Csr::reversed_from_digraph(&g);
        let mut scratch = SccScratch::new();
        let plan = ShardPlan::build(
            &fwd,
            |x| rev.neighbors(x).iter().copied(),
            |_| true,
            0..4,
            &mut scratch,
            1,
            false,
        );
        assert_eq!(plan.dep_mode(), DepMode::Frontier);
        assert_eq!(plan.level_count(), 3);
        assert_eq!(plan.level_counts(), &[1, 2, 1]);
        assert_eq!(plan.initial_ready(), vec![0]);
        assert_eq!(plan.shard_of_node(1), None, "no node map in frontier mode");
    }

    #[test]
    fn inactive_nodes_are_ignored() {
        // Keep only {1, 2}: the 0 -> 1 edge crosses the boundary and must
        // neither count as pending nor create dependencies.
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let fwd = Csr::from_digraph(&g);
        let rev = Csr::reversed_from_digraph(&g);
        let mut scratch = SccScratch::new();
        let plan = ShardPlan::build(
            &fwd,
            |x| rev.neighbors(x).iter().copied(),
            |v| v >= 1,
            [1, 2].into_iter(),
            &mut scratch,
            1,
            true,
        );
        assert_eq!(plan.node_count(), 2);
        assert_eq!(plan.level_count(), 2);
        assert_eq!(plan.shard_of_node(0), None);
        assert_eq!(plan.initial_ready(), vec![0]);
    }

    #[test]
    fn self_loop_lands_in_residue() {
        // 0 -> 1(self-loop) -> 2: the self-loop can't peel; 2 is stuck
        // behind it. Levels stay strictly increasing.
        let plan = plan_of(3, &[(0, 1), (1, 1), (1, 2)], 1);
        assert_eq!(plan.node_count(), 3);
        assert!(level_of(&plan, 1) > level_of(&plan, 0));
        assert!(level_of(&plan, 2) > level_of(&plan, 1));
    }

    #[test]
    fn empty_region() {
        let g = DiGraph::new(3);
        let fwd = Csr::from_digraph(&g);
        let mut scratch = SccScratch::new();
        let plan = ShardPlan::build(
            &fwd,
            |_| std::iter::empty(),
            |_| false,
            0..3,
            &mut scratch,
            8,
            true,
        );
        assert_eq!(plan.shard_count(), 0);
        assert_eq!(plan.level_count(), 0);
        assert!(plan.initial_ready().is_empty());
    }
}
