//! Region-compact planning: the single entry point every sharded solve
//! plans through.
//!
//! A parallel (or planned-sequential) solve of a node region needs three
//! things: a dense renumbering of the region (`trustmap_graph::region`),
//! the region's [`Parents`] table translated into that local id space, and
//! a trim-first [`ShardPlan`] over the compacted view. This module owns
//! that pipeline once:
//!
//! * [`plan_region`] — compact an explicit dirty region (boundary parents
//!   become frozen extra locals) and plan it; used by the exact engine's
//!   regional solves ([`crate::exact`]).
//! * [`plan_whole`] — the degenerate whole-graph view (identity ids, no
//!   boundary); used by the planned resolvers of Algorithm 1
//!   ([`crate::parallel::PlannedResolver`]) and Algorithm 2
//!   ([`crate::skeptic::SkepticPlannedResolver`]).
//!
//! Both funnel into one private `plan_compacted`, so the basic, skeptic,
//! sharded, and full-network paths share a single planning entry point.
//! All buffers live in the caller-owned [`RegionPool`] and are reused
//! across solves: steady-state edit processing performs no allocation
//! proportional to the network (the compactor's two node-indexed stamp
//! arrays are grown once per network size).

use crate::binary::Parents;
use trustmap_graph::shard::PlanScratch;
use trustmap_graph::{NodeId, RegionCompactor, SccScratch, ShardPlan};

/// Engine-owned pool of compaction and planning buffers, reused across
/// every regional solve the engine performs.
#[derive(Debug, Default)]
pub(crate) struct RegionPool {
    /// Dense renumbering + local CSR + boundary map.
    pub comp: RegionCompactor,
    /// The region's parent structure translated to local ids (boundary
    /// locals read as roots — they are frozen inputs, never solved).
    pub parents: Vec<Parents>,
    /// The region node list of the current solve (global ids, callers
    /// fill it before planning).
    pub region: Vec<NodeId>,
    /// Tarjan scratch for the plan's cyclic residue.
    pub scc: SccScratch,
    /// Pooled peel words + stack for plan construction.
    pub plan: PlanScratch,
}

impl RegionPool {
    /// Bytes currently retained by the region-scaled buffers (compacted
    /// view, translated parents, region list, peel words). Excludes the
    /// compactor's node-indexed stamp arrays, which are allocated once per
    /// network size and amortize to zero per edit.
    pub fn region_scratch_bytes(&self) -> usize {
        self.comp.region_scratch_bytes()
            + self.parents.capacity() * std::mem::size_of::<Parents>()
            + self.region.capacity() * std::mem::size_of::<NodeId>()
            + self.plan.scratch_bytes()
    }
}

/// Compacts `pool.region` (global node ids, no duplicates, all solvable)
/// against the global `parents` table of an `n`-node BTN and plans it.
///
/// On return `pool.comp` holds the compacted view (region locals first,
/// boundary after) and `pool.parents` the local-id parent table; the plan
/// covers exactly the region locals `0..region_len`.
pub(crate) fn plan_region(
    pool: &mut RegionPool,
    parents: &[Parents],
    n: usize,
    shard_target: usize,
) -> ShardPlan {
    let RegionPool {
        comp,
        parents: local,
        region,
        scc,
        plan,
    } = pool;
    comp.compact(n, |x| parents[x as usize].iter(), region);

    // Translate the region's parent structure into local ids. Every parent
    // of a region node was compacted (as a region or boundary local), so
    // the lookups cannot miss; boundary locals read as parentless frozen
    // inputs.
    let map = |z: NodeId| comp.local_of(z).expect("region parents are compacted");
    local.clear();
    local.reserve(comp.len());
    for l in 0..comp.len() {
        if l < comp.region_len() {
            local.push(match parents[comp.global_of(l as u32) as usize] {
                Parents::None => Parents::None,
                Parents::One(z) => Parents::One(map(z)),
                Parents::Pref { high, low } => Parents::Pref {
                    high: map(high),
                    low: map(low),
                },
                Parents::Tied(a, b) => Parents::Tied(map(a), map(b)),
            });
        } else {
            local.push(Parents::None);
        }
    }
    plan_compacted(comp, local, scc, plan, shard_target, false)
}

/// Plans the whole `parents` table as the degenerate identity view — no
/// renumbering, no boundary — through the same funnel as [`plan_region`].
/// `exact_deps` is exposed here because whole-network plans are built once
/// and reused (regional plans always use the cheaper level frontier).
pub(crate) fn plan_whole(
    comp: &mut RegionCompactor,
    parents: &[Parents],
    scc: &mut SccScratch,
    plan: &mut PlanScratch,
    shard_target: usize,
    exact_deps: bool,
) -> ShardPlan {
    comp.compact_all(parents.len(), |x| parents[x as usize].iter());
    plan_compacted(comp, parents, scc, plan, shard_target, exact_deps)
}

/// The single planning entry point: a trim-first [`ShardPlan`] over an
/// already compacted view, with the compaction's fused in-degree counts
/// seeding the peel (no extra in-edge pass).
fn plan_compacted(
    comp: &RegionCompactor,
    parents_local: &[Parents],
    scc: &mut SccScratch,
    plan: &mut PlanScratch,
    shard_target: usize,
    exact_deps: bool,
) -> ShardPlan {
    let k = comp.region_len() as NodeId;
    ShardPlan::build_pooled(
        comp,
        |x| parents_local[x as usize].iter(),
        |x| x < k,
        0..k,
        Some(comp.in_degrees()),
        scc,
        plan,
        shard_target,
        exact_deps,
    )
}
