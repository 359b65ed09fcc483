//! Exact certain beliefs, maintained per dirty region.
//!
//! Algorithm 2's `repPoss` over-approximates possible sets on the
//! `prefNeg` family (`docs/FIDELITY.md` F1), so `cert` values decoded from
//! it can be *under*-certain. This module maintains the ground-truth
//! per-node outcome sets — the distinct belief sets a node takes across
//! **all** stable solutions (Definition 3.3 / B.3) — incrementally, one
//! dirty region at a time:
//!
//! * **DAG regions** take a purely topological pass: every planned unit is
//!   a singleton, each node's set is forced by its (frozen or already
//!   forked) parents, and no lineage check is needed — deterministic
//!   propagation only moves beliefs down from supported parents
//!   (Proposition 3.6 makes this exact on acyclic residues).
//! * **Cyclic residues** fall back to a bounded region-local enumeration
//!   modeled on [`crate::stable_signed`]: belief sets are guessed only on
//!   a feedback vertex set of each SCC, propagated deterministically,
//!   checked against the node equations, and pruned by a region-local
//!   lineage flood seeded from explicit holders *and* frozen boundary
//!   holders. Exact `cert` on cyclic signed networks is NP-hard
//!   (Theorem 3.4), so the search carries the same [`Limits`] caps as the
//!   ground-truth enumerator and reports [`Error::EnumerationTooLarge`]
//!   instead of silently approximating.
//!
//! Region solves are plumbed through `compact::plan_region` — the
//! same `RegionCompactor`/pool funnel every sharded solve plans through —
//! so steady-state edits stay O(region): scratch, planning, and the solve
//! itself touch only the compacted view ([`ExactCounters`] gates this in
//! `fusion_bench`).
//!
//! **Boundary freezing.** A dirty region is solved against its clean
//! in-boundary. A boundary node whose outcome set is a singleton is
//! constant across every global stable solution, so freezing it is exact.
//! A boundary node with several outcomes is *correlated* with the region
//! (freezing each outcome independently would fabricate combinations), so
//! the region is expanded upward over its ambiguous ancestors — stopping
//! at unique ones — until every frozen input is a constant. Forward
//! closure of the dirty region guarantees no solution mass escapes
//! downstream; `boundary_expansions` counts how often the upward walk was
//! needed (never, on DAG workloads).

use crate::binary::{Btn, Parents};
use crate::compact::{plan_region, RegionPool};
use crate::cow::{CowCopies, CowTable};
use crate::error::{Error, Result};
use crate::paradigm::Paradigm;
use crate::signed::BeliefSet;
use crate::stable_signed::Limits;
use crate::user::User;
use crate::value::Value;
use std::collections::BTreeSet;
use std::sync::Arc;
use trustmap_graph::NodeId;

/// Work accounting of an [`ExactEngine`] — the counter-arithmetic
/// acceptance surface for the O(region) gates (the bench container has a
/// single noisy core, so wall-clock is never gated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactCounters {
    /// Non-empty dirty regions solved (empty regions return immediately
    /// and are not counted).
    pub regions_solved: u64,
    /// Total region nodes re-solved across all updates (boundary nodes
    /// are frozen inputs and not counted).
    pub nodes_touched: u64,
    /// Solves whose region covered the whole network (the initial build,
    /// plus any caller-requested full refresh).
    pub full_solves: u64,
    /// Updates that had to widen the region over ambiguous boundary
    /// ancestors before solving.
    pub boundary_expansions: u64,
}

/// Exact per-node outcome sets over all stable solutions, maintained
/// incrementally per dirty region.
///
/// `outcomes[x]` is the sorted, deduplicated list of distinct belief sets
/// node `x` takes across all stable solutions of the current network: a
/// singleton means `x` is constant (its `cert` is exact by definition), an
/// empty list means the network admits no stable solution at all.
#[derive(Debug)]
pub struct ExactEngine {
    paradigm: Paradigm,
    /// Distinct belief-set outcomes per BTN node.
    outcomes: Vec<Vec<BeliefSet>>,
    limits: Limits,
    counters: ExactCounters,
    /// Compaction + planning buffers, shared with the sharded solvers'
    /// pooling discipline.
    pool: RegionPool,
    /// Region-membership stamps (node-indexed, allocated once per network
    /// size like the compactor's stamp arrays).
    stamp: Vec<u32>,
    /// Position of each region node in the staged region list (node-
    /// indexed, valid only under the current stamp epoch; amortized like
    /// `stamp` and likewise excluded from scratch accounting).
    region_slot: Vec<u32>,
    epoch: u32,
    /// The nodes whose outcome sets the last update rewrote: its dirty
    /// region plus the ambiguous ancestors it was widened over.
    last_region: Vec<NodeId>,
    /// Pooled region-scaled solve buffers, reused across updates.
    b0: Vec<BeliefSet>,
    frozen: Vec<BeliefSet>,
    children: Vec<Vec<u32>>,
}

impl Clone for ExactEngine {
    /// Clones the solved state; the pooled scratch restarts empty (it is
    /// rebuilt by the next update).
    fn clone(&self) -> Self {
        ExactEngine {
            paradigm: self.paradigm,
            outcomes: self.outcomes.clone(),
            limits: self.limits,
            counters: self.counters,
            pool: RegionPool::default(),
            stamp: Vec::new(),
            region_slot: Vec::new(),
            epoch: 0,
            last_region: self.last_region.clone(),
            b0: Vec::new(),
            frozen: Vec::new(),
            children: Vec::new(),
        }
    }
}

impl ExactEngine {
    /// Builds the exact outcome sets of `btn` under the Skeptic paradigm
    /// (the paradigm [`crate::Session`] and both incremental engines
    /// serve; it collapses to the basic semantics on positive networks).
    pub fn new(btn: &Btn) -> Result<ExactEngine> {
        ExactEngine::with_paradigm(btn, Paradigm::Skeptic)
    }

    /// [`ExactEngine::new`] under an explicit paradigm.
    pub fn with_paradigm(btn: &Btn, paradigm: Paradigm) -> Result<ExactEngine> {
        let mut engine = ExactEngine {
            paradigm,
            outcomes: Vec::new(),
            limits: Limits::default(),
            counters: ExactCounters::default(),
            pool: RegionPool::default(),
            stamp: Vec::new(),
            region_slot: Vec::new(),
            epoch: 0,
            last_region: Vec::new(),
            b0: Vec::new(),
            frozen: Vec::new(),
            children: Vec::new(),
        };
        engine.grow(btn.node_count());
        let all: Vec<NodeId> = btn.nodes().collect();
        engine.update(btn, &all)?;
        Ok(engine)
    }

    /// The work counters accumulated so far.
    pub fn counters(&self) -> ExactCounters {
        self.counters
    }

    /// Bytes currently retained by the region-scaled solve buffers
    /// (compaction pool plus the pooled belief/adjacency scratch).
    /// Node-indexed stamp arrays are excluded, like the compactor's: they
    /// are allocated once per network size and amortize to zero per edit.
    pub fn region_scratch_bytes(&self) -> usize {
        let sets = (self.b0.capacity() + self.frozen.capacity()) * std::mem::size_of::<BeliefSet>();
        let kids: usize = self.children.capacity() * std::mem::size_of::<Vec<u32>>()
            + self
                .children
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>();
        self.pool.region_scratch_bytes() + sets + kids
    }

    /// The nodes the most recent [`ExactEngine::update`] re-solved — its
    /// dirty region plus any ambiguous ancestors it widened over; every
    /// other node's outcome set is as it was, which is what lets the
    /// session patch its [`ExactUserResolution`] instead of re-rendering.
    pub fn last_region(&self) -> &[NodeId] {
        &self.last_region
    }

    /// Number of nodes the engine tracks.
    pub fn node_count(&self) -> usize {
        self.outcomes.len()
    }

    /// The distinct outcome sets of `node` across all stable solutions.
    pub fn outcomes(&self, node: NodeId) -> &[BeliefSet] {
        &self.outcomes[node as usize]
    }

    /// Whether `node` takes the same belief set in every stable solution.
    pub fn is_unique(&self, node: NodeId) -> bool {
        self.outcomes[node as usize].len() == 1
    }

    /// The exact certain positive value of `node`: the value it holds in
    /// **every** stable solution (`None` if outcomes differ, hold no
    /// positive, or no stable solution exists).
    pub fn cert(&self, node: NodeId) -> Option<Value> {
        let outs = &self.outcomes[node as usize];
        let v = outs.first()?.pos?;
        outs.iter().all(|s| s.pos == Some(v)).then_some(v)
    }

    /// The exact possible positive values of `node`, sorted.
    pub fn poss(&self, node: NodeId) -> Vec<Value> {
        let set: BTreeSet<Value> = self.outcomes[node as usize]
            .iter()
            .filter_map(|s| s.pos)
            .collect();
        set.into_iter().collect()
    }

    /// Extends the tracked node space to `n` nodes. New nodes start with
    /// the empty belief set as their unique outcome — exact for freshly
    /// grown users, which hold no beliefs and no mappings until the edit
    /// that touches them (and then lands in that edit's dirty region).
    pub fn grow(&mut self, n: usize) {
        while self.outcomes.len() < n {
            self.outcomes.push(vec![BeliefSet::empty()]);
        }
    }

    /// Re-solves the forward-closed dirty region `dirty` (global node ids,
    /// no duplicates) against the current `btn`. An empty region returns
    /// immediately without planning, compacting, or touching any node.
    pub fn update(&mut self, btn: &Btn, dirty: &[NodeId]) -> Result<()> {
        self.last_region.clear();
        if dirty.is_empty() {
            return Ok(());
        }
        let n = btn.node_count();
        self.grow(n);
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        if self.region_slot.len() < n {
            self.region_slot.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        let epoch = self.epoch;

        // Assemble the region, widening upward over ambiguous boundary
        // ancestors: a frozen input must be constant across all stable
        // solutions, i.e. have a singleton outcome list.
        let mut region = std::mem::take(&mut self.last_region);
        region.extend_from_slice(dirty);
        for &x in region.iter() {
            self.stamp[x as usize] = epoch;
        }
        let mut expanded = false;
        let mut i = 0;
        while i < region.len() {
            let x = region[i];
            i += 1;
            for p in btn.parents(x).iter() {
                if self.stamp[p as usize] == epoch {
                    continue;
                }
                if self.outcomes[p as usize].len() == 1 {
                    continue; // unique: a sound frozen constant
                }
                self.stamp[p as usize] = epoch;
                region.push(p);
                expanded = true;
            }
        }
        if expanded {
            self.counters.boundary_expansions += 1;
        }
        self.counters.regions_solved += 1;
        self.counters.nodes_touched += region.len() as u64;
        let full = region.len() == n;
        if full {
            self.counters.full_solves += 1;
        }

        // Split the region into weakly connected components and solve each
        // on its own. The joint solution set of a region is the *product*
        // of its components' sets, so solving unrelated clusters together
        // multiplies their ambiguity (2^clusters partials on an oscillator
        // fleet) for outcome projections that never look across
        // components. Nodes linked only through a frozen boundary constant
        // are conditionally independent given that constant; every
        // region-internal edge is a parent link of some region node, so
        // parent-link unions capture weak connectivity exactly.
        for (i, &x) in region.iter().enumerate() {
            self.region_slot[x as usize] = i as u32;
        }
        let mut uf: Vec<u32> = (0..region.len() as u32).collect();
        fn find(uf: &mut [u32], mut v: u32) -> u32 {
            while uf[v as usize] != v {
                uf[v as usize] = uf[uf[v as usize] as usize];
                v = uf[v as usize];
            }
            v
        }
        for (i, &x) in region.iter().enumerate() {
            for p in btn.parents(x).iter() {
                if self.stamp[p as usize] == epoch {
                    let a = find(&mut uf, i as u32);
                    let b = find(&mut uf, self.region_slot[p as usize]);
                    if a != b {
                        uf[a as usize] = b;
                    }
                }
            }
        }
        let root0 = find(&mut uf, 0);
        let single = (1..region.len() as u32).all(|i| find(&mut uf, i) == root0);

        let result = if single {
            self.pool.region.clear();
            self.pool.region.extend_from_slice(&region);
            self.solve(btn)
        } else {
            let mut by_root: Vec<(u32, NodeId)> = region
                .iter()
                .enumerate()
                .map(|(i, &x)| (find(&mut uf, i as u32), x))
                .collect();
            by_root.sort_unstable_by_key(|&(r, _)| r);
            let mut result = Ok(());
            let mut start = 0;
            while start < by_root.len() {
                let root = by_root[start].0;
                let mut end = start;
                while end < by_root.len() && by_root[end].0 == root {
                    end += 1;
                }
                self.pool.region.clear();
                self.pool
                    .region
                    .extend(by_root[start..end].iter().map(|&(_, x)| x));
                if let Err(e) = self.solve(btn) {
                    result = Err(e);
                    break;
                }
                start = end;
            }
            result
        };
        self.last_region = region;

        // Whole-network solves are rare (the build, caller-forced
        // refreshes) and would otherwise pin network-sized capacity in the
        // pooled buffers forever; release it so steady-state scratch is
        // region-sized again from the next edit on.
        if full {
            self.pool = RegionPool::default();
            self.b0 = Vec::new();
            self.frozen = Vec::new();
            self.children = Vec::new();
        }
        result
    }

    /// Solves the region currently staged in `pool.region` against its
    /// (all-unique) frozen boundary.
    fn solve(&mut self, btn: &Btn) -> Result<()> {
        let plan = plan_region(&mut self.pool, &btn.parents, btn.node_count(), EXACT_SHARD);
        let comp = &self.pool.comp;
        let parents = &self.pool.parents;
        let len = comp.len();
        let k = comp.region_len();

        // Pooled per-local inputs: explicit beliefs for region locals,
        // frozen (unique) outcome sets for boundary locals.
        self.b0.clear();
        self.frozen.clear();
        for l in 0..len {
            let g = comp.global_of(l as u32) as usize;
            if l < k {
                self.b0.push(btn.beliefs[g].to_belief_set());
                self.frozen.push(BeliefSet::empty());
            } else {
                self.b0.push(BeliefSet::empty());
                self.frozen.push(self.outcomes[g][0].clone());
            }
        }
        // Local forward adjacency (parent → child), for lineage floods and
        // cyclic-unit bookkeeping. Binary networks have ≤ 2 in-edges per
        // node, so this is O(region).
        for kids in self.children.iter_mut() {
            kids.clear();
        }
        while self.children.len() < len {
            self.children.push(Vec::new());
        }
        for (l, par) in parents.iter().enumerate().take(k) {
            for p in par.iter() {
                self.children[p as usize].push(l as u32);
            }
        }

        // The initial partial: boundary locals pinned to their frozen
        // sets, region locals empty until their unit is processed.
        let mut base = vec![BeliefSet::empty(); len];
        for (l, f) in self.frozen.iter().enumerate().skip(k) {
            base[l] = f.clone();
        }
        let mut partials: Vec<Vec<BeliefSet>> = vec![base];

        // Cyclic residues need the guess pool; DAG plans never touch it.
        let singleton = plan.singleton_layout();
        let mut pool_sets: Option<Vec<BeliefSet>> = None;
        let mut any_cyclic = false;

        // Shard ids ascend with level, so id order is a valid sequential
        // schedule; units inside a shard are mutually independent.
        for s in 0..plan.shard_count() as u32 {
            if singleton {
                for &x in plan.shard_nodes(s) {
                    self.fork_trivial(&mut partials, x, self.limits.max_partials)?;
                }
                continue;
            }
            for u in plan.units(s) {
                let members = plan.unit_members(u);
                if members.len() == 1 {
                    self.fork_trivial(&mut partials, members[0], self.limits.max_partials)?;
                    continue;
                }
                any_cyclic = true;
                if pool_sets.is_none() {
                    pool_sets = Some(self.candidate_pool(btn, len, k)?);
                }
                let pool = pool_sets.as_ref().expect("built above");
                partials = self.solve_cyclic_unit(btn, members, partials, pool)?;
                if partials.is_empty() {
                    break;
                }
            }
            partials.sort_unstable();
            partials.dedup();
            if partials.is_empty() {
                break;
            }
        }

        // The per-unit lineage prune only sees ancestors of each cycle;
        // finish with the full region-local check (DAG regions skip it:
        // deterministic propagation cannot fabricate beliefs).
        if any_cyclic {
            partials.retain(|sol| self.lineage_holds(btn, sol, len, k));
        }

        // Project the joint solutions back to per-node outcome sets.
        for l in 0..k {
            let g = comp.global_of(l as u32) as usize;
            let mut outs: Vec<BeliefSet> = partials.iter().map(|sol| sol[l].clone()).collect();
            outs.sort_unstable();
            outs.dedup();
            self.outcomes[g] = outs;
        }
        Ok(())
    }

    /// Forks every partial over the deterministic value(s) of trivial
    /// local `x` (two for an order-sensitive tie, per Definition B.3).
    fn fork_trivial(
        &self,
        partials: &mut Vec<Vec<BeliefSet>>,
        x: u32,
        max_partials: usize,
    ) -> Result<()> {
        // Only order-sensitive ties actually fork; everything else assigns
        // in place — a full-length clone per trivial node would make plain
        // DAG builds quadratic in the region size.
        let unforked = partials.len();
        for i in 0..unforked {
            let values = self.expected_local(x, &partials[i]);
            for value in values.iter().skip(1) {
                if partials.len() >= max_partials {
                    return Err(Error::EnumerationTooLarge {
                        log2_candidates: max_partials.ilog2() + 1,
                    });
                }
                let mut next = partials[i].clone();
                next[x as usize] = value.clone();
                partials.push(next);
            }
            partials[i][x as usize] = values[0].clone();
        }
        Ok(())
    }

    /// The (one or two, for ties) belief sets the node equation permits at
    /// local `x` given its parents' current sets — the region-local mirror
    /// of the ground-truth enumerator's `expected_values`.
    fn expected_local(&self, x: u32, sol: &[BeliefSet]) -> Vec<BeliefSet> {
        let p = self.paradigm;
        let b0 = &self.b0[x as usize];
        match self.pool.parents[x as usize] {
            Parents::None => vec![p.norm(b0)],
            Parents::One(y) => vec![p.punion(b0, &sol[y as usize])],
            Parents::Pref { high, low } => {
                let inherited = p.punion(&sol[high as usize], &sol[low as usize]);
                vec![p.punion(b0, &inherited)]
            }
            Parents::Tied(a, b) => {
                let first = p.punion(b0, &p.punion(&sol[a as usize], &sol[b as usize]));
                let second = p.punion(b0, &p.punion(&sol[b as usize], &sol[a as usize]));
                if first == second {
                    vec![first]
                } else {
                    vec![first, second]
                }
            }
        }
    }

    /// Enumerates one cyclic unit: guess belief sets on a feedback vertex
    /// set, propagate the rest topologically, keep assignments satisfying
    /// every member's equation, and prune self-supporting cycles by the
    /// region-local lineage check immediately (before they multiply).
    fn solve_cyclic_unit(
        &self,
        btn: &Btn,
        members: &[u32],
        partials: Vec<Vec<BeliefSet>>,
        pool: &[BeliefSet],
    ) -> Result<Vec<Vec<BeliefSet>>> {
        let member_set: BTreeSet<u32> = members.iter().copied().collect();
        let fvs = self.local_fvs(members, &member_set);
        let fvs_set: BTreeSet<u32> = fvs.iter().copied().collect();
        let rest_order = self
            .local_topo(&member_set, |v| !fvs_set.contains(&v))
            .expect("SCC minus FVS is acyclic");
        let len = partials.first().map_or(0, Vec::len);
        let k = self.pool.comp.region_len();

        let mut next: Vec<Vec<BeliefSet>> = Vec::new();
        for partial in &partials {
            let mut stack: Vec<(usize, Vec<BeliefSet>)> = vec![(0, partial.clone())];
            while let Some((i, sol)) = stack.pop() {
                if next.len() + stack.len() > self.limits.max_partials {
                    return Err(Error::EnumerationTooLarge {
                        log2_candidates: self.limits.max_partials.ilog2() + 1,
                    });
                }
                if i == fvs.len() {
                    // All guesses made: propagate and verify the SCC.
                    let mut candidates = vec![sol];
                    for &x in &rest_order {
                        let mut grown = Vec::new();
                        for c in candidates {
                            for value in self.expected_local(x, &c) {
                                let mut c2 = c.clone();
                                c2[x as usize] = value;
                                grown.push(c2);
                            }
                        }
                        candidates = grown;
                    }
                    for c in candidates {
                        let holds = members.iter().all(|&x| {
                            self.expected_local(x, &c)
                                .iter()
                                .any(|e| *e == c[x as usize])
                        });
                        if holds && self.lineage_holds(btn, &c, len, k) {
                            next.push(c);
                        }
                    }
                } else {
                    for candidate in pool {
                        let mut sol2 = sol.clone();
                        sol2[fvs[i] as usize] = candidate.clone();
                        stack.push((i + 1, sol2));
                    }
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        Ok(next)
    }

    /// The closure of the **whole network's** normalized explicit beliefs
    /// (plus the frozen boundary sets) under the preferred union, capped
    /// at `max_pool` — the same candidate space the ground-truth
    /// enumerator guesses from. The global scan matters: which belief
    /// sets are constructible (⊥ in particular) depends on explicit
    /// beliefs anywhere in the network, and a region-local pool would
    /// make cyclic-residue solutions diverge from [`enumerate_signed`].
    /// Only cyclic residues pay for it; DAG regions never build a pool.
    fn candidate_pool(&self, btn: &Btn, len: usize, k: usize) -> Result<Vec<BeliefSet>> {
        let mut pool: Vec<BeliefSet> = vec![BeliefSet::empty()];
        for b in &btn.beliefs {
            let seed = self.paradigm.norm(&b.to_belief_set());
            if !pool.contains(&seed) {
                pool.push(seed);
            }
        }
        for l in k..len {
            let seed = self.frozen[l].clone();
            if !pool.contains(&seed) {
                pool.push(seed);
            }
        }
        loop {
            let mut added = false;
            let snapshot = pool.clone();
            for a in &snapshot {
                for b in &snapshot {
                    let u = self.paradigm.punion(a, b);
                    if !pool.contains(&u) {
                        if pool.len() >= self.limits.max_pool {
                            return Err(Error::EnumerationTooLarge {
                                log2_candidates: self.limits.max_pool.ilog2() + 1,
                            });
                        }
                        pool.push(u);
                        added = true;
                    }
                }
            }
            if !added {
                return Ok(pool);
            }
        }
    }

    /// Region-local lineage (condition (2) of Definition 3.3): every
    /// belief held by a region local must flood forward from a normalized
    /// explicit holder inside the region or from a frozen boundary holder
    /// (whose own lineage was certified when it was solved). Region
    /// forward-closure means no support path leaves and re-enters except
    /// through the boundary, which seeds the flood.
    fn lineage_holds(&self, btn: &Btn, sol: &[BeliefSet], len: usize, k: usize) -> bool {
        let domain_values: Vec<Value> = btn.domain().values().collect();
        let mut reached = vec![false; len];
        let mut queue: Vec<u32> = Vec::new();
        let check = |positive: bool, v: Value, reached: &mut Vec<bool>, queue: &mut Vec<u32>| {
            let holds = |set: &BeliefSet| {
                if positive {
                    set.pos == Some(v)
                } else {
                    set.neg.contains(v)
                }
            };
            if !sol[..k].iter().any(holds) {
                return true;
            }
            reached.iter_mut().for_each(|r| *r = false);
            queue.clear();
            for (l, set) in sol.iter().enumerate() {
                let seed = if l < k {
                    // Region local: supported only by its own normalized
                    // explicit belief (if it still holds the value).
                    holds(set) && holds(&self.paradigm.norm(&self.b0[l]))
                } else {
                    // Frozen boundary holders are externally certified.
                    holds(set)
                };
                if seed {
                    reached[l] = true;
                    queue.push(l as u32);
                }
            }
            while let Some(z) = queue.pop() {
                for &w in &self.children[z as usize] {
                    if !reached[w as usize] && holds(&sol[w as usize]) {
                        reached[w as usize] = true;
                        queue.push(w);
                    }
                }
            }
            (0..k).all(|l| !holds(&sol[l]) || reached[l])
        };
        for &v in &domain_values {
            if !check(true, v, &mut reached, &mut queue) {
                return false;
            }
            if !check(false, v, &mut reached, &mut queue) {
                return false;
            }
        }
        true
    }

    /// A greedy feedback vertex set of the unit in local id space.
    fn local_fvs(&self, members: &[u32], member_set: &BTreeSet<u32>) -> Vec<u32> {
        let mut removed: BTreeSet<u32> = BTreeSet::new();
        loop {
            if self
                .local_topo(member_set, |v| !removed.contains(&v))
                .is_some()
            {
                return removed.into_iter().collect();
            }
            let next = members
                .iter()
                .copied()
                .filter(|v| !removed.contains(v))
                .max_by_key(|&v| {
                    self.children[v as usize]
                        .iter()
                        .filter(|w| member_set.contains(w) && !removed.contains(w))
                        .count()
                })
                .expect("cyclic subgraph has members");
            removed.insert(next);
        }
    }

    /// Kahn topological order of the kept members of a unit, or `None` if
    /// the kept subgraph is cyclic.
    fn local_topo(
        &self,
        member_set: &BTreeSet<u32>,
        keep: impl Fn(u32) -> bool,
    ) -> Option<Vec<u32>> {
        let kept: Vec<u32> = member_set.iter().copied().filter(|&v| keep(v)).collect();
        let in_unit = |v: u32| member_set.contains(&v) && keep(v);
        let mut indeg: std::collections::BTreeMap<u32, usize> = kept
            .iter()
            .map(|&v| {
                let d = self.pool.parents[v as usize]
                    .iter()
                    .filter(|&p| in_unit(p))
                    .count();
                (v, d)
            })
            .collect();
        let mut ready: Vec<u32> = kept.iter().copied().filter(|v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(kept.len());
        while let Some(v) = ready.pop() {
            order.push(v);
            for &w in &self.children[v as usize] {
                if let Some(d) = indeg.get_mut(&w) {
                    *d -= 1;
                    if *d == 0 {
                        ready.push(w);
                    }
                }
            }
        }
        (order.len() == kept.len()).then_some(order)
    }
}

/// Shard target for exact region plans: regions are already small, so a
/// coarse target keeps the plan flat (the solve is sequential anyway).
const EXACT_SHARD: usize = 4096;

/// One user's row of an [`ExactUserResolution`]. The default row is a
/// user with no beliefs — what a freshly grown user is until an edit
/// lands it in a region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ExactRow {
    cert: Option<Value>,
    /// Sorted; behind `Arc` so copying a chunk of rows copies no set.
    poss: Arc<[Value]>,
}

impl ExactRow {
    fn of(engine: &ExactEngine, node: NodeId) -> Self {
        ExactRow {
            cert: engine.cert(node),
            poss: engine.poss(node).into(),
        }
    }
}

/// A user-indexed table of exact certain/possible positives, published
/// alongside `repPoss` in [`crate::epoch::EpochView`]s so `CERT … EXACT`
/// reads are servable from leaders and replicas at a pinned LSN. Rows
/// live in a chunked copy-on-write table ([`crate::cow`]): the session
/// keeps one, patches the rows each exact update re-solved, and every
/// view takes a clone.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExactUserResolution {
    rows: CowTable<ExactRow>,
}

impl ExactUserResolution {
    /// Renders the engine's current state from scratch, user-indexed
    /// through `btn`.
    pub fn snapshot(engine: &ExactEngine, btn: &Btn) -> ExactUserResolution {
        let users = btn.user_count() as u32;
        ExactUserResolution {
            rows: (0..users)
                .map(|u| ExactRow::of(engine, btn.node_of(User(u))))
                .collect(),
        }
    }

    /// Brings a table rendered before `engine`'s most recent
    /// [`ExactEngine::update`] up to date with it: extends it for users
    /// created since and re-reads the users among
    /// [`ExactEngine::last_region`].
    pub(crate) fn patch(&mut self, engine: &ExactEngine, btn: &Btn) -> CowCopies {
        self.rows.grow(btn.user_count(), ExactRow::default());
        for &x in engine.last_region() {
            if let Some(u) = btn.origin(x) {
                self.rows.set(u.index(), ExactRow::of(engine, x));
            }
        }
        self.rows.take_copies()
    }

    /// Number of users covered.
    pub fn user_count(&self) -> usize {
        self.rows.len()
    }

    /// The exact certain positive value of `user`, if any.
    pub fn cert(&self, user: User) -> Option<Value> {
        self.rows[user.index()].cert
    }

    /// The exact possible positive values of `user`, sorted.
    pub fn poss(&self, user: User) -> &[Value] {
        &self.rows[user.index()].poss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::binarize;
    use crate::network::TrustNetwork;
    use crate::signed::NegSet;
    use crate::stable_signed::{certain_positives, enumerate_signed, possible_positives};

    fn assert_matches_ground_truth(btn: &Btn, engine: &ExactEngine) {
        let sols = enumerate_signed(btn, Paradigm::Skeptic, Limits::default()).unwrap();
        let cert = certain_positives(&sols, btn.node_count());
        let poss = possible_positives(&sols, btn.node_count());
        for x in btn.nodes() {
            assert_eq!(engine.cert(x), cert[x as usize], "cert at node {x}");
            let expected: Vec<Value> = poss[x as usize].iter().copied().collect();
            assert_eq!(engine.poss(x), expected, "poss at node {x}");
        }
    }

    /// Figure 6 (a DAG): the engine equals the acyclic evaluator and the
    /// ground-truth enumerator, with singleton outcomes everywhere.
    #[test]
    fn figure_6_exact_and_unique() {
        let (net, _) = crate::acyclic::figure_6_network();
        let btn = binarize(&net);
        let engine = ExactEngine::new(&btn).unwrap();
        let direct = crate::acyclic::evaluate_acyclic(&btn, Paradigm::Skeptic).unwrap();
        for x in btn.nodes() {
            assert!(engine.is_unique(x), "DAG node {x} must be unique");
            assert_eq!(engine.outcomes(x), &[direct[x as usize].clone()][..]);
        }
        assert_matches_ground_truth(&btn, &engine);
        assert_eq!(engine.counters().full_solves, 1);
        assert_eq!(engine.counters().boundary_expansions, 0);
    }

    /// The oscillator (two stable solutions): exact cert/poss match the
    /// enumerator, and ambiguous nodes report non-singleton outcomes.
    #[test]
    fn oscillator_two_outcomes() {
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
        let engine = ExactEngine::new(&btn).unwrap();
        assert_matches_ground_truth(&btn, &engine);
        assert_eq!(engine.outcomes(btn.node_of(x1)).len(), 2);
        assert_eq!(engine.cert(btn.node_of(x1)), None);
        assert_eq!(engine.poss(btn.node_of(x1)), vec![v, w]);
        assert_eq!(engine.cert(btn.node_of(x3)), Some(v));
    }

    /// The FIDELITY F1 counterexample: Algorithm 2 lists `a+` possible at
    /// `x`; the exact engine proves `x = ⊥`.
    #[test]
    fn f1_pref_neg_gap_closed() {
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
        let engine = ExactEngine::new(&btn).unwrap();
        assert_matches_ground_truth(&btn, &engine);
        // Exact: x is ⊥ — no possible positive at all.
        assert!(engine.poss(btn.node_of(x)).is_empty());
        assert_eq!(engine.outcomes(btn.node_of(x)), &[BeliefSet::bottom()][..]);
        // The printed Algorithm 2 over-approximates here.
        let sk = crate::skeptic::resolve_skeptic(&btn).unwrap();
        assert!(sk.rep_poss(btn.node_of(x)).pos.contains(&a));
    }

    /// Incremental region updates land on the same state as a rebuild,
    /// including a revoke that turns a cyclic residue back into a DAG.
    #[test]
    fn incremental_matches_rebuild_across_edits() {
        use crate::skeptic_incremental::SkepticIncremental;
        use crate::SignedEdit;
        let mut net = TrustNetwork::new();
        let users: Vec<_> = (0..6).map(|i| net.user(&format!("u{i}"))).collect();
        let v0 = net.value("v0");
        let v1 = net.value("v1");
        net.trust(users[0], users[1], 2).unwrap();
        net.trust(users[1], users[2], 2).unwrap();
        net.trust(users[2], users[0], 2).unwrap();
        net.trust(users[2], users[3], 1).unwrap();
        net.believe(users[3], v0).unwrap();
        net.believe(users[4], v1).unwrap();
        let mut engine = SkepticIncremental::new(&net).unwrap();
        let mut exact = ExactEngine::new(engine.btn()).unwrap();
        let edits = [
            SignedEdit::Believe(users[5], v1),
            SignedEdit::Trust {
                child: users[0],
                parent: users[4],
                priority: 1,
            },
            SignedEdit::Believe(users[3], v1),
            SignedEdit::Reject(users[5], NegSet::of([v0])),
            SignedEdit::Revoke(users[3]),
        ];
        for edit in edits {
            match &edit {
                SignedEdit::Believe(u, v) => net.believe(*u, *v).unwrap(),
                SignedEdit::Reject(u, n) => net.reject(*u, n.clone()).unwrap(),
                SignedEdit::Revoke(u) => net.revoke(*u).unwrap(),
                SignedEdit::Trust {
                    child,
                    parent,
                    priority,
                } => net.trust(*child, *parent, *priority).unwrap(),
            }
            engine
                .apply_edits(&net, std::slice::from_ref(&edit))
                .unwrap();
            exact.grow(engine.btn().node_count());
            exact
                .update(engine.btn(), engine.last_dirty_nodes())
                .unwrap();
            // The engine's live BTN may carry dead roots the fresh
            // binarize drops, so compare per user against ground truth.
            let fresh = binarize(&net);
            let sols = enumerate_signed(&fresh, Paradigm::Skeptic, Limits::default()).unwrap();
            let cert = certain_positives(&sols, fresh.node_count());
            let poss = possible_positives(&sols, fresh.node_count());
            for &u in &users {
                let live = engine.btn().node_of(u);
                let reference = fresh.node_of(u);
                assert_eq!(exact.cert(live), cert[reference as usize], "cert of {u}");
                let expected: Vec<Value> = poss[reference as usize].iter().copied().collect();
                assert_eq!(exact.poss(live), expected, "poss of {u}");
            }
        }
        // The stream never forced a whole-network re-solve after build.
        assert_eq!(exact.counters().full_solves, 1);
    }

    /// An empty dirty region is a no-op: no solve, no nodes touched.
    #[test]
    fn empty_region_is_free() {
        let (net, _) = crate::acyclic::figure_6_network();
        let btn = binarize(&net);
        let mut engine = ExactEngine::new(&btn).unwrap();
        let before = engine.counters();
        engine.update(&btn, &[]).unwrap();
        assert_eq!(engine.counters(), before);
    }
}
