//! Persisted planner statistics.
//!
//! The cost-based planner ([`crate::plan`]) chooses an execution strategy
//! from *observed* workload shape, not hardcoded thresholds: how large
//! dirty regions tend to be, how deep the network's condensation runs, and
//! what each strategy has cost so far. [`PlannerStats`] is that record —
//! pure counters, updated on the session's edit/solve paths and consulted
//! (never mutated structurally) at plan time.
//!
//! The struct has a versioned fixed-width binary encoding
//! ([`PlannerStats::encode`] / [`PlannerStats::decode`]) so
//! `trustmap-store` can persist it alongside snapshots and recover it in
//! `Store::open`; statistics are **advisory** — a missing or damaged stats
//! record degrades to defaults and never changes query results (see
//! `docs/FIDELITY.md`), only which physically identical plan runs.
//!
//! Sessions share one [`SharedPlannerStats`] handle between the editing
//! writer and read-side consumers (the serve frontend's `EXPLAIN`), so
//! observation and planning never contend on the session itself.

use std::sync::{Arc, Mutex};

/// Number of strategies the planner chooses among — must match
/// [`crate::plan::Strategy::ALL`].
pub const STRATEGY_COUNT: usize = 2;

/// Buckets of the dirty-region size histogram (`bucket = floor(log2 len)`,
/// saturating): region sizes span "one belief flip" to "whole network",
/// so a log2 histogram captures the distribution in 32 counters.
pub const REGION_BUCKETS: usize = 32;

/// Accumulated cost of one execution strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrategyCost {
    /// Times the strategy was executed.
    pub runs: u64,
    /// Total BTN nodes the strategy visited across those runs (the
    /// counter-arithmetic cost surface — never wall-clock).
    pub nodes: u64,
}

/// The planner's persisted workload statistics: dirty-region size
/// distribution, condensation shape, and per-strategy cost counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannerStats {
    /// Dirty regions observed (drained edit batches).
    pub regions_observed: u64,
    /// Total BTN nodes across all observed dirty regions.
    pub region_nodes_total: u64,
    /// log2-bucketed dirty-region sizes: `region_hist[b]` counts regions
    /// with `floor(log2 len) == b` (len 0 regions count in bucket 0).
    pub region_hist: [u64; REGION_BUCKETS],
    /// Full engine builds observed.
    pub full_builds: u64,
    /// BTN node count at the last observation (build or solve).
    pub node_count: u64,
    /// Topological level count of the last whole-network condensation
    /// plan.
    pub condensation_levels: u64,
    /// Queries planned.
    pub plans: u64,
    /// Candidate plan nodes visited across all plans (one per strategy
    /// considered per query); `plan_nodes_visited / plans` is the
    /// planner-overhead gate of `plan_bench`.
    pub plan_nodes_visited: u64,
    /// Per-strategy cost counters, indexed by
    /// [`crate::plan::Strategy::index`].
    pub strategies: [StrategyCost; STRATEGY_COUNT],
}

impl Default for PlannerStats {
    fn default() -> Self {
        PlannerStats {
            regions_observed: 0,
            region_nodes_total: 0,
            region_hist: [0; REGION_BUCKETS],
            full_builds: 0,
            node_count: 0,
            condensation_levels: 0,
            plans: 0,
            plan_nodes_visited: 0,
            strategies: [StrategyCost::default(); STRATEGY_COUNT],
        }
    }
}

/// Magic + version prefix of the binary encoding. Version 1 carried five
/// per-strategy slots; its records are refused (cold defaults), never
/// reinterpreted.
const MAGIC: &[u8; 8] = b"TMSTAT\x00\x02";

/// Encoded size: magic + 8 scalar fields + histogram + per-strategy pairs.
const ENCODED_LEN: usize = 8 + 8 * (8 + REGION_BUCKETS + 2 * STRATEGY_COUNT);

impl PlannerStats {
    /// Records one drained dirty region of `len` BTN nodes.
    pub fn observe_region(&mut self, len: usize) {
        self.regions_observed += 1;
        self.region_nodes_total += len as u64;
        let bucket = (usize::BITS - 1)
            .saturating_sub(len.leading_zeros())
            .min(REGION_BUCKETS as u32 - 1) as usize;
        self.region_hist[bucket] += 1;
    }

    /// Records a full engine build over `node_count` BTN nodes.
    pub fn observe_build(&mut self, node_count: usize) {
        self.full_builds += 1;
        self.node_count = node_count as u64;
    }

    /// Records the level depth of a condensation-sharded plan.
    pub fn observe_levels(&mut self, levels: usize) {
        self.condensation_levels = levels as u64;
    }

    /// Records one planned query that visited `candidates` plan nodes.
    pub fn observe_plan(&mut self, candidates: u64) {
        self.plans += 1;
        self.plan_nodes_visited += candidates;
    }

    /// Records one execution of strategy `index` that visited `nodes`
    /// BTN nodes. Out-of-range indices are ignored (forward compat).
    pub fn observe_run(&mut self, index: usize, nodes: u64) {
        if let Some(s) = self.strategies.get_mut(index) {
            s.runs += 1;
            s.nodes += nodes;
        }
    }

    /// The mean observed dirty-region size (BTN nodes), or `None` before
    /// any region was observed — the planner's estimate of what an
    /// incremental read costs to bring current.
    pub fn expected_region(&self) -> Option<u64> {
        (self.regions_observed > 0).then(|| self.region_nodes_total / self.regions_observed)
    }

    /// Serializes to the versioned fixed-width binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ENCODED_LEN);
        out.extend_from_slice(MAGIC);
        let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        put(self.regions_observed);
        put(self.region_nodes_total);
        put(self.full_builds);
        put(self.node_count);
        put(self.condensation_levels);
        put(self.plans);
        put(self.plan_nodes_visited);
        put(0); // reserved
        for &h in &self.region_hist {
            put(h);
        }
        for s in &self.strategies {
            put(s.runs);
            put(s.nodes);
        }
        out
    }

    /// Decodes [`PlannerStats::encode`] output; `None` on any mismatch
    /// (wrong magic, version, or length) — callers degrade to defaults.
    pub fn decode(bytes: &[u8]) -> Option<PlannerStats> {
        if bytes.len() != ENCODED_LEN || &bytes[..8] != MAGIC {
            return None;
        }
        let mut at = 8;
        let mut take = || {
            let v = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("length checked"));
            at += 8;
            v
        };
        let mut stats = PlannerStats {
            regions_observed: take(),
            region_nodes_total: take(),
            full_builds: take(),
            node_count: take(),
            condensation_levels: take(),
            plans: take(),
            plan_nodes_visited: take(),
            ..PlannerStats::default()
        };
        let _reserved = take();
        for h in &mut stats.region_hist {
            *h = take();
        }
        for s in &mut stats.strategies {
            s.runs = take();
            s.nodes = take();
        }
        Some(stats)
    }
}

/// A clonable, thread-safe handle to one [`PlannerStats`] record.
///
/// The session's edit path observes through it while serve-side readers
/// render `EXPLAIN` from it; cloning shares the underlying record.
#[derive(Debug, Clone, Default)]
pub struct SharedPlannerStats(Arc<Mutex<PlannerStats>>);

impl SharedPlannerStats {
    /// A fresh handle over default (empty) statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle seeded with `stats` (recovery from a persisted record).
    pub fn seeded(stats: PlannerStats) -> Self {
        SharedPlannerStats(Arc::new(Mutex::new(stats)))
    }

    /// A copy of the current statistics.
    pub fn snapshot(&self) -> PlannerStats {
        self.0.lock().expect("planner stats poisoned").clone()
    }

    /// Replaces the record wholesale (adopting persisted statistics).
    pub fn replace(&self, stats: PlannerStats) {
        *self.0.lock().expect("planner stats poisoned") = stats;
    }

    /// Runs `f` under the lock — the observation entry point.
    pub fn update<R>(&self, f: impl FnOnce(&mut PlannerStats) -> R) -> R {
        f(&mut self.0.lock().expect("planner stats poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_histogram_buckets_by_log2() {
        let mut s = PlannerStats::default();
        s.observe_region(0);
        s.observe_region(1);
        s.observe_region(2);
        s.observe_region(3);
        s.observe_region(4096);
        assert_eq!(s.region_hist[0], 2); // len 0 and 1
        assert_eq!(s.region_hist[1], 2); // len 2 and 3
        assert_eq!(s.region_hist[12], 1); // 4096 = 2^12
        assert_eq!(s.regions_observed, 5);
        assert_eq!(s.expected_region(), Some((1 + 2 + 3 + 4096) / 5));
    }

    #[test]
    fn expected_region_is_none_without_observations() {
        assert_eq!(PlannerStats::default().expected_region(), None);
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut s = PlannerStats::default();
        for len in [1, 7, 4096, 100_000] {
            s.observe_region(len);
        }
        s.observe_build(123_456);
        s.observe_levels(17);
        s.observe_plan(2);
        s.observe_run(0, 42);
        s.observe_run(1, 9000);
        let bytes = s.encode();
        assert_eq!(bytes.len(), ENCODED_LEN);
        assert_eq!(PlannerStats::decode(&bytes), Some(s));
    }

    #[test]
    fn decode_rejects_damage() {
        let s = PlannerStats::default();
        let mut bytes = s.encode();
        assert!(PlannerStats::decode(&bytes[..bytes.len() - 1]).is_none());
        bytes[0] ^= 0xff;
        assert!(PlannerStats::decode(&bytes).is_none());
        assert!(PlannerStats::decode(&[]).is_none());
    }

    #[test]
    fn decode_refuses_the_five_slot_v1_record() {
        // What a pre-census store left in `planner.tm`: version byte 1,
        // eight scalars, the histogram, and five (runs, nodes) pairs.
        let mut v1 = b"TMSTAT\x00\x01".to_vec();
        for word in 0..(8 + REGION_BUCKETS + 2 * 5) as u64 {
            v1.extend_from_slice(&(word + 1).to_le_bytes());
        }
        assert!(PlannerStats::decode(&v1).is_none());
        // Not by length alone: a v1 prefix cut to today's width is still
        // refused by its version byte.
        assert!(PlannerStats::decode(&v1[..ENCODED_LEN]).is_none());
    }

    #[test]
    fn shared_handle_shares_observations() {
        let a = SharedPlannerStats::new();
        let b = a.clone();
        a.update(|s| s.observe_region(10));
        assert_eq!(b.snapshot().regions_observed, 1);
        b.replace(PlannerStats::default());
        assert_eq!(a.snapshot().regions_observed, 0);
    }
}
