//! The cost-based query planner: one routing authority for every read.
//!
//! The semantics define one answer per network state, so the planner
//! chooses only between the two physical ways of producing it: read the
//! live incremental engine's patched snapshot
//! ([`Strategy::IncrementalPatch`]), or solve the whole network from
//! scratch in one condensation pass ([`Strategy::WholeSolve`]). The
//! pipeline:
//!
//! ```text
//! query text ──lexer/parser──▶ Query (AST)
//!     Query ──analyze──▶ LogicalPlan          (what to read)
//!     LogicalPlan + PlanContext + PlannerStats
//!           ──Planner::plan──▶ PlanReport      (how to read it)
//! ```
//!
//! The lexer/parser live in `trustmap-relstore` (`trustq`); `Session`,
//! the serve protocol's `CERT`/`POSS` verbs, and the CLI all consume the
//! same [`Query`] AST and route through [`Planner::plan`].
//!
//! Costing is **counter arithmetic over persisted statistics**
//! ([`crate::stats::PlannerStats`]) — expected dirty-region size and
//! network size — never wall-clock. Both strategies return bit-identical
//! results for the queries they are applicable to (enforced by
//! `tests/plan_oracle.rs`), so the planner can never change semantics,
//! only cost (see `docs/FIDELITY.md`).

use crate::error::{Error, Result};
use crate::stats::{PlannerStats, STRATEGY_COUNT};
use crate::user::User;
use crate::value::Value;
use std::fmt;

/// The physical execution strategies the planner chooses among.
///
/// Keep [`Strategy::ALL`] in sync with
/// [`crate::stats::STRATEGY_COUNT`]; [`Strategy::index`] is the
/// per-strategy slot in [`PlannerStats::strategies`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Serve from the live incremental engine's patched snapshot
    /// (Algorithm 1 or 2 deltas; the warm path).
    IncrementalPatch,
    /// One-pass condensation solve of the whole network from scratch, on
    /// one thread: [`crate::parallel::PlannedResolver`] on positive
    /// networks, [`crate::skeptic::SkepticPlannedResolver`] on
    /// constraint-carrying ones.
    WholeSolve,
}

impl Strategy {
    /// Every strategy, in planning (and tie-breaking) order.
    pub const ALL: [Strategy; STRATEGY_COUNT] = [Strategy::IncrementalPatch, Strategy::WholeSolve];

    /// Stable display / protocol name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::IncrementalPatch => "incremental-patch",
            Strategy::WholeSolve => "whole-solve",
        }
    }

    /// The strategy's slot in [`PlannerStats::strategies`].
    pub fn index(self) -> usize {
        match self {
            Strategy::IncrementalPatch => 0,
            Strategy::WholeSolve => 1,
        }
    }

    /// Parses a protocol name (case-insensitive; `_` and `-` both
    /// accepted) — the `FORCE <strategy>` query modifier.
    pub fn parse(s: &str) -> Option<Strategy> {
        let norm = s.to_ascii_lowercase().replace('_', "-");
        Strategy::ALL.into_iter().find(|st| st.name() == norm)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a read asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// The certain belief (singleton possible set / Figure 18 decode).
    Cert,
    /// The possible beliefs.
    Poss,
}

impl ReadKind {
    /// The protocol verb.
    pub fn verb(self) -> &'static str {
        match self {
            ReadKind::Cert => "CERT",
            ReadKind::Poss => "POSS",
        }
    }
}

/// Whose beliefs a query reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryTarget {
    /// A user by name (resolved against the network / epoch name table).
    Named(String),
    /// A user by interned handle (typed in-process callers).
    Handle(User),
    /// Every user (`*`).
    All,
}

impl fmt::Display for QueryTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryTarget::Named(name) => f.write_str(name),
            QueryTarget::Handle(u) => write!(f, "#{}", u.0),
            QueryTarget::All => f.write_str("*"),
        }
    }
}

/// The query AST — what `trustq` parses, `Session::query` executes, and
/// the serve protocol's read verbs desugar to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Certain or possible beliefs.
    pub kind: ReadKind,
    /// Whose beliefs.
    pub target: QueryTarget,
    /// Read the exact (ground-truth) beliefs instead of the Algorithm-2
    /// approximation — a semantic mode, never a planner choice.
    pub exact: bool,
    /// Serve-protocol LSN pin (`@<lsn>`): don't answer before the view
    /// reaches this LSN. Ignored by in-process sessions (always current).
    pub pin: Option<u64>,
    /// Bypass costing and force one strategy (oracle/debug surface);
    /// errors if the strategy is inapplicable to this query.
    pub force: Option<Strategy>,
    /// Render the plan instead of executing it (`EXPLAIN`).
    pub explain: bool,
}

impl Query {
    /// A `CERT` query of `target`.
    pub fn cert(target: QueryTarget) -> Query {
        Query {
            kind: ReadKind::Cert,
            target,
            exact: false,
            pin: None,
            force: None,
            explain: false,
        }
    }

    /// A `POSS` query of `target`.
    pub fn poss(target: QueryTarget) -> Query {
        Query {
            kind: ReadKind::Poss,
            ..Query::cert(target)
        }
    }

    /// Requests exact (ground-truth) beliefs.
    pub fn exact(mut self) -> Query {
        self.exact = true;
        self
    }

    /// Pins the read at `lsn`.
    pub fn at(mut self, lsn: u64) -> Query {
        self.pin = Some(lsn);
        self
    }

    /// Forces `strategy` instead of cost-based choice.
    pub fn force(mut self, strategy: Strategy) -> Query {
        self.force = Some(strategy);
        self
    }

    /// Marks the query as `EXPLAIN` (render the plan, don't execute).
    pub fn explain(mut self) -> Query {
        self.explain = true;
        self
    }
}

impl fmt::Display for Query {
    /// Renders back to the protocol's query syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.explain {
            f.write_str("EXPLAIN ")?;
        }
        write!(f, "{} {}", self.kind.verb(), self.target)?;
        if self.exact {
            f.write_str(" EXACT")?;
        }
        if let Some(s) = self.force {
            write!(f, " FORCE {}", s.name())?;
        }
        if let Some(lsn) = self.pin {
            write!(f, " @{lsn}")?;
        }
        Ok(())
    }
}

/// The analyzed (logical) form of a [`Query`]: *what* to read, with the
/// physical how left to [`Planner::plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalPlan {
    /// Certain or possible beliefs.
    pub kind: ReadKind,
    /// Whether the read spans every user (`*`) or one.
    pub all_users: bool,
    /// Exact (ground-truth) mode.
    pub exact: bool,
}

impl LogicalPlan {
    /// Analyzes `query` into its logical plan.
    pub fn analyze(query: &Query) -> LogicalPlan {
        LogicalPlan {
            kind: query.kind,
            all_users: matches!(query.target, QueryTarget::All),
            exact: query.exact,
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read {} of {}{}",
            match self.kind {
                ReadKind::Cert => "cert",
                ReadKind::Poss => "poss",
            },
            if self.all_users {
                "all users"
            } else {
                "one user"
            },
            if self.exact { " (exact)" } else { "" }
        )
    }
}

/// The bulk executors' routing constants.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel;

impl CostModel {
    /// Minimum work (BTN nodes) below which one solve is never spread
    /// over several threads.
    pub const MIN_PARALLEL_WORK: usize = 4096;

    /// Whether a bulk workload of `num_objects` objects over a
    /// `node_count`-node network should give each object's solve all
    /// `threads` workers (too few objects to fill the hardware with
    /// per-object fan-out) instead of fanning objects out across threads.
    ///
    /// Measured (CHANGES.md, PR 16 census; 2 cores, one object, 2 threads
    /// vs 1, medians of 10 alternating pairs): this route wins on *signed*
    /// networks once the working set leaves the caches — 1 326 vs
    /// 2 112 ms at 2.1 M nodes, 10/10 pairs — is a wash at 210 k nodes
    /// (90 vs 91 ms), and loses on positive networks at both sizes (30 vs
    /// 28 ms; 410 vs 287 ms, 0/10). The floor is therefore far too low
    /// and sign-blind; it moves once `e2e_bench` has a workload on each
    /// side of it (ROADMAP item 2).
    #[inline]
    pub fn bulk_sharded(threads: usize, num_objects: usize, node_count: usize) -> bool {
        num_objects < threads && node_count >= Self::MIN_PARALLEL_WORK
    }
}

/// Everything the planner knows about the current session/network —
/// captured by the caller, consumed read-only at plan time.
#[derive(Debug, Clone, Copy)]
pub struct PlanContext {
    /// BTN node count of the network (0 if unknown — a cold session).
    pub node_count: usize,
    /// Whether the network carries constraints (Skeptic pipeline).
    pub skeptic: bool,
    /// Whether a live incremental engine (warm snapshot) exists.
    pub engine_live: bool,
}

/// One candidate strategy's costing outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostEstimate {
    /// The candidate.
    pub strategy: Strategy,
    /// Estimated cost in BTN node visits (`u64::MAX` if inapplicable).
    pub cost: u64,
    /// Whether the strategy can answer this query at all.
    pub applicable: bool,
    /// Why it is (in)applicable or what dominates its cost.
    pub detail: &'static str,
}

/// The statistics the planner consulted — recorded on the report so
/// `EXPLAIN` can show *why* the choice fell where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsultedStats {
    /// Mean observed dirty-region size (`None` = no observations yet).
    pub expected_region: Option<u64>,
    /// Dirty regions observed so far.
    pub regions_observed: u64,
    /// Last observed BTN node count.
    pub node_count: u64,
    /// Last observed condensation level depth.
    pub condensation_levels: u64,
    /// Per-strategy runs so far (cost counters).
    pub strategy_runs: [u64; STRATEGY_COUNT],
}

/// The chosen physical plan plus the evidence that justified it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReport {
    /// The chosen strategy.
    pub strategy: Strategy,
    /// The logical plan the choice implements.
    pub logical: LogicalPlan,
    /// Whether the query forced the strategy (no costing).
    pub forced: bool,
    /// Every candidate considered, in [`Strategy::ALL`] order.
    pub candidates: Vec<CostEstimate>,
    /// The statistics consulted.
    pub consulted: ConsultedStats,
    /// Plan nodes visited planning this query (one per candidate
    /// considered) — the planner-overhead counter `plan_bench` gates.
    pub plan_nodes: u64,
}

impl PlanReport {
    /// The chosen candidate's estimated cost.
    pub fn chosen_cost(&self) -> u64 {
        self.candidates
            .iter()
            .find(|c| c.strategy == self.strategy)
            .map(|c| c.cost)
            .unwrap_or(0)
    }

    /// Renders the `EXPLAIN` text: the chosen physical strategy, the
    /// logical plan, every candidate's cost, and the statistics that
    /// justified the choice. One field per line, machine-greppable.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan: {}{} cost={}",
            self.strategy.name(),
            if self.forced { " (forced)" } else { "" },
            self.chosen_cost()
        );
        let _ = writeln!(out, "logical: {}", self.logical);
        for c in &self.candidates {
            if c.applicable {
                let _ = writeln!(
                    out,
                    "candidate: {} cost={} ({})",
                    c.strategy.name(),
                    c.cost,
                    c.detail
                );
            } else {
                let _ = writeln!(out, "candidate: {} n/a ({})", c.strategy.name(), c.detail);
            }
        }
        let _ = writeln!(
            out,
            "stats: expected_region={} regions_observed={} node_count={} \
             condensation_levels={}",
            self.consulted
                .expected_region
                .map(|r| r.to_string())
                .unwrap_or_else(|| "none".to_owned()),
            self.consulted.regions_observed,
            self.consulted.node_count,
            self.consulted.condensation_levels,
        );
        let runs: Vec<String> = Strategy::ALL
            .iter()
            .map(|s| format!("{}={}", s.name(), self.consulted.strategy_runs[s.index()]))
            .collect();
        let _ = writeln!(out, "runs: {}", runs.join(" "));
        let _ = write!(out, "plan_nodes: {}", self.plan_nodes);
        out
    }
}

/// The cost-based planner. Stateless — all state lives in the
/// [`PlannerStats`] record passed per plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner;

impl Planner {
    /// Chooses the physical strategy for `query` in `ctx`, consulting
    /// (and counting the plan in) `stats`.
    ///
    /// Pure counter arithmetic: cost is estimated BTN node visits. The
    /// query's `force` bypasses costing but still validates
    /// applicability; an inapplicable forced strategy is
    /// [`Error::Plan`].
    pub fn plan(query: &Query, ctx: &PlanContext, stats: &mut PlannerStats) -> Result<PlanReport> {
        let logical = LogicalPlan::analyze(query);
        let consulted = ConsultedStats {
            expected_region: stats.expected_region(),
            regions_observed: stats.regions_observed,
            node_count: stats.node_count.max(ctx.node_count as u64),
            condensation_levels: stats.condensation_levels,
            strategy_runs: {
                let mut runs = [0u64; STRATEGY_COUNT];
                for (i, s) in stats.strategies.iter().enumerate() {
                    runs[i] = s.runs;
                }
                runs
            },
        };

        // Exact mode is a semantic choice, not a cost choice: ground-truth
        // beliefs are maintained incrementally by the exact engine, so the
        // only physical plan is the warm patched path.
        if logical.exact {
            if let Some(f) = query.force {
                if f != Strategy::IncrementalPatch {
                    return Err(Error::Plan(format!(
                        "cannot force {} on an EXACT query: exact beliefs are \
                         served from the incrementally maintained exact engine",
                        f.name()
                    )));
                }
            }
            stats.observe_plan(1);
            return Ok(PlanReport {
                strategy: Strategy::IncrementalPatch,
                logical,
                forced: query.force.is_some(),
                candidates: vec![CostEstimate {
                    strategy: Strategy::IncrementalPatch,
                    cost: consulted.expected_region.unwrap_or(1),
                    applicable: true,
                    detail: "exact mode: only the maintained exact engine answers",
                }],
                consulted,
                plan_nodes: 1,
            });
        }

        let n = (ctx.node_count as u64).max(1);
        // Cold sessions have no region history: assume a full solve.
        let region = consulted.expected_region.unwrap_or(n).clamp(1, n);

        let candidates: Vec<CostEstimate> = Strategy::ALL
            .into_iter()
            .map(|strategy| match strategy {
                Strategy::IncrementalPatch if !ctx.engine_live => CostEstimate {
                    strategy,
                    cost: u64::MAX,
                    applicable: false,
                    detail: "no live engine to patch",
                },
                Strategy::IncrementalPatch => CostEstimate {
                    strategy,
                    cost: region,
                    applicable: true,
                    detail: "drain pending region, read patched snapshot",
                },
                Strategy::WholeSolve => CostEstimate {
                    strategy,
                    cost: 2 * n,
                    applicable: true,
                    detail: if ctx.skeptic {
                        "binarize + one-pass Algorithm 2"
                    } else {
                        "binarize + one-pass Algorithm 1"
                    },
                },
            })
            .collect();
        let plan_nodes = candidates.len() as u64;
        stats.observe_plan(plan_nodes);

        let chosen = match query.force {
            Some(f) => {
                let est = &candidates[f.index()];
                if !est.applicable {
                    return Err(Error::Plan(format!(
                        "forced strategy {} is inapplicable: {}",
                        f.name(),
                        est.detail
                    )));
                }
                f
            }
            None => {
                candidates
                    .iter()
                    .filter(|c| c.applicable)
                    .min_by_key(|c| c.cost)
                    .expect("whole-solve is always applicable")
                    .strategy
            }
        };

        Ok(PlanReport {
            strategy: chosen,
            logical,
            forced: query.force.is_some(),
            candidates,
            consulted,
            plan_nodes,
        })
    }
}

/// One row of a query result: a user and their beliefs under the query's
/// read kind. Both columns are always filled (`cert` is the certain
/// positive value; `poss` the sorted possible positive values) so
/// differential oracles can compare rows bit-for-bit across strategies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRow {
    /// The user.
    pub user: User,
    /// Their certain positive value (`None` = ambiguous or no belief).
    pub cert: Option<Value>,
    /// Their sorted possible positive values.
    pub poss: Vec<Value>,
}

/// The result of [`crate::Session::query`]: the rows plus the plan that
/// produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// One row per queried user (one, or all in user order).
    pub rows: Vec<QueryRow>,
    /// The physical plan and its justification.
    pub report: PlanReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> PlanContext {
        PlanContext {
            node_count: 10_000,
            skeptic: false,
            engine_live: false,
        }
    }

    fn plan(query: &Query, ctx: &PlanContext) -> PlanReport {
        let mut stats = PlannerStats::default();
        Planner::plan(query, ctx, &mut stats).unwrap()
    }

    #[test]
    fn warm_sessions_prefer_the_patched_snapshot() {
        let mut stats = PlannerStats::default();
        stats.observe_region(8);
        stats.observe_build(10_000);
        let q = Query::cert(QueryTarget::All);
        let ctx = PlanContext {
            engine_live: true,
            ..ctx()
        };
        let report = Planner::plan(&q, &ctx, &mut stats).unwrap();
        assert_eq!(report.strategy, Strategy::IncrementalPatch);
        assert_eq!(report.plan_nodes, STRATEGY_COUNT as u64);
    }

    #[test]
    fn cold_sessions_solve_the_whole_network_whatever_the_sign() {
        for skeptic in [false, true] {
            let c = PlanContext { skeptic, ..ctx() };
            let report = plan(&Query::cert(QueryTarget::All), &c);
            assert_eq!(report.strategy, Strategy::WholeSolve);
            assert!(report.candidates.iter().any(|c| !c.applicable));
        }
    }

    #[test]
    fn forcing_an_inapplicable_strategy_errors() {
        let err = Planner::plan(
            &Query::cert(QueryTarget::All).force(Strategy::IncrementalPatch),
            &ctx(),
            &mut PlannerStats::default(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::Plan(_)));
    }

    #[test]
    fn exact_mode_is_never_a_cost_choice() {
        let q = Query::cert(QueryTarget::Named("alice".into())).exact();
        let report = plan(&q, &ctx());
        assert_eq!(report.strategy, Strategy::IncrementalPatch);
        assert_eq!(report.plan_nodes, 1);
        let err = Planner::plan(
            &q.clone().force(Strategy::WholeSolve),
            &ctx(),
            &mut PlannerStats::default(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::Plan(_)));
    }

    #[test]
    fn render_names_strategy_and_stats() {
        let report = plan(&Query::cert(QueryTarget::Named("alice".into())), &ctx());
        let text = report.render();
        assert!(text.contains("plan: whole-solve cost=20000"));
        assert!(text.contains("stats: expected_region=none"));
        assert!(text.contains("candidate: incremental-patch n/a"));
        assert!(text.contains("plan_nodes: 2"));
    }

    #[test]
    fn query_round_trips_through_display() {
        let q = Query::cert(QueryTarget::Named("alice".into()))
            .exact()
            .at(42);
        assert_eq!(q.to_string(), "CERT alice EXACT @42");
        let q = Query::poss(QueryTarget::All)
            .force(Strategy::WholeSolve)
            .explain();
        assert_eq!(q.to_string(), "EXPLAIN POSS * FORCE whole-solve");
    }

    #[test]
    fn strategy_names_parse_back() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.name()), Some(s));
            assert_eq!(Strategy::parse(&s.name().to_uppercase()), Some(s));
            assert_eq!(Strategy::parse(&s.name().replace('-', "_")), Some(s));
        }
        assert_eq!(Strategy::parse("nope"), None);
    }

    #[test]
    fn planning_mutates_only_plan_counters() {
        // The planner must do counter arithmetic only: no solver work, no
        // observation of regions/builds/runs.
        let mut stats = PlannerStats::default();
        let q = Query::cert(QueryTarget::All);
        Planner::plan(&q, &ctx(), &mut stats).unwrap();
        assert_eq!(stats.plans, 1);
        assert_eq!(stats.plan_nodes_visited, STRATEGY_COUNT as u64);
        assert_eq!(stats.regions_observed, 0);
        assert_eq!(stats.full_builds, 0);
        assert!(stats.strategies.iter().all(|s| s.runs == 0));
    }
}
