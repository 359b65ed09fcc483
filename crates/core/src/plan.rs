//! The query AST and the planner: one routing authority for every read.
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
//!     LogicalPlan + PlanContext
//!           ──Planner::plan──▶ PlanReport      (how to read it)
//! ```
//!
//! The lexer/parser live in `trustmap-relstore` (`trustq`); `Session`,
//! the serve protocol's `EXPLAIN` verb, and the CLI all consume the same
//! [`Query`] AST and route through [`Planner::plan`].
//!
//! The choice is a **rule**, a pure function of the query and two facts
//! about the session: an `EXACT` read is served by the maintained exact
//! engine; any other read patches the live engine when one exists and
//! solves the whole network when none does; `FORCE` overrides the rule
//! where the forced strategy is applicable. Both strategies return
//! bit-identical results for the queries they are applicable to
//! (enforced by `tests/plan_oracle.rs`), so the planner can never change
//! semantics (see `docs/FIDELITY.md`).

use crate::error::{Error, Result};
use crate::user::User;
use crate::value::Value;
use std::fmt;

/// The physical execution strategies the planner chooses among.
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
    /// Every strategy, in planning order.
    pub const ALL: [Strategy; 2] = [Strategy::IncrementalPatch, Strategy::WholeSolve];

    /// Stable display / protocol name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::IncrementalPatch => "incremental-patch",
            Strategy::WholeSolve => "whole-solve",
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
    /// Bypass the rule and force one strategy (oracle/debug surface);
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

    /// Forces `strategy` instead of the planner's choice.
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

/// The two facts about the current session/network the rule reads —
/// captured by the caller, consumed read-only at plan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanContext {
    /// Whether the network carries constraints (Skeptic pipeline).
    pub skeptic: bool,
    /// Whether a live incremental engine (warm snapshot) exists.
    pub engine_live: bool,
}

/// One candidate strategy as the planner saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The candidate.
    pub strategy: Strategy,
    /// Whether the strategy can answer this query at all.
    pub applicable: bool,
    /// Why it is inapplicable, or what running it does.
    pub detail: &'static str,
}

/// The chosen physical plan plus the candidates it was chosen among.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReport {
    /// The chosen strategy.
    pub strategy: Strategy,
    /// The logical plan the choice implements.
    pub logical: LogicalPlan,
    /// Whether the query forced the strategy.
    pub forced: bool,
    /// Every candidate considered, in [`Strategy::ALL`] order.
    pub candidates: Vec<Candidate>,
}

impl PlanReport {
    /// Renders the `EXPLAIN` text: the chosen physical strategy, the
    /// logical plan, and every candidate with what it does or why it
    /// cannot run. One field per line, machine-greppable.
    pub fn render(&self) -> String {
        let mut lines = vec![
            format!(
                "plan: {}{}",
                self.strategy.name(),
                if self.forced { " (forced)" } else { "" }
            ),
            format!("logical: {}", self.logical),
        ];
        lines.extend(self.candidates.iter().map(|c| {
            format!(
                "candidate: {} {}({})",
                c.strategy.name(),
                if c.applicable { "" } else { "n/a " },
                c.detail
            )
        }));
        lines.join("\n")
    }
}

/// The planner. Stateless: [`Planner::plan`] is a pure function.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner;

impl Planner {
    /// Chooses the physical strategy for `query` in `ctx`.
    ///
    /// The query's `force` overrides the rule but still validates
    /// applicability; an inapplicable forced strategy is
    /// [`Error::Plan`].
    pub fn plan(query: &Query, ctx: &PlanContext) -> Result<PlanReport> {
        let logical = LogicalPlan::analyze(query);
        let forced = query.force.is_some();

        // Exact mode is a semantic choice: ground-truth beliefs are
        // maintained incrementally by the exact engine, so the only
        // physical plan is the warm patched path.
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
            return Ok(PlanReport {
                strategy: Strategy::IncrementalPatch,
                logical,
                forced,
                candidates: vec![Candidate {
                    strategy: Strategy::IncrementalPatch,
                    applicable: true,
                    detail: "exact mode: only the maintained exact engine answers",
                }],
            });
        }

        let patch = Candidate {
            strategy: Strategy::IncrementalPatch,
            applicable: ctx.engine_live,
            detail: if ctx.engine_live {
                "drain pending region, read patched snapshot"
            } else {
                "no live engine to patch"
            },
        };
        let whole = Candidate {
            strategy: Strategy::WholeSolve,
            applicable: true,
            detail: if ctx.skeptic {
                "binarize + one-pass Algorithm 2"
            } else {
                "binarize + one-pass Algorithm 1"
            },
        };

        let strategy = match query.force {
            Some(Strategy::IncrementalPatch) if !patch.applicable => {
                return Err(Error::Plan(format!(
                    "forced strategy {} is inapplicable: {}",
                    patch.strategy.name(),
                    patch.detail
                )));
            }
            Some(f) => f,
            // Patching a region of the network never visits more nodes
            // than solving all of it.
            None if patch.applicable => Strategy::IncrementalPatch,
            None => Strategy::WholeSolve,
        };

        Ok(PlanReport {
            strategy,
            logical,
            forced,
            candidates: vec![patch, whole],
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
    /// The physical plan that produced them.
    pub report: PlanReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule's whole input space: `exact × force × engine_live ×
    /// skeptic`. Each row names the chosen strategy or the exact
    /// `Error::Plan` text; `forced` must equal "a force was given".
    #[test]
    fn the_rule_over_its_whole_input_space() {
        use Strategy::{IncrementalPatch as Patch, WholeSolve as Whole};
        const NO_ENGINE: &str =
            "plan: forced strategy incremental-patch is inapplicable: no live engine to patch";
        const EXACT_WHOLE: &str = "plan: cannot force whole-solve on an EXACT query: exact \
             beliefs are served from the incrementally maintained exact engine";
        // (exact, force, engine_live, skeptic, expected)
        type Row = (
            bool,
            Option<Strategy>,
            bool,
            bool,
            std::result::Result<Strategy, &'static str>,
        );
        let rows: [Row; 24] = [
            (false, None, false, false, Ok(Whole)),
            (false, None, false, true, Ok(Whole)),
            (false, None, true, false, Ok(Patch)),
            (false, None, true, true, Ok(Patch)),
            (false, Some(Patch), false, false, Err(NO_ENGINE)),
            (false, Some(Patch), false, true, Err(NO_ENGINE)),
            (false, Some(Patch), true, false, Ok(Patch)),
            (false, Some(Patch), true, true, Ok(Patch)),
            (false, Some(Whole), false, false, Ok(Whole)),
            (false, Some(Whole), false, true, Ok(Whole)),
            (false, Some(Whole), true, false, Ok(Whole)),
            (false, Some(Whole), true, true, Ok(Whole)),
            (true, None, false, false, Ok(Patch)),
            (true, None, false, true, Ok(Patch)),
            (true, None, true, false, Ok(Patch)),
            (true, None, true, true, Ok(Patch)),
            (true, Some(Patch), false, false, Ok(Patch)),
            (true, Some(Patch), false, true, Ok(Patch)),
            (true, Some(Patch), true, false, Ok(Patch)),
            (true, Some(Patch), true, true, Ok(Patch)),
            (true, Some(Whole), false, false, Err(EXACT_WHOLE)),
            (true, Some(Whole), false, true, Err(EXACT_WHOLE)),
            (true, Some(Whole), true, false, Err(EXACT_WHOLE)),
            (true, Some(Whole), true, true, Err(EXACT_WHOLE)),
        ];
        for (exact, force, engine_live, skeptic, expected) in rows {
            let query = Query {
                exact,
                force,
                ..Query::cert(QueryTarget::All)
            };
            let ctx = PlanContext {
                skeptic,
                engine_live,
            };
            let got = Planner::plan(&query, &ctx);
            let row = format!("{query} live={engine_live} skeptic={skeptic}");
            match expected {
                Ok(strategy) => {
                    let report = got.unwrap_or_else(|e| panic!("{row}: {e}"));
                    assert_eq!(report.strategy, strategy, "{row}");
                    assert_eq!(report.forced, force.is_some(), "{row}");
                }
                Err(text) => assert_eq!(got.unwrap_err().to_string(), text, "{row}"),
            }
        }
    }

    #[test]
    fn render_names_strategy_and_candidates() {
        let q = Query::cert(QueryTarget::Named("alice".into()));
        let cold = PlanContext {
            skeptic: false,
            engine_live: false,
        };
        assert_eq!(
            Planner::plan(&q, &cold).unwrap().render(),
            "plan: whole-solve\n\
             logical: read cert of one user\n\
             candidate: incremental-patch n/a (no live engine to patch)\n\
             candidate: whole-solve (binarize + one-pass Algorithm 1)"
        );
        let warm_signed = PlanContext {
            skeptic: true,
            engine_live: true,
        };
        assert_eq!(
            Planner::plan(&q.force(Strategy::WholeSolve), &warm_signed)
                .unwrap()
                .render(),
            "plan: whole-solve (forced)\n\
             logical: read cert of one user\n\
             candidate: incremental-patch (drain pending region, read patched snapshot)\n\
             candidate: whole-solve (binarize + one-pass Algorithm 2)"
        );
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
}
