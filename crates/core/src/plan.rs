//! The query AST and the route a read takes.
//!
//! The semantics define one answer per network state, so a read can only
//! choose *how* that answer is produced, never *what* it is. The choice
//! is one rule, applied in `Session::query`: an `EXACT` read goes to the
//! maintained exact engine, any other read patches the live incremental
//! engine when one exists ([`Route::IncrementalPatch`]) and solves the
//! whole network in one condensation pass when none does
//! ([`Route::WholeSolve`]). Both routes return bit-identical rows
//! (`tests/incremental_oracle.rs`, `tests/skeptic_oracle.rs`), so routing
//! can never change semantics (see `docs/FIDELITY.md`, F8).
//!
//! The lexer/parser live in `trustmap-relstore` (`trustq`); `Session`,
//! the serve protocol's read verbs, and the CLI all consume the same
//! [`Query`] AST.

use crate::user::User;
use crate::value::Value;
use std::fmt;

/// The two ways a session produces a read's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// Read the live incremental engine's patched snapshot (Algorithm 1
    /// or 2 deltas; the warm path), or the exact engine it maintains.
    IncrementalPatch,
    /// One-pass condensation solve of the whole network from scratch, on
    /// one thread: [`crate::parallel::PlannedResolver`] on positive
    /// networks, [`crate::skeptic::SkepticPlannedResolver`] on
    /// constraint-carrying ones.
    WholeSolve,
}

impl fmt::Display for Route {
    /// The stable name `trustmap query` and `EXPLAIN` print.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Route::IncrementalPatch => "incremental-patch",
            Route::WholeSolve => "whole-solve",
        })
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
    /// approximation — a semantic mode, not a route.
    pub exact: bool,
    /// Serve-protocol LSN pin (`@<lsn>`): don't answer before the view
    /// reaches this LSN. Ignored by in-process sessions (always current).
    pub pin: Option<u64>,
    /// Name the route instead of executing it (`EXPLAIN`).
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

    /// Marks the query as `EXPLAIN` (name the route, don't execute).
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
        if let Some(lsn) = self.pin {
            write!(f, " @{lsn}")?;
        }
        Ok(())
    }
}

/// One row of a query result: a user and their beliefs under the query's
/// read kind. Both columns are always filled (`cert` is the certain
/// positive value; `poss` the sorted possible positive values) so
/// differential oracles can compare rows bit-for-bit across routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRow {
    /// The user.
    pub user: User,
    /// Their certain positive value (`None` = ambiguous or no belief).
    pub cert: Option<Value>,
    /// Their sorted possible positive values.
    pub poss: Vec<Value>,
}

/// The result of [`crate::Session::query`]: the rows plus the route
/// that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// One row per queried user (one, or all in user order).
    pub rows: Vec<QueryRow>,
    /// The route that produced them.
    pub route: Route,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trips_through_display() {
        let q = Query::cert(QueryTarget::Named("alice".into()))
            .exact()
            .at(42);
        assert_eq!(q.to_string(), "CERT alice EXACT @42");
        let q = Query::poss(QueryTarget::All).explain();
        assert_eq!(q.to_string(), "EXPLAIN POSS *");
    }
}
