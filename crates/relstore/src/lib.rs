#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # trustmap-relstore
//!
//! A small in-memory relational engine with a SQL subset — the substitute
//! for the Microsoft SQL Server 2005 instance the paper uses for its bulk
//! experiments (Section 4, Figure 8c).
//!
//! The engine supports exactly what bulk conflict resolution needs, done
//! properly rather than stubbed:
//!
//! * `CREATE TABLE` / `CREATE INDEX` with `TEXT` and `INTEGER` columns;
//! * multi-row `INSERT INTO … VALUES`;
//! * `INSERT INTO … SELECT [DISTINCT] expr [AS alias], … FROM t [alias]
//!   WHERE …` — the two statement shapes of Section 4;
//! * `SELECT [DISTINCT] … FROM … [WHERE …]`, `DELETE FROM … [WHERE …]`;
//! * hash indexes used automatically for equality and `OR`-of-equality
//!   predicates on an indexed column (the access path that makes the
//!   paper's per-step cost linear in matching rows).
//!
//! [`bulkexec`] turns a [`trustmap_core::bulk::BulkPlan`] into the very SQL
//! statements printed in the paper and executes them here, plus parallel
//! and per-object baselines for the ablation benchmarks.
//!
//! ```
//! use trustmap_relstore::{Database, SqlValue};
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE poss (x TEXT, k INTEGER, v TEXT)").unwrap();
//! db.execute("INSERT INTO poss VALUES ('z', 0, 'jar'), ('z', 1, 'cow')")
//!     .unwrap();
//! db.execute("INSERT INTO poss SELECT 'alice' AS x, t.k, t.v FROM poss t WHERE t.x = 'z'")
//!     .unwrap();
//! let rows = db
//!     .execute("SELECT k, v FROM poss WHERE x = 'alice'")
//!     .unwrap()
//!     .rows;
//! assert_eq!(rows.len(), 2);
//! assert_eq!(rows[0][1], SqlValue::text("jar"));
//! ```

pub mod bulkexec;
pub mod engine;
pub mod expr;
pub mod parser;
pub mod relation;
pub mod stmt;
pub mod trustq;

#[cfg(test)]
mod proptests;

pub use engine::{Database, EngineError, QueryResult};
pub use expr::Expr;
pub use relation::{ColumnType, Relation, Schema, SqlValue};
pub use stmt::Statement;
pub use trustq::{parse_query, ParseError};
