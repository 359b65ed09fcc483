#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # trustmap
//!
//! Data conflict resolution using priority trust mappings — a complete Rust
//! reproduction of *Gatterbauer & Suciu, SIGMOD 2010*.
//!
//! In massively collaborative databases, users hold conflicting beliefs
//! about the value of each object and declare **trust mappings** with
//! priorities ("accept Bob's values over Charlie's"). This crate computes
//! each user's consistent snapshot of the conflicting data — the *certain*
//! and *possible* beliefs over all stable solutions — in worst-case
//! quadratic (typically linear) time, handles constraints (negative
//! beliefs) under three paradigms, answers agreement/consensus/lineage
//! queries, and resolves whole catalogs of objects in bulk through SQL.
//!
//! This facade crate re-exports the subsystem crates and adds the
//! [`bridge`] between trust networks and logic programs (the paper's
//! Theorem 2.9 equivalence, used both for testing and as the DLV-substitute
//! baseline of the experiments) plus [`serve`], the concurrent serving
//! frontend (lock-free epoch-snapshot reads, group-commit writes, a
//! line-protocol TCP layer — `trustmap serve <dir>`):
//!
//! * `trustmap_core` — the trust-network model and all resolution
//!   algorithms;
//! * `trustmap_datalog` — normal logic programs under stable model
//!   semantics;
//! * `trustmap_relstore` — the in-memory SQL engine and bulk executors;
//! * `trustmap_store` — durable sessions: the append-only write-ahead
//!   log, snapshots, and crash recovery (re-exported as [`store`]);
//! * `trustmap_workloads` — seeded experiment generators;
//! * `trustmap_graph` — SCC/reachability/flow substrate.
//!
//! ## Quickstart
//!
//! ```
//! use trustmap::prelude::*;
//!
//! let mut net = TrustNetwork::new();
//! let alice = net.user("Alice");
//! let bob = net.user("Bob");
//! let charlie = net.user("Charlie");
//! net.trust(alice, bob, 100)?;
//! net.trust(alice, charlie, 50)?;
//! net.trust(bob, alice, 80)?;
//!
//! let fish = net.value("fish");
//! let knot = net.value("knot");
//! net.believe(bob, fish)?;
//! net.believe(charlie, knot)?;
//!
//! let r = resolve_network(&net)?;
//! assert_eq!(r.cert(alice), Some(fish)); // Bob outranks Charlie
//! # Ok::<(), trustmap::Error>(())
//! ```

pub mod bridge;
pub mod serve;

pub use trustmap_core::format;
pub use trustmap_core::{
    acyclic, binary, bulk, bulk_skeptic, durability, error, exact, gates, incremental, lineage,
    network, pairs, paradigm, parallel, resolution, sat, session, signed, skeptic,
    skeptic_incremental, stable, stable_signed, user, value,
};
pub use trustmap_core::{
    binarize, resolve, resolve_network, resolve_with, BeliefChange, BeliefSet, Btn, DeltaStats,
    Durability, Edit, Error, ExactCounters, ExactEngine, ExactUserResolution, ExplicitBelief,
    IncrementalResolver, Mapping, NegSet, Options, Paradigm, Parents, Resolution, Result, SccMode,
    Session, SignedEdit, SkepticIncremental, SkepticPlannedResolver, SkepticResolution,
    SkepticUserResolution, TrustNetwork, User, Value,
};
pub use trustmap_core::{plan, Query, QueryResult, QueryTarget, ReadKind, Route};

pub use trustmap_store as store;

pub use trustmap_datalog as datalog;
pub use trustmap_graph as graph;
pub use trustmap_relstore as relstore;
pub use trustmap_workloads as workloads;

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use crate::bridge::{btn_to_lp, bulk_to_lp, network_to_lp, LpTranslation};
    pub use crate::format::{parse_network, render_network};
    pub use trustmap_core::acyclic::evaluate_acyclic;
    pub use trustmap_core::bulk::{execute_native, plan_bulk, SeedValues};
    pub use trustmap_core::network::indus_network;
    pub use trustmap_core::pairs::analyze_pairs;
    pub use trustmap_core::resolution::{resolve, resolve_network, resolve_with};
    pub use trustmap_core::skeptic::{resolve_skeptic, resolve_skeptic_parallel};
    pub use trustmap_core::{
        binarize, BeliefSet, Btn, Edit, Error, ExplicitBelief, NegSet, Options, Paradigm, Result,
        SccMode, Session, TrustNetwork, User, Value,
    };
}
