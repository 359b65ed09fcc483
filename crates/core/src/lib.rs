#![deny(unsafe_code)]
#![warn(missing_docs)]

//! # trustmap-core
//!
//! A from-scratch implementation of *Data Conflict Resolution Using Trust
//! Mappings* (Gatterbauer & Suciu, SIGMOD 2010).
//!
//! In a community database, users hold conflicting beliefs about the value
//! of each object and declare **priority trust mappings** ("I accept Bob's
//! values, priority 100"). This crate computes, for every user, a consistent
//! snapshot of the conflicting information:
//!
//! * [`network`] — the trust-network model (users, values, mappings,
//!   explicit beliefs);
//! * [`names`] — the arena name table every user and value name is
//!   stored in exactly once, shared by handle with binarized networks
//!   and published epochs;
//! * [`binary`] — binarization to the two-parent normal form
//!   (Proposition 2.8);
//! * [`resolution`] — Algorithm 1 as printed (round-looping Step 1 /
//!   Step 2): the differential oracles' reference and the lineage
//!   resolver;
//! * [`parallel`] — the production whole-network solver: one
//!   condensation pass, level-scheduled shards, bit-identical to
//!   [`resolution`] at every thread count (sessions and the CLI run it
//!   on one thread); plans ride the region-compact layer
//!   (`trustmap_graph::region` + the internal `compact` module), whole
//!   networks being the degenerate identity view;
//! * [`plan`] — the query AST and the two routes a read takes;
//! * [`stable`] — the stable-solution semantics (Definition 2.4) with an
//!   exhaustive ground-truth enumerator;
//! * [`lineage`] — tracing each belief to the explicit assertion it stems
//!   from;
//! * [`pairs`] — joint possible values, agreement checking, consensus
//!   values (Proposition 2.13);
//! * [`incremental`] — delta-resolution for edit streams: the dirty
//!   region is re-solved through [`parallel`]'s regional replay and the
//!   cached resolution patched in place (the scalable answer to Section
//!   2.5's "simply re-run the algorithm");
//! * [`session`] — the editing façade over [`incremental`]: typed edits
//!   take the delta path, explicit batches (`begin_batch`/`commit`)
//!   drain as one dirty region with a single change report, arbitrary
//!   closures fall back to full recomputation;
//! * [`durability`] — the write-ahead-logging hook [`session`] drives:
//!   an attached [`Durability`] sink sees every typed edit and commit
//!   boundary, so a persistence layer (the `trustmap-store` crate) can
//!   recover a byte-identical session after a crash;
//! * [`epoch`] — MVCC epoch snapshots for concurrent serving: each
//!   committed resolution publishes as an immutable [`EpochView`]
//!   (`Arc`-swapped through an [`EpochSlot`]) that readers clone
//!   lock-free, so reads never block on the writer and never observe a
//!   torn mid-batch state;
//! * [`cow`] — the chunked copy-on-write table behind every user-indexed
//!   result table, which is what makes publishing an epoch cost the
//!   edit's dirty chunks instead of the whole table;
//! * [`mod@format`] — the line-oriented text format for networks (id-exact
//!   round trips), shared by the CLI, fixtures, and the snapshot text
//!   flavor;
//! * [`signed`] / [`paradigm`] — constraints as negative beliefs and the
//!   Agnostic / Eclectic / Skeptic paradigms (Section 3);
//! * [`skeptic`] — Algorithm 2: PTIME resolution under Skeptic, as the
//!   sequential reference ([`skeptic::resolve_skeptic`]) *and* in the
//!   production plan/solve form ([`skeptic::SkepticPlannedResolver`])
//!   riding the same condensation-sharded scheduler as [`parallel`];
//! * [`skeptic_incremental`] — the signed counterpart of [`incremental`]:
//!   dirty-region re-solving of Algorithm 2, with constraint edits as
//!   first-class deltas (both engines share the live-BTN maintenance of
//!   the internal `deltabtn` module);
//! * [`acyclic`] — single-pass evaluation on DAGs for all paradigms
//!   (Proposition 3.6);
//! * [`stable_signed`] — ground-truth enumeration of constraint stable
//!   solutions (Definition 3.3 / B.3);
//! * [`exact`] — exact certain beliefs maintained per dirty region:
//!   purely topological on DAG regions, bounded region-local enumeration
//!   on cyclic residues, closing the `repPoss` over-approximation
//!   (`docs/FIDELITY.md` F1) for consumers that cannot tolerate it;
//! * [`gates`] / [`sat`] — the NP-hardness gadgets of Theorem 3.4 and a
//!   small DPLL solver to cross-check them;
//! * [`bulk`] / [`bulk_skeptic`] — the bulk-resolution schedules of
//!   Section 4 (Appendix B.10 for the signed variant), reusable by SQL and
//!   native executors.
//!
//! A subsystem walkthrough with request lifecycles lives in
//! `docs/ARCHITECTURE.md` at the repository root; the documented
//! deviations from the printed algorithms are collected in
//! `docs/FIDELITY.md`.
//!
//! ## Quick example (Figure 1 / Figure 2)
//!
//! ```
//! use trustmap_core::network::TrustNetwork;
//! use trustmap_core::resolution::resolve_network;
//!
//! let mut net = TrustNetwork::new();
//! let alice = net.user("Alice");
//! let bob = net.user("Bob");
//! let charlie = net.user("Charlie");
//! net.trust(alice, bob, 100).unwrap();
//! net.trust(alice, charlie, 50).unwrap();
//! net.trust(bob, alice, 80).unwrap();
//!
//! let fish = net.value("fish");
//! let knot = net.value("knot");
//! net.believe(bob, fish).unwrap();
//! net.believe(charlie, knot).unwrap();
//!
//! let r = resolve_network(&net).unwrap();
//! // Alice sees Bob's value: he has the higher priority.
//! assert_eq!(r.cert(alice), Some(fish));
//! ```

pub mod acyclic;
pub mod binary;
pub mod bulk;
pub mod bulk_skeptic;
pub(crate) mod compact;
pub mod cow;
pub(crate) mod deltabtn;
pub mod durability;
pub mod epoch;
pub mod error;
pub mod exact;
pub mod format;
pub mod gates;
pub mod incremental;
pub mod lineage;
pub mod names;
pub mod network;
pub mod pairs;
pub mod paradigm;
pub mod parallel;
pub mod plan;
pub mod resolution;
pub mod sat;
pub mod session;
pub mod signed;
pub mod skeptic;
pub mod skeptic_incremental;
pub mod stable;
pub mod stable_signed;
pub mod user;
pub mod value;

pub use binary::{binarize, Btn, NodeName, Parents};
pub use durability::Durability;
pub use epoch::{EpochNames, EpochReader, EpochSlot, EpochView};
pub use error::{Error, Result};
pub use exact::{ExactCounters, ExactEngine, ExactUserResolution};
pub use format::{parse_network, render_network, FormatError};
pub use incremental::{DeltaStats, Edit, IncrementalResolver};
pub use names::NameTable;
pub use network::{Mapping, TrustNetwork};
pub use paradigm::Paradigm;
pub use parallel::{resolve_network_parallel, resolve_parallel, ParOptions, PlannedResolver};
pub use plan::{Query, QueryResult, QueryRow, QueryTarget, ReadKind, Route};
pub use resolution::{resolve, resolve_network, resolve_with, Options, Resolution, SccMode};
pub use session::{BatchReport, BeliefChange, Session};
pub use signed::{BeliefSet, ExplicitBelief, NegSet};
pub use skeptic::{
    resolve_skeptic, resolve_skeptic_parallel, SkepticPlannedResolver, SkepticResolution,
    SkepticUserResolution,
};
pub use skeptic_incremental::{SignedEdit, SkepticIncremental};
pub use user::User;
pub use value::{Domain, Value};
