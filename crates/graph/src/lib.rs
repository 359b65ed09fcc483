#![deny(unsafe_code)]
#![warn(missing_docs)]

//! # trustmap-graph
//!
//! A small, dependency-free directed-graph toolkit built for the trust-network
//! resolution algorithms of *Data Conflict Resolution Using Trust Mappings*
//! (Gatterbauer & Suciu, SIGMOD 2010).
//!
//! The paper relies on three classic graph ingredients:
//!
//! * **Strongly connected components** via Tarjan's algorithm (used by the
//!   resolution Algorithms 1 and 2 to find *minimal* SCCs of the open nodes);
//! * **Reachability** inside subgraphs (used by Algorithm 2's Step 2 and by
//!   the lineage checks of Definition 2.4);
//! * **Max-flow / vertex-disjoint paths** (used by the possible-pairs
//!   computation of Proposition 2.13).
//!
//! All algorithms are iterative (no recursion), so they scale to the
//! million-node networks of the paper's Figure 8 experiments.
//!
//! Two adjacency representations share the algorithms through the
//! [`Adjacency`] trait:
//!
//! * [`DiGraph`] — a growable builder with edge ids and optional reverse
//!   adjacency;
//! * [`Csr`] — immutable flat `offsets`/`targets` arrays for hot loops
//!   (resolution, reachability, Tarjan), avoiding the pointer-chasing of
//!   per-node `Vec`s.
//!
//! Loops that recompute SCCs over shrinking subsets (Algorithm 1 Step 2,
//! incremental dirty regions) reuse an [`SccScratch`] so each round costs
//! O(visited), not O(graph).
//!
//! For parallel resolution, [`ShardPlan`] turns an SCC labelling into a
//! level-indexed shard schedule: components grouped into worker-sized
//! shards per topological level, with flat dependency counts so a shard
//! becomes ready exactly when all upstream shards are sealed.
//!
//! Subgraph solves (incremental dirty regions) first renumber the region
//! into dense local ids through [`RegionCompactor`], so planning and
//! solving allocate scratch proportional to the region instead of the
//! whole graph; the whole-graph case is the degenerate identity view of
//! the same layer.

pub mod adjacency;
pub mod condense;
pub mod csr;
pub mod digraph;
pub mod flow;
pub mod reach;
pub mod region;
pub mod scc;
pub mod shard;
pub mod topo;

#[cfg(test)]
mod proptests;

pub use adjacency::{Adjacency, Neighbors};
pub use condense::Condensation;
pub use csr::Csr;
pub use digraph::{DiGraph, EdgeId, NodeId};
pub use flow::{vertex_disjoint_pair, DisjointPair};
pub use reach::{reachable_from, reachable_within};
pub use region::RegionCompactor;
pub use scc::{tarjan_scc, tarjan_scc_filtered, SccResult, SccScratch};
pub use shard::{PlanScratch, ShardPlan};
pub use topo::{is_acyclic, topo_order, TopoError};
