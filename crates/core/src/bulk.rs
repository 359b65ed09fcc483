//! Bulk conflict resolution over many objects (Section 4, Appendix B.10).
//!
//! Under the paper's two assumptions — (i) the trust mappings are the same
//! for every object, and (ii) a user with an explicit belief has one for
//! *every* object — the resolution algorithm closes nodes in the **same
//! order for all objects**. The order is therefore computed once on the
//! network ([`plan_bulk`]) and each step becomes a set-oriented operation
//! over the `POSS(X, K, V)` relation:
//!
//! * a Step-1 preferred copy is `INSERT INTO POSS SELECT 'x', t.K, t.V
//!   FROM POSS t WHERE t.X = 'z'`;
//! * a Step-2 SCC flood is `INSERT INTO POSS SELECT DISTINCT 'x', t.K, t.V
//!   FROM POSS t WHERE t.X = 'z1' OR … OR t.X = 'zk'` per member.
//!
//! This module produces the backend-agnostic plan and a native in-memory
//! executor; `trustmap-relstore` executes the same plan through actual SQL
//! (and in parallel across objects, as an ablation).

use crate::binary::Btn;
use crate::error::Result;
use crate::resolution::{resolve, Resolution};
use crate::user::User;
use crate::value::Value;
use std::collections::BTreeSet;
use trustmap_graph::{reach::reachable_from_many, tarjan_scc_filtered, Condensation, NodeId};

/// One schedule step of the bulk resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BulkStep {
    /// Step 1: copy all `(k, v)` rows of `from` to `to` (preferred edge).
    CopyPreferred {
        /// The closed preferred parent.
        from: NodeId,
        /// The node being closed.
        to: NodeId,
    },
    /// Step 2: give every member the union of the sources' rows per key.
    Flood {
        /// Closed nodes with edges into the SCC.
        sources: Vec<NodeId>,
        /// The SCC being closed.
        members: Vec<NodeId>,
    },
}

/// A bulk-resolution schedule, valid for every object under assumptions
/// (i) and (ii).
#[derive(Debug, Clone)]
pub struct BulkPlan {
    /// Steps in execution order.
    pub steps: Vec<BulkStep>,
    /// Total number of BTN nodes (the `X` column's id space).
    pub node_count: usize,
    /// For each believing user, the root node where per-object values are
    /// seeded.
    pub seeds: Vec<(User, NodeId)>,
}

/// Compiles the resolution schedule by replaying Algorithm 1's closure
/// order on the network structure (values are irrelevant — only *who*
/// believes matters, which is exactly assumption (ii)).
pub fn plan_bulk(btn: &Btn) -> Result<BulkPlan> {
    // Reuse Algorithm 1's negative-belief guard.
    let _: Resolution = resolve(btn)?;

    let n = btn.node_count();
    let graph = btn.graph();
    let roots: Vec<NodeId> = btn.roots().collect();
    let reachable = reachable_from_many(&graph, roots.iter().copied(), |_| true);

    let mut closed = vec![false; n];
    let mut open_left = (0..n).filter(|&x| reachable[x]).count();
    let mut pref_children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for x in btn.nodes() {
        if let Some(z) = btn.preferred_parent(x) {
            pref_children[z as usize].push(x);
        }
    }
    let mut worklist: Vec<NodeId> = Vec::new();
    for &r in &roots {
        closed[r as usize] = true;
        open_left -= 1;
        worklist.extend(pref_children[r as usize].iter().copied());
    }

    let mut steps: Vec<BulkStep> = Vec::new();
    loop {
        while let Some(x) = worklist.pop() {
            let xs = x as usize;
            if closed[xs] || !reachable[xs] {
                continue;
            }
            let z = btn.preferred_parent(x).expect("worklist invariant");
            steps.push(BulkStep::CopyPreferred { from: z, to: x });
            closed[xs] = true;
            open_left -= 1;
            worklist.extend(pref_children[xs].iter().copied());
        }
        if open_left == 0 {
            break;
        }
        let is_open = |v: NodeId| reachable[v as usize] && !closed[v as usize];
        let scc = tarjan_scc_filtered(&graph, is_open);
        let cond = Condensation::new(&graph, scc, is_open);
        let sources: Vec<u32> = cond.sources().collect();
        for c in sources {
            let members: Vec<NodeId> = cond.members(c).to_vec();
            let mut srcs: BTreeSet<NodeId> = BTreeSet::new();
            for &x in &members {
                for (z, _) in graph.in_neighbors(x) {
                    if closed[*z as usize] {
                        srcs.insert(*z);
                    }
                }
            }
            steps.push(BulkStep::Flood {
                sources: srcs.into_iter().collect(),
                members: members.clone(),
            });
            for &x in &members {
                closed[x as usize] = true;
                open_left -= 1;
                worklist.extend(pref_children[x as usize].iter().copied());
            }
        }
    }

    let seeds = (0..btn.user_count() as u32)
        .filter_map(|u| {
            let user = User(u);
            btn.belief_root(user).map(|node| (user, node))
        })
        .collect();

    Ok(BulkPlan {
        steps,
        node_count: n,
        seeds,
    })
}

/// Per-object explicit beliefs: `values[k]` is the value the seeded user
/// asserts for object `k`.
#[derive(Debug, Clone)]
pub struct SeedValues {
    /// The asserting user.
    pub user: User,
    /// One value per object id `0..num_objects`.
    pub values: Vec<Value>,
}

/// The materialized `POSS(X, K, V)` relation: per node, per object, the
/// sorted possible values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PossTable {
    /// `rows[x][k]` = sorted possible values of node `x` for object `k`.
    pub rows: Vec<Vec<Vec<Value>>>,
    /// Number of objects.
    pub num_objects: usize,
}

impl PossTable {
    /// The possible values of `node` for object `k`.
    pub fn poss(&self, node: NodeId, k: usize) -> &[Value] {
        &self.rows[node as usize][k]
    }

    /// The certain value of `node` for object `k` (singleton possible set).
    pub fn cert(&self, node: NodeId, k: usize) -> Option<Value> {
        match *self.poss(node, k) {
            [v] => Some(v),
            _ => None,
        }
    }

    /// Total number of `(X, K, V)` rows.
    pub fn row_count(&self) -> usize {
        self.rows.iter().flatten().map(Vec::len).sum()
    }
}

/// Executes a bulk plan natively (in-memory, no SQL).
///
/// # Panics
/// Panics if a seed's user does not appear in the plan or value counts
/// disagree with `num_objects`.
pub fn execute_native(plan: &BulkPlan, seeds: &[SeedValues], num_objects: usize) -> PossTable {
    let mut rows: Vec<Vec<Vec<Value>>> = vec![vec![Vec::new(); num_objects]; plan.node_count];
    for seed in seeds {
        let node = plan
            .seeds
            .iter()
            .find(|(u, _)| *u == seed.user)
            .map(|&(_, node)| node)
            .expect("seed user must hold an explicit belief in the plan");
        assert_eq!(seed.values.len(), num_objects, "one value per object");
        for (k, &v) in seed.values.iter().enumerate() {
            rows[node as usize][k] = vec![v];
        }
    }
    for step in &plan.steps {
        match step {
            BulkStep::CopyPreferred { from, to } => {
                rows[*to as usize] = rows[*from as usize].clone();
            }
            BulkStep::Flood { sources, members } => {
                let mut union: Vec<BTreeSet<Value>> = vec![BTreeSet::new(); num_objects];
                for &z in sources {
                    for (k, vals) in rows[z as usize].iter().enumerate() {
                        union[k].extend(vals.iter().copied());
                    }
                }
                let flooded: Vec<Vec<Value>> = union
                    .into_iter()
                    .map(|set| set.into_iter().collect())
                    .collect();
                for &x in members {
                    rows[x as usize] = flooded.clone();
                }
            }
        }
    }
    PossTable { rows, num_objects }
}

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
    num_objects < threads && node_count >= MIN_PARALLEL_WORK
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::binarize;
    use crate::network::TrustNetwork;
    use crate::signed::ExplicitBelief;

    /// A 4-user network with an oscillator, two believers.
    fn setup() -> (TrustNetwork, [User; 4], Vec<Value>) {
        let mut net = TrustNetwork::new();
        let x1 = net.user("x1");
        let x2 = net.user("x2");
        let x3 = net.user("x3");
        let x4 = net.user("x4");
        let vals: Vec<Value> = (0..4).map(|i| net.value(&format!("v{i}"))).collect();
        net.trust(x1, x2, 100).unwrap();
        net.trust(x1, x3, 80).unwrap();
        net.trust(x2, x1, 50).unwrap();
        net.trust(x2, x4, 40).unwrap();
        // Placeholder beliefs: only *who* believes matters for the plan.
        net.believe(x3, vals[0]).unwrap();
        net.believe(x4, vals[0]).unwrap();
        (net, [x1, x2, x3, x4], vals)
    }

    /// Bulk execution must equal running Algorithm 1 separately per object.
    #[test]
    fn bulk_matches_per_object_resolution() {
        let (net, [x1, _, x3, x4], vals) = setup();
        let btn = binarize(&net);
        let plan = plan_bulk(&btn).unwrap();
        let num_objects = 8;
        // Object k: x3 says vals[k % 2], x4 says vals[k % 3 % 2 + ...] —
        // mix agreements and conflicts.
        let seed3 = SeedValues {
            user: x3,
            values: (0..num_objects).map(|k| vals[k % 2]).collect(),
        };
        let seed4 = SeedValues {
            user: x4,
            values: (0..num_objects).map(|k| vals[(k / 2) % 2]).collect(),
        };
        let table = execute_native(&plan, &[seed3.clone(), seed4.clone()], num_objects);

        for k in 0..num_objects {
            let mut btn_k = btn.clone();
            btn_k.set_root_belief(
                btn.belief_root(x3).unwrap(),
                ExplicitBelief::Pos(seed3.values[k]),
            );
            btn_k.set_root_belief(
                btn.belief_root(x4).unwrap(),
                ExplicitBelief::Pos(seed4.values[k]),
            );
            let res = crate::resolution::resolve(&btn_k).unwrap();
            for node in btn.nodes() {
                assert_eq!(
                    table.poss(node, k),
                    res.poss(node),
                    "object {k}, node {node}"
                );
            }
        }
        // Spot-check the oscillator semantics: conflicting objects give x1
        // two possible values, agreeing objects one.
        let n1 = btn.node_of(x1);
        assert_eq!(table.poss(n1, 0).len(), 1); // k=0: both v0
        assert_eq!(table.poss(n1, 2).len(), 2); // k=2: v0 vs v1
    }

    #[test]
    fn plan_is_structure_only() {
        let (net, _, vals) = setup();
        let btn = binarize(&net);
        let plan1 = plan_bulk(&btn).unwrap();
        // Changing belief *values* (not holders) leaves the plan unchanged.
        let mut net2 = net.clone();
        let u3 = net2.find_user("x3").unwrap();
        net2.believe(u3, vals[3]).unwrap();
        let plan2 = plan_bulk(&binarize(&net2)).unwrap();
        assert_eq!(plan1.steps, plan2.steps);
        assert_eq!(plan1.seeds, plan2.seeds);
    }

    #[test]
    fn row_counts_and_cert() {
        let (net, [x1, x2, x3, x4], vals) = setup();
        let btn = binarize(&net);
        let plan = plan_bulk(&btn).unwrap();
        let seeds = [
            SeedValues {
                user: x3,
                values: vec![vals[0]],
            },
            SeedValues {
                user: x4,
                values: vec![vals[0]],
            },
        ];
        let table = execute_native(&plan, &seeds, 1);
        // Everyone agrees on v0.
        for u in [x1, x2, x3, x4] {
            assert_eq!(table.cert(btn.node_of(u), 0), Some(vals[0]));
        }
        assert!(table.row_count() >= 4);
    }
}
