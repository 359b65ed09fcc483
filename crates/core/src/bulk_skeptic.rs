//! Bulk resolution under the Skeptic paradigm (Appendix B.10's note on
//! adapting Algorithm 2 — "insert the appropriate representation of ⊥").
//!
//! Beyond the paper's two bulk assumptions (same mappings for every object;
//! believers believe for every object) the skeptic schedule needs one more:
//!
//! * (iii) **sign-uniformity** — a user who asserts a *positive* value does
//!   so for every object (values may differ), and a user who asserts a
//!   *constraint* asserts the same constraint for every object (range
//!   checks and reference-list filters are per-attribute, not per-tuple).
//!
//! Under (i)–(iii) the Type-1/Type-2 classification of every node — and
//! therefore Algorithm 2's closure order — is identical across objects, so
//! the schedule can be compiled once and replayed per object. Step-2 floods
//! additionally precompute, per (entry, value) pair affected by `prefNeg`
//! blocking, which component members the value can reach; unreachable
//! members receive ⊥.

use crate::binary::{Btn, Parents};
use crate::bulk::bulk_sharded;
use crate::error::{Error, Result};
use crate::signed::{ExplicitBelief, NegSet};
use crate::skeptic::RepPoss;
use crate::user::User;
use crate::value::Value;
use std::collections::BTreeSet;
use trustmap_graph::{reach::reachable_from_many, tarjan_scc_filtered, Condensation, NodeId};

/// One step of the compiled skeptic schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkepticBulkStep {
    /// Step 1: copy the representation of a Type-2 preferred parent.
    Copy {
        /// The closed preferred parent.
        from: NodeId,
        /// The node being closed.
        to: NodeId,
    },
    /// Step 2: flood an SCC from its closed entry nodes.
    Flood {
        /// Closed nodes with edges into the component.
        entries: Vec<NodeId>,
        /// The component being closed.
        members: Vec<NodeId>,
        /// For `(entry, value)` pairs blocked somewhere in the component:
        /// the members the value still reaches (all others receive ⊥).
        blocked_reach: Vec<(NodeId, Value, Vec<NodeId>)>,
    },
}

/// A compiled bulk schedule for Algorithm 2.
#[derive(Debug, Clone)]
pub struct SkepticBulkPlan {
    /// Steps in execution order.
    pub steps: Vec<SkepticBulkStep>,
    /// Node count of the BTN.
    pub node_count: usize,
    /// Positive believers and their seed root nodes.
    pub pos_seeds: Vec<(User, NodeId)>,
    /// Constraint roots with their (object-independent) negative sets.
    pub neg_roots: Vec<(NodeId, NegSet)>,
}

/// Compiles the skeptic schedule by replaying Algorithm 2 on the network
/// structure. The placeholder positive values in `btn` only mark *who* is
/// positive; per-object values come from the seeds at execution time.
pub fn plan_bulk_skeptic(btn: &Btn) -> Result<SkepticBulkPlan> {
    if let Some(x) = btn
        .nodes()
        .find(|&x| matches!(btn.parents(x), Parents::Tied(..)))
    {
        let user = btn.origin(x).unwrap_or(User(x));
        return Err(Error::TiesUnsupported(user));
    }
    let n = btn.node_count();
    let graph = btn.graph();
    let domain_values: Vec<Value> = btn.domain().values().collect();

    // prefNeg (object-independent by assumption (iii)).
    let mut pref_neg: Vec<NegSet> = vec![NegSet::empty(); n];
    let mut pref_children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for x in btn.nodes() {
        if let Some(z) = btn.preferred_parent(x) {
            pref_children[z as usize].push(x);
        }
        if let ExplicitBelief::Negs(neg) = btn.belief(x) {
            pref_neg[x as usize] = neg.clone();
        }
    }
    let mut worklist: Vec<NodeId> = btn
        .nodes()
        .filter(|&x| !pref_neg[x as usize].is_empty())
        .collect();
    while let Some(z) = worklist.pop() {
        for &x in &pref_children[z as usize] {
            let merged = pref_neg[x as usize].union(&pref_neg[z as usize]);
            if merged != pref_neg[x as usize] {
                pref_neg[x as usize] = merged;
                worklist.push(x);
            }
        }
    }

    // Sign structure: which nodes can ever carry positives / ⊥ (Type 2).
    // Tracked during the replay exactly as Algorithm 2 tracks repPoss.
    let mut type2 = vec![false; n];
    let mut closed = vec![false; n];
    let roots: Vec<NodeId> = btn.roots().collect();
    let reachable = reachable_from_many(&graph, roots.iter().copied(), |_| true);
    let mut open_left = (0..n).filter(|&x| reachable[x]).count();

    let mut s1: Vec<NodeId> = Vec::new();
    for &r in &roots {
        type2[r as usize] = matches!(btn.belief(r), ExplicitBelief::Pos(_));
        closed[r as usize] = true;
        open_left -= 1;
        s1.extend(pref_children[r as usize].iter().copied());
    }

    let mut steps: Vec<SkepticBulkStep> = Vec::new();
    loop {
        while let Some(x) = s1.pop() {
            let xs = x as usize;
            if closed[xs] || !reachable[xs] {
                continue;
            }
            let z = btn.preferred_parent(x).expect("worklist invariant");
            if !closed[z as usize] || !type2[z as usize] {
                continue;
            }
            steps.push(SkepticBulkStep::Copy { from: z, to: x });
            type2[xs] = true;
            closed[xs] = true;
            open_left -= 1;
            s1.extend(pref_children[xs].iter().copied());
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
            let in_s: BTreeSet<NodeId> = members.iter().copied().collect();
            let mut entries: BTreeSet<NodeId> = BTreeSet::new();
            for &x in &members {
                for (z, _) in graph.in_neighbors(x) {
                    if closed[*z as usize] {
                        entries.insert(*z);
                    }
                }
            }
            // Per (Type-2 entry, domain value) with blocking inside S:
            // which members does the value reach?
            let mut blocked_reach: Vec<(NodeId, Value, Vec<NodeId>)> = Vec::new();
            for &zj in &entries {
                if !type2[zj as usize] {
                    continue;
                }
                for &v in &domain_values {
                    let any_blocked = members.iter().any(|&x| pref_neg[x as usize].contains(v));
                    if !any_blocked {
                        continue;
                    }
                    let in_sprime =
                        |x: NodeId| in_s.contains(&x) && !pref_neg[x as usize].contains(v);
                    let entry_pts = graph
                        .out_neighbors(zj)
                        .iter()
                        .map(|&(w, _)| w)
                        .filter(|&w| in_sprime(w));
                    let reach = reachable_from_many(&graph, entry_pts, in_sprime);
                    let reached: Vec<NodeId> = members
                        .iter()
                        .copied()
                        .filter(|&x| reach[x as usize])
                        .collect();
                    blocked_reach.push((zj, v, reached));
                }
            }
            let any_type2_entry = entries.iter().any(|&z| type2[z as usize]);
            for &x in &members {
                type2[x as usize] = any_type2_entry;
                closed[x as usize] = true;
                open_left -= 1;
                s1.extend(pref_children[x as usize].iter().copied());
            }
            steps.push(SkepticBulkStep::Flood {
                entries: entries.into_iter().collect(),
                members,
                blocked_reach,
            });
        }
    }

    let mut pos_seeds = Vec::new();
    let mut neg_roots = Vec::new();
    for u in 0..btn.user_count() as u32 {
        let user = User(u);
        if let Some(node) = btn.belief_root(user) {
            match btn.belief(node) {
                ExplicitBelief::Pos(_) => pos_seeds.push((user, node)),
                ExplicitBelief::Negs(neg) => neg_roots.push((node, neg.clone())),
                ExplicitBelief::None => {}
            }
        }
    }

    Ok(SkepticBulkPlan {
        steps,
        node_count: n,
        pos_seeds,
        neg_roots,
    })
}

/// Per-object positive seed values, mirroring [`crate::bulk::SeedValues`].
pub type PosSeeds = crate::bulk::SeedValues;

/// The materialized skeptic `POSS` table: one [`RepPoss`] per node and
/// object (decode with [`crate::skeptic`]'s Figure 18 rules via
/// [`SkepticTable::cert_positive`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SkepticTable {
    /// `rows[x][k]` = representation for node `x`, object `k`.
    pub rows: Vec<Vec<RepPoss>>,
    /// Number of objects.
    pub num_objects: usize,
}

impl SkepticTable {
    /// The representation for `(node, object)`.
    pub fn rep(&self, node: NodeId, k: usize) -> &RepPoss {
        &self.rows[node as usize][k]
    }

    /// The certain positive value for `(node, object)`, per Figure 18.
    pub fn cert_positive(&self, node: NodeId, k: usize) -> Option<Value> {
        let rep = self.rep(node, k);
        match rep.pos.len() {
            1 => {
                let v = *rep.pos.iter().next().expect("len checked");
                (!rep.neg.contains(v) && !rep.bottom).then_some(v)
            }
            _ => None,
        }
    }
}

/// Executes the compiled schedule for `num_objects` objects.
///
/// # Panics
/// Panics if a positive believer in the plan lacks seed values.
pub fn execute_skeptic_native(
    plan: &SkepticBulkPlan,
    seeds: &[PosSeeds],
    num_objects: usize,
) -> SkepticTable {
    let mut rows: Vec<Vec<RepPoss>> = vec![vec![RepPoss::default(); num_objects]; plan.node_count];
    for &(user, node) in &plan.pos_seeds {
        let seed = seeds
            .iter()
            .find(|s| s.user == user)
            .expect("positive believers need per-object seed values");
        assert_eq!(seed.values.len(), num_objects, "one value per object");
        for (k, &v) in seed.values.iter().enumerate() {
            rows[node as usize][k].pos.insert(v);
        }
    }
    for &(node, ref neg) in &plan.neg_roots {
        for rep in &mut rows[node as usize] {
            rep.neg = neg.clone();
        }
    }

    for step in &plan.steps {
        match step {
            SkepticBulkStep::Copy { from, to } => {
                rows[*to as usize] = rows[*from as usize].clone();
            }
            SkepticBulkStep::Flood {
                entries,
                members,
                blocked_reach,
            } => {
                // Indexing: `rows[z][k]` is cloned while `rows[x][k]` is
                // mutated below.
                #[allow(clippy::needless_range_loop)]
                for k in 0..num_objects {
                    let mut add = vec![RepPoss::default(); members.len()];
                    for &z in entries {
                        let zrep = rows[z as usize][k].clone();
                        for &v in &zrep.pos {
                            match blocked_reach
                                .iter()
                                .find(|&&(bz, bv, _)| bz == z && bv == v)
                            {
                                Some((_, _, reached)) => {
                                    for (i, &x) in members.iter().enumerate() {
                                        if reached.contains(&x) {
                                            add[i].pos.insert(v);
                                        } else {
                                            add[i].bottom = true;
                                        }
                                    }
                                }
                                None => {
                                    for a in &mut add {
                                        a.pos.insert(v);
                                    }
                                }
                            }
                        }
                        for a in &mut add {
                            a.neg = a.neg.union(&zrep.neg);
                            a.bottom |= zrep.bottom;
                        }
                    }
                    for (i, &x) in members.iter().enumerate() {
                        let r = &mut rows[x as usize][k];
                        r.pos.extend(add[i].pos.iter().copied());
                        r.neg = r.neg.union(&add[i].neg);
                        r.bottom |= add[i].bottom;
                    }
                }
            }
        }
    }
    SkepticTable { rows, num_objects }
}

/// Resolves `num_objects` objects under the Skeptic paradigm with
/// `threads` workers — the signed counterpart of
/// [`trustmap_relstore`-style](crate::bulk) per-object parallel execution.
///
/// The one-pass Algorithm 2 schedule
/// ([`crate::skeptic::SkepticPlannedResolver`]) is planned once — it
/// depends only on the trust structure — and shared by every reseeded
/// solve. With at least one object per thread, each worker owns a clone of
/// the BTN and a contiguous object range, solving each object on its own
/// thread. With *fewer* objects than threads on a large enough network
/// ([`bulk_sharded`]) — the "single huge object" regime —
/// objects resolve one after another, each spreading its network across
/// all `threads` workers. Either route returns bit-identical tables.
///
/// # Panics
/// Panics if a positive believer lacks seed values.
pub fn execute_skeptic_parallel(
    btn: &Btn,
    seeds: &[PosSeeds],
    num_objects: usize,
    threads: usize,
) -> Result<SkepticTable> {
    assert!(threads > 0, "need at least one thread");
    let mut rows: Vec<Vec<RepPoss>> = vec![vec![RepPoss::default(); num_objects]; btn.node_count()];
    let planned = crate::skeptic::SkepticPlannedResolver::new(btn, Default::default())?;

    if bulk_sharded(threads, num_objects, btn.node_count()) {
        let mut work = btn.clone();
        // `rows[node][k]` is written per node while `k` drives reseeding.
        #[allow(clippy::needless_range_loop)]
        for k in 0..num_objects {
            seed_object(&mut work, btn, seeds, k);
            let res = planned.resolve(&work, threads)?;
            for node in btn.nodes() {
                rows[node as usize][k] = res.rep_poss(node).clone();
            }
        }
        return Ok(SkepticTable { rows, num_objects });
    }

    let chunk = num_objects.div_ceil(threads);
    let planned = &planned;
    let partials: Vec<Result<(usize, Vec<Vec<RepPoss>>)>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(num_objects);
            if start >= end {
                continue;
            }
            handles.push(scope.spawn(move || {
                let mut work = btn.clone();
                let mut part: Vec<Vec<RepPoss>> =
                    vec![vec![RepPoss::default(); end - start]; btn.node_count()];
                for k in start..end {
                    seed_object(&mut work, btn, seeds, k);
                    let res = planned.resolve(&work, 1)?;
                    for node in btn.nodes() {
                        part[node as usize][k - start] = res.rep_poss(node).clone();
                    }
                }
                Ok((start, part))
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    for partial in partials {
        let (start, part) = partial?;
        for (node, node_rows) in part.into_iter().enumerate() {
            for (off, rep) in node_rows.into_iter().enumerate() {
                rows[node][start + off] = rep;
            }
        }
    }
    Ok(SkepticTable { rows, num_objects })
}

/// Re-seeds the working BTN with object `k`'s explicit positive beliefs.
fn seed_object(work: &mut Btn, btn: &Btn, seeds: &[PosSeeds], k: usize) {
    for seed in seeds {
        let node = btn
            .belief_root(seed.user)
            .expect("seed user holds a belief");
        work.set_root_belief(node, ExplicitBelief::Pos(seed.values[k]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::binarize;
    use crate::bulk::{SeedValues, MIN_PARALLEL_WORK};
    use crate::network::TrustNetwork;
    use crate::skeptic::resolve_skeptic;

    /// A network mixing an oscillator, a guard constraint, and chains.
    fn setup() -> (Btn, Vec<User>, Vec<Value>) {
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let b = net.user("b");
        let guard = net.user("guard");
        let s1 = net.user("s1");
        let s2 = net.user("s2");
        let tail = net.user("tail");
        let v0 = net.value("v0");
        let v1 = net.value("v1");
        net.trust(a, guard, 200).unwrap();
        net.trust(a, b, 100).unwrap();
        net.trust(b, a, 100).unwrap();
        net.trust(a, s1, 50).unwrap();
        net.trust(b, s2, 50).unwrap();
        net.trust(tail, b, 10).unwrap();
        net.reject(guard, NegSet::of([v0])).unwrap();
        net.believe(s1, v0).unwrap();
        net.believe(s2, v0).unwrap();
        let btn = binarize(&net);
        (btn, vec![s1, s2], vec![v0, v1])
    }

    /// Bulk skeptic equals running Algorithm 2 separately per object.
    #[test]
    fn bulk_skeptic_matches_per_object() {
        let (btn, believers, vals) = setup();
        let plan = plan_bulk_skeptic(&btn).unwrap();
        let num_objects = 4;
        // Mix of blocked (v0) and clean (v1) objects.
        let seeds = vec![
            SeedValues {
                user: believers[0],
                values: vec![vals[0], vals[1], vals[0], vals[1]],
            },
            SeedValues {
                user: believers[1],
                values: vec![vals[0], vals[0], vals[1], vals[1]],
            },
        ];
        let table = execute_skeptic_native(&plan, &seeds, num_objects);
        for k in 0..num_objects {
            let mut work = btn.clone();
            for seed in &seeds {
                let root = btn.belief_root(seed.user).expect("believer");
                work.set_root_belief(root, ExplicitBelief::Pos(seed.values[k]));
            }
            let reference = resolve_skeptic(&work).unwrap();
            for node in btn.nodes() {
                assert_eq!(
                    table.rep(node, k),
                    reference.rep_poss(node),
                    "object {k}, node {} ({})",
                    node,
                    btn.name(node)
                );
            }
        }
    }

    /// The plan is identical whatever the seed *values* are — only the
    /// sign structure matters (assumption (iii)).
    #[test]
    fn plan_is_sign_structure_only() {
        let (btn, believers, vals) = setup();
        let plan1 = plan_bulk_skeptic(&btn).unwrap();
        let mut btn2 = btn.clone();
        for &u in &believers {
            let root = btn.belief_root(u).unwrap();
            btn2.set_root_belief(root, ExplicitBelief::Pos(vals[1]));
        }
        let plan2 = plan_bulk_skeptic(&btn2).unwrap();
        assert_eq!(plan1.steps, plan2.steps);
    }

    /// A constraint at the head of a chain past
    /// [`MIN_PARALLEL_WORK`] nodes, fed by one positive
    /// believer at its far end: every chain user sees the believer's
    /// value or ⊥, object by object.
    fn guarded_chain() -> (Btn, User, Vec<Value>) {
        let mut net = TrustNetwork::new();
        let v0 = net.value("v0");
        let v1 = net.value("v1");
        let users: Vec<User> = (0..MIN_PARALLEL_WORK + 1)
            .map(|i| net.user(&format!("u{i}")))
            .collect();
        for pair in users.windows(2) {
            net.trust(pair[0], pair[1], 1).unwrap();
        }
        let guard = net.user("guard");
        net.trust(users[0], guard, 2).unwrap();
        net.reject(guard, NegSet::of([v0])).unwrap();
        let root = *users.last().unwrap();
        net.believe(root, v0).unwrap();
        (binarize(&net), root, vec![v0, v1])
    }

    /// The parallel executor equals the compiled schedule cell for cell in
    /// both regimes — object-level fan-out and, on the long chain with
    /// fewer objects than threads, the sharded resolver — including a
    /// lone object, more threads than objects, and uneven ranges.
    #[test]
    fn parallel_skeptic_bulk_matches_native() {
        let (chain, chain_root, chain_vals) = guarded_chain();
        assert!(bulk_sharded(3, 1, chain.node_count()));
        let (cyclic, believers, vals) = setup();
        assert!(!bulk_sharded(3, 1, cyclic.node_count()));
        for num_objects in [1, 2, 5, 6] {
            let chain_seeds = vec![SeedValues {
                user: chain_root,
                values: (0..num_objects).map(|k| chain_vals[k % 2]).collect(),
            }];
            let cyclic_seeds = vec![
                SeedValues {
                    user: believers[0],
                    values: (0..num_objects).map(|k| vals[k % vals.len()]).collect(),
                },
                SeedValues {
                    user: believers[1],
                    values: (0..num_objects)
                        .map(|k| vals[(k / 2) % vals.len()])
                        .collect(),
                },
            ];
            for (btn, seeds) in [(&chain, &chain_seeds), (&cyclic, &cyclic_seeds)] {
                let plan = plan_bulk_skeptic(btn).unwrap();
                let reference = execute_skeptic_native(&plan, seeds, num_objects);
                for threads in [1, 3, 8] {
                    let par = execute_skeptic_parallel(btn, seeds, num_objects, threads).unwrap();
                    assert_eq!(reference, par, "{num_objects} objects on {threads} threads");
                }
            }
        }
    }

    /// A seed user without a belief root is a caller bug, and the fan-out
    /// is loud about it: whichever worker meets it, the panic leaves the
    /// thread scope through the caller — no hang, no partial table.
    #[test]
    fn a_seed_without_a_belief_root_panics_the_caller() {
        let (btn, believers, vals) = setup();
        let seeds = vec![
            SeedValues {
                user: believers[0],
                values: vec![vals[0]; 5],
            },
            SeedValues {
                user: User(0), // `a` trusts but asserts nothing
                values: vec![vals[1]; 5],
            },
        ];
        for threads in [1, 3, 8] {
            let outcome = std::panic::catch_unwind(|| {
                let _ = execute_skeptic_parallel(&btn, &seeds, 5, threads);
            });
            assert!(outcome.is_err(), "{threads} threads returned a table");
        }
    }

    /// Blocked objects materialize ⊥ for the guarded user, clean objects a
    /// certain positive.
    #[test]
    fn bottom_representation_per_object() {
        let (btn, believers, vals) = setup();
        let plan = plan_bulk_skeptic(&btn).unwrap();
        let seeds = vec![
            SeedValues {
                user: believers[0],
                values: vec![vals[0], vals[1]],
            },
            SeedValues {
                user: believers[1],
                values: vec![vals[0], vals[1]],
            },
        ];
        let table = execute_skeptic_native(&plan, &seeds, 2);
        let a = btn.node_of(User(0));
        // Object 0: both sources assert the banned v0 → a is ⊥.
        assert!(table.rep(a, 0).bottom);
        assert_eq!(table.cert_positive(a, 0), None);
        // Object 1: clean v1 flows through.
        assert_eq!(table.cert_positive(a, 1), Some(vals[1]));
    }
}
