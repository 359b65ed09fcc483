//! Bulk-resolution executors (Section 4, Figure 8c).
//!
//! Three ways to resolve `n` objects over one trust network, all producing
//! the same `POSS(X, K, V)` table:
//!
//! * [`execute_plan_sql`] — the paper's approach: compile the network's
//!   resolution schedule once ([`trustmap_core::bulk::plan_bulk`]) and run
//!   one set-oriented SQL statement per step against the relational engine.
//!   Statement count depends on the network only; per-statement cost is
//!   linear in the number of matching rows, so total cost is linear in the
//!   number of objects.
//! * [`resolve_objects_sequential`] — the naive baseline: run Algorithm 1
//!   as printed once per object.
//! * [`resolve_objects_parallel`] — one solve per object over `threads`
//!   scoped threads, through the one-pass condensation solver planned
//!   once for the whole workload (an ablation the paper doesn't run but a
//!   natural systems question: does set-orientation still win once the
//!   naive loop is parallelized?).

use crate::engine::{Database, EngineError};
use crate::relation::SqlValue;
use trustmap_core::bulk::{bulk_sharded, BulkPlan, BulkStep, PossTable, SeedValues};
use trustmap_core::{Btn, ExplicitBelief, Value};

/// The `X`-column name of a BTN node.
pub fn node_name(node: u32) -> String {
    format!("n{node}")
}

/// The SQL statements implementing `plan`, in execution order — the exact
/// statement shapes printed in Section 4.
pub fn plan_to_sql(plan: &BulkPlan) -> Vec<String> {
    let mut out = vec![
        "CREATE TABLE poss (x TEXT, k INTEGER, v TEXT)".to_owned(),
        "CREATE INDEX ON poss (x)".to_owned(),
    ];
    for step in &plan.steps {
        match step {
            BulkStep::CopyPreferred { from, to } => {
                out.push(format!(
                    "insert into poss select '{}' AS x, t.k, t.v from poss t where t.x = '{}'",
                    node_name(*to),
                    node_name(*from)
                ));
            }
            BulkStep::Flood { sources, members } => {
                let disjunction = sources
                    .iter()
                    .map(|z| format!("t.x = '{}'", node_name(*z)))
                    .collect::<Vec<_>>()
                    .join(" or ");
                for x in members {
                    out.push(format!(
                        "insert into poss select distinct '{}' AS x, t.k, t.v \
                         from poss t where {}",
                        node_name(*x),
                        disjunction
                    ));
                }
            }
        }
    }
    out
}

/// Executes `plan` through SQL: creates `POSS`, bulk-loads the seeds (the
/// JDBC-equivalent direct path), then runs one statement per step. Returns
/// the materialized [`PossTable`].
pub fn execute_plan_sql(
    btn: &Btn,
    plan: &BulkPlan,
    seeds: &[SeedValues],
    num_objects: usize,
) -> Result<PossTable, EngineError> {
    let mut db = Database::new();
    let statements = plan_to_sql(plan);
    // CREATE TABLE + CREATE INDEX first.
    db.execute(&statements[0])?;
    db.execute(&statements[1])?;

    for seed in seeds {
        let node = plan
            .seeds
            .iter()
            .find(|(u, _)| *u == seed.user)
            .map(|&(_, n)| n)
            .expect("seed user must hold an explicit belief in the plan");
        assert_eq!(seed.values.len(), num_objects, "one value per object");
        db.insert_rows(
            "poss",
            seed.values.iter().enumerate().map(|(k, v)| {
                vec![
                    SqlValue::text(node_name(node)),
                    SqlValue::Int(k as i64),
                    SqlValue::text(btn.domain().name(*v)),
                ]
            }),
        )?;
    }

    for sql in &statements[2..] {
        db.execute(sql)?;
    }
    table_from_db(&db, btn, plan.node_count, num_objects)
}

/// Reads the `POSS` table back into the dense [`PossTable`] shape.
fn table_from_db(
    db: &Database,
    btn: &Btn,
    node_count: usize,
    num_objects: usize,
) -> Result<PossTable, EngineError> {
    let mut rows: Vec<Vec<Vec<Value>>> = vec![vec![Vec::new(); num_objects]; node_count];
    let rel = db.table("poss")?;
    for row in rel.rows() {
        let (x, k, v) = match (&row[0], &row[1], &row[2]) {
            (SqlValue::Text(x), SqlValue::Int(k), SqlValue::Text(v)) => (x, *k as usize, v),
            other => {
                return Err(EngineError::Eval(format!(
                    "unexpected POSS row shape: {other:?}"
                )))
            }
        };
        let node: u32 = x
            .strip_prefix('n')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| EngineError::Eval(format!("bad node name {x}")))?;
        let value = btn
            .domain()
            .get(v)
            .ok_or_else(|| EngineError::Eval(format!("unknown value {v}")))?;
        rows[node as usize][k].push(value);
    }
    for node_rows in &mut rows {
        for vals in node_rows {
            vals.sort_unstable();
            vals.dedup();
        }
    }
    Ok(PossTable { rows, num_objects })
}

/// The naive baseline: Algorithm 1 per object, sequentially.
pub fn resolve_objects_sequential(
    btn: &Btn,
    seeds: &[SeedValues],
    num_objects: usize,
) -> PossTable {
    let mut rows: Vec<Vec<Vec<Value>>> = vec![vec![Vec::new(); num_objects]; btn.node_count()];
    let mut work = btn.clone();
    // `rows[node][k]` is written per node while `k` drives the reseeding.
    #[allow(clippy::needless_range_loop)]
    for k in 0..num_objects {
        seed_object(&mut work, btn, seeds, k);
        let res = trustmap_core::resolution::resolve(&work).expect("positive beliefs only");
        for node in btn.nodes() {
            rows[node as usize][k] = res.poss(node).to_vec();
        }
    }
    PossTable { rows, num_objects }
}

/// One solve per object over `threads` scoped threads.
///
/// The trust structure is identical across objects — only the root
/// beliefs change — so the one-pass solver's shard schedule
/// ([`trustmap_core::parallel::PlannedResolver`]) is planned once and
/// shared by every reseeded solve. With at least one object per thread,
/// each worker owns a clone of the BTN and a contiguous object range,
/// solving each object on its own thread. With *fewer* objects than
/// threads on a network past [`trustmap_core::bulk::MIN_PARALLEL_WORK`]
/// ([`bulk_sharded`]) — the "single huge object" regime —
/// objects resolve one after another, each spreading its trust network
/// across all `threads` workers. Either route returns tables
/// bit-identical to [`resolve_objects_sequential`].
pub fn resolve_objects_parallel(
    btn: &Btn,
    seeds: &[SeedValues],
    num_objects: usize,
    threads: usize,
) -> PossTable {
    assert!(threads > 0, "need at least one thread");
    let planned = trustmap_core::parallel::PlannedResolver::new(btn, Default::default());
    let mut rows: Vec<Vec<Vec<Value>>> = vec![vec![Vec::new(); num_objects]; btn.node_count()];
    if bulk_sharded(threads, num_objects, btn.node_count()) {
        let mut work = btn.clone();
        // `rows[node][k]` is written per node while `k` drives reseeding.
        #[allow(clippy::needless_range_loop)]
        for k in 0..num_objects {
            seed_object(&mut work, btn, seeds, k);
            let res = planned
                .resolve(&work, threads)
                .expect("positive beliefs only");
            for node in btn.nodes() {
                rows[node as usize][k] = res.poss(node).to_vec();
            }
        }
        return PossTable { rows, num_objects };
    }
    let chunk = num_objects.div_ceil(threads);
    let planned = &planned;

    let mut partials: Vec<(usize, Vec<Vec<Vec<Value>>>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(num_objects);
            if start >= end {
                continue;
            }
            handles.push(scope.spawn(move || {
                let mut work = btn.clone();
                let mut part: Vec<Vec<Vec<Value>>> =
                    vec![vec![Vec::new(); end - start]; btn.node_count()];
                for k in start..end {
                    seed_object(&mut work, btn, seeds, k);
                    let res = planned.resolve(&work, 1).expect("positive beliefs");
                    for node in btn.nodes() {
                        part[node as usize][k - start] = res.poss(node).to_vec();
                    }
                }
                (start, part)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    for (start, part) in partials.drain(..) {
        for (node, node_rows) in part.into_iter().enumerate() {
            for (off, vals) in node_rows.into_iter().enumerate() {
                rows[node][start + off] = vals;
            }
        }
    }
    PossTable { rows, num_objects }
}

/// Bulk resolution of *signed* workloads (constraint-carrying networks)
/// under the Skeptic paradigm, fanned out over `threads`.
///
/// The relational `POSS` table cannot represent negative beliefs, so
/// signed bulk work bypasses the SQL path and produces the dense
/// [`trustmap_core::bulk_skeptic::SkepticTable`] directly. Routing matches
/// [`resolve_objects_parallel`]: one plan of the one-pass Algorithm 2
/// ([`trustmap_core::skeptic::SkepticPlannedResolver`]) for the whole
/// workload, object-level fan-out when objects ≥ threads, and all
/// `threads` workers per object in the few-objects regime.
pub fn resolve_objects_skeptic(
    btn: &Btn,
    seeds: &[SeedValues],
    num_objects: usize,
    threads: usize,
) -> Result<trustmap_core::bulk_skeptic::SkepticTable, trustmap_core::Error> {
    trustmap_core::bulk_skeptic::execute_skeptic_parallel(btn, seeds, num_objects, threads)
}

/// Re-seeds the working BTN with object `k`'s explicit beliefs.
fn seed_object(work: &mut Btn, btn: &Btn, seeds: &[SeedValues], k: usize) {
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
    use trustmap_core::bulk::{execute_native, plan_bulk, MIN_PARALLEL_WORK};
    use trustmap_core::network::TrustNetwork;
    use trustmap_core::User;

    /// The oscillator network with two believers, mixed agree/conflict
    /// objects.
    fn setup(num_objects: usize) -> (Btn, BulkPlan, Vec<SeedValues>) {
        let mut net = TrustNetwork::new();
        let x1 = net.user("x1");
        let x2 = net.user("x2");
        let x3 = net.user("x3");
        let x4 = net.user("x4");
        let v0 = net.value("v0");
        let v1 = net.value("v1");
        net.trust(x1, x2, 100).unwrap();
        net.trust(x1, x3, 80).unwrap();
        net.trust(x2, x1, 50).unwrap();
        net.trust(x2, x4, 40).unwrap();
        net.believe(x3, v0).unwrap();
        net.believe(x4, v0).unwrap();
        let btn = trustmap_core::binarize(&net);
        let plan = plan_bulk(&btn).unwrap();
        let seeds = vec![
            SeedValues {
                user: x3,
                values: (0..num_objects)
                    .map(|k| if k % 2 == 0 { v0 } else { v1 })
                    .collect(),
            },
            SeedValues {
                user: x4,
                values: (0..num_objects).map(|_| v0).collect(),
            },
        ];
        let _ = [x1, x2];
        (btn, plan, seeds)
    }

    #[test]
    fn sql_matches_native_executor() {
        let (btn, plan, seeds) = setup(16);
        let native = execute_native(&plan, &seeds, 16);
        let sql = execute_plan_sql(&btn, &plan, &seeds, 16).unwrap();
        assert_eq!(native, sql);
    }

    #[test]
    fn sql_matches_per_object_baselines() {
        let (btn, plan, seeds) = setup(12);
        let sql = execute_plan_sql(&btn, &plan, &seeds, 12).unwrap();
        let seq = resolve_objects_sequential(&btn, &seeds, 12);
        assert_eq!(sql, seq);
        let par = resolve_objects_parallel(&btn, &seeds, 12, 3);
        assert_eq!(seq, par);
    }

    /// Objects × threads splits both routes must survive: a lone object,
    /// more threads than objects, and uneven ranges.
    fn splits() -> impl Iterator<Item = (usize, usize)> {
        [1, 2, 5]
            .into_iter()
            .flat_map(|objects| [1, 3, 8].map(move |threads| (objects, threads)))
    }

    #[test]
    fn few_objects_stay_on_fan_out_below_the_work_threshold() {
        // 2 objects on 4 threads, but a 6-node network: too little work
        // to spread one solve over threads, so objects fan out.
        let (btn, _, _) = setup(2);
        assert!(!bulk_sharded(4, 2, btn.node_count()));
        for (num_objects, threads) in splits().chain([(2, 4)]) {
            let (btn, _, seeds) = setup(num_objects);
            let seq = resolve_objects_sequential(&btn, &seeds, num_objects);
            let par = resolve_objects_parallel(&btn, &seeds, num_objects, threads);
            assert_eq!(seq, par, "{num_objects} objects on {threads} threads");
        }
    }

    #[test]
    fn few_objects_route_through_sharded_resolver_above_threshold() {
        // A chain long enough to clear MIN_PARALLEL_WORK: with
        // fewer objects than threads the intra-object sharded path
        // engages, otherwise objects fan out; either way the table is
        // byte-identical to the sequential baseline.
        let mut net = TrustNetwork::new();
        let v0 = net.value("v0");
        let v1 = net.value("v1");
        let users: Vec<User> = (0..MIN_PARALLEL_WORK + 1)
            .map(|i| net.user(&format!("u{i}")))
            .collect();
        for pair in users.windows(2) {
            net.trust(pair[0], pair[1], 1).unwrap();
        }
        net.believe(*users.last().unwrap(), v0).unwrap();
        let btn = trustmap_core::binarize(&net);
        assert!(bulk_sharded(4, 1, btn.node_count()));
        for (num_objects, threads) in splits().chain([(1, 4)]) {
            let seeds = vec![SeedValues {
                user: *users.last().unwrap(),
                values: (0..num_objects)
                    .map(|k| if k % 2 == 0 { v0 } else { v1 })
                    .collect(),
            }];
            let seq = resolve_objects_sequential(&btn, &seeds, num_objects);
            let par = resolve_objects_parallel(&btn, &seeds, num_objects, threads);
            assert_eq!(seq, par, "{num_objects} objects on {threads} threads");
        }
    }

    /// A seed user without a belief root is a caller bug, and the fan-out
    /// is loud about it: whichever worker meets it, the panic leaves the
    /// thread scope through the caller — no hang, no partial table.
    #[test]
    fn a_seed_without_a_belief_root_panics_the_caller() {
        let (btn, _, mut seeds) = setup(5);
        seeds[1].user = User(0); // x1 trusts but asserts nothing
        for threads in [1, 3, 8] {
            let outcome = std::panic::catch_unwind(|| {
                resolve_objects_parallel(&btn, &seeds, 5, threads);
            });
            assert!(outcome.is_err(), "{threads} threads returned a table");
        }
    }

    #[test]
    fn signed_bulk_routes_through_skeptic_pipeline() {
        use trustmap_core::signed::NegSet;
        // Constraint-carrying network: a guard rejects v0 over an
        // oscillating pair fed by two believers.
        let mut net = TrustNetwork::new();
        let x = net.user("x");
        let guard = net.user("guard");
        let s1 = net.user("s1");
        let v0 = net.value("v0");
        let v1 = net.value("v1");
        net.trust(x, guard, 2).unwrap();
        net.trust(x, s1, 1).unwrap();
        net.reject(guard, NegSet::of([v0])).unwrap();
        net.believe(s1, v0).unwrap();
        let btn = trustmap_core::binarize(&net);
        let seeds = vec![SeedValues {
            user: s1,
            values: vec![v0, v1, v0, v1],
        }];
        // Few objects on many threads: the sharded skeptic path.
        let few = resolve_objects_skeptic(&btn, &seeds[..1], 2, 4).unwrap();
        // Object fan-out.
        let fanned = resolve_objects_skeptic(&btn, &seeds, 4, 2).unwrap();
        // Both match the per-object sequential reference.
        let mut work = btn.clone();
        for k in 0..4 {
            work.set_root_belief(
                btn.belief_root(s1).unwrap(),
                trustmap_core::ExplicitBelief::Pos(seeds[0].values[k]),
            );
            let reference = trustmap_core::skeptic::resolve_skeptic(&work).unwrap();
            for node in btn.nodes() {
                assert_eq!(fanned.rep(node, k), reference.rep_poss(node), "node {node}");
                if k < 2 {
                    assert_eq!(few.rep(node, k), reference.rep_poss(node), "node {node}");
                }
            }
        }
        // Blocked objects collapse the guarded user to ⊥.
        assert!(fanned.rep(btn.node_of(x), 0).bottom);
        assert_eq!(fanned.cert_positive(btn.node_of(x), 1), Some(v1));
    }

    #[test]
    fn statement_count_is_object_independent() {
        let (_, plan, _) = setup(4);
        let sql_small = plan_to_sql(&plan);
        let (_, plan2, _) = setup(4096);
        let sql_large = plan_to_sql(&plan2);
        assert_eq!(sql_small.len(), sql_large.len());
    }

    #[test]
    fn conflicting_objects_get_two_values() {
        let (btn, plan, seeds) = setup(4);
        let table = execute_plan_sql(&btn, &plan, &seeds, 4).unwrap();
        let x1 = btn.node_of(User(0));
        // k=0: both assert v0 → certain; k=1: conflict → two values.
        assert_eq!(table.poss(x1, 0).len(), 1);
        assert_eq!(table.poss(x1, 1).len(), 2);
        assert!(table.cert(x1, 0).is_some());
        assert!(table.cert(x1, 1).is_none());
    }

    #[test]
    fn generated_sql_shapes_match_paper() {
        let (_, plan, _) = setup(1);
        let sql = plan_to_sql(&plan);
        assert!(sql[0].starts_with("CREATE TABLE poss"));
        assert!(sql
            .iter()
            .any(|s| s.contains("select distinct") && s.contains(" or ")));
    }
}
