//! Measures the cost-based query planner's overhead and proves persisted
//! planner statistics survive a store round-trip; writes the
//! machine-readable `BENCH_plan.json` consumed by the cross-PR perf
//! tracker.
//!
//! ```text
//! cargo run --release -p trustmap-bench --bin plan_bench [--quick] [out.json]
//! ```
//!
//! The question this answers: what does routing every read through the
//! planner cost, and does the statistics record the cost model feeds on
//! actually survive restarts? Two gates, both **counter arithmetic** —
//! the bench container has a single noisy core, so wall-clock never
//! gates (per-plan timings are recorded for humans only):
//!
//! * **bounded overhead** — planning visits at most one plan node per
//!   candidate strategy per query (`plan_nodes_visited / plans ≤ 2`),
//!   regardless of network size;
//! * **durable statistics** — after `snapshot_now`, a fresh
//!   `Store::open` adopts the persisted record: plans, node count, and
//!   per-strategy run counters all round-trip exactly.
//!
//! The workload mixes cold whole-network reads with warm point reads so
//! the recorded run counters show the planner actually using both
//! physical strategies, not pinning one.

use std::fmt::Write as _;
use std::time::Instant;
use trustmap::store::Store;
use trustmap::workloads::power_law;
use trustmap::{Query, QueryTarget, Session, Strategy, User};
use trustmap_bench::Table;

struct Config {
    users: usize,
    queries: usize,
}

struct Row {
    users: usize,
    nodes: u64,
    plans: u64,
    plan_nodes: u64,
    explain_us: f64,
    strategy_runs: Vec<(&'static str, u64)>,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn measure(cfg: &Config) -> Row {
    let w = power_law(cfg.users, 2, 4, 0.2, 42 + cfg.users as u64);
    let mut s = Session::new(w.net);

    // Cold whole-network reads: nothing to patch yet, so the planner
    // routes to the whole solve.
    s.query(&Query::poss(QueryTarget::All)).expect("resolves");
    s.query(&Query::cert(QueryTarget::All)).expect("resolves");

    // Warm the engine and interleave point reads with probe-belief
    // flips: the drained dirty regions feed the statistics record, and
    // the planner learns that patching beats re-solving.
    let probe = s.user("probe");
    let v0 = s.value("probe-v0");
    let v1 = s.value("probe-v1");
    s.believe(probe, v0).expect("edit");
    s.snapshot().expect("resolves");
    // A few drained flips teach the statistics record how small this
    // workload's dirty regions are; without history the cost model
    // conservatively assumes a full-network patch.
    for i in 0..4 {
        s.believe(probe, if i % 2 == 0 { v1 } else { v0 })
            .expect("edit");
        s.snapshot().expect("resolves");
    }
    for i in 0..cfg.queries {
        s.believe(probe, if i % 2 == 0 { v1 } else { v0 })
            .expect("edit");
        let u = User((i % cfg.users) as u32);
        s.query(&Query::cert(QueryTarget::Handle(u)))
            .expect("point read");
    }

    // Median planning-only latency via EXPLAIN (recorded, never gated).
    let samples: Vec<f64> = (0..64)
        .map(|_| {
            let t = Instant::now();
            s.explain(&Query::poss(QueryTarget::All)).expect("plans");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    let stats = s.planner_stats();
    Row {
        users: cfg.users,
        nodes: stats.node_count,
        plans: stats.plans,
        plan_nodes: stats.plan_nodes_visited,
        explain_us: median(samples),
        strategy_runs: Strategy::ALL
            .iter()
            .map(|st| (st.name(), stats.strategies[st.index()].runs))
            .collect(),
    }
}

/// The durable-statistics gate: a store session plans queries, snapshots,
/// and a fresh `Store::open` must adopt the persisted record exactly.
fn persistence_round_trip() -> (u64, u64, bool) {
    let dir = std::env::temp_dir().join(format!("trustmap-plan-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persisted = {
        let mut r = Store::open(&dir).expect("fresh store");
        let alice = r.session.user("alice");
        let bob = r.session.user("bob");
        let v = r.session.value("v");
        r.session.trust(alice, bob, 10).expect("edit");
        r.session.believe(bob, v).expect("edit");
        r.session.snapshot().expect("resolves");
        for _ in 0..8 {
            r.session
                .query(&Query::cert(QueryTarget::All))
                .expect("query");
        }
        r.store.snapshot_now(&r.session).expect("snapshot");
        r.session.planner_stats()
    };
    let back = Store::open(&dir).expect("recovers");
    let recovered = back.session.planner_stats();
    let intact = recovered.plans == persisted.plans
        && recovered.node_count == persisted.node_count
        && recovered.regions_observed == persisted.regions_observed
        && Strategy::ALL.iter().all(|st| {
            recovered.strategies[st.index()].runs == persisted.strategies[st.index()].runs
        });
    let _ = std::fs::remove_dir_all(&dir);
    (persisted.plans, recovered.plans, intact)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_plan.json".to_owned());

    let configs: Vec<Config> = if quick {
        vec![Config {
            users: 20_000,
            queries: 200,
        }]
    } else {
        vec![
            Config {
                users: 10_000,
                queries: 1_000,
            },
            Config {
                users: 100_000,
                queries: 1_000,
            },
            Config {
                users: 1_000_000,
                queries: 1_000,
            },
        ]
    };

    println!("# plan: cost-based planner overhead (counter arithmetic gates)\n");
    let mut table = Table::new(&[
        "users",
        "nodes",
        "plans",
        "plan nodes",
        "nodes/plan",
        "explain µs",
        "strategies run",
    ]);

    let mut rows = Vec::new();
    for cfg in &configs {
        let row = measure(cfg);
        let ran: Vec<String> = row
            .strategy_runs
            .iter()
            .filter(|(_, runs)| *runs > 0)
            .map(|(name, runs)| format!("{name}:{runs}"))
            .collect();
        table.row(vec![
            row.users.to_string(),
            row.nodes.to_string(),
            row.plans.to_string(),
            row.plan_nodes.to_string(),
            format!("{:.2}", row.plan_nodes as f64 / row.plans.max(1) as f64),
            format!("{:.1}", row.explain_us),
            ran.join(" "),
        ]);
        rows.push(row);
    }
    println!("{}", table.render());

    let (persisted_plans, recovered_plans, roundtrip_intact) = persistence_round_trip();
    println!(
        "store round-trip: {persisted_plans} plans persisted, {recovered_plans} recovered, \
         intact={roundtrip_intact}"
    );

    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"plan\",\n  \"networks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let runs: Vec<String> = r
            .strategy_runs
            .iter()
            .map(|(name, n)| format!("\"{name}\": {n}"))
            .collect();
        let _ = write!(
            json,
            "    {{\"users\": {}, \"nodes\": {}, \"plans\": {}, \"plan_nodes_visited\": {}, \
             \"plan_nodes_per_query\": {:.4}, \"explain_us\": {:.3}, \
             \"strategy_runs\": {{{}}}}}",
            r.users,
            r.nodes,
            r.plans,
            r.plan_nodes,
            r.plan_nodes as f64 / r.plans.max(1) as f64,
            r.explain_us,
            runs.join(", "),
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"store_round_trip\": {{\"persisted_plans\": {persisted_plans}, \
         \"recovered_plans\": {recovered_plans}, \"intact\": {roundtrip_intact}}}\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_plan.json");
    println!("wrote {out_path}");

    // Acceptance gates — counters only, no wall-clock.
    let bound = Strategy::ALL.len() as u64;
    for r in &rows {
        assert!(
            r.plan_nodes <= r.plans * bound,
            "acceptance: {} plan nodes over {} plans exceeds {} per query at {} users",
            r.plan_nodes,
            r.plans,
            bound,
            r.users
        );
        assert!(
            r.strategy_runs.iter().filter(|(_, n)| *n > 0).count() >= 2,
            "acceptance: the workload mix did not exercise both strategies"
        );
    }
    assert!(
        roundtrip_intact,
        "acceptance: persisted planner statistics did not survive Store::open"
    );
    println!("acceptance gates passed");
}
