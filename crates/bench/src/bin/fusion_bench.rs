//! Measures exact-mode maintenance under the fusion reweighting loop and
//! writes the machine-readable `BENCH_cert.json` consumed by the cross-PR
//! perf tracker.
//!
//! ```text
//! cargo run --release -p trustmap-bench --bin fusion_bench [--quick] [out.json]
//! ```
//!
//! The question this answers: what does keeping the **exact** certain
//! tables fresh cost per reweighting edit as the claim network grows? The
//! fusion workload is the friendly-adversarial case for exact mode: every
//! round re-ranks object→claim priorities, so each round is a batch of
//! trust edits whose dirty regions are one object plus its claim users —
//! a constant-size region regardless of how many objects exist. The
//! acceptance gate is therefore **counter arithmetic, never wall-clock**
//! (the bench container has a single noisy core):
//!
//! * `full_solves` stays at 1 — no reweighting edit may fall back to a
//!   whole-network exact solve (the one allowed full solve is the
//!   [`Session::enable_exact`] build);
//! * exact `nodes_touched` per applied edit stays flat across a 10×
//!   network-size jump (10⁴ → 10⁵ users);
//! * exact region scratch stays within a per-region-node budget and far
//!   below one byte per BTN node.

use std::fmt::Write as _;
use std::time::Instant;
use trustmap::workloads::fusion::{FusionConfig, FusionSim};
use trustmap::{Query, QueryTarget, Session, User, Value};
use trustmap_bench::Table;

struct Config {
    objects: usize,
    /// Rows marked `acceptance` carry the flatness gate against the
    /// first (smallest) row.
    acceptance: bool,
}

struct Row {
    users: usize,
    nodes: usize,
    objects: usize,
    rounds: usize,
    converged: bool,
    edits: usize,
    per_edit_nodes: f64,
    max_round_region: u64,
    full_solves: u64,
    scratch_bytes: usize,
    build_us: f64,
    round_us_avg: f64,
    accuracy_initial: f64,
    accuracy_final: f64,
}

/// Claims per object — fixes the per-edit dirty region (one object plus
/// its claim users), so `users = objects * (1 + CLAIMS)`.
const CLAIMS: usize = 4;
/// Sources whose agreement scores drive the reweighting.
const SOURCES: usize = 24;

/// Certain value of every object, indexed by object (object users are
/// interned first, so `objects[j].index() == j`).
fn object_certs(session: &mut Session, objects: &[User]) -> Vec<Option<Value>> {
    objects
        .iter()
        .map(|&o| {
            session
                .skeptic_cert(o)
                .expect("fusion networks are tie-free DAGs")
                .pos
        })
        .collect()
}

fn measure(cfg: &Config, max_rounds: usize) -> Row {
    let sim = FusionSim::new(&FusionConfig {
        sources: SOURCES,
        objects: cfg.objects,
        claims_per_object: CLAIMS,
        values: 3,
        seed: 8 + cfg.objects as u64,
    });
    let users = sim.net.user_count();
    let nodes = trustmap_core::binarize(&sim.net).node_count();

    let t = Instant::now();
    let mut session = Session::new(sim.net.clone());
    session
        .enable_exact()
        .expect("bipartite claim networks enumerate trivially");
    let build_us = t.elapsed().as_secs_f64() * 1e6;
    let after_build = session.exact_counters().expect("exact slot is live");

    let table = object_certs(&mut session, &sim.objects);
    let accuracy_initial = sim.accuracy(|u| table[u.index()]);

    let mut rounds = 0;
    let mut converged = false;
    let mut total_edits = 0usize;
    let mut max_round_region = 0u64;
    let mut round_us = Vec::new();
    let mut before_round = after_build;
    while rounds < max_rounds {
        let table = object_certs(&mut session, &sim.objects);
        let edits = sim.round_edits(session.network(), |u| table[u.index()]);
        if edits.is_empty() {
            converged = true;
            break;
        }
        let t = Instant::now();
        session.begin_batch().expect("round batch opens");
        for &e in &edits {
            session.apply_edit(e).expect("reweighting edit applies");
        }
        session.commit().expect("round batch commits");
        // Touch the exact table so its maintenance lands inside the
        // timer instead of leaking into the next round's cert sweep.
        session
            .query(&Query::cert(QueryTarget::Handle(sim.objects[0])).exact())
            .expect("exact mode stays live");
        round_us.push(t.elapsed().as_secs_f64() * 1e6);
        let now = session.exact_counters().expect("exact slot is live");
        max_round_region = max_round_region.max(now.nodes_touched - before_round.nodes_touched);
        before_round = now;
        total_edits += edits.len();
        rounds += 1;
    }
    let table = object_certs(&mut session, &sim.objects);
    let accuracy_final = sim.accuracy(|u| table[u.index()]);

    let counters = session.exact_counters().expect("exact slot is live");
    let touched = counters.nodes_touched - after_build.nodes_touched;
    Row {
        users,
        nodes,
        objects: cfg.objects,
        rounds,
        converged,
        edits: total_edits,
        per_edit_nodes: touched as f64 / total_edits.max(1) as f64,
        max_round_region,
        full_solves: counters.full_solves,
        scratch_bytes: session
            .exact_region_scratch_bytes()
            .expect("exact slot is live"),
        build_us,
        round_us_avg: round_us.iter().sum::<f64>() / round_us.len().max(1) as f64,
        accuracy_initial,
        accuracy_final,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_cert.json".to_string());

    // users = objects * (1 + CLAIMS): 2k objects = 10⁴ users, 20k = 10⁵.
    // Quick mode caps the loop instead of shrinking the networks — the
    // O(region) gate needs the 10× size jump either way.
    let (configs, max_rounds): (Vec<Config>, usize) = if quick {
        (
            vec![
                Config {
                    objects: 2_000,
                    acceptance: false,
                },
                Config {
                    objects: 20_000,
                    acceptance: true,
                },
            ],
            3,
        )
    } else {
        (
            vec![
                Config {
                    objects: 2_000,
                    acceptance: false,
                },
                Config {
                    objects: 20_000,
                    acceptance: true,
                },
            ],
            24,
        )
    };

    let mut table = Table::new(&[
        "users",
        "nodes",
        "rounds",
        "edits",
        "touched/edit",
        "full solves",
        "scratch B",
        "build ms",
        "round ms",
        "accuracy",
    ]);
    let mut rows = Vec::new();
    for cfg in &configs {
        let row = measure(cfg, max_rounds);
        table.row(vec![
            row.users.to_string(),
            row.nodes.to_string(),
            format!("{}{}", row.rounds, if row.converged { "*" } else { "" }),
            row.edits.to_string(),
            format!("{:.2}", row.per_edit_nodes),
            row.full_solves.to_string(),
            row.scratch_bytes.to_string(),
            format!("{:.1}", row.build_us / 1e3),
            format!("{:.1}", row.round_us_avg / 1e3),
            format!("{:.2}->{:.2}", row.accuracy_initial, row.accuracy_final),
        ]);
        rows.push(row);
    }
    println!("{}", table.render());
    println!("(* = reached the reweighting fixed point)");

    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"cert\",\n  \"networks\": [");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        write!(
            json,
            "\n    {{\"users\": {}, \"nodes\": {}, \"objects\": {}, \"rounds\": {}, \
             \"converged\": {}, \"edits\": {}, \"per_edit_nodes_touched\": {:.3}, \
             \"max_round_region\": {}, \"full_solves\": {}, \"scratch_bytes\": {}, \
             \"build_us\": {:.1}, \"round_us_avg\": {:.1}, \
             \"accuracy_initial\": {:.4}, \"accuracy_final\": {:.4}}}",
            r.users,
            r.nodes,
            r.objects,
            r.rounds,
            r.converged,
            r.edits,
            r.per_edit_nodes,
            r.max_round_region,
            r.full_solves,
            r.scratch_bytes,
            r.build_us,
            r.round_us_avg,
            r.accuracy_initial,
            r.accuracy_final,
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_cert.json");
    println!("wrote {out_path}");

    // Acceptance gates — counter arithmetic only, asserted AFTER the
    // JSON lands so a gate failure still leaves the numbers on disk.
    let base = &rows[0];
    assert!(
        base.rounds >= 1 && base.edits >= 1,
        "reweighting never emitted an edit: the per-edit gate is vacuous"
    );
    for (cfg, r) in configs.iter().zip(&rows) {
        assert_eq!(
            r.full_solves, 1,
            "{} users: a reweighting edit fell back to a full-network exact solve",
            r.users
        );
        assert!(
            r.scratch_bytes < r.nodes,
            "{} users: exact scratch {}B is network-sized ({} nodes)",
            r.users,
            r.scratch_bytes,
            r.nodes
        );
        let budget = 512 * r.max_round_region as usize + 8192;
        assert!(
            r.scratch_bytes <= budget,
            "{} users: exact scratch {}B exceeds region budget {}B",
            r.users,
            r.scratch_bytes,
            budget
        );
        if cfg.acceptance {
            assert!(
                r.edits >= 1,
                "{} users: no edits at the acceptance scale",
                r.users
            );
            // O(region): per-edit touched nodes must not grow with the
            // network. The region of one reweighting edit is one object
            // plus its claim chain, identical at every scale; allow
            // small slack for batch dedup differences between seeds.
            assert!(
                r.per_edit_nodes <= base.per_edit_nodes * 1.5 + 2.0,
                "per-edit exact work grew with network size: \
                 {:.2} nodes/edit at {} users vs {:.2} at {} users",
                r.per_edit_nodes,
                r.users,
                base.per_edit_nodes,
                base.users
            );
        }
    }
    println!("acceptance gates passed (counter arithmetic, no wall-clock)");
}
