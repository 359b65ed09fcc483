//! Measures the incremental delta-resolution engine against full
//! re-resolution on edit streams and writes the machine-readable
//! `BENCH_edits.json` consumed by the cross-PR perf tracker.
//!
//! ```text
//! cargo run --release -p trustmap-bench --bin edits_bench [--quick] [out.json]
//! ```
//!
//! For each power-law network size the driver replays a seeded edit stream
//! (belief-dominated, occasional revocations and new mappings) through a
//! [`trustmap::Session`] (incremental path) and through the paper's
//! "simply re-run the algorithm" baseline (binarize + Algorithm 1 after
//! every edit), then records edits/sec for both and the speedup.
//!
//! Its `build` block times what serving a network starts with: building
//! the live engine (`IncrementalResolver::new`, one bulk BTN build and
//! one whole-network solve) and a bulk load — every edit of the network
//! committed as one batch into an empty session, which reseeds the
//! engine instead of patching edit by edit. The gates are counters: the
//! streams stay on the incremental path, the bulk load reseeds exactly
//! once, and the 10^5-user stream beats full re-resolution 10x.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trustmap::workloads::{apply_edit, edit_stream, power_law, EditMix};
use trustmap::{resolve_network, ExplicitBelief, IncrementalResolver, Session, TrustNetwork};
use trustmap_bench::{median_time, ms, Table};

struct Row {
    users: usize,
    size: usize,
    edits: usize,
    inc_us_per_edit: f64,
    batch_us_per_edit: f64,
    full_ms_per_edit: f64,
    mean_dirty_nodes: f64,
    speedup: f64,
    batch_speedup: f64,
    engine_new_ms: f64,
    bulk_load_edits: usize,
    bulk_load_ms: f64,
    bulk_load_reseeds: u64,
}

/// Commits every edit of `net` as one batch into an empty session: users
/// and values first, then the mappings and beliefs. Returns the edit
/// count, the batch's wall time and the engine rebuilds it took.
fn bulk_load(net: &TrustNetwork) -> (usize, Duration, u64) {
    let mut session = Session::new(TrustNetwork::new());
    session.snapshot().expect("empty network");
    let before = session.stats();
    let t = Instant::now();
    session.begin_batch().expect("engine is live");
    for u in net.users() {
        session.user(net.user_name(u));
    }
    for v in net.domain().values() {
        session.value(net.domain().name(v));
    }
    let mut edits = 0;
    for m in net.mappings() {
        session
            .trust(m.child, m.parent, m.priority)
            .expect("valid edit");
        edits += 1;
    }
    for u in net.users() {
        if let ExplicitBelief::Pos(v) = net.belief(u) {
            session.believe(u, *v).expect("valid edit");
            edits += 1;
        }
    }
    let report = session.commit().expect("positive network");
    let elapsed = t.elapsed();
    let reseeds = session.stats().full_rebuilds - before.full_rebuilds;
    assert!(
        report.full_rebuild && reseeds == 1,
        "a bulk load ({edits} edits, {} users) must reseed exactly once (took {reseeds})",
        net.user_count()
    );
    (edits, elapsed, reseeds)
}

fn measure(users: usize, edits: usize, full_samples: usize, seed: u64) -> Row {
    let w = power_law(users, 2, 4, 0.2, seed);
    let size = w.net.size();

    let engine_new = median_time(3, 3, Duration::ZERO, || {
        std::hint::black_box(IncrementalResolver::new(&w.net).expect("positive network"));
    });
    let mut bulk = Vec::new();
    let (mut bulk_load_edits, mut bulk_load_reseeds) = (0, 0);
    for _ in 0..3 {
        let (edits, elapsed, reseeds) = bulk_load(&w.net);
        (bulk_load_edits, bulk_load_reseeds) = (edits, reseeds);
        bulk.push(elapsed);
    }
    bulk.sort_unstable();
    let stream = edit_stream(&w, edits, EditMix::default(), seed ^ 0x5EED);

    // Incremental: one session, every edit through the delta path.
    let mut session = Session::new(w.net.clone());
    session.snapshot().expect("positive network");
    let t = Instant::now();
    for &e in &stream {
        session.apply_edit(e).expect("valid edit");
    }
    let inc_total = t.elapsed();
    let stats = session.stats();
    assert_eq!(
        stats.full_rebuilds, 1,
        "edit stream must stay on the incremental path"
    );
    let mean_dirty = stats.dirty_nodes as f64 / stats.incremental_edits.max(1) as f64;

    // Batched: the same stream drained 64 edits at a time through the
    // explicit transaction API — one combined dirty region per commit
    // (the ROADMAP "batch-aware session API" measurement).
    let mut batched = Session::new(w.net.clone());
    batched.snapshot().expect("positive network");
    let t = Instant::now();
    for chunk in stream.chunks(64) {
        batched.begin_batch().expect("engine is live");
        for &e in chunk {
            batched.apply_edit(e).expect("valid edit");
        }
        batched.commit().expect("valid batch");
    }
    let batch_total = t.elapsed();
    assert_eq!(
        batched.stats().full_rebuilds,
        1,
        "batched stream must stay on the incremental path"
    );

    // Full baseline: binarize + Algorithm 1 after each edit (Section 2.5's
    // "simply re-run"), sampled over a prefix — it is orders of magnitude
    // slower, so a few edits give a stable per-edit cost.
    let mut net = w.net.clone();
    let t = Instant::now();
    for &e in stream.iter().take(full_samples) {
        apply_edit(&mut net, e);
        std::hint::black_box(resolve_network(&net).expect("positive network"));
    }
    let full_total = t.elapsed();

    let inc_us = inc_total.as_secs_f64() * 1e6 / stream.len() as f64;
    let batch_us = batch_total.as_secs_f64() * 1e6 / stream.len() as f64;
    let full_ms = full_total.as_secs_f64() * 1e3 / full_samples as f64;
    Row {
        users,
        size,
        edits: stream.len(),
        inc_us_per_edit: inc_us,
        batch_us_per_edit: batch_us,
        full_ms_per_edit: full_ms,
        mean_dirty_nodes: mean_dirty,
        speedup: (full_ms * 1e3) / inc_us,
        batch_speedup: inc_us / batch_us,
        engine_new_ms: ms(engine_new),
        bulk_load_edits,
        bulk_load_ms: ms(bulk[1]),
        bulk_load_reseeds,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_edits.json".to_owned());

    let configs: &[(usize, usize, usize)] = if quick {
        // (users, stream edits, full-baseline samples)
        &[(1_000, 256, 8), (10_000, 256, 4)]
    } else {
        &[(1_000, 1_024, 32), (10_000, 1_024, 16), (100_000, 1_024, 8)]
    };

    println!("# edits: incremental delta-resolution vs full re-resolution\n");
    let mut table = Table::new(&[
        "users",
        "size |U|+|E|",
        "incremental us/edit",
        "batch(64) us/edit",
        "full re-resolve ms/edit",
        "mean dirty nodes",
        "speedup",
        "batch win",
        "engine build ms",
        "bulk load ms",
    ]);
    let mut rows = Vec::new();
    for &(users, edits, full_samples) in configs {
        let row = measure(users, edits, full_samples, 8 + users as u64);
        table.row(vec![
            row.users.to_string(),
            row.size.to_string(),
            format!("{:.2}", row.inc_us_per_edit),
            format!("{:.2}", row.batch_us_per_edit),
            format!("{:.3}", row.full_ms_per_edit),
            format!("{:.1}", row.mean_dirty_nodes),
            format!("{:.0}x", row.speedup),
            format!("{:.2}x", row.batch_speedup),
            format!("{:.1}", row.engine_new_ms),
            format!("{:.1}", row.bulk_load_ms),
        ]);
        rows.push(row);
    }
    println!("{}", table.render());

    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"edits\",\n");
    let _ = writeln!(
        json,
        "  \"edit_mix\": {{\"trust_fraction\": 0.05, \"revoke_fraction\": 0.2}},"
    );
    json.push_str("  \"networks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"users\": {}, \"size\": {}, \"edits\": {}, \
             \"incremental_us_per_edit\": {:.3}, \"incremental_edits_per_sec\": {:.1}, \
             \"batch64_us_per_edit\": {:.3}, \"batch_speedup_vs_single\": {:.3}, \
             \"full_ms_per_edit\": {:.3}, \"full_edits_per_sec\": {:.3}, \
             \"mean_dirty_nodes\": {:.2}, \"speedup\": {:.1}, \
             \"build\": {{\"engine_new_ms\": {:.3}, \"bulk_load_edits\": {}, \
             \"bulk_load_ms\": {:.3}, \"bulk_load_reseeds\": {}}}}}",
            r.users,
            r.size,
            r.edits,
            r.inc_us_per_edit,
            1e6 / r.inc_us_per_edit,
            r.batch_us_per_edit,
            r.batch_speedup,
            r.full_ms_per_edit,
            1e3 / r.full_ms_per_edit,
            r.mean_dirty_nodes,
            r.speedup,
            r.engine_new_ms,
            r.bulk_load_edits,
            r.bulk_load_ms,
            r.bulk_load_reseeds,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_edits.json");
    println!("wrote {out_path}");

    if let Some(big) = rows.iter().rfind(|r| r.users >= 100_000) {
        assert!(
            big.speedup >= 10.0,
            "acceptance: incremental must be >= 10x full re-resolution \
             on the 10^5-node network (got {:.1}x)",
            big.speedup
        );
    }
}
