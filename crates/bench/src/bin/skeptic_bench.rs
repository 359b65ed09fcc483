//! Measures the skeptic (Algorithm 2) fast paths — the incremental
//! `SkepticIncremental` engine against full re-resolution on signed edit
//! streams, and the condensation-sharded `SkepticPlannedResolver` against
//! the sequential `resolve_skeptic` — and writes the machine-readable
//! `BENCH_skeptic.json` consumed by the cross-PR perf tracker.
//!
//! ```text
//! cargo run --release -p trustmap-bench --bin skeptic_bench [--quick] [out.json]
//! ```
//!
//! Workloads are signed power-law networks ([`power_law_signed`]): a
//! fraction of believers assert constraints, and the edit streams mix
//! believe / revoke / constraint / trust edits. The headline acceptance
//! gate: on the 10⁵-user network, incremental **constraint** edits — the
//! edits that previously forced a full Algorithm-2 re-run — must beat the
//! full re-resolve by ≥ 2× per edit (they beat it by orders of magnitude;
//! the margin is algorithmic, so a noisy single-core container passes).

use std::fmt::Write as _;
use std::time::Instant;
use trustmap::skeptic::resolve_skeptic;
use trustmap::workloads::{apply_signed_edit, power_law_signed, signed_edit_stream, SignedEditMix};
use trustmap::{binarize, SkepticIncremental, SkepticPlannedResolver};
use trustmap_bench::Table;
use trustmap_core::parallel::ParOptions;

struct EditRow {
    users: usize,
    size: usize,
    edits: usize,
    inc_us_per_edit: f64,
    constraint_us_per_edit: f64,
    full_ms_per_edit: f64,
    mean_dirty_nodes: f64,
    speedup: f64,
    constraint_speedup: f64,
}

struct ParRow {
    users: usize,
    nodes: usize,
    edges: usize,
    seq_ms: f64,
    par_ms: Vec<(usize, f64)>,
    speedup4: Option<f64>,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn time_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(samples)
}

fn measure_edits(users: usize, edits: usize, full_samples: usize, seed: u64) -> EditRow {
    let w = power_law_signed(users, 2, 4, 0.2, 0.3, seed);
    let size = w.net.size();
    let mixed = signed_edit_stream(&w, edits, SignedEditMix::default(), seed ^ 0x5EED);
    // Constraint-only stream: every edit re-asserts some user's negative
    // beliefs — the Section 2.5 worst case for the signed pipeline.
    let constraints = signed_edit_stream(
        &w,
        edits,
        SignedEditMix {
            trust_fraction: 0.0,
            revoke_fraction: 0.0,
            constraint_fraction: 1.0,
        },
        seed ^ 0xC0DE,
    );

    // Incremental: one engine, every edit through the delta path.
    let mut net = w.net.clone();
    let mut engine = SkepticIncremental::new(&net).expect("generator is tie-free");
    let mut dirty_total = 0u64;
    let t = Instant::now();
    for e in &mixed {
        apply_signed_edit(&mut net, e);
        engine
            .apply_edits(&net, std::slice::from_ref(e))
            .expect("stream is tie-free");
        dirty_total += engine.last_dirty_len() as u64;
    }
    let inc_total = t.elapsed();
    let mean_dirty = dirty_total as f64 / mixed.len() as f64;
    // Sanity: the engine tracks a from-scratch Algorithm 2 run.
    {
        let btn = binarize(&net);
        let reference = resolve_skeptic(&btn).expect("resolves");
        for u in net.users() {
            assert_eq!(
                engine.rep_poss(engine.btn().node_of(u)),
                reference.rep_poss(btn.node_of(u)),
                "incremental skeptic diverged at user {u}"
            );
        }
    }

    // Constraint-only replay on a fresh engine.
    let mut net_c = w.net.clone();
    let mut engine_c = SkepticIncremental::new(&net_c).expect("tie-free");
    let t = Instant::now();
    for e in &constraints {
        apply_signed_edit(&mut net_c, e);
        engine_c
            .apply_edits(&net_c, std::slice::from_ref(e))
            .expect("constraint stream is tie-free");
    }
    let con_total = t.elapsed();

    // Full baseline: binarize + Algorithm 2 after each edit ("simply
    // re-run"), sampled over a prefix.
    let mut full_net = w.net.clone();
    let t = Instant::now();
    for e in mixed.iter().take(full_samples) {
        apply_signed_edit(&mut full_net, e);
        let btn = binarize(&full_net);
        std::hint::black_box(resolve_skeptic(&btn).expect("resolves"));
    }
    let full_total = t.elapsed();

    let inc_us = inc_total.as_secs_f64() * 1e6 / mixed.len() as f64;
    let con_us = con_total.as_secs_f64() * 1e6 / constraints.len() as f64;
    let full_ms = full_total.as_secs_f64() * 1e3 / full_samples as f64;
    EditRow {
        users,
        size,
        edits: mixed.len(),
        inc_us_per_edit: inc_us,
        constraint_us_per_edit: con_us,
        full_ms_per_edit: full_ms,
        mean_dirty_nodes: mean_dirty,
        speedup: (full_ms * 1e3) / inc_us,
        constraint_speedup: (full_ms * 1e3) / con_us,
    }
}

fn measure_parallel(users: usize, threads: &[usize], runs: usize, seed: u64) -> ParRow {
    let w = power_law_signed(users, 3, 4, 0.05, 0.3, seed);
    let btn = binarize(&w.net);
    let seq = resolve_skeptic(&btn).expect("tie-free");
    let seq_ms = time_ms(runs, || {
        std::hint::black_box(resolve_skeptic(&btn).expect("tie-free"));
    });

    let mut par_ms = Vec::new();
    for &t in threads {
        let planned = SkepticPlannedResolver::new(&btn, ParOptions::default()).expect("tie-free");
        let par = planned.resolve(&btn, t).expect("resolves");
        for x in btn.nodes() {
            assert_eq!(
                seq.rep_poss(x),
                par.rep_poss(x),
                "skeptic resolution diverged at node {x} with {t} threads"
            );
        }
        let ms = time_ms(runs, || {
            std::hint::black_box(planned.resolve(&btn, t).expect("resolves"));
        });
        par_ms.push((t, ms));
    }
    let speedup4 = par_ms
        .iter()
        .find(|&&(t, _)| t == 4)
        .map(|&(_, ms)| seq_ms / ms);

    ParRow {
        users,
        nodes: btn.node_count(),
        edges: btn.edge_count(),
        seq_ms,
        par_ms,
        speedup4,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_skeptic.json".to_owned());

    // ---- incremental vs full ----
    let edit_configs: &[(usize, usize, usize)] = if quick {
        // (users, stream edits, full-baseline samples)
        &[(1_000, 128, 8), (10_000, 128, 4)]
    } else {
        &[(1_000, 512, 32), (10_000, 512, 16), (100_000, 512, 8)]
    };
    println!("# skeptic: incremental delta-resolution vs full Algorithm 2 re-runs\n");
    let mut table = Table::new(&[
        "users",
        "size |U|+|E|",
        "incremental us/edit",
        "constraint us/edit",
        "full re-resolve ms/edit",
        "mean dirty nodes",
        "speedup",
        "constraint speedup",
    ]);
    let mut edit_rows = Vec::new();
    for &(users, edits, full_samples) in edit_configs {
        let row = measure_edits(users, edits, full_samples, 8 + users as u64);
        table.row(vec![
            row.users.to_string(),
            row.size.to_string(),
            format!("{:.2}", row.inc_us_per_edit),
            format!("{:.2}", row.constraint_us_per_edit),
            format!("{:.3}", row.full_ms_per_edit),
            format!("{:.1}", row.mean_dirty_nodes),
            format!("{:.0}x", row.speedup),
            format!("{:.0}x", row.constraint_speedup),
        ]);
        edit_rows.push(row);
    }
    println!("{}", table.render());

    // ---- sharded vs sequential ----
    let threads: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let runs = if quick { 3 } else { 5 };
    // 10⁶ users is where the working set leaves the caches and a second
    // core starts to pay on the signed solver (10⁵ is flat across thread
    // counts); both sizes are recorded, neither is gated.
    let par_users: &[usize] = if quick {
        &[20_000]
    } else {
        &[100_000, 1_000_000]
    };
    println!("# skeptic: condensation-sharded resolver vs sequential Algorithm 2\n");
    let mut header = vec![
        "users".to_owned(),
        "nodes".to_owned(),
        "edges".to_owned(),
        "seq ms".to_owned(),
    ];
    for &t in threads {
        header.push(format!("par {t}t ms"));
    }
    header.push("speedup 4t".to_owned());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut ptable = Table::new(&header_refs);
    let mut par_rows = Vec::new();
    for &users in par_users {
        let row = measure_parallel(users, threads, runs, 8 + users as u64);
        let mut cells = vec![
            row.users.to_string(),
            row.nodes.to_string(),
            row.edges.to_string(),
            format!("{:.2}", row.seq_ms),
        ];
        for &(_, ms) in &row.par_ms {
            cells.push(format!("{ms:.2}"));
        }
        cells.push(row.speedup4.map_or("-".to_owned(), |s| format!("{s:.2}x")));
        ptable.row(cells);
        par_rows.push(row);
    }
    println!("{}", ptable.render());

    // ---- JSON ----
    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"skeptic\",\n");
    let _ = writeln!(
        json,
        "  \"edit_mix\": {{\"trust_fraction\": 0.05, \"revoke_fraction\": 0.15, \
         \"constraint_fraction\": 0.25}},"
    );
    json.push_str("  \"edits\": [\n");
    for (i, r) in edit_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"users\": {}, \"size\": {}, \"edits\": {}, \
             \"incremental_us_per_edit\": {:.3}, \"constraint_us_per_edit\": {:.3}, \
             \"full_ms_per_edit\": {:.3}, \"mean_dirty_nodes\": {:.2}, \
             \"speedup\": {:.1}, \"constraint_speedup\": {:.1}}}",
            r.users,
            r.size,
            r.edits,
            r.inc_us_per_edit,
            r.constraint_us_per_edit,
            r.full_ms_per_edit,
            r.mean_dirty_nodes,
            r.speedup,
            r.constraint_speedup,
        );
        json.push_str(if i + 1 < edit_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"parallel\": [\n");
    for (i, r) in par_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"users\": {}, \"nodes\": {}, \"edges\": {}, \"seq_ms\": {:.3}, \"par_ms\": {{",
            r.users, r.nodes, r.edges, r.seq_ms,
        );
        for (j, &(t, ms)) in r.par_ms.iter().enumerate() {
            let _ = write!(json, "\"{t}\": {ms:.3}");
            if j + 1 < r.par_ms.len() {
                json.push_str(", ");
            }
        }
        json.push('}');
        if let Some(s) = r.speedup4 {
            let _ = write!(json, ", \"speedup_4t\": {s:.3}");
        }
        json.push_str(", \"identical_to_sequential\": true}");
        json.push_str(if i + 1 < par_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_skeptic.json");
    println!("wrote {out_path}");

    // Acceptance: incremental constraint edits must beat full Algorithm-2
    // re-runs by >= 2x per edit on the largest network (the margin is
    // thousands-fold; 2x keeps the gate robust on noisy shared runners).
    if let Some(big) = edit_rows.iter().rfind(|r| r.users >= 100_000) {
        assert!(
            big.constraint_speedup >= 2.0,
            "acceptance: incremental constraint edits must be >= 2x full \
             re-resolution at 10^5 users (got {:.1}x)",
            big.constraint_speedup
        );
    }
}
