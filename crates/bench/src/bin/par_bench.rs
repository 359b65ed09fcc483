//! Measures the condensation-sharded parallel resolver against the
//! sequential Algorithm 1 and writes the machine-readable `BENCH_par.json`
//! consumed by the cross-PR perf tracker.
//!
//! ```text
//! cargo run --release -p trustmap-bench --bin par_bench [--quick] [out.json]
//! ```
//!
//! For each power-law trust network the driver binarizes once, then times
//! `resolve` (Algorithm 1 as printed) and `resolve_parallel` at 1/2/4/8
//! threads (1/2 in `--quick` mode), asserting **byte-identical** possible
//! sets on every node at every thread count. The headline acceptance gate:
//! on the dense 10⁵-user network the one-pass resolver **on one thread**
//! must be ≥ 2.5× the printed algorithm. That margin is algorithmic — one
//! trim-first peel instead of one Tarjan pass over the open subgraph per
//! Step-2 round (the dominant win on cycle-rich networks, where the
//! printed resolver runs 10+ rounds) — and is what the gate is about; the
//! per-thread columns are recorded beside it and have stayed flat on every
//! network of this file (the census in CHANGES.md, PR 16, has the numbers).

use std::fmt::Write as _;
use std::time::Instant;
use trustmap::workloads::power_law;
use trustmap_bench::Table;
use trustmap_core::parallel::resolve_parallel;
use trustmap_core::{binarize, resolve};

struct Config {
    users: usize,
    m: usize,
    num_values: usize,
    believer_fraction: f64,
    /// Whether this row carries the acceptance assertion.
    acceptance: bool,
}

struct Row {
    cfg: Config,
    nodes: usize,
    edges: usize,
    rounds: usize,
    levels: usize,
    seq_ms: f64,
    par_ms: Vec<(usize, f64)>,
    /// One-pass on one thread over the printed algorithm (the gate).
    speedup1: f64,
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

fn measure(cfg: Config, threads: &[usize], runs: usize) -> Row {
    let w = power_law(
        cfg.users,
        cfg.m,
        cfg.num_values,
        cfg.believer_fraction,
        8 + cfg.users as u64,
    );
    let btn = binarize(&w.net);

    let seq = resolve(&btn).expect("positive network");
    let seq_ms = time_ms(runs, || {
        std::hint::black_box(resolve(&btn).expect("positive network"));
    });

    let mut par_ms = Vec::new();
    let mut levels = 0;
    for &t in threads {
        let par = resolve_parallel(&btn, t).expect("positive network");
        levels = par.rounds();
        // Byte-identical resolutions at every thread count.
        for x in btn.nodes() {
            assert_eq!(
                seq.poss(x),
                par.poss(x),
                "resolution diverged at node {x} with {t} threads"
            );
            assert_eq!(seq.is_reachable(x), par.is_reachable(x), "reach {x}");
        }
        let ms = time_ms(runs, || {
            std::hint::black_box(resolve_parallel(&btn, t).expect("positive network"));
        });
        par_ms.push((t, ms));
    }
    let at = |threads: usize| {
        par_ms
            .iter()
            .find(|&&(t, _)| t == threads)
            .map(|&(_, ms)| seq_ms / ms)
    };
    let speedup1 = at(1).expect("every run times one thread");
    let speedup4 = at(4);

    Row {
        cfg,
        nodes: btn.node_count(),
        edges: btn.edge_count(),
        rounds: seq.rounds(),
        levels,
        seq_ms,
        par_ms,
        speedup1,
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
        .unwrap_or_else(|| "BENCH_par.json".to_owned());

    let threads: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let runs = if quick { 3 } else { 5 };
    let configs: Vec<Config> = if quick {
        vec![
            Config {
                users: 20_000,
                m: 3,
                num_values: 4,
                believer_fraction: 0.05,
                acceptance: false,
            },
            Config {
                users: 20_000,
                m: 4,
                num_values: 4,
                believer_fraction: 0.05,
                acceptance: false,
            },
        ]
    } else {
        vec![
            // The edits-bench standard network: believer-rich, almost no
            // Step-2 rounds — the sequential resolver's best case.
            Config {
                users: 100_000,
                m: 2,
                num_values: 4,
                believer_fraction: 0.2,
                acceptance: false,
            },
            // Sparse believers: deeper propagation, more Step-2 activity.
            Config {
                users: 100_000,
                m: 3,
                num_values: 4,
                believer_fraction: 0.05,
                acceptance: false,
            },
            // Dense web-of-trust: serially unlocking SCC rounds make the
            // sequential resolver re-condense the open subgraph 15+ times;
            // the acceptance row.
            Config {
                users: 100_000,
                m: 4,
                num_values: 4,
                believer_fraction: 0.05,
                acceptance: true,
            },
            // Scale check: the 10⁶-user network.
            Config {
                users: 1_000_000,
                m: 3,
                num_values: 4,
                believer_fraction: 0.05,
                acceptance: false,
            },
        ]
    };

    println!("# par: condensation-sharded resolver vs sequential Algorithm 1\n");
    let mut header = vec![
        "users".to_owned(),
        "m".to_owned(),
        "believers".to_owned(),
        "size |U|+|E|".to_owned(),
        "seq rounds".to_owned(),
        "levels".to_owned(),
        "seq ms".to_owned(),
    ];
    for &t in threads {
        header.push(format!("par {t}t ms"));
    }
    header.push("speedup 1t".to_owned());
    header.push("speedup 4t".to_owned());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    let mut rows = Vec::new();
    for cfg in configs {
        let row = measure(cfg, threads, runs);
        let mut cells = vec![
            row.cfg.users.to_string(),
            row.cfg.m.to_string(),
            format!("{:.0}%", row.cfg.believer_fraction * 100.0),
            (row.nodes + row.edges).to_string(),
            row.rounds.to_string(),
            row.levels.to_string(),
            format!("{:.2}", row.seq_ms),
        ];
        for &(_, ms) in &row.par_ms {
            cells.push(format!("{ms:.2}"));
        }
        cells.push(format!("{:.2}x", row.speedup1));
        cells.push(row.speedup4.map_or("-".to_owned(), |s| format!("{s:.2}x")));
        table.row(cells);
        rows.push(row);
    }
    println!("{}", table.render());

    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"par\",\n  \"networks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"users\": {}, \"m\": {}, \"num_values\": {}, \"believer_fraction\": {}, \
             \"nodes\": {}, \"edges\": {}, \"seq_rounds\": {}, \"levels\": {}, \
             \"seq_ms\": {:.3}, \"par_ms\": {{",
            r.cfg.users,
            r.cfg.m,
            r.cfg.num_values,
            r.cfg.believer_fraction,
            r.nodes,
            r.edges,
            r.rounds,
            r.levels,
            r.seq_ms,
        );
        for (j, &(t, ms)) in r.par_ms.iter().enumerate() {
            let _ = write!(json, "\"{t}\": {ms:.3}");
            if j + 1 < r.par_ms.len() {
                json.push_str(", ");
            }
        }
        json.push('}');
        let _ = write!(json, ", \"speedup_1t\": {:.3}", r.speedup1);
        if let Some(s) = r.speedup4 {
            let _ = write!(json, ", \"speedup_4t\": {s:.3}");
        }
        json.push_str(", \"identical_to_sequential\": true}");
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_par.json");
    println!("wrote {out_path}");

    for r in rows.iter().filter(|r| r.cfg.acceptance) {
        assert!(
            r.speedup1 >= 2.5,
            "acceptance: the one-pass resolver on one thread must be >= 2.5x \
             Algorithm 1 as printed on the dense 10^5-user power-law network \
             (got {:.2}x)",
            r.speedup1
        );
    }
}
