//! Measures concurrent serving — many epoch readers racing one
//! group-commit writer — and writes the machine-readable
//! `BENCH_serve.json` consumed by the cross-PR perf tracker.
//!
//! ```text
//! cargo run --release -p trustmap-bench --bin serve_bench [--quick] [out.json]
//! ```
//!
//! The scenario: a power-law community is mirrored into a durable store,
//! then served under the mixed read/write workload of
//! [`trustmap::workloads::serve_stream`]: reader threads spin on the
//! epoch slot resolving Zipf-skewed point queries while a single
//! pipelined submitter drives the write stream through the group-commit
//! hub at a 16-edit window, with a per-edit (window 1) pass as the
//! baseline. Reported:
//!
//! * **fsync amortization** — acked edits per fsync, *counted* via the
//!   store's durability counters (`fsync_count`, `units_committed`), not
//!   timed: the 1-core container makes wall-clock gates unreliable, but
//!   the whole point of group commit is algorithmic (N acks per fsync),
//!   so the gate is exact arithmetic. Submission is pipelined in
//!   window-sized waves against a generous flush deadline, making the
//!   group count deterministic;
//! * **reader throughput** — epoch reads served while the writer
//!   churns, plus the readers' fast/slow load split ([`trustmap_core::epoch::EpochReader`]
//!   resolves almost every read with one atomic compare; only epoch
//!   boundaries touch the slot lock);
//! * **write latency** — wall-clock µs per acked edit under grouping and
//!   per-edit (reported, not gated);
//! * **publication cost** — snapshot rows copied per published epoch
//!   and the length of the table spine a view clones, *counted* by the
//!   writer session ([`trustmap::DeltaStats`], read through
//!   `HubStats::session`): the tables are chunked copy-on-write, so a
//!   publish costs the chunks its dirty users live in, not the table.
//!
//! Acceptance (asserted): ≥ 8× fewer fsyncs per acked edit at the
//! 16-edit window than per-edit durability; readers resolve mostly on
//! the lock-free fast path; reads never error while the writer commits;
//! and publication is O(region) — (a) rows copied per single-edit publish
//! grow by at most 1.1× across the 10× user jump (full runs: it needs
//! both sizes), (b) no group copies more than 256 rows per dirty user,
//! (c) the spine is exactly `ceil(users / 256)`.
//!
//! Gate (a) reads the per-edit pass, where a publish is one edit: a
//! 16-edit group dirties the union of sixteen regions, and how that
//! union scatters over chunks depends on the table's size (the grouped
//! figures are recorded beside it). Both are means over a heavy tail —
//! one edit at a hub of the power law dirties thousands of users — so
//! they repeat exactly for the fixed seeds and move with them.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trustmap::store::{GroupCommitWindow, Store, WriteHub, WriteOp};
use trustmap::workloads::{power_law, serve_stream, ServeMix, ServeOp};
use trustmap::{Edit, Session, TrustNetwork, User};
use trustmap_core::signed::ExplicitBelief;

struct Config {
    users: usize,
    writes: usize,
}

struct Row {
    users: usize,
    writes: usize,
    window: usize,
    fsyncs_grouped: u64,
    fsyncs_per_edit: u64,
    edits_per_fsync: f64,
    grouped_us_per_edit: f64,
    per_edit_us_per_edit: f64,
    reader_threads: usize,
    reads_total: u64,
    reads_per_sec: f64,
    fast_loads: u64,
    slow_loads: u64,
    epochs_published: u64,
    /// The per-edit pass: one edit per publish.
    per_edit_publishes: Publishes,
    grouped_publishes: Publishes,
    spine_len: usize,
}

/// Rows per chunk of the copy-on-write snapshot tables.
const CHUNK_ROWS: u64 = trustmap_core::cow::CHUNK_ROWS as u64;

/// What the publishes of one write pass copied, from the writer
/// session's counters.
#[derive(Default)]
struct Publishes {
    count: u64,
    rows_copied: u64,
    dirty_users: u64,
}

impl Publishes {
    /// Accounts for the group `hub` just flushed — `rows_so_far` is the
    /// session's running total before it — and gates (b): what the
    /// group's snapshot patch copied is bounded by the chunks of the
    /// users it dirtied.
    fn observe(&mut self, hub: &WriteHub, rows_so_far: &mut u64) {
        let session = hub.stats().session;
        let copied = session.publish_rows_copied - *rows_so_far;
        *rows_so_far = session.publish_rows_copied;
        assert!(
            copied <= CHUNK_ROWS * session.last_dirty_users as u64,
            "a group with {} dirty users copied {copied} snapshot rows",
            session.last_dirty_users
        );
        self.count += 1;
        self.rows_copied += copied;
        self.dirty_users += session.last_dirty_users as u64;
    }

    fn rows_per_publish(&self) -> f64 {
        self.rows_copied as f64 / self.count as f64
    }

    fn dirty_users_per_publish(&self) -> f64 {
        self.dirty_users as f64 / self.count as f64
    }
}

const WINDOW: usize = 16;
const READERS: usize = 4;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("trustmap-serve-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Mirrors `net` into the durable session as one construction batch.
fn construct(session: &mut Session, net: &TrustNetwork) {
    session.begin_batch().expect("batch");
    for u in net.users() {
        session.user(net.user_name(u));
    }
    for v in net.domain().values() {
        session.value(net.domain().name(v));
    }
    for m in net.mappings() {
        session.trust(m.child, m.parent, m.priority).expect("valid");
    }
    for u in net.users() {
        if let ExplicitBelief::Pos(v) = net.belief(u) {
            session.believe(u, *v).expect("valid");
        }
    }
    session.commit().expect("construction commits");
}

/// The write half of the mixed stream as name-addressed hub ops (ids in
/// the serving session match `net`'s construction order, but names are
/// what the wire protocol speaks).
fn write_ops(w: &trustmap::workloads::Workload, count: usize, seed: u64) -> Vec<WriteOp> {
    let mix = ServeMix {
        read_fraction: 0.0,
        ..Default::default()
    };
    serve_stream(w, count, mix, seed)
        .into_iter()
        .map(|op| match op {
            ServeOp::Write(Edit::Believe(u, v)) => WriteOp::Believe {
                user: w.net.user_name(u).to_owned(),
                value: w.net.domain().name(v).to_owned(),
            },
            ServeOp::Write(Edit::Revoke(u)) => WriteOp::Revoke {
                user: w.net.user_name(u).to_owned(),
            },
            ServeOp::Write(Edit::Trust {
                child,
                parent,
                priority,
            }) => WriteOp::Trust {
                child: w.net.user_name(child).to_owned(),
                parent: w.net.user_name(parent).to_owned(),
                priority,
            },
            ServeOp::Cert(_) | ServeOp::Poss(_) => unreachable!("read_fraction is 0"),
        })
        .collect()
}

fn measure(cfg: &Config) -> Row {
    let dir = fresh_dir(&cfg.users.to_string());
    let w = power_law(cfg.users, 2, 4, 0.2, 8 + cfg.users as u64);

    let mut recovered = Store::open(&dir).expect("fresh store");
    construct(&mut recovered.session, &w.net);
    let store = recovered.store.clone();

    // Read targets: the Zipf-skewed key order of the mixed stream.
    let read_keys: Vec<User> = serve_stream(
        &w,
        4096,
        ServeMix {
            read_fraction: 1.0,
            ..Default::default()
        },
        17,
    )
    .into_iter()
    .map(|op| match op {
        ServeOp::Cert(u) | ServeOp::Poss(u) => u,
        ServeOp::Write(_) => unreachable!("read_fraction is 1"),
    })
    .collect();

    // A generous flush deadline makes the group count deterministic: the
    // writer flushes exactly when a wave's last edit arrives, so the
    // fsync arithmetic below is exact, not scheduling-dependent.
    let hub = Arc::new(WriteHub::new(
        recovered.session,
        GroupCommitWindow {
            max_edits: WINDOW,
            max_wait: Duration::from_secs(5),
        },
    ));
    let slot = hub.epochs();
    let epoch_before = slot.epoch();

    // Readers spin on the epoch slot for the whole write phase.
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let slot = Arc::clone(&slot);
            let done = Arc::clone(&done);
            let keys = read_keys.clone();
            std::thread::spawn(move || {
                let mut reader = slot.reader();
                let mut reads = 0u64;
                let mut i = r; // decorrelate the threads' key phases
                while !done.load(Ordering::Acquire) {
                    let u = keys[i % keys.len()];
                    let view = reader.current();
                    if u.index() < view.user_count() {
                        if i % 4 == 0 {
                            std::hint::black_box(view.poss(u));
                        } else {
                            std::hint::black_box(view.cert(u));
                        }
                    }
                    reads += 1;
                    i += 7;
                    // Donate the timeslice: on few-core machines (the CI
                    // container has one) hot-spinning readers would starve
                    // the writer's condvar handoffs into tens of seconds
                    // per group. Real serving readers block on sockets.
                    std::thread::yield_now();
                }
                (reads, reader.load_stats())
            })
        })
        .collect();

    // Grouped write phase: pipeline the mixed stream's writes in
    // window-sized waves (a serving frontend keeps the queue full the
    // same way; waves just make the arithmetic exact).
    let ops = write_ops(&w, cfg.writes, 29);
    let before = store.counters();
    let session_before = hub.stats().session;
    let mut rows_copied = session_before.publish_rows_copied;
    let mut grouped_publishes = Publishes::default();
    let mut per_edit_publishes = Publishes::default();
    let t = Instant::now();
    for wave in ops.chunks(WINDOW) {
        let tickets: Vec<_> = wave
            .iter()
            .map(|op| hub.submit_async(op.clone()).expect("accepting"))
            .collect();
        for ticket in tickets {
            hub.wait(ticket).expect("stream ops are valid");
        }
        grouped_publishes.observe(&hub, &mut rows_copied);
    }
    let grouped_elapsed = t.elapsed();
    let after = store.counters();
    let fsyncs_grouped = after.fsync_count - before.fsync_count;
    let grouped_waves = ops.len().div_ceil(WINDOW) as u64;
    assert_eq!(
        fsyncs_grouped, grouped_waves,
        "each wave must commit as exactly one durable unit"
    );

    // Per-edit baseline: same op mix through a window-1 hub over the
    // same session (and the same epoch slot, so the readers keep
    // following it) — the pre-group-commit behavior, one fsync per edit.
    let session = hub.shutdown().expect("grouped hub stops");
    drop(hub);
    let baseline_hub = WriteHub::new(session, GroupCommitWindow::per_edit());
    let baseline = write_ops(&w, (cfg.writes / 4).max(WINDOW), 31);
    let before = store.counters();
    let t = Instant::now();
    for op in &baseline {
        baseline_hub
            .submit(op.clone())
            .expect("stream ops are valid");
        per_edit_publishes.observe(&baseline_hub, &mut rows_copied);
    }
    let per_edit_elapsed = t.elapsed();
    let after = store.counters();
    let fsyncs_per_edit = after.fsync_count - before.fsync_count;
    assert_eq!(
        fsyncs_per_edit,
        baseline.len() as u64,
        "per-edit windows must pay one fsync each"
    );

    done.store(true, Ordering::Release);
    let mut reads_total = 0u64;
    let (mut fast_loads, mut slow_loads) = (0u64, 0u64);
    for reader in readers {
        let (reads, (fast, slow)) = reader.join().expect("reader thread");
        reads_total += reads;
        fast_loads += fast;
        slow_loads += slow;
    }
    let epochs_published = slot.epoch() - epoch_before;
    let session_after = baseline_hub.stats().session;
    let epochs_rendered = session_after.epochs_rendered - session_before.epochs_rendered;
    assert_eq!(epochs_rendered, epochs_published, "one view per group");
    let spine_len = slot
        .load()
        .basic_resolution()
        .expect("the stream is positive")
        .spine_len();
    let write_phase_secs = (grouped_elapsed + per_edit_elapsed).as_secs_f64();

    drop(baseline_hub);
    let _ = std::fs::remove_dir_all(&dir);
    Row {
        users: cfg.users,
        writes: cfg.writes,
        window: WINDOW,
        fsyncs_grouped,
        fsyncs_per_edit,
        edits_per_fsync: cfg.writes as f64 / fsyncs_grouped as f64,
        grouped_us_per_edit: grouped_elapsed.as_secs_f64() * 1e6 / cfg.writes as f64,
        per_edit_us_per_edit: per_edit_elapsed.as_secs_f64() * 1e6 / baseline.len() as f64,
        reader_threads: READERS,
        reads_total,
        reads_per_sec: reads_total as f64 / write_phase_secs,
        fast_loads,
        slow_loads,
        epochs_published,
        per_edit_publishes,
        grouped_publishes,
        spine_len,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_owned());

    let configs: Vec<Config> = if quick {
        vec![Config {
            users: 10_000,
            writes: 320,
        }]
    } else {
        vec![
            Config {
                users: 10_000,
                writes: 640,
            },
            Config {
                users: 100_000,
                writes: 640,
            },
        ]
    };

    println!("# serving: {READERS} epoch readers vs one group-commit writer (window {WINDOW})\n");
    let mut table = trustmap_bench::Table::new(&[
        "users",
        "writes",
        "fsyncs",
        "edits/fsync",
        "grouped µs/edit",
        "per-edit µs/edit",
        "reads",
        "reads/s",
        "fast loads",
        "slow loads",
        "rows copied/edit publish",
        "spine",
    ]);

    let mut rows = Vec::new();
    for cfg in &configs {
        let row = measure(cfg);
        table.row(vec![
            row.users.to_string(),
            row.writes.to_string(),
            row.fsyncs_grouped.to_string(),
            format!("{:.1}", row.edits_per_fsync),
            format!("{:.1}", row.grouped_us_per_edit),
            format!("{:.1}", row.per_edit_us_per_edit),
            row.reads_total.to_string(),
            format!("{:.0}", row.reads_per_sec),
            row.fast_loads.to_string(),
            row.slow_loads.to_string(),
            format!("{:.1}", row.per_edit_publishes.rows_per_publish()),
            row.spine_len.to_string(),
        ]);
        rows.push(row);
    }
    println!("{}", table.render());

    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"serve\",\n  \"window\": ");
    let _ = write!(json, "{WINDOW}");
    json.push_str(",\n  \"networks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"users\": {}, \"writes\": {}, \"window\": {}, \
             \"fsyncs_grouped\": {}, \"fsyncs_per_edit_baseline\": {}, \
             \"edits_per_fsync\": {:.2}, \"grouped_us_per_edit\": {:.1}, \
             \"per_edit_us_per_edit\": {:.1}, \"reader_threads\": {}, \
             \"reads_total\": {}, \"reads_per_sec\": {:.0}, \
             \"reader_fast_loads\": {}, \"reader_slow_loads\": {}, \
             \"epochs_published\": {}, \"rows_copied_per_publish\": {:.1}, \
             \"dirty_users_per_publish\": {:.1}, \
             \"grouped_rows_copied_per_publish\": {:.1}, \
             \"grouped_dirty_users_per_publish\": {:.1}, \"spine_len\": {}}}",
            r.users,
            r.writes,
            r.window,
            r.fsyncs_grouped,
            r.fsyncs_per_edit,
            r.edits_per_fsync,
            r.grouped_us_per_edit,
            r.per_edit_us_per_edit,
            r.reader_threads,
            r.reads_total,
            r.reads_per_sec,
            r.fast_loads,
            r.slow_loads,
            r.epochs_published,
            r.per_edit_publishes.rows_per_publish(),
            r.per_edit_publishes.dirty_users_per_publish(),
            r.grouped_publishes.rows_per_publish(),
            r.grouped_publishes.dirty_users_per_publish(),
            r.spine_len,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("wrote {out_path}");

    for r in &rows {
        // The headline gate, pure counter arithmetic: at a 16-edit window
        // the mixed write stream must cost ≥8× fewer fsyncs per acked
        // edit than per-edit durability (it lands at exactly 16×: the
        // waves above assert the exact unit counts already).
        assert!(
            r.edits_per_fsync >= 8.0,
            "group commit must amortize ≥8 edits per fsync at window {WINDOW}, got {:.2} at {} users",
            r.edits_per_fsync,
            r.users
        );
        // Readers ride the epoch cache: the lock-free fast path must
        // dominate slot-lock reloads (reloads happen only on epoch
        // boundaries, and there were only ~writes/16 + writes/4 of those).
        assert!(
            r.fast_loads > r.slow_loads,
            "epoch readers should mostly hit the lock-free fast path \
             (fast {} vs slow {})",
            r.fast_loads,
            r.slow_loads
        );
        assert!(r.reads_total > 0, "readers made no progress");
        // Gate (c): a view clones one pointer per 256 users, no more.
        assert_eq!(
            r.spine_len,
            r.users.div_ceil(CHUNK_ROWS as usize),
            "spine length at {} users",
            r.users
        );
    }
    // Gate (a): what a publish copies follows the edit, not the network.
    for pair in rows.windows(2) {
        let (small, large) = (&pair[0], &pair[1]);
        assert!(
            large.per_edit_publishes.rows_per_publish()
                <= 1.1 * small.per_edit_publishes.rows_per_publish(),
            "rows copied per publish must stay flat across the size jump: \
             {:.1} at {} users vs {:.1} at {} users",
            large.per_edit_publishes.rows_per_publish(),
            large.users,
            small.per_edit_publishes.rows_per_publish(),
            small.users
        );
    }
    println!("acceptance gates passed");
}
