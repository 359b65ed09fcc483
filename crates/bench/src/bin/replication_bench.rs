//! Measures segmented-WAL retention and log-shipping replication, and
//! writes the machine-readable `BENCH_replication.json` consumed by the
//! cross-PR perf tracker.
//!
//! ```text
//! cargo run --release -p trustmap-bench --bin replication_bench [--quick] [out.json]
//! ```
//!
//! The scenario: a power-law community is built through a durable
//! [`Session`] with a tiny rotation threshold (so the log chains many
//! sealed segments), churned with belief flips, and snapshotted at three
//! interior points. Then two followers catch up over the ship protocol —
//! one on a clean local transport, one through a fault-injecting
//! transport that errors, bit-flips, and truncates chunks. Reported:
//!
//! * **log retention** — segments/bytes retired per snapshot, *counted*
//!   via the store counters and gated by exact arithmetic: every byte
//!   leaving `bytes_retired` is a byte leaving `wal_len()`, so the
//!   on-disk log is provably bounded by the snapshot watermark (the
//!   1-core container makes wall-clock gates unreliable; this one is
//!   pure bookkeeping);
//! * **catch-up throughput** — a fresh follower bootstraps from the
//!   snapshot (its watermark predates the retained chain) and replays
//!   the shipped tail: edits/s, bytes shipped, chunks applied;
//! * **fault tolerance** — the chaos follower's convergence under a
//!   deterministic fault plan: transport errors surface as reconnect
//!   attempts, corrupt chunks as CRC rejects, and the follower still
//!   lands byte-identical.
//!
//! * **ack → visible** — a leader `Server` and a follower pulling over
//!   real TCP (`TcpTransport`, `FollowConfig::default()`), 30 idle
//!   write-then-pinned-read probes: the time from a write's ack to a
//!   `CERT … @<lsn>` on the replica answering, p50 and p90, and the
//!   `SHIP` requests the follower sent per commit.
//!
//! Equality gates (asserted, not just reported): retention arithmetic
//! balances at every snapshot; no sealed segment survives wholly below
//! the final watermark; both followers' segment files are byte-identical
//! to the leader's committed log; both replicas render the leader's
//! exact network; the chaos run injected faults, rejected at least one
//! corrupt chunk, and rode out at least one transport error. One loose
//! clock gate: ack → visible p50 under 50 ms. A follower that sleeps out
//! its 100 ms poll fails it (each idle probe lands just after the
//! follower went back to sleep); one whose caught-up `SHIP` is parked
//! until the next commit reads far below a millisecond.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trustmap::format::render_network;
use trustmap::serve::{Frontend, Reply, ServeConfig, Server, TcpTransport};
use trustmap::store::{
    committed_log, FaultPlan, FaultyTransport, FollowConfig, Follower, LocalTransport, Recovered,
    ShipRequest, ShipResponse, ShipTransport, SnapshotBlob, Step, Store, StoreOptions, WriteOp,
};
use trustmap::workloads::power_law;
use trustmap_core::signed::ExplicitBelief;
use trustmap_core::{Session, TrustNetwork, User, Value};

struct Config {
    users: usize,
    edits: usize,
    /// Rotation threshold — tiny, so the run seals a real chain.
    rotate: u64,
    /// Whether this row carries the acceptance assertions.
    acceptance: bool,
}

struct Row {
    users: usize,
    edits: usize,
    rotate: u64,
    snapshots: u64,
    segments_sealed: u64,
    segments_retired: u64,
    bytes_retired: u64,
    retired_per_snapshot: f64,
    wal_bytes_final: u64,
    retention_balanced: bool,
    catchup_edits: u64,
    catchup_edits_per_sec: f64,
    bytes_shipped: u64,
    chunks_applied: u64,
    bootstraps: u64,
    chaos_faults_injected: u64,
    chaos_crc_rejects: u64,
    chaos_reconnects: u64,
    byte_identical: bool,
}

/// Edits between interior snapshots (the last quarter of the stream runs
/// after the final snapshot, so catch-up ships a real tail).
const SNAPSHOTS: usize = 3;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "trustmap-replication-bench-{}-{tag}",
        std::process::id()
    ));
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

/// Deterministic belief-flip stream over the workload's believers.
fn flips(believers: &[User], values: &[Value], n: usize) -> Vec<(User, Value)> {
    (0..n)
        .map(|i| {
            let u = believers[(i * 7919) % believers.len()];
            let v = values[(i * 104_729) % values.len()];
            (u, v)
        })
        .collect()
}

/// Every follower segment must be byte-for-byte the leader's segment
/// with the same first LSN (sealed files are deterministic, so the
/// follower reproduces them exactly; live files match on the committed
/// prefix).
fn assert_byte_identical(leader_dir: &Path, follower_dir: &Path, tag: &str) {
    let llog = committed_log(leader_dir).expect("leader committed log");
    let flog = committed_log(follower_dir).expect("follower committed log");
    assert!(!flog.is_empty(), "{tag}: follower has no log");
    for (first, bytes) in &flog {
        let leader_bytes = llog
            .iter()
            .find(|(f, _)| f == first)
            .map(|(_, b)| b)
            .unwrap_or_else(|| panic!("{tag}: leader has no segment starting at lsn {first}"));
        assert!(
            bytes == leader_bytes,
            "{tag}: segment at lsn {first} diverges from the leader's"
        );
    }
}

/// Drives `follower` to `CaughtUp` over `transport`, panicking on any
/// error or rejection (the transport is clean). Returns steps taken.
fn catch_up(
    follower: &mut Follower,
    transport: &mut LocalTransport,
    leader_lsn: u64,
    tag: &str,
) -> u64 {
    let mut steps = 0u64;
    loop {
        steps += 1;
        assert!(steps < 100_000, "{tag}: catch-up did not converge");
        match follower.step(transport).expect("clean transport") {
            Step::CaughtUp { leader_lsn: lsn } => {
                assert_eq!(lsn, leader_lsn, "{tag}: caught up short of the leader");
                return steps;
            }
            Step::Rejected { reason } => panic!("{tag}: clean transport rejected: {reason}"),
            Step::Applied { .. } | Step::Bootstrapped { .. } => {}
        }
    }
}

fn measure(cfg: &Config) -> Row {
    let ldir = fresh_dir(&format!("leader-{}", cfg.users));
    let w = power_law(cfg.users, 2, 4, 0.2, 8 + cfg.users as u64);
    let values: Vec<Value> = w.net.domain().values().collect();

    let opts = StoreOptions {
        rotate_bytes: cfg.rotate,
        retain_on_snapshot: true,
    };
    let mut leader: Recovered = Store::open_with(&ldir, opts).expect("fresh leader");
    construct(&mut leader.session, &w.net);

    // Phase 1 — churn + interior snapshots. At every snapshot the
    // retention gate is exact counter arithmetic: the bytes the counters
    // say were retired are precisely the bytes that left the disk.
    let edits = flips(&w.believers, &values, cfg.edits);
    let snap_every = cfg.edits / (SNAPSHOTS + 1);
    let mut snapshots = 0u64;
    let mut last_snapshot_lsn = 0u64;
    let mut retention_balanced = true;
    for (i, (u, v)) in edits.iter().enumerate() {
        leader.session.believe(*u, *v).expect("edit");
        if (i + 1) % snap_every == 0 && snapshots < SNAPSHOTS as u64 {
            let wal_before = leader.store.wal_len();
            let before = leader.store.counters();
            last_snapshot_lsn = leader
                .store
                .snapshot_now(&leader.session)
                .expect("snapshot");
            let after = leader.store.counters();
            let wal_after = leader.store.wal_len();
            let retired = after.bytes_retired - before.bytes_retired;
            retention_balanced &= wal_before - retired == wal_after;
            snapshots += 1;
        }
    }
    let counters = leader.store.counters();
    let layout = leader.store.layout();
    let leader_lsn = leader.store.last_committed_lsn();
    // Nothing wholly below the watermark may survive retention.
    let floor_respected = layout.sealed.iter().all(|m| m.last_lsn > last_snapshot_lsn);

    // Phase 2 — clean catch-up. The fresh follower's watermark (0)
    // predates the retained chain, so its first step bootstraps from the
    // snapshot, then it replays the shipped tail.
    let fdir = fresh_dir(&format!("follower-{}", cfg.users));
    let mut follower = Follower::open(&fdir).expect("fresh follower");
    let mut clean = LocalTransport::new(leader.store.clone());
    let t = Instant::now();
    catch_up(&mut follower, &mut clean, leader_lsn, "clean");
    let catchup_secs = t.elapsed().as_secs_f64().max(1e-9);
    let fc = follower.counters();
    assert_eq!(
        render_network(follower.network()),
        render_network(leader.session.network()),
        "clean follower diverged from the leader"
    );
    assert_byte_identical(&ldir, &fdir, "clean");

    // Phase 3 — chaos catch-up: same ground to cover, but every chunk
    // may error (reconnect), bit-flip (CRC reject), or truncate
    // (structural reject) under a deterministic plan.
    let cdir = fresh_dir(&format!("chaos-{}", cfg.users));
    let mut chaos = Follower::open(&cdir).expect("chaos follower");
    let plan = FaultPlan {
        error_prob: 0.2,
        corrupt_prob: 0.2,
        truncate_prob: 0.2,
        seed: 0xB0B0 + cfg.users as u64,
    };
    let mut faulty = FaultyTransport::new(LocalTransport::new(leader.store.clone()), plan);
    let mut reconnects = 0u64;
    let mut steps = 0u64;
    loop {
        steps += 1;
        assert!(steps < 1_000_000, "chaos catch-up did not converge");
        match chaos.step(&mut faulty) {
            Ok(Step::CaughtUp { leader_lsn: lsn }) => {
                assert_eq!(lsn, leader_lsn, "chaos follower caught up short");
                break;
            }
            Ok(_) => {}
            // A transport error is what a dropped connection looks like:
            // the follower redials and resumes from its durable watermark.
            Err(_) => reconnects += 1,
        }
    }
    let cc = chaos.counters();
    assert_eq!(
        render_network(chaos.network()),
        render_network(leader.session.network()),
        "chaos follower diverged from the leader"
    );
    assert_byte_identical(&ldir, &cdir, "chaos");

    let row = Row {
        users: cfg.users,
        edits: cfg.edits,
        rotate: cfg.rotate,
        snapshots,
        segments_sealed: counters.segments_sealed,
        segments_retired: counters.segments_retired,
        bytes_retired: counters.bytes_retired,
        retired_per_snapshot: counters.segments_retired as f64 / snapshots.max(1) as f64,
        wal_bytes_final: leader.store.wal_len(),
        retention_balanced,
        catchup_edits: fc.edits_applied,
        catchup_edits_per_sec: fc.edits_applied as f64 / catchup_secs,
        bytes_shipped: fc.bytes_shipped,
        chunks_applied: fc.chunks_applied,
        bootstraps: fc.bootstraps,
        chaos_faults_injected: faulty.faults_injected,
        chaos_crc_rejects: cc.crc_rejects,
        chaos_reconnects: reconnects,
        byte_identical: true,
    };

    if cfg.acceptance {
        assert!(
            row.retention_balanced,
            "retention counters must balance wal_len exactly at every snapshot"
        );
        assert!(
            row.segments_retired > 0 && row.bytes_retired > 0,
            "the workload must actually retire log history (sealed {}, retired {})",
            row.segments_sealed,
            row.segments_retired
        );
        assert!(
            floor_respected,
            "a sealed segment survived wholly below the snapshot watermark {last_snapshot_lsn}"
        );
        assert_eq!(
            row.bootstraps, 1,
            "the fresh follower should bootstrap from the snapshot exactly once"
        );
        assert!(
            row.chaos_faults_injected > 0 && row.chaos_crc_rejects > 0 && row.chaos_reconnects > 0,
            "the chaos plan must exercise every failure path \
             (faults {}, crc rejects {}, reconnects {})",
            row.chaos_faults_injected,
            row.chaos_crc_rejects,
            row.chaos_reconnects
        );
    }

    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
    let _ = std::fs::remove_dir_all(&cdir);
    row
}

/// Write-then-pinned-read probes of the `visible` block.
const PROBES: usize = 30;

/// The acceptance bound on ack → visible p50: half the follower's
/// default poll, two orders of magnitude above a follower woken by the
/// commit.
const VISIBLE_P50_MAX_US: f64 = 50_000.0;

struct Visible {
    p50_us: f64,
    p90_us: f64,
    ships_per_commit: f64,
}

/// A transport that counts the `SHIP` requests it sends.
struct CountShips<T> {
    inner: T,
    ships: Arc<AtomicU64>,
}

impl<T: ShipTransport> ShipTransport for CountShips<T> {
    fn ship(&mut self, req: &ShipRequest) -> trustmap_core::Result<ShipResponse> {
        self.ships.fetch_add(1, Ordering::Relaxed);
        self.inner.ship(req)
    }

    fn fetch_snapshot(&mut self) -> trustmap_core::Result<SnapshotBlob> {
        self.inner.fetch_snapshot()
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Ack → visible over real TCP on an otherwise idle pair: each probe
/// writes on the leader, then reads `CERT <user> @<ack lsn>` on a replica
/// frontend over the follower's epoch slot, and times ack → answer.
fn visibility() -> Visible {
    let ldir = fresh_dir("visible-leader");
    let fdir = fresh_dir("visible-follower");
    let recovered = Store::open(&ldir).expect("fresh leader");
    let store = recovered.store.clone();
    let config = ServeConfig::default();
    let leader = Arc::new(Frontend::new(
        recovered.session,
        Some(store.clone()),
        &config,
    ));
    let server = Server::start(Arc::clone(&leader), "127.0.0.1:0", &config).expect("bind");
    let mut follower = Follower::open(&fdir).expect("fresh follower");
    let replica = Frontend::replica(follower.epoch_slot(), &config);
    let mut reader = replica.reader();
    let stop = Arc::new(AtomicBool::new(false));
    let ships = Arc::new(AtomicU64::new(0));
    let runner = {
        let (stop, ships) = (Arc::clone(&stop), Arc::clone(&ships));
        let inner = TcpTransport::new(server.addr().to_string());
        std::thread::spawn(move || {
            let mut transport = CountShips { inner, ships };
            follower.run(&mut transport, &FollowConfig::default(), &stop);
        })
    };
    let mut probe = |i: usize| {
        let user = format!("u{}", i % 8);
        let ack = leader
            .write(WriteOp::Believe {
                user: user.clone(),
                value: format!("v{}", i % 3),
            })
            .expect("durable write");
        let acked = Instant::now();
        match replica.handle(&mut reader, &format!("CERT {user} @{}", ack.lsn)) {
            Reply::Line(line) if line.starts_with("OK ") => {}
            other => panic!("pinned read @{} on the replica: {other:?}", ack.lsn),
        }
        acked.elapsed().as_secs_f64() * 1e6
    };

    // The first write brings the follower to the committed end; then
    // every probe lands on an idle pair.
    probe(0);
    let (ships_before, units_before) = (
        ships.load(Ordering::Relaxed),
        store.counters().units_committed,
    );
    let mut visible_us: Vec<f64> = (1..=PROBES)
        .map(|i| {
            std::thread::sleep(Duration::from_millis(5));
            probe(i)
        })
        .collect();
    let shipped = ships.load(Ordering::Relaxed) - ships_before;
    let commits = store.counters().units_committed - units_before;
    stop.store(true, Ordering::Release);
    runner.join().expect("follower thread");
    server.stop();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);

    visible_us.sort_by(f64::total_cmp);
    Visible {
        p50_us: percentile(&visible_us, 0.5),
        p90_us: percentile(&visible_us, 0.9),
        ships_per_commit: shipped as f64 / commits.max(1) as f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_replication.json".to_owned());

    let configs: Vec<Config> = if quick {
        vec![Config {
            users: 800,
            edits: 1200,
            rotate: 4096,
            acceptance: true,
        }]
    } else {
        vec![
            Config {
                users: 800,
                edits: 1200,
                rotate: 4096,
                acceptance: true,
            },
            Config {
                users: 5000,
                edits: 4800,
                rotate: 8192,
                acceptance: true,
            },
        ]
    };

    println!("# log shipping: segmented retention + follower catch-up (clean and chaotic)\n");
    let mut table = trustmap_bench::Table::new(&[
        "users",
        "edits",
        "rotate B",
        "sealed",
        "retired",
        "retired B",
        "wal B",
        "catchup edits/s",
        "shipped B",
        "faults",
        "crc rejects",
        "reconnects",
    ]);

    let mut rows = Vec::new();
    for cfg in &configs {
        let row = measure(cfg);
        table.row(vec![
            row.users.to_string(),
            row.edits.to_string(),
            row.rotate.to_string(),
            row.segments_sealed.to_string(),
            row.segments_retired.to_string(),
            row.bytes_retired.to_string(),
            row.wal_bytes_final.to_string(),
            format!("{:.0}", row.catchup_edits_per_sec),
            row.bytes_shipped.to_string(),
            row.chaos_faults_injected.to_string(),
            row.chaos_crc_rejects.to_string(),
            row.chaos_reconnects.to_string(),
        ]);
        rows.push(row);
    }
    println!("{}", table.render());

    let visible = visibility();
    println!(
        "ack -> visible over TCP, {PROBES} idle probes: p50 {:.0} us, p90 {:.0} us, \
         {:.2} SHIP requests per commit\n",
        visible.p50_us, visible.p90_us, visible.ships_per_commit
    );
    assert!(
        visible.p50_us < VISIBLE_P50_MAX_US,
        "ack -> visible p50 {:.0} us is not under {VISIBLE_P50_MAX_US} us: \
         is the follower sleeping out its poll?",
        visible.p50_us
    );

    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"replication\",\n  \"networks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"users\": {}, \"edits\": {}, \"rotate_bytes\": {}, \
             \"snapshots\": {}, \"segments_sealed\": {}, \"segments_retired\": {}, \
             \"bytes_retired\": {}, \"retired_per_snapshot\": {:.2}, \
             \"wal_bytes_final\": {}, \"retention_balanced\": {}, \
             \"catchup_edits\": {}, \"catchup_edits_per_sec\": {:.0}, \
             \"bytes_shipped\": {}, \"chunks_applied\": {}, \"bootstraps\": {}, \
             \"chaos_faults_injected\": {}, \"chaos_crc_rejects\": {}, \
             \"chaos_reconnects\": {}, \"byte_identical\": {}}}",
            r.users,
            r.edits,
            r.rotate,
            r.snapshots,
            r.segments_sealed,
            r.segments_retired,
            r.bytes_retired,
            r.retired_per_snapshot,
            r.wal_bytes_final,
            r.retention_balanced,
            r.catchup_edits,
            r.catchup_edits_per_sec,
            r.bytes_shipped,
            r.chunks_applied,
            r.bootstraps,
            r.chaos_faults_injected,
            r.chaos_crc_rejects,
            r.chaos_reconnects,
            r.byte_identical,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"visible\": {{\"probes\": {PROBES}, \"p50_us\": {:.0}, \"p90_us\": {:.0}, \
         \"ships_per_commit\": {:.2}}}\n}}\n",
        visible.p50_us, visible.p90_us, visible.ships_per_commit
    );
    std::fs::write(&out_path, &json).expect("write BENCH_replication.json");
    println!("wrote {out_path}");
    println!("acceptance gates passed");
}
