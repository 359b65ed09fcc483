//! Snapshot-isolation oracle for the concurrent serving stack.
//!
//! The MVCC contract (`trustmap_core::epoch` + the store's group-commit
//! `WriteHub`): every epoch a concurrent reader observes is a *fully
//! committed* resolution state, byte-identical to the state a sequential
//! executor reaches after some prefix of the submission order — never a
//! torn mid-batch hybrid — and an acknowledgement's LSN token buys
//! read-your-writes. Group commit makes the prefixes coarser (one epoch
//! per group), never incoherent.
//!
//! The oracle replays the same named write stream through a plain
//! in-memory [`Session`] one op at a time, fingerprinting the full
//! certain-belief state after every prefix. Each epoch any reader thread
//! captured while the hub was committing is then required to equal the
//! fingerprint of exactly the prefix its LSN delimits.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trustmap::store::{GroupCommitWindow, Store, WriteHub, WriteOp};
use trustmap::workloads::{serve_stream, ServeMix, ServeOp};
use trustmap::{Edit, Session, TrustNetwork, User};

/// The full certain-belief state as (user name, certain value name)
/// rows in interning order — the byte-comparable image of a resolution.
type Fingerprint = Vec<(String, Option<String>)>;

fn fingerprint_session(session: &mut Session) -> Fingerprint {
    let users: Vec<User> = session.network().users().collect();
    let mut rows = Vec::with_capacity(users.len());
    let resolution = session.snapshot().expect("mirror resolves");
    let certs: Vec<Option<trustmap::Value>> = users.iter().map(|&u| resolution.cert(u)).collect();
    for (&u, cert) in users.iter().zip(certs) {
        rows.push((
            session.network().user_name(u).to_owned(),
            cert.map(|v| session.network().domain().name(v).to_owned()),
        ));
    }
    rows
}

/// A deterministic stream of named write ops (believe/trust only, so
/// every op is valid and the mirror can apply all of them).
fn named_ops(count: usize, seed: u64) -> Vec<WriteOp> {
    let w = trustmap::workloads::power_law(60, 2, 3, 0.4, 21);
    let mix = ServeMix {
        read_fraction: 0.0,
        ..Default::default()
    };
    let stream = serve_stream(&w, count * 3, mix, seed);
    stream
        .into_iter()
        .filter_map(|op| match op {
            ServeOp::Write(Edit::Believe(u, v)) => Some(WriteOp::Believe {
                user: w.net.user_name(u).to_owned(),
                value: w.net.domain().name(v).to_owned(),
            }),
            ServeOp::Write(Edit::Trust {
                child,
                parent,
                priority,
            }) => Some(WriteOp::Trust {
                child: w.net.user_name(child).to_owned(),
                parent: w.net.user_name(parent).to_owned(),
                priority,
            }),
            _ => None,
        })
        .take(count)
        .collect()
}

/// Applies one named op to the sequential mirror (same semantics as the
/// hub's writer).
fn apply_to_mirror(session: &mut Session, op: &WriteOp) {
    match op {
        WriteOp::Believe { user, value } => {
            let u = session.user(user);
            let v = session.value(value);
            session.believe(u, v).expect("valid stream");
        }
        WriteOp::Trust {
            child,
            parent,
            priority,
        } => {
            let c = session.user(child);
            let p = session.user(parent);
            session.trust(c, p, *priority).expect("valid stream");
        }
        _ => unreachable!("stream is believe/trust only"),
    }
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "trustmap-serve-oracle-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Concurrent readers racing a grouped writer only ever observe fully
/// committed prefixes of the sequential history.
///
/// Every check holds under any interleaving of the threads. The submitter
/// sends the stream in `CHUNKS` pipelined chunks and, after each, waits
/// until every reader has caught the chunk's last commit, so each reader
/// checks at least one epoch per chunk however little CPU it gets. The
/// epoch cache is checked by counting: a reader refreshes only when the
/// slot's epoch moved, and each refresh lands on a newer epoch, so its
/// slow loads are at most one (its creation) plus the epochs published
/// after it was made.
#[test]
fn concurrent_epochs_are_sequential_prefixes() {
    const READERS: usize = 3;
    const CHUNKS: usize = 6;
    let ops = named_ops(240, 7);
    let dir = fresh_dir("prefixes");
    let recovered = Store::open(&dir).expect("fresh store");
    let hub = Arc::new(WriteHub::new(
        recovered.session,
        GroupCommitWindow {
            max_edits: 8,
            max_wait: Duration::from_millis(2),
        },
    ));
    let slot = hub.epochs();
    let done = Arc::new(AtomicBool::new(false));
    // The LSN of the newest epoch each reader has recorded.
    let caught: Arc<Vec<AtomicU64>> = Arc::new((0..READERS).map(|_| AtomicU64::new(0)).collect());

    // Reader threads spin on the slot while the writer commits, recording
    // every distinct epoch they catch — without ever taking the writer's
    // lock (the steady-state load is one atomic compare).
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let slot = Arc::clone(&slot);
            let done = Arc::clone(&done);
            let caught = Arc::clone(&caught);
            std::thread::spawn(move || {
                let created_after = slot.epoch();
                let mut reader = slot.reader();
                let mut seen: Vec<(u64, u64, Fingerprint)> = Vec::new();
                let mut last_epoch = u64::MAX;
                while !done.load(Ordering::Acquire) {
                    let view = reader.current().clone();
                    if view.epoch() != last_epoch {
                        last_epoch = view.epoch();
                        let mut rows = Vec::with_capacity(view.user_count());
                        for i in 0..view.user_count() as u32 {
                            let u = User(i);
                            rows.push((
                                view.names().user_name(u).expect("interned").to_owned(),
                                view.cert(u)
                                    .and_then(|v| view.names().value_name(v))
                                    .map(str::to_owned),
                            ));
                        }
                        seen.push((view.epoch(), view.lsn(), rows));
                        caught[r].store(view.lsn(), Ordering::Release);
                    }
                    std::thread::yield_now();
                }
                (seen, created_after, reader.load_stats())
            })
        })
        .collect();

    // One pipelined submitter: submission order == queue order == the
    // sequential history the oracle mirrors.
    let mut acks = Vec::with_capacity(ops.len());
    for chunk in ops.chunks(ops.len().div_ceil(CHUNKS)) {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|op| hub.submit_async(op.clone()).expect("accepting"))
            .collect();
        acks.extend(
            tickets
                .into_iter()
                .map(|t| hub.wait(t).expect("valid stream commits")),
        );
        // The chunk's last ack names a published epoch; wait for every
        // reader to record it. A reader that ended early panicked: its
        // join below reports why. The deadline only turns a hang into a
        // failure.
        let lsn = acks.last().expect("non-empty chunk").lsn;
        let deadline = Instant::now() + Duration::from_secs(300);
        while caught.iter().any(|c| c.load(Ordering::Acquire) < lsn)
            && !readers.iter().any(|r| r.is_finished())
        {
            assert!(Instant::now() < deadline, "a reader never caught lsn {lsn}");
            std::thread::yield_now();
        }
    }
    done.store(true, Ordering::Release);

    // Group commit actually grouped (pipelining keeps the queue full).
    assert!(
        acks.iter().any(|a| a.group_size > 1),
        "no grouping happened"
    );
    // LSNs are non-decreasing in submission order: groups are prefixes.
    let lsns: Vec<u64> = acks.iter().map(|a| a.lsn).collect();
    assert!(lsns.windows(2).all(|w| w[0] <= w[1]));

    // Sequential mirror: fingerprint after every prefix of the history.
    let mut mirror = Session::new(TrustNetwork::new());
    let mut prefixes: Vec<Fingerprint> = Vec::with_capacity(ops.len() + 1);
    prefixes.push(fingerprint_session(&mut mirror));
    for op in &ops {
        apply_to_mirror(&mut mirror, op);
        prefixes.push(fingerprint_session(&mut mirror));
    }

    let mut epochs_checked = 0usize;
    for reader in readers {
        let (seen, created_after, (_fast_loads, slow_loads)) =
            reader.join().expect("reader thread");
        // Epochs and LSNs advance monotonically per reader.
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        // The epoch cache works: a load touches the slot's lock only when
        // the epoch moved, once per epoch at most.
        let published_since = slot.epoch() - created_after;
        assert!(
            slow_loads <= 1 + published_since,
            "slow {slow_loads} loads for {published_since} epochs"
        );
        for (epoch, lsn, observed) in seen {
            // The prefix this epoch's LSN delimits: every op acked at or
            // below it (and nothing after — groups are atomic).
            let k = lsns.partition_point(|&l| l <= lsn);
            assert_eq!(
                observed, prefixes[k],
                "epoch {epoch} (lsn {lsn}) is not the state after {k} ops"
            );
            epochs_checked += 1;
        }
    }
    assert!(
        epochs_checked >= READERS * CHUNKS,
        "readers saw only {epochs_checked} epochs; oracle too weak"
    );

    drop(hub);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The LSN token in a write ack is a read-your-writes guarantee: any
/// reader that pins to it sees the write, no matter which thread reads.
#[test]
fn lsn_tokens_give_read_your_writes() {
    let dir = fresh_dir("ryw");
    let recovered = Store::open(&dir).expect("fresh store");
    let hub = Arc::new(WriteHub::new(
        recovered.session,
        GroupCommitWindow::default(),
    ));
    let slot = hub.epochs();

    let writers: Vec<_> = (0..4)
        .map(|i| {
            let hub = Arc::clone(&hub);
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                for round in 0..10 {
                    let ack = hub
                        .submit(WriteOp::Believe {
                            user: format!("writer-{i}"),
                            value: format!("v{i}-{round}"),
                        })
                        .expect("durable");
                    // A brand-new reader pinned to the ack must see the
                    // write (it may also see later ones for *other* keys,
                    // but writer-i is only written by this thread).
                    let mut reader = slot.reader();
                    let view = reader
                        .wait_for_lsn(ack.lsn, Duration::from_secs(10))
                        .expect("epoch arrives");
                    let u = view
                        .names()
                        .find_user(&format!("writer-{i}"))
                        .expect("own write interned");
                    let cert = view.cert(u).and_then(|v| view.names().value_name(v));
                    let observed: u32 = cert
                        .and_then(|name| name.rsplit('-').next())
                        .and_then(|n| n.parse().ok())
                        .expect("own value visible");
                    assert!(
                        observed >= round,
                        "pinned read went back in time: {observed} < {round}"
                    );
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
