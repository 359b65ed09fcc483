//! Group commit: many concurrent submitters, one writer, one fsync per
//! edit window.
//!
//! A durable edit pays one WAL append + `fsync` (~90 µs on the reference
//! container, `BENCH_recovery.json`) — the dominant cost of the write
//! path once resolution itself is region-sized. Serving thousands of
//! writers therefore demands *amortization*: edits that arrive close
//! together should share one durable unit and one fsync, exactly the
//! multi-edit commit-frame contract the recovery layer already supports
//! (a unit is atomic: it replays whole or rolls back whole).
//!
//! [`WriteHub`] implements the classic time/count-window design:
//!
//! * submitters enqueue [`WriteOp`]s from any thread
//!   ([`WriteHub::submit`] blocks for the acknowledgement;
//!   [`WriteHub::submit_async`] returns a [`Ticket`] to await later, so a
//!   single connection can pipeline writes);
//! * one dedicated **writer thread** owns the [`Session`] outright — the
//!   single-writer serialization point, no lock sharing with readers —
//!   and drains the queue in groups: it waits until the window fills
//!   ([`GroupCommitWindow::max_edits`]) or the oldest waiting edit has
//!   waited [`GroupCommitWindow::max_wait`], whichever comes first;
//! * each group applies as one session batch → one WAL unit → **one
//!   fsync**, then publishes one epoch snapshot
//!   ([`trustmap_core::epoch`]), and every member is acknowledged with
//!   the shared commit LSN and the epoch that first reflects it;
//! * readers never enter this module at all — they follow the
//!   [`EpochSlot`] ([`WriteHub::epochs`]) and are oblivious to write
//!   traffic.
//!
//! Acknowledged writes are durable: the ack is sent only after the
//! group's commit frame is fsynced. A validation failure (unknown user,
//! self-trust) fails only that op's ack; the rest of the group commits.
//! A *fenced* store (a newer leadership term has been observed, see
//! [`trustmap_core::Error::Fenced`]) fails the group's commit itself, so
//! every op in the window — not just one — is acknowledged with the
//! fencing error through the WAL-failure path below: a deposed leader
//! never half-acks a group.
//!
//! The fsync arithmetic is counter-checked, not clock-checked: the
//! store's [`crate::StoreCounters`] report `fsync_count` /
//! `records_appended`, and the `serve_bench` acceptance gate divides
//! them (≥8× fewer fsyncs per acknowledged edit at a ≥16-edit window).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trustmap_core::epoch::EpochSlot;
use trustmap_core::signed::NegSet;
use trustmap_core::{DeltaStats, Error, Result, Session, SignedEdit};

/// The group-commit window: flush when `max_edits` ops are pending or the
/// oldest pending op has waited `max_wait`, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitWindow {
    /// Flush as soon as this many ops are pending (≥ 1).
    pub max_edits: usize,
    /// Flush when the oldest pending op has waited this long, even if the
    /// window is not full — the write-latency bound.
    pub max_wait: Duration,
}

impl Default for GroupCommitWindow {
    /// 16 edits / 500 µs: one fsync buys up to 16 acknowledgements while
    /// keeping worst-case write latency well under a millisecond plus the
    /// fsync itself.
    fn default() -> Self {
        GroupCommitWindow {
            max_edits: 16,
            max_wait: Duration::from_micros(500),
        }
    }
}

impl GroupCommitWindow {
    /// A window of `max_edits` with the default latency bound.
    pub fn of(max_edits: usize) -> Self {
        GroupCommitWindow {
            max_edits: max_edits.max(1),
            ..Default::default()
        }
    }

    /// The degenerate window: every edit commits (and fsyncs) alone — the
    /// pre-group-commit behavior, kept as the bench baseline.
    pub fn per_edit() -> Self {
        GroupCommitWindow {
            max_edits: 1,
            max_wait: Duration::ZERO,
        }
    }
}

/// One write operation routed through the hub's single writer.
///
/// Id-addressed ops ([`WriteOp::Edit`]) take the typed fast path; the
/// name-addressed variants intern users/values on the writer (the serve
/// frontend speaks names, and interning must serialize through the single
/// writer anyway so the WAL captures the name records).
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// A typed signed edit over already-interned ids.
    Edit(SignedEdit),
    /// `user` asserts `value` (both interned on first use).
    Believe {
        /// Asserting user (name).
        user: String,
        /// Asserted value (name).
        value: String,
    },
    /// `child` declares a trust mapping to `parent` with `priority`.
    Trust {
        /// Trusting user (name).
        child: String,
        /// Trusted user (name).
        parent: String,
        /// Mapping priority.
        priority: i64,
    },
    /// `user` revokes their explicit belief.
    Revoke {
        /// Revoking user (name).
        user: String,
    },
    /// `user` asserts the constraint `value`⁻ (a negative belief).
    Reject {
        /// Asserting user (name).
        user: String,
        /// Rejected value (name).
        value: String,
    },
}

/// Acknowledgement of one durably committed write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// The durable commit LSN of the group's WAL unit — the
    /// read-your-writes token ([`EpochSlot::wait_for_lsn`]).
    pub lsn: u64,
    /// The epoch number that first reflects this write.
    pub epoch: u64,
    /// How many ops shared the group's single fsync.
    pub group_size: usize,
}

/// A pending acknowledgement from [`WriteHub::submit_async`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Writer-side accounting of the hub.
#[derive(Debug, Clone, Copy, Default)]
pub struct HubStats {
    /// Groups flushed (each = one session batch = one WAL unit).
    pub groups: u64,
    /// Ops acknowledged successfully.
    pub ops_acked: u64,
    /// Ops that failed validation or commit.
    pub ops_failed: u64,
    /// Largest group flushed so far.
    pub largest_group: usize,
    /// The writer session's own counters as of the last flushed group
    /// (dirty-region sizes, epochs rendered, snapshot rows copied): the
    /// session lives on the writer thread, so this copy is how the rest
    /// of the process reads them.
    pub session: DeltaStats,
}

#[derive(Debug)]
struct HubQueue {
    pending: VecDeque<(u64, WriteOp)>,
    results: HashMap<u64, Result<WriteAck>>,
    next_ticket: u64,
    shutdown: bool,
    stats: HubStats,
}

#[derive(Debug)]
struct Shared {
    q: Mutex<HubQueue>,
    /// Signals the writer: new op or shutdown.
    arrived: Condvar,
    /// Signals submitters: results posted.
    finished: Condvar,
    window: GroupCommitWindow,
}

/// The single-writer group-commit coordinator (see the [module
/// docs](self)).
///
/// Owns the [`Session`] on a dedicated writer thread; share the hub
/// itself via `Arc` among as many submitters as needed, and hand
/// [`WriteHub::epochs`] to readers.
#[derive(Debug)]
pub struct WriteHub {
    shared: Arc<Shared>,
    slot: Arc<EpochSlot>,
    writer: Mutex<Option<JoinHandle<Session>>>,
}

impl WriteHub {
    /// Starts the hub over `session` (typically the recovered session of
    /// a [`crate::Store`], so every group is durable). Publishes the
    /// current state as the first epoch so readers see it immediately.
    pub fn new(mut session: Session, window: GroupCommitWindow) -> Self {
        // Best-effort initial publication: a session whose network errors
        // on read (e.g. tied priorities) still serves writes; reads keep
        // the genesis epoch until a committed state resolves.
        let _ = session.epoch();
        let slot = session.epoch_slot();
        let shared = Arc::new(Shared {
            q: Mutex::new(HubQueue {
                pending: VecDeque::new(),
                results: HashMap::new(),
                next_ticket: 0,
                shutdown: false,
                stats: HubStats {
                    session: session.stats(),
                    ..Default::default()
                },
            }),
            arrived: Condvar::new(),
            finished: Condvar::new(),
            window: GroupCommitWindow {
                max_edits: window.max_edits.max(1),
                max_wait: window.max_wait,
            },
        });
        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("trustmap-group-commit".into())
            .spawn(move || writer_loop(session, writer_shared))
            .expect("spawn group-commit writer");
        WriteHub {
            shared,
            slot,
            writer: Mutex::new(Some(writer)),
        }
    }

    /// The epoch publication slot readers follow (never blocks on the
    /// writer).
    pub fn epochs(&self) -> Arc<EpochSlot> {
        Arc::clone(&self.slot)
    }

    /// Enqueues `op` and returns a [`Ticket`] to [`WriteHub::wait`] on —
    /// the pipelining API: a submitter can keep a window's worth of
    /// writes in flight so groups fill even from one thread.
    pub fn submit_async(&self, op: WriteOp) -> Result<Ticket> {
        let mut q = self.shared.q.lock().expect("hub queue");
        if q.shutdown {
            return Err(Error::Io("write hub is shut down".into()));
        }
        let ticket = q.next_ticket;
        q.next_ticket += 1;
        q.pending.push_back((ticket, op));
        drop(q);
        self.shared.arrived.notify_all();
        Ok(Ticket(ticket))
    }

    /// Blocks until `ticket`'s group is durable and returns its ack.
    pub fn wait(&self, ticket: Ticket) -> Result<WriteAck> {
        let mut q = self.shared.q.lock().expect("hub queue");
        loop {
            if let Some(result) = q.results.remove(&ticket.0) {
                return result;
            }
            q = self.shared.finished.wait(q).expect("hub queue");
        }
    }

    /// Submits `op` and blocks until it is durably committed (one
    /// fsync covers every op that shared the group).
    pub fn submit(&self, op: WriteOp) -> Result<WriteAck> {
        let ticket = self.submit_async(op)?;
        self.wait(ticket)
    }

    /// Writer-side accounting (group count and sizes).
    pub fn stats(&self) -> HubStats {
        self.shared.q.lock().expect("hub queue").stats
    }

    /// Stops accepting writes, flushes everything pending (every
    /// outstanding ticket is still acknowledged), and returns the session
    /// — e.g. to snapshot it via [`crate::Store::snapshot_now`] before
    /// exit. Returns `None` if the hub was already shut down.
    pub fn shutdown(&self) -> Option<Session> {
        let handle = self.writer.lock().expect("hub writer").take()?;
        {
            let mut q = self.shared.q.lock().expect("hub queue");
            q.shutdown = true;
        }
        self.shared.arrived.notify_all();
        Some(handle.join().expect("group-commit writer panicked"))
    }
}

impl Drop for WriteHub {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The writer loop: drain the queue in windowed groups, commit each group
/// as one durable session batch, publish one epoch, acknowledge.
fn writer_loop(mut session: Session, shared: Arc<Shared>) -> Session {
    loop {
        // Collect a group: wait for the first op, then hold the window
        // open until it fills or the latency bound expires.
        let group: Vec<(u64, WriteOp)> = {
            let mut q = shared.q.lock().expect("hub queue");
            loop {
                if !q.pending.is_empty() {
                    break;
                }
                if q.shutdown {
                    return session;
                }
                q = shared.arrived.wait(q).expect("hub queue");
            }
            if !q.shutdown && shared.window.max_edits > 1 {
                let deadline = Instant::now() + shared.window.max_wait;
                while q.pending.len() < shared.window.max_edits && !q.shutdown {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, timeout) = shared
                        .arrived
                        .wait_timeout(q, deadline - now)
                        .expect("hub queue");
                    q = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            let take = q.pending.len().min(shared.window.max_edits);
            q.pending.drain(..take).collect()
        };

        let results = commit_group(&mut session, &group);
        let mut q = shared.q.lock().expect("hub queue");
        for (ticket, result) in results {
            match &result {
                Ok(_) => q.stats.ops_acked += 1,
                Err(_) => q.stats.ops_failed += 1,
            }
            q.results.insert(ticket, result);
        }
        q.stats.groups += 1;
        q.stats.largest_group = q.stats.largest_group.max(group.len());
        q.stats.session = session.stats();
        drop(q);
        shared.finished.notify_all();
    }
}

/// Applies one op through the session's typed APIs (interning names as
/// needed). The edit buffers in the open batch; durability arrives at the
/// group's commit.
fn apply_op(session: &mut Session, op: &WriteOp) -> Result<()> {
    match op {
        WriteOp::Edit(edit) => {
            session.apply_signed_edit(edit.clone())?;
        }
        WriteOp::Believe { user, value } => {
            let u = session.user(user);
            let v = session.value(value);
            session.believe(u, v)?;
        }
        WriteOp::Trust {
            child,
            parent,
            priority,
        } => {
            let c = session.user(child);
            let p = session.user(parent);
            session.trust(c, p, *priority)?;
        }
        WriteOp::Revoke { user } => {
            let u = session.user(user);
            session.revoke(u)?;
        }
        WriteOp::Reject { user, value } => {
            let u = session.user(user);
            let v = session.value(value);
            session.reject(u, NegSet::of([v]))?;
        }
    }
    Ok(())
}

/// Commits one group as a single durable unit: open a batch, apply every
/// op (per-op validation failures fail only that op), commit once (one
/// WAL append + fsync), publish one epoch, and return per-ticket acks.
fn commit_group(session: &mut Session, group: &[(u64, WriteOp)]) -> Vec<(u64, Result<WriteAck>)> {
    if let Err(e) = session.begin_batch() {
        return group.iter().map(|(t, _)| (*t, Err(e.clone()))).collect();
    }
    let mut op_results: Vec<(u64, Result<()>)> = Vec::with_capacity(group.len());
    let mut applied = 0usize;
    for (ticket, op) in group {
        let result = apply_op(session, op);
        if result.is_ok() {
            applied += 1;
        }
        op_results.push((*ticket, result));
    }
    match session.commit() {
        Ok(_report) => {
            // Publish exactly one epoch per group; its LSN is the
            // group's commit frame (or the previous LSN if every op
            // failed validation and the unit was empty).
            match session.epoch() {
                Ok(view) => {
                    let ack = WriteAck {
                        lsn: view.lsn(),
                        epoch: view.epoch(),
                        group_size: applied,
                    };
                    op_results
                        .into_iter()
                        .map(|(t, r)| (t, r.map(|()| ack)))
                        .collect()
                }
                Err(e) => {
                    // Committed durably but unreadable (e.g. a trust edit
                    // introduced ties): the write is in the log, but
                    // acknowledging "success" without an epoch would
                    // strand read-your-writes — surface the read error.
                    op_results
                        .into_iter()
                        .map(|(t, r)| (t, r.and_then(|()| Err(e.clone()))))
                        .collect()
                }
            }
        }
        // The group's unit never became durable (WAL failure) or the
        // engine rejected the drain: every op in it reports the failure.
        Err(e) => op_results
            .into_iter()
            .map(|(t, _)| (t, Err(e.clone())))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Store;
    use std::path::PathBuf;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("trustmap-group-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// 32 pipelined writes at a 16-edit window must coalesce into exactly
    /// 2 durable units — 2 fsyncs, counter-checked (the long `max_wait`
    /// makes the grouping deterministic: the writer holds each window
    /// open until it fills).
    #[test]
    fn pipelined_writes_coalesce_deterministically() {
        let dir = fresh_dir("coalesce");
        let recovered = Store::open(&dir).expect("fresh store");
        let store = recovered.store.clone();
        let before = store.counters();

        let hub = WriteHub::new(
            recovered.session,
            GroupCommitWindow {
                max_edits: 16,
                max_wait: Duration::from_secs(5),
            },
        );
        let tickets: Vec<Ticket> = (0..32)
            .map(|i| {
                hub.submit_async(WriteOp::Believe {
                    user: format!("user-{}", i % 8),
                    value: format!("v{}", i % 3),
                })
                .expect("accepting")
            })
            .collect();
        let acks: Vec<WriteAck> = tickets
            .into_iter()
            .map(|t| hub.wait(t).expect("durable"))
            .collect();

        let after = store.counters();
        assert_eq!(after.units_committed - before.units_committed, 2);
        assert_eq!(after.fsync_count - before.fsync_count, 2);
        assert!(acks.iter().all(|a| a.group_size == 16));
        // All members of a group share one LSN; the two groups differ.
        assert_eq!(acks[0].lsn, acks[15].lsn);
        assert_ne!(acks[15].lsn, acks[16].lsn);
        assert!(acks[16].epoch > acks[0].epoch);

        // The committed state survives a reopen byte-identically.
        let session = hub.shutdown().expect("first shutdown");
        drop(hub);
        drop(session);
        let mut back = Store::open(&dir).expect("recovers");
        let u = back.session.user("user-3");
        let v = back.session.value("v0");
        // user-3's last write was i=27 → value v0.
        assert_eq!(back.session.snapshot().expect("read").cert(u), Some(v));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Per-edit windows keep the old one-fsync-per-edit behavior.
    #[test]
    fn per_edit_window_does_not_group() {
        let dir = fresh_dir("per-edit");
        let recovered = Store::open(&dir).expect("fresh store");
        let store = recovered.store.clone();
        let hub = WriteHub::new(recovered.session, GroupCommitWindow::per_edit());
        for i in 0..4 {
            hub.submit(WriteOp::Believe {
                user: "solo".into(),
                value: format!("v{i}"),
            })
            .expect("durable");
        }
        assert_eq!(store.counters().units_committed, 4);
        assert_eq!(store.counters().fsync_count, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A validation failure fails only its own ack; the rest of the group
    /// commits durably.
    #[test]
    fn validation_failure_is_per_op() {
        let dir = fresh_dir("validation");
        let recovered = Store::open(&dir).expect("fresh store");
        let hub = WriteHub::new(
            recovered.session,
            GroupCommitWindow {
                max_edits: 3,
                max_wait: Duration::from_secs(5),
            },
        );
        let good = hub
            .submit_async(WriteOp::Believe {
                user: "a".into(),
                value: "v".into(),
            })
            .unwrap();
        let bad = hub
            .submit_async(WriteOp::Trust {
                child: "b".into(),
                parent: "b".into(), // self-trust: rejected at validation
                priority: 5,
            })
            .unwrap();
        let also_good = hub
            .submit_async(WriteOp::Trust {
                child: "b".into(),
                parent: "a".into(),
                priority: 5,
            })
            .unwrap();
        assert!(hub.wait(good).is_ok());
        assert!(matches!(hub.wait(bad), Err(Error::SelfTrust(_))));
        let ack = hub.wait(also_good).expect("rest of the group commits");
        assert_eq!(ack.group_size, 2);
        let stats = hub.stats();
        assert_eq!(stats.ops_acked, 2);
        assert_eq!(stats.ops_failed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reads ride epochs: an ack's LSN token yields a view reflecting the
    /// write (read-your-writes through `wait_for_lsn`).
    #[test]
    fn acks_locate_their_epoch() {
        let dir = fresh_dir("epoch");
        let recovered = Store::open(&dir).expect("fresh store");
        let hub = WriteHub::new(recovered.session, GroupCommitWindow::default());
        let slot = hub.epochs();
        let ack = hub
            .submit(WriteOp::Believe {
                user: "alice".into(),
                value: "vase".into(),
            })
            .expect("durable");
        let view = slot
            .wait_for_lsn(ack.lsn, Duration::from_secs(5))
            .expect("published");
        assert!(view.lsn() >= ack.lsn);
        let alice = view.names().find_user("alice").expect("interned");
        let vase = view.names().find_value("vase").expect("interned");
        assert_eq!(view.cert(alice), Some(vase));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Shutdown flushes pending writes and returns the session; further
    /// submissions are refused.
    #[test]
    fn shutdown_flushes_and_refuses() {
        let dir = fresh_dir("shutdown");
        let recovered = Store::open(&dir).expect("fresh store");
        let hub = WriteHub::new(recovered.session, GroupCommitWindow::default());
        let t = hub
            .submit_async(WriteOp::Believe {
                user: "a".into(),
                value: "v".into(),
            })
            .unwrap();
        let mut session = hub.shutdown().expect("first shutdown");
        assert!(hub.wait(t).is_ok(), "pending writes flush on shutdown");
        assert!(hub
            .submit_async(WriteOp::Revoke { user: "a".into() })
            .is_err());
        assert!(hub.shutdown().is_none(), "second shutdown is a no-op");
        let a = session.user("a");
        let v = session.value("v");
        assert_eq!(session.snapshot().expect("read").cert(a), Some(v));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
