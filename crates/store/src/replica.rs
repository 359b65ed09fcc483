//! Log-shipping replication: followers that pull the leader's segmented
//! WAL and replay it through the incremental engines.
//!
//! The protocol is deliberately dumb — it ships the *log bytes
//! themselves*, cut at commit-frame boundaries:
//!
//! 1. The follower asks the leader to [`ShipTransport::ship`] from its
//!    durable position ([`ShipRequest`]: watermark LSN + segment +
//!    offset).
//! 2. The leader answers with a CRC'd [`ShipChunk`] of committed bytes,
//!    [`ShipResponse::CaughtUp`] at the committed end, or
//!    [`ShipResponse::Behind`] when retention already dropped the
//!    follower's position (bootstrap from a snapshot, then resume).
//! 3. The follower appends the chunk to its *own* copy of the same
//!    segment file, fsyncs, and only then replays the contained units
//!    through its session (WAL-first, exactly like the leader's write
//!    path). When a chunk completes a segment the leader attaches the
//!    seal; the follower verifies its running CRC against the seal and
//!    writes the identical footer.
//!
//! Because sealed segments are immutable and the footer encoding is
//! deterministic, a correct follower's directory is always a
//! **byte-identical committed prefix** of the leader's — the invariant
//! the chaos oracle (`tests/replication_oracle.rs`) hammers with random
//! kills, restarts, and transport faults.
//!
//! **Leadership terms.** Every request and response carries its sender's
//! term. A follower refuses responses from a *lower* term wholesale (a
//! resurrected deposed leader whose chain may have diverged) and durably
//! adopts any higher term it observes before applying a byte committed
//! under it. [`Follower::promote`] turns a follower into the leader of
//! the next term: it seals the live segment under the *old* term and
//! bumps `term.tm` before the promoted store can accept its first write,
//! so two leaders can never both extend the same term — the no-split-brain
//! invariant `tests/failover_oracle.rs` proves under chaos.
//!
//! Every failure path is first-class and deterministic to test:
//!
//! * torn/bit-flipped chunks fail their CRC (or the structural scan, if
//!   the CRC was recomputed by a buggy middlebox) and are re-fetched —
//!   never applied ([`Step::Rejected`]);
//! * transport errors back off exponentially with jitter and resume from
//!   the follower's durable watermark ([`Follower::run`]);
//! * a leader restart invalidates nothing — shipping is stateless on the
//!   leader side, positions live in the request;
//! * while the leader is unreachable the follower keeps serving its last
//!   published epoch: stale, but pinned to an exact committed LSN.
//!
//! [`FaultyTransport`] is the seeded fault-injection seam the oracle and
//! benches wrap around any real transport.

use crate::record::{self, Crc32};
use crate::{io_err, recover_dir, replay_unit, segment, snapshot, wal, Store, StoreOptions};
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trustmap_core::epoch::EpochSlot;
use trustmap_core::{Error, Result, Session, TrustNetwork};

/// Default [`ShipRequest::max_bytes`] when the follower passes 0.
pub(crate) const DEFAULT_SHIP_BYTES: u64 = 256 * 1024;

/// A follower's pull position: "give me committed bytes after this".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipRequest {
    /// Highest LSN the follower has durably applied. Doubles as the
    /// leader's *ship floor*: retention keeps every segment this
    /// follower still needs.
    pub watermark: u64,
    /// First LSN of the segment the follower is currently filling, or 0
    /// to let the leader resolve the right segment from `watermark`.
    pub seg_first: u64,
    /// Byte offset within that segment the follower has durably written.
    pub offset: u64,
    /// Soft cap on chunk size (0 = leader default). Chunks are always
    /// cut at commit-frame boundaries, so at least one whole unit is
    /// shipped even when it exceeds the cap.
    pub max_bytes: u32,
    /// Highest leadership term the follower has durably observed. A
    /// leader seeing a term above its own learns it has been deposed
    /// and fences its write path ([`Error::Fenced`]).
    pub term: u64,
}

/// The seal of a completed segment, shipped with its final chunk so the
/// follower can write the byte-identical footer after verifying its own
/// running CRC matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSeal {
    /// LSN of the segment's last commit frame.
    pub last_lsn: u64,
    /// Exact data length (footer excluded) of the sealed segment.
    pub data_len: u64,
    /// CRC32 of those data bytes.
    pub data_crc: u32,
    /// Leadership term the segment was sealed under (stamped into the
    /// footer, so the follower's copy stays byte-identical).
    pub term: u64,
}

/// A window of committed log bytes, cut at a commit-frame boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipChunk {
    /// First LSN of the segment these bytes belong to.
    pub seg_first: u64,
    /// Byte offset of the window within that segment.
    pub offset: u64,
    /// The bytes (possibly empty when only a seal is outstanding).
    pub bytes: Vec<u8>,
    /// CRC32 of `bytes` — the transport-integrity check.
    pub crc: u32,
    /// Present when this chunk reaches the end of a *sealed* segment.
    pub seal: Option<SegmentSeal>,
    /// The leader's last committed LSN at response time (lag telemetry).
    pub leader_lsn: u64,
    /// The leader's current term — the follower's fencing input.
    pub term: u64,
}

/// The leader's answer to a [`ShipRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipResponse {
    /// Committed bytes to append (see [`ShipChunk`]).
    Chunk(ShipChunk),
    /// The follower holds everything committed; poll again later.
    CaughtUp {
        /// The leader's last committed LSN.
        lsn: u64,
        /// The leader's current term.
        term: u64,
    },
    /// Retention outran the follower — its position predates the oldest
    /// segment still on disk. Bootstrap from the leader's snapshot, then
    /// resume shipping from there.
    Behind {
        /// First LSN still available in the leader's log.
        first_available: u64,
        /// LSN of the image the leader's history rests on — the one
        /// [`ShipTransport::fetch_snapshot`] returns (always bridges to
        /// `first_available`).
        snapshot_lsn: u64,
        /// The leader's current term.
        term: u64,
    },
}

/// A snapshot image for bootstrapping a follower that fell below the
/// leader's retention horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotBlob {
    /// The snapshot's LSN watermark.
    pub lsn: u64,
    /// Its binary encoding (self-checking: magic + CRC trailer).
    pub bytes: Vec<u8>,
}

/// The transport seam between follower and leader. Implementations:
/// [`LocalTransport`] (same process, for tests/benches), the TCP client
/// in the serving binary, and [`FaultyTransport`] wrapping either.
pub trait ShipTransport {
    /// One pull: request committed bytes after the follower's position.
    fn ship(&mut self, req: &ShipRequest) -> Result<ShipResponse>;
    /// Fetch the image the leader's history rests on (bootstrap path).
    fn fetch_snapshot(&mut self) -> Result<SnapshotBlob>;
}

/// In-process transport: ships straight from a leader [`Store`] handle.
#[derive(Debug, Clone)]
pub struct LocalTransport {
    store: Store,
}

impl LocalTransport {
    /// Wraps a leader store handle.
    pub fn new(store: Store) -> Self {
        LocalTransport { store }
    }
}

impl ShipTransport for LocalTransport {
    fn ship(&mut self, req: &ShipRequest) -> Result<ShipResponse> {
        self.store.ship(req)
    }

    fn fetch_snapshot(&mut self) -> Result<SnapshotBlob> {
        self.store.snapshot_blob()
    }
}

/// Deterministic fault plan for [`FaultyTransport`]: per-call
/// probabilities in [0, 1], driven by a seeded generator so every chaos
/// schedule replays exactly.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Probability a call fails outright (connection reset).
    pub error_prob: f64,
    /// Probability a chunk's bytes get a random bit flipped (CRC left
    /// stale — the follower's integrity check must catch it).
    pub corrupt_prob: f64,
    /// Probability a chunk is truncated at a random byte *with its CRC
    /// recomputed* — models a framing bug the CRC cannot catch, so the
    /// follower's structural scan must.
    pub truncate_prob: f64,
    /// Seed of the generator.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            error_prob: 0.05,
            corrupt_prob: 0.05,
            truncate_prob: 0.05,
            seed: 0,
        }
    }
}

/// SplitMix64 — tiny, seedable, good enough for fault schedules; keeps
/// the store crate free of external RNG dependencies.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Wraps any transport with deterministic fault injection (errors, bit
/// flips, CRC-consistent truncation) per a seeded [`FaultPlan`].
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    rng: SplitMix64,
    /// Faults injected so far (telemetry for benches: proves the chaos
    /// run actually exercised the failure paths).
    pub faults_injected: u64,
}

impl<T> FaultyTransport<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            rng: SplitMix64::new(plan.seed),
            faults_injected: 0,
        }
    }
}

impl<T: ShipTransport> ShipTransport for FaultyTransport<T> {
    fn ship(&mut self, req: &ShipRequest) -> Result<ShipResponse> {
        if self.rng.next_f64() < self.plan.error_prob {
            self.faults_injected += 1;
            return Err(Error::Io("injected fault: connection reset".into()));
        }
        let resp = self.inner.ship(req)?;
        let ShipResponse::Chunk(mut chunk) = resp else {
            return Ok(resp);
        };
        if !chunk.bytes.is_empty() && self.rng.next_f64() < self.plan.corrupt_prob {
            // Bit flip, CRC left stale: the follower's integrity check
            // must reject this chunk.
            self.faults_injected += 1;
            let byte = self.rng.below(chunk.bytes.len() as u64) as usize;
            let bit = self.rng.below(8) as u32;
            chunk.bytes[byte] ^= 1 << bit;
            return Ok(ShipResponse::Chunk(chunk));
        }
        if !chunk.bytes.is_empty() && self.rng.next_f64() < self.plan.truncate_prob {
            // Truncate mid-chunk and *recompute* the CRC: only the
            // follower's structural scan (whole committed units) can
            // catch a cut inside a unit. A cut that happens to land on a
            // unit boundary is just a valid shorter chunk — harmless.
            self.faults_injected += 1;
            let keep = self.rng.below(chunk.bytes.len() as u64) as usize;
            chunk.bytes.truncate(keep);
            chunk.crc = record::crc32(&chunk.bytes);
            chunk.seal = None; // the seal referred to the full window
            return Ok(ShipResponse::Chunk(chunk));
        }
        Ok(ShipResponse::Chunk(chunk))
    }

    fn fetch_snapshot(&mut self) -> Result<SnapshotBlob> {
        if self.rng.next_f64() < self.plan.error_prob {
            self.faults_injected += 1;
            return Err(Error::Io(
                "injected fault: connection reset during bootstrap".into(),
            ));
        }
        self.inner.fetch_snapshot()
    }
}

/// Counters of a [`Follower`], for count-based acceptance gates (see
/// [`crate::StoreCounters`] for the philosophy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FollowerCounters {
    /// Chunks verified and applied.
    pub chunks_applied: u64,
    /// Bytes of log durably shipped in.
    pub bytes_shipped: u64,
    /// Committed units replayed through the session.
    pub units_applied: u64,
    /// Typed edits inside those units.
    pub edits_applied: u64,
    /// Chunks rejected by CRC, structural scan, or seal verification —
    /// never applied.
    pub crc_rejects: u64,
    /// Transport errors survived (each costs one backoff).
    pub reconnects: u64,
    /// Snapshot bootstraps after falling below the retention horizon.
    pub bootstraps: u64,
    /// Segments sealed follower-side (byte-identical to the leader's).
    pub segments_sealed: u64,
    /// Times the follower polled at the leader's committed end.
    pub caught_up: u64,
    /// Responses refused wholesale because they came from a leader at a
    /// stale (deposed) term — the no-split-brain witness follower-side.
    pub stale_term_rejects: u64,
    /// Times a higher leadership term was observed and durably adopted.
    pub terms_adopted: u64,
}

/// What one [`Follower::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// A chunk was verified, fsynced, and replayed.
    Applied {
        /// Units replayed.
        units: usize,
        /// Typed edits inside them.
        edits: usize,
        /// Bytes durably appended.
        bytes: u64,
        /// Whether this chunk completed (sealed) the segment.
        sealed: bool,
    },
    /// Nothing new; the follower holds everything committed.
    CaughtUp {
        /// The leader's last committed LSN.
        leader_lsn: u64,
    },
    /// Retention outran us; a snapshot bootstrap re-anchored the session.
    Bootstrapped {
        /// Watermark of the bootstrap snapshot.
        snapshot_lsn: u64,
    },
    /// A damaged or misaligned chunk was refused (nothing applied, not
    /// even to disk); the next step re-fetches from the same position.
    Rejected {
        /// Why the chunk was refused.
        reason: String,
    },
}

/// Pacing of [`Follower::run`].
#[derive(Debug, Clone, Copy)]
pub struct FollowConfig {
    /// Least time from one caught-up poll to the next: after a caught-up
    /// step the follower sleeps what is left of it. A leader that parks
    /// a caught-up `SHIP` until its next commit (`trustmap serve` does)
    /// uses the interval up by itself, so the follower asks again at
    /// once; against a leader that answers at once (e.g.
    /// [`LocalTransport`]) this is the polling interval.
    pub poll: Duration,
    /// First reconnect backoff (doubles per consecutive failure).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Soft chunk-size cap (0 = leader default).
    pub max_bytes: u32,
    /// Jitter seed (backoff jitter must be deterministic under test).
    pub seed: u64,
}

impl Default for FollowConfig {
    fn default() -> Self {
        FollowConfig {
            poll: Duration::from_millis(100),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
            max_bytes: 0,
            seed: 0,
        }
    }
}

/// Capped exponential backoff with half-fixed/half-random jitter, so a
/// herd of reconnecting followers decorrelates.
#[derive(Debug)]
pub(crate) struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: SplitMix64,
}

impl Backoff {
    pub(crate) fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base: base.max(Duration::from_millis(1)),
            cap,
            attempt: 0,
            rng: SplitMix64::new(seed),
        }
    }

    pub(crate) fn reset(&mut self) {
        self.attempt = 0;
    }

    pub(crate) fn next(&mut self) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let nanos = exp.as_nanos() as u64;
        Duration::from_nanos(nanos / 2 + self.rng.below(nanos / 2 + 1))
    }
}

/// The live (unsealed) segment the follower is filling.
#[derive(Debug)]
struct LiveSeg {
    first: u64,
    len: u64,
    crc: Crc32,
    file: std::fs::File,
}

/// A log-shipping follower: its own store directory (same layout as the
/// leader's), a session replayed from shipped units, and an epoch slot
/// replica-side readers serve from.
///
/// The follower's directory is always a byte-identical committed prefix
/// of the leader's — crash it anywhere and [`Follower::open`] resumes
/// from the durable watermark.
pub struct Follower {
    dir: PathBuf,
    session: Session,
    slot: Arc<EpochSlot>,
    watermark: u64,
    sealed: Vec<segment::SegmentMeta>,
    live: Option<LiveSeg>,
    counters: FollowerCounters,
    /// Highest leadership term durably observed (`term.tm`). Responses
    /// from lower terms are refused wholesale.
    term: u64,
    /// Soft chunk-size cap sent with each request (0 = leader default).
    max_bytes: u32,
    /// Set when a durably appended chunk failed to replay: the disk is
    /// ahead of the session, and shipping resumes from the disk position,
    /// so continuing would silently skip the unreplayed units. Every
    /// further step fails loudly; reopening recovers from disk.
    broken: Option<String>,
}

impl Follower {
    /// Opens (creating if necessary) the follower directory and recovers
    /// its session exactly like [`Store::open`] — snapshot + committed
    /// chain, torn tail of the live segment truncated. The recovered
    /// watermark is where shipping resumes.
    pub fn open(dir: impl AsRef<Path>) -> Result<Follower> {
        let dir = dir.as_ref().to_path_buf();
        let r = recover_dir(&dir)?;
        let term = r.term;
        let mut session = r.session;
        let slot = session.epoch_slot();
        let watermark = r.last_lsn;
        let live = match r.live {
            Some(l) => {
                let path = segment::path(&dir, l.first_lsn);
                let file = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| io_err(&format!("open {}", path.display()), e))?;
                if l.file_len > l.committed_len {
                    file.set_len(l.committed_len)
                        .map_err(|e| io_err("truncate torn tail", e))?;
                    file.sync_data().map_err(|e| io_err("sync truncation", e))?;
                }
                Some(LiveSeg {
                    first: l.first_lsn,
                    len: l.committed_len,
                    crc: l.crc,
                    file,
                })
            }
            None => None,
        };
        session.epoch_at(watermark)?;
        Ok(Follower {
            dir,
            session,
            slot,
            watermark,
            sealed: r.sealed,
            live,
            counters: FollowerCounters::default(),
            term,
            max_bytes: 0,
            broken: None,
        })
    }

    /// Highest LSN durably applied.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Highest leadership term durably observed.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The follower's store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The epoch slot replica-side readers serve from. Survives snapshot
    /// bootstraps — reader handles never go stale.
    pub fn epoch_slot(&self) -> Arc<EpochSlot> {
        Arc::clone(&self.slot)
    }

    /// The replayed network (for state-parity assertions in tests).
    pub fn network(&self) -> &TrustNetwork {
        self.session.network()
    }

    /// Mutable access to the replayed session, for *read-side* queries
    /// (cert/poss answers need `&mut` to refresh lazily). Editing a
    /// follower's session forks it from the leader — don't.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Enables exact certain-belief maintenance on the replayed session
    /// and republishes the current epoch so replica-side `CERT <user>
    /// EXACT` reads resolve immediately. The mode is derived state (never
    /// shipped or persisted) and survives snapshot bootstraps.
    pub fn enable_exact(&mut self) -> Result<()> {
        self.session.enable_exact()?;
        self.session.epoch_at(self.watermark)?;
        Ok(())
    }

    /// Counters since open.
    pub fn counters(&self) -> FollowerCounters {
        self.counters
    }

    /// Writes a local snapshot at the current watermark and retires
    /// sealed segments wholly below it, bounding the follower's disk just
    /// like the leader's. Returns the snapshot LSN.
    pub fn snapshot_now(&mut self) -> Result<u64> {
        let live_len = self.live.as_ref().map(|l| l.len).unwrap_or(0);
        snapshot::write(&self.dir, self.session.network(), self.watermark, live_len)?;
        crate::retire_below(&self.dir, &mut self.sealed, self.watermark)?;
        Ok(self.watermark)
    }

    /// Promotes this follower to be the leader of the next term, with
    /// default store options.
    ///
    /// See [`Follower::promote_with`] for the sequence and guarantees.
    pub fn promote(self) -> Result<crate::Recovered> {
        self.promote_with(StoreOptions::default())
    }

    /// Promotes this follower to be the leader of term `current + 1`.
    ///
    /// The sequence is crash-safe and O(1) in the length of history:
    ///
    /// 1. the live segment (if any) is sealed under the *current* term —
    ///    the promoted chain never extends a segment of the old era, so
    ///    a segment belongs to exactly one term by construction;
    /// 2. a snapshot is written at the watermark, so the reopen below
    ///    replays nothing ([`crate::RecoveryStats::replayed_units`] is 0
    ///    — the counter the failover bench gates on);
    /// 3. the term is bumped durably in `term.tm` *before* the store can
    ///    accept its first write — a crash anywhere in this sequence
    ///    leaves a directory that reopens cleanly at the old or the new
    ///    term, never a writable store under a stale term;
    /// 4. the directory reopens as a [`Store`]; the first write starts a
    ///    fresh live segment whose eventual footer carries the new term.
    ///
    /// The epoch slot is carried across the role flip, so reader handles
    /// served by this follower keep resolving, and exact mode (when
    /// enabled) is re-derived on the promoted session.
    ///
    /// On error the follower is consumed; reopen the directory with
    /// [`Follower::open`] or [`Store::open`] to recover — no step here
    /// loses committed bytes.
    pub fn promote_with(mut self, opts: StoreOptions) -> Result<crate::Recovered> {
        if let Some(why) = &self.broken {
            return Err(Error::Io(format!(
                "cannot promote a wedged follower: {why}"
            )));
        }
        let new_term = self.term + 1;
        if let Some(mut live) = self.live.take() {
            if live.len == 0 {
                // No committed bytes: remove the empty file instead of
                // sealing a zero-length segment into the chain.
                drop(live.file);
                let path = segment::path(&self.dir, live.first);
                std::fs::remove_file(&path)
                    .map_err(|e| io_err(&format!("remove empty {}", path.display()), e))?;
                crate::sync_dir(&self.dir)?;
            } else {
                let meta = segment::SegmentMeta {
                    first_lsn: live.first,
                    last_lsn: self.watermark,
                    data_len: live.len,
                    data_crc: live.crc.finish(),
                    term: self.term,
                };
                let footer = segment::encode_footer(&meta);
                live.file
                    .write_all(&footer)
                    .and_then(|()| live.file.sync_data())
                    .map_err(|e| io_err("seal live segment for promotion", e))?;
                self.sealed.push(meta);
                segment::write_manifest(&self.dir, &self.sealed)?;
            }
        }
        if self.watermark > 0 {
            // Tip snapshot: the reopen below replays zero units.
            snapshot::write(&self.dir, self.session.network(), self.watermark, 0)?;
        }
        // The fence itself: durable before the first write of the new
        // era, so no byte is ever committed under an unpersisted term.
        segment::write_term(&self.dir, new_term)?;
        let Follower {
            dir,
            session,
            slot,
            watermark,
            ..
        } = self;
        let exact = session.exact_enabled();
        drop(session);
        let mut r = Store::open_with(&dir, opts)?;
        r.session.adopt_epoch_slot(slot);
        if exact {
            r.session.enable_exact()?;
        }
        r.session.epoch_at(watermark)?;
        Ok(r)
    }

    /// One pull-verify-fsync-replay round. Never applies damaged or
    /// misaligned data: anything suspicious is [`Step::Rejected`] and the
    /// next step re-fetches from the same durable position.
    pub fn step(&mut self, transport: &mut dyn ShipTransport) -> Result<Step> {
        if let Some(why) = &self.broken {
            return Err(Error::Io(format!("follower must be reopened: {why}")));
        }
        let req = ShipRequest {
            watermark: self.watermark,
            seg_first: self.live.as_ref().map(|l| l.first).unwrap_or(0),
            offset: self.live.as_ref().map(|l| l.len).unwrap_or(0),
            max_bytes: self.max_bytes,
            term: self.term,
        };
        let resp = transport.ship(&req)?;
        let resp_term = match &resp {
            ShipResponse::Chunk(c) => c.term,
            ShipResponse::CaughtUp { term, .. } | ShipResponse::Behind { term, .. } => *term,
        };
        if resp_term < self.term {
            // A deposed leader still answering. Refuse everything it
            // says — its chain may have diverged past our watermark —
            // on a dedicated counter (this is fencing, not damage).
            self.counters.stale_term_rejects += 1;
            return Ok(Step::Rejected {
                reason: format!(
                    "response from stale term {resp_term} (term {} has been observed)",
                    self.term
                ),
            });
        }
        if resp_term > self.term {
            // A new leadership era: persist the term *before* applying
            // anything committed under it, so a crash cannot roll this
            // follower back into trusting the old leader.
            segment::write_term(&self.dir, resp_term)?;
            self.term = resp_term;
            self.counters.terms_adopted += 1;
        }
        match resp {
            ShipResponse::CaughtUp { lsn, .. } => {
                self.counters.caught_up += 1;
                Ok(Step::CaughtUp { leader_lsn: lsn })
            }
            ShipResponse::Behind {
                first_available,
                snapshot_lsn,
                ..
            } => self.bootstrap(
                transport,
                snapshot_lsn.max(first_available.saturating_sub(1)),
            ),
            ShipResponse::Chunk(chunk) => self.apply_chunk(chunk),
        }
    }

    fn reject(&mut self, reason: String) -> Result<Step> {
        self.counters.crc_rejects += 1;
        Ok(Step::Rejected { reason })
    }

    /// The chunk's bytes are already durable but the session could not
    /// follow them: continuing would resume shipping past units the
    /// session never saw. Wedge the follower so the gap is loud; a reopen
    /// replays the full durable state from disk.
    fn diverged(&mut self, why: String) -> Result<Step> {
        self.broken = Some(why.clone());
        Err(Error::Io(why))
    }

    fn apply_chunk(&mut self, chunk: ShipChunk) -> Result<Step> {
        // Transport integrity first: nothing below runs on bytes that
        // fail their CRC.
        if record::crc32(&chunk.bytes) != chunk.crc {
            return self.reject(format!(
                "chunk for segment {} at offset {} fails its CRC",
                chunk.seg_first, chunk.offset
            ));
        }
        // Position checks: the chunk must extend exactly the follower's
        // durable position (stale or misrouted responses are refused).
        match &self.live {
            Some(l) => {
                if chunk.seg_first != l.first || chunk.offset != l.len {
                    return self.reject(format!(
                        "chunk for segment {} offset {} does not extend live segment {} at {}",
                        chunk.seg_first, chunk.offset, l.first, l.len
                    ));
                }
            }
            None => {
                if chunk.offset != 0 {
                    return self.reject(format!(
                        "chunk starts at offset {} of segment {} we have not begun",
                        chunk.offset, chunk.seg_first
                    ));
                }
                if chunk.bytes.is_empty() {
                    return self.reject(format!(
                        "empty chunk for unbegun segment {}",
                        chunk.seg_first
                    ));
                }
                // Chain contiguity (LSNs are dense): the new segment must
                // start right after the last sealed one — or, with no
                // local segments, at or below the watermark + 1 so no LSN
                // is skipped.
                if let Some(last) = self.sealed.last() {
                    if chunk.seg_first != last.last_lsn + 1 {
                        return self.reject(format!(
                            "segment {} does not continue sealed chain ending at lsn {}",
                            chunk.seg_first, last.last_lsn
                        ));
                    }
                } else if chunk.seg_first > self.watermark + 1 {
                    return self.reject(format!(
                        "segment {} would skip lsns after watermark {}",
                        chunk.seg_first, self.watermark
                    ));
                }
            }
        }
        // Structural check: the window must decompose into whole
        // committed units (catches truncation with a recomputed CRC).
        let scan = wal::scan_bytes(&chunk.bytes, chunk.offset);
        if scan.stop.is_some()
            || scan.uncommitted != 0
            || scan.end_offset != chunk.offset + chunk.bytes.len() as u64
        {
            return self.reject(format!(
                "chunk for segment {} at offset {} is not whole committed units ({})",
                chunk.seg_first,
                chunk.offset,
                scan.stop.unwrap_or("trailing partial unit")
            ));
        }
        if let Some(seal) = &chunk.seal {
            // Verify the seal against what we will have on disk before
            // writing anything: data length, running CRC, and last LSN
            // must all line up with the leader's footer.
            let mut crc = self.live.as_ref().map(|l| l.crc).unwrap_or_default();
            crc.update(&chunk.bytes);
            let len = self.live.as_ref().map(|l| l.len).unwrap_or(0) + chunk.bytes.len() as u64;
            let last = if chunk.bytes.is_empty() {
                self.watermark
            } else {
                scan.last_lsn
            };
            if seal.data_len != len || seal.data_crc != crc.finish() || seal.last_lsn < last {
                return self.reject(format!(
                    "seal of segment {} does not match shipped bytes",
                    chunk.seg_first
                ));
            }
        }

        // WAL-first: the bytes are durable in our copy of the segment
        // before any of them touch the session.
        if self.live.is_none() {
            let path = segment::path(&self.dir, chunk.seg_first);
            // write+truncate (not append): the handle is the only writer
            // and writes sequentially from byte 0, discarding any stale
            // partial file from an earlier rejected attempt.
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&path)
                .map_err(|e| io_err(&format!("create {}", path.display()), e))?;
            crate::sync_dir(&self.dir)?;
            self.live = Some(LiveSeg {
                first: chunk.seg_first,
                len: 0,
                crc: Crc32::new(),
                file,
            });
        }
        let live = self.live.as_mut().expect("ensured above");
        if !chunk.bytes.is_empty() {
            live.file
                .write_all(&chunk.bytes)
                .and_then(|()| live.file.sync_data())
                .map_err(|e| io_err("append shipped chunk", e))?;
            live.len += chunk.bytes.len() as u64;
            live.crc.update(&chunk.bytes);
        }

        // Replay through the incremental engines; units at or below the
        // watermark (a shipped segment can straddle a bootstrap snapshot)
        // are already part of the session.
        let mut units = 0;
        let mut edits = 0;
        for unit in &scan.units {
            if unit.lsn <= self.watermark {
                continue;
            }
            match replay_unit(&mut self.session, unit) {
                Ok(n) => {
                    edits += n;
                    units += 1;
                    self.watermark = unit.lsn;
                }
                Err(e) => return self.diverged(format!("replay of lsn {} failed: {e}", unit.lsn)),
            }
        }

        let mut sealed_now = false;
        if let Some(seal) = chunk.seal {
            let mut live = self.live.take().expect("ensured above");
            let meta = segment::SegmentMeta {
                first_lsn: live.first,
                last_lsn: seal.last_lsn,
                data_len: seal.data_len,
                data_crc: seal.data_crc,
                term: seal.term,
            };
            let footer = segment::encode_footer(&meta);
            live.file
                .write_all(&footer)
                .and_then(|()| live.file.sync_data())
                .map_err(|e| io_err("seal shipped segment", e))?;
            self.sealed.push(meta);
            segment::write_manifest(&self.dir, &self.sealed)?;
            self.counters.segments_sealed += 1;
            // The segment's last LSN is our proven durable position even
            // when every unit in it predated the watermark.
            self.watermark = self.watermark.max(seal.last_lsn);
            sealed_now = true;
        }

        self.counters.chunks_applied += 1;
        self.counters.bytes_shipped += chunk.bytes.len() as u64;
        self.counters.units_applied += units as u64;
        self.counters.edits_applied += edits as u64;
        if let Err(e) = self.session.epoch_at(self.watermark) {
            return self.diverged(format!(
                "publishing epoch at lsn {} failed: {e}",
                self.watermark
            ));
        }
        Ok(Step::Applied {
            units,
            edits,
            bytes: chunk.bytes.len() as u64,
            sealed: sealed_now,
        })
    }

    /// Snapshot bootstrap: retention outran the log position, so replace
    /// local state wholesale with the leader's snapshot and resume
    /// shipping from its watermark. The epoch slot is carried over so
    /// reader handles never go stale. A blob below `advertised` (the
    /// `Behind` reply's image, and at least its first available lsn − 1)
    /// could never catch up, one below the watermark would regress it:
    /// both are refused, not applied.
    fn bootstrap(&mut self, transport: &mut dyn ShipTransport, advertised: u64) -> Result<Step> {
        let blob = transport.fetch_snapshot()?;
        let Some(snap) = snapshot::decode(&blob.bytes) else {
            return self.reject("bootstrap snapshot blob fails its CRC".into());
        };
        if snap.lsn < advertised.max(self.watermark) {
            return self.reject(format!(
                "bootstrap snapshot at lsn {} is older than the advertised image {advertised} \
                 or regresses watermark {}",
                snap.lsn, self.watermark
            ));
        }
        // `snap.lsn == self.watermark` is NOT rejected: a data-complete
        // follower can be stranded mid-segment when retention retires the
        // segment whose seal it never received (likeliest right after a
        // promotion, whose tip snapshot sits at exactly the acked
        // watermark). The equal-lsn bootstrap changes no state and loses
        // no ack — it re-anchors the log position past the retired
        // segment so shipping can resume.
        // Re-anchor on the snapshot first, then drop the local log (below
        // the leader's retention horizon anyway): a crash in between leaves
        // segments below the new image, never a chain short of it.
        snapshot::write(&self.dir, &snap.net, snap.lsn, 0)?;
        self.live = None;
        self.sealed.clear();
        for (_, path) in segment::list_files(&self.dir).map_err(|e| io_err("list segments", e))? {
            std::fs::remove_file(&path)
                .map_err(|e| io_err(&format!("remove {}", path.display()), e))?;
        }
        segment::write_manifest(&self.dir, &[])?;
        let exact = self.session.exact_enabled();
        let mut session = Session::new(snap.net);
        session.adopt_epoch_slot(Arc::clone(&self.slot));
        if exact {
            // Exact mode is derived, not persisted: carry it across the
            // wholesale session replacement so EXACT reads keep resolving
            // (best effort — an oversized snapshot parks the slot Failed
            // and exact reads degrade loudly while cert/poss keep serving).
            let _ = session.enable_exact();
        }
        self.session = session;
        self.watermark = snap.lsn;
        self.counters.bootstraps += 1;
        self.session.epoch_at(self.watermark)?;
        Ok(Step::Bootstrapped {
            snapshot_lsn: snap.lsn,
        })
    }

    /// Follows until `stop`: pull chunks as fast as they verify, keep
    /// caught-up polls at least [`FollowConfig::poll`] apart (a leader
    /// that parks the caught-up reply is asked again at once), back off
    /// exponentially with jitter on transport errors or rejected chunks —
    /// resuming each time from the durable watermark. While the leader is
    /// unreachable the epoch slot keeps serving the last published view:
    /// stale, but pinned to an exact committed LSN.
    pub fn run(
        &mut self,
        transport: &mut dyn ShipTransport,
        cfg: &FollowConfig,
        stop: &AtomicBool,
    ) {
        self.max_bytes = cfg.max_bytes;
        let mut backoff = Backoff::new(cfg.backoff_base, cfg.backoff_cap, cfg.seed);
        while !stop.load(Ordering::Acquire) {
            let started = Instant::now();
            match self.step(transport) {
                Ok(Step::Applied { .. }) | Ok(Step::Bootstrapped { .. }) => backoff.reset(),
                Ok(Step::CaughtUp { .. }) => {
                    backoff.reset();
                    sleep_unless(cfg.poll.saturating_sub(started.elapsed()), stop);
                }
                Ok(Step::Rejected { .. }) => sleep_unless(backoff.next(), stop),
                Err(_) => {
                    self.counters.reconnects += 1;
                    sleep_unless(backoff.next(), stop);
                }
            }
        }
    }
}

/// Sleeps `total` in short slices, returning early when `stop` is set.
fn sleep_unless(total: Duration, stop: &AtomicBool) {
    let slice = Duration::from_millis(20);
    let mut left = total;
    while !left.is_zero() && !stop.load(Ordering::Acquire) {
        let d = left.min(slice);
        std::thread::sleep(d);
        left -= d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreOptions;
    use trustmap_core::format::render_network;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("trustmap-replica-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seed_leader(dir: &Path, edits: usize) -> crate::Recovered {
        let mut r = Store::open_with(
            dir,
            StoreOptions {
                rotate_bytes: 512,
                retain_on_snapshot: true,
            },
        )
        .expect("open leader");
        let users: Vec<_> = (0..6).map(|i| r.session.user(&format!("u{i}"))).collect();
        let vals: Vec<_> = (0..3).map(|i| r.session.value(&format!("v{i}"))).collect();
        for i in 0..edits {
            let u = users[i % users.len()];
            let v = vals[i % vals.len()];
            r.session.believe(u, v).expect("edit");
            if i % 5 == 4 {
                let a = users[i % users.len()];
                let b = users[(i + 1) % users.len()];
                let _ = r.session.trust(a, b, (i % 7) as i64 + 1);
            }
        }
        r
    }

    /// A follower pulled to CaughtUp is byte-identical to the leader's
    /// committed log and state-identical to its session.
    #[test]
    fn follower_catches_up_byte_identical() {
        let ldir = fresh_dir("ship-l");
        let fdir = fresh_dir("ship-f");
        let leader = seed_leader(&ldir, 60);
        let mut t = LocalTransport::new(leader.store.clone());
        let mut f = Follower::open(&fdir).expect("open follower");
        loop {
            match f.step(&mut t).expect("step") {
                Step::CaughtUp { leader_lsn } => {
                    assert_eq!(leader_lsn, leader.store.last_committed_lsn());
                    break;
                }
                Step::Rejected { reason } => panic!("clean transport rejected: {reason}"),
                _ => {}
            }
        }
        assert_eq!(f.watermark(), leader.store.last_committed_lsn());
        assert_eq!(
            render_network(f.network()),
            render_network(leader.session.network())
        );
        let l_log = crate::committed_log(&ldir).unwrap();
        let f_log = crate::committed_log(&fdir).unwrap();
        assert_eq!(l_log, f_log, "follower must be byte-identical");
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }

    /// Every fault the injector produces is either rejected cleanly or a
    /// harmless shorter chunk — the follower still converges and never
    /// diverges from the leader's bytes.
    #[test]
    fn faulty_transport_never_corrupts_the_follower() {
        let ldir = fresh_dir("fault-l");
        let fdir = fresh_dir("fault-f");
        let leader = seed_leader(&ldir, 80);
        let plan = FaultPlan {
            error_prob: 0.2,
            corrupt_prob: 0.2,
            truncate_prob: 0.2,
            seed: 42,
        };
        let mut t = FaultyTransport::new(LocalTransport::new(leader.store.clone()), plan);
        let mut f = Follower::open(&fdir).expect("open follower");
        let mut steps = 0;
        loop {
            steps += 1;
            assert!(steps < 10_000, "fault storm must still converge");
            match f.step(&mut t) {
                Ok(Step::CaughtUp { .. }) => break,
                Ok(_) => {}
                Err(_) => {} // injected connection reset; just retry
            }
        }
        assert!(t.faults_injected > 0, "the plan must actually inject");
        assert!(
            f.counters().crc_rejects > 0,
            "bit flips must be caught, not absorbed: {:?}",
            f.counters()
        );
        assert_eq!(
            render_network(f.network()),
            render_network(leader.session.network())
        );
        assert_eq!(
            crate::committed_log(&ldir).unwrap(),
            crate::committed_log(&fdir).unwrap()
        );
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }

    /// Retention outrunning a stopped follower forces a snapshot
    /// bootstrap, after which shipping resumes and converges.
    #[test]
    fn behind_follower_bootstraps_from_snapshot() {
        let ldir = fresh_dir("boot-l");
        let fdir = fresh_dir("boot-f");
        let leader = seed_leader(&ldir, 40);
        // Leader snapshots + retires everything sealed so far.
        leader.store.snapshot_now(&leader.session).expect("snap");
        assert!(
            leader.store.counters().segments_retired > 0,
            "precondition: retention must have dropped history"
        );
        let mut t = LocalTransport::new(leader.store.clone());
        let mut f = Follower::open(&fdir).expect("open follower");
        let mut bootstrapped = false;
        loop {
            match f.step(&mut t).expect("step") {
                Step::Bootstrapped { snapshot_lsn } => {
                    bootstrapped = true;
                    assert!(snapshot_lsn > 0);
                }
                Step::CaughtUp { .. } => break,
                Step::Rejected { reason } => panic!("clean transport rejected: {reason}"),
                _ => {}
            }
        }
        assert!(
            bootstrapped,
            "a fresh follower below retention must bootstrap"
        );
        assert_eq!(
            render_network(f.network()),
            render_network(leader.session.network())
        );
        // And the follower itself recovers from its own disk.
        let w = f.watermark();
        drop(f);
        let f = Follower::open(&fdir).expect("reopen");
        assert_eq!(f.watermark(), w);
        assert_eq!(
            render_network(f.network()),
            render_network(leader.session.network())
        );
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }

    /// Kill the follower mid-catch-up (drop it between steps), reopen,
    /// resume: the durable watermark carries over and convergence still
    /// lands byte-identical.
    #[test]
    fn follower_restart_resumes_from_durable_watermark() {
        let ldir = fresh_dir("restart-l");
        let fdir = fresh_dir("restart-f");
        let leader = seed_leader(&ldir, 60);
        let mut t = LocalTransport::new(leader.store.clone());
        let mut f = Follower::open(&fdir).expect("open");
        for _ in 0..3 {
            let _ = f.step(&mut t).expect("step");
        }
        let mid = f.watermark();
        drop(f); // simulated kill: all progress must be on disk
        let mut f = Follower::open(&fdir).expect("reopen");
        assert_eq!(f.watermark(), mid, "watermark survives the restart");
        loop {
            match f.step(&mut t).expect("step") {
                Step::CaughtUp { .. } => break,
                Step::Rejected { reason } => panic!("clean transport rejected: {reason}"),
                _ => {}
            }
        }
        assert_eq!(
            crate::committed_log(&ldir).unwrap(),
            crate::committed_log(&fdir).unwrap()
        );
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }

    /// Replaying a rewrite unit must keep publishing into the epoch slot
    /// handed out at open — the replica frontend holds clones of it.
    /// (Regression: the rewrite replaced the session wholesale, orphaning
    /// the slot; readers served the pre-rewrite epoch forever while the
    /// follower reported caught-up.)
    #[test]
    fn rewrite_units_keep_the_epoch_slot_alive() {
        let ldir = fresh_dir("rewrite-slot-leader");
        let fdir = fresh_dir("rewrite-slot-follower");
        let mut leader = Store::open(&ldir).expect("leader");
        let net = trustmap_core::format::parse_network("trust a b 10\nbelieve b fish\n")
            .expect("parse network");
        leader
            .session
            .apply(move |n| {
                *n = net;
                Ok(())
            })
            .expect("one rewrite unit");

        let mut follower = Follower::open(&fdir).expect("follower");
        let slot = follower.epoch_slot();
        let mut transport = LocalTransport::new(leader.store.clone());
        loop {
            match follower.step(&mut transport).expect("clean transport") {
                Step::CaughtUp { .. } => break,
                Step::Rejected { reason } => panic!("clean transport rejected: {reason}"),
                _ => {}
            }
        }
        let view = slot.load();
        assert_eq!(
            view.lsn(),
            follower.watermark(),
            "the slot captured at open must carry the post-rewrite epoch"
        );
        assert!(
            view.user_count() > 0,
            "slot still serves the pre-rewrite empty network"
        );
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }

    /// Exact mode is derived replica-side state: enabling it on a
    /// follower publishes the exact table with every epoch, and a
    /// snapshot bootstrap (which replaces the session wholesale) must
    /// carry it across instead of silently dropping EXACT reads.
    #[test]
    fn exact_table_survives_snapshot_bootstrap() {
        let ldir = fresh_dir("exact-boot-l");
        let fdir = fresh_dir("exact-boot-f");
        let leader = seed_leader(&ldir, 40);
        leader.store.snapshot_now(&leader.session).expect("snap");
        assert!(
            leader.store.counters().segments_retired > 0,
            "precondition: retention must force a bootstrap"
        );
        let mut t = LocalTransport::new(leader.store.clone());
        let mut f = Follower::open(&fdir).expect("open follower");
        f.enable_exact().expect("enable exact");
        assert!(
            f.epoch_slot().load().exact().is_some(),
            "enable_exact must republish with the exact table"
        );
        let mut bootstrapped = false;
        loop {
            match f.step(&mut t).expect("step") {
                Step::Bootstrapped { .. } => bootstrapped = true,
                Step::CaughtUp { .. } => break,
                Step::Rejected { reason } => panic!("clean transport rejected: {reason}"),
                _ => {}
            }
        }
        assert!(bootstrapped, "follower below retention must bootstrap");
        let view = f.epoch_slot().load();
        assert!(
            view.exact().is_some(),
            "exact table must survive the bootstrap"
        );
        assert_eq!(view.lsn(), f.watermark());
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }

    /// The full failover story in one process: a caught-up follower
    /// promotes into term 1 without replaying history, a second follower
    /// adopts the new term durably, the resurrected old leader is
    /// refused by that follower *and* fenced on its own commit path by
    /// the follower's request.
    #[test]
    fn promotion_bumps_the_term_and_fences_the_old_leader() {
        let ldir = fresh_dir("promote-l");
        let fdir = fresh_dir("promote-f");
        let gdir = fresh_dir("promote-g");
        let leader = seed_leader(&ldir, 40);
        let acked = leader.store.last_committed_lsn();
        let mut t = LocalTransport::new(leader.store.clone());
        let mut g = Follower::open(&gdir).expect("open g");
        let mut f = Follower::open(&fdir).expect("open f");
        for fol in [&mut g, &mut f] {
            loop {
                match fol.step(&mut t).expect("step") {
                    Step::CaughtUp { .. } => break,
                    Step::Rejected { reason } => panic!("clean transport rejected: {reason}"),
                    _ => {}
                }
            }
        }

        // Promote f: term 0 -> 1, no replay, nothing acked is lost.
        let mut promoted = f.promote().expect("promote");
        assert_eq!(promoted.store.term(), 1);
        assert_eq!(
            promoted.stats.replayed_units, 0,
            "promotion must not replay history"
        );
        assert_eq!(promoted.store.last_committed_lsn(), acked);

        // g re-follows the new leader and durably adopts term 1. Its
        // live segment is byte-identical to the one promotion sealed, so
        // the seal ships as an empty chunk.
        let mut tn = LocalTransport::new(promoted.store.clone());
        loop {
            match g.step(&mut tn).expect("step") {
                Step::CaughtUp { .. } => break,
                Step::Rejected { reason } => panic!("clean transport rejected: {reason}"),
                _ => {}
            }
        }
        assert_eq!(g.term(), 1);
        assert!(g.counters().terms_adopted > 0);
        assert_eq!(g.watermark(), promoted.store.last_committed_lsn());

        // The new leader accepts writes under term 1.
        let u = promoted.session.user("after-failover");
        let v = promoted.session.value("w");
        promoted.session.believe(u, v).expect("write under term 1");

        // The resurrected old leader answers with term 0: g refuses the
        // response wholesale, and the old leader learns of its deposal
        // from g's request — its next commit is fenced.
        let mut told = LocalTransport::new(leader.store.clone());
        match g
            .step(&mut told)
            .expect("stale response is a clean rejection")
        {
            Step::Rejected { .. } => {}
            other => panic!("stale-term response must be rejected: {other:?}"),
        }
        assert!(g.counters().stale_term_rejects > 0);
        assert_eq!(leader.store.fenced(), Some(1));
        let mut old = leader.session;
        let u2 = old.user("rogue");
        let v2 = old.value("x");
        match old.believe(u2, v2) {
            Err(Error::Fenced {
                observed: 1,
                ours: 0,
            }) => {}
            other => panic!("deposed leader commit must fence, got {other:?}"),
        }
        assert!(leader.store.counters().fenced_commits > 0);

        // g's term survives its own restart.
        drop(g);
        let g = Follower::open(&gdir).expect("reopen g");
        assert_eq!(g.term(), 1, "adopted term must be durable");
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
        let _ = std::fs::remove_dir_all(&gdir);
    }

    /// A leader with two snapshots whose newest retired the history above
    /// the older one: returns it with both snapshot LSNs.
    fn leader_with_two_images(dir: &Path) -> (crate::Recovered, u64, u64) {
        let mut leader = seed_leader(dir, 40);
        let older = leader.store.snapshot_now(&leader.session).expect("snap");
        let users: Vec<_> = (0..6)
            .map(|i| leader.session.user(&format!("u{i}")))
            .collect();
        let v = leader.session.value("v0");
        for &u in users.iter().cycle().take(60) {
            leader.session.believe(u, v).expect("edit");
        }
        let newest = leader.store.snapshot_now(&leader.session).expect("snap");
        let u = leader.session.user("u0");
        leader.session.revoke(u).expect("edit");
        let layout = leader.store.layout();
        let first = layout
            .sealed
            .first()
            .map_or(layout.live_first_lsn, |m| m.first_lsn);
        assert!(
            first > older + 1,
            "precondition: retention must outrun {older}"
        );
        (leader, older, newest)
    }

    fn image_path(dir: &Path, lsn: u64, ext: &str) -> PathBuf {
        dir.join(format!("snapshot-{lsn:020}.{ext}"))
    }

    /// A leader whose image was damaged after retention ships nothing
    /// rather than the older snapshot the retained chain cannot catch up
    /// from: every step fails naming the image, and the follower never
    /// bootstraps (shipping the older one bootstrapped it once a step).
    #[test]
    fn a_damaged_image_is_refused_never_replaced_by_an_older_one() {
        let ldir = fresh_dir("bad-image-l");
        let fdir = fresh_dir("bad-image-f");
        let (leader, _, newest) = leader_with_two_images(&ldir);
        for ext in ["bin", "tn"] {
            std::fs::write(image_path(&ldir, newest, ext), b"garbage").unwrap();
        }
        let mut t = LocalTransport::new(leader.store.clone());
        let mut f = Follower::open(&fdir).expect("open follower");
        for _ in 0..5 {
            let err = f.step(&mut t).expect_err("no image to bootstrap from");
            assert!(
                err.to_string()
                    .contains(&format!("snapshot image at lsn {newest}")),
                "{err}"
            );
        }
        assert_eq!(f.counters().bootstraps, 0);
        assert_eq!(f.watermark(), 0);
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }

    /// When only the image's text twin survives, the leader encodes it
    /// once and the follower bootstraps on the image itself, then catches
    /// up byte-identical.
    #[test]
    fn an_image_with_only_its_twin_left_still_bootstraps() {
        let ldir = fresh_dir("twin-image-l");
        let fdir = fresh_dir("twin-image-f");
        let (leader, _, newest) = leader_with_two_images(&ldir);
        std::fs::write(image_path(&ldir, newest, "bin"), b"garbage").unwrap();
        let mut t = LocalTransport::new(leader.store.clone());
        let mut f = Follower::open(&fdir).expect("open follower");
        let mut bootstraps = Vec::new();
        loop {
            match f.step(&mut t).expect("step") {
                Step::Bootstrapped { snapshot_lsn } => bootstraps.push(snapshot_lsn),
                Step::CaughtUp { .. } => break,
                Step::Rejected { reason } => panic!("clean transport rejected: {reason}"),
                Step::Applied { .. } => {}
            }
        }
        assert_eq!(bootstraps, vec![newest]);
        assert_eq!(
            render_network(f.network()),
            render_network(leader.session.network())
        );
        assert_eq!(
            crate::committed_log(&ldir).unwrap(),
            crate::committed_log(&fdir).unwrap()
        );
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }

    /// A leader that answers `SNAPSHOT` with an image older than the one
    /// its `Behind` reply advertised (an older build's fallback) is
    /// refused through the reject path, not bootstrapped from.
    #[test]
    fn a_blob_older_than_the_advertised_image_is_rejected() {
        struct StaleImage(LocalTransport, SnapshotBlob);
        impl ShipTransport for StaleImage {
            fn ship(&mut self, req: &ShipRequest) -> Result<ShipResponse> {
                self.0.ship(req)
            }
            fn fetch_snapshot(&mut self) -> Result<SnapshotBlob> {
                Ok(self.1.clone())
            }
        }
        let ldir = fresh_dir("stale-image-l");
        let fdir = fresh_dir("stale-image-f");
        let (leader, older, newest) = leader_with_two_images(&ldir);
        let blob = SnapshotBlob {
            lsn: older,
            bytes: std::fs::read(image_path(&ldir, older, "bin")).unwrap(),
        };
        let mut t = StaleImage(LocalTransport::new(leader.store.clone()), blob);
        let mut f = Follower::open(&fdir).expect("open follower");
        match f.step(&mut t).expect("step") {
            Step::Rejected { reason } => assert!(
                reason.contains(&format!("advertised image {newest}")),
                "{reason}"
            ),
            other => panic!("a stale image must be rejected, got {other:?}"),
        }
        assert_eq!(f.counters().crc_rejects, 1);
        assert_eq!(f.counters().bootstraps, 0);
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }

    /// Backoff grows exponentially to the cap and jitter stays within
    /// [half, full] of the nominal delay.
    #[test]
    fn backoff_caps_and_jitters() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        let mut b = Backoff::new(base, cap, 7);
        let mut prev_nominal = Duration::ZERO;
        for i in 0..12 {
            let d = b.next();
            let nominal = base.saturating_mul(1 << i.min(16)).min(cap);
            assert!(d >= nominal / 2, "jitter floor: {d:?} vs {nominal:?}");
            assert!(d <= nominal, "jitter ceiling: {d:?} vs {nominal:?}");
            assert!(nominal >= prev_nominal);
            prev_nominal = nominal;
        }
        b.reset();
        assert!(b.next() <= base);
    }

    /// `poll` is a floor between caught-up polls: against a leader that
    /// answers `CaughtUp` at once (the in-process transport never parks)
    /// `run` keeps the old pace instead of spinning. The bounds are counter
    /// arithmetic that holds however the threads are scheduled: caught-up
    /// polls start at least `poll` apart, so `elapsed` (taken around spawn
    /// and join) holds at most `1 + elapsed / poll` of them; and the test
    /// stops the follower only after the transport has answered one.
    #[test]
    fn run_paces_caught_up_polls_against_a_leader_that_never_parks() {
        use std::sync::atomic::AtomicU64;
        /// Counts the `CaughtUp` answers the follower receives.
        struct Counting(LocalTransport, Arc<AtomicU64>);
        impl ShipTransport for Counting {
            fn ship(&mut self, req: &ShipRequest) -> Result<ShipResponse> {
                let resp = self.0.ship(req)?;
                if matches!(resp, ShipResponse::CaughtUp { .. }) {
                    self.1.fetch_add(1, Ordering::Release);
                }
                Ok(resp)
            }
            fn fetch_snapshot(&mut self) -> Result<SnapshotBlob> {
                self.0.fetch_snapshot()
            }
        }
        let ldir = fresh_dir("pace-l");
        let fdir = fresh_dir("pace-f");
        let leader = seed_leader(&ldir, 5);
        let mut follower = Follower::open(&fdir).expect("open follower");
        let stop = Arc::new(AtomicBool::new(false));
        let answered = Arc::new(AtomicU64::new(0));
        let poll = Duration::from_millis(100);
        let started = Instant::now();
        let runner = {
            let stop = Arc::clone(&stop);
            let mut transport = Counting(
                LocalTransport::new(leader.store.clone()),
                Arc::clone(&answered),
            );
            std::thread::spawn(move || {
                let cfg = FollowConfig {
                    poll,
                    ..FollowConfig::default()
                };
                follower.run(&mut transport, &cfg, &stop);
                follower
            })
        };
        std::thread::sleep(Duration::from_millis(500));
        while answered.load(Ordering::Acquire) == 0 {
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "no caught-up answer in 60 s"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Release);
        let follower = runner.join().expect("follower thread");
        let elapsed = started.elapsed();
        assert_eq!(follower.watermark(), leader.store.last_committed_lsn());
        let polls = follower.counters().caught_up;
        let most = 1 + (elapsed.as_nanos() / poll.as_nanos()) as u64;
        assert!(
            (1..=most).contains(&polls),
            "{polls} caught-up polls in {elapsed:?} (at most {most})"
        );
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&fdir);
    }
}
