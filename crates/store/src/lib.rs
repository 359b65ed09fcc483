#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # trustmap-store
//!
//! Durable sessions for trustmap: a **segmented write-ahead log** of
//! typed edits, **snapshots**, **crash recovery** back to a
//! byte-identical [`Session`], and **log-shipping replication** to
//! read-serving followers.
//!
//! The paper's setting is a massively collaborative database whose trust
//! mappings and beliefs evolve continuously (Section 2.5 treats updates as
//! first-class); a serving deployment therefore needs the session to
//! survive restarts, crashes, and — since one process is otherwise the
//! only copy of the network — whole-machine loss. This crate supplies the
//! persistence layer the in-memory engines were designed to sit on:
//!
//! * [`record`] — length-prefixed binary records with per-record CRC32
//!   and a monotonic LSN; batches are framed by commit records, so a torn
//!   tail rolls back to the last committed batch;
//! * [`wal`] — the scanner grouping records back into committed units;
//! * [`segment`] — the log lives in sealed, CRC-footered segment files
//!   (`wal-<first_lsn>.seg`): the live segment rotates at a size
//!   threshold, sealed segments are immutable (and therefore shippable),
//!   and a CRC-trailed manifest indexes them;
//! * [`snapshot`] — a full network image (binary + debuggable text
//!   flavors) carrying the LSN watermark recovery resumes from, so
//!   recovery cost is O(snapshot + tail), never O(history); retention
//!   drops sealed segments wholly below the recovered image's watermark;
//! * [`replica`] — a log-shipping follower that pulls sealed segments
//!   plus the live tail, replays committed units through the incremental
//!   engines, and publishes epoch views for replica-side reads;
//! * [`Store`] — the directory handle tying it together. It implements
//!   [`Durability`], so attaching it to a [`Session`] streams every typed
//!   edit into the log (fsync-batched per commit unit), and
//!   [`Store::open`] recovers: load the latest snapshot, replay the
//!   committed segment chain *through the incremental engines*, truncate
//!   any torn tail of the live segment. Corruption inside a *sealed*
//!   segment that recovery still needs is never papered over — the open
//!   fails loudly instead of serving garbage.
//!
//! ## Layout of a store directory
//!
//! ```text
//! dir/
//! ├── wal-00000000000000000001.seg   sealed segment (data + CRC footer)
//! ├── wal-00000000000000000812.seg   sealed segment
//! ├── wal-0000000000000000163.seg    live segment (append-only tail)
//! ├── manifest.tm                    CRC-trailed index of sealed segments
//! ├── snapshot-<lsn>.bin             compact binary snapshot
//! └── snapshot-<lsn>.tn              its debuggable text twin
//! ```
//!
//! A pre-segment layout (single `wal.log`) is migrated on open: the file
//! becomes the segment starting at LSN 1.
//!
//! ## Quickstart
//!
//! ```
//! # let dir = std::env::temp_dir().join(format!("tmstore-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! use trustmap_store::Store;
//!
//! // A fresh directory recovers to an empty session, already durable.
//! let mut recovered = Store::open(&dir)?;
//! let alice = recovered.session.user("alice");
//! let bob = recovered.session.user("bob");
//! let v = recovered.session.value("vase");
//! recovered.session.trust(alice, bob, 10)?;
//! recovered.session.believe(bob, v)?;      // each edit = one durable unit
//! drop(recovered);
//!
//! // A crash later, the session comes back byte-identical.
//! let mut back = Store::open(&dir)?;
//! let alice = back.session.user("alice");
//! assert_eq!(back.session.snapshot()?.cert(alice), Some(v));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! # Ok::<(), trustmap_core::Error>(())
//! ```

pub mod group;
pub mod record;
pub mod replica;
pub mod segment;
pub mod snapshot;
pub mod wal;

pub use group::{GroupCommitWindow, HubStats, Ticket, WriteAck, WriteHub, WriteOp};
pub use replica::{
    FaultPlan, FaultyTransport, FollowConfig, Follower, FollowerCounters, LocalTransport,
    SegmentSeal, ShipChunk, ShipRequest, ShipResponse, ShipTransport, SnapshotBlob, Step,
};
pub use segment::{SegmentMeta, MANIFEST_FILE, TERM_FILE};

use record::{encode_into, Crc32, Payload, Record};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use trustmap_core::{Durability, Error, Result, Session, SignedEdit, TrustNetwork};

/// File name of the legacy single-file write-ahead log. Found on open, it
/// is migrated into the segment starting at LSN 1.
pub const WAL_FILE: &str = "wal.log";

fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::Io(format!("{context}: {e}"))
}

/// Makes directory-entry changes under `dir` (file creation, rename,
/// removal) durable — standard WAL practice after creating a segment,
/// renaming a snapshot or manifest into place, or retiring a segment.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err(&format!("fsync directory {}", dir.display()), e))
}

/// Tuning knobs of [`Store::open_with`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Live-segment size (committed bytes) at which the store seals it
    /// and rotates to a fresh segment.
    pub rotate_bytes: u64,
    /// Whether [`Store::snapshot_now`] also retires sealed segments
    /// wholly below the new watermark (and the ship floor — see
    /// [`Store::ship`]). Disable to keep full history on disk, e.g. for
    /// cold-replay baselines.
    pub retain_on_snapshot: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            rotate_bytes: 4 << 20,
            retain_on_snapshot: true,
        }
    }
}

#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    /// The live segment, append-only.
    seg: File,
    /// First LSN of the live segment (names the file).
    seg_first: u64,
    /// Committed bytes of the live segment (everything before is framed).
    seg_len: u64,
    /// Running CRC of those committed bytes — becomes the footer's
    /// `data_crc` at seal time without re-reading the file.
    seg_crc: Crc32,
    /// Sealed segments, ascending (the in-memory manifest).
    sealed: Vec<segment::SegmentMeta>,
    rotate_bytes: u64,
    retain_on_snapshot: bool,
    /// LSN of the image history rests on (0 = genesis): recovery sets
    /// it, [`Store::snapshot_now`] advances it, retention and `SHIP` read it.
    image_lsn: u64,
    /// Lowest watermark a follower may still resume from: the most recent
    /// `SHIP` request's watermark (a lightweight replication slot).
    /// Retention never drops a segment a known follower has yet to pull.
    ship_floor: Option<u64>,
    /// LSN the next record will take.
    next_lsn: u64,
    /// LSN of the last commit frame made durable.
    last_committed: u64,
    /// Encoded records of the unit in flight (buffered, not yet written).
    buf: Vec<u8>,
    /// Operation records in `buf`.
    buf_records: u32,
    /// A buffered record was rejected (e.g. oversized); the unit's commit
    /// must fail instead of acknowledging a unit the scanner would drop.
    unit_error: Option<String>,
    /// The log can no longer represent the session's history — a unit was
    /// lost (failed append, rejected record) or the file state is unknown
    /// (rollback failed too). The in-memory session is ahead of the log,
    /// so acknowledging any further commit would produce a WAL whose
    /// records reference state it never captured (an unrecoverable
    /// store); every further commit is refused until a fresh
    /// [`Store::open`] re-anchors on what actually reached disk.
    poisoned: Option<String>,
    /// Leadership term this store commits under (stamped into every
    /// footer it seals; see [`segment::read_term`]).
    term: u64,
    /// Highest term above our own observed on the ship path: some
    /// follower has been promoted, this store is a deposed leader, and
    /// every commit is refused with [`Error::Fenced`] until reopen.
    /// Unlike `poisoned` this is not damage — reads keep serving.
    fenced: Option<u64>,
    /// Waits parked in [`Store::wait_for_commit`] right now; a commit
    /// signals only when there is one, so a store with no parked
    /// follower pays nothing for the long poll.
    parked: u32,
    /// Write-path counters (see [`StoreCounters`]).
    counters: StoreCounters,
}

/// Algorithmic write-path counters of a [`Store`], for benches and tests
/// that gate on counts instead of 1-core wall-clock: how many fsyncs the
/// log paid, how many durable units and operation records they bought,
/// and what rotation + retention did to the on-disk log.
///
/// `records_appended / fsync_count` is the group-commit amortization
/// factor (1.0 when every edit commits alone; the window size when edit
/// groups coalesce). `bytes_retired` is the retention proof: log bytes
/// below the snapshot watermark actually reclaimed from disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Write-path `fsync` (`sync_data`) calls — one per committed unit
    /// (seal/truncation syncs are not counted; they are not part of the
    /// acknowledged write path).
    pub fsync_count: u64,
    /// Durable units committed (commit frames appended).
    pub units_committed: u64,
    /// Operation records (edits, interns, rewrites) inside those units —
    /// commit frames themselves are not counted.
    pub records_appended: u64,
    /// Live segments sealed (footer appended, manifest updated).
    pub segments_sealed: u64,
    /// Sealed segments retired (unlinked) below the retention floor.
    pub segments_retired: u64,
    /// Bytes those retired segments occupied on disk (data + footer).
    pub bytes_retired: u64,
    /// Commits refused with [`Error::Fenced`] after a higher leadership
    /// term was observed — the no-split-brain witness: a deposed leader
    /// never extends its chain once it has learned of its deposal.
    pub fenced_commits: u64,
    /// Waits in [`Store::wait_for_commit`] that had to park: a caught-up
    /// `SHIP` holding its reply until the next commit.
    pub ships_parked: u64,
    /// Those parked waits a commit ended (the rest ran out their bound).
    pub ships_woken: u64,
}

/// A durable store directory: segmented WAL + manifest + snapshots.
///
/// `Store` is a cheap clonable handle (the clones share one file and LSN
/// counter); the copy attached to a [`Session`] as its [`Durability`] sink
/// and the copy the application keeps for [`Store::snapshot_now`] /
/// [`Store::last_committed_lsn`] stay consistent.
#[derive(Debug, Clone)]
pub struct Store {
    inner: Arc<Mutex<Inner>>,
    /// Notified (under `inner`) when `last_committed` advances while a
    /// [`Store::wait_for_commit`] is parked.
    committed: Arc<Condvar>,
}

/// What [`Store::open`] recovered.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered session, with the store already attached as its
    /// durability sink — edits are durable from the first call.
    pub session: Session,
    /// The store handle (shared with the session's sink).
    pub store: Store,
    /// How recovery went.
    pub stats: RecoveryStats,
}

/// Accounting of one recovery ([`Store::open`]).
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// LSN of the snapshot recovery started from (0 = genesis).
    pub snapshot_lsn: u64,
    /// The commit point recovery landed on.
    pub last_lsn: u64,
    /// Committed WAL units replayed on top of the snapshot.
    pub replayed_units: usize,
    /// Typed edits among the replayed records.
    pub replayed_edits: usize,
    /// Bytes dropped past the last commit frame of the live segment (torn
    /// tail + unsealed batch), 0 on a clean shutdown.
    pub dropped_bytes: u64,
    /// Sealed segments found on disk.
    pub sealed_segments: usize,
    /// Microseconds spent locating and decoding the snapshot.
    pub snapshot_load_us: f64,
    /// Microseconds spent replaying the WAL tail through the session.
    pub replay_us: f64,
    /// Damaged files skipped (older snapshots take over), migrations, and
    /// other non-fatal findings.
    pub warnings: Vec<String>,
}

/// The recovered state of the live (unsealed) segment, before anyone
/// opens it for appending.
#[derive(Debug)]
pub(crate) struct LiveState {
    pub(crate) first_lsn: u64,
    /// Bytes up to and including the last commit frame.
    pub(crate) committed_len: u64,
    /// Physical file length (≥ `committed_len`; the gap is a torn tail).
    pub(crate) file_len: u64,
    /// Running CRC of the committed bytes.
    pub(crate) crc: Crc32,
}

/// Everything [`recover_dir`] reconstructs — shared by [`Store::open`]
/// (which then attaches a durability sink and opens the live segment for
/// appending) and [`replica::Follower::open`] (which appends shipped
/// bytes instead).
pub(crate) struct RecoveredDir {
    pub(crate) session: Session,
    pub(crate) sealed: Vec<segment::SegmentMeta>,
    pub(crate) live: Option<LiveState>,
    pub(crate) last_lsn: u64,
    /// Leadership term of the directory (`term.tm`, 0 for legacy stores).
    pub(crate) term: u64,
    pub(crate) stats: RecoveryStats,
}

/// Recovers the session and log layout of a store directory: load the
/// image ([`snapshot::load_latest`]), walk the segment chain in LSN order,
/// replay committed units above the watermark through the incremental
/// engines. The only place that decides the history base (see
/// [`snapshot`]).
///
/// Failure policy (the corpus gate's contract):
/// * torn/corrupt tail of the **live** segment → roll back to the last
///   commit frame (warn);
/// * a chain that does not reach `image lsn + 1` (a damaged newest
///   snapshot whose older fallback sits below retired history) → hard
///   error naming the missing range;
/// * a **sealed** segment recovery still needs (above the snapshot
///   watermark) that is missing, gapped, or fails its CRC → hard error,
///   never guess;
/// * sealed damage *below* the watermark → skipped with a warning (the
///   snapshot supersedes it);
/// * corrupt or stale **manifest** → rebuilt from segment footers (warn);
///   but a manifest entry that says "sealed" beats a file whose footer
///   has gone unreadable — that is damage, not a live segment.
pub(crate) fn recover_dir(dir: &Path) -> Result<RecoveredDir> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(&format!("create {}", dir.display()), e))?;
    let mut warnings = Vec::new();

    // Legacy migration: a pre-segment `wal.log` is exactly the segment
    // starting at LSN 1 (single-file logs always began there).
    let legacy = dir.join(WAL_FILE);
    if legacy.exists() {
        let existing = segment::list_files(dir).map_err(|e| io_err("list segments", e))?;
        if !existing.is_empty() {
            return Err(Error::Io(format!(
                "{} holds both a legacy wal.log and wal-*.seg segments; refusing to guess which \
                 is the log",
                dir.display()
            )));
        }
        let target = segment::path(dir, 1);
        std::fs::rename(&legacy, &target)
            .map_err(|e| io_err(&format!("migrate wal.log to {}", target.display()), e))?;
        sync_dir(dir)?;
        warnings.push(format!(
            "migrated legacy wal.log to {}",
            segment::file_name(1)
        ));
    }

    // The leadership term fences writes; a corrupt term file is a hard
    // error (read_term), never a silent reset to term 0.
    let mut term = segment::read_term(dir)?;

    let t0 = Instant::now();
    let (snap, mut snap_warnings) = snapshot::load_latest(dir);
    warnings.append(&mut snap_warnings);
    let (net, snapshot_lsn, snap_wal_offset) = match snap {
        Some(s) => (s.net, s.lsn, s.wal_offset),
        None => (TrustNetwork::new(), 0, 0),
    };
    let snapshot_load_us = t0.elapsed().as_secs_f64() * 1e6;

    // The manifest is an index to cross-check, never the source of truth.
    let mut manifest_dirty = false;
    let manifest = match segment::read_manifest(dir) {
        segment::ManifestState::Sealed(list) => Some(list),
        segment::ManifestState::Missing => None,
        segment::ManifestState::Corrupt(why) => {
            warnings.push(format!("manifest: {why}; rebuilding from segment footers"));
            manifest_dirty = true;
            None
        }
    };

    let files = segment::list_files(dir).map_err(|e| io_err("list segments", e))?;

    // A manifest entry whose file vanished: retention removes entries
    // along with files, so this is damage — fatal if recovery still needs
    // those LSNs, a warning otherwise.
    if let Some(listed) = &manifest {
        for meta in listed {
            if !files.iter().any(|(first, _)| *first == meta.first_lsn) {
                if meta.last_lsn <= snapshot_lsn {
                    warnings.push(format!(
                        "manifest lists {} (lsns {}..={}) which is gone; below the snapshot \
                         watermark {snapshot_lsn}, skipped",
                        segment::file_name(meta.first_lsn),
                        meta.first_lsn,
                        meta.last_lsn
                    ));
                    manifest_dirty = true;
                } else {
                    return Err(Error::Io(format!(
                        "segment {} (lsns {}..={}) is missing and above the snapshot watermark \
                         {snapshot_lsn}; refusing to recover past the hole",
                        segment::file_name(meta.first_lsn),
                        meta.first_lsn,
                        meta.last_lsn
                    )));
                }
            }
        }
    }

    let t1 = Instant::now();
    let mut session = Session::new(net);
    let mut sealed: Vec<segment::SegmentMeta> = Vec::new();
    let mut live: Option<LiveState> = None;
    let mut last_lsn = snapshot_lsn;
    let mut replayed_units = 0;
    let mut replayed_edits = 0;
    let mut dropped_bytes = 0;
    let mut expected_first: Option<u64> = None;

    for (idx, (first, path)) in files.iter().enumerate() {
        let is_last = idx + 1 == files.len();
        // LSNs are dense, so history is intact iff the chain reaches the
        // image's successor with each segment right after its predecessor.
        let needed = expected_first.unwrap_or(0).max(snapshot_lsn + 1);
        match expected_first {
            Some(exp) if *first < exp => {
                return Err(Error::Io(format!(
                    "overlapping segments: {} starts inside its predecessor (expected lsn {exp})",
                    segment::file_name(*first)
                )))
            }
            _ if *first > needed => {
                return Err(Error::Io(format!(
                    "log chain gap: lsns {needed}..{} are missing and above the snapshot \
                     watermark {snapshot_lsn}",
                    *first - 1
                )))
            }
            Some(exp) if *first > exp => warnings.push(format!(
                "log chain gap at lsns {exp}..{} — below the snapshot watermark {snapshot_lsn}, \
                 skipped",
                *first - 1
            )),
            _ => {}
        }
        let manifest_meta = manifest
            .as_ref()
            .and_then(|m| m.iter().find(|x| x.first_lsn == *first).copied());
        let (file_len, footer) =
            segment::read_meta(path).map_err(|e| io_err(&format!("read {}", path.display()), e))?;
        match footer {
            Some(meta) => {
                if meta.first_lsn != *first {
                    return Err(Error::Io(format!(
                        "{}: footer says first lsn {}, file name says {first}",
                        path.display(),
                        meta.first_lsn
                    )));
                }
                if let Some(mm) = manifest_meta {
                    if mm != meta {
                        return Err(Error::Io(format!(
                            "{}: manifest and footer disagree about this sealed segment — \
                             immutable history is damaged",
                            path.display()
                        )));
                    }
                } else if manifest.is_some() {
                    manifest_dirty = true; // sealed after the last manifest write
                }
                if meta.last_lsn > snapshot_lsn {
                    // Recovery needs this data: verify it fully.
                    let seg = segment::read(path)
                        .map_err(|e| io_err(&format!("read {}", path.display()), e))?;
                    if record::crc32(&seg.data) != meta.data_crc {
                        return Err(Error::Io(format!(
                            "{}: sealed segment data fails its CRC — immutable history is \
                             damaged, refusing to guess",
                            path.display()
                        )));
                    }
                    let scan = wal::scan_bytes(&seg.data, 0);
                    if scan.stop.is_some()
                        || scan.uncommitted != 0
                        || scan.end_offset != meta.data_len
                        || scan.last_lsn != meta.last_lsn
                    {
                        return Err(Error::Io(format!(
                            "{}: sealed segment structure does not match its footer",
                            path.display()
                        )));
                    }
                    for unit in &scan.units {
                        if unit.lsn <= snapshot_lsn {
                            continue; // already folded into the snapshot
                        }
                        replayed_edits += replay_unit(&mut session, unit)?;
                        replayed_units += 1;
                    }
                }
                if meta.term > term {
                    // Promotion writes term.tm *before* the first write
                    // under the new term, so a footer above the term file
                    // means the file was lost or rolled back. The footer
                    // is the floor — never re-commit under an older term.
                    warnings.push(format!(
                        "{}: sealed under term {} but term.tm says {term}; adopting the higher \
                         term",
                        segment::file_name(*first),
                        meta.term
                    ));
                    term = meta.term;
                }
                last_lsn = last_lsn.max(meta.last_lsn);
                sealed.push(meta);
                expected_first = Some(meta.last_lsn + 1);
            }
            None => {
                // No valid footer. If the manifest says this segment was
                // sealed, its seal has been destroyed: fatal when recovery
                // still needs the data, retired (the snapshot supersedes
                // it) when it lies wholly below the watermark.
                if let Some(mm) = manifest_meta {
                    if mm.last_lsn <= snapshot_lsn {
                        std::fs::remove_file(path)
                            .map_err(|e| io_err(&format!("remove {}", path.display()), e))?;
                        sync_dir(dir)?;
                        warnings.push(format!(
                            "{}: sealed segment footer unreadable, but lsns {}..={} are below \
                             the snapshot watermark {snapshot_lsn}; retired the damaged file",
                            segment::file_name(*first),
                            mm.first_lsn,
                            mm.last_lsn
                        ));
                        manifest_dirty = true;
                        last_lsn = last_lsn.max(mm.last_lsn);
                        expected_first = Some(mm.last_lsn + 1);
                        continue;
                    }
                    return Err(Error::Io(format!(
                        "{}: manifest says sealed but the footer is unreadable — immutable \
                         history is damaged",
                        path.display()
                    )));
                }
                // A successor segment existing at all means rotation
                // sealed this one before creating the next file.
                if !is_last {
                    return Err(Error::Io(format!(
                        "{}: unsealed segment in the middle of the chain (its seal was \
                         destroyed)",
                        path.display()
                    )));
                }
                let seg = segment::read(path)
                    .map_err(|e| io_err(&format!("read {}", path.display()), e))?;
                debug_assert_eq!(seg.data.len() as u64, file_len);
                // Advisory fast path: when the snapshot watermark lies
                // inside this live segment, its recorded offset lets the
                // scan skip — and tolerate damage in — bytes the snapshot
                // already supersedes.
                let skip = if snapshot_lsn > 0 && *first <= snapshot_lsn {
                    snap_wal_offset
                } else {
                    0
                };
                if skip > file_len {
                    // The live segment is shorter than the watermark it
                    // should reach: its content is wholly superseded and
                    // partially destroyed. Retire it; appends restart in
                    // a fresh segment at the watermark.
                    std::fs::remove_file(path)
                        .map_err(|e| io_err(&format!("remove {}", path.display()), e))?;
                    sync_dir(dir)?;
                    warnings.push(format!(
                        "{}: shorter than the snapshot watermark offset {snap_wal_offset}; \
                         superseded content retired, log restarts at lsn {snapshot_lsn}",
                        segment::file_name(*first)
                    ));
                    dropped_bytes = file_len;
                    continue;
                }
                let scan = wal::scan_bytes(&seg.data[skip as usize..], skip);
                if let Some(reason) = scan.stop {
                    warnings.push(format!(
                        "live segment: {reason}; rolled back to committed lsn {}",
                        scan.last_lsn.max(last_lsn)
                    ));
                }
                for unit in &scan.units {
                    if unit.lsn <= snapshot_lsn {
                        continue;
                    }
                    replayed_edits += replay_unit(&mut session, unit)?;
                    replayed_units += 1;
                }
                let mut crc = Crc32::new();
                crc.update(&seg.data[..scan.end_offset as usize]);
                dropped_bytes = file_len - scan.end_offset;
                last_lsn = last_lsn.max(scan.last_lsn);
                live = Some(LiveState {
                    first_lsn: *first,
                    committed_len: scan.end_offset,
                    file_len,
                    crc,
                });
            }
        }
    }
    let replay_us = t1.elapsed().as_secs_f64() * 1e6;

    if manifest_dirty || manifest.map_or(!sealed.is_empty(), |m| m != sealed) {
        segment::write_manifest(dir, &sealed)?;
    }

    Ok(RecoveredDir {
        session,
        sealed: sealed.clone(),
        live,
        last_lsn,
        term,
        stats: RecoveryStats {
            snapshot_lsn,
            last_lsn,
            replayed_units,
            replayed_edits,
            dropped_bytes,
            sealed_segments: sealed.len(),
            snapshot_load_us,
            replay_us,
            warnings,
        },
    })
}

impl Store {
    /// Opens (creating if necessary) the store at `dir` with default
    /// [`StoreOptions`] and recovers its session: load the newest loadable
    /// snapshot, replay the committed segment chain through the
    /// incremental engines, truncate anything past the live segment's
    /// last commit frame. Never serves a half batch: a torn or
    /// bit-flipped tail lands the session exactly on the last committed
    /// LSN. Damage to *sealed* history that recovery still needs fails
    /// loudly instead.
    pub fn open(dir: impl AsRef<Path>) -> Result<Recovered> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// [`Store::open`] with explicit rotation/retention options.
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<Recovered> {
        let dir = dir.as_ref();
        let r = recover_dir(dir)?;
        let RecoveredDir {
            mut session,
            sealed,
            live,
            last_lsn,
            term,
            stats,
            ..
        } = r;

        // Take ownership of the live segment for appending — creating a
        // fresh one when the last segment was sealed (or the directory is
        // empty) and dropping everything past the last commit frame so
        // the next append starts on a clean boundary.
        let (seg, seg_first, seg_len, seg_crc) = match live {
            Some(l) => {
                let path = segment::path(dir, l.first_lsn);
                let f = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| io_err(&format!("open {}", path.display()), e))?;
                if l.file_len > l.committed_len {
                    f.set_len(l.committed_len)
                        .map_err(|e| io_err("truncate torn tail", e))?;
                    f.sync_data().map_err(|e| io_err("sync truncation", e))?;
                }
                (f, l.first_lsn, l.committed_len, l.crc)
            }
            None => {
                let first = last_lsn + 1;
                let path = segment::path(dir, first);
                let f = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .map_err(|e| io_err(&format!("create {}", path.display()), e))?;
                // The segment's directory *entry* must be durable before
                // any commit is acknowledged, or a power loss could drop
                // the whole file on a journaled FS even though its
                // contents were fsynced.
                sync_dir(dir)?;
                (f, first, 0, Crc32::new())
            }
        };

        let store = Store {
            inner: Arc::new(Mutex::new(Inner {
                dir: dir.to_path_buf(),
                seg,
                seg_first,
                seg_len,
                seg_crc,
                sealed,
                rotate_bytes: opts.rotate_bytes.max(1),
                retain_on_snapshot: opts.retain_on_snapshot,
                image_lsn: stats.snapshot_lsn,
                ship_floor: None,
                next_lsn: last_lsn + 1,
                last_committed: last_lsn,
                buf: Vec::new(),
                buf_records: 0,
                unit_error: None,
                poisoned: None,
                term,
                fenced: None,
                parked: 0,
                counters: StoreCounters::default(),
            })),
            committed: Arc::new(Condvar::new()),
        };
        session.set_durability(Box::new(store.clone()));
        Ok(Recovered {
            session,
            store,
            stats,
        })
    }

    /// Writes a snapshot of `session`'s current (fully committed) state at
    /// the store's last committed LSN, bounding future recoveries to
    /// O(snapshot + tail-since-now), then (unless
    /// [`StoreOptions::retain_on_snapshot`] is off) retires sealed
    /// segments wholly below the new watermark. Returns the snapshot LSN.
    ///
    /// Must be called between commit units — inside an open batch the
    /// network is ahead of the log and the call errors.
    pub fn snapshot_now(&self, session: &Session) -> Result<u64> {
        if session.in_batch() {
            return Err(Error::Io(
                "cannot snapshot inside an open batch (network is ahead of the log)".into(),
            ));
        }
        let mut g = self.inner.lock().expect("store mutex");
        snapshot::write(&g.dir, session.network(), g.last_committed, g.seg_len)?;
        let g = &mut *g;
        g.image_lsn = g.last_committed;
        if g.retain_on_snapshot {
            let floor = g.ship_floor.map_or(g.image_lsn, |f| f.min(g.image_lsn));
            let (segments, bytes) = retire_below(&g.dir, &mut g.sealed, floor)?;
            g.counters.segments_retired += segments;
            g.counters.bytes_retired += bytes;
        }
        Ok(g.last_committed)
    }

    /// The LSN of the last durable commit frame (0 before any commit).
    pub fn last_committed_lsn(&self) -> u64 {
        self.inner.lock().expect("store mutex").last_committed
    }

    /// Blocks until a commit lands above `lsn` or `timeout` passes, and
    /// returns the last committed LSN either way. This is the long poll
    /// behind a caught-up `SHIP`: the reply waits for the next commit
    /// instead of the follower sleeping out a poll interval. Waits that
    /// park count in [`StoreCounters::ships_parked`] and, when a commit
    /// ends them, [`StoreCounters::ships_woken`].
    pub fn wait_for_commit(&self, lsn: u64, timeout: Duration) -> u64 {
        let mut g = self.inner.lock().expect("store mutex");
        if g.last_committed > lsn {
            return g.last_committed;
        }
        g.counters.ships_parked += 1;
        g.parked += 1;
        let (mut g, _) = self
            .committed
            .wait_timeout_while(g, timeout, |g| g.last_committed <= lsn)
            .expect("store mutex");
        g.parked -= 1;
        if g.last_committed > lsn {
            g.counters.ships_woken += 1;
        }
        g.last_committed
    }

    /// The leadership term this store commits under (0 for stores that
    /// have never been through a promotion).
    pub fn term(&self) -> u64 {
        self.inner.lock().expect("store mutex").term
    }

    /// The higher term observed on the ship path, if any: `Some` means
    /// this store is a deposed leader — every commit fails with
    /// [`Error::Fenced`] while reads keep serving.
    pub fn fenced(&self) -> Option<u64> {
        self.inner.lock().expect("store mutex").fenced
    }

    /// Bytes of committed log on disk: sealed segments (data + footers)
    /// plus the live segment's committed prefix.
    pub fn wal_len(&self) -> u64 {
        let g = self.inner.lock().expect("store mutex");
        g.sealed
            .iter()
            .map(|m| m.data_len + segment::FOOTER_LEN as u64)
            .sum::<u64>()
            + g.seg_len
    }

    /// The current shape of the log: sealed segments, the live segment's
    /// position, and the last committed LSN.
    pub fn layout(&self) -> LogLayout {
        let g = self.inner.lock().expect("store mutex");
        LogLayout {
            sealed: g.sealed.clone(),
            live_first_lsn: g.seg_first,
            live_len: g.seg_len,
            last_committed: g.last_committed,
        }
    }

    /// The store directory.
    pub fn dir(&self) -> PathBuf {
        self.inner.lock().expect("store mutex").dir.clone()
    }

    /// Write-path counters since this handle was opened (fsyncs, units,
    /// records, seals, retirements). Counts, not clocks: the group-commit
    /// and retention acceptance gates divide these instead of trusting
    /// 1-core wall time.
    pub fn counters(&self) -> StoreCounters {
        self.inner.lock().expect("store mutex").counters
    }

    /// Serves one log-shipping request from a follower (see
    /// [`replica::ShipRequest`]): a chunk of committed bytes cut at a
    /// commit-frame boundary, `CaughtUp` at the committed end, or
    /// `Behind` when the follower's watermark predates the first segment
    /// still on disk (retention outran it — it must bootstrap from a
    /// snapshot). Also records the follower's watermark as the ship
    /// floor, so retention keeps everything an active follower still
    /// needs.
    ///
    /// A chunk costs one positioned read of the bytes past the
    /// follower's offset, not a read of the whole segment, so a follower
    /// that asks once per commit pays for that commit's bytes only.
    /// `CaughtUp` answers at once; a server that wants a long poll parks
    /// on [`Store::wait_for_commit`] and asks again.
    ///
    /// The request carries the follower's leadership term, and this is
    /// where a deposed leader learns of its deposal: a request from a
    /// higher term means some follower has been promoted, so the store
    /// fences itself — every later commit fails with [`Error::Fenced`] —
    /// while continuing to serve reads and ship requests. Every response
    /// carries this store's own term, so a follower can likewise reject
    /// bytes offered by a stale-term leader.
    pub fn ship(&self, req: &ShipRequest) -> Result<ShipResponse> {
        let max_bytes = if req.max_bytes == 0 {
            replica::DEFAULT_SHIP_BYTES
        } else {
            req.max_bytes as u64
        };
        let (dir, sealed, live_first, live_len, last_committed, term, image_lsn) = {
            let mut g = self.inner.lock().expect("store mutex");
            g.ship_floor = Some(req.watermark);
            if req.term > g.term && g.fenced.is_none_or(|t| t < req.term) {
                g.fenced = Some(req.term);
            }
            (
                g.dir.clone(),
                g.sealed.clone(),
                g.seg_first,
                g.seg_len,
                g.last_committed,
                g.term,
                g.image_lsn,
            )
        };
        let first_available = sealed.first().map(|m| m.first_lsn).unwrap_or(live_first);
        let behind = |w: u64| -> Result<ShipResponse> {
            if image_lsn + 1 < first_available {
                // Should be impossible (retention floors at the image, which
                // recovery proved the chain reaches), but never point a
                // follower at a bootstrap that cannot catch up either.
                return Err(Error::Io(format!(
                    "follower watermark {w} predates segment {first_available} and no snapshot \
                     bridges the gap"
                )));
            }
            Ok(ShipResponse::Behind {
                first_available,
                snapshot_lsn: image_lsn,
                term,
            })
        };

        // Resolve the segment to ship from.
        let target: Option<(u64, Option<segment::SegmentMeta>)> = if req.seg_first == 0 {
            if req.watermark + 1 < first_available {
                return behind(req.watermark);
            }
            sealed
                .iter()
                .find(|m| m.last_lsn > req.watermark)
                .map(|m| (m.first_lsn, Some(*m)))
                .or_else(|| (last_committed > req.watermark).then_some((live_first, None)))
        } else {
            sealed
                .iter()
                .find(|m| m.first_lsn == req.seg_first)
                .map(|m| (m.first_lsn, Some(*m)))
                .or_else(|| (req.seg_first == live_first).then_some((live_first, None)))
        };
        let Some((first, meta)) = target else {
            if req.seg_first == 0 {
                return Ok(ShipResponse::CaughtUp {
                    lsn: last_committed,
                    term,
                });
            }
            if req.seg_first < first_available {
                return behind(req.watermark); // retention outran the follower
            }
            return Err(Error::Io(format!(
                "follower asks for unknown segment {} (live is {})",
                req.seg_first, live_first
            )));
        };

        let committed_len = meta.map(|m| m.data_len).unwrap_or(live_len);
        if req.offset > committed_len {
            return Err(Error::Io(format!(
                "follower offset {} beyond committed length {committed_len} of segment {first}",
                req.offset
            )));
        }
        if req.offset == committed_len {
            return Ok(match meta {
                // The follower has every data byte; tell it to seal and
                // advance to the next segment.
                Some(m) => ShipResponse::Chunk(ShipChunk {
                    seg_first: first,
                    offset: req.offset,
                    bytes: Vec::new(),
                    crc: record::crc32(&[]),
                    seal: Some(SegmentSeal {
                        last_lsn: m.last_lsn,
                        data_len: m.data_len,
                        data_crc: m.data_crc,
                        term: m.term,
                    }),
                    leader_lsn: last_committed,
                    term,
                }),
                None => ShipResponse::CaughtUp {
                    lsn: last_committed,
                    term,
                },
            });
        }

        // Committed bytes below `committed_len` are immutable (appends
        // only grow them; rollbacks only shrink *un*committed bytes), so
        // this read races nothing. The file can still vanish under us if
        // retention just retired it — surfaced as an error the follower
        // retries into a `Behind`. Only the window past the follower's
        // offset is read, not the whole segment.
        let path = segment::path(&dir, first);
        let mut window = vec![0u8; (committed_len - req.offset) as usize];
        File::open(&path)
            .and_then(|f| f.read_exact_at(&mut window, req.offset))
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => Error::Io(format!(
                    "{}: shorter than its committed length",
                    path.display()
                )),
                _ => io_err(&format!("read {}", path.display()), e),
            })?;
        // Cut at a commit-frame boundary: whole remainder when it fits
        // (committed length is always a unit boundary), else the largest
        // prefix of whole units within the budget — at least one.
        let cut = if window.len() as u64 <= max_bytes {
            committed_len
        } else {
            let scan = wal::scan_bytes(&window, req.offset);
            let Some(first_unit) = scan.units.first() else {
                return Err(Error::Io(format!(
                    "{}: no complete unit at offset {} — leader log damaged?",
                    path.display(),
                    req.offset
                )));
            };
            let mut cut = first_unit.end_offset;
            for u in &scan.units {
                if u.end_offset - req.offset <= max_bytes {
                    cut = u.end_offset;
                } else {
                    break;
                }
            }
            cut
        };
        let mut bytes = window;
        bytes.truncate((cut - req.offset) as usize);
        let crc = record::crc32(&bytes);
        let seal = meta.filter(|m| cut == m.data_len).map(|m| SegmentSeal {
            last_lsn: m.last_lsn,
            data_len: m.data_len,
            data_crc: m.data_crc,
            term: m.term,
        });
        Ok(ShipResponse::Chunk(ShipChunk {
            seg_first: first,
            offset: req.offset,
            bytes,
            crc,
            seal,
            leader_lsn: last_committed,
            term,
        }))
    }

    /// The image history rests on as a shippable blob
    /// ([`snapshot::image_bytes`]), for bootstrapping a follower that fell
    /// below the retention horizon. An error before the first snapshot.
    pub fn snapshot_blob(&self) -> Result<SnapshotBlob> {
        let (dir, lsn) = {
            let g = self.inner.lock().expect("store mutex");
            (g.dir.clone(), g.image_lsn)
        };
        if lsn == 0 {
            return Err(Error::Io("leader has no snapshot to bootstrap from".into()));
        }
        let bytes = snapshot::image_bytes(&dir, lsn)?;
        Ok(SnapshotBlob { lsn, bytes })
    }

    fn buffer(&self, payload: &Payload) {
        let mut g = self.inner.lock().expect("store mutex");
        if g.poisoned.is_some() {
            // Nothing buffered here can ever reach disk; accumulating it
            // (rewrite records are whole network images) would only grow
            // memory without bound on a long-running session.
            return;
        }
        let lsn = g.next_lsn;
        g.next_lsn += 1;
        let mut buf = std::mem::take(&mut g.buf);
        let before = buf.len();
        encode_into(&mut buf, lsn, payload);
        // A record the scanner would reject as oversized must never be
        // acknowledged: drop it from the unit now and fail the unit's
        // commit instead (the file stays untouched either way).
        if buf.len() - before > record::MAX_RECORD + record::FRAME_HEADER {
            buf.truncate(before);
            g.unit_error = Some(format!(
                "record at lsn {lsn} exceeds MAX_RECORD ({} bytes)",
                record::MAX_RECORD
            ));
        } else {
            g.buf_records += 1;
        }
        g.buf = buf;
    }
}

/// The shape of the on-disk log (see [`Store::layout`]).
#[derive(Debug, Clone)]
pub struct LogLayout {
    /// Sealed segments, ascending.
    pub sealed: Vec<segment::SegmentMeta>,
    /// First LSN of the live segment.
    pub live_first_lsn: u64,
    /// Committed bytes in the live segment.
    pub live_len: u64,
    /// LSN of the last durable commit frame.
    pub last_committed: u64,
}

/// Retention, leader and follower alike: unlinks the sealed segments
/// wholly at or below `floor` and drops them from `sealed` and the
/// manifest; returns how many went and the bytes they held.
pub(crate) fn retire_below(
    dir: &Path,
    sealed: &mut Vec<segment::SegmentMeta>,
    floor: u64,
) -> Result<(u64, u64)> {
    let mut segments = 0u64;
    let mut bytes = 0u64;
    let mut kept = Vec::with_capacity(sealed.len());
    for m in std::mem::take(sealed) {
        if m.last_lsn <= floor {
            match std::fs::remove_file(segment::path(dir, m.first_lsn)) {
                Ok(()) => {
                    segments += 1;
                    bytes += m.data_len + segment::FOOTER_LEN as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    segments += 1;
                }
                // Couldn't unlink: keep it listed and retry next pass.
                Err(_) => kept.push(m),
            }
        } else {
            kept.push(m);
        }
    }
    *sealed = kept;
    if segments > 0 {
        // The manifest must stop listing the retired segments, and the
        // unlinks must survive a power loss (write_manifest syncs the
        // directory).
        segment::write_manifest(dir, sealed)?;
    }
    Ok((segments, bytes))
}

/// Seals the live segment (footer + fsync), updates the manifest, and
/// opens a fresh live segment at the next LSN. Returns `Err(reason)` only
/// for states the store cannot safely continue from (the caller poisons);
/// a cleanly rolled-back footer append just skips this rotation.
fn rotate_locked(g: &mut Inner) -> std::result::Result<(), String> {
    let meta = segment::SegmentMeta {
        first_lsn: g.seg_first,
        last_lsn: g.last_committed,
        data_len: g.seg_len,
        data_crc: g.seg_crc.finish(),
        term: g.term,
    };
    let footer = segment::encode_footer(&meta);
    if let Err(e) = g.seg.write_all(&footer).and_then(|()| g.seg.sync_data()) {
        // The footer may be torn at the physical EOF; roll the file back
        // to the committed boundary and stay live — rotation simply
        // retries at the next commit.
        return match g.seg.set_len(g.seg_len).and_then(|()| g.seg.sync_data()) {
            Ok(()) => Ok(()),
            Err(t) => Err(format!("seal failed ({e}) and rollback failed ({t})")),
        };
    }
    g.sealed.push(meta);
    if let Err(e) = segment::write_manifest(&g.dir, &g.sealed) {
        return Err(format!("manifest update after seal failed: {e}"));
    }
    let first = g.next_lsn;
    let path = segment::path(&g.dir, first);
    let f = match OpenOptions::new().create_new(true).append(true).open(&path) {
        Ok(f) => f,
        Err(e) => return Err(format!("create {}: {e}", path.display())),
    };
    if let Err(e) = sync_dir(&g.dir) {
        return Err(format!("sync dir after rotation: {e}"));
    }
    g.seg = f;
    g.seg_first = first;
    g.seg_len = 0;
    g.seg_crc = Crc32::new();
    g.counters.segments_sealed += 1;
    Ok(())
}

impl Durability for Store {
    fn record_user(&mut self, name: &str) {
        self.buffer(&Payload::NewUser(name.to_owned()));
    }

    fn record_value(&mut self, name: &str) {
        self.buffer(&Payload::NewValue(name.to_owned()));
    }

    fn record_edit(&mut self, edit: &SignedEdit) {
        self.buffer(&Payload::Edit(edit.clone()));
    }

    fn record_rewrite(&mut self, net: &TrustNetwork) {
        // Binary network image: total over every legal network (arbitrary
        // names, co-finite constraints), unlike the text format.
        let mut image = Vec::with_capacity(64 + 32 * net.user_count());
        snapshot::encode_net_into(&mut image, net);
        self.buffer(&Payload::Rewrite(image));
    }

    fn commit(&mut self) -> Result<u64> {
        let mut g = self.inner.lock().expect("store mutex");
        if let Some(observed) = g.fenced {
            // A deposed leader must never extend its chain: the promoted
            // follower owns every term above ours. Like the poisoned
            // path, the buffered unit is dropped (it can never reach
            // disk) and the commit is refused; unlike poisoning, the
            // store keeps serving reads and ship requests.
            g.buf.clear();
            g.buf_records = 0;
            g.unit_error = None;
            g.counters.fenced_commits += 1;
            return Err(Error::Fenced {
                observed,
                ours: g.term,
            });
        }
        if let Some(why) = g.poisoned.clone() {
            g.buf.clear();
            g.buf_records = 0;
            return Err(Error::Io(format!("store is poisoned: {why}")));
        }
        if let Some(why) = g.unit_error.take() {
            // The unit is lost but its effects live on in the session, so
            // later units would build on unlogged state: poison.
            g.buf.clear();
            g.buf_records = 0;
            g.poisoned = Some(why.clone());
            return Err(Error::Io(why));
        }
        if g.buf_records == 0 {
            return Ok(g.last_committed); // no empty commit frames
        }
        let lsn = g.next_lsn;
        g.next_lsn += 1;
        let records = g.buf_records;
        let mut buf = std::mem::take(&mut g.buf);
        g.buf_records = 0;
        encode_into(&mut buf, lsn, &Payload::Commit { records });
        // One append + one fsync per unit, torn tails roll back whole:
        // either the commit frame lands (unit durable) or it does not
        // (unit rolls back at recovery).
        let outcome = g
            .seg
            .write_all(&buf)
            .and_then(|()| g.seg.sync_data())
            .map_err(|e| io_err("append to wal", e));
        match outcome {
            Ok(()) => {
                g.seg_len += buf.len() as u64;
                g.seg_crc.update(&buf);
                g.last_committed = lsn;
                if g.parked > 0 {
                    self.committed.notify_all();
                }
                g.counters.fsync_count += 1;
                g.counters.units_committed += 1;
                g.counters.records_appended += records as u64;
                if g.seg_len >= g.rotate_bytes {
                    if let Err(why) = rotate_locked(&mut g) {
                        // The unit is durable (return Ok), but the log
                        // file state is no longer appendable: poison.
                        g.poisoned = Some(why);
                    }
                }
                Ok(lsn)
            }
            Err(e) => {
                // A partial append may have left garbage at the physical
                // EOF; roll the file back to the last committed boundary
                // so nothing can ever land after it. Either way the unit
                // is lost while its effects live on in the session, so
                // the store poisons: a later acknowledged commit would
                // reference state the log never captured and make the
                // store unrecoverable.
                let rolled = g.seg.set_len(g.seg_len).and_then(|()| g.seg.sync_data());
                g.poisoned = Some(match rolled {
                    Ok(()) => format!("append failed ({e}); the session is ahead of the log"),
                    Err(trunc) => format!(
                        "append failed ({e}) and rollback to byte {} failed ({trunc})",
                        g.seg_len
                    ),
                });
                Err(e)
            }
        }
    }

    fn last_committed_lsn(&self) -> u64 {
        Store::last_committed_lsn(self)
    }
}

/// Replays one committed unit into `session` through the typed (delta)
/// session APIs, so the incremental engines do region-sized work per unit
/// instead of full re-resolutions. Returns the number of typed edits
/// applied.
///
/// Engine-level errors (e.g. a trust edit that introduced tied priorities
/// under the skeptic pipeline) are *not* failures here: the original
/// session kept the edit in its network and surfaced the error on read,
/// and replay reproduces exactly that state. Network-level failures, on
/// the other hand, mean the log is inconsistent and abort recovery.
pub(crate) fn replay_unit(session: &mut Session, unit: &wal::Unit) -> Result<usize> {
    let (rewrite, ops) = split_rewrite(unit)?;
    if let Some(net) = rewrite {
        // The rewrite supersedes the session wholesale, but its epoch
        // slot must survive: replica readers (and the serve frontend)
        // hold clones of it, and publications continue the same counter.
        let slot = session.epoch_slot();
        *session = Session::new(net);
        session.adopt_epoch_slot(slot);
    }
    if ops.is_empty() {
        return Ok(0);
    }
    // Engine errors leave the session consistent at the network level;
    // reads surface them again exactly like the original session did.
    let _ = session.begin_batch();
    let mut edits = 0;
    for op in ops {
        let applied: Result<()> = match &op.payload {
            Payload::NewUser(name) => {
                session.user(name);
                Ok(())
            }
            Payload::NewValue(name) => {
                session.value(name);
                Ok(())
            }
            Payload::Edit(edit) => {
                edits += 1;
                match edit {
                    SignedEdit::Believe(u, v) => session.believe(*u, *v),
                    SignedEdit::Revoke(u) => session.revoke(*u),
                    SignedEdit::Trust {
                        child,
                        parent,
                        priority,
                    } => session.trust(*child, *parent, *priority),
                    SignedEdit::Reject(u, neg) => session.reject(*u, neg.clone()),
                }
            }
            // Rewrites were split off above; commit frames never appear
            // inside a unit's ops.
            Payload::Rewrite(_) | Payload::Commit { .. } => Ok(()),
        };
        applied.map_err(|e| Error::Io(format!("lsn {}: replay failed: {e}", op.lsn)))?;
    }
    let _ = session.commit();
    Ok(edits)
}

/// Decodes a rewrite record's binary network image (must consume it
/// exactly).
fn decode_rewrite(image: &[u8]) -> Option<TrustNetwork> {
    let mut r = record::Reader::new(image);
    let net = snapshot::decode_net(&mut r)?;
    r.done().then_some(net)
}

/// Splits a unit at its last rewrite record — which supersedes everything
/// before it — returning the decoded superseding network (if any) and the
/// records that follow. The single definition of the rule, shared by
/// session replay and [`cold_replay`].
fn split_rewrite(unit: &wal::Unit) -> Result<(Option<TrustNetwork>, &[Record])> {
    match unit
        .ops
        .iter()
        .rposition(|r| matches!(r.payload, Payload::Rewrite(_)))
    {
        Some(i) => {
            let Payload::Rewrite(image) = &unit.ops[i].payload else {
                unreachable!("rposition matched a rewrite");
            };
            let net = decode_rewrite(image).ok_or_else(|| {
                Error::Io(format!("lsn {}: corrupt rewrite image", unit.ops[i].lsn))
            })?;
            Ok((Some(net), &unit.ops[i + 1..]))
        }
        None => Ok((None, &unit.ops[..])),
    }
}

/// Convenience for tooling: scans the whole segment chain of `dir` from
/// its first segment (ignoring snapshots), returning every committed unit
/// plus tail status. Offsets in the result are *logical* — bytes into the
/// concatenated data of the chain. A directory still on the legacy
/// single-file layout scans `wal.log` directly.
pub fn scan_store_wal(dir: impl AsRef<Path>) -> Result<wal::WalScan> {
    let dir = dir.as_ref();
    let files = segment::list_files(dir).map_err(|e| io_err("list segments", e))?;
    if files.is_empty() {
        let legacy = dir.join(WAL_FILE);
        return wal::scan_file(&legacy, 0)
            .map_err(|e| io_err(&format!("scan {}", legacy.display()), e));
    }
    let mut all = Vec::new();
    let mut chain_stop: Option<&'static str> = None;
    let mut expected: Option<u64> = None;
    for (idx, (first, path)) in files.iter().enumerate() {
        if expected.is_some_and(|exp| *first != exp) {
            chain_stop = Some("log chain gap (missing or overlapping segment)");
            break;
        }
        let seg =
            segment::read(path).map_err(|e| io_err(&format!("read {}", path.display()), e))?;
        match seg.footer {
            Some(meta) => {
                if record::crc32(&seg.data) != meta.data_crc {
                    chain_stop = Some("sealed segment data CRC mismatch");
                    break;
                }
                all.extend_from_slice(&seg.data);
                expected = Some(meta.last_lsn + 1);
            }
            None => {
                if idx + 1 != files.len() {
                    chain_stop = Some("unsealed segment in the middle of the chain");
                    break;
                }
                all.extend_from_slice(&seg.data);
                expected = None;
            }
        }
    }
    let mut scan = wal::scan_bytes(&all, 0);
    if scan.stop.is_none() {
        scan.stop = chain_stop;
    }
    Ok(scan)
}

/// Rebuilds the network cold — replaying the *entire* log from genesis
/// into a bare [`TrustNetwork`] (no snapshot, no incremental engines).
/// This is the "re-run from history" baseline `recovery_bench` compares
/// recovery against, and a handy integrity check for tooling. Errors when
/// retention has dropped the genesis prefix (open the store with
/// [`StoreOptions::retain_on_snapshot`] off to keep cold replay possible).
pub fn cold_replay(dir: impl AsRef<Path>) -> Result<(TrustNetwork, u64)> {
    let dir = dir.as_ref();
    let files = segment::list_files(dir).map_err(|e| io_err("list segments", e))?;
    if let Some((first, _)) = files.first() {
        if *first != 1 {
            return Err(Error::Io(format!(
                "history below lsn {first} was retired; cold replay needs the full log"
            )));
        }
    }
    let scan = scan_store_wal(dir)?;
    let mut net = TrustNetwork::new();
    for unit in &scan.units {
        let (rewrite, ops) = split_rewrite(unit)?;
        if let Some(image) = rewrite {
            net = image;
        }
        for op in ops {
            apply_to_net(&mut net, op)
                .map_err(|e| Error::Io(format!("lsn {}: cold replay failed: {e}", op.lsn)))?;
        }
    }
    Ok((net, scan.last_lsn))
}

/// The committed bytes of every segment in `dir`, keyed by `first_lsn`:
/// sealed segments contribute their full file (data + footer), the live
/// segment only its committed prefix. This is the replication oracle's
/// byte-identity witness — a correct follower's segments are always equal
/// to (a prefix of) the leader's same-named segments.
pub fn committed_log(dir: impl AsRef<Path>) -> Result<Vec<(u64, Vec<u8>)>> {
    let dir = dir.as_ref();
    let mut out = Vec::new();
    for (first, path) in segment::list_files(dir).map_err(|e| io_err("list segments", e))? {
        let raw =
            std::fs::read(&path).map_err(|e| io_err(&format!("read {}", path.display()), e))?;
        let seg = segment::split_footer(raw.clone());
        match seg.footer {
            Some(_) => out.push((first, raw)),
            None => {
                let scan = wal::scan_bytes(&seg.data, 0);
                let mut data = seg.data;
                data.truncate(scan.end_offset as usize);
                out.push((first, data));
            }
        }
    }
    Ok(out)
}

fn apply_to_net(net: &mut TrustNetwork, op: &Record) -> Result<()> {
    match &op.payload {
        Payload::NewUser(name) => {
            net.user(name);
            Ok(())
        }
        Payload::NewValue(name) => {
            net.value(name);
            Ok(())
        }
        Payload::Edit(SignedEdit::Believe(u, v)) => net.believe(*u, *v),
        Payload::Edit(SignedEdit::Revoke(u)) => net.revoke(*u),
        Payload::Edit(SignedEdit::Trust {
            child,
            parent,
            priority,
        }) => net.trust(*child, *parent, *priority),
        Payload::Edit(SignedEdit::Reject(u, neg)) => net.reject(*u, neg.clone()),
        Payload::Rewrite(_) | Payload::Commit { .. } => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("trustmap-store-lib-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A unit that can never reach the log (oversized record) must fail
    /// its commit AND poison the store: the session is ahead of the log,
    /// so acknowledging any later commit would leave an unrecoverable
    /// WAL. A fresh open re-anchors on what actually reached disk.
    #[test]
    fn lost_units_poison_the_store_until_reopen() {
        let dir = fresh_dir("poison");
        let mut r = Store::open(&dir).expect("open empty");
        let alice = r.session.user("alice");
        let v = r.session.value("v");
        r.session.believe(alice, v).expect("durable edit");
        let committed = r.store.last_committed_lsn();

        // An interned name so large its record exceeds MAX_RECORD.
        let huge = "x".repeat(record::MAX_RECORD + 1);
        r.session.user(&huge);
        let err = r.session.believe(alice, v);
        assert!(
            matches!(err, Err(Error::Io(ref m)) if m.contains("MAX_RECORD")),
            "oversized unit must fail its commit, got {err:?}"
        );
        // Every further commit is refused — no acknowledgement can build
        // on the lost unit.
        let err = r.session.believe(alice, v);
        assert!(
            matches!(err, Err(Error::Io(ref m)) if m.contains("poisoned")),
            "store must stay poisoned, got {err:?}"
        );
        assert_eq!(r.store.last_committed_lsn(), committed);
        drop(r);

        // Reopen: the log is clean up to the last acknowledged commit.
        let back = Store::open(&dir).expect("recovers");
        assert_eq!(back.stats.last_lsn, committed);
        assert!(back.session.network().find_user(&huge).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Small rotation threshold: edits seal segments; recovery walks the
    /// chain back to the identical session; retention after a snapshot
    /// reclaims everything below the watermark but never the live
    /// segment.
    #[test]
    fn rotation_recovery_and_retention() {
        let dir = fresh_dir("rotate");
        let opts = StoreOptions {
            rotate_bytes: 256,
            retain_on_snapshot: true,
        };
        let mut r = Store::open_with(&dir, opts).expect("open empty");
        let users: Vec<_> = (0..8).map(|i| r.session.user(&format!("u{i}"))).collect();
        let v = r.session.value("v");
        for round in 0..20 {
            for &u in &users {
                r.session.believe(u, v).expect("edit");
                let _ = round;
            }
        }
        let counters = r.store.counters();
        assert!(
            counters.segments_sealed >= 2,
            "256-byte threshold must rotate: {counters:?}"
        );
        let layout = r.store.layout();
        assert_eq!(
            layout.sealed.len() as u64,
            counters.segments_sealed,
            "every seal is listed"
        );
        // Chain density: each sealed segment starts right after its
        // predecessor ends, and the live segment continues the chain.
        let mut expect = 1;
        for m in &layout.sealed {
            assert_eq!(m.first_lsn, expect);
            expect = m.last_lsn + 1;
        }
        assert_eq!(layout.live_first_lsn, expect);
        let rendered = trustmap_core::format::render_network(r.session.network());
        drop(r);

        // Recovery without a snapshot replays the whole chain.
        let r = Store::open_with(&dir, opts).expect("recover chain");
        assert_eq!(
            trustmap_core::format::render_network(r.session.network()),
            rendered
        );
        assert_eq!(r.stats.sealed_segments as u64, counters.segments_sealed);

        // Snapshot + retention: every sealed segment is below the
        // watermark, so all of them go; the live segment stays.
        let sealed_before = r.store.layout().sealed.len();
        assert!(sealed_before > 0);
        r.store.snapshot_now(&r.session).expect("snapshot");
        let after = r.store.layout();
        assert!(after.sealed.is_empty(), "retired: {:?}", after.sealed);
        let c = r.store.counters();
        assert_eq!(c.segments_retired as usize, sealed_before);
        assert!(c.bytes_retired > 0);
        assert!(segment::path(&dir, after.live_first_lsn).exists());
        drop(r);

        // And recovery from snapshot + live tail still lands identically.
        let r = Store::open_with(&dir, opts).expect("recover post-retention");
        assert_eq!(
            trustmap_core::format::render_network(r.session.network()),
            rendered
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A legacy single-file layout (wal.log) migrates to the segment
    /// starting at LSN 1 and recovers identically.
    #[test]
    fn legacy_wal_log_migrates() {
        let dir = fresh_dir("legacy");
        let rendered = {
            let mut r = Store::open(&dir).expect("open empty");
            let a = r.session.user("alice");
            let v = r.session.value("v");
            r.session.believe(a, v).expect("edit");
            trustmap_core::format::render_network(r.session.network())
        };
        // Rebuild the legacy layout: the segment's bytes under wal.log.
        let seg1 = segment::path(&dir, 1);
        let bytes = std::fs::read(&seg1).unwrap();
        std::fs::remove_file(&seg1).unwrap();
        std::fs::remove_file(dir.join(MANIFEST_FILE)).ok();
        std::fs::write(dir.join(WAL_FILE), &bytes).unwrap();

        let r = Store::open(&dir).expect("migrates");
        assert!(r.stats.warnings.iter().any(|w| w.contains("migrated")));
        assert_eq!(
            trustmap_core::format::render_network(r.session.network()),
            rendered
        );
        assert!(!dir.join(WAL_FILE).exists());
        assert!(seg1.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `planner.tm` left beside the snapshots by an older build (which
    /// persisted planner statistics there) is inert: whatever it holds,
    /// the directory opens to the same state, and nothing reads, writes
    /// or removes the file.
    #[test]
    fn a_legacy_planner_tm_is_ignored() {
        use trustmap_core::{Query, QueryTarget};
        const LEGACY: &str = "planner.tm";
        // The old record: magic + version, then little-endian words, then
        // a CRC32 trailer (v2: 44 words, v1: 50).
        let record = |version: u8, words: u64| {
            let mut bytes = [b"TMSTAT\x00".as_slice(), &[version]].concat();
            for word in 1..=words {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
            let crc = record::crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            bytes
        };
        let state = |r: &mut Recovered| {
            let all = r.session.query(&Query::cert(QueryTarget::All));
            (
                trustmap_core::format::render_network(r.session.network()),
                r.store.last_committed_lsn(),
                all.expect("query").rows,
            )
        };

        // A snapshot plus a WAL tail past it.
        let dir = fresh_dir("legacy-planner");
        let expected = {
            let mut r = Store::open(&dir).expect("open empty");
            let alice = r.session.user("alice");
            let bob = r.session.user("bob");
            let (v, w) = (r.session.value("v"), r.session.value("w"));
            r.session.trust(alice, bob, 10).expect("edit");
            r.session.believe(bob, v).expect("edit");
            r.store.snapshot_now(&r.session).expect("snapshot");
            assert!(!dir.join(LEGACY).exists(), "snapshots write no such file");
            r.session.believe(bob, w).expect("edit");
            state(&mut r)
        };

        for legacy in [record(2, 44), record(1, 50), b"garbage".to_vec()] {
            std::fs::write(dir.join(LEGACY), &legacy).unwrap();
            let mut back = Store::open(&dir).expect("the file is not consulted");
            assert_eq!(state(&mut back), expected);
            assert_eq!(std::fs::read(dir.join(LEGACY)).unwrap(), legacy);
        }
        let back = Store::open(&dir).expect("recovers");
        back.store.snapshot_now(&back.session).expect("snapshot");
        assert_eq!(std::fs::read(dir.join(LEGACY)).unwrap(), b"garbage");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A wait at or above the committed end parks until a commit lands
    /// or its bound passes; one below it returns at once. The counters
    /// tell the two endings apart.
    #[test]
    fn wait_for_commit_parks_until_the_next_commit() {
        let dir = fresh_dir("wait-commit");
        let mut r = Store::open(&dir).expect("open empty");
        let alice = r.session.user("alice");
        let v = r.session.value("v");
        r.session.believe(alice, v).expect("edit");
        let lsn = r.store.last_committed_lsn();

        assert_eq!(r.store.wait_for_commit(lsn - 1, Duration::ZERO), lsn);
        assert_eq!(r.store.counters().ships_parked, 0, "nothing to wait for");
        let bound = Duration::from_millis(50);
        let started = Instant::now();
        assert_eq!(r.store.wait_for_commit(lsn, bound), lsn);
        assert!(started.elapsed() >= bound);
        let c = r.store.counters();
        assert_eq!((c.ships_parked, c.ships_woken), (1, 0), "ran out its bound");

        let waiter = {
            let store = r.store.clone();
            std::thread::spawn(move || store.wait_for_commit(lsn, Duration::from_secs(30)))
        };
        while r.store.counters().ships_parked < 2 {
            std::thread::yield_now();
        }
        r.session.believe(alice, v).expect("edit");
        let woke_at = waiter.join().expect("waiter");
        assert!(woke_at > lsn);
        assert_eq!(woke_at, r.store.last_committed_lsn());
        let c = r.store.counters();
        assert_eq!((c.ships_parked, c.ships_woken), (2, 1), "a commit woke it");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Chunks are positioned reads of the window past the follower's
    /// offset: chained small chunks reassemble the segment exactly, and a
    /// segment file shorter than its committed length is an error, never
    /// a short chunk.
    #[test]
    fn ship_reads_only_the_window_past_the_offset() {
        let dir = fresh_dir("ship-window");
        let mut r = Store::open(&dir).expect("open empty");
        let users: Vec<_> = (0..4).map(|i| r.session.user(&format!("u{i}"))).collect();
        let v = r.session.value("v");
        for &u in &users {
            r.session.believe(u, v).expect("edit");
        }
        let layout = r.store.layout();
        let path = segment::path(&dir, layout.live_first_lsn);
        let mut req = ShipRequest {
            watermark: 0,
            seg_first: layout.live_first_lsn,
            offset: 0,
            max_bytes: 1,
            term: 0,
        };
        let mut shipped = Vec::new();
        while let ShipResponse::Chunk(c) = r.store.ship(&req).expect("ship") {
            assert_eq!(c.offset, req.offset);
            assert_eq!(c.crc, record::crc32(&c.bytes));
            req.offset += c.bytes.len() as u64;
            shipped.extend_from_slice(&c.bytes);
        }
        assert!(req.offset > 0 && shipped.len() as u64 == layout.live_len);
        assert_eq!(shipped, std::fs::read(&path).unwrap());

        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(layout.live_len - 1).unwrap();
        req.offset = 0;
        let err = r.store.ship(&req).expect_err("torn segment");
        assert!(
            matches!(&err, Error::Io(m) if m.contains("shorter than its committed length")),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
