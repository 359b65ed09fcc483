//! The crash-recovery corpus gate (run by the `wal-corpus` CI job).
//!
//! Builds a small corpus of store directories through the real durable
//! `Session` API — positive-only histories, signed histories with a
//! mid-stream snapshot, closure rewrites, and a **multi-segment chain**
//! (small rotation threshold, snapshot mid-chain) — then attacks the
//! on-disk log:
//!
//! * **truncation at every byte offset** of the live segment,
//! * **a bit flip at every byte offset** of every file (live segment,
//!   sealed segments above and below the snapshot watermark, manifest),
//! * **a missing segment** anywhere in the chain,
//!
//! asserting that recovery (a) never panics, (b) lands exactly on the
//! last committed LSN reachable from the damaged directory — or fails
//! loudly when damage hits *sealed* history it still needs — and
//! (c) serves the byte-identical network state recorded at that commit
//! point; never a half batch, never garbage.
//!
//! Single-segment fixtures are attacked in both layouts: as the segment
//! file `wal-…0001.seg` and as a legacy `wal.log` (exercising the
//! migration path on every damaged input).
//!
//! Damage to the newest snapshot after retention has retired the history
//! above the older one must fail recovery loudly, naming the missing LSN
//! range (`history`), never land on an older network.

mod history;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use trustmap_core::{format, NegSet, Session};
use trustmap_store::record::{decode_frame, Framed};
use trustmap_store::{segment, snapshot, wal, SegmentMeta, Store, StoreOptions, WAL_FILE};

static DIRS: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "trustmap-corpus-{}-{tag}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// How a single-segment fixture's damaged log bytes are laid on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// As the segment `wal-…0001.seg` (the modern layout).
    Segment,
    /// As a legacy `wal.log` — recovery must migrate it first and then
    /// land on the same commit point.
    Legacy,
}

/// One corpus entry: the clean files plus the ground truth per commit
/// point.
struct Fixture {
    name: &'static str,
    /// Bytes of the (single, unsealed) segment.
    wal: Vec<u8>,
    /// Snapshot files (name → bytes) present in the clean store.
    snapshots: Vec<(String, Vec<u8>)>,
    /// Rendered network per committed LSN (0 = genesis).
    recorded: BTreeMap<u64, String>,
    /// `(end_offset, lsn)` of every commit frame, ascending.
    frames: Vec<(u64, u64)>,
    /// `(start, end)` byte span of every record in the WAL.
    spans: Vec<(u64, u64)>,
    /// Watermark of the newest snapshot (`(lsn, wal_offset)`, zeros if
    /// none).
    watermark: (u64, u64),
}

/// Records the current commit point of `session` into `recorded`.
fn checkpoint(store: &Store, session: &Session, recorded: &mut BTreeMap<u64, String>) {
    recorded.insert(
        store.last_committed_lsn(),
        format::render_network(session.network()),
    );
}

fn seal(name: &'static str, dir: &Path, recorded: BTreeMap<u64, String>) -> Fixture {
    let wal = fs::read(segment::path(dir, 1)).expect("live segment exists");
    let mut snapshots = Vec::new();
    for entry in fs::read_dir(dir).expect("store dir") {
        let entry = entry.expect("dir entry");
        let file = entry.file_name().to_string_lossy().into_owned();
        if file.starts_with("snapshot-") {
            snapshots.push((file, fs::read(entry.path()).expect("snapshot bytes")));
        }
    }
    let scan = trustmap_store::scan_store_wal(dir).expect("clean scan");
    assert!(scan.stop.is_none(), "{name}: corpus fixture must be clean");
    assert_eq!(scan.uncommitted, 0, "{name}: fixture ends on a commit");
    let frames = scan.units.iter().map(|u| (u.end_offset, u.lsn)).collect();
    let mut spans = Vec::new();
    let mut pos = 0usize;
    while let Framed::Ok { end, .. } = decode_frame(&wal, pos) {
        spans.push((pos as u64, end as u64));
        pos = end;
    }
    assert_eq!(pos, wal.len(), "{name}: span walk covers the whole WAL");
    let watermark = match snapshot::load_latest(dir) {
        (Some(s), _) => (s.lsn, s.wal_offset),
        (None, _) => (0, 0),
    };
    let _ = fs::remove_dir_all(dir);
    Fixture {
        name,
        wal,
        snapshots,
        recorded,
        frames,
        spans,
        watermark,
    }
}

/// Positive-only history: single edits and one explicit batch.
fn fixture_positive() -> Fixture {
    let dir = fresh_dir("positive");
    let mut r = Store::open(&dir).expect("open empty");
    let s = &mut r.session;
    let mut recorded = BTreeMap::new();
    recorded.insert(0, String::new());
    let alice = s.user("alice");
    let bob = s.user("bob");
    let carol = s.user("carol");
    let v1 = s.value("v1");
    let v2 = s.value("v2");
    s.trust(alice, bob, 100).unwrap();
    checkpoint(&r.store, s, &mut recorded);
    s.trust(alice, carol, 50).unwrap();
    checkpoint(&r.store, s, &mut recorded);
    s.believe(bob, v1).unwrap();
    checkpoint(&r.store, s, &mut recorded);
    s.begin_batch().unwrap();
    s.believe(carol, v2).unwrap();
    s.trust(bob, carol, 10).unwrap();
    s.revoke(bob).unwrap();
    s.commit().unwrap();
    checkpoint(&r.store, s, &mut recorded);
    s.believe(bob, v2).unwrap();
    checkpoint(&r.store, s, &mut recorded);
    drop(r);
    seal("positive", &dir, recorded)
}

/// Signed history crossing the sign boundary, with a snapshot midway —
/// so damage before and after the watermark exercises both recovery
/// paths.
fn fixture_signed_with_snapshot() -> Fixture {
    let dir = fresh_dir("signed");
    let mut r = Store::open(&dir).expect("open empty");
    let s = &mut r.session;
    let mut recorded = BTreeMap::new();
    recorded.insert(0, String::new());
    let alice = s.user("alice");
    let bob = s.user("bob");
    let v1 = s.value("v1");
    let v2 = s.value("v2");
    s.trust(alice, bob, 7).unwrap();
    checkpoint(&r.store, s, &mut recorded);
    s.believe(bob, v1).unwrap();
    checkpoint(&r.store, s, &mut recorded);
    s.reject(alice, NegSet::of([v1])).unwrap();
    checkpoint(&r.store, s, &mut recorded);
    r.store.snapshot_now(s).expect("snapshot between commits");
    s.begin_batch().unwrap();
    s.reject(alice, NegSet::of([v2])).unwrap();
    s.believe(bob, v2).unwrap();
    s.commit().unwrap();
    checkpoint(&r.store, s, &mut recorded);
    s.revoke(alice).unwrap(); // back to a positive network
    checkpoint(&r.store, s, &mut recorded);
    drop(r);
    seal("signed", &dir, recorded)
}

/// A closure edit (rewrite record) sandwiched between typed edits.
fn fixture_rewrite() -> Fixture {
    let dir = fresh_dir("rewrite");
    let mut r = Store::open(&dir).expect("open empty");
    let s = &mut r.session;
    let mut recorded = BTreeMap::new();
    recorded.insert(0, String::new());
    let alice = s.user("alice");
    let v1 = s.value("v1");
    s.believe(alice, v1).unwrap();
    checkpoint(&r.store, s, &mut recorded);
    s.apply(|net| {
        let dana = net.user("dana");
        let erin = net.user("erin");
        let v3 = net.value("v3");
        net.trust(dana, erin, 5)?;
        net.believe(erin, v3)
    })
    .unwrap();
    checkpoint(&r.store, s, &mut recorded);
    let dana = s.user("dana");
    s.believe(dana, v1).unwrap();
    checkpoint(&r.store, s, &mut recorded);
    drop(r);
    seal("rewrite", &dir, recorded)
}

impl Fixture {
    /// The commit point a scan of `wal[..cut]` must land on.
    fn expected_after_cut(&self, cut: u64) -> u64 {
        let from_frames = self
            .frames
            .iter()
            .filter(|&&(end, _)| end <= cut)
            .map(|&(_, lsn)| lsn)
            .max()
            .unwrap_or(0);
        from_frames.max(self.watermark.0)
    }

    /// The commit point recovery must land on when the byte at `offset`
    /// is flipped: damage below the snapshot's WAL offset is invisible
    /// (recovery reads from the watermark), otherwise everything from the
    /// record containing `offset` onward is lost.
    fn expected_after_flip(&self, offset: u64) -> u64 {
        if offset < self.watermark.1 {
            return *self.recorded.keys().last().expect("nonempty");
        }
        let record_start = self
            .spans
            .iter()
            .find(|&&(start, end)| start <= offset && offset < end)
            .map(|&(start, _)| start)
            .expect("offset inside some record");
        self.expected_after_cut(record_start)
    }

    /// Materializes a damaged copy in the given layout and checks
    /// recovery against the ground truth.
    fn check(&self, wal: &[u8], expected_lsn: u64, layout: Layout, what: &str) {
        let dir = fresh_dir("trial");
        for (file, bytes) in &self.snapshots {
            fs::write(dir.join(file), bytes).expect("copy snapshot");
        }
        let target = match layout {
            Layout::Segment => segment::path(&dir, 1),
            Layout::Legacy => dir.join(WAL_FILE),
        };
        fs::write(target, wal).expect("write damaged wal");
        let mut recovered = Store::open(&dir)
            .unwrap_or_else(|e| panic!("{}: {what}: recovery errored: {e}", self.name));
        assert_eq!(
            recovered.stats.last_lsn, expected_lsn,
            "{}: {what}: wrong commit point",
            self.name
        );
        let expected_net = &self.recorded[&expected_lsn];
        assert_eq!(
            &format::render_network(recovered.session.network()),
            expected_net,
            "{}: {what}: state is not the lsn-{expected_lsn} commit image",
            self.name
        );
        // Serving must work (and never panic) on the recovered state.
        for u in recovered.session.network().users().collect::<Vec<_>>() {
            recovered
                .session
                .skeptic_cert(u)
                .unwrap_or_else(|e| panic!("{}: {what}: read failed: {e}", self.name));
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

fn corpus() -> Vec<Fixture> {
    vec![
        fixture_positive(),
        fixture_signed_with_snapshot(),
        fixture_rewrite(),
    ]
}

#[test]
fn truncation_at_every_byte_offset_recovers_to_last_commit() {
    for fix in corpus() {
        for cut in 0..=fix.wal.len() {
            let expected = fix.expected_after_cut(cut as u64);
            for layout in [Layout::Segment, Layout::Legacy] {
                fix.check(
                    &fix.wal[..cut],
                    expected,
                    layout,
                    &format!("truncated at {cut} ({layout:?})"),
                );
            }
        }
    }
}

#[test]
fn bit_flip_at_every_byte_offset_recovers_to_a_commit_point() {
    for fix in corpus() {
        for offset in 0..fix.wal.len() {
            let mut damaged = fix.wal.clone();
            damaged[offset] ^= 1 << (offset % 8);
            let expected = fix.expected_after_flip(offset as u64);
            for layout in [Layout::Segment, Layout::Legacy] {
                fix.check(
                    &damaged,
                    expected,
                    layout,
                    &format!("bit flip at {offset} ({layout:?})"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Multi-segment chain attacks
// ---------------------------------------------------------------------

/// One file of the chain fixture.
struct ChainSeg {
    name: String,
    bytes: Vec<u8>,
    /// `None` for the live (unsealed) segment.
    sealed: Option<SegmentMeta>,
}

/// A store directory with several sealed segments, a manifest, and a
/// snapshot taken mid-chain — so the chain has sealed segments wholly
/// below the watermark (recovery skips their data), sealed segments it
/// still needs, and a live tail.
struct ChainFixture {
    segs: Vec<ChainSeg>,
    manifest: Vec<u8>,
    snapshots: Vec<(String, Vec<u8>)>,
    recorded: BTreeMap<u64, String>,
    snapshot_lsn: u64,
    top_lsn: u64,
    /// Commit frames of the live segment: `(end_offset, lsn)`.
    live_frames: Vec<(u64, u64)>,
    /// Record spans of the live segment.
    live_spans: Vec<(u64, u64)>,
    /// Highest sealed LSN (the floor any live-segment damage recovers to).
    sealed_top: u64,
}

fn fixture_chain() -> ChainFixture {
    let dir = fresh_dir("chain");
    let opts = StoreOptions {
        rotate_bytes: 220,
        // Keep every sealed segment on disk: the mid-chain snapshot must
        // not retire the below-watermark history this fixture attacks.
        retain_on_snapshot: false,
    };
    let mut r = Store::open_with(&dir, opts).expect("open empty");
    let mut recorded = BTreeMap::new();
    recorded.insert(0, String::new());
    let users: Vec<_> = (0..4).map(|i| r.session.user(&format!("u{i}"))).collect();
    let vals: Vec<_> = (0..2).map(|i| r.session.value(&format!("v{i}"))).collect();
    r.session.commit().expect("seal the seed");
    checkpoint(&r.store, &r.session, &mut recorded);
    let mut snapshot_lsn = 0;
    for i in 0..36 {
        let u = users[i % users.len()];
        let v = vals[i % vals.len()];
        if i % 5 == 4 {
            let p = users[(i + 1) % users.len()];
            r.session.trust(u, p, 10 + i as i64).expect("edit");
        } else {
            r.session.believe(u, v).expect("edit");
        }
        checkpoint(&r.store, &r.session, &mut recorded);
        if i == 17 {
            snapshot_lsn = r.store.snapshot_now(&r.session).expect("snapshot");
        }
    }
    let top_lsn = r.store.last_committed_lsn();
    let layout = r.store.layout();
    // The attacks below need all three segment classes present.
    assert!(
        layout
            .sealed
            .iter()
            .filter(|m| m.last_lsn <= snapshot_lsn)
            .count()
            >= 2,
        "fixture needs ≥2 sealed segments below the watermark: {layout:?}"
    );
    assert!(
        layout.sealed.iter().any(|m| m.last_lsn > snapshot_lsn),
        "fixture needs a sealed segment above the watermark: {layout:?}"
    );
    assert!(layout.live_len > 0, "fixture needs a non-empty live tail");
    drop(r);

    let mut segs = Vec::new();
    for (first, path) in segment::list_files(&dir).expect("list") {
        let bytes = fs::read(&path).expect("segment bytes");
        let sealed = layout.sealed.iter().find(|m| m.first_lsn == first).copied();
        segs.push(ChainSeg {
            name: segment::file_name(first),
            bytes,
            sealed,
        });
    }
    let live = segs.last().expect("live segment");
    assert!(live.sealed.is_none(), "last segment is live");
    let scan = wal::scan_bytes(&live.bytes, 0);
    assert!(scan.stop.is_none() && scan.uncommitted == 0);
    let live_frames = scan.units.iter().map(|u| (u.end_offset, u.lsn)).collect();
    let mut live_spans = Vec::new();
    let mut pos = 0usize;
    while let Framed::Ok { end, .. } = decode_frame(&live.bytes, pos) {
        live_spans.push((pos as u64, end as u64));
        pos = end;
    }
    assert_eq!(pos, live.bytes.len());
    let sealed_top = layout.sealed.last().expect("sealed").last_lsn;
    let manifest = fs::read(dir.join(trustmap_store::MANIFEST_FILE)).expect("manifest");
    let mut snapshots = Vec::new();
    for entry in fs::read_dir(&dir).expect("store dir") {
        let entry = entry.expect("dir entry");
        let file = entry.file_name().to_string_lossy().into_owned();
        if file.starts_with("snapshot-") {
            snapshots.push((file, fs::read(entry.path()).expect("snapshot bytes")));
        }
    }
    let _ = fs::remove_dir_all(&dir);
    ChainFixture {
        segs,
        manifest,
        snapshots,
        recorded,
        snapshot_lsn,
        top_lsn,
        live_frames,
        live_spans,
        sealed_top,
    }
}

impl ChainFixture {
    /// Writes the clean fixture into a fresh dir, then lets `mutate`
    /// damage it (receives the dir).
    fn materialize(&self, mutate: impl FnOnce(&Path)) -> PathBuf {
        let dir = fresh_dir("chain-trial");
        for (file, bytes) in &self.snapshots {
            fs::write(dir.join(file), bytes).expect("copy snapshot");
        }
        for seg in &self.segs {
            fs::write(dir.join(&seg.name), &seg.bytes).expect("copy segment");
        }
        fs::write(dir.join(trustmap_store::MANIFEST_FILE), &self.manifest).expect("copy manifest");
        mutate(&dir);
        dir
    }

    /// Recovery must land on `expected_lsn` with its recorded state.
    fn check_recovers(&self, dir: &Path, expected_lsn: u64, what: &str) {
        let recovered =
            Store::open(dir).unwrap_or_else(|e| panic!("chain: {what}: recovery errored: {e}"));
        assert_eq!(
            recovered.stats.last_lsn, expected_lsn,
            "chain: {what}: wrong commit point"
        );
        assert_eq!(
            &format::render_network(recovered.session.network()),
            &self.recorded[&expected_lsn],
            "chain: {what}: state is not the lsn-{expected_lsn} commit image"
        );
        let _ = fs::remove_dir_all(dir);
    }

    /// Recovery must refuse — damaged sealed history it still needs.
    fn check_fails_loudly(&self, dir: &Path, what: &str) {
        match Store::open(dir) {
            Err(_) => {}
            Ok(r) => panic!(
                "chain: {what}: damage to needed sealed history must fail loudly, \
                 but recovery landed on lsn {}",
                r.stats.last_lsn
            ),
        }
        let _ = fs::remove_dir_all(dir);
    }

    /// The commit point a cut of the live segment at `cut` recovers to.
    fn expected_live_cut(&self, cut: u64) -> u64 {
        self.live_frames
            .iter()
            .filter(|&&(end, _)| end <= cut)
            .map(|&(_, lsn)| lsn)
            .max()
            .unwrap_or(0)
            .max(self.sealed_top)
    }
}

#[test]
fn chain_live_segment_truncation_at_every_offset() {
    let fix = fixture_chain();
    let live = fix.segs.last().unwrap();
    for cut in 0..=live.bytes.len() {
        let dir = fix.materialize(|d| {
            fs::write(d.join(&live.name), &live.bytes[..cut]).expect("truncate live");
        });
        fix.check_recovers(
            &dir,
            fix.expected_live_cut(cut as u64),
            &format!("live truncated at {cut}"),
        );
    }
}

#[test]
fn chain_bit_flip_at_every_offset_of_every_file() {
    let fix = fixture_chain();
    for seg in &fix.segs {
        for offset in 0..seg.bytes.len() {
            let mut damaged = seg.bytes.clone();
            damaged[offset] ^= 1 << (offset % 8);
            let dir = fix.materialize(|d| {
                fs::write(d.join(&seg.name), &damaged).expect("flip");
            });
            let what = format!("bit flip at {offset} of {}", seg.name);
            match seg.sealed {
                // Sealed history recovery still needs: any flipped bit —
                // data or footer — must refuse, never guess.
                Some(m) if m.last_lsn > fix.snapshot_lsn => fix.check_fails_loudly(&dir, &what),
                // Sealed wholly below the watermark: data bytes are never
                // read (footer-only probe), and a damaged footer retires
                // the file under the snapshot. Either way: full recovery.
                Some(_) => fix.check_recovers(&dir, fix.top_lsn, &what),
                // Live segment: everything from the damaged record on is
                // lost, back to the last sealed LSN at worst.
                None => {
                    let record_start = fix
                        .live_spans
                        .iter()
                        .find(|&&(start, end)| start <= offset as u64 && (offset as u64) < end)
                        .map(|&(start, _)| start)
                        .expect("offset inside some record");
                    fix.check_recovers(&dir, fix.expected_live_cut(record_start), &what);
                }
            }
        }
    }
}

#[test]
fn chain_sealed_segment_truncation() {
    let fix = fixture_chain();
    for seg in &fix.segs {
        let Some(m) = seg.sealed else { continue };
        // Truncation destroys the footer (it no longer sits at EOF), so
        // the manifest's word is the last evidence the segment was
        // sealed: needed history → fail loudly; superseded history →
        // retire and recover fully.
        for cut in [0, seg.bytes.len() / 2, seg.bytes.len() - 1] {
            let dir = fix.materialize(|d| {
                fs::write(d.join(&seg.name), &seg.bytes[..cut]).expect("truncate sealed");
            });
            let what = format!("sealed {} truncated at {cut}", seg.name);
            if m.last_lsn > fix.snapshot_lsn {
                fix.check_fails_loudly(&dir, &what);
            } else {
                fix.check_recovers(&dir, fix.top_lsn, &what);
            }
        }
    }
}

#[test]
fn chain_missing_segment() {
    let fix = fixture_chain();
    for seg in &fix.segs {
        let dir = fix.materialize(|d| {
            fs::remove_file(d.join(&seg.name)).expect("remove segment");
        });
        let what = format!("missing {}", seg.name);
        match seg.sealed {
            // A hole in history recovery still needs: refuse.
            Some(m) if m.last_lsn > fix.snapshot_lsn => fix.check_fails_loudly(&dir, &what),
            // Wholly below the watermark: the snapshot supersedes it.
            Some(_) => fix.check_recovers(&dir, fix.top_lsn, &what),
            // The live tail vanished: recovery lands on the sealed chain.
            None => fix.check_recovers(&dir, fix.sealed_top, &what),
        }
    }
}

#[test]
fn chain_manifest_damage_never_changes_the_outcome() {
    let fix = fixture_chain();
    // The manifest is a rebuildable index: no damage to it may change
    // what recovery lands on (the footers are the source of truth). Most
    // flips are detected (body CRC) and rebuild the manifest with a
    // warning; flips that happen to parse identically (e.g. hex-case in
    // the trailer) are indistinguishable from a clean manifest — either
    // way the outcome is pinned.
    let mut rebuilds = 0;
    for offset in 0..fix.manifest.len() {
        let mut damaged = fix.manifest.clone();
        damaged[offset] ^= 1 << (offset % 8);
        let dir = fix.materialize(|d| {
            fs::write(d.join(trustmap_store::MANIFEST_FILE), &damaged).expect("flip manifest");
        });
        let what = format!("manifest bit flip at {offset}");
        let recovered =
            Store::open(&dir).unwrap_or_else(|e| panic!("chain: {what}: recovery errored: {e}"));
        assert_eq!(recovered.stats.last_lsn, fix.top_lsn, "chain: {what}");
        assert_eq!(
            &format::render_network(recovered.session.network()),
            &fix.recorded[&fix.top_lsn],
            "chain: {what}: state diverged"
        );
        if recovered
            .stats
            .warnings
            .iter()
            .any(|w| w.contains("manifest"))
        {
            rebuilds += 1;
            // The rebuilt manifest must be clean: a second open sees no
            // manifest warnings at all.
            drop(recovered);
            let again = Store::open(&dir).expect("reopen after rebuild");
            assert!(
                !again.stats.warnings.iter().any(|w| w.contains("manifest")),
                "chain: {what}: rebuild left a dirty manifest"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(
        rebuilds > 0,
        "at least some manifest flips must trigger the corrupt-rebuild path"
    );

    // A deleted manifest is rebuilt from footers the same way.
    let dir = fix.materialize(|d| {
        fs::remove_file(d.join(trustmap_store::MANIFEST_FILE)).expect("remove manifest");
    });
    fix.check_recovers(&dir, fix.top_lsn, "manifest removed");
}

#[test]
fn rewrites_survive_exotic_names_and_cofinite_constraints() {
    // Regression: rewrite records were once text-rendered, which cannot
    // represent names with whitespace/'#'/',' or co-finite NegSets — a
    // closure edit on such a network made the store unrecoverable (and
    // text snapshots silently changed constraint semantics).
    let dir = fresh_dir("exotic");
    let mut r = Store::open(&dir).expect("open empty");
    r.session
        .apply(|net| {
            let spaced = net.user("Bob Smith # yes, really");
            let plain = net.user("carol");
            let v = net.value("weird, value");
            net.trust(spaced, plain, 4)?;
            net.believe(plain, v)?;
            net.reject(spaced, NegSet::all_but(v))
        })
        .expect("closure edit");
    r.store.snapshot_now(&r.session).expect("snapshot");
    let expect = format::render_network(r.session.network());
    drop(r);

    // Only the binary snapshot flavor may exist: the text twin would be
    // semantically lossy here.
    assert!(
        fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .all(|e| !e.file_name().to_string_lossy().ends_with(".tn")),
        "no lossy text twin for a text-unfaithful network"
    );

    let mut back = Store::open(&dir).expect("recovers from the rewrite record");
    assert_eq!(format::render_network(back.session.network()), expect);
    let spaced = back.session.user("Bob Smith # yes, really");
    let w = back.session.value("brand new value");
    let cert = back.session.skeptic_cert(spaced).expect("signed read");
    assert!(
        cert.neg.contains(w),
        "co-finite reject must still cover values interned after recovery"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_after_a_torn_tail_keeps_accepting_edits() {
    let fix = fixture_positive();
    // Tear the last record in half.
    let (last_start, last_end) = *fix.spans.last().expect("records");
    let cut = ((last_start + last_end) / 2) as usize;
    let dir = fresh_dir("continue");
    fs::write(segment::path(&dir, 1), &fix.wal[..cut]).expect("torn wal");
    let mut r = Store::open(&dir).expect("recovers");
    assert!(r.stats.dropped_bytes > 0, "the torn tail was truncated");
    // New edits append cleanly after the truncation point…
    let alice = r.session.user("alice");
    let v9 = r.session.value("v9");
    r.session.believe(alice, v9).expect("durable edit");
    let expect = format::render_network(r.session.network());
    drop(r);
    // …and a second recovery sees them.
    let r2 = Store::open(&dir).expect("recovers again");
    assert_eq!(format::render_network(r2.session.network()), expect);
    let _ = fs::remove_dir_all(&dir);
}

/// The leadership term file is hard state: a *missing* `term.tm` is a
/// legitimate pre-failover store (term 0), but a *damaged* one must fail
/// recovery loudly — guessing a term could let a deposed leader re-claim
/// a chain it no longer owns. Attacked like every other file: a bit flip
/// at every byte offset, plus truncation at every length.
#[test]
fn term_file_damage_fails_loudly_and_absence_means_term_zero() {
    let seed = fresh_dir("term-seed");
    {
        let mut r = Store::open(&seed).expect("fresh store");
        let u = r.session.user("alice");
        let v = r.session.value("v0");
        r.session.believe(u, v).expect("edit");
    }
    segment::write_term(&seed, 3).expect("write term");
    let clean = fs::read(seed.join(trustmap_store::TERM_FILE)).expect("term bytes");
    let reopened = Store::open(&seed).expect("clean term file recovers");
    assert_eq!(reopened.store.term(), 3, "term must round-trip recovery");
    drop(reopened);

    let copy_store = |tag: &str| {
        let dir = fresh_dir(tag);
        for entry in fs::read_dir(&seed).expect("read seed") {
            let entry = entry.expect("entry");
            fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy");
        }
        dir
    };

    // Every single-bit flip — in the magic, the term word, or the CRC —
    // must refuse recovery rather than invent a term.
    for offset in 0..clean.len() {
        let dir = copy_store("term-flip");
        let mut damaged = clean.clone();
        damaged[offset] ^= 1 << (offset % 8);
        fs::write(dir.join(trustmap_store::TERM_FILE), &damaged).expect("flip term");
        match Store::open(&dir) {
            Err(_) => {}
            Ok(r) => panic!(
                "term file bit flip at {offset} must fail loudly, but recovery \
                 opened at term {}",
                r.store.term()
            ),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    // Every truncation (a torn write never survives the tmp+rename
    // protocol, but a damaged filesystem could still shorten the file).
    for cut in 0..clean.len() {
        let dir = copy_store("term-cut");
        fs::write(dir.join(trustmap_store::TERM_FILE), &clean[..cut]).expect("cut term");
        assert!(
            Store::open(&dir).is_err(),
            "term file truncated to {cut} bytes must fail loudly"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    // Absence is not damage: deleting the file yields a pre-failover
    // term-0 store (the legacy-migration path).
    let dir = copy_store("term-missing");
    fs::remove_file(dir.join(trustmap_store::TERM_FILE)).expect("remove term");
    let r = Store::open(&dir).expect("missing term file is term 0");
    assert_eq!(r.store.term(), 0);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&seed);
}

/// The snapshot recovery falls back to must still be reachable: with
/// both flavors of the newest snapshot damaged, or its binary damaged on
/// a network the text twin cannot carry, the older snapshot's successor
/// LSNs are retired — recovery refuses and names the range.
#[test]
fn a_damaged_newest_snapshot_above_retired_history_fails_loudly() {
    for damage in [
        history::Damage::BothFlavors,
        history::Damage::BinaryWithoutTwin,
    ] {
        let dir = fresh_dir("damaged-image");
        let missing = history::damaged_newest_snapshot(&dir, damage);
        match Store::open(&dir) {
            Err(e) => assert!(
                e.to_string().contains(&missing),
                "{damage:?}: the error must name {missing}: {e}"
            ),
            Ok(r) => panic!(
                "{damage:?}: recovery landed on lsn {} from snapshot {} with {missing} retired",
                r.stats.last_lsn, r.stats.snapshot_lsn
            ),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
