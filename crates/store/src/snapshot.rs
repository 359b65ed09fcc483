//! Snapshots: a full network image plus the LSN watermark and WAL offset
//! recovery resumes from.
//!
//! Every snapshot is written in two flavors side by side:
//!
//! * `snapshot-<lsn>.bin` — the compact binary form (magic, watermark,
//!   interning tables, mappings, beliefs, trailing CRC32). This is what
//!   recovery loads and what `SNAPSHOT` ships: a linear decode with no
//!   per-record framing overhead.
//! * `snapshot-<lsn>.tn` — the debuggable text twin: two `#!` header
//!   lines (watermark + WAL offset) followed by the id-exact
//!   `trustmap_core::format` rendering. `trustmap log`-style tooling and
//!   humans read this one; recovery falls back to it when the binary
//!   flavor is damaged.
//!
//! Both flavors rebuild the *exact* id assignment (users and values in
//! interning order), which WAL tail records rely on. A snapshot is only
//! ever taken at a commit boundary, so `lsn` is always a committed LSN
//! and `wal_offset` points just past that commit frame.
//!
//! History is the *image* [`load_latest`] picks plus a dense segment chain
//! from `image lsn + 1`: a damaged newest snapshot falls back to an older
//! one only while the chain still reaches it; otherwise recovery fails
//! loudly, naming the missing range.

use crate::record::{crc32, put_i64, put_negset, put_str, put_u32, put_u64, Reader};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use trustmap_core::signed::ExplicitBelief;
use trustmap_core::{format, Error, Mapping, Result, TrustNetwork, User};

/// Magic bytes opening the binary flavor (the trailing byte is a format
/// version).
pub const MAGIC: &[u8; 8] = b"TMSNAP\x00\x01";

/// First line of the text flavor.
pub const TEXT_HEADER: &str = "#!trustmap-snapshot v1";

/// A loaded snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The network image.
    pub net: TrustNetwork,
    /// The committed LSN the image reflects.
    pub lsn: u64,
    /// Byte offset into the WAL just past that commit frame — recovery
    /// replays from here.
    pub wal_offset: u64,
}

fn bin_path(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("snapshot-{lsn:020}.bin"))
}

fn tn_path(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("snapshot-{lsn:020}.tn"))
}

fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::Io(format!("{context}: {e}"))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encodes the complete network (interning tables in id order, mappings
/// in declaration order, beliefs with exact `NegSet`s, a sign-state check
/// byte) — **total** over every legal network, unlike the text format.
/// Also the payload of WAL rewrite records.
pub(crate) fn encode_net_into(buf: &mut Vec<u8>, net: &TrustNetwork) {
    buf.push(net.has_constraints() as u8); // the sign state, as a check byte
    put_u32(buf, net.user_count() as u32);
    for u in net.users() {
        put_str(buf, net.user_name(u));
    }
    put_u32(buf, net.domain().len() as u32);
    for v in net.domain().values() {
        put_str(buf, net.domain().name(v));
    }
    put_u32(buf, net.mapping_count() as u32);
    for m in net.mappings() {
        put_u32(buf, m.child.0);
        put_u32(buf, m.parent.0);
        put_i64(buf, m.priority);
    }
    for u in net.users() {
        match net.belief(u) {
            ExplicitBelief::None => buf.push(0),
            ExplicitBelief::Pos(v) => {
                buf.push(1);
                put_u32(buf, v.0);
            }
            ExplicitBelief::Negs(neg) => {
                buf.push(2);
                put_negset(buf, neg);
            }
        }
    }
}

/// Decodes an [`encode_net_into`] image; `None` on any structural
/// violation (including a sign-state check-byte mismatch). The mappings
/// are declared in one [`TrustNetwork::with_mappings`], so a decode
/// builds no edge index.
pub(crate) fn decode_net(r: &mut Reader<'_>) -> Option<TrustNetwork> {
    let has_constraints = r.u8()? != 0;
    let mut net = TrustNetwork::new();
    let users = r.u32()? as usize;
    for _ in 0..users {
        net.user(r.str()?);
    }
    let values = r.u32()? as usize;
    for _ in 0..values {
        net.value(r.str()?);
    }
    let count = r.u32()? as usize;
    if count > r.remaining() / 16 {
        return None; // more mappings than bytes left to hold them
    }
    let mut mappings = Vec::with_capacity(count);
    for _ in 0..count {
        let child = User(r.u32()?);
        let parent = User(r.u32()?);
        let priority = r.i64()?;
        mappings.push(Mapping {
            parent,
            child,
            priority,
        });
    }
    let mut net = net.with_mappings(mappings).ok()?;
    for i in 0..users {
        let u = User(i as u32);
        match r.u8()? {
            0 => {}
            1 => net.believe(u, trustmap_core::Value(r.u32()?)).ok()?,
            2 => net.reject(u, r.negset()?).ok()?,
            _ => return None,
        }
    }
    if net.has_constraints() != has_constraints {
        return None;
    }
    Some(net)
}

pub(crate) fn encode(net: &TrustNetwork, lsn: u64, wal_offset: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + 32 * net.user_count());
    buf.extend_from_slice(MAGIC);
    put_u64(&mut buf, lsn);
    put_u64(&mut buf, wal_offset);
    encode_net_into(&mut buf, net);
    let crc = crc32(&buf[MAGIC.len()..]);
    put_u32(&mut buf, crc);
    buf
}

/// The CRC-checked body of a binary snapshot (watermark onward); `None`
/// when the magic or the CRC trailer does not match.
fn checked_body(bytes: &[u8]) -> Option<&[u8]> {
    let body = bytes.strip_prefix(MAGIC.as_slice())?;
    let (body, crc_bytes) = body.split_at(body.len().checked_sub(4)?);
    let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    (crc32(body) == crc).then_some(body)
}

pub(crate) fn decode(bytes: &[u8]) -> Option<Snapshot> {
    let mut r = Reader::new(checked_body(bytes)?);
    let lsn = r.u64()?;
    let wal_offset = r.u64()?;
    let net = decode_net(&mut r)?;
    if !r.done() {
        return None;
    }
    Some(Snapshot {
        net,
        lsn,
        wal_offset,
    })
}

/// Whether the text format represents `net` losslessly: every name must
/// survive whitespace tokenization, and constraints must be finite (the
/// text `reject` line enumerates values, so co-finite sets cannot round
/// trip). The binary flavor is always total; the text twin is only
/// written when it would be faithful.
pub(crate) fn text_faithful(net: &TrustNetwork) -> bool {
    let ok_name = |s: &str| {
        !s.is_empty() && !s.contains(char::is_whitespace) && !s.contains('#') && !s.contains(',')
    };
    net.users().all(|u| ok_name(net.user_name(u)))
        && net.domain().values().all(|v| ok_name(net.domain().name(v)))
        && net
            .users()
            .all(|u| !matches!(net.belief(u), ExplicitBelief::Negs(neg) if matches!(neg, trustmap_core::NegSet::CoFinite(_))))
}

fn encode_text(net: &TrustNetwork, lsn: u64, wal_offset: u64) -> String {
    format!(
        "{TEXT_HEADER}\n#!lsn {lsn}\n#!wal-offset {wal_offset}\n{}",
        format::render_network(net)
    )
}

fn decode_text(text: &str) -> Option<Snapshot> {
    let mut lines = text.lines();
    if lines.next()? != TEXT_HEADER {
        return None;
    }
    let lsn = lines.next()?.strip_prefix("#!lsn ")?.parse().ok()?;
    let wal_offset = lines.next()?.strip_prefix("#!wal-offset ")?.parse().ok()?;
    let body_start = text.match_indices('\n').nth(2)?.0 + 1;
    let net = format::parse_network(&text[body_start..]).ok()?;
    Some(Snapshot {
        net,
        lsn,
        wal_offset,
    })
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

/// Writes the snapshot for `net` at the committed `lsn` / `wal_offset`
/// watermark; returns the binary path. The debuggable text twin is
/// written alongside only when the text format represents the network
/// losslessly (`text_faithful` — exotic names or co-finite constraints
/// make it binary-only, never a semantically drifted fallback). Files are
/// written to a temporary name and renamed into place, so a crash
/// mid-write never leaves a half snapshot under a valid name.
pub fn write(dir: &Path, net: &TrustNetwork, lsn: u64, wal_offset: u64) -> Result<PathBuf> {
    let write_one = |path: &Path, bytes: &[u8]| -> Result<()> {
        let tmp = path.with_extension("tmp");
        let mut f =
            fs::File::create(&tmp).map_err(|e| io_err(&format!("create {}", tmp.display()), e))?;
        f.write_all(bytes)
            .map_err(|e| io_err(&format!("write {}", tmp.display()), e))?;
        f.sync_data()
            .map_err(|e| io_err(&format!("sync {}", tmp.display()), e))?;
        drop(f);
        fs::rename(&tmp, path)
            .map_err(|e| io_err(&format!("rename into {}", path.display()), e))?;
        Ok(())
    };
    let bin = bin_path(dir, lsn);
    write_one(&bin, &encode(net, lsn, wal_offset))?;
    let tn = tn_path(dir, lsn);
    if text_faithful(net) {
        write_one(&tn, encode_text(net, lsn, wal_offset).as_bytes())?;
    } else {
        // Never leave a stale twin from an earlier faithful state at the
        // same lsn behind as a plausible-looking fallback.
        let _ = fs::remove_file(&tn);
    }
    // The renames must survive a power loss along with the file contents.
    crate::sync_dir(dir)?;
    Ok(bin)
}

/// All snapshot LSNs present in `dir` (either flavor), descending.
fn list(dir: &Path) -> Vec<u64> {
    let mut lsns: Vec<u64> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_str()?;
                let rest = name.strip_prefix("snapshot-")?;
                let lsn = rest.strip_suffix(".bin").or(rest.strip_suffix(".tn"))?;
                lsn.parse().ok()
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    lsns.sort_unstable();
    lsns.dedup();
    lsns.reverse();
    lsns
}

/// Loads the image: the newest snapshot in `dir` that loads — binary
/// flavor first, its text twin if the binary is damaged, then older
/// snapshots — and a warning per damaged file skipped on the way.
/// Recovery refuses an image the segment chain no longer reaches.
pub fn load_latest(dir: &Path) -> (Option<Snapshot>, Vec<String>) {
    let mut warnings = Vec::new();
    for lsn in list(dir) {
        for (path, is_bin) in [(bin_path(dir, lsn), true), (tn_path(dir, lsn), false)] {
            match fs::read(&path) {
                Ok(bytes) => {
                    let snap = if is_bin {
                        decode(&bytes)
                    } else {
                        String::from_utf8(bytes)
                            .ok()
                            .as_deref()
                            .and_then(decode_text)
                    };
                    match snap {
                        Some(s) => return (Some(s), warnings),
                        None => {
                            warnings.push(format!("{}: corrupt snapshot, skipped", path.display()))
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => warnings.push(format!("{}: {e}", path.display())),
            }
        }
    }
    (None, warnings)
}

/// The image at `lsn` for shipping: its `.bin` bytes once they pass the
/// magic + CRC check, else its text twin encoded once — never an older
/// snapshot; an error names an image neither flavor of which verifies.
pub fn image_bytes(dir: &Path, lsn: u64) -> Result<Vec<u8>> {
    let bin = bin_path(dir, lsn);
    let bytes = fs::read(&bin).unwrap_or_default();
    if checked_body(&bytes).and_then(|b| Reader::new(b).u64()) == Some(lsn) {
        return Ok(bytes);
    }
    let twin = fs::read_to_string(tn_path(dir, lsn)).ok();
    match twin.as_deref().and_then(decode_text) {
        Some(twin) if twin.lsn == lsn => Ok(encode(&twin.net, lsn, twin.wal_offset)),
        _ => Err(Error::Io(format!(
            "snapshot image at lsn {lsn} does not verify ({} is damaged and has no loadable \
             text twin); refusing to ship an older snapshot",
            bin.display()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustmap_core::network::indus_network;
    use trustmap_core::NegSet;

    fn sample() -> TrustNetwork {
        let (mut net, [_, bob, charlie]) = indus_network();
        let jar = net.value("jar");
        let spare = net.value("spare"); // unreferenced: interning must survive
        let _ = spare;
        net.believe(charlie, jar).unwrap();
        net.reject(bob, NegSet::of([jar])).unwrap();
        net
    }

    #[test]
    fn binary_flavor_round_trips_id_exactly() {
        let net = sample();
        let bytes = encode(&net, 17, 4242);
        let snap = decode(&bytes).expect("decodes");
        assert_eq!(snap.lsn, 17);
        assert_eq!(snap.wal_offset, 4242);
        assert_eq!(
            format::render_network(&snap.net),
            format::render_network(&net)
        );
        assert_eq!(snap.net.domain().get("spare"), net.domain().get("spare"));
    }

    #[test]
    fn text_flavor_round_trips() {
        let net = sample();
        let text = encode_text(&net, 9, 100);
        let snap = decode_text(&text).expect("decodes");
        assert_eq!((snap.lsn, snap.wal_offset), (9, 100));
        assert_eq!(
            format::render_network(&snap.net),
            format::render_network(&net)
        );
    }

    #[test]
    fn every_binary_bit_flip_is_rejected_or_equivalent() {
        let net = sample();
        let bytes = encode(&net, 3, 77);
        for byte in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[byte] ^= 0x10;
            if let Some(snap) = decode(&copy) {
                panic!("flip at byte {byte} still decoded (lsn {})", snap.lsn);
            }
        }
    }

    /// A binary image of users `0..users` and `mappings`, no values and
    /// no beliefs, with a valid CRC: what `decode_net`'s own checks see.
    fn image(users: u32, mappings: &[(u32, u32, i64)]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        put_u64(&mut buf, 7);
        put_u64(&mut buf, 99);
        buf.push(0);
        put_u32(&mut buf, users);
        for u in 0..users {
            put_str(&mut buf, &format!("u{u}"));
        }
        put_u32(&mut buf, 0);
        put_u32(&mut buf, mappings.len() as u32);
        for &(child, parent, priority) in mappings {
            put_u32(&mut buf, child);
            put_u32(&mut buf, parent);
            put_i64(&mut buf, priority);
        }
        buf.resize(buf.len() + users as usize, 0);
        let crc = crc32(&buf[MAGIC.len()..]);
        put_u32(&mut buf, crc);
        buf
    }

    #[test]
    fn decode_refuses_a_bad_mapping_behind_a_valid_crc() {
        assert!(decode(&image(3, &[(0, 1, 5), (2, 0, 1)])).is_some());
        assert!(
            decode(&image(3, &[(0, 1, 5), (2, 3, 1)])).is_none(),
            "parent"
        );
        assert!(decode(&image(3, &[(3, 1, 5)])).is_none(), "child");
        assert!(
            decode(&image(3, &[(0, 1, 5), (2, 2, 1)])).is_none(),
            "self-loop"
        );
        // A mapping count larger than the bytes left is refused up front.
        let mut short = image(3, &[(0, 1, 5)]);
        let at = MAGIC.len() + 16 + 1 + 4 + 3 * 6 + 4;
        short[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let body = short.len() - 4;
        let crc = crc32(&short[MAGIC.len()..body]);
        short[body..].copy_from_slice(&crc.to_le_bytes());
        assert!(decode(&short).is_none(), "count");
    }

    #[test]
    fn decode_upserts_a_repeated_mapping() {
        let declared = [
            (0, 1, 5),
            (2, 1, 4),
            (0, 2, 3),
            (0, 1, -2),
            (1, 0, 6),
            (0, 1, 8),
        ];
        let snap = decode(&image(3, &declared)).expect("repeats are legal");
        let mut twin = TrustNetwork::new();
        twin.add_users(3);
        for (child, parent, priority) in declared {
            twin.trust(User(child), User(parent), priority).unwrap();
        }
        assert_eq!(snap.net.mappings(), twin.mappings());
        assert_eq!(snap.net.mapping_count(), 4);
        for child in twin.users() {
            for parent in twin.users() {
                let got = snap.net.priority_of(child, parent);
                assert_eq!(got, twin.priority_of(child, parent));
            }
        }
        // Re-encoding writes the upserted network, not the repeats.
        assert_eq!(encode(&snap.net, 7, 99), encode(&twin, 7, 99));
    }

    #[test]
    fn write_list_load() {
        let dir = std::env::temp_dir().join(format!(
            "trustmap-snap-test-{}-{}",
            std::process::id(),
            line!()
        ));
        fs::create_dir_all(&dir).unwrap();
        let net = sample();
        write(&dir, &net, 5, 10).unwrap();
        write(&dir, &net, 9, 20).unwrap();
        assert_eq!(list(&dir), vec![9, 5]);
        let (snap, warnings) = load_latest(&dir);
        assert!(warnings.is_empty());
        assert_eq!(snap.unwrap().lsn, 9);
        // Damage the newest binary flavor: the text twin takes over.
        fs::write(bin_path(&dir, 9), b"garbage").unwrap();
        let (snap, warnings) = load_latest(&dir);
        assert_eq!(snap.unwrap().lsn, 9);
        assert_eq!(warnings.len(), 1);
        // Damage the twin too: recovery degrades to the older snapshot.
        fs::write(tn_path(&dir, 9), b"garbage").unwrap();
        let (snap, warnings) = load_latest(&dir);
        assert_eq!(snap.unwrap().lsn, 5);
        assert_eq!(warnings.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `image_bytes` ships the `.bin` file as it lies, re-encodes a
    /// surviving twin to the same bytes, and names an image that no
    /// longer verifies instead of shipping an older one.
    #[test]
    fn image_bytes_ship_the_file_or_its_twin_never_an_older_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "trustmap-snap-test-{}-{}",
            std::process::id(),
            line!()
        ));
        fs::create_dir_all(&dir).unwrap();
        let net = sample();
        write(&dir, &net, 5, 10).unwrap();
        write(&dir, &net, 9, 20).unwrap();
        let clean = fs::read(bin_path(&dir, 9)).unwrap();
        assert_eq!(image_bytes(&dir, 9).unwrap(), clean);
        // Another snapshot's bytes under the image's name do not verify.
        fs::copy(bin_path(&dir, 5), bin_path(&dir, 9)).unwrap();
        assert_eq!(image_bytes(&dir, 9).unwrap(), clean, "from the twin");
        fs::write(bin_path(&dir, 9), b"garbage").unwrap();
        assert_eq!(image_bytes(&dir, 9).unwrap(), clean, "from the twin");
        fs::write(tn_path(&dir, 9), b"garbage").unwrap();
        let err = image_bytes(&dir, 9).unwrap_err().to_string();
        assert!(err.contains("snapshot image at lsn 9"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
