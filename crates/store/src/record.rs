//! The WAL record layer: typed payloads, length-prefixed binary framing,
//! and the CRC32 that detects torn or corrupted tails.
//!
//! One record on disk is
//!
//! ```text
//! ┌──────────┬──────────┬───────────────────────────────┐
//! │ len: u32 │ crc: u32 │ body (len bytes)              │
//! └──────────┴──────────┴───────────────────────────────┘
//!               body = lsn: u64 │ kind: u8 │ payload
//! ```
//!
//! all integers little-endian, `crc` the CRC32 (IEEE) of `body`. Every
//! record carries its own monotonic log sequence number; a batch is a run
//! of operation records closed by a [`Payload::Commit`] frame, and
//! recovery never applies records past the last valid commit frame — so a
//! torn or bit-flipped tail rolls the log back to the last committed LSN
//! instead of serving half a batch.

use trustmap_core::signed::NegSet;
use trustmap_core::{SignedEdit, User, Value};

/// Hard upper bound on one record body. Anything larger is treated as
/// corruption — it protects the scanner from a bit flip in the length
/// prefix sending it gigabytes forward.
pub const MAX_RECORD: usize = 1 << 26;

/// Bytes of the `len` + `crc` frame header.
pub const FRAME_HEADER: usize = 8;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven. Implemented here because the build
// environment has no registry access; ~10 lines either way.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Streaming [`crc32`]: the same digest fed incrementally, so the store
/// and a replication follower can maintain a segment's running data CRC
/// across appends without re-reading the file at seal time.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh digest (equals `crc32(b"")` when finished immediately).
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = CRC_TABLE[((self.state ^ b as u32) & 0xff) as usize] ^ (self.state >> 8);
        }
    }

    /// The CRC of everything fed so far (the digest stays usable).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Payloads
// ---------------------------------------------------------------------------

/// The operation a WAL record carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A new user was interned (WAL edits address users by id, so the
    /// name table replays from these).
    NewUser(String),
    /// A new value was interned.
    NewValue(String),
    /// One typed session edit.
    Edit(SignedEdit),
    /// A full network image (the binary network codec of
    /// [`crate::snapshot`] — total over every legal network, unlike the
    /// text format): an opaque closure edit, or the genesis image of an
    /// imported network. Supersedes everything earlier in its commit
    /// unit.
    Rewrite(Vec<u8>),
    /// The commit frame closing a batch of `records` operation records.
    Commit {
        /// Number of operation records in the unit this frame closes.
        records: u32,
    },
}

impl Payload {
    /// Short human-readable tag, used by `trustmap log`.
    pub fn tag(&self) -> &'static str {
        match self {
            Payload::NewUser(_) => "user",
            Payload::NewValue(_) => "value",
            Payload::Edit(SignedEdit::Believe(..)) => "believe",
            Payload::Edit(SignedEdit::Revoke(..)) => "revoke",
            Payload::Edit(SignedEdit::Trust { .. }) => "trust",
            Payload::Edit(SignedEdit::Reject(..)) => "reject",
            Payload::Rewrite(_) => "rewrite",
            Payload::Commit { .. } => "commit",
        }
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The operation.
    pub payload: Payload,
}

// Record kinds on disk.
const K_NEW_USER: u8 = 1;
const K_NEW_VALUE: u8 = 2;
const K_BELIEVE: u8 = 3;
const K_REVOKE: u8 = 4;
const K_TRUST: u8 = 5;
const K_REJECT: u8 = 6;
const K_COMMIT: u8 = 7;
const K_REWRITE: u8 = 8;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_negset(buf: &mut Vec<u8>, neg: &NegSet) {
    let (tag, values): (u8, Vec<Value>) = match neg {
        NegSet::Finite(s) => (0, s.iter().copied().collect()),
        NegSet::CoFinite(e) => (1, e.iter().copied().collect()),
    };
    buf.push(tag);
    put_u32(buf, values.len() as u32);
    for v in values {
        put_u32(buf, v.0);
    }
}

fn put_body(buf: &mut Vec<u8>, lsn: u64, payload: &Payload) {
    put_u64(buf, lsn);
    match payload {
        Payload::NewUser(name) => {
            buf.push(K_NEW_USER);
            put_str(buf, name);
        }
        Payload::NewValue(name) => {
            buf.push(K_NEW_VALUE);
            put_str(buf, name);
        }
        Payload::Edit(SignedEdit::Believe(u, v)) => {
            buf.push(K_BELIEVE);
            put_u32(buf, u.0);
            put_u32(buf, v.0);
        }
        Payload::Edit(SignedEdit::Revoke(u)) => {
            buf.push(K_REVOKE);
            put_u32(buf, u.0);
        }
        Payload::Edit(SignedEdit::Trust {
            child,
            parent,
            priority,
        }) => {
            buf.push(K_TRUST);
            put_u32(buf, child.0);
            put_u32(buf, parent.0);
            put_i64(buf, *priority);
        }
        Payload::Edit(SignedEdit::Reject(u, neg)) => {
            buf.push(K_REJECT);
            put_u32(buf, u.0);
            put_negset(buf, neg);
        }
        Payload::Rewrite(image) => {
            buf.push(K_REWRITE);
            put_u32(buf, image.len() as u32);
            buf.extend_from_slice(image);
        }
        Payload::Commit { records } => {
            buf.push(K_COMMIT);
            put_u32(buf, *records);
        }
    }
}

/// Appends one framed record (`len | crc | body`) to `out`.
pub fn encode_into(out: &mut Vec<u8>, lsn: u64, payload: &Payload) {
    let mut body = Vec::with_capacity(16);
    put_body(&mut body, lsn, payload);
    put_u32(out, body.len() as u32);
    put_u32(out, crc32(&body));
    out.extend_from_slice(&body);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A cursor over raw bytes with bounds-checked little-endian reads.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let s = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let s = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    pub(crate) fn i64(&mut self) -> Option<i64> {
        self.u64().map(|v| v as i64)
    }

    /// A length-prefixed byte string, borrowed from the input.
    pub(crate) fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let s = self.bytes.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        Some(s)
    }

    pub(crate) fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    pub(crate) fn negset(&mut self) -> Option<NegSet> {
        let tag = self.u8()?;
        let count = self.u32()? as usize;
        if count > self.remaining() / 4 {
            return None; // length prefix larger than the remaining bytes
        }
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(Value(self.u32()?));
        }
        match tag {
            0 => Some(NegSet::Finite(values.into_iter().collect())),
            1 => Some(NegSet::CoFinite(values.into_iter().collect())),
            _ => None,
        }
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode_body(body: &[u8]) -> Option<Record> {
    let mut r = Reader::new(body);
    let lsn = r.u64()?;
    let kind = r.u8()?;
    let payload = match kind {
        K_NEW_USER => Payload::NewUser(r.str()?.to_owned()),
        K_NEW_VALUE => Payload::NewValue(r.str()?.to_owned()),
        K_BELIEVE => Payload::Edit(SignedEdit::Believe(User(r.u32()?), Value(r.u32()?))),
        K_REVOKE => Payload::Edit(SignedEdit::Revoke(User(r.u32()?))),
        K_TRUST => Payload::Edit(SignedEdit::Trust {
            child: User(r.u32()?),
            parent: User(r.u32()?),
            priority: r.i64()?,
        }),
        K_REJECT => {
            let user = User(r.u32()?);
            Payload::Edit(SignedEdit::Reject(user, r.negset()?))
        }
        K_REWRITE => Payload::Rewrite(r.bytes()?.to_vec()),
        K_COMMIT => Payload::Commit { records: r.u32()? },
        _ => return None,
    };
    if !r.done() {
        return None; // trailing garbage inside a CRC-valid body
    }
    Some(Record { lsn, payload })
}

/// The outcome of decoding one frame at `start`.
#[derive(Debug)]
pub enum Framed {
    /// A valid record; the next frame starts at `end`.
    Ok {
        /// The decoded record.
        record: Record,
        /// Byte offset just past this record.
        end: usize,
    },
    /// The bytes end cleanly at `start` or mid-record — a torn tail.
    Truncated,
    /// The frame is structurally invalid (CRC mismatch, oversized length,
    /// unknown kind, …) — scanning must stop here.
    Corrupt(&'static str),
}

/// Decodes the frame starting at byte `start` of `bytes`.
pub fn decode_frame(bytes: &[u8], start: usize) -> Framed {
    if start == bytes.len() {
        return Framed::Truncated;
    }
    let Some(header) = bytes.get(start..start + FRAME_HEADER) else {
        return Framed::Truncated;
    };
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD {
        return Framed::Corrupt("record length exceeds the sanity cap");
    }
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let body_start = start + FRAME_HEADER;
    let Some(body) = bytes.get(body_start..body_start + len) else {
        return Framed::Truncated;
    };
    if crc32(body) != crc {
        return Framed::Corrupt("CRC mismatch");
    }
    match decode_body(body) {
        Some(record) => Framed::Ok {
            record,
            end: body_start + len,
        },
        None => Framed::Corrupt("undecodable record body"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_crc_matches_one_shot_at_every_split() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..=data.len() {
            let mut d = Crc32::new();
            d.update(&data[..split]);
            d.update(&data[split..]);
            assert_eq!(d.finish(), crc32(data), "split at {split}");
        }
    }

    fn roundtrip(payload: Payload) {
        let mut buf = Vec::new();
        encode_into(&mut buf, 42, &payload);
        match decode_frame(&buf, 0) {
            Framed::Ok { record, end } => {
                assert_eq!(record.lsn, 42);
                assert_eq!(record.payload, payload);
                assert_eq!(end, buf.len());
            }
            other => panic!("expected a valid frame, got {other:?}"),
        }
    }

    #[test]
    fn payloads_round_trip() {
        roundtrip(Payload::NewUser("Alice".into()));
        roundtrip(Payload::NewValue("jar".into()));
        roundtrip(Payload::Edit(SignedEdit::Believe(User(3), Value(7))));
        roundtrip(Payload::Edit(SignedEdit::Revoke(User(0))));
        roundtrip(Payload::Edit(SignedEdit::Trust {
            child: User(1),
            parent: User(2),
            priority: -9,
        }));
        roundtrip(Payload::Edit(SignedEdit::Reject(
            User(5),
            NegSet::of([Value(1), Value(2)]),
        )));
        roundtrip(Payload::Edit(SignedEdit::Reject(
            User(5),
            NegSet::all_but(Value(4)),
        )));
        roundtrip(Payload::Rewrite(vec![0x01, 0xff, 0x00, 0x42]));
        roundtrip(Payload::Commit { records: 12 });
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut buf = Vec::new();
        encode_into(&mut buf, 7, &Payload::NewUser("Mallory".into()));
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut copy = buf.clone();
                copy[byte] ^= 1 << bit;
                match decode_frame(&copy, 0) {
                    Framed::Ok { record, .. } => {
                        panic!("flip at byte {byte} bit {bit} went undetected: {record:?}")
                    }
                    Framed::Truncated | Framed::Corrupt(_) => {}
                }
            }
        }
    }

    #[test]
    fn torn_prefixes_are_truncated_not_corrupt_nor_panicking() {
        let mut buf = Vec::new();
        encode_into(
            &mut buf,
            1,
            &Payload::Edit(SignedEdit::Believe(User(0), Value(0))),
        );
        for cut in 0..buf.len() {
            match decode_frame(&buf[..cut], 0) {
                Framed::Ok { .. } => panic!("prefix of {cut} bytes decoded as a whole record"),
                Framed::Truncated => {}
                // A cut inside the header can also read as an absurd
                // length; either way the scanner stops safely.
                Framed::Corrupt(_) => {}
            }
        }
    }
}
