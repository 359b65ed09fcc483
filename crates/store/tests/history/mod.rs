//! A store whose newest snapshot is damaged after retention retired the
//! history below it. Shared by the corruption corpus (`Store::open`) and
//! the root crate's recovery oracle (`trustmap recover`), which includes
//! this file by path.

use std::fs;
use std::path::Path;
use trustmap_store::{segment, Store, StoreOptions};

/// Which flavors of the newest snapshot are damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// Garbage over both the binary snapshot and its text twin.
    BothFlavors,
    /// Garbage over the binary snapshot of a network with a whitespace
    /// name, which the text format cannot carry — so it has no twin.
    BinaryWithoutTwin,
}

/// Fills `dir` with: a snapshot after 40 belief edits, 240 more up to a
/// second snapshot (retention retires every sealed segment below it),
/// 5 revokes, then `damage` over the second snapshot.
/// Recovery can only fall back to the first snapshot, whose successor
/// LSNs are gone; returns the `lsns A..B` range it must name as missing.
pub fn damaged_newest_snapshot(dir: &Path, damage: Damage) -> String {
    let opts = StoreOptions {
        rotate_bytes: 256,
        retain_on_snapshot: true,
    };
    let mut r = Store::open_with(dir, opts).expect("open empty");
    let users: Vec<_> = (0..8).map(|i| r.session.user(&format!("u{i}"))).collect();
    if damage == Damage::BinaryWithoutTwin {
        r.session.user("Bob Smith");
    }
    let vals = [r.session.value("v"), r.session.value("w")];
    let believe = |r: &mut trustmap_store::Recovered, edits: usize| {
        for i in 0..edits {
            r.session
                .believe(users[i % users.len()], vals[i / users.len() % 2])
                .expect("edit");
        }
    };
    believe(&mut r, 40);
    let older = r.store.snapshot_now(&r.session).expect("first snapshot");
    believe(&mut r, 240);
    let newest = r.store.snapshot_now(&r.session).expect("second snapshot");
    for &u in &users[..5] {
        r.session.revoke(u).expect("revoke");
    }
    drop(r);

    let first = segment::list_files(dir).expect("list segments")[0].0;
    assert!(
        first > older + 1,
        "retention must have retired lsn {}",
        older + 1
    );
    let twin = dir.join(format!("snapshot-{newest:020}.tn"));
    assert_eq!(twin.exists(), damage == Damage::BothFlavors);
    fs::write(dir.join(format!("snapshot-{newest:020}.bin")), b"garbage").expect("damage");
    if damage == Damage::BothFlavors {
        fs::write(twin, b"garbage").expect("damage twin");
    }
    format!("lsns {}..{}", older + 1, first - 1)
}
