//! Durability oracle: recovering a store must reproduce the in-memory
//! session **at every prefix** of a random signed+unsigned edit stream,
//! with snapshots interleaved at arbitrary points; and any torn WAL tail
//! must recover to a valid earlier commit point (never a half batch).
//!
//! The corpus test in `crates/store/tests/corpus.rs` attacks fixed
//! fixtures exhaustively (every truncation offset, every bit flip); this
//! oracle drives *random* histories through the real durable `Session` —
//! single edits, explicit batches, sign-boundary crossings, snapshots,
//! and mid-stream reopens — and checks equivalence against an in-memory
//! mirror after every step.
//!
//! `trustmap recover` is the offline form of the same check: on a store
//! whose newest snapshot is damaged above retired history it must fail
//! with the error `Store::open` returns.

#[path = "../crates/store/tests/history/mod.rs"]
mod history;

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use trustmap::format::render_network;
use trustmap::store::{segment, Store};
use trustmap::{NegSet, Session, SignedEdit, User, Value};

static DIRS: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "trustmap-recovery-oracle-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const NUM_USERS: usize = 6;
const NUM_VALUES: usize = 3;

/// One scripted step of the random history.
#[derive(Debug, Clone, Copy)]
struct RawStep {
    kind: u8,
    user: usize,
    other: usize,
    value: usize,
    /// Routes the step: plain edit, inside a batch, snapshot, reopen.
    route: u8,
}

fn raw_steps(steps: usize) -> impl Strategy<Value = Vec<RawStep>> {
    proptest::collection::vec(
        (0u8..10, 0usize..64, 0usize..64, 0usize..NUM_VALUES, 0u8..12).prop_map(
            |(kind, user, other, value, route)| RawStep {
                kind,
                user,
                other,
                value,
                route,
            },
        ),
        steps..=steps,
    )
}

/// Concretizes a step into a tie-free signed edit (trust priorities
/// strictly increase with the step index).
fn concretize(raw: RawStep, step: usize, users: &[User], values: &[Value]) -> SignedEdit {
    let user = users[raw.user % users.len()];
    let value = values[raw.value % values.len()];
    match raw.kind {
        0..=3 => SignedEdit::Believe(user, value),
        4 | 5 => SignedEdit::Reject(user, NegSet::of([value])),
        6 | 7 => SignedEdit::Revoke(user),
        _ => {
            let parent = users[raw.other % users.len()];
            if parent == user {
                SignedEdit::Believe(user, value)
            } else {
                SignedEdit::Trust {
                    child: user,
                    parent,
                    priority: 1_000 + step as i64,
                }
            }
        }
    }
}

/// Recovered state must equal the mirror: identical network text and
/// identical per-user resolution under the paradigm the network is in.
fn assert_equivalent(
    recovered: &mut Session,
    mirror: &mut Session,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        render_network(recovered.network()),
        render_network(mirror.network()),
        "{}: networks diverged",
        context
    );
    let users: Vec<User> = mirror.network().users().collect();
    for u in &users {
        prop_assert_eq!(
            recovered.skeptic_cert(*u).ok(),
            mirror.skeptic_cert(*u).ok(),
            "{}: certain beliefs diverged for user {}",
            context,
            u
        );
    }
    if !mirror.is_skeptic() {
        let full = mirror.snapshot().expect("positive network").clone();
        let recovered_snap = recovered.snapshot().expect("same sign state");
        for u in &users {
            prop_assert_eq!(
                recovered_snap.poss(*u),
                full.poss(*u),
                "{}: possible beliefs diverged for user {}",
                context,
                u
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replays a random history through a durable session and, after
    /// every step, recovers the store from disk and compares against the
    /// in-memory mirror — including steps that batch, snapshot, or swap
    /// the live session for a freshly recovered one.
    #[test]
    fn recovery_equals_in_memory_session_at_every_prefix(steps in raw_steps(14)) {
        let dir = fresh_dir();
        let mut recovered = Store::open(&dir).expect("open empty store");
        let mut mirror = Session::default();

        // Seed both sessions identically (users and values only; all
        // edits flow through the scripted stream).
        let mut users = Vec::new();
        let mut values = Vec::new();
        for i in 0..NUM_USERS {
            let name = format!("u{i}");
            users.push(recovered.session.user(&name));
            mirror.user(&name);
        }
        for i in 0..NUM_VALUES {
            let name = format!("v{i}");
            values.push(recovered.session.value(&name));
            mirror.value(&name);
        }
        // Interning records ride the next commit unit; seal the seed so a
        // crash (or the reopen steps below) cannot lose it.
        recovered.session.commit().expect("seal the seed");
        mirror.commit().expect("seal the seed");

        for (step, raw) in steps.iter().enumerate() {
            let context = format!("step {step} ({raw:?})");
            match raw.route {
                // A small explicit batch: this edit plus a follow-up.
                0 | 1 => {
                    let follow = concretize(
                        RawStep { kind: raw.kind.wrapping_add(3), ..*raw },
                        step + 1000,
                        &users,
                        &values,
                    );
                    let edit = concretize(*raw, step, &users, &values);
                    recovered.session.begin_batch().expect("batch opens");
                    recovered.session.apply_signed_edit(edit.clone()).expect("tie-free");
                    recovered.session.apply_signed_edit(follow.clone()).expect("tie-free");
                    recovered.session.commit().expect("commit");
                    mirror.begin_batch().expect("batch opens");
                    mirror.apply_signed_edit(edit).expect("tie-free");
                    mirror.apply_signed_edit(follow).expect("tie-free");
                    mirror.commit().expect("commit");
                }
                // Snapshot the store mid-stream.
                2 => {
                    recovered.store.snapshot_now(&recovered.session).expect("snapshot");
                }
                // Swap the live session for a recovered one and go on.
                3 => {
                    let dir = recovered.store.dir();
                    drop(recovered);
                    recovered = Store::open(&dir).expect("mid-stream reopen");
                }
                _ => {
                    let edit = concretize(*raw, step, &users, &values);
                    recovered.session.apply_signed_edit(edit.clone()).expect("tie-free");
                    mirror.apply_signed_edit(edit).expect("tie-free");
                }
            }
            // The prefix property: a fresh recovery from disk right now
            // equals the in-memory mirror.
            let mut check = Store::open(&dir).expect("recovery");
            assert_equivalent(&mut check.session, &mut mirror, &context)?;
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Any torn tail recovers to a valid earlier commit point whose state
    /// matches what the live session had at that commit.
    #[test]
    fn torn_tails_recover_to_an_earlier_commit_point(
        steps in raw_steps(10),
        cut_seed in 0usize..10_000,
        snap_at in 0usize..10,
    ) {
        let dir = fresh_dir();
        let mut r = Store::open(&dir).expect("open empty store");
        let mut users = Vec::new();
        let mut values = Vec::new();
        for i in 0..NUM_USERS {
            users.push(r.session.user(&format!("u{i}")));
        }
        for i in 0..NUM_VALUES {
            values.push(r.session.value(&format!("v{i}")));
        }
        // Seal the seed as its own commit unit, then record the ground
        // truth: network image per committed LSN.
        r.session.commit().expect("seal the seed");
        let mut recorded: BTreeMap<u64, String> = BTreeMap::new();
        recorded.insert(0, render_network(&trustmap::TrustNetwork::default()));
        recorded.insert(
            r.store.last_committed_lsn(),
            render_network(r.session.network()),
        );
        for (step, raw) in steps.iter().enumerate() {
            let edit = concretize(*raw, step, &users, &values);
            r.session.apply_signed_edit(edit).expect("tie-free");
            recorded.insert(
                r.store.last_committed_lsn(),
                render_network(r.session.network()),
            );
            if step == snap_at {
                r.store.snapshot_now(&r.session).expect("snapshot");
            }
        }
        let store_dir = r.store.dir();
        drop(r);

        // Tear the live segment (the chain's last file) at a
        // pseudo-random offset and recover.
        let (_, live_path) = segment::list_files(&store_dir)
            .expect("list segments")
            .into_iter()
            .next_back()
            .expect("a live segment exists");
        let wal = fs::read(&live_path).expect("wal");
        let cut = cut_seed % (wal.len() + 1);
        fs::write(&live_path, &wal[..cut]).expect("tear");
        let recovered = Store::open(&store_dir).expect("recovers, never panics");
        let lsn = recovered.stats.last_lsn;
        let expected = recorded.get(&lsn).unwrap_or_else(|| {
            panic!("recovered to lsn {lsn}, which is not a commit point")
        });
        prop_assert_eq!(
            &render_network(recovered.session.network()),
            expected,
            "torn at {} of {}: state is not the lsn-{} commit image",
            cut,
            wal.len(),
            lsn
        );
        fs::remove_dir_all(&store_dir).ok();
    }
}

/// `trustmap recover` runs `Store::open`, so it refuses a store whose
/// newest snapshot is damaged above retired history: exit non-zero, with
/// the same message naming the missing LSN range.
#[test]
fn trustmap_recover_names_the_history_a_damaged_snapshot_cut_off() {
    for damage in [
        history::Damage::BothFlavors,
        history::Damage::BinaryWithoutTwin,
    ] {
        let dir = fresh_dir();
        let missing = history::damaged_newest_snapshot(&dir, damage);
        let expected = Store::open(&dir)
            .expect_err("the chain no longer reaches the older snapshot")
            .to_string();
        assert!(expected.contains(&missing), "{damage:?}: {expected}");
        let out = Command::new(env!("CARGO_BIN_EXE_trustmap"))
            .arg("recover")
            .arg(&dir)
            .output()
            .expect("spawn trustmap");
        assert!(!out.status.success(), "{damage:?}: recover must fail");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(
            stderr.lines().next(),
            Some(format!("error: {expected}").as_str()),
            "{damage:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
