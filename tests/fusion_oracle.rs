//! Fusion-loop oracle: the trust-reweighting fixed point of
//! [`trustmap::workloads::fusion`] must not depend on *how* the loop is
//! executed. Two drivers run the identical claim network to
//! convergence:
//!
//! * an in-memory [`Session`] (exact mode enabled, so the per-round dirty
//!   regions also exercise the exact engine);
//! * a durable session backed by a real [`Store`], killed and recovered
//!   from its WAL **mid-loop** (twice), then again at the fixed point.
//!
//! Both must agree on the number of reweighting rounds, the final
//! certain value of every object, and the fixed point itself (one more
//! round emits no edits — including right after a crash-recovery, which
//! is what makes [`FusionSim::round_edits`]'s statelessness load-bearing:
//! a restarted loop re-derives scores from recovered state instead of
//! trusting any in-memory round counter).

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use trustmap::store::Store;
use trustmap::workloads::fusion::{FusionConfig, FusionSim};
use trustmap::{Query, QueryTarget, Session, TrustNetwork, User, Value};

static DIRS: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "trustmap-fusion-oracle-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Replays `net` into `session` preserving user and value indices (both
/// sides intern in first-seen order).
fn replay(session: &mut Session, net: &TrustNetwork) {
    for v in net.domain().values() {
        let interned = session.value(net.domain().name(v));
        assert_eq!(interned, v, "value interning order must match");
    }
    for u in net.users() {
        let interned = session.user(net.user_name(u));
        assert_eq!(interned, u, "user interning order must match");
    }
    for m in net.mappings() {
        session
            .trust(m.child, m.parent, m.priority)
            .expect("replayed mapping");
    }
    for u in net.users() {
        if let Some(v) = net.belief(u).positive() {
            session.believe(u, v).expect("replayed belief");
        }
    }
}

/// The certain value of every object under the session's skeptic tables.
fn object_certs(session: &mut Session, objects: &[User]) -> BTreeMap<User, Option<Value>> {
    objects
        .iter()
        .map(|&o| {
            let cert = session
                .skeptic_cert(o)
                .expect("fusion networks are tie-free DAGs")
                .pos;
            (o, cert)
        })
        .collect()
}

/// One reweighting round through the session; returns the number of
/// trust edits it applied (0 = the loop reached its fixed point).
fn run_round(session: &mut Session, sim: &FusionSim) -> usize {
    let table = object_certs(session, &sim.objects);
    let edits = sim.round_edits(session.network(), |u| table[&u]);
    if edits.is_empty() {
        return 0;
    }
    session.begin_batch().expect("round batch opens");
    for &e in &edits {
        session.apply_edit(e).expect("reweighting edit applies");
    }
    session.commit().expect("round batch commits");
    edits.len()
}

const MAX_ROUNDS: usize = 64;
const SEEDS: [u64; 3] = [0, 7, 42];

#[test]
fn in_memory_and_wal_restart_reach_the_same_fixed_point() {
    for seed in SEEDS {
        let cfg = FusionConfig {
            seed,
            ..FusionConfig::default()
        };
        let sim = FusionSim::new(&cfg);

        // Driver 1: in-memory session with exact mode on.
        let mut seq = Session::new(sim.net.clone());
        seq.enable_exact()
            .expect("bipartite DAGs enumerate trivially");
        let mut seq_rounds = 0;
        while run_round(&mut seq, &sim) > 0 {
            seq_rounds += 1;
            assert!(seq_rounds <= MAX_ROUNDS, "seed {seed}: no convergence");
        }
        assert!(seq_rounds >= 1, "seed {seed}: scores never diverged");
        let seq_certs = object_certs(&mut seq, &sim.objects);
        // On a DAG the exact table must agree with the served cert.
        for (&object, &cert) in &seq_certs {
            let exact = seq
                .query(&Query::cert(QueryTarget::Handle(object)).exact())
                .expect("exact mode is on");
            assert_eq!(
                exact.rows[0].cert, cert,
                "seed {seed}: exact cert diverged at {object}"
            );
        }

        // Driver 2: durable session, recovered from its WAL mid-loop
        // after rounds 1 and 2.
        let dir = fresh_dir();
        let mut r = Store::open(&dir).expect("open empty store");
        replay(&mut r.session, &sim.net);
        r.session.commit().expect("seal the replayed network");
        let mut wal_rounds = 0;
        while run_round(&mut r.session, &sim) > 0 {
            wal_rounds += 1;
            assert!(wal_rounds <= MAX_ROUNDS, "seed {seed}: no convergence");
            if wal_rounds <= 2 {
                let store_dir = r.store.dir();
                drop(r);
                r = Store::open(&store_dir).expect("mid-loop recovery");
            }
        }
        let wal_certs = object_certs(&mut r.session, &sim.objects);

        assert_eq!(
            seq_rounds, wal_rounds,
            "seed {seed}: WAL restarts changed the round count"
        );
        assert_eq!(
            seq_certs, wal_certs,
            "seed {seed}: WAL restarts changed the fixed point"
        );

        // The fixed point survives one more recovery: a fresh process
        // resuming the loop sees it already converged.
        let store_dir = r.store.dir();
        drop(r);
        let mut fresh = Store::open(&store_dir).expect("fixed-point recovery");
        assert_eq!(
            run_round(&mut fresh.session, &sim),
            0,
            "seed {seed}: recovered state is not the fixed point"
        );
        assert_eq!(
            object_certs(&mut fresh.session, &sim.objects),
            seq_certs,
            "seed {seed}: recovered certs diverged"
        );
        fs::remove_dir_all(&store_dir).ok();
    }
}

/// The loop's whole point: reweighting should not *reduce* accuracy
/// against the latent truth, and usually improves it. Pinned per seed so
/// a semantics change that silently degrades fusion quality fails loudly.
#[test]
fn reweighting_accuracy_is_monotone_at_the_fixed_point() {
    for seed in SEEDS {
        let cfg = FusionConfig {
            seed,
            ..FusionConfig::default()
        };
        let sim = FusionSim::new(&cfg);
        let mut session = Session::new(sim.net.clone());
        let before = {
            let table = object_certs(&mut session, &sim.objects);
            sim.accuracy(|u| table[&u])
        };
        let mut rounds = 0;
        while run_round(&mut session, &sim) > 0 {
            rounds += 1;
            assert!(rounds <= MAX_ROUNDS, "seed {seed}: no convergence");
        }
        let after = {
            let table = object_certs(&mut session, &sim.objects);
            sim.accuracy(|u| table[&u])
        };
        assert!(
            after >= before,
            "seed {seed}: reweighting lost accuracy ({before} -> {after})"
        );
    }
}
