//! Equivalence oracle for the incremental delta-resolution engine: for
//! random networks and random 20-step edit streams, the session's
//! incrementally patched `poss`/`cert` must be identical to a from-scratch
//! `resolve_network` after every single step (same spirit as
//! `tests/proptest_invariants.rs`). The engine's bulk build must equal an
//! engine grown from empty edit by edit, and a batch that reseeds the
//! engine must report what draining it would have. Query routing never
//! changes an answer: a cold session's whole solve and a warm session's
//! patched rows both equal Algorithm 1 as printed, fixed fixtures take
//! each route on each sign, and `EXPLAIN` does no solver work.

mod common;

use common::{random_network, NetSpec};
use proptest::prelude::*;
use trustmap::plan::QueryRow;
use trustmap::resolution::UserResolution;
use trustmap::workloads::apply_edit;
use trustmap::Route;
use trustmap::{
    binarize, resolve_network, resolve_with, Edit, IncrementalResolver, NegSet, Options, Query,
    QueryTarget, Session, TrustNetwork, User, Value,
};

/// A raw network description proptest can generate.
#[derive(Debug, Clone)]
struct RawNet {
    users: usize,
    mappings: Vec<(usize, usize, i64)>,
    beliefs: Vec<(usize, usize)>,
}

/// A raw edit: `kind` selects believe/revoke/trust, the rest are indices
/// reduced modulo the live network's users/values at application time.
#[derive(Debug, Clone, Copy)]
struct RawEdit {
    kind: u8,
    user: usize,
    other: usize,
    value: usize,
    priority: i64,
}

const NUM_VALUES: usize = 3;

fn raw_net(max_users: usize, max_maps: usize) -> impl Strategy<Value = RawNet> {
    (2..=max_users).prop_flat_map(move |users| {
        let mapping = (0..users, 0..users, 1..4i64);
        let belief = (0..users, 0..NUM_VALUES);
        (
            proptest::collection::vec(mapping, 0..=max_maps),
            proptest::collection::vec(belief, 0..=users),
        )
            .prop_map(move |(mappings, beliefs)| RawNet {
                users,
                mappings,
                beliefs,
            })
    })
}

fn raw_edits(steps: usize) -> impl Strategy<Value = Vec<RawEdit>> {
    proptest::collection::vec(
        (0u8..10, 0usize..64, 0usize..64, 0usize..NUM_VALUES, 1..5i64).prop_map(
            |(kind, user, other, value, priority)| RawEdit {
                kind,
                user,
                other,
                value,
                priority,
            },
        ),
        steps..=steps,
    )
}

fn build(raw: &RawNet) -> (TrustNetwork, Vec<Value>) {
    let mut net = TrustNetwork::new();
    let users: Vec<User> = (0..raw.users).map(|i| net.user(&format!("u{i}"))).collect();
    let values: Vec<Value> = (0..NUM_VALUES)
        .map(|i| net.value(&format!("v{i}")))
        .collect();
    for &(c, p, prio) in &raw.mappings {
        if c != p {
            net.trust(users[c], users[p], prio).expect("valid");
        }
    }
    for &(u, v) in &raw.beliefs {
        net.believe(users[u], values[v]).expect("valid");
    }
    (net, values)
}

/// Converts a raw edit against the current network state. Trust edits that
/// would be self-loops fall back to a believe edit so every step mutates.
fn concretize(raw: RawEdit, users: usize, values: &[Value]) -> Edit {
    let user = User((raw.user % users) as u32);
    match raw.kind {
        // 60% believe, 20% revoke, 20% trust — the community-edit mix.
        0..=5 => Edit::Believe(user, values[raw.value % values.len()]),
        6 | 7 => Edit::Revoke(user),
        _ => {
            let parent = User((raw.other % users) as u32);
            if parent == user {
                Edit::Believe(user, values[raw.value % values.len()])
            } else {
                Edit::Trust {
                    child: user,
                    parent,
                    priority: raw.priority,
                }
            }
        }
    }
}

/// `net`'s users and values alone: no mappings, no beliefs.
fn bare(net: &TrustNetwork) -> TrustNetwork {
    let mut bare = TrustNetwork::new();
    for u in net.users() {
        bare.user(net.user_name(u));
    }
    for v in net.domain().values() {
        bare.value(net.domain().name(v));
    }
    bare
}

/// The edits that grow `net` from [`bare`]: every mapping as a trust
/// edit in declaration order, then every belief.
fn construction_edits(net: &TrustNetwork) -> Vec<Edit> {
    let mut edits: Vec<Edit> = net
        .mappings()
        .iter()
        .map(|m| Edit::Trust {
            child: m.child,
            parent: m.parent,
            priority: m.priority,
        })
        .collect();
    edits.extend(
        net.users()
            .filter_map(|u| net.belief(u).positive().map(|v| Edit::Believe(u, v))),
    );
    edits
}

/// Every user's possible set in `engine`, read through its own layout,
/// equals `reference`'s.
fn check_engine(
    engine: &IncrementalResolver,
    net: &TrustNetwork,
    reference: &UserResolution,
    what: &str,
) -> Result<(), TestCaseError> {
    let btn = engine.btn();
    for u in net.users() {
        prop_assert_eq!(
            engine.poss(btn.node_of(u)),
            reference.poss(u),
            "{}: poss diverged for user {}",
            what,
            u
        );
    }
    Ok(())
}

/// Section 2.5's lineage property on Algorithm 1 as printed, recording
/// pointers: every possible value of every non-root node has a lineage
/// chain ending at a root that asserts it.
fn check_lineage(net: &TrustNetwork, what: &str) -> Result<(), TestCaseError> {
    let btn = binarize(net);
    let opts = Options {
        lineage: true,
        ..Options::default()
    };
    let res = resolve_with(&btn, opts).expect("resolves");
    let lineage = res.lineage().expect("recorded");
    for x in btn.nodes().filter(|&x| !btn.parents(x).is_root()) {
        for &v in res.poss(x) {
            let chain = lineage.trace(x, v);
            let root = chain.as_ref().and_then(|c| c.last().copied());
            prop_assert_eq!(
                root.and_then(|r| btn.belief(r).positive()),
                Some(v),
                "{}: ({}, {:?}) has no sound lineage",
                what,
                x,
                v
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The bulk-seeded engine, an engine grown from the bare users by
    /// patching the construction edits one at a time, and a full
    /// resolution agree on every user. The same random edit stream then
    /// keeps both engines equal to a full resolution after every step —
    /// cascade recycling on the binarize layout included — and the
    /// recorded lineage of every post-edit network stays sound.
    #[test]
    fn bulk_seed_equals_patching_from_empty(
        raw in raw_net(6, 10),
        edits in raw_edits(16),
    ) {
        let (mut net, values) = build(&raw);
        let mut seeded = IncrementalResolver::new(&net).expect("positive network");
        let mut grown_net = bare(&net);
        let mut grown = IncrementalResolver::new(&grown_net).expect("empty network");
        for edit in construction_edits(&net) {
            apply_edit(&mut grown_net, edit);
            grown.apply_edits(&grown_net, &[edit]);
        }
        let reference = resolve_network(&net).expect("resolves");
        check_engine(&seeded, &net, &reference, "seeded")?;
        check_engine(&grown, &net, &reference, "grown")?;
        check_lineage(&net, "seed")?;
        for (step, &raw_edit) in edits.iter().enumerate() {
            let edit = concretize(raw_edit, raw.users, &values);
            apply_edit(&mut net, edit);
            for engine in [&mut seeded, &mut grown] {
                engine.apply_edits(&net, &[edit]);
            }
            let reference = resolve_network(&net).expect("resolves");
            let at = |what: &str| format!("step {step} ({edit:?}), {what}");
            check_engine(&seeded, &net, &reference, &at("seeded"))?;
            check_engine(&grown, &net, &reference, &at("grown"))?;
            check_lineage(&net, &at("lineage"))?;
        }
    }

    /// A batch with more edits than the network has users reseeds the
    /// engine — one more full rebuild — and reports the same changes as
    /// the same batch drained through the engine the session started
    /// with.
    #[test]
    fn reseeding_batch_reports_like_a_drain(
        raw in raw_net(5, 8),
        edits in raw_edits(12),
    ) {
        let (net, values) = build(&raw);
        let mut session = Session::new(net.clone());
        session.snapshot().expect("positive network");
        let mut drained = IncrementalResolver::new(&net).expect("positive network");
        session.begin_batch().expect("engine is live");
        let batch: Vec<Edit> = edits
            .iter()
            .map(|&raw_edit| concretize(raw_edit, raw.users, &values))
            .collect();
        for &edit in &batch {
            match edit {
                Edit::Believe(u, v) => session.believe(u, v).expect("valid"),
                Edit::Revoke(u) => session.revoke(u).expect("valid"),
                Edit::Trust { child, parent, priority } => {
                    session.trust(child, parent, priority).expect("valid")
                }
            }
        }
        prop_assert!(batch.len() > session.network().user_count());
        let report = session.commit().expect("positive network");
        prop_assert!(report.full_rebuild, "the batch must reseed");
        prop_assert_eq!(report.edits, batch.len());
        prop_assert_eq!(session.stats().full_rebuilds, 2);
        prop_assert_eq!(session.stats().incremental_edits, 0);

        let mut expected = drained.apply_edits(session.network(), &batch);
        let mut reported = report.changes.clone();
        expected.sort_by_key(|c| c.user);
        reported.sort_by_key(|c| c.user);
        prop_assert_eq!(reported, expected);
        let reference = resolve_network(session.network()).expect("resolves");
        let snapshot = session.snapshot().expect("resolves").clone();
        for u in session.network().users() {
            prop_assert_eq!(snapshot.poss(u), reference.poss(u), "user {}", u);
        }
    }

    /// After every step of a random 20-edit stream, the incremental
    /// session equals a from-scratch resolution of the same network.
    #[test]
    fn incremental_session_equals_full_resolution(
        raw in raw_net(6, 10),
        edits in raw_edits(20),
    ) {
        let (net, values) = build(&raw);
        let mut session = Session::new(net);
        session.snapshot().expect("positive network");
        for (step, &raw_edit) in edits.iter().enumerate() {
            let edit = concretize(raw_edit, raw.users, &values);
            session.apply_edit(edit).expect("valid edit");
            let reference = resolve_network(session.network()).expect("resolves");
            // Cloning the snapshot is O(users) refcount bumps (Arc slices).
            let snapshot = session.snapshot().expect("resolves").clone();
            for u in session.network().users() {
                prop_assert_eq!(
                    snapshot.poss(u), reference.poss(u),
                    "step {} ({:?}): poss diverged for user {}", step, edit, u
                );
                prop_assert_eq!(
                    snapshot.cert(u), reference.cert(u),
                    "step {} ({:?}): cert diverged for user {}", step, edit, u
                );
            }
        }
        // The whole stream must have stayed on the incremental path.
        prop_assert_eq!(session.stats().full_rebuilds, 1);
        prop_assert_eq!(session.stats().incremental_edits, edits.len() as u64);
    }

    /// Queued typed edits (believe/trust/revoke methods) drained in one
    /// batch also match, including mid-stream user creation.
    #[test]
    fn batched_edits_equal_full_resolution(
        raw in raw_net(5, 8),
        edits in raw_edits(12),
    ) {
        let (net, values) = build(&raw);
        let mut session = Session::new(net);
        session.snapshot().expect("positive network");
        // Add a fresh user mid-stream; the engine must grow lazily.
        let extra = session.user("late-joiner");
        for (i, &raw_edit) in edits.iter().enumerate() {
            let users = session.network().user_count();
            match concretize(raw_edit, users, &values) {
                Edit::Believe(u, v) => session.believe(u, v).expect("valid"),
                Edit::Revoke(u) => session.revoke(u).expect("valid"),
                Edit::Trust { child, parent, priority } => {
                    // Wire the late joiner in occasionally.
                    let parent = if i % 4 == 0 { extra } else { parent };
                    if parent != child {
                        session.trust(child, parent, priority).expect("valid");
                    }
                }
            }
        }
        let reference = resolve_network(session.network()).expect("resolves");
        let snapshot = session.snapshot().expect("resolves").clone();
        for u in session.network().users() {
            prop_assert_eq!(snapshot.poss(u), reference.poss(u), "user {}", u);
        }
        prop_assert_eq!(session.stats().full_rebuilds, 1);
    }
}

/// The rows of every user as Algorithm 1 as printed defines them.
fn reference_rows(net: &TrustNetwork) -> Vec<QueryRow> {
    let res = resolve_network(net).expect("positive network");
    net.users()
        .map(|u| QueryRow {
            user: u,
            cert: res.cert(u),
            poss: res.poss(u).to_vec(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Query routing never changes an answer: `CERT *` and `POSS *` on a
    /// cold session (no engine: one whole solve) and on a warm one (the
    /// patched engine) both equal Algorithm 1 as printed, row for row.
    #[test]
    fn cold_and_warm_reads_equal_the_reference_solver(
        seed in any::<u64>(),
        users in 2usize..12,
        mappings in 0usize..24,
    ) {
        let net = random_network(
            NetSpec { users, values: 3, mappings, believer_p: 0.5, tie_free: true },
            seed,
        );
        let reference = reference_rows(&net);
        for query in [Query::cert(QueryTarget::All), Query::poss(QueryTarget::All)] {
            let cold = Session::new(net.clone()).query(&query).expect("resolves");
            let mut warm = Session::new(net.clone());
            warm.snapshot().expect("positive network resolves");
            let warm = warm.query(&query).expect("resolves");
            prop_assert_eq!(cold.route, Route::WholeSolve);
            prop_assert_eq!(warm.route, Route::IncrementalPatch);
            prop_assert_eq!(&cold.rows, &reference, "{}: whole solve diverged", query);
            prop_assert_eq!(&warm.rows, &reference, "{}: patched rows diverged", query);
        }
    }
}

/// Fixed fixtures where real `Session::query` calls take each route, on
/// each sign: a cold session has no engine and solves the whole network
/// without building one; once a read has built the engine, the next read
/// patches its (here empty) dirty region. Both give the same rows.
#[test]
fn reads_reach_both_routes() {
    let spec = NetSpec {
        users: 8,
        values: 3,
        mappings: 12,
        believer_p: 0.5,
        tie_free: true,
    };
    let positive = random_network(spec, 7);
    let mut signed = random_network(spec, 7);
    let jar = signed.value("jar");
    signed
        .reject(User(0), NegSet::of([jar]))
        .expect("known user");

    for net in [positive, signed] {
        let skeptic = net.has_constraints();
        let mut s = Session::new(net);
        let cold = s.query(&Query::poss(QueryTarget::All)).unwrap();
        assert_eq!(cold.route, Route::WholeSolve);
        assert_eq!(s.stats().full_rebuilds, 0, "a whole solve builds no engine");

        if skeptic {
            s.skeptic_snapshot().expect("resolves");
        } else {
            s.snapshot().expect("resolves");
        }
        let warm = s.query(&Query::poss(QueryTarget::All)).unwrap();
        assert_eq!(warm.route, Route::IncrementalPatch);
        assert_eq!(warm.rows, cold.rows, "routing changed the answer");
    }
}

/// `EXPLAIN` costs no solver work: no engine build, no region drained,
/// no edit applied — warm or cold, with edits pending or not.
#[test]
fn explain_does_no_solver_work() {
    let net = random_network(
        NetSpec {
            users: 10,
            values: 3,
            mappings: 14,
            believer_p: 0.5,
            tie_free: true,
        },
        23,
    );
    let mut s = Session::new(net);
    for warm in [false, true] {
        if warm {
            s.snapshot().expect("positive network resolves");
            let v = s.value("v0");
            s.believe(User(0), v).expect("known user");
        }
        let before = s.stats();
        let text = s.explain(&Query::poss(QueryTarget::All));
        let route = if warm {
            "incremental-patch (drain pending region, read patched snapshot)"
        } else {
            "whole-solve (binarize + one-pass Algorithm 1)"
        };
        assert_eq!(text, format!("plan: {route}"));
        let after = s.stats();
        assert_eq!(after.full_rebuilds, before.full_rebuilds);
        assert_eq!(after.dirty_nodes, before.dirty_nodes);
        assert_eq!(after.incremental_edits, before.incremental_edits);
    }
}

/// A dirty region is not all-reachable or all-unreachable: here a node's
/// preferred parent goes unreachable while the node stays reachable
/// through its other parent, once acyclic and once inside a 2-cycle. The
/// engine must fall back to the other parent (never copy the empty
/// preferred set), return to the preferred parent when it believes
/// again, and ignore a new top-priority parent that believes nothing —
/// equal to a full resolution after every edit.
#[test]
fn a_lost_preferred_parent_falls_back_to_the_other_parent() {
    for cyclic in [false, true] {
        let mut net = TrustNetwork::new();
        let [x, p, y, q, d] = ["x", "p", "y", "q", "d"].map(|n| net.user(n));
        let [v, w, u] = ["v", "w", "u"].map(|n| net.value(n));
        net.trust(x, p, 20).unwrap();
        net.believe(p, v).unwrap();
        net.believe(y, w).unwrap();
        net.trust(d, x, 1).unwrap();
        if cyclic {
            // x ↔ z, and y reaches x only through z.
            let z = net.user("z");
            net.trust(x, z, 10).unwrap();
            net.trust(z, x, 20).unwrap();
            net.trust(z, y, 10).unwrap();
        } else {
            net.trust(x, y, 10).unwrap();
        }
        let mut engine = IncrementalResolver::new(&net).expect("positive network");
        let script = [
            (Edit::Revoke(p), w),
            (Edit::Believe(p, u), u),
            (
                Edit::Trust {
                    child: x,
                    parent: q,
                    priority: 30,
                },
                u,
            ),
        ];
        for (edit, expected) in script {
            apply_edit(&mut net, edit);
            engine.apply_edits(&net, &[edit]);
            let what = format!("cyclic={cyclic}, after {edit:?}");
            let reference = resolve_network(&net).expect("resolves");
            for user in net.users() {
                let node = engine.btn().node_of(user);
                assert_eq!(
                    engine.poss(node),
                    reference.poss(user),
                    "{what}: user {}",
                    net.user_name(user)
                );
            }
            for user in [x, d] {
                assert_eq!(reference.poss(user), &[expected], "{what}");
            }
        }
    }
}
