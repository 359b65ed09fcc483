//! Differential oracle for `core::exact`, the exact certain-belief
//! evaluator.
//!
//! Three layers of evidence, strongest first:
//!
//! * **brute force**: on small random signed networks (ties included),
//!   the exact engine's per-node outcome sets must agree with a full
//!   possible-world enumeration (`stable_signed::enumerate_signed`) —
//!   certain positives, possible positives, and outcome multiplicity —
//!   after every step of a random signed edit stream;
//! * **containment**: the incrementally patched exact engine must satisfy
//!   `exact ⊆ repPoss` against all five Algorithm-2 implementations
//!   (the incremental engine, the sequential whole-network reference,
//!   the one-pass condensation-sharded solver, the per-object bulk
//!   executor, and the compiled bulk schedule) at 1–4 threads, with
//!   exact cert agreeing with the unique acyclic evaluation on DAG
//!   networks;
//! * **fixed seeds**: the FIDELITY F1 `prefNeg` family — networks where
//!   Algorithm 2 provably over-approximates — as explicit regression
//!   cases asserting the exact engine strictly tightens them, plus
//!   counter-gated O(region) checks (empty regions are free, cluster
//!   edits and revoke-into-DAG transitions never fall back to
//!   whole-network evaluation, and exact scratch scales with the region,
//!   not the network).

use proptest::prelude::*;
use trustmap::relstore::bulkexec::resolve_objects_skeptic;
use trustmap::workloads::oscillators;
use trustmap::workloads::power_law;
use trustmap_core::acyclic::evaluate_acyclic;
use trustmap_core::bulk::SeedValues;
use trustmap_core::bulk_skeptic::{execute_skeptic_native, plan_bulk_skeptic};
use trustmap_core::exact::ExactEngine;
use trustmap_core::signed::NegSet;
use trustmap_core::skeptic::{resolve_skeptic, resolve_skeptic_parallel, SkepticResolution};
use trustmap_core::stable_signed::{
    certain_positives, enumerate_signed, possible_positives, Limits,
};
use trustmap_core::{
    binarize, Btn, Error, Paradigm, SignedEdit, SkepticIncremental, TrustNetwork, User, Value,
};

const NUM_VALUES: usize = 3;

/// A raw signed network description proptest can generate.
#[derive(Debug, Clone)]
struct RawNet {
    users: usize,
    mappings: Vec<(usize, usize, i64)>,
    beliefs: Vec<(usize, usize)>,
    /// Users asserting a one-value constraint (`v−`) instead.
    rejects: Vec<(usize, usize)>,
}

fn raw_net(max_users: usize, max_maps: usize) -> impl Strategy<Value = RawNet> {
    (2..=max_users).prop_flat_map(move |users| {
        let mapping = (0..users, 0..users, 1..4i64);
        let belief = (0..users, 0..NUM_VALUES);
        (
            proptest::collection::vec(mapping, 0..=max_maps),
            proptest::collection::vec(belief.clone(), 0..=users),
            proptest::collection::vec(belief, 0..=(users / 2).max(1)),
        )
            .prop_map(move |(mappings, beliefs, rejects)| RawNet {
                users,
                mappings,
                beliefs,
                rejects,
            })
    })
}

/// Like [`raw_net`] but acyclic by construction: every mapping points
/// from a higher-indexed child to a lower-indexed parent.
fn raw_dag(max_users: usize, max_maps: usize) -> impl Strategy<Value = RawNet> {
    raw_net(max_users, max_maps).prop_map(|mut raw| {
        for (c, p, _) in &mut raw.mappings {
            if *c < *p {
                std::mem::swap(c, p);
            }
        }
        raw
    })
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
    for &(u, v) in &raw.rejects {
        net.reject(users[u], NegSet::of([values[v]]))
            .expect("valid");
    }
    (net, values)
}

#[derive(Debug, Clone, Copy)]
struct RawEdit {
    kind: u8,
    user: usize,
    other: usize,
    value: usize,
    priority: i64,
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

/// Routes a raw edit into the signed edit space: mostly believe-flips,
/// one kind each for constraints and revocations, occasional mappings.
fn concretize(raw: RawEdit, users: usize, values: &[Value]) -> SignedEdit {
    let user = User((raw.user % users) as u32);
    match raw.kind {
        0..=4 => SignedEdit::Believe(user, values[raw.value % values.len()]),
        5 => SignedEdit::Reject(user, NegSet::of([values[raw.value % values.len()]])),
        6 | 7 => SignedEdit::Revoke(user),
        _ => {
            let parent = User((raw.other % users) as u32);
            if parent == user {
                SignedEdit::Believe(user, values[raw.value % values.len()])
            } else {
                SignedEdit::Trust {
                    child: user,
                    parent,
                    priority: raw.priority,
                }
            }
        }
    }
}

fn apply_to_net(net: &mut TrustNetwork, edit: &SignedEdit) {
    match edit {
        SignedEdit::Believe(u, v) => net.believe(*u, *v).expect("valid"),
        SignedEdit::Revoke(u) => net.revoke(*u).expect("valid"),
        SignedEdit::Reject(u, neg) => net.reject(*u, neg.clone()).expect("valid"),
        SignedEdit::Trust {
            child,
            parent,
            priority,
        } => net.trust(*child, *parent, *priority).expect("valid"),
    }
}

/// Exact-vs-enumeration agreement on every node of `btn`. Returns false
/// when the brute-force enumerator overflows its caps (case skipped).
fn matches_enumeration(engine: &ExactEngine, btn: &Btn) -> Result<(), String> {
    let sols = match enumerate_signed(btn, Paradigm::Skeptic, Limits::default()) {
        Ok(sols) => sols,
        Err(Error::EnumerationTooLarge { .. }) => return Ok(()),
        Err(e) => return Err(format!("enumeration failed: {e}")),
    };
    let n = btn.node_count();
    let cert = certain_positives(&sols, n);
    let poss = possible_positives(&sols, n);
    for x in btn.nodes() {
        let i = x as usize;
        if engine.cert(x) != cert[i] {
            return Err(format!(
                "cert diverged at node {x}: exact {:?}, brute force {:?}",
                engine.cert(x),
                cert[i]
            ));
        }
        let brute: Vec<Value> = poss[i].iter().copied().collect();
        if engine.poss(x) != brute {
            return Err(format!(
                "poss diverged at node {x}: exact {:?}, brute force {:?}",
                engine.poss(x),
                brute
            ));
        }
        // Outcome multiplicity is consistent with the solution count: a
        // unique outcome exactly when all solutions agree at the node
        // (and at least one exists).
        let distinct = {
            let mut sets: Vec<_> = sols.iter().map(|s| s[i].clone()).collect();
            sets.sort_unstable();
            sets.dedup();
            sets.len()
        };
        if engine.outcomes(x).len() != distinct {
            return Err(format!(
                "outcome count diverged at node {x}: exact {}, brute force {distinct}",
                engine.outcomes(x).len()
            ));
        }
    }
    Ok(())
}

/// `exact ⊆ repPoss` on every user, mapping user → node in each side's
/// own BTN (engine BTNs can carry dead nodes a fresh binarize drops).
fn assert_contained(
    exact: &ExactEngine,
    exact_btn: &Btn,
    rep: &SkepticResolution,
    rep_btn: &Btn,
    net: &TrustNetwork,
    label: &str,
) -> Result<(), String> {
    for u in net.users() {
        let en = exact_btn.node_of(u);
        let rn = rep_btn.node_of(u);
        let rep_pos = &rep.rep_poss(rn).pos;
        for v in exact.poss(en) {
            if !rep_pos.contains(&v) {
                return Err(format!(
                    "{label}: exact possible {v:?} at {u} missing from repPoss {rep_pos:?}"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The exact engine (rebuilt from scratch each step, so ties and
    /// no-stable-solution states are all in scope) agrees with the
    /// possible-world enumeration after every step of a signed stream.
    #[test]
    fn exact_equals_brute_force(
        raw in raw_net(8, 14),
        edits in raw_edits(8),
    ) {
        let (mut net, values) = build(&raw);
        let btn = binarize(&net);
        match ExactEngine::new(&btn) {
            Ok(engine) => {
                if let Err(why) = matches_enumeration(&engine, &btn) {
                    return Err(TestCaseError::fail(format!("initial network: {why}")));
                }
            }
            Err(Error::EnumerationTooLarge { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("exact build: {e}"))),
        }
        for (step, &raw_edit) in edits.iter().enumerate() {
            let edit = concretize(raw_edit, raw.users, &values);
            apply_to_net(&mut net, &edit);
            let btn = binarize(&net);
            match ExactEngine::new(&btn) {
                Ok(engine) => {
                    if let Err(why) = matches_enumeration(&engine, &btn) {
                        return Err(TestCaseError::fail(
                            format!("step {step} ({edit:?}): {why}")
                        ));
                    }
                }
                Err(Error::EnumerationTooLarge { .. }) => return Ok(()),
                Err(e) => return Err(TestCaseError::fail(format!("exact rebuild: {e}"))),
            }
        }
    }

    /// The incrementally patched exact engine stays contained in the
    /// repPoss of all five Algorithm-2 implementations at every step, at
    /// every thread count.
    #[test]
    fn exact_contained_in_all_five_strategies(
        raw in raw_net(7, 12),
        edits in raw_edits(8),
        threads in 1usize..=4,
    ) {
        let (mut net, values) = build(&raw);
        // Implementation 1: the incremental engine.
        let Ok(mut inc_seq) = SkepticIncremental::new(&net) else {
            return Ok(()); // tied priorities: out of Algorithm 2's domain
        };
        let mut exact = match ExactEngine::new(inc_seq.btn()) {
            Ok(e) => e,
            Err(Error::EnumerationTooLarge { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("exact build: {e}"))),
        };
        for (step, &raw_edit) in edits.iter().enumerate() {
            let edit = concretize(raw_edit, raw.users, &values);
            apply_to_net(&mut net, &edit);
            if inc_seq.apply_edits(&net, std::slice::from_ref(&edit)).is_err() {
                return Ok(()); // a trust edit created a tie: contract ends
            }
            exact.grow(inc_seq.btn().node_count());
            match exact.update(inc_seq.btn(), inc_seq.last_dirty_nodes()) {
                Ok(()) => {}
                Err(Error::EnumerationTooLarge { .. }) => return Ok(()),
                Err(e) => return Err(TestCaseError::fail(format!("exact patch: {e}"))),
            }

            let btn = binarize(&net);
            // Implementation 2: sequential whole-network Algorithm 2.
            let full = resolve_skeptic(&btn).expect("tie-free");
            // Implementation 3: the one-pass condensation-sharded solver.
            let sharded = resolve_skeptic_parallel(&btn, threads).expect("tie-free");
            // Implementations 4–5: the per-object bulk executor and the
            // compiled bulk schedule, seeded with each positive believer's
            // value for a single object.
            let seeds: Vec<SeedValues> = net
                .users()
                .filter_map(|u| {
                    net.belief(u)
                        .positive()
                        .map(|v| SeedValues { user: u, values: vec![v] })
                })
                .collect();
            let bulk = resolve_objects_skeptic(&btn, &seeds, 1, threads)
                .expect("tie-free");
            let compiled =
                execute_skeptic_native(&plan_bulk_skeptic(&btn).expect("tie-free"), &seeds, 1);

            // The engine and the bulk tables expose rep_poss directly.
            for u in net.users() {
                let en = inc_seq.btn().node_of(u);
                let fn_ = btn.node_of(u);
                for (label, pos) in [
                    ("incremental", &inc_seq.rep_poss(en).pos),
                    ("bulk", &bulk.rep(fn_, 0).pos),
                    ("compiled bulk", &compiled.rep(fn_, 0).pos),
                ] {
                    for v in exact.poss(en) {
                        prop_assert!(
                            pos.contains(&v),
                            "step {} ({:?}): exact {:?} at {} escapes {} repPoss",
                            step, edit, v, u, label
                        );
                    }
                }
            }
            assert_contained(&exact, inc_seq.btn(), &full, &btn, &net, "sequential full")
                .map_err(|m| TestCaseError::fail(format!("step {step}: {m}")))?;
            assert_contained(&exact, inc_seq.btn(), &sharded, &btn, &net, "sharded full")
                .map_err(|m| TestCaseError::fail(format!("step {step}: {m}")))?;
        }
    }

    /// On DAGs every paradigm has one stable solution: the exact engine
    /// must report singleton outcomes equal to the acyclic evaluation,
    /// with cert exactly its positive.
    #[test]
    fn exact_agrees_with_acyclic_on_dags(
        raw in raw_dag(10, 16),
    ) {
        let (net, _values) = build(&raw);
        let btn = binarize(&net);
        if btn.has_ties() {
            // Tied priorities fork even acyclic networks (Definition B.3);
            // the acyclic evaluator rejects them, and the brute-force test
            // above already covers tied outcomes.
            return Ok(());
        }
        let engine = match ExactEngine::new(&btn) {
            Ok(e) => e,
            Err(Error::EnumerationTooLarge { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("exact build: {e}"))),
        };
        let sol = evaluate_acyclic(&btn, Paradigm::Skeptic).expect("acyclic by construction");
        for x in btn.nodes() {
            prop_assert!(engine.is_unique(x), "node {} must have one outcome", x);
            prop_assert_eq!(
                engine.outcomes(x),
                std::slice::from_ref(&sol[x as usize]),
                "outcome diverged from acyclic evaluation at node {}", x
            );
            prop_assert_eq!(engine.cert(x), sol[x as usize].pos, "cert at node {}", x);
        }
    }
}

/// The FIDELITY F1 `prefNeg` family: Algorithm 2 over-approximates the
/// possible positives of `x` because `prefNeg` only forces negatives
/// through *preferred* chains, missing constraints that hold in every
/// stable solution via non-preferred parents. Each case returns
/// `(network, probe)` where the exact possible set at `probe` is strictly
/// smaller than Algorithm 2's.
fn pref_neg_gap_cases() -> Vec<(TrustNetwork, User, &'static str)> {
    // Base counterexample (docs/FIDELITY.md): q{c−}, z{a−}, w{a+};
    // y trusts q(2), z(1); x trusts y(2), w(1). In every stable solution
    // y carries {a−, c−}, so x cannot adopt w's a+ — yet repPoss keeps
    // `a` possible at x.
    let base = || {
        let mut net = TrustNetwork::new();
        let (q, z, w, y, x) = (
            net.user("q"),
            net.user("z"),
            net.user("w"),
            net.user("y"),
            net.user("x"),
        );
        let a = net.value("a");
        let c = net.value("c");
        net.reject(q, NegSet::of([c])).expect("fresh");
        net.reject(z, NegSet::of([a])).expect("fresh");
        net.believe(w, a).expect("fresh");
        net.trust(y, q, 2).expect("fresh");
        net.trust(y, z, 1).expect("fresh");
        net.trust(x, y, 2).expect("fresh");
        net.trust(x, w, 1).expect("fresh");
        (net, x)
    };
    let mut cases = Vec::new();
    let (net, x) = base();
    cases.push((net, x, "base prefNeg counterexample"));

    // The gap propagates: a chain below x inherits the same
    // over-approximation.
    let (mut net, x) = base();
    let d = net.user("d");
    let e = net.user("e");
    net.trust(d, x, 1).expect("fresh");
    net.trust(e, d, 1).expect("fresh");
    cases.push((net, e, "gap propagated through a chain"));

    // Scaled priorities and an extra low-ranked positive branch: the gap
    // is about structure, not the literal priorities, and the exact side
    // still certainly resolves (to the unblocked `b`) while repPoss keeps
    // the blocked `a` around too.
    {
        let mut net = TrustNetwork::new();
        let (q, z, w, y, x, r) = (
            net.user("q"),
            net.user("z"),
            net.user("w"),
            net.user("y"),
            net.user("x"),
            net.user("r"),
        );
        let a = net.value("a");
        let b = net.value("b");
        let c = net.value("c");
        net.reject(q, NegSet::of([c])).expect("fresh");
        net.reject(z, NegSet::of([a])).expect("fresh");
        net.believe(w, a).expect("fresh");
        net.believe(r, b).expect("fresh");
        net.trust(y, q, 20).expect("fresh");
        net.trust(y, z, 10).expect("fresh");
        net.trust(x, y, 20).expect("fresh");
        net.trust(x, w, 10).expect("fresh");
        net.trust(x, r, 5).expect("fresh");
        cases.push((net, x, "scaled priorities with a low-ranked rescue branch"));
    }
    cases
}

/// Satellite: the fixed F1 corpus — the exact engine strictly tightens
/// every known over-approximating network.
#[test]
fn f1_pref_neg_corpus_is_strictly_tightened() {
    for (net, probe, label) in pref_neg_gap_cases() {
        let btn = binarize(&net);
        let engine = ExactEngine::new(&btn).expect("tiny fixed networks");
        let rep = resolve_skeptic(&btn).expect("tie-free");
        let node = btn.node_of(probe);
        let exact_poss = engine.poss(node);
        let rep_pos: Vec<Value> = rep.rep_poss(node).pos.iter().copied().collect();
        // Containment always...
        for v in &exact_poss {
            assert!(
                rep_pos.contains(v),
                "{label}: exact {v:?} escapes repPoss {rep_pos:?}"
            );
        }
        // ...and strictly smaller on this family.
        assert!(
            exact_poss.len() < rep_pos.len(),
            "{label}: expected a strict gap at {}, both sides are {rep_pos:?}",
            net.user_name(probe)
        );
        // The whole network still agrees with brute force.
        matches_enumeration(&engine, &btn).expect("corpus stays enumerable");
    }
}

/// Satellite: empty regions are free and cluster-local edits (including
/// revoke-into-DAG transitions, which collapse a cluster's cycle) never
/// fall back to whole-network evaluation — counter arithmetic only.
#[test]
fn exact_counters_stay_region_bound() {
    let w = oscillators(250); // 1000 users, 4-node independent clusters
    let mut net = w.net.clone();
    let mut engine = SkepticIncremental::new(&net).expect("distinct priorities");
    let mut exact = ExactEngine::new(engine.btn()).expect("small per-cluster pools");
    let build = exact.counters();
    assert_eq!(build.full_solves, 1, "the build is the only full solve");
    let nodes = engine.btn().node_count();

    let v = net.domain().get("v").expect("oscillator value");
    let b0 = w.believers[0]; // x3 of cluster 0
    let edits: Vec<SignedEdit> = vec![
        SignedEdit::Revoke(b0),     // cluster cycle loses a root: revoke-into-DAG
        SignedEdit::Believe(b0, v), // and back
        SignedEdit::Revoke(b0),     // and away again
    ];
    let mut prev = build;
    for (i, edit) in edits.iter().enumerate() {
        apply_to_net(&mut net, edit);
        engine
            .apply_edits(&net, std::slice::from_ref(edit))
            .expect("tie-free");
        assert!(
            !engine.last_dirty_nodes().is_empty(),
            "edit {i} must dirty the cluster"
        );
        exact.grow(engine.btn().node_count());
        exact
            .update(engine.btn(), engine.last_dirty_nodes())
            .expect("cluster-sized regions");
        let now = exact.counters();
        assert_eq!(
            now.full_solves, 1,
            "edit {i} ({edit:?}) fell back to a full solve"
        );
        let touched = now.nodes_touched - prev.nodes_touched;
        assert!(
            touched <= 16,
            "edit {i} ({edit:?}) touched {touched} of {nodes} nodes — not O(region)"
        );
        assert_eq!(
            now.regions_solved,
            prev.regions_solved + 1,
            "edit {i} ({edit:?}) must solve exactly one region"
        );
        // An empty dirty region between edits is entirely free.
        exact
            .update(engine.btn(), &[])
            .expect("empty region never fails");
        assert_eq!(
            exact.counters(),
            now,
            "empty region after edit {i} must leave every counter untouched"
        );
        prev = now;
    }
    let _ = prev;
}

/// Satellite (mirrors `region_oracle.rs`): exact region-solve scratch
/// tracks the dirty region, not the BTN. Two power-law DAGs an order of
/// magnitude apart, the same probe-chain flip stream — the big network's
/// exact scratch and per-edit touched nodes must match the small one's.
#[test]
fn exact_scratch_bytes_scale_with_region_not_network() {
    /// Max exact scratch and per-edit touched nodes over a probe-chain
    /// flip stream on a `users`-node power-law network.
    fn max_exact_scratch(users: usize) -> (usize, u64, usize) {
        let w = power_law(users, 2, 4, 0.2, 8 + users as u64);
        let mut net = w.net.clone();
        let v0 = net.value("probe-v0");
        let v1 = net.value("probe-v1");
        let root = net.user("probe-root");
        net.believe(root, v0).expect("fresh user");
        let mut prev = root;
        for i in 0..32 {
            let u = net.user(&format!("probe-{i}"));
            net.trust(u, prev, 1).expect("fresh users");
            prev = u;
        }
        let mut engine = SkepticIncremental::new(&net).expect("distinct priorities");
        let mut exact = ExactEngine::new(engine.btn()).expect("power-law DAGs are cheap");
        let mut max_bytes = 0;
        let mut max_touched = 0u64;
        let mut prev_counters = exact.counters();
        for step in 0..20 {
            let v = if step % 2 == 0 { v1 } else { v0 };
            net.believe(root, v).expect("valid");
            engine
                .apply_edits(&net, &[SignedEdit::Believe(root, v)])
                .expect("tie-free");
            exact
                .update(engine.btn(), engine.last_dirty_nodes())
                .expect("chain-sized regions");
            let now = exact.counters();
            max_bytes = max_bytes.max(exact.region_scratch_bytes());
            max_touched = max_touched.max(now.nodes_touched - prev_counters.nodes_touched);
            prev_counters = now;
        }
        assert_eq!(
            prev_counters.full_solves, 1,
            "flips must never leave the probe chain"
        );
        (max_bytes, max_touched, engine.btn().node_count())
    }

    let (small_bytes, small_touched, small_nodes) = max_exact_scratch(2_000);
    let (big_bytes, big_touched, big_nodes) = max_exact_scratch(20_000);
    assert!(
        big_nodes >= 9 * small_nodes,
        "networks must differ by ~10x ({small_nodes} vs {big_nodes})"
    );
    assert_eq!(
        small_touched, big_touched,
        "the probe chain must dirty the same region in both networks"
    );
    assert!(big_touched > 0 && big_touched <= 40, "region is the chain");

    let per_region_budget = 512 * big_touched as usize + 8192;
    assert!(
        big_bytes <= per_region_budget,
        "exact scratch {big_bytes}B exceeds O(region) budget {per_region_budget}B \
         (region {big_touched} of {big_nodes} nodes)"
    );
    assert!(
        big_bytes < big_nodes,
        "exact scratch {big_bytes}B rivals the BTN itself ({big_nodes} nodes)"
    );
    assert!(
        big_bytes <= small_bytes + 1024,
        "exact scratch grew with the network: {small_bytes}B -> {big_bytes}B for \
         an identical {big_touched}-node region"
    );
}
