//! Equivalence oracle for the skeptic (Algorithm 2) fast paths: on random
//! *signed* networks, the condensation-sharded
//! [`SkepticPlannedResolver`] must produce identical `repPoss`
//! representations to the sequential `resolve_skeptic` at every thread
//! count, and the [`SkepticIncremental`] engine must stay equivalent to a
//! from-scratch Algorithm 2 run after every step of a random signed edit
//! stream (believe/revoke/constraint/trust mixes). On *positive* networks
//! the Skeptic paradigm coincides with the basic model (Section 3), so
//! there the engine must also match [`IncrementalResolver`] byte for byte
//! — the groundwork for merging the twin engines. The engine's bulk build
//! must equal an engine grown from empty edit by edit, and still refuse
//! tied priorities. Query routing never changes an answer: a cold
//! session's whole solve and a warm session's patched rows both equal
//! the sequential Algorithm 2.

mod common;

use common::{random_network, NetSpec};
use proptest::prelude::*;
use trustmap::plan::QueryRow;
use trustmap::skeptic::resolve_skeptic;
use trustmap::Route;
use trustmap::{
    Error, ExplicitBelief, IncrementalResolver, NegSet, Query, QueryTarget, Session, SignedEdit,
    SkepticIncremental, TrustNetwork, User, Value,
};
use trustmap_core::parallel::ParOptions;
use trustmap_core::SkepticPlannedResolver;

/// A raw signed network description proptest can generate. Priorities are
/// assigned per child in declaration order (strictly increasing), so the
/// network is always tie-free — Algorithm 2's requirement.
#[derive(Debug, Clone)]
struct RawNet {
    users: usize,
    mappings: Vec<(usize, usize)>,
    /// `(user, value, negative?)` — negative entries assert `{v−}`.
    beliefs: Vec<(usize, usize, bool)>,
}

#[derive(Debug, Clone, Copy)]
struct RawEdit {
    kind: u8,
    user: usize,
    other: usize,
    value: usize,
}

const NUM_VALUES: usize = 3;

fn raw_net(max_users: usize, max_maps: usize) -> impl Strategy<Value = RawNet> {
    (2..=max_users).prop_flat_map(move |users| {
        let mapping = (0..users, 0..users);
        let belief = (0..users, 0..NUM_VALUES, 0usize..2);
        (
            proptest::collection::vec(mapping, 0..=max_maps),
            proptest::collection::vec(belief, 0..=users),
        )
            .prop_map(move |(mappings, beliefs)| RawNet {
                users,
                mappings,
                beliefs: beliefs
                    .into_iter()
                    .map(|(u, v, sign)| (u, v, sign == 1))
                    .collect(),
            })
    })
}

fn raw_edits(steps: usize) -> impl Strategy<Value = Vec<RawEdit>> {
    proptest::collection::vec(
        (0u8..10, 0usize..64, 0usize..64, 0usize..NUM_VALUES).prop_map(
            |(kind, user, other, value)| RawEdit {
                kind,
                user,
                other,
                value,
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
    let mut next_priority = vec![1i64; raw.users];
    for &(c, p) in &raw.mappings {
        if c != p {
            let prio = next_priority[c];
            next_priority[c] += 1;
            net.trust(users[c], users[p], prio).expect("valid");
        }
    }
    for &(u, v, negative) in &raw.beliefs {
        if negative {
            net.reject(users[u], NegSet::of([values[v]]))
                .expect("valid");
        } else {
            net.believe(users[u], values[v]).expect("valid");
        }
    }
    (net, values)
}

/// Converts a raw edit against the current network state; trust edits get
/// strictly increasing priorities above everything issued before, so ties
/// can never arise. The mix: ~40% believe, ~20% reject, ~20% revoke,
/// ~20% trust.
fn concretize(raw: RawEdit, step: usize, users: usize, values: &[Value]) -> SignedEdit {
    let user = User((raw.user % users) as u32);
    let value = values[raw.value % values.len()];
    match raw.kind {
        0..=3 => SignedEdit::Believe(user, value),
        4 | 5 => SignedEdit::Reject(user, NegSet::of([value])),
        6 | 7 => SignedEdit::Revoke(user),
        _ => {
            let parent = User((raw.other % users) as u32);
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

/// `net`'s users and values alone, and the signed edits that grow it
/// back: every mapping as a trust edit in declaration order, then every
/// positive or negative belief.
fn bare_and_construction(net: &TrustNetwork) -> (TrustNetwork, Vec<SignedEdit>) {
    let mut bare = TrustNetwork::new();
    for u in net.users() {
        bare.user(net.user_name(u));
    }
    for v in net.domain().values() {
        bare.value(net.domain().name(v));
    }
    let mut edits: Vec<SignedEdit> = net
        .mappings()
        .iter()
        .map(|m| SignedEdit::Trust {
            child: m.child,
            parent: m.parent,
            priority: m.priority,
        })
        .collect();
    for u in net.users() {
        match net.belief(u) {
            ExplicitBelief::Pos(v) => edits.push(SignedEdit::Believe(u, *v)),
            ExplicitBelief::Negs(neg) => edits.push(SignedEdit::Reject(u, neg.clone())),
            ExplicitBelief::None => {}
        }
    }
    (bare, edits)
}

/// Every user's `repPoss` and `prefNeg` in `engine`, read through its own
/// layout, equal a from-scratch Algorithm 2 run over `net`.
fn check_engine(
    engine: &SkepticIncremental,
    net: &TrustNetwork,
    what: &str,
) -> Result<(), TestCaseError> {
    let btn = trustmap_core::binarize(net);
    let reference = resolve_skeptic(&btn).expect("tie-free by construction");
    for u in net.users() {
        let x = engine.btn().node_of(u);
        prop_assert_eq!(
            engine.rep_poss(x),
            reference.rep_poss(btn.node_of(u)),
            "{}: repPoss diverged for user {}",
            what,
            u
        );
        prop_assert_eq!(
            engine.pref_neg(x),
            reference.pref_neg(btn.node_of(u)),
            "{}: prefNeg diverged for user {}",
            what,
            u
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bulk-seeded engine, an engine grown from the bare users by
    /// patching the construction edits one at a time, and a full
    /// Algorithm 2 run agree on every user; the same random signed edit
    /// stream then keeps both engines equal to a full run after every
    /// step.
    #[test]
    fn bulk_seed_equals_patching_from_empty(
        raw in raw_net(6, 10),
        edits in raw_edits(16),
    ) {
        let (mut net, values) = build(&raw);
        let mut seeded = SkepticIncremental::new(&net).expect("tie-free");
        let (mut grown_net, construction) = bare_and_construction(&net);
        let mut grown = SkepticIncremental::new(&grown_net).expect("empty network");
        for edit in &construction {
            apply_to_net(&mut grown_net, edit);
            grown
                .apply_edits(&grown_net, std::slice::from_ref(edit))
                .expect("tie-free");
        }
        check_engine(&seeded, &net, "seeded")?;
        check_engine(&grown, &net, "grown")?;
        for (step, &raw_edit) in edits.iter().enumerate() {
            let edit = concretize(raw_edit, step, raw.users, &values);
            apply_to_net(&mut net, &edit);
            for engine in [&mut seeded, &mut grown] {
                engine
                    .apply_edits(&net, std::slice::from_ref(&edit))
                    .expect("tie-free stream");
            }
            check_engine(&seeded, &net, &format!("step {step} ({edit:?}), seeded"))?;
            check_engine(&grown, &net, &format!("step {step} ({edit:?}), grown"))?;
        }
    }

    /// Identical representations at 1–8 threads, in both dependency modes
    /// and at a shard granularity small enough to force real cross-shard
    /// scheduling.
    #[test]
    fn sharded_skeptic_equals_sequential(raw in raw_net(12, 24)) {
        let (net, _) = build(&raw);
        let btn = trustmap_core::binarize(&net);
        let seq = resolve_skeptic(&btn).expect("tie-free by construction");
        for threads in [1usize, 2, 3, 8] {
            for exact_deps in [false, true] {
                let planned = SkepticPlannedResolver::new(
                    &btn,
                    ParOptions { threads, shard_target: 2, exact_deps },
                )
                .expect("tie-free");
                let par = planned.resolve(&btn, threads).expect("resolves");
                for x in btn.nodes() {
                    prop_assert_eq!(
                        seq.rep_poss(x), par.rep_poss(x),
                        "node {} at {} threads (exact={})", x, threads, exact_deps
                    );
                }
            }
        }
    }

    /// The incremental skeptic engine equals a from-scratch Algorithm 2
    /// run after every step of a random signed edit stream.
    #[test]
    fn incremental_skeptic_equals_full_resolution(
        raw in raw_net(6, 10),
        edits in raw_edits(16),
    ) {
        let (mut net, values) = build(&raw);
        let mut engine = SkepticIncremental::new(&net).expect("tie-free");
        for (step, &raw_edit) in edits.iter().enumerate() {
            let edit = concretize(raw_edit, step, raw.users, &values);
            apply_to_net(&mut net, &edit);
            engine
                .apply_edits(&net, std::slice::from_ref(&edit))
                .expect("tie-free stream");
            let btn = trustmap_core::binarize(&net);
            let reference = resolve_skeptic(&btn).expect("resolves");
            for u in net.users() {
                prop_assert_eq!(
                    engine.rep_poss(engine.btn().node_of(u)),
                    reference.rep_poss(btn.node_of(u)),
                    "step {} ({:?}): repPoss diverged for user {}", step, edit, u
                );
            }
        }
    }

    /// Positive networks and positive edit streams: the skeptic engine is
    /// the basic engine — same possible positives (nothing negative, no
    /// ⊥), same certain value, and the same `BeliefChange`s at every
    /// step.
    #[test]
    fn skeptic_engine_equals_basic_engine_on_positive_networks(
        raw in raw_net(6, 10),
        edits in raw_edits(16),
    ) {
        let positive = RawNet {
            beliefs: raw.beliefs.iter().map(|&(u, v, _)| (u, v, false)).collect(),
            ..raw.clone()
        };
        let (mut net, values) = build(&positive);
        let mut basic = IncrementalResolver::new(&net).expect("positive network");
        let mut skeptic = SkepticIncremental::new(&net).expect("tie-free");
        for (step, &raw_edit) in edits.iter().enumerate() {
            let edit = match concretize(raw_edit, step, raw.users, &values) {
                SignedEdit::Believe(u, v) => trustmap::Edit::Believe(u, v),
                // Constraint slots of the raw stream assert the value
                // instead: the stream stays positive.
                SignedEdit::Reject(u, _) => {
                    trustmap::Edit::Believe(u, values[raw_edit.value % values.len()])
                }
                SignedEdit::Revoke(u) => trustmap::Edit::Revoke(u),
                SignedEdit::Trust { child, parent, priority } => {
                    trustmap::Edit::Trust { child, parent, priority }
                }
            };
            let signed = SignedEdit::from(edit);
            apply_to_net(&mut net, &signed);
            // Each engine reports changes in the traversal order of its
            // own BTN layout, and the layouts legitimately part ways at
            // the first revoke (the basic engine keeps the beliefless
            // root in place, the skeptic engine rebuilds the cascade):
            // the stream is compared as the per-user set it is.
            let mut basic_changes = basic.apply_edits(&net, &[edit]);
            let mut skeptic_changes = skeptic
                .apply_edits(&net, std::slice::from_ref(&signed))
                .expect("tie-free stream");
            basic_changes.sort_by_key(|c| c.user);
            skeptic_changes.sort_by_key(|c| c.user);
            prop_assert_eq!(
                &basic_changes, &skeptic_changes,
                "step {} ({:?}): change streams diverged", step, edit
            );
            for u in net.users() {
                let poss = basic.poss(basic.btn().node_of(u));
                let rep = skeptic.rep_poss(skeptic.btn().node_of(u));
                prop_assert_eq!(
                    poss, &rep.pos.iter().copied().collect::<Vec<_>>()[..],
                    "step {} ({:?}): possible positives diverged for {}", step, edit, u
                );
                prop_assert!(
                    rep.neg.is_empty() && !rep.bottom,
                    "step {} ({:?}): {} carries a negative or ⊥", step, edit, u
                );
                let cert = if poss.len() == 1 { Some(poss[0]) } else { None };
                prop_assert_eq!(
                    cert, rep.cert_positive(),
                    "step {} ({:?}): certain value diverged for {}", step, edit, u
                );
            }
        }
    }
}

/// The rows of every user as the sequential Algorithm 2 defines them.
fn reference_rows(net: &TrustNetwork) -> Vec<QueryRow> {
    let btn = trustmap_core::binarize(net);
    let res = resolve_skeptic(&btn).expect("tie-free network");
    net.users()
        .map(|u| {
            let rep = res.rep_poss(btn.node_of(u));
            QueryRow {
                user: u,
                cert: rep.cert_positive(),
                poss: rep.pos.iter().copied().collect(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Query routing never changes an answer on signed networks either:
    /// `CERT *` and `POSS *` on a cold session (one whole Algorithm 2
    /// solve) and on a warm one (the patched skeptic engine) both equal
    /// the sequential Algorithm 2, row for row.
    #[test]
    fn cold_and_warm_reads_equal_the_reference_solver(
        seed in any::<u64>(),
        users in 2usize..10,
        mappings in 0usize..20,
        rejects in proptest::collection::vec((0usize..16, 0usize..3), 1..4),
    ) {
        let mut net = random_network(
            NetSpec { users, values: 3, mappings, believer_p: 0.4, tie_free: true },
            seed,
        );
        let values: Vec<_> = (0..3)
            .map(|i| net.domain().get(&format!("v{i}")).expect("interned"))
            .collect();
        for (u, v) in rejects {
            // Rejections replace positive beliefs; collisions are fine.
            let _ = net.reject(User((u % users) as u32), NegSet::of([values[v]]));
        }
        let reference = reference_rows(&net);
        for query in [Query::cert(QueryTarget::All), Query::poss(QueryTarget::All)] {
            let cold = Session::new(net.clone()).query(&query).expect("resolves");
            let mut warm = Session::new(net.clone());
            warm.skeptic_snapshot().expect("tie-free network resolves");
            let warm = warm.query(&query).expect("resolves");
            prop_assert_eq!(cold.route, Route::WholeSolve);
            prop_assert_eq!(warm.route, Route::IncrementalPatch);
            prop_assert_eq!(&cold.rows, &reference, "{}: whole solve diverged", query);
            prop_assert_eq!(&warm.rows, &reference, "{}: patched rows diverged", query);
        }
    }
}

/// Fixed-seed regression on the benchmark workloads: the exact signed
/// power-law networks `skeptic_bench` runs must agree across thread
/// counts, shard targets, and dependency modes, and the incremental engine
/// must track a seeded signed edit stream.
#[test]
fn fixed_seed_signed_regression() {
    use trustmap::workloads::{power_law_signed, signed_edit_stream, SignedEditMix};

    let w = power_law_signed(3_000, 3, 4, 0.08, 0.3, 42);
    let btn = trustmap_core::binarize(&w.net);
    let seq = resolve_skeptic(&btn).expect("tie-free generator");
    for threads in [2usize, 4, 8] {
        for (shard_target, exact_deps) in [(7, false), (7, true), (4096, false)] {
            let planned = SkepticPlannedResolver::new(
                &btn,
                ParOptions {
                    threads,
                    shard_target,
                    exact_deps,
                },
            )
            .expect("tie-free");
            let par = planned.resolve(&btn, threads).expect("resolves");
            for x in btn.nodes() {
                assert_eq!(
                    seq.rep_poss(x),
                    par.rep_poss(x),
                    "node {x}, {threads} threads, target {shard_target}"
                );
            }
        }
    }

    // Incremental vs full over the benchmark's edit mix.
    let mut net = w.net.clone();
    let mut engine = SkepticIncremental::new(&net).expect("tie-free");
    let stream = signed_edit_stream(&w, 60, SignedEditMix::default(), 7);
    for (step, edit) in stream.iter().enumerate() {
        trustmap::workloads::apply_signed_edit(&mut net, edit);
        engine
            .apply_edits(&net, std::slice::from_ref(edit))
            .expect("tie-free");
        if step % 20 == 19 {
            let check_btn = trustmap_core::binarize(&net);
            let reference = resolve_skeptic(&check_btn).expect("resolves");
            for u in net.users() {
                assert_eq!(
                    engine.rep_poss(engine.btn().node_of(u)),
                    reference.rep_poss(check_btn.node_of(u)),
                    "step {step}, user {u}"
                );
            }
        }
    }
}

/// Every thread count × shard granularity × dependency mode the oracle
/// drives a fixed network through.
fn all_options() -> impl Iterator<Item = ParOptions> {
    [1usize, 2, 3, 8].into_iter().flat_map(|threads| {
        [(1, true), (2, false), (8192, false)]
            .into_iter()
            .map(move |(shard_target, exact_deps)| ParOptions {
                threads,
                shard_target,
                exact_deps,
            })
    })
}

/// Ties still fail the skeptic engine's build, naming the tied user: the
/// bulk build checks every node, with no seed list to go by. A network
/// with one tied user — at its own node (two equal parents), or inside
/// its cascade (the lowest two of three) — fails `SkepticIncremental::new`
/// and a commit that reseeds the engine alike.
#[test]
fn ties_fail_the_bulk_build_for_the_tied_user() {
    for interior in [false, true] {
        let mut net = TrustNetwork::new();
        let [guard, source, x, a, b, c, tied] =
            users(&mut net, ["guard", "source", "x", "a", "b", "c", "tied"]);
        let v = net.value("v");
        net.reject(guard, NegSet::of([v])).unwrap();
        net.believe(source, v).unwrap();
        net.trust(x, guard, 2).unwrap();
        net.trust(x, source, 1).unwrap();
        let mut session = Session::new(net.clone());
        session.skeptic_snapshot().expect("tie-free");

        let mut tie = vec![(a, 5), (b, 5)];
        if interior {
            tie.push((c, 9));
        }
        for &(parent, priority) in &tie {
            net.trust(tied, parent, priority).unwrap();
        }
        assert!(
            matches!(SkepticIncremental::new(&net), Err(Error::TiesUnsupported(u)) if u == tied),
            "interior={interior}: the build must name the tied user"
        );

        // Re-asserting one belief once per user makes the batch larger
        // than the network, so the commit reseeds rather than drains.
        session.begin_batch().unwrap();
        for _ in 0..net.user_count() {
            session.believe(source, v).unwrap();
        }
        for &(parent, priority) in &tie {
            session.trust(tied, parent, priority).unwrap();
        }
        assert!(
            matches!(session.commit(), Err(Error::TiesUnsupported(u)) if u == tied),
            "interior={interior}: the reseeding commit must name the tied user"
        );
    }
}

/// Interns `names` in order.
fn users<const N: usize>(net: &mut TrustNetwork, names: [&str; N]) -> [User; N] {
    names.map(|n| net.user(n))
}

/// Hand-built signed networks whose answer is decided inside cyclic units
/// — the part of the one-pass solver random sparse networks reach least.
fn cycle_rich_signed_networks() -> Vec<(&'static str, TrustNetwork)> {
    let mut nets = Vec::new();

    // Chained 2-cycles, each fed by the previous one and an outside root;
    // every third cycle sits behind a guard rejecting `v`, so blocked
    // values turn into ⊥ level after level.
    let mut net = TrustNetwork::new();
    let (v, w) = (net.value("v"), net.value("w"));
    let (r1, r2, guard) = (net.user("r1"), net.user("r2"), net.user("guard"));
    net.believe(r1, v).expect("valid");
    net.believe(r2, w).expect("valid");
    net.reject(guard, NegSet::of([v])).expect("valid");
    let mut prev = r1;
    for i in 0..12 {
        let a = net.user(&format!("a{i}"));
        let b = net.user(&format!("b{i}"));
        if i % 3 == 0 {
            net.trust(a, guard, 20).expect("valid");
        }
        net.trust(a, b, 10).expect("valid");
        net.trust(b, a, 10).expect("valid");
        net.trust(a, prev, 5).expect("valid");
        net.trust(b, r2, 1).expect("valid");
        prev = b;
    }
    nets.push(("guarded nested SCC chain", net));

    // A preferred edge entering a cycle from a constraint-only (Type 1)
    // root: Step 1 must not close x1 through it (Appendix B.7) — the cycle
    // floods, and the guard's `v−` rides the preferred chain as prefNeg.
    let mut net = TrustNetwork::new();
    let (v, w) = (net.value("v"), net.value("w"));
    let [x1, x2, x3, guard, s, t, tail] =
        users(&mut net, ["x1", "x2", "x3", "guard", "s", "t", "tail"]);
    net.trust(x1, guard, 100).expect("valid");
    net.trust(x1, x3, 50).expect("valid");
    net.trust(x2, x1, 100).expect("valid");
    net.trust(x2, s, 50).expect("valid");
    net.trust(x3, x2, 100).expect("valid");
    net.trust(x3, t, 50).expect("valid");
    net.trust(tail, x3, 1).expect("valid");
    net.reject(guard, NegSet::of([v])).expect("valid");
    net.believe(s, v).expect("valid");
    net.believe(t, w).expect("valid");
    nets.push(("Type-1 preferred edge into a cycle", net));

    // A cycle no belief reaches stays empty; a cycle only a constraint
    // reaches carries that constraint and nothing else.
    let mut net = TrustNetwork::new();
    let v = net.value("v");
    let [a, b, c, d, neg, x, live] = users(&mut net, ["a", "b", "c", "d", "neg", "x", "live"]);
    net.trust(a, b, 1).expect("valid");
    net.trust(b, a, 1).expect("valid");
    net.trust(c, d, 2).expect("valid");
    net.trust(d, c, 2).expect("valid");
    net.trust(c, neg, 1).expect("valid");
    net.reject(neg, NegSet::of([v])).expect("valid");
    net.trust(x, a, 100).expect("valid");
    net.trust(x, live, 1).expect("valid");
    net.believe(live, v).expect("valid");
    nets.push(("beliefless and constraint-only cycles", net));

    nets.push((
        "an empty constraint upstream of 2-cycles",
        empty_constraint_over_cycles().0,
    ));

    nets
}

/// A `Negs(∅)` root `n` — a constraint that rejects nothing — as the
/// preferred parent of the 2-cycle `a ↔ b`, which `s` (believing `v`)
/// also feeds, and as the only feed of the 2-cycle `c ↔ d`, which `t`
/// trusts. `n` and its pure descendants `c`, `d`, `t` are reachable yet
/// close empty: the one place where "reachable" and "non-empty" part.
fn empty_constraint_over_cycles() -> (TrustNetwork, [User; 7], [Value; 2]) {
    let mut net = TrustNetwork::new();
    let (v, w) = (net.value("v"), net.value("w"));
    // `s` comes first, so silencing every second believer strands `a ↔ b`.
    let [s, n, a, b, c, d, t] = users(&mut net, ["s", "n", "a", "b", "c", "d", "t"]);
    net.believe(s, v).expect("valid");
    net.reject(n, NegSet::empty()).expect("valid");
    net.trust(a, n, 20).expect("valid");
    net.trust(a, b, 10).expect("valid");
    net.trust(b, a, 20).expect("valid");
    net.trust(b, s, 10).expect("valid");
    net.trust(c, n, 20).expect("valid");
    net.trust(c, d, 10).expect("valid");
    net.trust(d, c, 20).expect("valid");
    net.trust(t, d, 1).expect("valid");
    (net, [s, n, a, b, c, d, t], [v, w])
}

/// The one-pass [`SkepticPlannedResolver`], under every option set,
/// equals Algorithm 2 as printed on every node of `net`.
fn assert_planned_equals_printed(net: &TrustNetwork, what: &str) {
    let btn = trustmap_core::binarize(net);
    let seq = resolve_skeptic(&btn).expect("tie-free by construction");
    for opts in all_options() {
        let planned = SkepticPlannedResolver::new(&btn, opts).expect("tie-free");
        let par = planned.resolve(&btn, opts.threads).expect("resolves");
        for x in btn.nodes() {
            assert_eq!(
                seq.rep_poss(x),
                par.rep_poss(x),
                "{what}: node {x} under {opts:?}"
            );
            assert_eq!(seq.pref_neg(x), par.pref_neg(x), "{what}: prefNeg {x}");
        }
    }
}

/// One-pass Algorithm 2 ≡ Algorithm 2 as printed where the cyclic-unit
/// replay does the work.
#[test]
fn cycle_rich_signed_networks_equal_the_printed_algorithm() {
    for (name, net) in cycle_rich_signed_networks() {
        assert_planned_equals_printed(&net, name);
    }
}

/// Applies each edit of `script` to `net` and, alone, to `engine`; after
/// each, the engine and the one-pass solver equal Algorithm 2 as printed,
/// and `check` sees the reference.
fn run_signed_script(
    net: &mut TrustNetwork,
    engine: &mut SkepticIncremental,
    script: &[SignedEdit],
    tag: &str,
    mut check: impl FnMut(usize, &trustmap::skeptic::SkepticResolution, &trustmap::Btn, &str),
) {
    for (step, edit) in script.iter().enumerate() {
        apply_to_net(net, edit);
        engine
            .apply_edits(net, std::slice::from_ref(edit))
            .expect("tie-free");
        let what = format!("{tag}, after {edit:?}");
        check_engine(engine, net, &what).unwrap_or_else(|e| panic!("{e}"));
        assert_planned_equals_printed(net, &what);
        let btn = trustmap_core::binarize(net);
        let reference = resolve_skeptic(&btn).expect("tie-free");
        check(step, &reference, &btn, &what);
    }
}

/// The signed mirror of `incremental_oracle`'s test of the same name. A
/// dirty region mixes reachable and unreachable members: `x`'s preferred
/// parent `p` goes unreachable while `x` stays reachable through its
/// other parent, once acyclic and once inside a 2-cycle. Both solvers
/// must fall back to the other parent (never Step-1-copy an empty
/// preferred parent), return to `p` when it believes again, make `x` wait
/// for Step 2 when `p` turns into a constraint-only root (Type 1 and
/// non-empty: its `w−` blocks the other parent's `w` into ⊥), and ignore
/// a new top-priority parent that believes nothing.
#[test]
fn a_lost_preferred_parent_falls_back_to_the_other_parent() {
    for cyclic in [false, true] {
        let mut net = TrustNetwork::new();
        let [x, p, y, q, d] = users(&mut net, ["x", "p", "y", "q", "d"]);
        let [v, w, u] = ["v", "w", "u"].map(|n| net.value(n));
        net.trust(x, p, 20).expect("valid");
        net.believe(p, v).expect("valid");
        net.believe(y, w).expect("valid");
        net.trust(d, x, 1).expect("valid");
        if cyclic {
            // x ↔ z, and y reaches x only through z.
            let z = net.user("z");
            net.trust(x, z, 10).expect("valid");
            net.trust(z, x, 20).expect("valid");
            net.trust(z, y, 10).expect("valid");
        } else {
            net.trust(x, y, 10).expect("valid");
        }
        let mut engine = SkepticIncremental::new(&net).expect("tie-free");
        let script = [
            SignedEdit::Revoke(p),
            SignedEdit::Believe(p, u),
            SignedEdit::Reject(p, NegSet::of([w])),
            SignedEdit::Believe(p, u),
            SignedEdit::Trust {
                child: x,
                parent: q,
                priority: 30,
            },
        ];
        let expected = [Some(w), Some(u), None, Some(u), Some(u)];
        let tag = format!("cyclic={cyclic}");
        run_signed_script(
            &mut net,
            &mut engine,
            &script,
            &tag,
            |step, r, btn, what| {
                for user in [x, d] {
                    let rep = r.rep_poss(btn.node_of(user));
                    assert_eq!(rep.cert_positive(), expected[step], "{what}");
                    if expected[step].is_none() {
                        assert!(rep.bottom && rep.neg.contains(w), "{what}: {rep:?}");
                    }
                }
            },
        );
    }
}

/// A `Negs(∅)` root closes on nothing: its pure descendants close empty
/// although they are reachable, and a child whose preferred parent it is
/// waits for Step 2. Then the root rejects `v`, rejects nothing again, is
/// revoked, rejects nothing once more and finally believes `w`; after
/// each edit the engine and the one-pass solver equal Algorithm 2 as
/// printed.
#[test]
fn an_empty_constraint_root_passes_nothing_on() {
    let (mut net, [_, n, a, b, c, d, t], [v, w]) = empty_constraint_over_cycles();
    let mut engine = SkepticIncremental::new(&net).expect("tie-free");
    check_engine(&engine, &net, "build").unwrap_or_else(|e| panic!("{e}"));
    let script = [
        SignedEdit::Reject(n, NegSet::of([v])),
        SignedEdit::Reject(n, NegSet::empty()),
        SignedEdit::Revoke(n),
        SignedEdit::Reject(n, NegSet::empty()),
        SignedEdit::Believe(n, w),
    ];
    // The certain positive of a ↔ b, and of c ↔ d with t, per step.
    let expected = [
        (None, None),
        (Some(v), None),
        (Some(v), None),
        (Some(v), None),
    ];
    run_signed_script(
        &mut net,
        &mut engine,
        &script,
        "Negs(∅)",
        |step, r, btn, what| {
            let rep = |u| r.rep_poss(btn.node_of(u));
            if let Some(&(fed, pure)) = expected.get(step) {
                for u in [a, b] {
                    assert_eq!(rep(u).cert_positive(), fed, "{what}");
                }
                for u in [c, d, t] {
                    assert_eq!(rep(u).cert_positive(), pure, "{what}");
                    // Only the `v−` step leaves anything on the pure side.
                    assert_eq!(rep(u).is_empty(), step != 0, "{what}: {:?}", rep(u));
                }
            } else {
                for u in [a, b, c, d, t] {
                    assert_eq!(rep(u).cert_positive(), Some(w), "{what}");
                }
            }
        },
    );
}

/// One skeptic plan, many belief assignments: ten reseeds rotate every
/// positive believer's value (constraints keep theirs); the fifth silences
/// every second believer of either sign, the sixth brings them back.
#[test]
fn one_skeptic_plan_serves_reseeded_belief_assignments() {
    use trustmap::workloads::power_law_signed;
    use trustmap::ExplicitBelief;

    let mut workloads = vec![power_law_signed(600, 3, 4, 0.08, 0.3, 42).net];
    workloads.extend(cycle_rich_signed_networks().into_iter().map(|(_, net)| net));
    for (i, net) in workloads.iter().enumerate() {
        let btn = trustmap_core::binarize(net);
        let values: Vec<Value> = net.domain().values().collect();
        let roots: Vec<u32> = net.users().filter_map(|u| btn.belief_root(u)).collect();
        let planned = SkepticPlannedResolver::new(
            &btn,
            ParOptions {
                threads: 3,
                shard_target: 2,
                exact_deps: true,
            },
        )
        .expect("tie-free");
        let mut work = btn.clone();
        let mut reachable_before = 0;
        for reseed in 0..10 {
            for (j, &root) in roots.iter().enumerate() {
                let belief = if reseed == 4 && j % 2 == 0 {
                    ExplicitBelief::None
                } else {
                    match btn.belief(root) {
                        ExplicitBelief::Pos(_) => {
                            ExplicitBelief::Pos(values[(j + reseed) % values.len()])
                        }
                        constraint => constraint.clone(),
                    }
                };
                work.set_root_belief(root, belief);
            }
            let seq = resolve_skeptic(&work).expect("resolves");
            for threads in [1usize, 3] {
                let par = planned.resolve(&work, threads).expect("resolves");
                for x in btn.nodes() {
                    assert_eq!(
                        seq.rep_poss(x),
                        par.rep_poss(x),
                        "net {i}, reseed {reseed}, node {x}, {threads} threads"
                    );
                }
            }
            let reachable = btn.nodes().filter(|&x| !seq.rep_poss(x).is_empty()).count();
            if reseed == 4 {
                assert!(
                    reachable < reachable_before,
                    "net {i}: silencing believers must strand some region"
                );
            }
            reachable_before = reachable;
        }
    }
}
