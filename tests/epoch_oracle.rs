//! Oracle for epoch publication over the chunked copy-on-write snapshot
//! tables (`trustmap_core::cow`): on random positive and signed networks,
//! under edit streams that intern users and values mid-stream, revoke,
//! re-map trust and cross the sign boundary in both directions (first
//! `REJECT` in, last out), single edits and explicit batches alike,
//!
//! 1. the view published after every commit equals a from-scratch
//!    resolution of the current network for every user — `resolve_network`
//!    on positive states, `resolve_skeptic` on signed ones, and a fresh
//!    `ExactUserResolution::snapshot` when exact mode is on;
//! 2. every earlier view still held (the last eight) reads exactly as it
//!    did when it was published. Views share row chunks with the session
//!    and with each other; the one failure mode copy-on-write adds is a
//!    write that reaches a chunk some view still holds.
//!
//! Every network starts with a few hundred belief-free filler users, so
//! the users the stream touches — and the ones it interns — straddle the
//! 256-row chunk boundary.

use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;
use trustmap::skeptic::{resolve_skeptic, RepPoss};
use trustmap::{
    resolve_network, BeliefSet, ExactEngine, ExactUserResolution, NegSet, Session, SignedEdit,
    TrustNetwork, User, Value,
};
use trustmap_core::epoch::EpochView;

const NUM_VALUES: usize = 3;
const HELD_VIEWS: usize = 8;

/// A raw network: `pad` belief-free users, then `users` active ones with
/// tie-free mappings (priorities strictly increase per child) and signed
/// beliefs.
#[derive(Debug, Clone)]
struct RawNet {
    pad: usize,
    users: usize,
    mappings: Vec<(usize, usize)>,
    /// `(user, value, negative?)`.
    beliefs: Vec<(usize, usize, bool)>,
}

#[derive(Debug, Clone, Copy)]
struct RawEdit {
    kind: u8,
    user: usize,
    other: usize,
    value: usize,
}

fn raw_net(max_users: usize, max_maps: usize) -> impl Strategy<Value = RawNet> {
    (250usize..=256, 2..=max_users).prop_flat_map(move |(pad, users)| {
        let mapping = (0..users, 0..users);
        let belief = (0..users, 0..NUM_VALUES, 0usize..4);
        (
            proptest::collection::vec(mapping, 0..=max_maps),
            proptest::collection::vec(belief, 0..=users),
        )
            .prop_map(move |(mappings, beliefs)| RawNet {
                pad,
                users,
                mappings,
                beliefs: beliefs
                    .into_iter()
                    .map(|(u, v, sign)| (u, v, sign == 0))
                    .collect(),
            })
    })
}

/// Commit groups of one to three raw edits: a group of one goes through
/// `apply_signed_edit`, a larger one through `begin_batch` / `commit`.
fn raw_groups(groups: usize) -> impl Strategy<Value = Vec<Vec<RawEdit>>> {
    let edit =
        (0u8..12, 0usize..64, 0usize..64, 0usize..8).prop_map(|(kind, user, other, value)| {
            RawEdit {
                kind,
                user,
                other,
                value,
            }
        });
    proptest::collection::vec(proptest::collection::vec(edit, 1..=3), groups..=groups)
}

fn build(raw: &RawNet, signed: bool) -> TrustNetwork {
    let mut net = TrustNetwork::new();
    for i in 0..raw.pad {
        net.user(&format!("pad{i}"));
    }
    let users: Vec<User> = (0..raw.users).map(|i| net.user(&format!("u{i}"))).collect();
    let values: Vec<Value> = (0..NUM_VALUES)
        .map(|i| net.value(&format!("v{i}")))
        .collect();
    let mut next_priority = vec![1i64; raw.users];
    for &(c, p) in &raw.mappings {
        if c != p {
            next_priority[c] += 1;
            net.trust(users[c], users[p], next_priority[c])
                .expect("valid");
        }
    }
    for &(u, v, negative) in &raw.beliefs {
        if negative && signed {
            net.reject(users[u], NegSet::of([values[v]]))
                .expect("valid");
        } else {
            net.believe(users[u], values[v]).expect("valid");
        }
    }
    net
}

/// Turns a raw edit into a typed one against the session's current
/// network, interning a new user or value first when the raw edit asks
/// for one. Mix: ~25% believe, ~17% reject (believe on positive streams),
/// ~25% revoke, ~17% trust, ~8% new user, ~8% new value.
fn concretize(
    session: &mut Session,
    raw: RawEdit,
    pad: usize,
    serial: usize,
    signed: bool,
) -> SignedEdit {
    // Active users only: fillers stay belief-free.
    let active = session.network().user_count() - pad;
    let pick = |i: usize| User((pad + i % active) as u32);
    let values = session.network().domain().len();
    let user = pick(raw.user);
    let value = Value((raw.value % values) as u32);
    // Priorities above everything issued before: never a tie.
    let priority = 1_000 + serial as i64;
    match raw.kind {
        0..=2 => SignedEdit::Believe(user, value),
        3 | 4 if signed => SignedEdit::Reject(user, NegSet::of([value])),
        3 | 4 => SignedEdit::Believe(user, value),
        5..=7 => SignedEdit::Revoke(user),
        8 | 9 => {
            let parent = pick(raw.other);
            if parent == user {
                SignedEdit::Revoke(user)
            } else {
                SignedEdit::Trust {
                    child: user,
                    parent,
                    priority,
                }
            }
        }
        10 => SignedEdit::Trust {
            child: session.user(&format!("late{serial}")),
            parent: user,
            priority,
        },
        _ => SignedEdit::Believe(user, session.value(&format!("late-v{serial}"))),
    }
}

/// Everything a view answers about one user.
#[derive(Debug, Clone, PartialEq)]
struct RowDump {
    cert: Option<Value>,
    poss: Vec<Value>,
    cert_beliefs: BeliefSet,
    rep: Option<RepPoss>,
    exact: Option<(Option<Value>, Vec<Value>)>,
}

fn dump(view: &EpochView) -> Vec<RowDump> {
    (0..view.user_count() as u32)
        .map(User)
        .map(|u| RowDump {
            cert: view.cert(u),
            poss: view.poss(u),
            cert_beliefs: view.cert_beliefs(u),
            rep: view.skeptic_resolution().map(|r| r.rep_poss(u).clone()),
            exact: view.exact().map(|t| (t.cert(u), t.poss(u).to_vec())),
        })
        .collect()
}

/// Checks `view` against from-scratch resolutions of `net`.
fn check_against_references(
    view: &EpochView,
    net: &TrustNetwork,
    exact: bool,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(view.user_count(), net.user_count(), "{}", context);
    prop_assert_eq!(view.is_skeptic(), net.has_constraints(), "{}", context);
    let btn = trustmap::binarize(net);
    if net.has_constraints() {
        let reference = resolve_skeptic(&btn).expect("tie-free stream");
        let table = view.skeptic_resolution().expect("skeptic view");
        for u in net.users() {
            let rep = reference.rep_poss(btn.node_of(u));
            prop_assert_eq!(table.rep_poss(u), rep, "{}: repPoss of {}", context, u);
            prop_assert_eq!(view.cert(u), rep.cert_positive(), "{}: {}", context, u);
            prop_assert_eq!(
                view.cert_beliefs(u),
                rep.decode_cert(),
                "{}: {}",
                context,
                u
            );
        }
    } else {
        let reference = resolve_network(net).expect("positive network");
        let table = view.basic_resolution().expect("basic view");
        for u in net.users() {
            prop_assert_eq!(
                table.poss(u),
                reference.poss(u),
                "{}: poss of {}",
                context,
                u
            );
            prop_assert_eq!(
                table.cert(u),
                reference.cert(u),
                "{}: cert of {}",
                context,
                u
            );
            prop_assert_eq!(view.poss(u), reference.poss(u), "{}: {}", context, u);
            prop_assert_eq!(view.cert(u), reference.cert(u), "{}: {}", context, u);
        }
    }
    if exact {
        let engine = ExactEngine::new(&btn).expect("small networks enumerate");
        let reference = ExactUserResolution::snapshot(&engine, &btn);
        prop_assert_eq!(view.exact(), Some(&reference), "{}: exact table", context);
    } else {
        prop_assert!(view.exact().is_none(), "{}", context);
    }
    Ok(())
}

/// Drives `groups` through a session over `raw`, publishing after every
/// commit and checking both properties of the module docs.
fn run(
    raw: &RawNet,
    groups: &[Vec<RawEdit>],
    signed: bool,
    exact: bool,
) -> Result<(), TestCaseError> {
    let mut session = Session::new(build(raw, signed));
    if exact {
        session.enable_exact().expect("small networks enumerate");
    }
    let mut held: VecDeque<(Arc<EpochView>, Vec<RowDump>)> = VecDeque::new();
    let first = session.epoch().expect("publishes");
    check_against_references(&first, session.network(), exact, "initial state")?;
    held.push_back((Arc::clone(&first), dump(&first)));

    let mut serial = 0;
    for (step, group) in groups.iter().enumerate() {
        let mut edits = Vec::new();
        if let [single] = group[..] {
            serial += 1;
            let edit = concretize(&mut session, single, raw.pad, serial, signed);
            session.apply_signed_edit(edit.clone()).expect("valid edit");
            edits.push(edit);
        } else {
            session.begin_batch().expect("batch opens");
            for &raw_edit in group {
                serial += 1;
                let edit = concretize(&mut session, raw_edit, raw.pad, serial, signed);
                session.apply_signed_edit(edit.clone()).expect("valid edit");
                edits.push(edit);
            }
            session.commit().expect("batch commits");
        }
        let context = format!("step {step} ({edits:?})");

        let view = session.epoch().expect("publishes");
        check_against_references(&view, session.network(), exact, &context)?;
        for (old, taken) in &held {
            prop_assert_eq!(
                &dump(old),
                taken,
                "{}: epoch {} changed after it was published",
                context,
                old.epoch()
            );
        }
        if !Arc::ptr_eq(&view, &held.back().expect("never empty").0) {
            held.push_back((Arc::clone(&view), dump(&view)));
        }
        if held.len() > HELD_VIEWS {
            held.pop_front();
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Positive networks and streams: the basic pipeline throughout.
    #[test]
    fn positive_views_are_right_and_immutable(
        raw in raw_net(8, 14),
        groups in raw_groups(14),
    ) {
        run(&raw, &groups, false, false)?;
    }

    /// Signed streams cross the sign boundary both ways, so views of both
    /// pipelines are held at once.
    #[test]
    fn signed_views_are_right_and_immutable(
        raw in raw_net(8, 14),
        groups in raw_groups(14),
    ) {
        run(&raw, &groups, true, false)?;
    }

    /// Exact mode on: the published exact table is patched per region like
    /// the other two, and rebuilt at every sign-boundary crossing.
    #[test]
    fn exact_views_are_right_and_immutable(
        raw in raw_net(5, 8),
        groups in raw_groups(10),
    ) {
        run(&raw, &groups, true, true)?;
    }
}
