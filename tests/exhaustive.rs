//! Bounded-exhaustive oracle: every tie-free network of three users over
//! two values, not a random sample, so the first failure is a smallest
//! one and no seed count is involved.
//!
//! A user holds no belief, `v0` or `v1` — or, in the signed space, the
//! constraint `¬v0` — and trusts an ordered list of the other two users:
//! none, either one, or both in either order (priorities 20 > 10). That is
//! 15³ = 3 375 positive networks and 20³ = 8 000 signed ones. At each:
//!
//! * Algorithm 1 as printed ≡ the one-pass solver ≡ a seeded
//!   [`IncrementalResolver`] ≡ Definition 2.4's brute force;
//! * Algorithm 2 as printed ≡ [`SkepticPlannedResolver`] ≡ a seeded
//!   [`SkepticIncremental`];
//! * every single edit — `Believe v0|v1`, `Revoke`, `Trust` to either
//!   other user at priority 5, 15 or 25 (below, between or above the
//!   existing ones), and `Reject ¬v0` on the signed side — pushed through
//!   a copy of the seeded engine equals a from-scratch solve of the edited
//!   network. That checks the engines' transitions, not only their states.
//!
//! Both spaces take about 2.5 s in a release build. A debug build runs
//! the positive space (about 3 s) and skips the signed one (about 10 s
//! there); CI's release oracle step runs both.

use std::collections::BTreeSet;
use trustmap_core::parallel::resolve_parallel;
use trustmap_core::stable::BruteForce;
use trustmap_core::{
    binarize, resolve, resolve_network, resolve_skeptic, Edit, IncrementalResolver, NegSet,
    ParOptions, SignedEdit, SkepticIncremental, SkepticPlannedResolver, TrustNetwork, User, Value,
};

/// The ordered parent lists of one user, as indices into the other two
/// users; the first entry is the most trusted.
const LISTS: [&[usize]; 5] = [&[], &[0], &[1], &[0, 1], &[1, 0]];

/// Explicit beliefs: none, `v0`, `v1`, and (signed space) `¬v0`.
const POSITIVE_BELIEFS: usize = 3;
const SIGNED_BELIEFS: usize = 4;

/// Builds network `code` of the space with `beliefs` belief choices.
fn network(mut code: usize, beliefs: usize) -> TrustNetwork {
    let mut net = TrustNetwork::new();
    let users: Vec<User> = (0..3).map(|i| net.user(&format!("u{i}"))).collect();
    let values = [net.value("v0"), net.value("v1")];
    for &u in &users {
        let (list, belief) = (code % LISTS.len(), (code / LISTS.len()) % beliefs);
        code /= LISTS.len() * beliefs;
        let others: Vec<User> = users.iter().copied().filter(|&o| o != u).collect();
        for (rank, &o) in LISTS[list].iter().enumerate() {
            net.trust(u, others[o], 20 - 10 * rank as i64)
                .expect("valid mapping");
        }
        match belief {
            0 => {}
            1 | 2 => net.believe(u, values[belief - 1]).expect("valid"),
            _ => net.reject(u, NegSet::of([values[0]])).expect("valid"),
        }
    }
    net
}

/// Every single edit of a network, with the same edit applied to a copy
/// of the network.
fn single_edits(net: &TrustNetwork, signed: bool) -> Vec<(SignedEdit, TrustNetwork)> {
    let values: Vec<Value> = ["v0", "v1"]
        .iter()
        .map(|n| net.domain().get(n).expect("interned"))
        .collect();
    let mut edits = Vec::new();
    for u in net.users() {
        for &v in &values {
            edits.push(SignedEdit::Believe(u, v));
        }
        edits.push(SignedEdit::Revoke(u));
        if signed {
            edits.push(SignedEdit::Reject(u, NegSet::of([values[0]])));
        }
        for parent in net.users().filter(|&p| p != u) {
            for priority in [5, 15, 25] {
                edits.push(SignedEdit::Trust {
                    child: u,
                    parent,
                    priority,
                });
            }
        }
    }
    edits
        .into_iter()
        .map(|edit| {
            let mut after = net.clone();
            match &edit {
                SignedEdit::Believe(u, v) => after.believe(*u, *v),
                SignedEdit::Revoke(u) => after.revoke(*u),
                SignedEdit::Reject(u, neg) => after.reject(*u, neg.clone()),
                SignedEdit::Trust {
                    child,
                    parent,
                    priority,
                } => after.trust(*child, *parent, *priority),
            }
            .expect("valid edit");
            (edit, after)
        })
        .collect()
}

fn positive_edit(edit: &SignedEdit) -> Edit {
    match *edit {
        SignedEdit::Believe(u, v) => Edit::Believe(u, v),
        SignedEdit::Revoke(u) => Edit::Revoke(u),
        SignedEdit::Trust {
            child,
            parent,
            priority,
        } => Edit::Trust {
            child,
            parent,
            priority,
        },
        SignedEdit::Reject(..) => unreachable!("positive space"),
    }
}

/// Algorithm 1 at one positive network and after each of its edits.
fn check_positive(code: usize) {
    let net = network(code, POSITIVE_BELIEFS);
    let btn = binarize(&net);
    let printed = resolve(&btn).expect("positive network");
    let one_pass = resolve_parallel(&btn, 1).expect("positive network");
    for x in btn.nodes() {
        assert_eq!(
            printed.poss(x),
            one_pass.poss(x),
            "network {code}, node {x}"
        );
    }
    let reference = resolve_network(&net).expect("positive network");
    let brute = BruteForce::new(&net, 1 << 20).expect("small network");
    let engine = IncrementalResolver::new(&net).expect("positive network");
    for u in net.users() {
        let poss: BTreeSet<Value> = reference.poss(u).iter().copied().collect();
        assert_eq!(poss, brute.poss(u), "network {code}, {u}: Definition 2.4");
        assert_eq!(reference.cert(u), brute.cert(u), "network {code}, {u}");
        let node = engine.btn().node_of(u);
        assert_eq!(engine.poss(node), reference.poss(u), "network {code}, {u}");
    }
    for (edit, after) in single_edits(&net, false) {
        let mut patched = engine.clone();
        patched.apply_edits(&after, &[positive_edit(&edit)]);
        let reference = resolve_network(&after).expect("positive network");
        for u in after.users() {
            let node = patched.btn().node_of(u);
            assert_eq!(
                patched.poss(node),
                reference.poss(u),
                "network {code} after {edit:?}, {u}"
            );
        }
    }
}

/// Algorithm 2 at one signed network and after each of its edits.
fn check_signed(code: usize) {
    let net = network(code, SIGNED_BELIEFS);
    let btn = binarize(&net);
    let printed = resolve_skeptic(&btn).expect("tie-free");
    let opts = ParOptions {
        threads: 1,
        ..ParOptions::default()
    };
    let planned = SkepticPlannedResolver::new(&btn, opts)
        .expect("tie-free")
        .resolve(&btn, 1)
        .expect("tie-free");
    for x in btn.nodes() {
        assert_eq!(
            printed.rep_poss(x),
            planned.rep_poss(x),
            "network {code}, node {x}"
        );
    }
    let engine = SkepticIncremental::new(&net).expect("tie-free");
    let same = |engine: &SkepticIncremental, net: &TrustNetwork, what: &dyn Fn() -> String| {
        let btn = binarize(net);
        let reference = resolve_skeptic(&btn).expect("tie-free");
        for u in net.users() {
            assert_eq!(
                engine.rep_poss(engine.btn().node_of(u)),
                reference.rep_poss(btn.node_of(u)),
                "{}, {u}",
                what()
            );
        }
    };
    same(&engine, &net, &|| format!("network {code}"));
    for (edit, after) in single_edits(&net, true) {
        let mut patched = engine.clone();
        patched
            .apply_edits(&after, std::slice::from_ref(&edit))
            .expect("tie-free edit");
        same(&patched, &after, &|| {
            format!("network {code} after {edit:?}")
        });
    }
}

#[test]
fn every_three_user_positive_network_and_edit() {
    let space = (LISTS.len() * POSITIVE_BELIEFS).pow(3);
    assert_eq!(space, 3_375);
    (0..space).for_each(check_positive);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: about 10 s in a debug build")]
fn every_three_user_signed_network_and_edit() {
    let space = (LISTS.len() * SIGNED_BELIEFS).pow(3);
    assert_eq!(space, 8_000);
    (0..space).for_each(check_signed);
}
