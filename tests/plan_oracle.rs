//! Differential oracle for the query planner (PR 10).
//!
//! The planner is a *routing* decision, never a semantic one: whatever
//! strategy it picks, the rows must be bit-for-bit what the other
//! strategy would have produced. Three layers of evidence:
//!
//! 1. Proptest: on random positive and signed networks, the
//!    planner-chosen result equals each forced strategy byte-identically
//!    (inapplicable forces error with `Error::Plan`, they never
//!    silently reroute) — and equals the rows rendered from the
//!    sequential reference solvers (`resolve_network`,
//!    `resolve_skeptic`), which no strategy runs.
//! 2. Fixed fixtures: the planner (not a FORCE) reaches both strategies
//!    through real `Session::query` calls, on either sign.
//! 3. Counter gate: `EXPLAIN` does zero solver work.

mod common;

use common::{random_network, NetSpec};
use proptest::prelude::*;
use trustmap::plan::QueryRow;
use trustmap::skeptic::resolve_skeptic;
use trustmap::{
    binarize, resolve_network, Error, NegSet, Query, QueryTarget, Session, Strategy, User,
};

/// The rows of every user as the sequential reference solvers define
/// them: Algorithm 1 as printed on positive networks, the sequential
/// Algorithm 2 on constraint-carrying ones.
fn reference_rows(s: &Session) -> Vec<QueryRow> {
    let net = s.network();
    if net.has_constraints() {
        let btn = binarize(net);
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
    } else {
        let res = resolve_network(net).expect("positive network");
        net.users()
            .map(|u| QueryRow {
                user: u,
                cert: res.cert(u),
                poss: res.poss(u).to_vec(),
            })
            .collect()
    }
}

/// Verifies every forced strategy against the planner's own choice on
/// one all-users query: applicable forces must agree bit-for-bit with it
/// and with the reference solvers, inapplicable ones must refuse with a
/// plan error.
fn check_forced_agree(s: &mut Session, q: &Query) -> Result<(), TestCaseError> {
    let baseline = s.query(q).expect("planner-chosen query");
    prop_assert!(!baseline.report.forced);
    prop_assert_eq!(
        &baseline.rows,
        &reference_rows(s),
        "{} diverged from the reference solver",
        baseline.report.strategy
    );
    for strategy in Strategy::ALL {
        match s.query(&q.clone().force(strategy)) {
            Ok(forced) => {
                prop_assert_eq!(
                    &forced.rows,
                    &baseline.rows,
                    "{} diverged from planner choice {}",
                    strategy,
                    baseline.report.strategy
                );
                prop_assert_eq!(forced.report.strategy, strategy);
                prop_assert!(forced.report.forced);
            }
            Err(Error::Plan(_)) => {} // inapplicable here — refusal, not reroute
            Err(e) => prop_assert!(false, "forcing {} failed oddly: {}", strategy, e),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Positive networks: planner-chosen CERT/POSS over all users equals
    /// every applicable forced strategy, warm or cold.
    #[test]
    fn forced_strategies_agree_on_positive_networks(
        seed in any::<u64>(),
        users in 2usize..12,
        mappings in 0usize..24,
        warm in any::<bool>(),
    ) {
        let net = random_network(
            NetSpec { users, values: 3, mappings, believer_p: 0.5, tie_free: true },
            seed,
        );
        let mut s = Session::new(net);
        if warm {
            s.snapshot().expect("positive network resolves");
        }
        check_forced_agree(&mut s, &Query::cert(QueryTarget::All))?;
        check_forced_agree(&mut s, &Query::poss(QueryTarget::All))?;
    }

    /// Signed (constraint) networks: same contract on the skeptic
    /// pipeline.
    #[test]
    fn forced_strategies_agree_on_signed_networks(
        seed in any::<u64>(),
        users in 2usize..10,
        mappings in 0usize..20,
        rejects in proptest::collection::vec((0usize..16, 0usize..3), 1..4),
        warm in any::<bool>(),
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
        let mut s = Session::new(net);
        if warm {
            s.skeptic_snapshot().expect("tie-free network resolves");
        }
        check_forced_agree(&mut s, &Query::cert(QueryTarget::All))?;
        check_forced_agree(&mut s, &Query::poss(QueryTarget::All))?;
    }
}

/// Fixed fixtures where the planner (not a FORCE) picks each strategy,
/// on each sign: a cold session has nothing to patch and solves the whole
/// network; once a read has built the engine, patching its (here empty)
/// dirty region undercuts any whole-network solve.
#[test]
fn planner_reaches_both_strategies() {
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
        assert_eq!(cold.report.strategy, Strategy::WholeSolve);
        assert_eq!(s.stats().full_rebuilds, 0, "a whole solve builds no engine");

        if skeptic {
            s.skeptic_snapshot().expect("resolves");
        } else {
            s.snapshot().expect("resolves");
        }
        let warm = s.query(&Query::poss(QueryTarget::All)).unwrap();
        assert_eq!(warm.report.strategy, Strategy::IncrementalPatch);
        assert_eq!(warm.rows, cold.rows, "routing changed the answer");
    }
}

/// `EXPLAIN` costs planning only: no engine build, no region drained,
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
        let text = s.explain(&Query::poss(QueryTarget::All)).unwrap();
        assert!(text.contains("plan: "), "{text}");
        assert!(text.contains("candidate: "), "{text}");
        let after = s.stats();
        assert_eq!(after.full_rebuilds, before.full_rebuilds);
        assert_eq!(after.dirty_nodes, before.dirty_nodes);
        assert_eq!(after.incremental_edits, before.incremental_edits);
    }
}
