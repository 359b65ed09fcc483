//! Determinism oracle for the condensation-sharded parallel resolver:
//! on random networks, [`trustmap_core::parallel::resolve_parallel`] must
//! produce byte-identical possible sets to the sequential `resolve` at
//! every thread count.

use proptest::prelude::*;
use trustmap::{TrustNetwork, User, Value};
use trustmap_core::parallel::{resolve_parallel, resolve_parallel_with, ParOptions};

/// A raw network description proptest can generate.
#[derive(Debug, Clone)]
struct RawNet {
    users: usize,
    mappings: Vec<(usize, usize, i64)>,
    beliefs: Vec<(usize, usize)>,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Byte-identical possible sets at 1–8 threads, in both dependency
    /// modes and at a shard granularity small enough to force real
    /// cross-shard scheduling.
    #[test]
    fn parallel_resolver_equals_sequential(raw in raw_net(12, 24)) {
        let (net, _) = build(&raw);
        let btn = trustmap_core::binarize(&net);
        let seq = trustmap_core::resolve(&btn).expect("resolves");
        for threads in [1usize, 2, 3, 8] {
            for exact_deps in [false, true] {
                let par = resolve_parallel_with(
                    &btn,
                    ParOptions { threads, shard_target: 2, exact_deps },
                )
                .expect("resolves");
                for x in btn.nodes() {
                    prop_assert_eq!(
                        seq.poss(x), par.poss(x),
                        "node {} at {} threads (exact={})", x, threads, exact_deps
                    );
                    prop_assert_eq!(seq.is_reachable(x), par.is_reachable(x), "reach {}", x);
                }
            }
        }
    }
}

/// Fixed-seed regression for merge ordering: the exact workloads the
/// benchmarks run must agree across thread counts, shard targets, and
/// dependency modes — any nondeterminism in shard layout or flood merge
/// order shows up here as a hard failure.
#[test]
fn fixed_seed_merge_ordering_regression() {
    use trustmap::workloads::{nested_sccs, oscillators, power_law};

    let nets = [
        power_law(3_000, 3, 4, 0.05, 42).net,
        oscillators(200).net,
        nested_sccs(40).net,
    ];
    for (i, net) in nets.iter().enumerate() {
        let btn = trustmap_core::binarize(net);
        let seq = trustmap_core::resolve(&btn).expect("resolves");
        let baseline = resolve_parallel(&btn, 1).expect("resolves");
        for threads in [2usize, 4, 8] {
            for (shard_target, exact_deps) in [(7, false), (7, true), (4096, false)] {
                let par = resolve_parallel_with(
                    &btn,
                    ParOptions {
                        threads,
                        shard_target,
                        exact_deps,
                    },
                )
                .expect("resolves");
                for x in btn.nodes() {
                    assert_eq!(
                        seq.poss(x),
                        par.poss(x),
                        "net {i}, node {x}, {threads} threads, target {shard_target}"
                    );
                    assert_eq!(
                        baseline.poss(x),
                        par.poss(x),
                        "thread-count dependence at net {i}, node {x}"
                    );
                }
            }
        }
    }
}
