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

/// Interns `names` in order.
fn users<const N: usize>(net: &mut TrustNetwork, names: [&str; N]) -> [User; N] {
    names.map(|n| net.user(n))
}

/// Hand-built networks whose answer is decided inside cyclic units — the
/// part of the one-pass solver random sparse networks reach least.
fn cycle_rich_networks() -> Vec<(&'static str, TrustNetwork)> {
    let mut nets = Vec::new();

    // Chained 2-cycles, each fed by the previous cycle (priority 5) and a
    // low-priority outside root: every level of the plan is a cyclic unit.
    let mut net = TrustNetwork::new();
    let (v, w) = (net.value("v"), net.value("w"));
    let (r1, r2) = (net.user("r1"), net.user("r2"));
    net.believe(r1, v).expect("valid");
    net.believe(r2, w).expect("valid");
    let mut prev = r1;
    for i in 0..12 {
        let a = net.user(&format!("a{i}"));
        let b = net.user(&format!("b{i}"));
        net.trust(a, b, 10).expect("valid");
        net.trust(b, a, 10).expect("valid");
        net.trust(a, prev, 5).expect("valid");
        net.trust(b, r2, 1).expect("valid");
        prev = b;
    }
    nets.push(("nested SCC chain", net));

    // A preferred edge entering a cycle: Step 1 must close x1 from the
    // outside root before the {x1, x2, x3} cycle floods, and the closure
    // must then run around the cycle's preferred edges.
    let mut net = TrustNetwork::new();
    let (v, w) = (net.value("v"), net.value("w"));
    let [x1, x2, x3, r, s, tail] = users(&mut net, ["x1", "x2", "x3", "r", "s", "tail"]);
    net.trust(x1, r, 100).expect("valid");
    net.trust(x1, x3, 50).expect("valid");
    net.trust(x2, x1, 100).expect("valid");
    net.trust(x2, s, 50).expect("valid");
    net.trust(x3, x2, 100).expect("valid");
    net.trust(tail, x3, 1).expect("valid");
    net.believe(r, v).expect("valid");
    net.believe(s, w).expect("valid");
    nets.push(("preferred edge into a cycle", net));

    // Cycles no belief reaches stay undefined, alone and upstream of a
    // node that has another, live parent.
    let mut net = TrustNetwork::new();
    let v = net.value("v");
    let [a, b, c, x, live] = users(&mut net, ["a", "b", "c", "x", "live"]);
    net.trust(a, b, 1).expect("valid");
    net.trust(b, c, 1).expect("valid");
    net.trust(c, a, 1).expect("valid");
    net.trust(x, a, 100).expect("valid");
    net.trust(x, live, 1).expect("valid");
    net.believe(live, v).expect("valid");
    nets.push(("beliefless cycle", net));

    // A cycle whose members tie their cycle edge with an outside root:
    // nothing is preferred, so the whole unit waits for a Step-2 flood.
    let mut net = TrustNetwork::new();
    let (v, w) = (net.value("v"), net.value("w"));
    let [p, q, rv, rw, below] = users(&mut net, ["p", "q", "rv", "rw", "below"]);
    net.trust(p, q, 3).expect("valid");
    net.trust(p, rv, 3).expect("valid");
    net.trust(q, p, 3).expect("valid");
    net.trust(q, rw, 3).expect("valid");
    net.trust(below, p, 2).expect("valid");
    net.trust(below, q, 1).expect("valid");
    net.believe(rv, v).expect("valid");
    net.believe(rw, w).expect("valid");
    nets.push(("tied cycle", net));

    nets
}

/// One-pass ≡ Algorithm 1 as printed where the cyclic-unit replay does
/// the work. (A self-loop unit cannot be built here: `TrustNetwork::trust`
/// refuses self-trust; `graph::shard`'s own tests plan one.)
#[test]
fn cycle_rich_networks_equal_the_printed_algorithm() {
    for (name, net) in cycle_rich_networks() {
        let btn = trustmap_core::binarize(&net);
        let seq = trustmap_core::resolve(&btn).expect("resolves");
        for opts in all_options() {
            let par = resolve_parallel_with(&btn, opts).expect("resolves");
            for x in btn.nodes() {
                assert_eq!(seq.poss(x), par.poss(x), "{name}: node {x} under {opts:?}");
                assert_eq!(
                    seq.is_reachable(x),
                    par.is_reachable(x),
                    "{name}: reach {x} under {opts:?}"
                );
            }
        }
    }
}

/// Section 4's bulk shape: one plan, many belief assignments. Ten reseeds
/// per network rotate every believer's value; the fifth silences every
/// second believer (regions that were reachable stop being so) and the
/// sixth brings them back.
#[test]
fn one_plan_serves_reseeded_belief_assignments() {
    use trustmap::workloads::{nested_sccs, oscillators, power_law};
    use trustmap::ExplicitBelief;
    use trustmap_core::PlannedResolver;

    let workloads = [
        power_law(600, 3, 4, 0.08, 42),
        oscillators(30),
        nested_sccs(12),
    ];
    for (i, w) in workloads.iter().enumerate() {
        let btn = trustmap_core::binarize(&w.net);
        let values: Vec<Value> = w.net.domain().values().collect();
        let roots: Vec<u32> = w
            .believers
            .iter()
            .map(|&u| btn.belief_root(u).expect("believer"))
            .collect();
        for opts in [
            ParOptions {
                threads: 1,
                ..ParOptions::default()
            },
            ParOptions {
                threads: 3,
                shard_target: 2,
                exact_deps: true,
            },
        ] {
            let planned = PlannedResolver::new(&btn, opts);
            let mut work = btn.clone();
            let mut reachable_before = 0;
            for reseed in 0..10 {
                for (j, &root) in roots.iter().enumerate() {
                    let belief = if reseed == 4 && j % 2 == 0 {
                        ExplicitBelief::None
                    } else {
                        ExplicitBelief::Pos(values[(j + reseed) % values.len()])
                    };
                    work.set_root_belief(root, belief);
                }
                let seq = trustmap_core::resolve(&work).expect("resolves");
                let par = planned.resolve(&work, opts.threads).expect("resolves");
                for x in btn.nodes() {
                    assert_eq!(
                        seq.poss(x),
                        par.poss(x),
                        "net {i}, reseed {reseed}, node {x}"
                    );
                    assert_eq!(
                        seq.is_reachable(x),
                        par.is_reachable(x),
                        "net {i}, reseed {reseed}, reach {x}"
                    );
                }
                let reachable = btn.nodes().filter(|&x| par.is_reachable(x)).count();
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
}
