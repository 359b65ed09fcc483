#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # trustmap-workloads
//!
//! Seeded workload generators for every experiment in the paper
//! (Section 5, Appendix B.5) plus the supporting gadget inputs:
//!
//! * [`oscillators`] — disconnected 4-node oscillator clusters
//!   (Figures 5 and 8a): many independent cycles, half the users with
//!   explicit beliefs;
//! * [`power_law`] — a preferential-attachment web-graph substitute for the
//!   paper's TLD crawl (Figure 8b): scale-free in-degree, random
//!   priorities, sampled explicit beliefs;
//! * [`nested_sccs`] — the serially-unlockable SCC family driving the
//!   quadratic worst case (Figure 14a / Figure 15);
//! * [`bulk_network`] — a 7-user / 12-mapping cyclic network with two
//!   believers, the fixed network of the bulk experiment (Figures 8c / 19);
//! * [`random_cnf`] — random k-CNF formulas for the hardness experiments
//!   (Theorem 3.4);
//! * [`random_dag`] — random acyclic constraint networks for paradigm
//!   comparisons (Proposition 3.6);
//! * [`edit_stream`] — seeded believe/revoke/trust edit sequences over an
//!   existing workload, the input of the incremental-resolution benchmark
//!   (`edits`) and the incremental-vs-full equivalence oracle;
//! * [`power_law_signed`] / [`signed_edit_stream`] — the constraint-laden
//!   variants: a fraction of believers assert negative beliefs, and edit
//!   streams mix in constraint assertions — the inputs of the
//!   `skeptic_bench` benchmark and the skeptic oracle;
//! * [`serve_stream`] — mixed read/write request streams with a
//!   configurable read:write ratio and [`Zipf`]-skewed key popularity,
//!   the input of the concurrent-serving benchmark (`serve_bench`) and
//!   the snapshot-isolation oracle;
//! * [`fusion`] — bipartite source→object claim networks with an outer
//!   trust-reweighting fixed-point loop where each round is an edit
//!   stream, the input of the exact-mode benchmark (`fusion_bench`) and
//!   the fusion-convergence oracle.
//!
//! Every generator takes an explicit seed and is fully deterministic.

pub mod fusion;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use trustmap_core::sat::Cnf;
use trustmap_core::signed::NegSet;
use trustmap_core::{Edit, SignedEdit, TrustNetwork, User, Value};

/// A generated workload: the network plus the handles experiments need.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The trust network.
    pub net: TrustNetwork,
    /// Users holding explicit beliefs.
    pub believers: Vec<User>,
    /// Users of interest for queries (e.g. oscillator members).
    pub probes: Vec<User>,
}

/// `k` disconnected oscillator clusters (Figure 4b replicated): per cluster
/// two root believers (values `v`, `w`) and a 2-cycle that can adopt either.
/// Network size is `|U| + |E| = 8k`.
pub fn oscillators(k: usize) -> Workload {
    let mut net = TrustNetwork::new();
    let v = net.value("v");
    let w = net.value("w");
    let mut believers = Vec::with_capacity(2 * k);
    let mut probes = Vec::with_capacity(2 * k);
    for i in 0..k {
        let x1 = net.user(&format!("x1_{i}"));
        let x2 = net.user(&format!("x2_{i}"));
        let x3 = net.user(&format!("x3_{i}"));
        let x4 = net.user(&format!("x4_{i}"));
        net.trust(x1, x2, 100).expect("fresh users");
        net.trust(x1, x3, 80).expect("fresh users");
        net.trust(x2, x1, 50).expect("fresh users");
        net.trust(x2, x4, 40).expect("fresh users");
        net.believe(x3, v).expect("fresh users");
        net.believe(x4, w).expect("fresh users");
        believers.extend([x3, x4]);
        probes.extend([x1, x2]);
    }
    Workload {
        net,
        believers,
        probes,
    }
}

/// A scale-free trust network via preferential attachment — the substitute
/// for the paper's web-crawl data set (Figure 8b).
///
/// Each new user declares `m` trust mappings; targets are chosen
/// proportionally to current degree (plus one), yielding the power-law
/// in-degree distribution of real link graphs. Priorities are uniform in
/// `1..=100`; a `believer_fraction` of users assert one of `num_values`
/// values.
pub fn power_law(
    n: usize,
    m: usize,
    num_values: usize,
    believer_fraction: f64,
    seed: u64,
) -> Workload {
    assert!(n >= 2 && m >= 1 && num_values >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = TrustNetwork::new();
    let values: Vec<Value> = (0..num_values)
        .map(|i| net.value(&format!("v{i}")))
        .collect();
    let first = net.add_users(n);
    let users: Vec<User> = (0..n as u32).map(|i| User(first.0 + i)).collect();

    // Repeated-endpoint list implements preferential attachment in O(1).
    let mut endpoints: Vec<usize> = vec![0];
    let mut believers = Vec::new();
    for (i, &child) in users.iter().enumerate().skip(1) {
        let mut chosen: Vec<usize> = Vec::new();
        let degree = m.min(i);
        // Distinct priorities per child: users rank their trusted parties
        // in a total preorder without ties (footnote 2 of the paper).
        let mut priorities: Vec<i64> = (1..=100).collect();
        priorities.shuffle(&mut rng);
        for &priority in priorities.iter().take(degree) {
            let target = loop {
                // Mix preferential attachment with uniform choice to keep
                // the graph from degenerating into a single star.
                let t = if rng.gen_bool(0.8) {
                    endpoints[rng.gen_range(0..endpoints.len())]
                } else {
                    rng.gen_range(0..i)
                };
                if t != i && !chosen.contains(&t) {
                    break t;
                }
            };
            chosen.push(target);
            net.trust(child, users[target], priority).expect("distinct");
            endpoints.push(target);
            endpoints.push(i);
        }
    }
    for &u in &users {
        if rng.gen_bool(believer_fraction) {
            let v = values[rng.gen_range(0..values.len())];
            net.believe(u, v).expect("known user");
            believers.push(u);
        }
    }
    // Guarantee at least one explicit belief so resolution has roots.
    if believers.is_empty() {
        net.believe(users[0], values[0]).expect("known user");
        believers.push(users[0]);
    }
    let probes = users;
    Workload {
        net,
        believers,
        probes,
    }
}

/// The quadratic worst-case family (Figure 14a / Appendix B.5): `k` 6-node
/// cycles chained so that exactly one SCC unlocks per Step-2 round, forcing
/// the resolution loop to recompute the SCC graph of Ω(n) open nodes k
/// times. Size is `|U| + |E| = 2 + 16k` (the paper's family is 10 + 16k;
/// same asymptotics).
pub fn nested_sccs(k: usize) -> Workload {
    let mut net = TrustNetwork::new();
    let v = net.value("v");
    let w = net.value("w");
    let z1 = net.user("z1");
    let z2 = net.user("z2");
    net.believe(z1, v).expect("fresh");
    net.believe(z2, w).expect("fresh");
    let mut prev_a = z1;
    let mut prev_b = z2;
    let mut probes = Vec::new();
    for j in 0..k {
        let c: Vec<User> = (0..6).map(|i| net.user(&format!("c{j}_{i}"))).collect();
        // The 6-cycle: c[i+1] trusts c[i].
        for i in 0..6 {
            net.trust(c[(i + 1) % 6], c[i], 1).expect("fresh");
        }
        // Four external feeders with tied priorities (no preferred edges
        // into the stage — it must wait for a Step-2 flood).
        net.trust(c[0], prev_a, 1).expect("fresh");
        net.trust(c[1], prev_a, 1).expect("fresh");
        net.trust(c[3], prev_b, 1).expect("fresh");
        net.trust(c[4], prev_b, 1).expect("fresh");
        prev_a = c[2];
        prev_b = c[5];
        probes.push(c[0]);
    }
    Workload {
        net,
        believers: vec![z1, z2],
        probes,
    }
}

/// The fixed 7-user / 12-mapping bulk-experiment network (Figures 8c / 19):
/// two believers (`x6`, `x7`) feed an oscillating 2-cycle `x1 ↔ x2`, so
/// objects on which the believers disagree leave both possible values on
/// the cycle and its dependents — the conflicts that make the logic-program
/// baseline exponential in the number of objects.
pub fn bulk_network() -> Workload {
    let mut net = TrustNetwork::new();
    let x: Vec<User> = (1..=7).map(|i| net.user(&format!("x{i}"))).collect();
    let v = net.value("v0");
    net.value("v1");
    net.trust(x[0], x[1], 3).expect("fresh"); // x1 ← x2 (cycle, preferred)
    net.trust(x[0], x[5], 2).expect("fresh"); // x1 ← x6
    net.trust(x[1], x[0], 3).expect("fresh"); // x2 ← x1 (cycle, preferred)
    net.trust(x[1], x[6], 2).expect("fresh"); // x2 ← x7
    net.trust(x[2], x[0], 2).expect("fresh"); // x3 ← x1
    net.trust(x[2], x[6], 1).expect("fresh"); // x3 ← x7
    net.trust(x[3], x[1], 2).expect("fresh"); // x4 ← x2
    net.trust(x[3], x[5], 1).expect("fresh"); // x4 ← x6
    net.trust(x[4], x[2], 2).expect("fresh"); // x5 ← x3
    net.trust(x[4], x[3], 1).expect("fresh"); // x5 ← x4
    net.trust(x[5], x[6], 1).expect("fresh"); // x6 ← x7 (belief wins)
    net.trust(x[6], x[4], 1).expect("fresh"); // x7 ← x5 (belief wins)
    net.believe(x[5], v).expect("fresh");
    net.believe(x[6], v).expect("fresh");
    Workload {
        believers: vec![x[5], x[6]],
        probes: x,
        net,
    }
}

/// A random k-CNF formula with distinct variables per clause.
pub fn random_cnf(num_vars: usize, num_clauses: usize, clause_len: usize, seed: u64) -> Cnf {
    assert!(clause_len <= num_vars, "clause length exceeds variables");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clauses = Vec::with_capacity(num_clauses);
    let mut vars: Vec<usize> = (0..num_vars).collect();
    for _ in 0..num_clauses {
        vars.shuffle(&mut rng);
        let clause: Vec<i32> = vars[..clause_len]
            .iter()
            .map(|&v| {
                let lit = (v + 1) as i32;
                if rng.gen_bool(0.5) {
                    lit
                } else {
                    -lit
                }
            })
            .collect();
        clauses.push(clause);
    }
    Cnf::new(num_vars, clauses)
}

/// A random acyclic constraint network: edges only from lower to higher
/// user index, `neg_fraction` of the believers assert constraints instead
/// of values. Tie-free (distinct priorities per child), so it is valid
/// input for every paradigm evaluator.
pub fn random_dag(
    n: usize,
    avg_parents: usize,
    num_values: usize,
    neg_fraction: f64,
    seed: u64,
) -> Workload {
    assert!(n >= 2 && num_values >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = TrustNetwork::new();
    let values: Vec<Value> = (0..num_values)
        .map(|i| net.value(&format!("v{i}")))
        .collect();
    let first = net.add_users(n);
    let users: Vec<User> = (0..n as u32).map(|i| User(first.0 + i)).collect();
    let mut believers = Vec::new();
    for (i, &child) in users.iter().enumerate() {
        if i == 0 {
            continue;
        }
        let parents = rng.gen_range(0..=avg_parents.min(i) * 2).min(i);
        let mut pool: Vec<usize> = (0..i).collect();
        pool.shuffle(&mut rng);
        for (p, &parent) in pool[..parents].iter().enumerate() {
            // Distinct priorities per child keep the network tie-free.
            net.trust(child, users[parent], p as i64 + 1).expect("dag");
        }
    }
    for &u in &users {
        // Sources always believe; inner users sometimes do.
        let is_source = net.parents_of(u).next().is_none();
        if is_source || rng.gen_bool(0.2) {
            if rng.gen_bool(neg_fraction) {
                let v = values[rng.gen_range(0..values.len())];
                net.reject(u, NegSet::of([v])).expect("known user");
            } else {
                let v = values[rng.gen_range(0..values.len())];
                net.believe(u, v).expect("known user");
            }
            believers.push(u);
        }
    }
    Workload {
        net,
        believers,
        probes: users,
    }
}

/// Tuning knobs for [`edit_stream`].
#[derive(Debug, Clone, Copy)]
pub struct EditMix {
    /// Probability an edit declares a new trust mapping (structural).
    pub trust_fraction: f64,
    /// Probability a non-structural edit is a revocation.
    pub revoke_fraction: f64,
}

impl Default for EditMix {
    /// The community-database default: edits are dominated by belief
    /// updates, with occasional revocations and rare new mappings.
    fn default() -> Self {
        EditMix {
            trust_fraction: 0.05,
            revoke_fraction: 0.2,
        }
    }
}

/// A seeded stream of `steps` random edits over the users and values of an
/// existing workload: mostly believe-flips, some revocations, occasional
/// new trust mappings (per `mix`). Edits reference only users and values
/// that already exist, so they can be applied to `w.net` (or a
/// [`trustmap_core::Session`] over it) in order without further setup.
pub fn edit_stream(w: &Workload, steps: usize, mix: EditMix, seed: u64) -> Vec<Edit> {
    let users = w.net.user_count();
    let values = w.net.domain().len();
    assert!(users >= 2 && values >= 1, "workload too small for edits");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..steps)
        .map(|_| {
            if rng.gen_bool(mix.trust_fraction) {
                loop {
                    let child = User(rng.gen_range(0..users) as u32);
                    let parent = User(rng.gen_range(0..users) as u32);
                    if child != parent {
                        break Edit::Trust {
                            child,
                            parent,
                            priority: rng.gen_range(1..=100),
                        };
                    }
                }
            } else {
                let user = User(rng.gen_range(0..users) as u32);
                if rng.gen_bool(mix.revoke_fraction) {
                    Edit::Revoke(user)
                } else {
                    Edit::Believe(user, Value(rng.gen_range(0..values) as u32))
                }
            }
        })
        .collect()
}

/// A scale-free *signed* trust network: [`power_law`] structure, but a
/// `constraint_fraction` of the believers assert a one-value constraint
/// (`v−`) instead of a positive value — the range-check / reference-list
/// filters of Section 3 sprinkled over the web-of-trust crawl. The
/// returned `believers` list covers both signs.
pub fn power_law_signed(
    n: usize,
    m: usize,
    num_values: usize,
    believer_fraction: f64,
    constraint_fraction: f64,
    seed: u64,
) -> Workload {
    let mut w = power_law(n, m, num_values, believer_fraction, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51_6E_ED);
    let values: Vec<Value> = w.net.domain().values().collect();
    for i in 0..w.believers.len() {
        if rng.gen_bool(constraint_fraction) {
            let u = w.believers[i];
            let v = values[rng.gen_range(0..values.len())];
            w.net.reject(u, NegSet::of([v])).expect("known user");
        }
    }
    w
}

/// Tuning knobs for [`signed_edit_stream`].
#[derive(Debug, Clone, Copy)]
pub struct SignedEditMix {
    /// Probability an edit declares a new trust mapping (structural).
    pub trust_fraction: f64,
    /// Probability a non-structural edit is a revocation.
    pub revoke_fraction: f64,
    /// Probability a belief-assertion edit is a constraint (`Reject`)
    /// instead of a positive value.
    pub constraint_fraction: f64,
}

impl Default for SignedEditMix {
    /// Belief-flip dominated, with occasional revocations, constraint
    /// updates (range checks being tightened/loosened), and rare new
    /// mappings.
    fn default() -> Self {
        SignedEditMix {
            trust_fraction: 0.05,
            revoke_fraction: 0.15,
            constraint_fraction: 0.25,
        }
    }
}

/// A seeded stream of `steps` random *signed* edits over the users and
/// values of an existing workload: believe-flips, constraint assertions,
/// revocations, and occasional new trust mappings (per `mix`). The
/// constraint edits are what previously forced full Algorithm-2 re-runs —
/// the hot path of the incremental skeptic engine.
pub fn signed_edit_stream(
    w: &Workload,
    steps: usize,
    mix: SignedEditMix,
    seed: u64,
) -> Vec<SignedEdit> {
    let users = w.net.user_count();
    let values = w.net.domain().len();
    assert!(users >= 2 && values >= 1, "workload too small for edits");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..steps)
        .map(|i| {
            if rng.gen_bool(mix.trust_fraction) {
                loop {
                    let child = User(rng.gen_range(0..users) as u32);
                    let parent = User(rng.gen_range(0..users) as u32);
                    if child != parent {
                        break SignedEdit::Trust {
                            child,
                            parent,
                            // Above the generators' 1..=100 range and
                            // strictly increasing per stream, so Algorithm
                            // 2's tie-free requirement is never violated.
                            priority: 101 + i as i64,
                        };
                    }
                }
            } else {
                let user = User(rng.gen_range(0..users) as u32);
                if rng.gen_bool(mix.revoke_fraction) {
                    SignedEdit::Revoke(user)
                } else {
                    let v = Value(rng.gen_range(0..values) as u32);
                    if rng.gen_bool(mix.constraint_fraction) {
                        SignedEdit::Reject(user, NegSet::of([v]))
                    } else {
                        SignedEdit::Believe(user, v)
                    }
                }
            }
        })
        .collect()
}

/// A Zipf(`s`) sampler over ranks `0..n`: rank `k` is drawn with weight
/// `1/(k+1)^s`, the canonical model of key popularity in serving
/// workloads (a few hot keys absorb most traffic). `s = 0` degenerates
/// to uniform. Sampling is a cumulative-weight binary search, O(log n)
/// per draw, built only on the integer entropy the seeded RNG provides.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Precomputes cumulative weights for ranks `0..n` (`n ≥ 1`).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "empty Zipf domain");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty domain");
        // 53 uniform bits → f64 in [0, 1): the same construction the RNG
        // uses internally for `gen_bool`.
        const BITS: u64 = 1 << 53;
        let u = (rng.gen_range(0..BITS) as f64 / BITS as f64) * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// One request in a mixed serving stream: point reads (certain value /
/// possible set) or a write edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Read the user's certain value.
    Cert(User),
    /// Read the user's possible set.
    Poss(User),
    /// Apply a write edit (routed through the single writer).
    Write(Edit),
}

/// Tuning knobs for [`serve_stream`].
#[derive(Debug, Clone, Copy)]
pub struct ServeMix {
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Fraction of *reads* that ask for the possible set instead of the
    /// certain value.
    pub poss_fraction: f64,
    /// Zipf skew exponent for key popularity (0 = uniform).
    pub zipf_s: f64,
    /// Mix of edit kinds within the write fraction.
    pub writes: EditMix,
}

impl Default for ServeMix {
    /// A read-heavy community database: 90% reads (a quarter of them
    /// possible-set queries), Zipf(1.1) key skew — the usual power-law
    /// popularity of serving caches.
    fn default() -> Self {
        ServeMix {
            read_fraction: 0.9,
            poss_fraction: 0.25,
            zipf_s: 1.1,
            writes: EditMix::default(),
        }
    }
}

/// A seeded mixed read/write request stream over an existing workload's
/// users and values: `read_fraction` point reads and the rest write
/// edits, all targets drawn from a [`Zipf`]-skewed popularity order (a
/// seeded permutation of the user set, so hot keys are not simply the
/// lowest ids). The input of the `serve_bench` many-readers/one-writer
/// benchmark and the snapshot-isolation oracle; like every generator
/// here it is fully deterministic in `seed`.
pub fn serve_stream(w: &Workload, steps: usize, mix: ServeMix, seed: u64) -> Vec<ServeOp> {
    let users = w.net.user_count();
    let values = w.net.domain().len();
    assert!(users >= 2 && values >= 1, "workload too small to serve");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<u32> = (0..users as u32).collect();
    order.shuffle(&mut rng);
    let zipf = Zipf::new(users, mix.zipf_s);
    (0..steps)
        .map(|_| {
            let user = User(order[zipf.sample(&mut rng)]);
            if rng.gen_bool(mix.read_fraction) {
                if rng.gen_bool(mix.poss_fraction) {
                    ServeOp::Poss(user)
                } else {
                    ServeOp::Cert(user)
                }
            } else if rng.gen_bool(mix.writes.trust_fraction) {
                let parent = loop {
                    let p = User(order[zipf.sample(&mut rng)]);
                    if p != user {
                        break p;
                    }
                };
                ServeOp::Write(Edit::Trust {
                    child: user,
                    parent,
                    priority: rng.gen_range(1..=100),
                })
            } else if rng.gen_bool(mix.writes.revoke_fraction) {
                ServeOp::Write(Edit::Revoke(user))
            } else {
                ServeOp::Write(Edit::Believe(user, Value(rng.gen_range(0..values) as u32)))
            }
        })
        .collect()
}

/// Applies one generated signed edit to a plain network (the "simply
/// re-run Algorithm 2" baseline path; [`trustmap_core::SkepticIncremental`]
/// applies the same edit incrementally).
pub fn apply_signed_edit(net: &mut TrustNetwork, edit: &SignedEdit) {
    match edit {
        SignedEdit::Believe(u, v) => net.believe(*u, *v).expect("stream users exist"),
        SignedEdit::Revoke(u) => net.revoke(*u).expect("stream users exist"),
        SignedEdit::Reject(u, neg) => net.reject(*u, neg.clone()).expect("stream users exist"),
        SignedEdit::Trust {
            child,
            parent,
            priority,
        } => net
            .trust(*child, *parent, *priority)
            .expect("stream edges are valid"),
    }
}

/// Applies one generated edit to a plain network (the "simply re-run"
/// baseline path; sessions apply the same edit incrementally).
pub fn apply_edit(net: &mut TrustNetwork, edit: Edit) {
    match edit {
        Edit::Believe(u, v) => net.believe(u, v).expect("stream users exist"),
        Edit::Revoke(u) => net.revoke(u).expect("stream users exist"),
        Edit::Trust {
            child,
            parent,
            priority,
        } => net
            .trust(child, parent, priority)
            .expect("stream edges are valid"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustmap_core::resolution::resolve_network;

    #[test]
    fn oscillators_shape_and_semantics() {
        let w = oscillators(5);
        assert_eq!(w.net.user_count(), 20);
        assert_eq!(w.net.mapping_count(), 20);
        assert_eq!(w.net.size(), 40);
        let r = resolve_network(&w.net).unwrap();
        for &p in &w.probes {
            assert_eq!(r.poss(p).len(), 2, "cycle members see both values");
        }
        for &b in &w.believers {
            assert_eq!(r.poss(b).len(), 1);
        }
    }

    #[test]
    fn power_law_is_deterministic_and_resolvable() {
        let w1 = power_law(200, 3, 4, 0.3, 42);
        let w2 = power_law(200, 3, 4, 0.3, 42);
        assert_eq!(w1.net.mapping_count(), w2.net.mapping_count());
        assert_eq!(w1.believers, w2.believers);
        let w3 = power_law(200, 3, 4, 0.3, 43);
        assert_ne!(w1.believers, w3.believers, "different seed, different draw");
        let r = resolve_network(&w1.net).unwrap();
        // Every believer resolves to their own value.
        assert!(w1.believers.iter().all(|&b| r.cert(b).is_some()));
    }

    #[test]
    fn power_law_degrees_are_skewed() {
        let w = power_law(500, 2, 2, 0.2, 7);
        let mut out_degree = vec![0usize; w.net.user_count()];
        for m in w.net.mappings() {
            out_degree[m.parent.index()] += 1;
        }
        out_degree.sort_unstable_by(|a, b| b.cmp(a));
        // Scale-free-ish: the top hub dominates the median heavily.
        assert!(out_degree[0] >= 10, "hub degree {}", out_degree[0]);
        assert!(out_degree[w.net.user_count() / 2] <= 3);
    }

    #[test]
    fn nested_sccs_forces_one_round_per_stage() {
        let k = 12;
        let w = nested_sccs(k);
        assert_eq!(w.net.user_count(), 2 + 6 * k);
        assert_eq!(w.net.mapping_count(), 10 * k);
        let btn = trustmap_core::binarize(&w.net);
        let res = trustmap_core::resolve(&btn).unwrap();
        assert_eq!(res.rounds(), k, "one Step-2 round per stage");
        // Every stage sees both root values.
        for &p in &w.probes {
            assert_eq!(res.poss(btn.node_of(p)).len(), 2);
        }
    }

    #[test]
    fn bulk_network_matches_figure_19_shape() {
        let w = bulk_network();
        assert_eq!(w.net.user_count(), 7);
        assert_eq!(w.net.mapping_count(), 12);
        assert_eq!(w.believers.len(), 2);
        let r = resolve_network(&w.net).unwrap();
        // With both believers on v0, everyone reachable agrees.
        for &p in &w.probes {
            assert_eq!(r.poss(p).len(), 1, "{}", w.net.user_name(p));
        }
    }

    #[test]
    fn random_cnf_shape() {
        let cnf = random_cnf(10, 30, 3, 99);
        assert_eq!(cnf.clauses.len(), 30);
        assert!(cnf.clauses.iter().all(|c| c.len() == 3));
        // Distinct variables within each clause.
        for clause in &cnf.clauses {
            let mut vars: Vec<i32> = clause.iter().map(|l| l.abs()).collect();
            vars.sort_unstable();
            vars.dedup();
            assert_eq!(vars.len(), 3);
        }
        assert_eq!(random_cnf(10, 30, 3, 99).clauses, cnf.clauses);
    }

    #[test]
    fn edit_streams_are_deterministic_and_applicable() {
        let w = power_law(50, 2, 3, 0.3, 11);
        let s1 = edit_stream(&w, 40, EditMix::default(), 5);
        let s2 = edit_stream(&w, 40, EditMix::default(), 5);
        assert_eq!(s1, s2, "same seed, same stream");
        let s3 = edit_stream(&w, 40, EditMix::default(), 6);
        assert_ne!(s1, s3, "different seed, different stream");

        // The stream applies cleanly and the network stays resolvable.
        let mut net = w.net.clone();
        for &e in &s1 {
            apply_edit(&mut net, e);
        }
        resolve_network(&net).expect("edited network resolves");
        // The default mix is belief-dominated.
        let trusts = s1
            .iter()
            .filter(|e| matches!(e, Edit::Trust { .. }))
            .count();
        assert!(trusts <= s1.len() / 3, "trust edits should be rare");
    }

    #[test]
    fn signed_power_law_mixes_signs_and_stays_tie_free() {
        let w = power_law_signed(300, 2, 3, 0.3, 0.4, 9);
        let w2 = power_law_signed(300, 2, 3, 0.3, 0.4, 9);
        assert_eq!(w.believers, w2.believers, "deterministic");
        assert!(w.net.has_constraints(), "some believers flip to negative");
        assert!(
            w.believers
                .iter()
                .any(|&b| w.net.belief(b).positive().is_some()),
            "some believers stay positive"
        );
        let btn = trustmap_core::binarize(&w.net);
        assert!(!btn.has_ties());
        trustmap_core::skeptic::resolve_skeptic(&btn).expect("skeptic-resolvable");
    }

    #[test]
    fn signed_edit_streams_apply_and_stay_skeptic_resolvable() {
        let w = power_law_signed(60, 2, 3, 0.3, 0.3, 11);
        let s1 = signed_edit_stream(&w, 40, SignedEditMix::default(), 5);
        let s2 = signed_edit_stream(&w, 40, SignedEditMix::default(), 5);
        assert_eq!(s1, s2, "same seed, same stream");
        assert!(
            s1.iter().any(|e| matches!(e, SignedEdit::Reject(..))),
            "constraint edits present"
        );
        let mut net = w.net.clone();
        for e in &s1 {
            apply_signed_edit(&mut net, e);
        }
        let btn = trustmap_core::binarize(&net);
        assert!(!btn.has_ties(), "streams never introduce ties");
        trustmap_core::skeptic::resolve_skeptic(&btn).expect("edited network resolves");
    }

    #[test]
    fn zipf_is_skewed_and_uniform_at_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let zipf = Zipf::new(1000, 1.1);
        let mut hits = vec![0usize; 1000];
        for _ in 0..20_000 {
            hits[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 carries far more than the uniform expectation (20).
        assert!(hits[0] > 1000, "hot rank got {}", hits[0]);
        assert!(hits[0] > 10 * hits[100].max(1));

        let uniform = Zipf::new(1000, 0.0);
        let mut hits = vec![0usize; 1000];
        for _ in 0..20_000 {
            hits[uniform.sample(&mut rng)] += 1;
        }
        let max = *hits.iter().max().unwrap();
        assert!(max < 60, "uniform max bucket {max}");
    }

    #[test]
    fn serve_streams_are_deterministic_skewed_and_applicable() {
        let w = power_law(300, 2, 3, 0.3, 17);
        let s1 = serve_stream(&w, 2000, ServeMix::default(), 9);
        let s2 = serve_stream(&w, 2000, ServeMix::default(), 9);
        assert_eq!(s1, s2, "same seed, same stream");
        assert_ne!(s1, serve_stream(&w, 2000, ServeMix::default(), 10));

        // Read-heavy per the default mix.
        let reads = s1
            .iter()
            .filter(|op| matches!(op, ServeOp::Cert(_) | ServeOp::Poss(_)))
            .count();
        assert!(reads > s1.len() * 8 / 10 && reads < s1.len());

        // Key popularity is skewed: the hottest user absorbs far more
        // than the uniform share (2000/300 ≈ 7).
        let mut per_user = vec![0usize; w.net.user_count()];
        for op in &s1 {
            let u = match op {
                ServeOp::Cert(u) | ServeOp::Poss(u) => *u,
                ServeOp::Write(Edit::Believe(u, _)) | ServeOp::Write(Edit::Revoke(u)) => *u,
                ServeOp::Write(Edit::Trust { child, .. }) => *child,
            };
            per_user[u.index()] += 1;
        }
        let max = *per_user.iter().max().unwrap();
        assert!(max > 100, "hottest key got {max}");

        // Writes apply cleanly and the network stays resolvable.
        let mut net = w.net.clone();
        for op in &s1 {
            if let ServeOp::Write(e) = op {
                apply_edit(&mut net, *e);
            }
        }
        resolve_network(&net).expect("edited network resolves");
    }

    #[test]
    fn random_dag_is_acyclic_and_tie_free() {
        let w = random_dag(60, 3, 4, 0.3, 5);
        let btn = trustmap_core::binarize(&w.net);
        assert!(!btn.has_ties());
        // Must evaluate under every paradigm (acyclic, tie-free).
        for p in trustmap_core::Paradigm::ALL {
            trustmap_core::acyclic::evaluate_acyclic(&btn, p).unwrap();
        }
    }
}
