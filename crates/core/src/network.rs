//! Priority trust networks (Definitions 2.1–2.3).
//!
//! A [`TrustNetwork`] is the user-facing model: named users, priority trust
//! mappings (`child` accepts values from `parent` with an integer priority),
//! and per-user explicit beliefs. Networks are *general*: any in-degree,
//! arbitrary priorities, ties allowed. The resolution algorithms run on the
//! [binarized](crate::binary) form.
//!
//! Priorities are local to each child: they only order that child's parents
//! (footnote 2 of the paper — priorities of mappings defined by different
//! users are incomparable).

use crate::error::{Error, Result};
use crate::names::NameTable;
use crate::signed::{ExplicitBelief, NegSet};
use crate::user::User;
use crate::value::{Domain, Value};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use trustmap_graph::DiGraph;

/// A priority trust mapping `m = (parent, priority, child)` (Definition 2.2):
/// `child` trusts the value from `parent` with the given priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// The trusted user (value flows *from* here).
    pub parent: User,
    /// The trusting user (value flows *to* here).
    pub child: User,
    /// Larger = more trusted; ties are broken arbitrarily (Definition 2.3).
    pub priority: i64,
}

/// A priority trust network `TN = (U, E, b0)` (Definition 2.3).
#[derive(Debug, Clone, Default)]
pub struct TrustNetwork {
    domain: Domain,
    /// Every user name, once; shared with binarized forms and published
    /// epochs and copied only when a new user arrives while they hold it.
    users: Arc<NameTable>,
    mappings: Vec<Mapping>,
    /// Position of each (child, parent) edge in `mappings`, so re-declaring
    /// a mapping updates its priority in place instead of accumulating
    /// duplicates (trust re-weighting loops re-declare every round). Built
    /// on first use — the first [`TrustNetwork::trust`] or
    /// [`TrustNetwork::priority_of`] — and never by a load:
    /// [`TrustNetwork::with_mappings`] finds re-declarations without it, so
    /// a network that is only loaded and resolved never holds it.
    mapping_index: OnceLock<HashMap<(User, User), usize>>,
    beliefs: Vec<ExplicitBelief>,
    /// Number of users whose explicit belief is a constraint (`Negs`),
    /// maintained O(1) per belief write so the sign-state checks on the
    /// per-edit hot path ([`TrustNetwork::has_constraints`]) never scan.
    constraint_count: usize,
}

impl TrustNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or finds) a user by name.
    pub fn user(&mut self, name: &str) -> User {
        let id = NameTable::intern_shared(&mut self.users, name);
        if id as usize == self.beliefs.len() {
            self.beliefs.push(ExplicitBelief::None);
        }
        User(id)
    }

    /// Adds `count` anonymous users, returning the first id (the rest
    /// follow consecutively).
    ///
    /// User `N` is named `u<N>` unless a user of that name already exists
    /// (`net.user("u1")` before `add_users(2)`): minting then skips to the
    /// next free `u<k>`, so every call creates exactly `count` new users
    /// and [`TrustNetwork::find_user`] / [`TrustNetwork::user_name`] stay
    /// inverse bijections. Used by the synthetic workload generators where
    /// names don't matter.
    pub fn add_users(&mut self, count: usize) -> User {
        let first = self.user_count();
        let mut name = String::new();
        let mut k = first;
        while self.user_count() < first + count {
            name.clear();
            write!(name, "u{k}").expect("writing to a String");
            // Interning a name that exists adds nobody: try the next one.
            self.user(&name);
            k += 1;
        }
        User(first as u32)
    }

    /// Interns a data value by name.
    pub fn value(&mut self, name: &str) -> Value {
        self.domain.intern(name)
    }

    /// Declares that `child` trusts `parent` with `priority`
    /// (larger = stronger). Declaring an existing (child, parent) edge
    /// again is an upsert: the priority is updated in place, so
    /// re-weighting loops (e.g. truth-discovery fusion rounds) never
    /// accumulate duplicate mappings.
    pub fn trust(&mut self, child: User, parent: User, priority: i64) -> Result<()> {
        self.check_mapping(child, parent)?;
        self.index();
        let index = self.mapping_index.get_mut().expect("built above");
        match index.entry((child, parent)) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                self.mappings[*slot.get()].priority = priority;
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(self.mappings.len());
                self.mappings.push(Mapping {
                    parent,
                    child,
                    priority,
                });
            }
        }
        Ok(())
    }

    /// Declares every mapping of `mappings` in order: the network that
    /// [`TrustNetwork::trust`] called once per mapping builds — a
    /// re-declared (child, parent) pair keeps its first declaration's
    /// position and its last declaration's priority — without paying for
    /// the edge index per mapping. The loaders' constructor. The first
    /// mapping with an unknown user or a self-trust is the error, as the
    /// per-mapping calls would report it.
    pub fn with_mappings(mut self, mappings: Vec<Mapping>) -> Result<Self> {
        for m in &mappings {
            self.check_mapping(m.child, m.parent)?;
        }
        if self.mappings.is_empty() {
            self.mappings = mappings; // a load's case: no copy
        } else {
            self.mappings.extend(mappings);
        }
        let users = self.user_count();
        drop_redeclarations(&mut self.mappings, users);
        self.mapping_index = OnceLock::new();
        Ok(self)
    }

    /// Sets an explicit positive belief `b0(user) = value`.
    pub fn believe(&mut self, user: User, value: Value) -> Result<()> {
        self.check_user(user)?;
        self.set_belief(user, ExplicitBelief::Pos(value));
        Ok(())
    }

    /// Sets an explicit set of negative beliefs (a constraint).
    pub fn reject(&mut self, user: User, neg: NegSet) -> Result<()> {
        self.check_user(user)?;
        self.set_belief(user, ExplicitBelief::Negs(neg));
        Ok(())
    }

    /// Removes `user`'s explicit belief (a *revocation*; Example 1.2 shows
    /// why update-order-dependent systems cannot handle these).
    pub fn revoke(&mut self, user: User) -> Result<()> {
        self.check_user(user)?;
        self.set_belief(user, ExplicitBelief::None);
        Ok(())
    }

    /// Writes one belief slot, keeping the constraint counter in sync.
    fn set_belief(&mut self, user: User, belief: ExplicitBelief) {
        let slot = &mut self.beliefs[user.index()];
        self.constraint_count -= matches!(slot, ExplicitBelief::Negs(_)) as usize;
        self.constraint_count += matches!(belief, ExplicitBelief::Negs(_)) as usize;
        *slot = belief;
    }

    /// The explicit belief of `user`.
    pub fn belief(&self, user: User) -> &ExplicitBelief {
        &self.beliefs[user.index()]
    }

    /// Number of users (`|U|`).
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Number of trust mappings (`|E|`).
    pub fn mapping_count(&self) -> usize {
        self.mappings.len()
    }

    /// The network size `|U| + |E|` used as the x-axis of the paper's plots.
    pub fn size(&self) -> usize {
        self.user_count() + self.mapping_count()
    }

    /// All mappings.
    pub fn mappings(&self) -> &[Mapping] {
        &self.mappings
    }

    /// The declared priority of the `child → parent` mapping, or `None`
    /// when no such mapping exists. O(1): the lookup the trust-reweighting
    /// loops use to diff desired against current priorities before each
    /// round's edit stream.
    pub fn priority_of(&self, child: User, parent: User) -> Option<i64> {
        self.index()
            .get(&(child, parent))
            .map(|&i| self.mappings[i].priority)
    }

    /// The edge index, built from `mappings` on first use.
    fn index(&self) -> &HashMap<(User, User), usize> {
        self.mapping_index.get_or_init(|| {
            let edges = self.mappings.iter().map(|m| (m.child, m.parent));
            edges.zip(0..).collect()
        })
    }

    /// Whether the edge index has been built.
    #[cfg(test)]
    pub(crate) fn index_built(&self) -> bool {
        self.mapping_index.get().is_some()
    }

    /// All users.
    pub fn users(&self) -> impl Iterator<Item = User> {
        (0..self.user_count() as u32).map(User)
    }

    /// Incoming mappings of `user` (their trusted parents).
    pub fn parents_of(&self, user: User) -> impl Iterator<Item = &Mapping> {
        self.mappings.iter().filter(move |m| m.child == user)
    }

    /// The user's name.
    pub fn user_name(&self, user: User) -> &str {
        self.users.name(user.0)
    }

    /// Looks up a user by name.
    pub fn find_user(&self, name: &str) -> Option<User> {
        self.users.get(name).map(User)
    }

    /// Bytes the user and value name tables occupy
    /// ([`NameTable::table_bytes`] of both) — every name is stored in
    /// exactly one of them.
    pub fn name_table_bytes(&self) -> usize {
        self.users.table_bytes() + self.domain.names().table_bytes()
    }

    /// The table holding every user name, for sharing with binarized
    /// forms and frozen views.
    pub(crate) fn user_names(&self) -> &Arc<NameTable> {
        &self.users
    }

    /// The value domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Whether any user holds negative explicit beliefs.
    pub fn has_negative_beliefs(&self) -> bool {
        self.beliefs.iter().any(|b| b.has_negatives())
    }

    /// The first user with negative beliefs, if any.
    pub fn first_negative_user(&self) -> Option<User> {
        self.beliefs
            .iter()
            .position(|b| b.has_negatives())
            .map(|i| User(i as u32))
    }

    /// Whether any user asserts a constraint (a negative explicit belief,
    /// including the degenerate empty one). Constraint-carrying networks
    /// resolve through the Skeptic pipeline. O(1) — checked per edit by
    /// [`crate::Session`].
    pub fn has_constraints(&self) -> bool {
        self.constraint_count > 0
    }

    /// The first user asserting a constraint, if any.
    pub fn first_constraint_user(&self) -> Option<User> {
        self.beliefs
            .iter()
            .position(|b| matches!(b, ExplicitBelief::Negs(_)))
            .map(|i| User(i as u32))
    }

    /// The mapping graph (edges parent → child), nodes indexed by user id.
    pub fn graph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.user_count());
        for m in &self.mappings {
            g.add_edge(m.parent.0, m.child.0);
        }
        g
    }

    fn check_user(&self, u: User) -> Result<()> {
        if u.index() < self.user_count() {
            Ok(())
        } else {
            Err(Error::UnknownUser(u))
        }
    }

    fn check_mapping(&self, child: User, parent: User) -> Result<()> {
        self.check_user(child)?;
        self.check_user(parent)?;
        if child == parent {
            return Err(Error::SelfTrust(child));
        }
        Ok(())
    }
}

/// Drops the re-declarations from `mappings` (all of whose users are
/// below `users`), with the upsert's outcome: a (child, parent) pair
/// keeps its first declaration's position and its last declaration's
/// priority. One counting pass groups the positions by child, as
/// `binarize` does; within a child, a parent seen before is a
/// re-declaration. O(users + mappings), no hashing.
fn drop_redeclarations(mappings: &mut Vec<Mapping>, users: usize) {
    let len = u32::try_from(mappings.len()).expect("fewer than 2^32 mappings");
    // Positions by child, each child's in declaration order.
    let mut fill = vec![0u32; users + 1];
    for m in mappings.iter() {
        fill[m.child.index() + 1] += 1;
    }
    for x in 0..users {
        fill[x + 1] += fill[x];
    }
    let mut by_child = vec![0u32; mappings.len()];
    for (i, m) in (0..len).zip(mappings.iter()) {
        let at = &mut fill[m.child.index()];
        by_child[*at as usize] = i;
        *at += 1;
    }
    // The first position of each parent in the current child's run: an
    // entry left by an earlier child names a mapping of another child.
    let mut first = vec![u32::MAX; users];
    let mut dropped = Vec::new(); // one flag per mapping, from the first re-declaration
    for &i in &by_child {
        let Mapping {
            parent,
            child,
            priority,
        } = mappings[i as usize];
        let seen = first[parent.index()];
        if seen != u32::MAX && mappings[seen as usize].child == child {
            mappings[seen as usize].priority = priority;
            dropped.resize(mappings.len(), false);
            dropped[i as usize] = true;
        } else {
            first[parent.index()] = i;
        }
    }
    if !dropped.is_empty() {
        let mut dropped = dropped.into_iter();
        mappings.retain(|_| !dropped.next().expect("one flag per mapping"));
    }
}

/// Builds the three-archaeologist network of the paper's running example
/// (Figure 2): Alice trusts Bob (100) and Charlie (50); Bob trusts Alice
/// (80). Used across tests, examples, and docs.
pub fn indus_network() -> (TrustNetwork, [User; 3]) {
    let mut net = TrustNetwork::new();
    let alice = net.user("Alice");
    let bob = net.user("Bob");
    let charlie = net.user("Charlie");
    net.trust(alice, bob, 100).expect("valid mapping");
    net.trust(alice, charlie, 50).expect("valid mapping");
    net.trust(bob, alice, 80).expect("valid mapping");
    (net, [alice, bob, charlie])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_figure_2() {
        let (mut net, [alice, bob, charlie]) = indus_network();
        assert_eq!(net.user_count(), 3);
        assert_eq!(net.mapping_count(), 3);
        assert_eq!(net.size(), 6);
        let jar = net.value("jar");
        net.believe(charlie, jar).unwrap();
        assert_eq!(net.belief(charlie), &ExplicitBelief::Pos(jar));
        assert_eq!(net.belief(alice), &ExplicitBelief::None);
        let parents: Vec<_> = net.parents_of(alice).map(|m| m.parent).collect();
        assert_eq!(parents, vec![bob, charlie]);
    }

    #[test]
    fn user_interning_is_stable() {
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        assert_eq!(net.user("a"), a);
        assert_eq!(net.find_user("a"), Some(a));
        assert_eq!(net.find_user("zzz"), None);
        assert_eq!(net.user_name(a), "a");
    }

    #[test]
    fn trust_upserts_priority() {
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let b = net.user("b");
        let c = net.user("c");
        net.trust(a, b, 10).unwrap();
        net.trust(a, c, 5).unwrap();
        net.trust(a, b, 3).unwrap();
        assert_eq!(net.mapping_count(), 2);
        let got: Vec<_> = net.parents_of(a).map(|m| (m.parent, m.priority)).collect();
        assert_eq!(got, vec![(b, 3), (c, 5)]);
        // Opposite direction is a distinct edge, not an upsert target.
        net.trust(b, a, 7).unwrap();
        assert_eq!(net.mapping_count(), 3);
    }

    /// Re-declarations at several priorities, between other mappings.
    fn redeclaring(users: u32) -> Vec<Mapping> {
        let m = |child, parent, priority| Mapping {
            parent: User(parent),
            child: User(child),
            priority,
        };
        let mut all = vec![m(0, 1, 10), m(2, 1, 4), m(0, 2, 5), m(0, 1, 3)];
        all.extend([m(1, 0, 7), m(2, 1, -1), m(0, 1, 8), m(1, 2, 0)]);
        all.extend((1..users).map(|c| m(c, 0, c as i64)));
        all
    }

    #[test]
    fn with_mappings_is_trust_per_mapping() {
        for users in [3, 40] {
            let mut twin = TrustNetwork::new();
            twin.add_users(users as usize);
            let loaded = twin.clone().with_mappings(redeclaring(users)).unwrap();
            for m in redeclaring(users) {
                twin.trust(m.child, m.parent, m.priority).unwrap();
            }
            assert_eq!(loaded.mappings(), twin.mappings());
            assert!(!loaded.index_built());
            // Appending to a network that has mappings is the same upserts.
            let mut head = redeclaring(users);
            let tail = head.split_off(5);
            let mut twice = TrustNetwork::new();
            twice.add_users(users as usize);
            let twice = twice.with_mappings(head).unwrap();
            assert_eq!(
                twice.with_mappings(tail).unwrap().mappings(),
                twin.mappings()
            );
        }
    }

    #[test]
    fn with_mappings_reports_the_first_bad_mapping() {
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let b = net.user("b");
        let ghost = User(9);
        let m = |child, parent| Mapping {
            parent,
            child,
            priority: 1,
        };
        let bad = |all| net.clone().with_mappings(all).unwrap_err();
        assert_eq!(
            bad(vec![m(a, b), m(b, b), m(ghost, a)]),
            Error::SelfTrust(b)
        );
        assert_eq!(bad(vec![m(a, ghost), m(b, b)]), Error::UnknownUser(ghost));
        assert_eq!(bad(vec![m(ghost, a)]), Error::UnknownUser(ghost));
    }

    #[test]
    fn a_load_leaves_the_index_to_its_first_use() {
        let text = "trust a b 1\ntrust a c 2\ntrust b a 3\ntrust a b 4\nbelieve c v\n";
        let mut twin = TrustNetwork::new();
        let [a, b, c] = [twin.user("a"), twin.user("b"), twin.user("c")];
        for (child, parent, priority) in [(a, b, 1), (a, c, 2), (b, a, 3), (a, b, 4)] {
            twin.trust(child, parent, priority).unwrap();
        }
        let loaded = crate::format::parse_network(text).unwrap();
        assert!(!loaded.index_built());
        assert_eq!(loaded.mappings(), twin.mappings());
        // A clone taken before the index exists builds its own.
        let early = loaded.clone();
        for net in [&loaded, &early] {
            // Every ordered pair, the absent and the reversed ones included.
            for child in net.users() {
                for parent in net.users() {
                    assert_eq!(
                        net.priority_of(child, parent),
                        twin.priority_of(child, parent)
                    );
                }
            }
            assert!(net.index_built());
        }
        // The first `trust` after a load updates the edge it names in
        // place, before and after the index exists.
        let fresh = crate::format::parse_network(text).unwrap();
        for mut net in [fresh.clone(), fresh, loaded, twin] {
            net.trust(a, c, 9).unwrap();
            assert_eq!(net.mapping_count(), 3);
            assert_eq!(net.mappings()[1].priority, 9);
            assert_eq!(net.priority_of(a, c), Some(9));
            net.trust(c, a, 5).unwrap();
            assert_eq!(net.mapping_count(), 4);
            assert_eq!(net.priority_of(c, a), Some(5));
        }
        // The clones' edits never reached the clone they were taken from.
        assert_eq!(early.priority_of(a, c), Some(2));
    }

    #[test]
    fn self_trust_rejected() {
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        assert_eq!(net.trust(a, a, 1), Err(Error::SelfTrust(a)));
    }

    #[test]
    fn unknown_user_rejected() {
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let ghost = User(42);
        assert_eq!(net.trust(a, ghost, 1), Err(Error::UnknownUser(ghost)));
        assert_eq!(net.believe(ghost, Value(0)), Err(Error::UnknownUser(ghost)));
    }

    #[test]
    fn revoke_clears_belief() {
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let v = net.value("v");
        net.believe(a, v).unwrap();
        net.revoke(a).unwrap();
        assert_eq!(net.belief(a), &ExplicitBelief::None);
    }

    #[test]
    fn negative_beliefs_flagged() {
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let v = net.value("v");
        assert!(!net.has_negative_beliefs());
        net.reject(a, NegSet::of([v])).unwrap();
        assert!(net.has_negative_beliefs());
        assert_eq!(net.first_negative_user(), Some(a));
    }

    #[test]
    fn constraint_counter_tracks_belief_writes() {
        let mut net = TrustNetwork::new();
        let a = net.user("a");
        let b = net.user("b");
        let v = net.value("v");
        assert!(!net.has_constraints());
        // Negs(empty) counts as a constraint (degenerate, still Skeptic).
        net.reject(a, NegSet::empty()).unwrap();
        assert!(net.has_constraints());
        assert_eq!(net.first_constraint_user(), Some(a));
        net.reject(b, NegSet::of([v])).unwrap();
        // Overwriting a constraint with another keeps the count right.
        net.reject(a, NegSet::of([v])).unwrap();
        assert!(net.has_constraints());
        // Positive overwrite and revoke both decrement.
        net.believe(a, v).unwrap();
        assert!(net.has_constraints());
        net.revoke(b).unwrap();
        assert!(!net.has_constraints());
        assert_eq!(net.first_constraint_user(), None);
        // Re-believing / re-revoking a non-constraint never underflows.
        net.revoke(a).unwrap();
        net.revoke(a).unwrap();
        assert!(!net.has_constraints());
    }

    #[test]
    fn add_users_bulk() {
        let mut net = TrustNetwork::new();
        let first = net.add_users(3);
        assert_eq!(first, User(0));
        assert_eq!(net.user_count(), 3);
        // Names are addressable.
        assert_eq!(net.find_user("u1"), Some(User(1)));
    }

    #[test]
    fn add_users_skips_names_that_exist() {
        let mut net = TrustNetwork::new();
        let named = net.user("u1");
        let first = net.add_users(2);
        assert_eq!((named, first), (User(0), User(1)));
        assert_eq!(net.user_count(), 3);
        // `u1` was taken: minting moved on to the next free names.
        assert_eq!(net.user_name(User(1)), "u2");
        assert_eq!(net.user_name(User(2)), "u3");
        // A later call starts at its own first id and skips again.
        assert_eq!(net.add_users(1), User(3));
        assert_eq!(net.user_name(User(3)), "u4");
        for u in net.users() {
            assert_eq!(net.find_user(net.user_name(u)), Some(u));
        }
        // Every id keeps its meaning through the text format.
        net.trust(User(1), User(0), 5).unwrap();
        net.trust(User(3), User(2), 7).unwrap();
        let text = crate::format::render_network(&net);
        let back = crate::format::parse_network(&text).unwrap();
        assert_eq!(back.user_count(), 4);
        for u in net.users() {
            assert_eq!(back.user_name(u), net.user_name(u));
        }
        assert_eq!(back.mappings(), net.mappings());
        assert_eq!(crate::format::render_network(&back), text);
    }

    #[test]
    fn graph_matches_mappings() {
        let (net, [alice, bob, charlie]) = indus_network();
        let g = net.graph();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        let edges: Vec<_> = g.edges().collect();
        assert!(edges.contains(&(bob.0, alice.0)));
        assert!(edges.contains(&(charlie.0, alice.0)));
        assert!(edges.contains(&(alice.0, bob.0)));
    }
}
