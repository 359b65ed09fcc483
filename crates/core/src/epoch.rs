//! Epoch snapshots: immutable published views for concurrent serving.
//!
//! The paper's resolution semantics are deterministic per network state
//! (order-invariance, Section 2.5), which makes every committed state a
//! perfect immutable read unit: once a batch of edits has been resolved,
//! the resulting snapshot never changes — only a *newer* snapshot can
//! supersede it. This module turns that property into an MVCC read path:
//!
//! * [`EpochView`] — one committed resolution, frozen: a clone of the
//!   session's per-user result table (possible sets and certain beliefs,
//!   or the skeptic representation when the network carries constraints,
//!   plus the exact table in exact mode), the name tables needed to
//!   answer point queries, and the durable commit LSN the state reflects.
//!   The tables are chunked copy-on-write ([`crate::cow`]): freezing one
//!   copies a pointer per 256 users, and the edit that follows copies
//!   only the chunks holding the users it dirtied — publishing costs
//!   O(region) rows plus an O(users / 256) spine, never O(users) rows.
//! * [`EpochSlot`] — the publication point. The writer swaps in a new
//!   `Arc<EpochView>` after each commit; readers clone the current handle
//!   without ever touching the writer's session. A monotonic epoch
//!   counter lets readers *skip even the slot's own read-lock* when
//!   nothing was published since their last read (see [`EpochReader`]).
//! * [`EpochReader`] — a per-thread cursor caching the last handle; the
//!   hot path (unchanged epoch) is one atomic load and no locks at all.
//!
//! Readers therefore never block on writes and never observe a torn
//! mid-batch state: a view is built from a fully committed resolution and
//! published as one pointer swap. Writers serialize through
//! [`crate::Session`]; [`crate::Session::epoch`] builds and publishes the
//! view (reusing the published handle when no edits intervened, so
//! repeated publication of a quiet session is O(1)).
//!
//! Names are not copied at all: an [`EpochNames`] is two handles on the
//! network's own [`NameTable`]s. A write that interns a *new* user or
//! value while a published view still holds the table copies its three
//! flat vectors once (see [`NameTable::intern_shared`]); belief and trust
//! churn never touches them.
//!
//! The `trustmap-store` crate's group-commit hub drives this from a
//! dedicated writer thread: one durable WAL unit per edit group, one
//! epoch publication per group, thousands of concurrent readers riding
//! the slot.

use crate::exact::ExactUserResolution;
use crate::names::NameTable;
use crate::network::TrustNetwork;
use crate::resolution::UserResolution;
use crate::signed::BeliefSet;
use crate::skeptic::SkepticUserResolution;
use crate::user::User;
use crate::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Frozen name tables of one epoch: user/value id lookups for point
/// queries without the writer's network.
///
/// Interning is append-only (ids never change meaning) and the tables
/// are the network's own, shared by handle: freezing them is two
/// reference-count bumps, and the network copies a table only when it
/// interns a new name while a view still holds the old one.
#[derive(Debug, Default)]
pub struct EpochNames {
    users: Arc<NameTable>,
    values: Arc<NameTable>,
}

impl EpochNames {
    /// Shares the name tables of `net`.
    pub fn of(net: &TrustNetwork) -> Self {
        EpochNames {
            users: Arc::clone(net.user_names()),
            values: Arc::clone(net.domain().names()),
        }
    }

    /// Number of users known to this epoch.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Looks a user up by name.
    pub fn find_user(&self, name: &str) -> Option<User> {
        self.users.get(name).map(User)
    }

    /// Looks a value up by name.
    pub fn find_value(&self, name: &str) -> Option<Value> {
        self.values.get(name).map(Value)
    }

    /// The name of `user`, if this epoch knows it.
    pub fn user_name(&self, user: User) -> Option<&str> {
        self.users.get_name(user.0)
    }

    /// The name of `value`, if this epoch knows it.
    pub fn value_name(&self, value: Value) -> Option<&str> {
        self.values.get_name(value.0)
    }
}

/// The resolved state carried by an epoch: one of the two pipelines'
/// snapshot shapes (mirroring [`crate::Session`]'s sign-state routing).
#[derive(Debug)]
pub(crate) enum EpochState {
    /// Basic model (positive network): possible sets + certain beliefs.
    Basic(UserResolution),
    /// Skeptic paradigm (constraint-carrying network).
    Skeptic(SkepticUserResolution),
}

/// One committed resolution, frozen for lock-free concurrent reads.
///
/// An `EpochView` is immutable by construction; cloning the `Arc` handle
/// is the only sharing mechanism. Freezing is cheap: the view's tables
/// are clones of the session's chunked copy-on-write tables
/// ([`crate::cow`]), so a view costs one pointer copy per 256 users and
/// shares every row with the session — and with the views before it —
/// until an edit rewrites that row's chunk.
#[derive(Debug)]
pub struct EpochView {
    epoch: u64,
    lsn: u64,
    state: EpochState,
    names: EpochNames,
    /// Exact certain/possible positives, published when the session has
    /// exact mode enabled ([`crate::Session::enable_exact`]) — the table
    /// behind `CERT <user> EXACT` reads on leaders and replicas.
    exact: Option<ExactUserResolution>,
}

impl EpochView {
    /// Freezes `state` (table clones of the publishing session's
    /// snapshot). `lsn` is the durable commit LSN the state reflects (0
    /// for an in-memory-only session).
    pub(crate) fn new(
        epoch: u64,
        lsn: u64,
        state: EpochState,
        names: EpochNames,
        exact: Option<ExactUserResolution>,
    ) -> Self {
        EpochView {
            epoch,
            lsn,
            state,
            names,
            exact,
        }
    }

    /// The publication sequence number (monotonic per [`EpochSlot`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The durable commit LSN this epoch reflects (0 if the session has
    /// no durability sink or nothing was committed yet).
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Whether this epoch was resolved under the Skeptic paradigm (the
    /// network carried constraints at publication time).
    pub fn is_skeptic(&self) -> bool {
        matches!(self.state, EpochState::Skeptic(_))
    }

    /// Number of users covered by the view.
    pub fn user_count(&self) -> usize {
        match &self.state {
            EpochState::Basic(r) => r.user_count(),
            EpochState::Skeptic(r) => r.user_count(),
        }
    }

    /// The frozen name tables.
    pub fn names(&self) -> &EpochNames {
        &self.names
    }

    /// The certain positive value of `user` (both pipelines decode to
    /// this; users beyond the view read as undefined).
    pub fn cert(&self, user: User) -> Option<Value> {
        if user.index() >= self.user_count() {
            return None;
        }
        match &self.state {
            EpochState::Basic(r) => r.cert(user),
            EpochState::Skeptic(r) => r.cert_positive(user),
        }
    }

    /// The possible positive values of `user`, sorted.
    pub fn poss(&self, user: User) -> Vec<Value> {
        if user.index() >= self.user_count() {
            return Vec::new();
        }
        match &self.state {
            EpochState::Basic(r) => r.poss(user).to_vec(),
            EpochState::Skeptic(r) => r.rep_poss(user).pos.iter().copied().collect(),
        }
    }

    /// The full certain belief set of `user` (Figure 18 decode in skeptic
    /// mode; on positive networks the certain positive value, if any).
    pub fn cert_beliefs(&self, user: User) -> BeliefSet {
        match &self.state {
            EpochState::Basic(_) => match self.cert(user) {
                Some(v) => BeliefSet {
                    pos: Some(v),
                    neg: crate::signed::NegSet::empty(),
                },
                None => BeliefSet::empty(),
            },
            EpochState::Skeptic(r) => {
                if user.index() < r.user_count() {
                    r.cert(user)
                } else {
                    BeliefSet::empty()
                }
            }
        }
    }

    /// The basic-model resolution, when this epoch runs the basic
    /// pipeline (`None` under skeptic).
    pub fn basic_resolution(&self) -> Option<&UserResolution> {
        match &self.state {
            EpochState::Basic(r) => Some(r),
            EpochState::Skeptic(_) => None,
        }
    }

    /// The skeptic resolution, when this epoch runs the skeptic pipeline.
    pub fn skeptic_resolution(&self) -> Option<&SkepticUserResolution> {
        match &self.state {
            EpochState::Skeptic(r) => Some(r),
            EpochState::Basic(_) => None,
        }
    }

    /// The exact certain/possible table, when the publishing session had
    /// exact mode enabled (and the state fit the enumeration caps).
    pub fn exact(&self) -> Option<&ExactUserResolution> {
        self.exact.as_ref()
    }

    /// The **exact** certain positive value of `user` from the published
    /// exact table: `Ok(None)` means exactly "no certain value";
    /// `Err(())`-free by design — `None` at the outer level means this
    /// epoch carries no exact table at all (exact mode off, or the state
    /// overflowed the enumeration caps at publication time).
    pub fn cert_exact(&self, user: User) -> Option<Option<Value>> {
        let table = self.exact.as_ref()?;
        Some(if user.index() < table.user_count() {
            table.cert(user)
        } else {
            None
        })
    }
}

/// Genesis view: epoch 0 over an empty network (what readers see before
/// the first publication).
fn genesis() -> Arc<EpochView> {
    Arc::new(EpochView::new(
        0,
        0,
        EpochState::Basic(UserResolution::default()),
        EpochNames::default(),
        None,
    ))
}

/// The publication point readers attach to.
///
/// One writer swaps views in ([`EpochSlot::publish`]); any number of
/// readers clone the current handle out ([`EpochSlot::load`]). Readers
/// never take the writer's session lock — the slot is a self-contained
/// `RwLock<Arc<_>>` held only for the pointer clone, and the atomic
/// epoch counter lets [`EpochReader`] skip even that when nothing new was
/// published. A condvar supports LSN-token waits (read-your-writes).
#[derive(Debug)]
pub struct EpochSlot {
    current: RwLock<Arc<EpochView>>,
    /// Epoch number of `current`, readable without the lock.
    epoch: AtomicU64,
    /// Commit LSN of `current`, readable without the lock.
    lsn: AtomicU64,
    wait: Mutex<()>,
    advanced: Condvar,
}

impl Default for EpochSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochSlot {
    /// An empty slot holding the genesis view (epoch 0, empty network).
    pub fn new() -> Self {
        EpochSlot {
            current: RwLock::new(genesis()),
            epoch: AtomicU64::new(0),
            lsn: AtomicU64::new(0),
            wait: Mutex::new(()),
            advanced: Condvar::new(),
        }
    }

    /// The current view (one brief read-lock for the pointer clone; use
    /// an [`EpochReader`] on hot read paths to skip it entirely).
    pub fn load(&self) -> Arc<EpochView> {
        self.current.read().expect("epoch slot lock").clone()
    }

    /// The epoch number of the current view, lock-free.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The commit LSN of the current view, lock-free.
    pub fn lsn(&self) -> u64 {
        self.lsn.load(Ordering::Acquire)
    }

    /// Publishes `view` as the current epoch. Called by the (single)
    /// writer after each committed state change; `view.epoch()` must be
    /// greater than the current epoch.
    pub fn publish(&self, view: Arc<EpochView>) {
        let epoch = view.epoch();
        let lsn = view.lsn();
        debug_assert!(epoch > self.epoch(), "epochs advance monotonically");
        *self.current.write().expect("epoch slot lock") = view;
        self.lsn.store(lsn, Ordering::Release);
        self.epoch.store(epoch, Ordering::Release);
        // Wake LSN-token waiters; the wait mutex orders the check-then-wait
        // against this notification.
        let _held = self.wait.lock().expect("epoch wait lock");
        self.advanced.notify_all();
    }

    /// Read-your-writes: blocks until the published epoch's commit LSN
    /// reaches `lsn` (the token from a write acknowledgement), returning
    /// that view, or `None` on timeout. Returns immediately when the
    /// current epoch already covers the token.
    pub fn wait_for_lsn(&self, lsn: u64, timeout: Duration) -> Option<Arc<EpochView>> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.lsn() >= lsn {
                return Some(self.load());
            }
            let guard = self.wait.lock().expect("epoch wait lock");
            // Re-check under the wait lock: a publish between the check
            // above and this lock would otherwise be missed.
            if self.lsn() >= lsn {
                return Some(self.load());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (_g, timed_out) = self
                .advanced
                .wait_timeout(guard, deadline - now)
                .expect("epoch wait lock");
            if timed_out.timed_out() && self.lsn() < lsn {
                return None;
            }
        }
    }

    /// A per-thread reading cursor over this slot.
    pub fn reader(self: &Arc<Self>) -> EpochReader {
        EpochReader {
            slot: Arc::clone(self),
            cached: self.load(),
            fast_loads: 0,
            slow_loads: 1,
        }
    }
}

/// A per-thread read cursor: caches the last loaded view and refreshes it
/// only when the slot's atomic epoch counter says something newer was
/// published. The steady-state read path (epoch unchanged) is one atomic
/// load — no locks, no allocation, no contention with the writer.
#[derive(Debug)]
pub struct EpochReader {
    slot: Arc<EpochSlot>,
    cached: Arc<EpochView>,
    fast_loads: u64,
    slow_loads: u64,
}

impl EpochReader {
    /// The freshest published view (refreshing the cache if needed).
    pub fn current(&mut self) -> &Arc<EpochView> {
        if self.slot.epoch() != self.cached.epoch() {
            self.cached = self.slot.load();
            self.slow_loads += 1;
        } else {
            self.fast_loads += 1;
        }
        &self.cached
    }

    /// The view this reader last loaded, without checking for newer ones
    /// (pin a multi-query transaction to one epoch with this).
    pub fn pinned(&self) -> &Arc<EpochView> {
        &self.cached
    }

    /// Read-your-writes helper: waits until `lsn` is covered (see
    /// [`EpochSlot::wait_for_lsn`]) and caches the resulting view.
    pub fn wait_for_lsn(&mut self, lsn: u64, timeout: Duration) -> Option<&Arc<EpochView>> {
        if self.cached.lsn() < lsn {
            self.cached = self.slot.wait_for_lsn(lsn, timeout)?;
            self.slow_loads += 1;
        }
        Some(&self.cached)
    }

    /// `(fast, slow)` load counters: reads served from the cache without
    /// touching the slot's lock vs. reads that refreshed through it.
    pub fn load_stats(&self) -> (u64, u64) {
        (self.fast_loads, self.slow_loads)
    }

    /// The slot this reader follows.
    pub fn slot(&self) -> &Arc<EpochSlot> {
        &self.slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::indus_network;
    use crate::session::Session;
    use crate::signed::NegSet;

    #[test]
    fn genesis_slot_serves_an_empty_view() {
        let slot = Arc::new(EpochSlot::new());
        let view = slot.load();
        assert_eq!(view.epoch(), 0);
        assert_eq!(view.lsn(), 0);
        assert_eq!(view.user_count(), 0);
        assert_eq!(view.cert(User(3)), None);
        assert!(view.poss(User(3)).is_empty());
    }

    #[test]
    fn session_publishes_and_reuses_epochs() {
        let (net, [alice, _, charlie]) = indus_network();
        let mut s = Session::new(net);
        let jar = s.value("jar");
        s.believe(charlie, jar).unwrap();

        let first = s.epoch().unwrap();
        assert_eq!(first.cert(alice), Some(jar));
        // No edits intervened: the published handle is reused, not
        // re-rendered (the satellite fix).
        let again = s.epoch().unwrap();
        assert!(Arc::ptr_eq(&first, &again), "quiet publish is O(1)");

        let cow = s.value("cow");
        s.believe(charlie, cow).unwrap();
        let second = s.epoch().unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert!(second.epoch() > first.epoch());
        assert_eq!(second.cert(alice), Some(cow));
        // The superseded epoch is immutable: still the old state.
        assert_eq!(first.cert(alice), Some(jar));
    }

    #[test]
    fn epoch_names_answer_point_lookups() {
        let (net, [alice, _, _]) = indus_network();
        let mut s = Session::new(net);
        let jar = s.value("jar");
        let view = s.epoch().unwrap();
        assert_eq!(view.names().find_user("Alice"), Some(alice));
        assert_eq!(view.names().find_value("jar"), Some(jar));
        assert_eq!(view.names().user_name(alice), Some("Alice"));
        assert_eq!(view.names().value_name(jar), Some("jar"));
        assert_eq!(view.names().find_user("nobody"), None);
        // Belief churn shares the name table across epochs.
        let charlie = view.names().find_user("Charlie").unwrap();
        s.believe(charlie, jar).unwrap();
        let next = s.epoch().unwrap();
        assert!(Arc::ptr_eq(&view.names.users, &next.names.users));
        assert!(Arc::ptr_eq(&view.names.values, &next.names.values));
        // A new user copies the user table (the views hold the old one)
        // and leaves the value table shared.
        s.user("Dave");
        let grown = s.epoch().unwrap();
        assert!(!Arc::ptr_eq(&view.names.users, &grown.names.users));
        assert!(Arc::ptr_eq(&view.names.values, &grown.names.values));
        assert!(grown.names().find_user("Dave").is_some());
        assert_eq!(view.names().find_user("Dave"), None, "views are frozen");
        assert_eq!(view.names().user_count(), 3);
    }

    #[test]
    fn skeptic_epochs_decode_signed_state() {
        let (net, [alice, bob, charlie]) = indus_network();
        let mut s = Session::new(net);
        let jar = s.value("jar");
        let cow = s.value("cow");
        s.believe(charlie, jar).unwrap();
        s.reject(bob, NegSet::of([cow])).unwrap();
        let view = s.epoch().unwrap();
        assert!(view.is_skeptic());
        assert_eq!(view.cert(alice), Some(jar));
        assert_eq!(view.poss(alice), vec![jar]);
        assert!(view.cert_beliefs(bob).neg.contains(cow));
        assert!(view.basic_resolution().is_none());
        assert!(view.skeptic_resolution().is_some());
    }

    #[test]
    fn readers_cache_until_the_epoch_advances() {
        let (net, [_, _, charlie]) = indus_network();
        let mut s = Session::new(net);
        let jar = s.value("jar");
        s.believe(charlie, jar).unwrap();
        s.epoch().unwrap();

        let slot = s.epoch_slot();
        let mut r = slot.reader();
        let e1 = r.current().epoch();
        let _ = r.current();
        let (fast, slow) = r.load_stats();
        assert!(fast >= 2, "unchanged epoch reads stay on the fast path");
        assert_eq!(slow, 1, "only the initial load touched the slot lock");

        let cow = s.value("cow");
        s.believe(charlie, cow).unwrap();
        s.epoch().unwrap();
        assert!(r.current().epoch() > e1);
        let (_, slow) = r.load_stats();
        assert_eq!(slow, 2, "one refresh for the new epoch");
    }

    #[test]
    fn wait_for_lsn_times_out_and_completes() {
        let slot = Arc::new(EpochSlot::new());
        assert!(slot.wait_for_lsn(5, Duration::from_millis(10)).is_none());
        // Publication from another thread unblocks the wait.
        let publisher = Arc::clone(&slot);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let (net, _) = indus_network();
            let mut s = Session::new(net);
            let view = s.epoch().unwrap();
            // Re-stamp with an LSN for the test (sessions without a sink
            // publish lsn 0): build a view directly.
            publisher.publish(Arc::new(EpochView::new(
                view.epoch() + 1,
                7,
                EpochState::Basic(UserResolution::default()),
                EpochNames::default(),
                None,
            )));
        });
        let got = slot.wait_for_lsn(5, Duration::from_secs(5));
        handle.join().unwrap();
        assert_eq!(got.expect("published").lsn(), 7);
        // Already-covered tokens return immediately.
        assert!(slot.wait_for_lsn(7, Duration::from_millis(1)).is_some());
    }

    #[test]
    fn cloned_sessions_get_their_own_slot() {
        let (net, [_, _, charlie]) = indus_network();
        let mut s = Session::new(net);
        let jar = s.value("jar");
        s.believe(charlie, jar).unwrap();
        s.epoch().unwrap();
        let slot = s.epoch_slot();

        let mut copy = s.clone();
        let cow = copy.value("cow");
        copy.believe(charlie, cow).unwrap();
        copy.epoch().unwrap();
        // The original's readers never see the clone's history.
        assert!(!Arc::ptr_eq(&slot, &copy.epoch_slot()));
        assert_eq!(slot.load().cert(charlie), Some(jar));
    }
}
