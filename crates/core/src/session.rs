//! An incremental editing session over a trust network.
//!
//! The resolved snapshot depends only on the current explicit beliefs, so
//! any edit can be handled by re-running resolution (Section 2.5: "we
//! simply re-run the algorithm"). [`Session`] does better: typed edits
//! ([`Session::believe`], [`Session::trust`], [`Session::revoke`],
//! [`Session::reject`], [`Session::apply_edit`]) are queued as deltas, the
//! dirty region downstream of each is re-solved and the cached snapshot
//! patched in place. Closure edits ([`Session::apply`]) fall back to full
//! recomputation. [`Session::stats`] reports which path each edit took and
//! how large the dirty regions were.
//!
//! ### The two pipelines
//!
//! The session picks its engine by the network's *sign state*:
//!
//! * **Positive networks** run the basic model on the
//!   [`crate::incremental::IncrementalResolver`]
//!   (Algorithm 1); read through [`Session::snapshot`].
//! * **Constraint-carrying networks** (any user with negative explicit
//!   beliefs) run the Skeptic paradigm on the
//!   [`crate::skeptic_incremental::SkepticIncremental`]
//!   engine (Algorithm 2) — constraint assertions are ordinary incremental
//!   edits, not full recomputations; read through
//!   [`Session::skeptic_snapshot`] / [`Session::skeptic_cert`]
//!   ([`Session::snapshot`] keeps the basic-model contract and errors).
//!
//! Crossing the sign boundary (first constraint asserted, or the last one
//! revoked) rebuilds the engine once, and so does a batch with more edits
//! than the network has users; otherwise every typed edit stays on the
//! delta path with the same [`DeltaStats`] / `BatchReport` accounting.
//!
//! ### Durability
//!
//! A session can stream its edit history into an attached
//! [`Durability`] sink ([`Session::set_durability`]): each non-batched
//! typed edit commits as its own atomic unit, an explicit batch commits
//! once in [`Session::commit`], and closure edits are captured as full
//! network rewrites. The `trustmap-store` crate implements the sink as a
//! CRC-framed write-ahead log with snapshots and recovers a byte-identical
//! session after a crash.

use crate::durability::Durability;
use crate::epoch::{EpochNames, EpochSlot, EpochState, EpochView};
use crate::error::{Error, Result};
use crate::exact::{ExactCounters, ExactEngine, ExactUserResolution};
use crate::incremental::{DeltaStats, Edit, IncrementalResolver};
use crate::network::TrustNetwork;
use crate::plan::{Query, QueryResult, QueryRow, QueryTarget, Route};
use crate::resolution::UserResolution;
use crate::signed::{BeliefSet, NegSet};
use crate::skeptic::{RepPoss, SkepticUserResolution};
use crate::skeptic_incremental::{SignedEdit, SkepticIncremental};
use crate::user::User;
use crate::value::Value;
use std::sync::Arc;

pub use crate::incremental::BeliefChange;

/// The change report of one committed edit batch
/// ([`Session::begin_batch`] / [`Session::commit`]).
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Users whose *certain* belief changed over the whole batch.
    pub changes: Vec<BeliefChange>,
    /// Number of edits the batch drained.
    pub edits: usize,
    /// Size of the single combined dirty region (in BTN nodes).
    pub dirty_nodes: usize,
    /// Whether the commit built the engine from scratch instead of
    /// draining the batch: the first snapshot (per-user change reporting
    /// is unavailable then), a batch that crossed the sign boundary, or
    /// one with more edits than the network has users.
    pub full_rebuild: bool,
}

/// The live engine behind a session: one of the two incremental pipelines.
///
/// Both variants are large (engines embed their node-indexed scratch), but
/// a session holds exactly one engine directly — never collections of them
/// — so boxing would only add pointer chasing to every snapshot read.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum LiveEngine {
    /// Algorithm 1 (positive networks).
    Basic(IncrementalResolver),
    /// Algorithm 2 (constraint-carrying networks).
    Skeptic(SkepticIncremental),
}

impl LiveEngine {
    fn btn(&self) -> &crate::binary::Btn {
        match self {
            LiveEngine::Basic(e) => e.btn(),
            LiveEngine::Skeptic(e) => e.btn(),
        }
    }

    fn last_dirty_nodes(&self) -> &[trustmap_graph::NodeId] {
        match self {
            LiveEngine::Basic(e) => e.last_dirty_nodes(),
            LiveEngine::Skeptic(e) => e.last_dirty_nodes(),
        }
    }

    fn user_count(&self) -> usize {
        match self {
            LiveEngine::Basic(e) => e.user_count(),
            LiveEngine::Skeptic(e) => e.user_count(),
        }
    }
}

/// Exact certain-belief maintenance state of a session (see
/// [`Session::enable_exact`]).
#[derive(Debug, Clone, Default)]
enum ExactSlot {
    /// Exact mode is off (the default).
    #[default]
    Off,
    /// Enabled but not built against the current engine yet (fresh enable,
    /// or invalidated by a rebuild); the next refresh builds it.
    Pending,
    /// Live and patched per dirty region alongside the main engine
    /// (boxed: the engine dwarfs every other variant), with the
    /// user-indexed table epoch views publish — rendered once when the
    /// engine is built, then patched over each region it re-solves.
    Live(Box<ExactEngine>, ExactUserResolution),
    /// The last build or update overflowed the enumeration caps
    /// (carries the reported `log2_candidates`); exact reads error until
    /// an edit shrinks the offending region or the session rebuilds.
    Failed(u32),
}

/// An editable trust network with an incrementally maintained snapshot.
#[derive(Debug, Default)]
pub struct Session {
    net: TrustNetwork,
    engine: Option<LiveEngine>,
    /// Basic-mode snapshot (patched per batch); `None` in skeptic mode.
    snapshot: Option<UserResolution>,
    /// Skeptic-mode snapshot (patched per batch); in basic mode a lazily
    /// synthesized view, dropped on every edit.
    sk_snapshot: Option<SkepticUserResolution>,
    pending: Vec<SignedEdit>,
    stats: DeltaStats,
    batching: bool,
    /// Optional write-ahead sink; see [`crate::durability`]. Not cloned.
    durability: Option<Box<dyn Durability>>,
    /// Publication point for epoch snapshots ([`Session::epoch`]);
    /// readers hold their own `Arc` and never touch the session.
    epochs: Arc<EpochSlot>,
    /// The view published for the current state, reused verbatim while no
    /// edits intervene (publishing a quiet session renders nothing).
    published: Option<Arc<EpochView>>,
    /// Exact certain-belief maintenance ([`Session::enable_exact`]),
    /// patched per dirty region alongside the live engine.
    exact: ExactSlot,
}

impl Clone for Session {
    /// Clones the in-memory state only: the durability sink stays with the
    /// original (`None` in the copy), because two sessions interleaving
    /// commits in one write-ahead log would corrupt the edit history. The
    /// epoch slot is fresh for the same reason — two publishers on one
    /// slot would interleave two divergent histories under its readers.
    /// The snapshot tables are copy-on-write ([`crate::cow`]): the copy
    /// shares every row with the original until one of them edits.
    fn clone(&self) -> Self {
        Session {
            net: self.net.clone(),
            engine: self.engine.clone(),
            snapshot: self.snapshot.clone(),
            sk_snapshot: self.sk_snapshot.clone(),
            pending: self.pending.clone(),
            stats: self.stats,
            batching: self.batching,
            durability: None,
            epochs: Arc::new(EpochSlot::new()),
            published: None,
            exact: self.exact.clone(),
        }
    }
}

impl Session {
    /// Starts a session over an existing network.
    pub fn new(net: TrustNetwork) -> Self {
        Session {
            net,
            engine: None,
            snapshot: None,
            sk_snapshot: None,
            pending: Vec::new(),
            stats: DeltaStats::default(),
            batching: false,
            durability: None,
            epochs: Arc::new(EpochSlot::new()),
            published: None,
            exact: ExactSlot::Off,
        }
    }

    /// Attaches a durability sink: from now on every typed edit, closure
    /// rewrite, and commit boundary is streamed into `hook` (see
    /// [`crate::durability`] for the exact protocol). The usual way to get
    /// a durable session is `trustmap_store::Store::open`, which recovers
    /// the session from disk and attaches the store in one step; attaching
    /// mid-life starts logging *from the current state* — the sink is
    /// responsible for having captured a baseline (a snapshot or rewrite
    /// record) first.
    pub fn set_durability(&mut self, hook: Box<dyn Durability>) {
        self.durability = Some(hook);
    }

    /// Records one applied edit with the durability sink; outside a batch
    /// the edit commits immediately as its own atomic unit (batches commit
    /// once, in [`Session::commit`]).
    ///
    /// Callers apply the edit to the in-memory state *before* consulting
    /// the result: a durability failure means "applied but not durable",
    /// never a session whose engine silently diverges from its network.
    fn log_edit(&mut self, edit: &SignedEdit) -> Result<()> {
        if let Some(hook) = self.durability.as_mut() {
            hook.record_edit(edit);
            if !self.batching {
                hook.commit()?;
            }
        }
        Ok(())
    }

    /// Whether the live engine lags the network's user or value tables
    /// (users/values interned since the engine was built) and must grow
    /// before serving reads.
    fn engine_grown(&self) -> bool {
        match self.engine.as_ref() {
            Some(engine) => {
                engine.user_count() < self.net.user_count()
                    || engine.btn().domain().len() < self.net.domain().len()
            }
            None => false,
        }
    }

    /// Read access to the underlying network.
    pub fn network(&self) -> &TrustNetwork {
        &self.net
    }

    /// Counters for the incremental-vs-full resolution paths taken so far.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Opens an explicit edit batch (a lightweight transaction): typed
    /// edits issued until [`Session::commit`] are queued and drained as
    /// **one** combined dirty region, amortizing regional-solve overhead
    /// across the whole batch. Reads inside the batch ([`Session::snapshot`],
    /// [`Session::btn`]) see the pre-batch state — users created mid-batch
    /// read as undefined until commit. Flushes any already-pending edits
    /// first so the commit report covers exactly this batch. A closure
    /// edit ([`Session::apply`]) collapses the batch with a full
    /// recompute; constraint edits stay on the delta path when the
    /// session is already in skeptic mode, while a batch that *crosses*
    /// the sign boundary (first constraint in, last constraint out)
    /// commits as one engine rebuild on the other pipeline. A batch with
    /// more edits than the network has users — a bulk load — also commits
    /// as one rebuild, which is cheaper than patching edit by edit.
    ///
    /// Re-entrant: calling `begin_batch` while a batch is already open is
    /// a no-op — the open batch simply continues (there is no nesting;
    /// the next [`Session::commit`] reports everything since the first
    /// `begin_batch`).
    pub fn begin_batch(&mut self) -> Result<()> {
        if self.batching {
            return Ok(());
        }
        self.refresh()?;
        self.batching = true;
        Ok(())
    }

    /// Whether an explicit batch is open.
    pub fn in_batch(&self) -> bool {
        self.batching
    }

    /// Closes the current batch, re-solves the combined dirty region once
    /// (or reseeds the engine, for a batch larger than the network), and
    /// returns the single change report. Without an open batch this just
    /// flushes whatever is pending (an empty report if nothing is).
    pub fn commit(&mut self) -> Result<BatchReport> {
        self.batching = false;
        // WAL-first: everything the batch buffered with the durability
        // sink becomes one durable unit before any engine work (an empty
        // buffer writes no frame).
        if let Some(hook) = self.durability.as_mut() {
            hook.commit()?;
        }
        if self.engine.is_none() {
            // Nothing existed before the batch: the first snapshot is a
            // full build and there is no "before" to diff against.
            self.refresh()?;
            return Ok(BatchReport {
                changes: Vec::new(),
                edits: 0,
                dirty_nodes: 0,
                full_rebuild: true,
            });
        }
        let edits = std::mem::take(&mut self.pending);
        // Rebuild and diff around the rebuild when the batch crossed the
        // sign boundary (the old engine cannot drain it) or carries more
        // edits than the network has users (a patch costs at least one
        // reconcile per edit, a rebuild about one per user).
        let crossed =
            self.net.has_constraints() != matches!(self.engine, Some(LiveEngine::Skeptic(_)));
        if crossed || edits.len() > self.net.user_count() {
            let before = self.cert_positive_vec();
            self.invalidate();
            self.refresh()?;
            self.stats.batch_commits += 1;
            return Ok(BatchReport {
                changes: self.diff_certs(&before),
                edits: edits.len(),
                dirty_nodes: 0,
                full_rebuild: true,
            });
        }
        // An empty batch is a no-op end to end: no engine planning pass,
        // no change report bookkeeping — unless users or values were
        // created mid-batch, which the engine must still grow to cover.
        if edits.is_empty() && !self.engine_grown() {
            return Ok(BatchReport::default());
        }
        let changes = self.drain(&edits)?;
        self.stats.batch_commits += 1;
        Ok(BatchReport {
            changes,
            edits: edits.len(),
            dirty_nodes: self.stats.last_dirty_nodes,
            full_rebuild: false,
        })
    }

    /// Enables exact certain-belief maintenance ([`crate::exact`]): every
    /// drained edit batch re-solves its dirty region *exactly* alongside
    /// the approximate engine, making `EXACT` queries ([`Query::exact`])
    /// available and publishing an exact table on every epoch view (so serve/replica `CERT <user> EXACT`
    /// reads work at pinned LSNs). Costs one exact full build now —
    /// errors with [`Error::EnumerationTooLarge`] if the network's cyclic
    /// residues exceed the enumeration caps (exact `cert` is NP-hard on
    /// cyclic signed networks, Theorem 3.4) — and an O(region) exact
    /// solve per edit afterwards. Batch-aware: mid-batch exact reads see
    /// the pre-batch state, like every other session read. Exact state is
    /// derived, never persisted: a recovered or cloned-for-replica
    /// session re-enables it explicitly.
    pub fn enable_exact(&mut self) -> Result<()> {
        if matches!(self.exact, ExactSlot::Off) {
            self.exact = ExactSlot::Pending;
            self.published = None;
        }
        self.refresh()?;
        if let ExactSlot::Failed(log2_candidates) = self.exact {
            return Err(Error::EnumerationTooLarge { log2_candidates });
        }
        Ok(())
    }

    /// Whether exact maintenance is enabled (true even while the current
    /// state has overflowed the enumeration caps).
    pub fn exact_enabled(&self) -> bool {
        !matches!(self.exact, ExactSlot::Off)
    }

    /// Work counters of the live exact engine (`None` while exact mode is
    /// off, pending, or failed) — the counter-arithmetic surface the
    /// O(region) bench gates read.
    pub fn exact_counters(&self) -> Option<ExactCounters> {
        match &self.exact {
            ExactSlot::Live(exact, _) => Some(exact.counters()),
            _ => None,
        }
    }

    /// Bytes of region-scaled scratch retained by the live exact engine.
    pub fn exact_region_scratch_bytes(&self) -> Option<usize> {
        match &self.exact {
            ExactSlot::Live(exact, _) => Some(exact.region_scratch_bytes()),
            _ => None,
        }
    }

    /// Whether the session currently runs the Skeptic pipeline (the
    /// network carries constraints).
    pub fn is_skeptic(&self) -> bool {
        self.net.has_constraints()
    }

    /// Adds (or finds) a user. The engine grows lazily at the next
    /// snapshot; no recomputation is triggered. A *new* user is recorded
    /// with the durability sink (riding the next commit unit — WAL edit
    /// records address users by id, so the name table must replay too).
    pub fn user(&mut self, name: &str) -> User {
        if self.net.find_user(name).is_none() {
            if let Some(hook) = self.durability.as_mut() {
                hook.record_user(name);
            }
        }
        self.net.user(name)
    }

    /// Interns a value; a *new* value is recorded with the durability sink
    /// like a new user.
    pub fn value(&mut self, name: &str) -> Value {
        if self.net.domain().get(name).is_none() {
            if let Some(hook) = self.durability.as_mut() {
                hook.record_value(name);
            }
        }
        self.net.value(name)
    }

    /// Declares a trust mapping; re-binarizes only `child`'s cascade at the
    /// next snapshot.
    pub fn trust(&mut self, child: User, parent: User, priority: i64) -> Result<()> {
        self.net.trust(child, parent, priority)?;
        let edit = SignedEdit::Trust {
            child,
            parent,
            priority,
        };
        self.enqueue(edit.clone());
        self.log_edit(&edit)
    }

    /// Asserts (or updates) an explicit belief; a pure value flip at the
    /// user's persistent belief root when one exists.
    pub fn believe(&mut self, user: User, value: Value) -> Result<()> {
        self.net.believe(user, value)?;
        let edit = SignedEdit::Believe(user, value);
        self.enqueue(edit.clone());
        self.log_edit(&edit)
    }

    /// Asserts a constraint (a negative explicit belief). An ordinary
    /// incremental edit on the Skeptic pipeline: the first constraint
    /// switches the session's engine (one rebuild), subsequent constraint
    /// edits re-solve only the dirty region downstream of `user`.
    pub fn reject(&mut self, user: User, neg: NegSet) -> Result<()> {
        self.net.reject(user, neg.clone())?;
        let edit = SignedEdit::Reject(user, neg);
        self.enqueue(edit.clone());
        self.log_edit(&edit)
    }

    /// Revokes an explicit belief (Example 1.2); incremental.
    pub fn revoke(&mut self, user: User) -> Result<()> {
        self.net.revoke(user)?;
        let edit = SignedEdit::Revoke(user);
        self.enqueue(edit.clone());
        self.log_edit(&edit)
    }

    /// The current basic-model snapshot. After typed edits only the dirty
    /// region is re-solved; the first call (or the first after a closure
    /// edit) resolves fully.
    ///
    /// On constraint-carrying networks this errors like
    /// [`crate::resolution::resolve`] — possible sets of positive values
    /// cannot represent signed results; read those through
    /// [`Session::skeptic_snapshot`] instead.
    pub fn snapshot(&mut self) -> Result<&UserResolution> {
        self.refresh()?;
        match self.snapshot {
            Some(ref snap) => Ok(snap),
            None => Err(Error::NegativeBeliefsUnsupported(
                self.net
                    .first_constraint_user()
                    .expect("skeptic mode implies a constraint"),
            )),
        }
    }

    /// The current snapshot under the Skeptic paradigm, per user. In
    /// skeptic mode this is the incrementally patched cache; on positive
    /// networks it is synthesized from the basic snapshot (the paradigms
    /// coincide there, Section 3.3) and rebuilt lazily after edits.
    pub fn skeptic_snapshot(&mut self) -> Result<&SkepticUserResolution> {
        self.refresh()?;
        if self.sk_snapshot.is_none() {
            let snap = self
                .snapshot
                .as_ref()
                .expect("refresh always fills one of the snapshots");
            let rep = (0..snap.user_count() as u32)
                .map(|u| positive_rep(snap.poss(User(u))))
                .collect();
            self.sk_snapshot = Some(SkepticUserResolution { rep });
        }
        Ok(self.sk_snapshot.as_ref().expect("filled above"))
    }

    /// The certain beliefs of one user under the Skeptic paradigm
    /// (Figure 18 decode) — works on positive and signed networks alike.
    pub fn skeptic_cert(&mut self, user: User) -> Result<BeliefSet> {
        let snap = self.skeptic_snapshot()?;
        Ok(if user.index() < snap.user_count() {
            snap.cert(user)
        } else {
            BeliefSet::empty()
        })
    }

    // ------------------------------------------------------------------
    // The unified query API: one rule routes every read.
    // ------------------------------------------------------------------

    /// Executes `query` on the route the rule picks: an `EXACT` read
    /// reads the maintained exact engine, any other read patches the live
    /// engine when one exists ([`Route::IncrementalPatch`]) and solves
    /// the whole network when none does ([`Route::WholeSolve`]). Both
    /// routes return bit-identical rows (`tests/incremental_oracle.rs`,
    /// `tests/skeptic_oracle.rs`), so the route never changes an answer.
    ///
    /// Inside an open batch the engine is always live ([`Session::begin_batch`]
    /// builds it), so reads stay isolated at the pre-batch snapshot.
    /// `EXPLAIN` queries ([`Query::explain`]) execute nothing and return
    /// empty rows; [`Session::explain`] renders their route. The query's
    /// LSN pin is a serve-protocol concern and is ignored here — an
    /// in-process session is always current.
    pub fn query(&mut self, query: &Query) -> Result<QueryResult> {
        let route = self.route(query);
        if query.explain {
            return Ok(QueryResult {
                rows: Vec::new(),
                route,
            });
        }
        let users = self.target_users(&query.target)?;
        let rows = match (query.exact, route) {
            (true, _) => self.rows_exact(&users)?,
            (false, Route::IncrementalPatch) => self.rows_incremental(&users)?,
            (false, Route::WholeSolve) => self.rows_whole(&users)?,
        };
        Ok(QueryResult { rows, route })
    }

    /// Names the route `query` would take and what it does, on one line
    /// (`plan: <route> (<what it does>)`), without executing anything —
    /// no solver work.
    pub fn explain(&self, query: &Query) -> String {
        let route = self.route(query);
        let what = match (query.exact, route) {
            (true, _) => "read the maintained exact engine",
            (false, Route::IncrementalPatch) => "drain pending region, read patched snapshot",
            (false, Route::WholeSolve) if self.net.has_constraints() => {
                "binarize + one-pass Algorithm 2"
            }
            (false, Route::WholeSolve) => "binarize + one-pass Algorithm 1",
        };
        format!("plan: {route} ({what})")
    }

    /// The rule: exact beliefs are maintained incrementally, so an
    /// `EXACT` read and any read with a live engine patch it; otherwise
    /// there is nothing to patch and the whole network is solved.
    fn route(&self, query: &Query) -> Route {
        if query.exact || self.engine.is_some() {
            Route::IncrementalPatch
        } else {
            Route::WholeSolve
        }
    }

    /// Resolves a query target to concrete user handles, in user order
    /// for `*`.
    fn target_users(&self, target: &QueryTarget) -> Result<Vec<User>> {
        Ok(match target {
            QueryTarget::Named(name) => vec![self
                .net
                .find_user(name)
                .ok_or_else(|| Error::Plan(format!("unknown user {name}")))?],
            QueryTarget::Handle(u) => vec![*u],
            QueryTarget::All => (0..self.net.user_count() as u32).map(User).collect(),
        })
    }

    /// [`Route::IncrementalPatch`]: drain pending edits and read the
    /// patched snapshot.
    fn rows_incremental(&mut self, users: &[User]) -> Result<Vec<QueryRow>> {
        self.refresh()?;
        // Users created mid-batch lie past the snapshot: undefined until
        // commit.
        if let Some(snap) = self.snapshot.as_ref() {
            return Ok(users
                .iter()
                .map(|&u| {
                    if u.index() < snap.user_count() {
                        basic_row(u, snap.cert(u), snap.poss(u))
                    } else {
                        undefined_row(u)
                    }
                })
                .collect());
        }
        let snap = self
            .sk_snapshot
            .as_ref()
            .expect("refresh always fills one of the snapshots");
        Ok(users
            .iter()
            .map(|&u| {
                if u.index() < snap.user_count() {
                    skeptic_row(u, snap.rep_poss(u))
                } else {
                    undefined_row(u)
                }
            })
            .collect())
    }

    /// [`Route::WholeSolve`]: binarize and run the one-pass
    /// condensation solver of whichever pipeline the network's sign
    /// demands, on one thread.
    fn rows_whole(&mut self, users: &[User]) -> Result<Vec<QueryRow>> {
        let btn = crate::binary::binarize(&self.net);
        let node = |u: User| (u.index() < btn.user_count).then(|| btn.node_of(u));
        Ok(if self.net.has_constraints() {
            let res = crate::skeptic::resolve_skeptic_parallel(&btn, 1)?;
            users
                .iter()
                .map(|&u| match node(u) {
                    Some(x) => skeptic_row(u, res.rep_poss(x)),
                    None => undefined_row(u),
                })
                .collect()
        } else {
            let res = crate::parallel::resolve_parallel(&btn, 1)?;
            users
                .iter()
                .map(|&u| match node(u) {
                    Some(x) => basic_row(u, res.cert(x), res.poss(x)),
                    None => undefined_row(u),
                })
                .collect()
        })
    }

    /// The exact read path behind `EXACT` queries: the maintained exact
    /// engine.
    fn rows_exact(&mut self, users: &[User]) -> Result<Vec<QueryRow>> {
        self.refresh()?;
        match &self.exact {
            ExactSlot::Off => Err(Error::ExactModeDisabled),
            ExactSlot::Pending => unreachable!("refresh syncs the exact slot"),
            ExactSlot::Failed(log2) => Err(Error::EnumerationTooLarge {
                log2_candidates: *log2,
            }),
            ExactSlot::Live(exact, _) => {
                let btn = self
                    .engine
                    .as_ref()
                    .expect("refresh built the engine")
                    .btn();
                Ok(users
                    .iter()
                    .map(|&u| {
                        if u.index() >= btn.user_count {
                            return undefined_row(u);
                        }
                        let node = btn.node_of(u);
                        QueryRow {
                            user: u,
                            cert: exact.cert(node),
                            poss: exact.poss(node),
                        }
                    })
                    .collect())
            }
        }
    }

    /// The live binarized form backing the snapshot.
    ///
    /// Structurally equivalent to [`crate::binary::binarize`] of the
    /// current network but laid out for in-place patching (recycled
    /// synthetic nodes, late users appended) — always address users through
    /// [`crate::binary::Btn::node_of`].
    pub fn btn(&mut self) -> Result<&crate::binary::Btn> {
        self.refresh()?;
        Ok(self
            .engine
            .as_ref()
            .expect("refresh built the engine")
            .btn())
    }

    /// Applies one typed edit and reports every user whose *certain*
    /// belief changed — the "what changed after this update" question a
    /// community UI asks after each edit. Runs on the incremental path.
    pub fn apply_edit(&mut self, edit: Edit) -> Result<Vec<BeliefChange>> {
        self.apply_signed_edit(SignedEdit::from(edit))
    }

    /// Applies one typed *signed* edit (the [`Edit`] vocabulary plus
    /// constraint assertion) and reports every user whose certain positive
    /// value changed. Edits that keep the network on its current pipeline
    /// run incrementally; an edit that crosses the sign boundary (first
    /// constraint in, last constraint out) costs one engine rebuild and
    /// diffs the snapshots around it.
    pub fn apply_signed_edit(&mut self, edit: SignedEdit) -> Result<Vec<BeliefChange>> {
        // Sync first so the report reflects exactly this edit (inside a
        // batch this only grows the engine; queued edits stay queued).
        self.refresh()?;
        match &edit {
            SignedEdit::Believe(u, v) => self.net.believe(*u, *v)?,
            SignedEdit::Revoke(u) => self.net.revoke(*u)?,
            SignedEdit::Trust {
                child,
                parent,
                priority,
            } => self.net.trust(*child, *parent, *priority)?,
            SignedEdit::Reject(u, neg) => self.net.reject(*u, neg.clone())?,
        }
        // The edit is applied to the in-memory state regardless of the
        // durability outcome; a failing sink reports "applied but not
        // durable" *after* engines and snapshot are consistent again.
        let durable = self.log_edit(&edit);
        if self.batching {
            // Deferred: the combined change report arrives at commit().
            self.enqueue(edit);
            durable?;
            return Ok(Vec::new());
        }
        let crosses =
            self.net.has_constraints() != matches!(self.engine, Some(LiveEngine::Skeptic(_)));
        let changes = if crosses {
            let before = self.cert_positive_vec();
            self.invalidate();
            self.refresh()?;
            self.diff_certs(&before)
        } else {
            self.drain(std::slice::from_ref(&edit))?
        };
        durable?;
        Ok(changes)
    }

    /// Applies an arbitrary `edit` closure and reports every user whose
    /// *certain* belief changed. The closure is opaque, so this takes the
    /// full-recompute path ("simply re-run the algorithm"); prefer
    /// [`Session::apply_edit`] or the typed methods on the hot path.
    pub fn apply(
        &mut self,
        edit: impl FnOnce(&mut TrustNetwork) -> Result<()>,
    ) -> Result<Vec<BeliefChange>> {
        self.refresh()?;
        let before = self.cert_positive_vec();
        // Invalidate before running the closure: if it errors after partial
        // mutation, the stale engine must not survive.
        self.invalidate();
        let outcome = edit(&mut self.net);
        // The closure is opaque, so durability captures the whole post-edit
        // network — even on error, since a failing closure may have
        // partially mutated it and the log must stay faithful. Inside an
        // open batch the rewrite only buffers (superseding the batch's
        // earlier records at replay) and the unit seals at
        // [`Session::commit`], keeping the batch atomic on disk.
        let durable = match self.durability.as_mut() {
            Some(hook) => {
                hook.record_rewrite(&self.net);
                if self.batching {
                    Ok(0)
                } else {
                    hook.commit()
                }
            }
            None => Ok(0),
        };
        // The closure's own error is the actionable one; a durability
        // failure surfaces only when the edit itself succeeded.
        outcome?;
        durable?;
        self.refresh()?;
        Ok(self.diff_certs(&before))
    }

    /// The certain positive value of every user, from whichever snapshot
    /// the live engine maintains.
    fn cert_positive_vec(&self) -> Vec<Option<Value>> {
        match &self.engine {
            Some(LiveEngine::Basic(_)) => {
                let snap = self
                    .snapshot
                    .as_ref()
                    .expect("basic engine keeps a snapshot");
                (0..snap.user_count() as u32)
                    .map(|u| snap.cert(User(u)))
                    .collect()
            }
            Some(LiveEngine::Skeptic(e)) => (0..e.user_count() as u32)
                .map(|u| e.rep_poss(e.btn().node_of(User(u))).cert_positive())
                .collect(),
            None => Vec::new(),
        }
    }

    /// Diffs the current certain positives against `before`, reporting
    /// changed users (users created since `before` report when defined).
    fn diff_certs(&self, before: &[Option<Value>]) -> Vec<BeliefChange> {
        let after = self.cert_positive_vec();
        let mut changes = Vec::new();
        for (i, a) in after.iter().enumerate() {
            let b = before.get(i).copied().flatten();
            if b != *a {
                changes.push(BeliefChange {
                    user: User(i as u32),
                    before: b,
                    after: *a,
                });
            }
        }
        changes
    }

    /// Publishes (and returns) the epoch snapshot of the current committed
    /// state: an immutable [`EpochView`] readers clone lock-free through
    /// the session's [`EpochSlot`] — the MVCC read path of a serving
    /// deployment (see [`crate::epoch`]).
    ///
    /// When no edits intervened since the last publication the published
    /// handle is returned as-is (pointer-equal) and nothing is rendered.
    /// Rendering a view clones the session's copy-on-write snapshot
    /// tables ([`crate::cow`]) — a pointer per 256 users, no row — so the
    /// cost of publishing an edit is the chunks its dirty users live in
    /// ([`DeltaStats::publish_rows_copied`]), whatever the network's
    /// size. The view's LSN is the durability sink's last
    /// committed LSN (0 without a sink), so acknowledged writes can be
    /// located in epochs via [`EpochSlot::wait_for_lsn`].
    pub fn epoch(&mut self) -> Result<Arc<EpochView>> {
        let lsn = self
            .durability
            .as_ref()
            .map(|d| d.last_committed_lsn())
            .unwrap_or(0);
        self.epoch_at(lsn)
    }

    /// [`Session::epoch`] with an explicit LSN stamp, for sessions whose
    /// durable position is tracked outside a durability sink — a
    /// replication follower replays shipped log units and stamps each
    /// published view with the watermark it has durably applied, so
    /// `CERT/POSS @<lsn>` reads against the follower get read-your-writes
    /// semantics through [`EpochSlot::wait_for_lsn`].
    ///
    /// The cached publication is reused only when its LSN already matches
    /// `lsn`; publishing the same state under a new watermark re-renders
    /// (and re-publishes) so waiters keyed on the new LSN wake up.
    pub fn epoch_at(&mut self, lsn: u64) -> Result<Arc<EpochView>> {
        self.refresh()?;
        if let Some(view) = &self.published {
            if view.lsn() == lsn {
                return Ok(Arc::clone(view));
            }
        }
        let names = EpochNames::of(&self.net);
        // Exact mode publishes its user-indexed table alongside the
        // approximate snapshot, so `CERT … EXACT` reads serve from the
        // same immutable view (leader and replica alike).
        let exact = match &self.exact {
            ExactSlot::Live(_, table) => Some(table.clone()),
            _ => None,
        };
        let state = match self.engine.as_ref() {
            Some(LiveEngine::Skeptic(_)) => {
                EpochState::Skeptic(self.sk_snapshot.clone().expect("skeptic keeps a snapshot"))
            }
            _ => EpochState::Basic(self.snapshot.clone().expect("basic keeps a snapshot")),
        };
        let epoch = self.epochs.epoch() + 1;
        let view = Arc::new(EpochView::new(epoch, lsn, state, names, exact));
        self.stats.epochs_rendered += 1;
        self.epochs.publish(Arc::clone(&view));
        self.published = Some(Arc::clone(&view));
        Ok(view)
    }

    /// The session's epoch publication slot. Hand clones of this to
    /// reader threads (or build [`crate::epoch::EpochReader`]s from it);
    /// they read the latest published epoch without ever blocking on the
    /// session.
    pub fn epoch_slot(&self) -> Arc<EpochSlot> {
        Arc::clone(&self.epochs)
    }

    /// Replaces this session's publication slot with `slot`, so readers
    /// holding clones of an *earlier* session's slot keep receiving
    /// epochs after the session is rebuilt wholesale (a replication
    /// follower re-anchoring on a bootstrap snapshot). The previous
    /// session must already be retired — an epoch slot tolerates exactly
    /// one publisher — and published epochs must keep advancing (the next
    /// publication continues the slot's epoch counter).
    pub fn adopt_epoch_slot(&mut self, slot: Arc<EpochSlot>) {
        self.epochs = slot;
        self.published = None;
    }

    /// Evaluates `edit` on a copy of the network and returns the resulting
    /// snapshot without committing anything.
    pub fn what_if(
        &self,
        edit: impl FnOnce(&mut TrustNetwork) -> Result<()>,
    ) -> Result<UserResolution> {
        let mut copy = self.net.clone();
        edit(&mut copy)?;
        crate::parallel::resolve_network_parallel(&copy, 1)
    }

    /// Queues a typed edit for the incremental path. Without a live engine
    /// there is nothing to patch — the next snapshot resolves fully anyway.
    fn enqueue(&mut self, edit: SignedEdit) {
        if self.engine.is_some() {
            self.pending.push(edit);
        }
    }

    /// Drops all incremental state; the next snapshot resolves fully.
    fn invalidate(&mut self) {
        self.engine = None;
        self.snapshot = None;
        self.sk_snapshot = None;
        self.pending.clear();
        self.published = None;
        // Exact state is derived from the engine's BTN; a rebuild (which
        // may re-layout nodes) demotes it to Pending — including Failed
        // slots, since the rebuilt network may enumerate fine.
        if !matches!(self.exact, ExactSlot::Off) {
            self.exact = ExactSlot::Pending;
        }
    }

    /// Brings engine and snapshot in sync with the network. Inside an
    /// explicit batch, queued edits stay queued (reads are isolated at the
    /// pre-batch state); only engine growth for new users/values happens.
    fn refresh(&mut self) -> Result<()> {
        // The engine must match the network's sign state; crossing the
        // boundary rebuilds on the other pipeline (the queued edits are
        // subsumed by the from-scratch build). Inside an open batch the
        // check is deferred to commit — mid-batch reads stay isolated at
        // the pre-batch state on the pre-batch engine.
        let want_skeptic = self.net.has_constraints();
        if !self.batching
            && matches!(
                (&self.engine, want_skeptic),
                (Some(LiveEngine::Basic(_)), true) | (Some(LiveEngine::Skeptic(_)), false)
            )
        {
            self.invalidate();
        }
        match self.engine.as_ref() {
            None => {
                self.pending.clear();
                if want_skeptic {
                    let engine = SkepticIncremental::new(&self.net)?;
                    self.sk_snapshot = Some(engine.user_resolution());
                    self.snapshot = None;
                    self.engine = Some(LiveEngine::Skeptic(engine));
                } else {
                    let engine = IncrementalResolver::new(&self.net)?;
                    self.snapshot = Some(engine.user_resolution());
                    self.sk_snapshot = None;
                    self.engine = Some(LiveEngine::Basic(engine));
                }
                self.stats.full_rebuilds += 1;
            }
            Some(_) => {
                // Users or values created through `user()`/`value()` arrive
                // without a pending edit; an empty drain grows the engine
                // and the snapshot to cover them.
                let grown = self.engine_grown();
                if self.batching {
                    if grown {
                        self.drain(&[])?;
                    }
                } else if !self.pending.is_empty() || grown {
                    let edits = std::mem::take(&mut self.pending);
                    self.drain(&edits)?;
                }
            }
        }
        self.sync_exact();
        Ok(())
    }

    /// Builds a Pending exact engine against the (now synced) live engine.
    /// An oversized network lands in `Failed` — recorded, not raised, so
    /// `repPoss` reads keep working and only exact reads error.
    fn sync_exact(&mut self) {
        if !matches!(self.exact, ExactSlot::Pending) {
            return;
        }
        let Some(engine) = self.engine.as_ref() else {
            return;
        };
        self.exact = match ExactEngine::new(engine.btn()) {
            Ok(exact) => {
                let table = ExactUserResolution::snapshot(&exact, engine.btn());
                ExactSlot::Live(Box::new(exact), table)
            }
            Err(Error::EnumerationTooLarge { log2_candidates }) => {
                ExactSlot::Failed(log2_candidates)
            }
            Err(_) => ExactSlot::Failed(0),
        };
    }

    /// Routes `edits` through the live engine and patches the cached
    /// snapshot — the single implementation behind
    /// [`Session::apply_edit`] and the queued-edit path of
    /// [`Session::refresh`].
    ///
    /// Callers must have established the engine (via `refresh`) first. On
    /// an engine error (e.g. a trust edit introduced tied priorities in
    /// skeptic mode) the stale engine is dropped and the next snapshot
    /// rebuilds from scratch.
    fn drain(&mut self, edits: &[SignedEdit]) -> Result<Vec<BeliefChange>> {
        // The state is about to change (edits, or engine growth for new
        // users/values): the next `epoch()` must render a fresh view.
        self.published = None;
        let result = match self.engine.as_mut().expect("drain requires an engine") {
            LiveEngine::Basic(engine) => {
                let converted: Vec<Edit> = edits
                    .iter()
                    .map(|edit| match edit {
                        SignedEdit::Believe(u, v) => Edit::Believe(*u, *v),
                        SignedEdit::Revoke(u) => Edit::Revoke(*u),
                        SignedEdit::Trust {
                            child,
                            parent,
                            priority,
                        } => Edit::Trust {
                            child: *child,
                            parent: *parent,
                            priority: *priority,
                        },
                        // A queued Reject while the session is (still) in
                        // basic mode is always superseded by a later edit
                        // at the same user — otherwise the network would
                        // carry the constraint and refresh would have
                        // rebuilt on the skeptic pipeline — so clearing
                        // the belief is equivalent here.
                        SignedEdit::Reject(u, _) => Edit::Revoke(*u),
                    })
                    .collect();
                let changes = engine.apply_edits(&self.net, &converted);
                self.stats.last_dirty_nodes = engine.last_dirty_len();
                self.stats.last_dirty_users = engine.last_dirty_users().len();
                let snap = self.snapshot.as_mut().expect("snapshot exists with engine");
                self.stats.count_copies(engine.patch_user_resolution(snap));
                // Keep any synthesized skeptic view fresh region-locally
                // too (positive networks: rep = possible positives), so a
                // reader interleaving edits with `skeptic_cert` never pays
                // an O(users) resynthesis per edit.
                if let Some(sk) = self.sk_snapshot.as_mut() {
                    sk.rep.grow(snap.user_count(), RepPoss::default());
                    for &u in engine.last_dirty_users() {
                        sk.rep.set(u.index(), positive_rep(snap.poss(u)));
                    }
                    self.stats.count_copies(sk.rep.take_copies());
                }
                Ok(changes)
            }
            LiveEngine::Skeptic(engine) => match engine.apply_edits(&self.net, edits) {
                Ok(changes) => {
                    self.stats.last_dirty_nodes = engine.last_dirty_len();
                    self.stats.last_dirty_users = engine.last_dirty_users().len();
                    if let Some(snap) = self.sk_snapshot.as_mut() {
                        self.stats.count_copies(engine.patch_user_resolution(snap));
                    }
                    Ok(changes)
                }
                Err(err) => Err(err),
            },
        };
        match result {
            Ok(changes) => {
                self.stats.incremental_edits += edits.len() as u64;
                self.stats.dirty_nodes += self.stats.last_dirty_nodes as u64;
                self.patch_exact();
                Ok(changes)
            }
            Err(err) => {
                self.invalidate();
                Err(err)
            }
        }
    }

    /// Re-solves the exact engine over the dirty region the live engine
    /// just patched. An enumeration overflow demotes the slot to `Failed`
    /// without disturbing the main (approximate) pipeline.
    fn patch_exact(&mut self) {
        let Session {
            engine,
            exact,
            stats,
            ..
        } = self;
        let ExactSlot::Live(ex, table) = exact else {
            return;
        };
        let engine = engine.as_ref().expect("drain requires an engine");
        let btn = engine.btn();
        ex.grow(btn.node_count());
        match ex.update(btn, engine.last_dirty_nodes()) {
            Ok(()) => stats.count_copies(table.patch(ex, btn)),
            Err(err) => {
                let log2 = match err {
                    Error::EnumerationTooLarge { log2_candidates } => log2_candidates,
                    _ => 0,
                };
                self.exact = ExactSlot::Failed(log2);
            }
        }
    }
}

/// The skeptic representation of a positive network's possible set (the
/// paradigms coincide there, Section 3.3).
fn positive_rep(poss: &[Value]) -> RepPoss {
    RepPoss {
        pos: poss.iter().copied().collect(),
        neg: NegSet::empty(),
        bottom: false,
    }
}

/// The row of a user no engine or solve covers yet (created mid-batch).
fn undefined_row(user: User) -> QueryRow {
    QueryRow {
        user,
        cert: None,
        poss: Vec::new(),
    }
}

/// A basic-model row: the certain value beside the sorted possible set.
fn basic_row(user: User, cert: Option<Value>, poss: &[Value]) -> QueryRow {
    QueryRow {
        user,
        cert,
        poss: poss.to_vec(),
    }
}

/// A Skeptic row: the Figure 18 certain positive beside the possible
/// positives of the representation.
fn skeptic_row(user: User, rep: &RepPoss) -> QueryRow {
    QueryRow {
        user,
        cert: rep.cert_positive(),
        poss: rep.pos.iter().copied().collect(),
    }
}

impl From<TrustNetwork> for Session {
    fn from(net: TrustNetwork) -> Self {
        Session::new(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::indus_network;

    fn session() -> (Session, [User; 3], Value, Value) {
        let (mut net, users) = indus_network();
        let jar = net.value("jar");
        let cow = net.value("cow");
        (Session::new(net), users, jar, cow)
    }

    #[test]
    fn snapshot_caches_until_edit() {
        let (mut s, [_, _, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        let first = s.snapshot().unwrap().clone();
        // No edit: snapshot is stable (and cheap — same cache).
        assert_eq!(*s.snapshot().unwrap(), first);
        assert_eq!(s.stats().full_rebuilds, 1);
    }

    #[test]
    fn apply_reports_exactly_the_changed_users() {
        let (mut s, [alice, bob, charlie], jar, cow) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();
        // Bob asserts cow: Alice and Bob flip to cow, Charlie unchanged.
        let changes = s.apply(|net| net.believe(bob, cow)).unwrap();
        let changed: Vec<User> = changes.iter().map(|c| c.user).collect();
        assert!(changed.contains(&alice));
        assert!(changed.contains(&bob));
        assert!(!changed.contains(&charlie));
        for c in &changes {
            assert_eq!(c.after, Some(cow));
        }
    }

    #[test]
    fn apply_edit_reports_like_apply_but_incrementally() {
        let (mut s, [alice, bob, charlie], jar, cow) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();
        let full_rebuilds = s.stats().full_rebuilds;
        let changes = s.apply_edit(Edit::Believe(bob, cow)).unwrap();
        let changed: Vec<User> = changes.iter().map(|c| c.user).collect();
        assert!(changed.contains(&alice));
        assert!(changed.contains(&bob));
        assert!(!changed.contains(&charlie));
        assert_eq!(s.stats().full_rebuilds, full_rebuilds, "no full rebuild");
        assert!(s.stats().incremental_edits >= 1);
        assert!(s.stats().last_dirty_nodes > 0);
    }

    #[test]
    fn revocation_rolls_back_dependents() {
        let (mut s, [alice, bob, charlie], jar, cow) = session();
        s.believe(charlie, jar).unwrap();
        s.believe(bob, cow).unwrap();
        assert_eq!(s.snapshot().unwrap().cert(alice), Some(cow));
        let changes = s.apply(|net| net.revoke(bob)).unwrap();
        assert_eq!(s.snapshot().unwrap().cert(alice), Some(jar));
        assert!(changes
            .iter()
            .any(|c| c.user == alice && c.before == Some(cow) && c.after == Some(jar)));
    }

    #[test]
    fn typed_edits_match_full_resolution() {
        let (mut s, [alice, bob, charlie], jar, cow) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();
        // Incremental path.
        s.believe(bob, cow).unwrap();
        assert_eq!(s.snapshot().unwrap().cert(alice), Some(cow));
        s.revoke(bob).unwrap();
        assert_eq!(s.snapshot().unwrap().cert(alice), Some(jar));
        assert_eq!(s.stats().full_rebuilds, 1, "edits stayed incremental");
        // Cross-check against a from-scratch resolution.
        let full = crate::resolution::resolve_network(s.network()).unwrap();
        for u in [alice, bob, charlie] {
            assert_eq!(s.snapshot().unwrap().poss(u), full.poss(u));
        }
    }

    #[test]
    fn what_if_does_not_commit() {
        let (mut s, [alice, bob, charlie], jar, cow) = session();
        s.believe(charlie, jar).unwrap();
        let hypothetical = s.what_if(|net| net.believe(bob, cow)).unwrap();
        assert_eq!(hypothetical.cert(alice), Some(cow));
        // The session itself is untouched.
        assert_eq!(s.snapshot().unwrap().cert(alice), Some(jar));
    }

    #[test]
    fn new_users_in_edit_are_reported() {
        let (mut s, [_, bob, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();
        let changes = s
            .apply(|net| {
                let dave = net.user("Dave");
                net.trust(dave, bob, 10)
            })
            .unwrap();
        // Dave resolves to jar (via Bob ← Alice ← Charlie).
        assert!(changes
            .iter()
            .any(|c| c.before.is_none() && c.after == Some(jar)));
    }

    #[test]
    fn user_creation_without_edits_grows_the_snapshot() {
        // Regression: reading a freshly created user's entry between edits
        // must not index past the cached snapshot's length.
        let (mut s, [_, _, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();
        let dave = s.user("Dave");
        assert_eq!(s.snapshot().unwrap().cert(dave), None);
        assert!(s.snapshot().unwrap().poss(dave).is_empty());
        // Values interned after the engine was built must be addressable
        // through the live BTN's domain too.
        let late = s.value("late-value");
        assert_eq!(s.btn().unwrap().domain().name(late), "late-value");
    }

    #[test]
    fn batch_commit_reports_net_changes_once() {
        let (mut s, [alice, bob, charlie], jar, cow) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();

        s.begin_batch().unwrap();
        s.believe(bob, cow).unwrap();
        s.believe(bob, jar).unwrap(); // overwritten within the same batch
        s.revoke(charlie).unwrap();
        assert!(s.in_batch());
        // Mid-batch reads see the pre-batch state.
        assert_eq!(s.snapshot().unwrap().cert(alice), Some(jar));

        let report = s.commit().unwrap();
        assert!(!s.in_batch());
        assert!(!report.full_rebuild);
        assert_eq!(report.edits, 3);
        assert!(report.dirty_nodes > 0);
        // Net effect: bob asserts jar, charlie revoked — alice still jar,
        // charlie loses their certain value.
        assert!(report
            .changes
            .iter()
            .any(|c| c.user == charlie && c.after.is_none()));
        assert!(!report.changes.iter().any(|c| c.user == alice));
        assert_eq!(s.snapshot().unwrap().cert(alice), Some(jar));
        assert_eq!(s.stats().batch_commits, 1);
        assert_eq!(s.stats().full_rebuilds, 1, "batch stayed incremental");

        // Matches a from-scratch resolution.
        let full = crate::resolution::resolve_network(s.network()).unwrap();
        for u in [alice, bob, charlie] {
            assert_eq!(s.snapshot().unwrap().poss(u), full.poss(u));
        }
    }

    #[test]
    fn batch_with_new_users_and_apply_edit() {
        let (mut s, [_, bob, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();

        s.begin_batch().unwrap();
        let dave = s.user("Dave");
        // apply_edit defers inside a batch and reports nothing yet.
        let immediate = s
            .apply_edit(Edit::Trust {
                child: dave,
                parent: bob,
                priority: 10,
            })
            .unwrap();
        assert!(immediate.is_empty());
        // Mid-batch, the new user reads as undefined.
        assert_eq!(s.snapshot().unwrap().cert(dave), None);
        let report = s.commit().unwrap();
        assert!(report
            .changes
            .iter()
            .any(|c| c.user == dave && c.after == Some(jar)));
        assert_eq!(s.snapshot().unwrap().cert(dave), Some(jar));
    }

    #[test]
    fn begin_batch_is_reentrant() {
        let (mut s, [_, bob, charlie], jar, cow) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();
        s.begin_batch().unwrap();
        s.believe(bob, cow).unwrap();
        // A second begin_batch mid-batch is a no-op: the edit above stays
        // queued and the eventual report covers everything since the
        // first begin_batch.
        s.begin_batch().unwrap();
        assert!(s.in_batch());
        s.believe(bob, jar).unwrap();
        let report = s.commit().unwrap();
        assert_eq!(report.edits, 2);
    }

    #[test]
    fn commit_without_batch_or_engine() {
        let (mut s, [_, _, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        // No engine yet: commit performs the initial full build.
        let report = s.commit().unwrap();
        assert!(report.full_rebuild);
        assert!(report.changes.is_empty());
        // A later commit with nothing pending is a no-op report.
        let report = s.commit().unwrap();
        assert!(!report.full_rebuild);
        assert_eq!(report.edits, 0);
    }

    #[test]
    fn empty_batch_commit_is_a_noop() {
        let (mut s, [_, _, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();
        let before = s.stats();
        s.begin_batch().unwrap();
        let report = s.commit().unwrap();
        assert!(!report.full_rebuild);
        assert_eq!(report.edits, 0);
        assert!(report.changes.is_empty());
        assert_eq!(report.dirty_nodes, 0);
        // Regression: the empty commit must skip the engines' planning
        // path entirely — no batch accounting, no stale dirty-region
        // carry-over.
        assert_eq!(s.stats().batch_commits, before.batch_commits);
        assert_eq!(s.stats().dirty_nodes, before.dirty_nodes);
        // But a batch that only created users still grows the engine.
        s.begin_batch().unwrap();
        let dave = s.user("Dave");
        s.commit().unwrap();
        assert_eq!(s.snapshot().unwrap().cert(dave), None);
    }

    #[test]
    fn session_stays_equal_to_full_across_edits() {
        let (mut s, [alice, bob, charlie], jar, cow) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();
        s.believe(bob, cow).unwrap();
        assert_eq!(s.snapshot().unwrap().cert(alice), Some(cow));
        let full = crate::resolution::resolve_network(s.network()).unwrap();
        assert_eq!(*s.snapshot().unwrap(), full);
        assert_eq!(s.stats().full_rebuilds, 1, "the edit was a delta");
    }

    #[test]
    fn reject_routes_through_the_skeptic_engine() {
        let (mut s, [alice, bob, charlie], jar, cow) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();
        assert!(!s.is_skeptic());

        // First constraint: one rebuild onto the skeptic pipeline.
        s.reject(bob, NegSet::of([jar])).unwrap();
        assert!(s.is_skeptic());
        assert!(matches!(
            s.snapshot(),
            Err(Error::NegativeBeliefsUnsupported(_))
        ));
        let cert = s.skeptic_cert(alice).unwrap();
        assert!(cert.pos.is_none() && cert.neg.is_all(), "alice is ⊥");
        assert_eq!(s.stats().full_rebuilds, 2, "one rebuild at the boundary");

        // Further constraint edits stay incremental.
        s.reject(bob, NegSet::of([cow])).unwrap();
        assert_eq!(s.skeptic_cert(alice).unwrap().pos, Some(jar));
        assert_eq!(s.stats().full_rebuilds, 2, "constraint flip was a delta");
        assert!(s.stats().incremental_edits >= 1);

        // Matches a from-scratch Algorithm 2 run.
        let btn = crate::binary::binarize(s.network());
        let reference = crate::skeptic::resolve_skeptic(&btn).unwrap();
        let snap = s.skeptic_snapshot().unwrap();
        for u in [alice, bob, charlie] {
            assert_eq!(snap.rep_poss(u), reference.rep_poss(btn.node_of(u)));
        }
    }

    #[test]
    fn revoking_the_last_constraint_returns_to_basic() {
        let (mut s, [alice, bob, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        s.reject(bob, NegSet::of([jar])).unwrap();
        s.skeptic_snapshot().unwrap();
        assert!(s.is_skeptic());

        let changes = s.apply_signed_edit(SignedEdit::Revoke(bob)).unwrap();
        assert!(!s.is_skeptic());
        assert_eq!(s.snapshot().unwrap().cert(alice), Some(jar));
        assert!(changes
            .iter()
            .any(|c| c.user == alice && c.after == Some(jar)));
    }

    #[test]
    fn signed_batch_commits_as_one_region() {
        let (mut s, [alice, bob, charlie], jar, cow) = session();
        s.believe(charlie, jar).unwrap();
        s.reject(bob, NegSet::of([cow])).unwrap();
        s.skeptic_snapshot().unwrap();
        let rebuilds = s.stats().full_rebuilds;

        s.begin_batch().unwrap();
        s.believe(charlie, cow).unwrap(); // blocked at bob's guard
        s.reject(bob, NegSet::of([jar])).unwrap();
        let report = s.commit().unwrap();
        assert!(!report.full_rebuild);
        assert_eq!(report.edits, 2);
        assert!(report.dirty_nodes > 0);
        assert_eq!(s.stats().full_rebuilds, rebuilds, "batch stayed on delta");
        assert_eq!(s.skeptic_cert(alice).unwrap().pos, Some(cow));

        let btn = crate::binary::binarize(s.network());
        let reference = crate::skeptic::resolve_skeptic(&btn).unwrap();
        let snap = s.skeptic_snapshot().unwrap();
        for u in [alice, bob, charlie] {
            assert_eq!(snap.rep_poss(u), reference.rep_poss(btn.node_of(u)));
        }
    }

    #[test]
    fn batch_crossing_the_sign_boundary_rebuilds_at_commit() {
        let (mut s, [alice, bob, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();

        s.begin_batch().unwrap();
        s.reject(bob, NegSet::of([jar])).unwrap();
        // Mid-batch reads stay isolated on the pre-batch (basic) engine.
        assert_eq!(s.snapshot().unwrap().cert(alice), Some(jar));
        let report = s.commit().unwrap();
        assert!(report.full_rebuild, "boundary crossing rebuilds");
        assert_eq!(report.edits, 1);
        assert!(report
            .changes
            .iter()
            .any(|c| c.user == alice && c.before == Some(jar) && c.after.is_none()));
        assert!(s.skeptic_cert(alice).unwrap().is_bottom());
    }

    #[test]
    fn skeptic_snapshot_on_positive_network_collapses_to_basic() {
        let (mut s, [alice, _, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        let cert = s.skeptic_cert(alice).unwrap();
        assert_eq!(cert.pos, Some(jar));
        let snap = s.skeptic_snapshot().unwrap();
        assert_eq!(
            snap.rep_poss(alice).pos.iter().copied().collect::<Vec<_>>(),
            s.snapshot().unwrap().poss(alice)
        );
    }

    #[test]
    fn synthesized_skeptic_view_stays_fresh_across_edits() {
        // Interleave basic-mode edits with skeptic reads: the view must
        // track the edits without falling back to full resynthesis.
        let (mut s, [alice, bob, charlie], jar, cow) = session();
        s.believe(charlie, jar).unwrap();
        assert_eq!(s.skeptic_cert(alice).unwrap().pos, Some(jar));
        s.believe(bob, cow).unwrap();
        assert_eq!(s.skeptic_cert(alice).unwrap().pos, Some(cow));
        s.revoke(bob).unwrap();
        assert_eq!(s.skeptic_cert(alice).unwrap().pos, Some(jar));
        // A user created between edits reads as empty, not out-of-bounds.
        let dave = s.user("Dave");
        s.believe(charlie, cow).unwrap();
        assert!(s.skeptic_cert(dave).unwrap().is_empty());
        assert_eq!(s.skeptic_cert(alice).unwrap().pos, Some(cow));
        assert_eq!(s.stats().full_rebuilds, 1, "all reads stayed on deltas");
    }

    #[test]
    fn tie_in_skeptic_mode_surfaces_and_recovers() {
        let (mut s, [alice, bob, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        s.reject(bob, NegSet::of([jar])).unwrap();
        s.skeptic_snapshot().unwrap();

        // Alice already trusts Bob at 100; an equal-priority rival ties.
        let rival = s.user("rival");
        let err = s.apply_signed_edit(SignedEdit::Trust {
            child: alice,
            parent: rival,
            priority: 100,
        });
        assert!(matches!(err, Err(Error::TiesUnsupported(_))));
        // The engine was dropped; the next read rebuilds and reports the
        // tie again (resolve_skeptic cannot handle it either).
        assert!(matches!(
            s.skeptic_snapshot(),
            Err(Error::TiesUnsupported(_))
        ));
    }

    #[test]
    fn new_users_through_typed_edits() {
        let (mut s, [_, bob, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();
        let dave = s.user("Dave");
        let changes = s
            .apply_edit(Edit::Trust {
                child: dave,
                parent: bob,
                priority: 10,
            })
            .unwrap();
        assert!(changes
            .iter()
            .any(|c| c.user == dave && c.before.is_none() && c.after == Some(jar)));
        assert_eq!(s.snapshot().unwrap().cert(dave), Some(jar));
    }

    #[test]
    fn query_by_name_and_unknown_name() {
        let (mut s, [_, _, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        let rows = s
            .query(&Query::cert(QueryTarget::Named("Alice".into())))
            .unwrap()
            .rows;
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cert, Some(jar));
        let err = s
            .query(&Query::cert(QueryTarget::Named("nobody".into())))
            .unwrap_err();
        assert!(matches!(err, Error::Plan(_)));
    }

    #[test]
    fn explain_does_no_solver_work_and_names_the_route() {
        let (mut s, [_, bob, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        let q = Query::cert(QueryTarget::All);
        assert_eq!(
            s.explain(&q),
            "plan: whole-solve (binarize + one-pass Algorithm 1)"
        );
        assert_eq!(
            s.explain(&q.clone().exact()),
            "plan: incremental-patch (read the maintained exact engine)"
        );
        s.reject(bob, NegSet::of([jar])).unwrap();
        assert_eq!(
            s.explain(&q),
            "plan: whole-solve (binarize + one-pass Algorithm 2)"
        );
        // Naming the route never builds an engine.
        assert_eq!(s.stats().full_rebuilds, 0);
        // An EXPLAIN query through query() returns the route, no rows.
        let result = s.query(&q.clone().explain()).unwrap();
        assert!(result.rows.is_empty());
        assert_eq!(result.route, Route::WholeSolve);
        assert_eq!(s.stats().full_rebuilds, 0);
        s.skeptic_snapshot().unwrap();
        assert_eq!(
            s.explain(&q),
            "plan: incremental-patch (drain pending region, read patched snapshot)"
        );
    }

    #[test]
    fn mid_batch_queries_read_the_pre_batch_snapshot() {
        let (mut s, [alice, _, charlie], jar, cow) = session();
        s.believe(charlie, jar).unwrap();
        s.snapshot().unwrap();
        s.begin_batch().unwrap();
        s.believe(charlie, cow).unwrap();
        let result = s.query(&Query::cert(QueryTarget::Handle(alice))).unwrap();
        assert_eq!(result.route, Route::IncrementalPatch);
        assert_eq!(result.rows[0].cert, Some(jar), "isolated at pre-batch");
        s.commit().unwrap();
        let result = s.query(&Query::cert(QueryTarget::Handle(alice))).unwrap();
        assert_eq!(result.rows[0].cert, Some(cow));
    }

    #[test]
    fn cold_sessions_solve_the_whole_network_and_warm_ones_patch() {
        let (mut s, [alice, bob, charlie], jar, _) = session();
        s.believe(charlie, jar).unwrap();
        s.reject(bob, NegSet::of([jar])).unwrap();
        let result = s.query(&Query::cert(QueryTarget::Handle(alice))).unwrap();
        assert_eq!(result.route, Route::WholeSolve);
        // Warm session (an engine-building read happened): patching wins,
        // and answers the same row.
        s.skeptic_snapshot().unwrap();
        let warm = s.query(&Query::cert(QueryTarget::Handle(alice))).unwrap();
        assert_eq!(warm.route, Route::IncrementalPatch);
        assert_eq!(warm.rows, result.rows);
    }

    #[test]
    fn cloned_sessions_share_rows_until_one_edits() {
        // 600 independent believers: three snapshot chunks (256/256/88).
        let mut net = TrustNetwork::new();
        let (v, w) = (net.value("v"), net.value("w"));
        let users: Vec<User> = (0..600).map(|i| net.user(&format!("u{i}"))).collect();
        for &u in &users {
            net.believe(u, v).unwrap();
        }
        let mut original = Session::new(net);
        original.snapshot().unwrap();

        let mut copy = original.clone();
        copy.believe(users[300], w).unwrap();
        assert_eq!(copy.snapshot().unwrap().cert(users[300]), Some(w));
        let stats = copy.stats();
        assert_eq!(
            (stats.publish_chunks_copied, stats.publish_rows_copied),
            (1, 256),
            "the clone copied its one dirty chunk, not the table"
        );
        // The original's rows are untouched, and it copied nothing.
        assert_eq!(original.snapshot().unwrap().cert(users[300]), Some(v));
        assert_eq!(original.stats().publish_rows_copied, 0);

        // The clone now owns its middle chunk, so the original's is no
        // longer shared; the outer chunks still are.
        original.believe(users[301], w).unwrap();
        original.snapshot().unwrap();
        assert_eq!(original.stats().publish_rows_copied, 0);
        original.believe(users[599], w).unwrap();
        original.snapshot().unwrap();
        assert_eq!(original.stats().publish_rows_copied, 88);
        assert_eq!(copy.snapshot().unwrap().cert(users[599]), Some(v));
        assert_eq!(copy.snapshot().unwrap().cert(users[301]), Some(v));
    }
}
