//! Error types for trust-network construction and resolution.

use crate::user::User;
use std::fmt;

/// Errors raised while building or resolving trust networks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A user id does not belong to the network.
    UnknownUser(User),
    /// The operation requires a network without negative explicit beliefs
    /// (the basic model of Section 2).
    NegativeBeliefsUnsupported(User),
    /// Algorithm 2 requires tie-free priorities (Section 3 disallows ties;
    /// see Appendix B.9 for the tie extension handled by the enumerator).
    TiesUnsupported(User),
    /// The operation requires an acyclic network (Proposition 3.6).
    CyclicNetwork,
    /// A mapping from a user to itself was declared.
    SelfTrust(User),
    /// The exhaustive enumerator refused to run: the search space exceeds
    /// the given bound.
    EnumerationTooLarge {
        /// Estimated log2 of the number of candidate assignments.
        log2_candidates: u32,
    },
    /// An exact-mode read was issued on a session that never enabled
    /// exact certain-belief maintenance
    /// ([`crate::Session::enable_exact`]).
    ExactModeDisabled,
    /// A durability sink failed to persist or recover session state (the
    /// message carries the underlying I/O or corruption detail).
    Io(String),
    /// A query names a user the network does not have.
    Plan(String),
    /// A commit was refused because this store has observed a higher
    /// leadership term than its own: some follower has been promoted and
    /// this (deposed) leader must not extend the log. The store keeps
    /// serving reads but wedges every write until it is reopened or
    /// re-follows the new leader.
    Fenced {
        /// The higher term this store has observed.
        observed: u64,
        /// The term this store itself holds.
        ours: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownUser(u) => write!(f, "unknown user {u}"),
            Error::NegativeBeliefsUnsupported(u) => write!(
                f,
                "user {u} holds negative beliefs; use the constraint-aware APIs \
                 (skeptic resolution, acyclic evaluation, or the signed enumerator)"
            ),
            Error::TiesUnsupported(u) => write!(
                f,
                "user {u} has tied parent priorities; Algorithm 2 requires \
                 distinct priorities per user"
            ),
            Error::CyclicNetwork => write!(f, "operation requires an acyclic network"),
            Error::SelfTrust(u) => write!(f, "user {u} cannot trust themselves"),
            Error::EnumerationTooLarge { log2_candidates } => write!(
                f,
                "exhaustive enumeration would explore ~2^{log2_candidates} assignments"
            ),
            Error::ExactModeDisabled => write!(
                f,
                "exact certain-belief mode is not enabled on this session \
                 (call enable_exact first)"
            ),
            Error::Io(message) => write!(f, "durability: {message}"),
            Error::Plan(message) => write!(f, "plan: {message}"),
            Error::Fenced { observed, ours } => write!(
                f,
                "fenced: a leader at term {observed} has been observed \
                 (this store holds term {ours}); writes are wedged"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, Error>;
