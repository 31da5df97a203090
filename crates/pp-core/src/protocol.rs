//! Protocol traits.
//!
//! Two levels of generality are provided:
//!
//! * [`PairwiseProtocol`] — a general population protocol over an arbitrary
//!   state type: the transition function `δ : Q² → Q²` may update both the
//!   responder and the initiator.
//! * [`OpinionProtocol`] — the specialization used by the paper and by every
//!   opinion dynamic in this repository: the state space is
//!   `{opinion 1..k, ⊥}` ([`AgentState`]) and only the responder updates.
//!   Every `OpinionProtocol` is automatically a `PairwiseProtocol`, and it is
//!   the interface the fast count-based simulator requires.

use crate::config::Configuration;
use crate::opinion::AgentState;

/// A general population protocol with transition function `δ : Q² → Q²`.
///
/// An interaction is an ordered pair *(responder, initiator)*; `transition`
/// returns the new states of the responder and the initiator in that order.
pub trait PairwiseProtocol {
    /// The agent state type `Q`.
    type State: Copy + Eq;

    /// Applies the transition function to the pair *(responder, initiator)*.
    fn transition(
        &self,
        responder: Self::State,
        initiator: Self::State,
    ) -> (Self::State, Self::State);

    /// A short human-readable protocol name used in reports.
    fn name(&self) -> &str {
        "unnamed protocol"
    }
}

/// A *one-way* opinion dynamic over the state space `{1..k, ⊥}`: in an
/// interaction only the responder updates, as in the paper's USD.
///
/// Implementors only define [`respond`](OpinionProtocol::respond); the blanket
/// [`PairwiseProtocol`] implementation keeps the initiator unchanged.
///
/// # Examples
///
/// ```
/// use pp_core::{AgentState, OpinionProtocol};
///
/// /// The Voter dynamic: the responder always adopts the initiator's opinion.
/// struct Voter { k: usize }
///
/// impl OpinionProtocol for Voter {
///     fn num_opinions(&self) -> usize { self.k }
///     fn respond(&self, responder: AgentState, initiator: AgentState) -> AgentState {
///         match initiator {
///             AgentState::Decided(_) => initiator,
///             AgentState::Undecided => responder,
///         }
///     }
/// }
/// ```
pub trait OpinionProtocol {
    /// The number of opinions `k` the protocol is configured for.
    fn num_opinions(&self) -> usize;

    /// New state of the responder after interacting with `initiator`.
    fn respond(&self, responder: AgentState, initiator: AgentState) -> AgentState;

    /// A short human-readable protocol name used in reports.
    fn name(&self) -> &str {
        "unnamed opinion protocol"
    }

    /// Returns `true` if an interaction between agents in the two given states
    /// is *productive*, i.e. changes the responder's state.
    fn is_productive(&self, responder: AgentState, initiator: AgentState) -> bool {
        self.respond(responder, initiator) != responder
    }

    /// Total weight of *null* ordered category pairs in `config`: the sum of
    /// `c_r · c_i` over all ordered pairs of categories `(r, i)` whose
    /// interaction leaves the responder unchanged (categories `0..k` are the
    /// opinions, `k` is `⊥`; `c` is the category count).  Dividing by `n²`
    /// gives the probability that the next interaction is null.
    ///
    /// Protocols with a closed form (USD, Voter) override it as a checked
    /// statement of their null weight: [`crate::engine::BatchedEngine`]
    /// compares it against enumeration in its debug cross-check.  The
    /// conservative default returns `None`, meaning "no closed form known".
    /// Overrides must match the enumeration exactly.
    fn null_interaction_weight(&self, config: &Configuration) -> Option<u128> {
        let _ = config;
        None
    }

    /// Weight of *productive* ordered pairs whose responder lies in
    /// `responder_category`: `c_cat · Σ_{i : productive(cat, i)} c_i`.
    ///
    /// Companion hook to
    /// [`null_interaction_weight`](OpinionProtocol::null_interaction_weight):
    /// when the batched engine rebuilds its row table (protocols without
    /// the USD's productivity shape, and the rebuild reference), it samples
    /// the responder category of the next state-changing event
    /// proportionally to these weights.  The conservative default returns
    /// `None` (engine enumerates in `O(k)` per category); closed-form
    /// overrides bring one rebuild down to `O(k)` total.
    fn productive_responder_weight(
        &self,
        config: &Configuration,
        responder_category: usize,
    ) -> Option<u128> {
        let _ = (config, responder_category);
        None
    }

    /// The productivity table: a flat row-major `(k+1)×(k+1)` boolean
    /// matrix whose entry `[cat·(k+1) + i]` says whether an initiator in
    /// category `i` changes a responder in category `cat` (categories `0..k`
    /// are the opinions, `k` is `⊥`).
    ///
    /// Because [`respond`](OpinionProtocol::respond) is a pure function of
    /// the two agent states, productivity is independent of the counts.
    /// [`crate::engine::BatchedEngine`] reads the matrix once, at
    /// construction: when it has the USD's shape (productive exactly when
    /// the initiator is decided and in another category) the engine draws
    /// every event from the closed form `n·D − Σx²` with `O(1)` upkeep;
    /// any other matrix rebuilds the row table before every event.
    ///
    /// The default derives the matrix from `respond`, so every
    /// `OpinionProtocol` of that shape gets the closed form automatically.
    /// Return `None` only if productivity is *not* a pure function of the
    /// category pair (e.g. a protocol whose `respond` consults interior
    /// mutability); the engine then rebuilds the rows on every event.
    fn productivity_matrix(&self) -> Option<Vec<bool>> {
        let k = self.num_opinions();
        let mut matrix = vec![false; (k + 1) * (k + 1)];
        for cat in 0..=k {
            let responder = AgentState::from_category(cat, k);
            for i in 0..=k {
                matrix[cat * (k + 1) + i] =
                    self.is_productive(responder, AgentState::from_category(i, k));
            }
        }
        Some(matrix)
    }
}

impl<P: OpinionProtocol> PairwiseProtocol for P {
    type State = AgentState;

    fn transition(&self, responder: AgentState, initiator: AgentState) -> (AgentState, AgentState) {
        (self.respond(responder, initiator), initiator)
    }

    fn name(&self) -> &str {
        OpinionProtocol::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opinion::Opinion;

    struct AdoptAlways {
        k: usize,
    }

    impl OpinionProtocol for AdoptAlways {
        fn num_opinions(&self) -> usize {
            self.k
        }
        fn respond(&self, responder: AgentState, initiator: AgentState) -> AgentState {
            match initiator {
                AgentState::Decided(_) => initiator,
                AgentState::Undecided => responder,
            }
        }
        fn name(&self) -> &str {
            "adopt-always"
        }
    }

    #[test]
    fn blanket_pairwise_impl_keeps_initiator_fixed() {
        let p = AdoptAlways { k: 3 };
        let (r, i) = PairwiseProtocol::transition(
            &p,
            AgentState::Undecided,
            AgentState::Decided(Opinion::new(2)),
        );
        assert_eq!(r, AgentState::decided(2));
        assert_eq!(i, AgentState::decided(2));
    }

    #[test]
    fn is_productive_detects_state_changes() {
        let p = AdoptAlways { k: 2 };
        assert!(p.is_productive(AgentState::decided(0), AgentState::decided(1)));
        assert!(!p.is_productive(AgentState::decided(0), AgentState::Undecided));
    }

    #[test]
    fn default_productivity_matrix_matches_is_productive() {
        let p = AdoptAlways { k: 3 };
        let k = p.num_opinions();
        let matrix = p.productivity_matrix().expect("default opts in");
        assert_eq!(matrix.len(), (k + 1) * (k + 1));
        for cat in 0..=k {
            for i in 0..=k {
                assert_eq!(
                    matrix[cat * (k + 1) + i],
                    p.is_productive(
                        AgentState::from_category(cat, k),
                        AgentState::from_category(i, k)
                    ),
                    "matrix disagrees with is_productive at ({cat}, {i})"
                );
            }
        }
    }

    #[test]
    fn names_propagate_through_blanket_impl() {
        let p = AdoptAlways { k: 2 };
        assert_eq!(OpinionProtocol::name(&p), "adopt-always");
        assert_eq!(PairwiseProtocol::name(&p), "adopt-always");
    }
}
