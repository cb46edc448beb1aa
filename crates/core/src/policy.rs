//! The per-call routing policies, by name.
//!
//! [`PolicyKind`] names each policy the workspace can run; the decision
//! itself is made on the simulation kernel by an (admission, selector)
//! pair — [`crate::select`]'s selectors over
//! [`LinkOccupancy`](altroute_simcore::kernel::LinkOccupancy), with
//! [`Uncontrolled`](altroute_simcore::kernel::Uncontrolled) or
//! [`TrunkReservation`](altroute_simcore::kernel::TrunkReservation)
//! admission; the simulator's `Run::execute` maps each kind to its
//! pair. Decision rules (paper §1, §3):
//!
//! * **Single-path** — the call completes on its primary path or not at
//!   all. A link admits a primary call iff it has a free circuit.
//! * **Uncontrolled alternate** — if the primary blocks, alternates are
//!   tried in order of increasing hop count; links admit alternate calls
//!   iff they have a free circuit (no protection).
//! * **Controlled alternate** (the paper's scheme) — as above, but link
//!   `k` admits an alternate-routed call only while its occupancy is
//!   strictly below `C^k − r^k`; in the last `r^k + 1` states it refuses.
//! * **Ott–Krishnan** — pick the candidate path with the smallest sum of
//!   per-link shadow prices at the current occupancies; carry the call iff
//!   that sum does not exceed the call's revenue (1, in the single-service
//!   model), otherwise block it.
//!
//! Links that are *down* (failure experiments) admit nothing.

/// The routing policy to apply on top of a
/// [`RoutingPlan`](crate::plan::RoutingPlan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Primary path only.
    SinglePath,
    /// Alternate routing with no state protection.
    UncontrolledAlternate {
        /// Maximum alternate path hop count (must equal the plan's `H`).
        max_hops: u32,
    },
    /// The paper's controlled alternate routing (state protection per
    /// Eq. 15).
    ControlledAlternate {
        /// Maximum alternate path hop count (must equal the plan's `H`).
        max_hops: u32,
    },
    /// The Ott–Krishnan separable shadow-price baseline.
    OttKrishnan {
        /// Maximum candidate path hop count (must equal the plan's `H`).
        max_hops: u32,
    },
    /// Dynamic alternative routing: primary first, then one *sticky*
    /// alternate per pair, resampled uniformly at random whenever a
    /// call is lost on it. Alternates are subject to the plan's Eq. 15
    /// protection levels (trunk reservation keeps DAR stable). Stateful
    /// — served by [`crate::select::DarStickySelector`].
    DarSticky {
        /// Maximum alternate path hop count (must equal the plan's `H`).
        max_hops: u32,
    },
    /// Balanced-allocation DAR ("best of d"): primary first; on overflow
    /// sample `d` alternates uniformly at random and carry the call on
    /// the least-loaded admissible one. Alternates are subject to the
    /// plan's Eq. 15 protection levels, like [`PolicyKind::DarSticky`].
    /// Stateful (private RNG) — served by
    /// [`crate::select::BestOfDSelector`].
    BestOfD {
        /// Maximum alternate path hop count (must equal the plan's `H`).
        max_hops: u32,
        /// Number of alternates sampled per overflow (`d ≥ 1`).
        d: u32,
    },
}

impl PolicyKind {
    /// A short stable name for tables and serialized results.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::SinglePath => "single-path",
            PolicyKind::UncontrolledAlternate { .. } => "uncontrolled",
            PolicyKind::ControlledAlternate { .. } => "controlled",
            PolicyKind::OttKrishnan { .. } => "ott-krishnan",
            PolicyKind::DarSticky { .. } => "dar",
            PolicyKind::BestOfD { .. } => "bod",
        }
    }

    /// The hop bound carried by the variant, if any.
    pub fn max_hops(&self) -> Option<u32> {
        match *self {
            PolicyKind::SinglePath => None,
            PolicyKind::UncontrolledAlternate { max_hops }
            | PolicyKind::ControlledAlternate { max_hops }
            | PolicyKind::OttKrishnan { max_hops }
            | PolicyKind::DarSticky { max_hops }
            | PolicyKind::BestOfD { max_hops, .. } => Some(max_hops),
        }
    }
}

/// How a carried call was routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallClass {
    /// On the pair's (sampled) primary path.
    Primary,
    /// On an alternate path.
    Alternate,
}
