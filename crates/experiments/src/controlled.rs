//! The closed-loop demonstration: online Eq.-15 recomputation inside a
//! running simulation.
//!
//! The metastability tier ([`crate::metastability`]) shows that Eq.-15
//! trunk reservation rescues a saturated start — but there the
//! protection levels are *provisioned*, computed offline from the known
//! offered matrix. This tier closes the loop the paper's control story
//! implies: the run starts saturated with **all-zero** levels and an
//! [`altrouted`] [`Controller`] riding the kernel's periodic tick
//! through [`ControlledSelector`], the wrapper `sim::adaptive` uses too.
//! The controller estimates per-pair arrival rates from the arrivals it
//! observes, re-solves Eq. 15 at every window boundary, and pushes the
//! fresh `r^k` through [`AdmissionPolicy::set_levels`] mid-run. No level
//! is ever set by hand.
//!
//! [`AdmissionPolicy::set_levels`]: altroute_simcore::kernel::AdmissionPolicy::set_levels
//!
//! Two arms, same seeds, same saturated start, same best-of-`d`
//! selector:
//!
//! | arm    | levels                       | expected mode        |
//! |--------|------------------------------|----------------------|
//! | static | `r = 0` for the whole run    | high (stuck)         |
//! | online | re-estimated every window    | low (escapes)        |
//!
//! The online arm's escape is detector-visible (a recorded high → low
//! switch), which is what the `altrouted-smoke` CI stage asserts, and it
//! freezes the arm's flight recorder (a dump labelled `flight:online`).
//!
//! Both arms run the metastability instance of a [`MetastabilityConfig`]
//! through the metastability tier's arm runner, so they share its seed
//! loop, live recorder, flight recorder and [`ArmResult`]; only the per-seed
//! execution differs. The `static` arm is metastability's `r0_saturated`
//! arm, number for number.

use crate::metastability::{self, ArmResult, ArmRunner, MetastabilityConfig, StartState};
use altroute_core::select::BestOfDSelector;
use altroute_sim::adaptive::ControlledSelector;
use altroute_sim::engine::BOD_SAMPLE_STREAM;
use altroute_simcore::kernel::TrunkReservation;
use altroute_simcore::rng::StreamFactory;
use altroute_telemetry::serve::MetricsServer;
use altrouted::config::mesh_plane;
use altrouted::control::{Controller, ControllerTuning, LevelsUpdate};

/// The online arm's controller tuning: one estimator window per
/// telemetry window of `cfg`, defaults for the rest.
pub fn tuning(cfg: &MetastabilityConfig) -> ControllerTuning {
    ControllerTuning {
        window: cfg.window,
        ..ControllerTuning::default()
    }
}

/// The two-arm closed-loop report.
#[derive(Debug, Clone)]
pub struct ControlledReport {
    /// The configuration that produced it.
    pub config: MetastabilityConfig,
    /// The frozen `r = 0` baseline (`static`).
    pub static_arm: ArmResult,
    /// The controller-driven arm (`online`).
    pub online_arm: ArmResult,
    /// The first replication's level-update sequence (all replications
    /// contribute to `update_count`).
    pub updates: Vec<LevelsUpdate>,
    /// Level updates emitted across every replication of the online arm.
    pub update_count: u64,
    /// The online arm's levels after its final replication.
    pub final_levels: Vec<u32>,
}

/// Runs the closed-loop demonstration on the metastability instance
/// `cfg`, publishing live window snapshots and phase progress to
/// `server` when one is given. The report is byte-identical with or
/// without a server.
pub fn run_controlled(
    cfg: &MetastabilityConfig,
    server: Option<&MetricsServer>,
) -> ControlledReport {
    let (traffic, reserved_plan) = metastability::instance(cfg);
    // Both arms route on the unprotected plan: every level either stays
    // zero (static) or comes from the controller (online) — never from
    // provisioning.
    let plan = metastability::unreserved(reserved_plan);
    let num_links = plan.topology().num_links();
    let mut runner = ArmRunner::new(cfg, &traffic, server, 2);
    let static_arm = runner.run(&plan, "static", StartState::Saturated, |run, _| {
        run.execute()
    });
    let mut updates: Vec<LevelsUpdate> = Vec::new();
    let mut update_count = 0u64;
    let mut final_levels: Vec<u32> = vec![0; num_links];
    let online_arm = runner.run(&plan, "online", StartState::Saturated, |run, seed| {
        let rng = StreamFactory::new(seed).stream(BOD_SAMPLE_STREAM);
        let mut admission = TrunkReservation::new(vec![0; num_links]);
        let mut selector = ControlledSelector::new(
            BestOfDSelector::new(&plan, cfg.d, rng),
            Controller::new(mesh_plane(cfg.nodes, cfg.capacity, 2), tuning(cfg)),
        );
        let r = run
            .ticks(cfg.window)
            .execute_with(&mut admission, &mut selector);
        update_count += selector.updates().len() as u64;
        if seed == cfg.base_seed {
            updates = selector.updates().to_vec();
        }
        final_levels = selector.controller().levels().to_vec();
        r
    });
    ControlledReport {
        config: cfg.clone(),
        static_arm,
        online_arm,
        updates,
        update_count,
        final_levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altroute_telemetry::Mode;

    /// The checked-in closed-loop demonstration: from the same saturated
    /// start, frozen `r = 0` stays stuck in the high-blocking mode while
    /// the online controller — starting from zero levels it was never
    /// handed — re-estimates, raises protection, and escapes.
    #[test]
    fn online_recomputation_escapes_where_static_levels_stay_stuck() {
        let cfg = MetastabilityConfig::smoke();
        let report = run_controlled(&cfg, None);

        let stuck = &report.static_arm;
        assert_eq!(
            stuck.modes.final_mode(),
            Mode::High,
            "static arm must stay high"
        );
        assert_eq!(stuck.modes.num_switches(), 0, "stuck means zero switches");
        assert!(
            stuck.modes.fraction_high() > 0.75,
            "static arm spent only {} high",
            stuck.modes.fraction_high()
        );

        let online = &report.online_arm;
        assert_eq!(
            online.modes.final_mode(),
            Mode::Low,
            "online arm must escape"
        );
        assert!(
            online.modes.num_switches() >= 1,
            "the detector should record the online arm's escape"
        );
        assert!(
            online.tail_utilization < stuck.tail_utilization,
            "the controller must drain the saturated start ({} vs {})",
            online.tail_utilization,
            stuck.tail_utilization
        );
        assert!(online.blocking < stuck.blocking, "escaping must pay off");

        // The rescue came from the controller, not provisioning: levels
        // started at zero, and the emitted updates raised them.
        assert!(report.update_count >= 1, "the controller must have acted");
        assert!(!report.updates.is_empty());
        assert!(
            report.final_levels.iter().any(|&r| r > 0),
            "escape requires nonzero protection"
        );
        assert!(
            report.updates[0].at >= cfg.window,
            "no update can precede the first window boundary"
        );

        // Determinism: a second run reproduces the update sequence and
        // both arms' telemetry exactly.
        let again = run_controlled(&cfg, None);
        assert_eq!(again.updates, report.updates);
        assert_eq!(again.final_levels, report.final_levels);
        assert_eq!(again.online_arm.telemetry, online.telemetry);
        assert_eq!(again.static_arm.telemetry, stuck.telemetry);
    }

    /// The `static` arm is metastability's `r0_saturated` arm: the same
    /// plan, start, seeds and policy through the same runner, so every
    /// reported number and the telemetry agree exactly.
    #[test]
    fn static_arm_is_the_unreserved_saturated_metastability_arm() {
        let cfg = MetastabilityConfig::smoke();
        let stuck = run_controlled(&cfg, None).static_arm;
        let meta = crate::metastability::run_metastability(&cfg, None);
        let r0 = meta.arm(false, StartState::Saturated);
        assert_eq!(stuck.telemetry, r0.telemetry);
        assert_eq!(stuck.modes, r0.modes);
        assert_eq!(stuck.blocking.to_bits(), r0.blocking.to_bits());
        assert_eq!(
            stuck.alternate_fraction.to_bits(),
            r0.alternate_fraction.to_bits()
        );
        assert_eq!(
            stuck.tail_utilization.to_bits(),
            r0.tail_utilization.to_bits()
        );
        assert!(stuck.flight.is_none() && r0.flight.is_none());
    }

    /// The online arm's high -> low escape freezes its flight recorder, and
    /// the dump decodes as a trace labelled with the arm.
    #[test]
    fn online_escape_freezes_a_flight_capture() {
        use altroute_sim::trace::decode_trace;
        use altroute_telemetry::flight::TriggerReason;

        let cfg = MetastabilityConfig::smoke();
        let report = run_controlled(&cfg, None);
        let capture = report
            .online_arm
            .flight
            .as_ref()
            .expect("the online arm's escape must freeze the recording");
        let TriggerReason::ModeSwitch { to, at } = capture.reason;
        assert_eq!(to, Mode::Low, "the escape is high -> low");
        assert!(at > 0.0);
        assert_eq!(capture.seed, cfg.base_seed);
        let (header, records) = decode_trace(&capture.bytes).expect("dump must decode");
        assert_eq!(header.label, "flight:online");
        assert_eq!(header.seed, capture.seed);
        assert_eq!(records.len(), crate::metastability::FLIGHT_CAPACITY);
    }
}
