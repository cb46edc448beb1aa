//! Shared experiment construction and sweep running.

use altroute_core::policy::PolicyKind;
use altroute_netgraph::estimate::nsfnet_nominal_traffic;
use altroute_netgraph::topologies;
use altroute_sim::experiment::{Experiment, Fanout, ProgressObserver, SimParams};
use altroute_simcore::EngineMetrics;

/// The standard comparison set at hop bound `h`: single-path,
/// uncontrolled, controlled (plus Ott–Krishnan when `with_ok`).
pub fn policy_set(h: u32, with_ok: bool) -> Vec<PolicyKind> {
    let mut v = vec![
        PolicyKind::SinglePath,
        PolicyKind::UncontrolledAlternate { max_hops: h },
        PolicyKind::ControlledAlternate { max_hops: h },
    ];
    if with_ok {
        v.push(PolicyKind::OttKrishnan { max_hops: h });
    }
    v
}

/// The paper's §4.2 instance: NSFNet topology with the nominal traffic
/// matrix reconstructed from Table 1, scaled so that `load = 10`
/// corresponds to nominal (the paper's x-axis convention).
pub fn nsfnet_experiment(load: f64) -> Experiment {
    let nominal = nsfnet_nominal_traffic().traffic;
    Experiment::new(topologies::nsfnet(100), nominal.scaled(load / 10.0))
        .expect("NSFNet instance is valid")
}

/// One load point of a blocking sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The x-axis load value.
    pub load: f64,
    /// `(policy name, mean blocking, std error)` per policy, in the order
    /// given to [`sweep`].
    pub blocking: Vec<(&'static str, f64, f64)>,
    /// Aggregated engine metrics per policy, parallel to `blocking`.
    pub metrics: Vec<EngineMetrics>,
    /// The Erlang cut-set lower bound at this load.
    pub erlang_bound: f64,
}

/// Runs every policy at every load and collects blocking plus the Erlang
/// bound — the generic engine behind the Fig. 3/4/6/7 binaries —
/// notifying `progress` after every completed replication (e.g. a
/// [`crate::progress::Heartbeat`] sized `loads × policies × seeds` for a
/// whole-sweep ETA).
///
/// `make` builds the experiment for one load value.
pub fn sweep(
    loads: &[f64],
    policies: &[PolicyKind],
    params: &SimParams,
    progress: Option<&dyn ProgressObserver>,
    make: impl Fn(f64) -> Experiment,
) -> Vec<SweepRow> {
    let fanout = Fanout {
        progress,
        ..Fanout::default()
    };
    loads
        .iter()
        .map(|&load| {
            let exp = make(load);
            let mut blocking = Vec::with_capacity(policies.len());
            let mut metrics = Vec::with_capacity(policies.len());
            for &kind in policies {
                let (r, _) = exp.replicate(kind, params, &fanout);
                blocking.push((kind.name(), r.blocking_mean(), r.blocking_std_error()));
                metrics.push(r.metrics_summary());
            }
            SweepRow {
                load,
                blocking,
                metrics,
                erlang_bound: exp.erlang_bound(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_set_contents() {
        let with = policy_set(6, true);
        assert_eq!(with.len(), 4);
        assert_eq!(with[3].name(), "ott-krishnan");
        let without = policy_set(11, false);
        assert_eq!(without.len(), 3);
        assert!(without.iter().all(|p| p.max_hops().unwrap_or(11) == 11));
    }

    #[test]
    fn nsfnet_experiment_scales() {
        let nominal = nsfnet_experiment(10.0);
        let half = nsfnet_experiment(5.0);
        let ratio = nominal.traffic().total() / half.traffic().total();
        assert!((ratio - 2.0).abs() < 1e-9);
        assert_eq!(nominal.topology().num_links(), 30);
    }

    #[test]
    fn sweep_produces_one_row_per_load() {
        use altroute_netgraph::traffic::TrafficMatrix;
        let params = SimParams {
            warmup: 2.0,
            horizon: 10.0,
            seeds: 2,
            base_seed: 1,
        };
        let rows = sweep(
            &[50.0, 80.0],
            &policy_set(3, false),
            &params,
            None,
            |load| {
                Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, load)).unwrap()
            },
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].blocking.len(), 3);
        assert_eq!(rows[0].metrics.len(), 3);
        assert!(rows[0].metrics.iter().all(|m| m.events_processed > 0));
        assert!(rows[0].erlang_bound <= rows[1].erlang_bound);
    }
}
