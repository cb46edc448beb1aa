//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it (see `DESIGN.md` for the index). This library holds the
//! pieces they share: aligned-table output, CSV export, the standard
//! policy set, and the NSFNet instance construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod controlled;
pub mod feed;
pub mod largemesh;
pub mod metastability;
pub mod output;
pub mod progress;
pub mod runs;

pub use chart::{render as render_chart, Series};
pub use controlled::{
    run_controlled, run_controlled_served, ControlledArm, ControlledConfig, ControlledReport,
};
pub use feed::{render_feed, FeedConfig, FeedSegment, FeedStats};
pub use largemesh::{run_largemesh, LargeMeshConfig, LargeMeshReport, RoundResult};
pub use metastability::{
    run_metastability, run_metastability_served, ArmResult, FlightCapture, HysteresisReport,
    MetastabilityConfig, StartState,
};
pub use output::Table;
pub use progress::Heartbeat;
pub use runs::{nsfnet_experiment, policy_set, sweep, SweepRow};
