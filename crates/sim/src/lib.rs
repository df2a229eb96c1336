//! # davide-sim
//!
//! Deterministic fault-injection harness for the full telemetry →
//! control-plane loop: energy-gateway frames over the real in-process
//! MQTT broker, `telemetry::ingest` into the management store, and the
//! `sched::controlplane` actuators — driven through scripted fault
//! scenarios on a discrete-event kernel with the workspace's seeded
//! RNG, so a scenario re-run with the same seed produces a
//! **bit-identical event log**.
//!
//! * [`kernel`] — the discrete-event core: a stable priority queue of
//!   `(time, phase class, insertion seq)` events, the dispatch-order
//!   invariant, and the `drive` loop every run sits on.
//! * [`scenario`] — the fault-script DSL: per-gateway sample loss and
//!   dropout windows, duplicated/reordered frames, PTP clock skew and
//!   step, broker restart with retained-message replay, node death
//!   mid-job; plus the canned scenario set CI smokes and the E22
//!   control-loop workload (`scenario::e22`).
//! * [`log`] — the structured event log and its FNV-64 digest, the
//!   artifact two runs of one seed must reproduce bit for bit.
//! * [`invariants`] — the checker layer: envelope compliance within the
//!   controller's overshoot budget, per-job energy conservation, the
//!   stale-telemetry fallback, and retained DVFS command convergence.
//! * [`harness`] — the plant + fault injector that wires it together
//!   and returns a [`harness::RunOutcome`].
//! * [`federation`] — multi-rack runs: N complete racks bridged into a
//!   site broker, a federator splitting one global power budget into
//!   per-rack cap grants, and global invariants on top of the per-rack
//!   ones.

#![warn(missing_docs)]

pub mod federation;
pub mod harness;
pub mod invariants;
pub mod kernel;
pub mod log;
pub mod scenario;

pub use federation::{
    run_federated, run_federated_traced, run_federated_with_db_config, FedOutcome, FedScenario,
};
pub use harness::{run, run_with_db_config, GroundTruth, RunOutcome};
pub use invariants::Violation;
pub use kernel::{EventHandler, EventQueue};
pub use log::{Event, EventLog, FrameFate};
pub use scenario::{canned, obs_latency_probe, Fault, Scenario};
