//! # davide-obs
//!
//! The stack's self-observability layer. D.A.V.I.D.E. is itself a
//! monitoring system — energy gateways stream 50 kS/s power telemetry
//! over MQTT to aggregators, profilers and the power-aware scheduler —
//! and this crate lets that pipeline watch *itself* with the same
//! rigour it offers applications:
//!
//! * [`MetricsRegistry`] — a lock-free registry of atomic counters,
//!   gauges and log₂-bucketed histograms. Handles are pre-registered
//!   (interned, like `SeriesId`s in the TsDb) so the hot path is pure
//!   atomics: no locks, no allocation. [`MetricsRegistry::render_text`]
//!   produces a Prometheus-style text exposition.
//! * [`Tracer`] — causal tracing over a static stage list, one
//!   mechanism with two stage sets. [`Stage`] follows a `SampleFrame`
//!   from broker publish through the fan-out delivery into a
//!   subscriber queue, ingest append, predictor update and scheduler
//!   tick to the DVFS command publish, keyed by a deterministic trace id
//!   derived from its topic and wire header ([`frame_trace_id`]).
//!   [`GrantStage`] follows a federation cap grant from the federator's
//!   budget split over the downlink bridge and the rack's cap-watch to
//!   the controller command and the observed power crossing, keyed by
//!   grant seq. Closing a trace folds its stage-to-stage lags into
//!   histograms, so end-to-end control-loop and grant-to-actuation
//!   latency are measured distributions, not guesses.
//! * [`FlightRecorder`] — a bounded lock-free ring of recent
//!   control-loop events, snapshotted into a deterministic text dump
//!   the instant an invariant fires.
//! * [`SelfTelemetry`] — a bridge that periodically serialises the
//!   registry into ordinary telemetry samples on the reserved
//!   `davide/obs/#` topic namespace, published through whatever
//!   [`FrameSink`] the caller wires up (the MQTT adapter lives in
//!   `davide-telemetry`, which owns the frame codec). The monitoring
//!   plane monitors itself with its own plumbing.
//!
//! All time flows through the injectable [`Clock`] trait: deterministic
//! harnesses drive a [`ManualClock`] from their virtual clock, so
//! instrumentation never perturbs per-seed digests; production wiring
//! uses [`MonotonicClock`].

#![warn(missing_docs)]

pub mod bridge;
pub mod clock;
pub mod flight;
pub mod metrics;
pub mod trace;

pub use bridge::{obs_topic, FrameSink, SelfTelemetry, OBS_FILTER, OBS_PREFIX};
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use flight::{FlightEvent, FlightRecorder};
pub use metrics::{
    escape_label_value, rollup_counters, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry,
};
pub use trace::{frame_trace_id, GrantStage, Stage, StageSet, Tracer};

use std::sync::Arc;

/// The obs wiring one deployment shares across instrument sites: the
/// registry every subsystem registers its metrics in, the frame and
/// grant tracers, the flight recorder, and the clock all broker/ingest-side
/// stamps read.
#[derive(Clone)]
pub struct ObsHub {
    /// Shared metrics registry.
    pub registry: Arc<MetricsRegistry>,
    /// Shared causal frame tracer (registers its own metrics in
    /// `registry`).
    pub frames: Arc<Tracer<Stage>>,
    /// Shared cap-grant tracer (registers its own metrics in
    /// `registry`).
    pub grants: Arc<Tracer<GrantStage>>,
    /// Shared flight recorder for the deployment's recent control-loop
    /// events.
    pub flight: Arc<FlightRecorder>,
    /// Injectable time source for stamps taken outside the control
    /// loop's explicit `now` (broker publish, ingest drain).
    pub clock: Arc<dyn Clock>,
}

impl ObsHub {
    /// A hub over an explicit clock.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let frames = Arc::new(Tracer::new(&registry));
        let grants = Arc::new(Tracer::new(&registry));
        let flight = Arc::new(FlightRecorder::default());
        ObsHub {
            registry,
            frames,
            grants,
            flight,
            clock,
        }
    }

    /// Arm or disarm grant tracing and flight recording together (the
    /// frame tracer and registry stay live). Overhead A/B runs disarm
    /// one side; digests must be bit-identical either way.
    pub fn set_tracing_enabled(&self, on: bool) {
        self.grants.set_enabled(on);
        self.flight.set_enabled(on);
    }

    /// Record one cap-grant hop at hub-clock time `t_s`: stamp `stage`
    /// on grant `seq`'s trace and push the matching flight event, whose
    /// kind is the stage name and whose payload is the cap `watts`.
    pub fn grant_hop(&self, seq: u64, stage: GrantStage, t_s: f64, watts: f64) {
        self.grants.stamp(seq, stage, t_s);
        self.flight
            .push(trace::to_ns(t_s), stage.name(), "", seq, watts.to_bits());
    }

    /// A hub over a [`ManualClock`], returned alongside so deterministic
    /// harnesses can drive it from their virtual clock.
    pub fn manual() -> (Self, Arc<ManualClock>) {
        let manual = Arc::new(ManualClock::new(0.0));
        let clock: Arc<dyn Clock> = manual.clone();
        (Self::new(clock), manual)
    }

    /// A hub over the wall [`MonotonicClock`] (production wiring).
    pub fn monotonic() -> Self {
        Self::new(Arc::new(MonotonicClock::new()))
    }
}

impl std::fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHub").finish_non_exhaustive()
    }
}
