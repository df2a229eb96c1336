//! Causal tracing over a static stage list: one tracer, two stage sets.
//!
//! A [`Tracer`] follows ids through the stages of a [`StageSet`] in
//! causal order. Stages stamp timestamps into a fixed-capacity slot
//! table (first stamp per stage wins, so replayed deliveries are
//! harmless); closing a trace folds its stage-to-stage lags and the
//! set's named intervals into histograms and bumps a completion
//! counter, while traces that never complete — evicted from a full
//! probe window or still resident at [`Tracer::flush`] — are counted by
//! the furthest stage they reached: a per-stage loss readout.
//!
//! * [`Stage`] follows a `SampleFrame` publication from the broker
//!   through ingest to the DVFS command it causes. Its trace id
//!   ([`frame_trace_id`], FNV-1a over topic + payload head) is
//!   recomputable by every stage from data it already holds, so no id
//!   field travels on the wire and frame encoding and per-seed digests
//!   are untouched.
//! * [`GrantStage`] follows a federation cap grant from the federator's
//!   budget split to the observed power crossing, stitched by the grant
//!   sequence number the federator embeds in the payload
//!   (`"<watts> <seq>"`). One tracer per rack; sequence numbers are
//!   per-rack, so the trace id *is* the grant seq.
//!
//! All timestamps come through the hub's injectable clock, so tracing
//! never perturbs per-seed digests.

use crate::metrics::{Counter, Histogram, MetricsRegistry};
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};

/// A static, causally ordered stage list and the metrics a [`Tracer`]
/// over it registers.
pub trait StageSet: Copy + 'static {
    /// Stage names as they appear in metric labels, in causal order (at
    /// most 8).
    const NAMES: &'static [&'static str];
    /// Metric name prefix: `<prefix>_stage_ns{from,to}`,
    /// `<prefix>_<interval>_ns`, `<prefix>_completed_total` and
    /// `<prefix>_lost_total{last}`.
    const PREFIX: &'static str;
    /// Slot-table capacity (a power of two). Bounded so the tracer never
    /// allocates after construction.
    const CAPACITY: usize;
    /// Named latency intervals recorded into `<prefix>_<name>_ns` when a
    /// trace closes.
    const INTERVALS: &'static [(&'static str, Interval<Self>)];

    /// Index of this stage in [`NAMES`](Self::NAMES).
    fn index(self) -> usize;

    /// This stage's label.
    fn name(self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

/// A latency interval a closed trace folds into its own histogram.
#[derive(Clone, Copy, Debug)]
pub enum Interval<S> {
    /// First stamped stage to last stamped stage.
    FirstToLast,
    /// From one stage to another, recorded only when both are stamped.
    Between(S, S),
}

/// Stages per set: the per-slot stamp mask is one byte.
const MAX_STAGES: usize = 8;

/// Pipeline stages a frame passes through, in causal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Broker accepted the publish.
    BrokerPublish = 0,
    /// The broker's fan-out delivered a copy into a subscriber's queue
    /// (labelled `session_deliver` in metrics).
    SessionDeliver = 1,
    /// Ingest decoded and appended the frame to the TsDb.
    IngestAppend = 2,
    /// The predictor consumed the window containing the frame.
    PredictorUpdate = 3,
    /// The scheduler tick that acted on the window ran.
    SchedulerTick = 4,
    /// The resulting DVFS command was published.
    DvfsPublish = 5,
}

impl StageSet for Stage {
    const NAMES: &'static [&'static str] = &[
        "broker_publish",
        "session_deliver",
        "ingest_append",
        "predictor_update",
        "scheduler_tick",
        "dvfs_publish",
    ];
    const PREFIX: &'static str = "obs_trace";
    const CAPACITY: usize = 4096;
    /// `e2e`: first-stamp to last-stamp latency of completed traces (the
    /// control-loop latency histogram).
    const INTERVALS: &'static [(&'static str, Interval<Self>)] = &[("e2e", Interval::FirstToLast)];

    fn index(self) -> usize {
        self as usize
    }
}

/// The hops a cap grant takes from the federator's budget split to an
/// observed node-power change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum GrantStage {
    /// The federator computed this rack's share and published the
    /// retained grant on the site broker.
    FedSplit = 0,
    /// The downlink bridge forwarded the grant onto the rack broker.
    BridgeDeliver = 1,
    /// The rack's cap-watch subscriber drained the grant.
    RackReceive = 2,
    /// The control plane swapped its cap schedule (the ladder and the
    /// admission envelope now read the new cap).
    CapCommand = 3,
    /// The plant's observed system power first measured at or under the
    /// granted cap — actuation, as the invariant checker would see it.
    PowerCrossing = 4,
}

impl StageSet for GrantStage {
    /// Also the flight-recorder event kinds of grant hops.
    const NAMES: &'static [&'static str] = &[
        "fed_split",
        "bridge_deliver",
        "rack_receive",
        "cap_command",
        "power_crossing",
    ];
    const PREFIX: &'static str = "obs_grant";
    /// Grants are low-rate (one per rack per rebalance at most).
    const CAPACITY: usize = 256;
    /// `apply`: grant split → controller cap command; `e2e`: grant
    /// split → observed power crossing (the grant-to-actuation latency
    /// the paper's reaction-time argument turns on).
    const INTERVALS: &'static [(&'static str, Interval<Self>)] = &[
        (
            "apply",
            Interval::Between(GrantStage::FedSplit, GrantStage::CapCommand),
        ),
        (
            "e2e",
            Interval::Between(GrantStage::FedSplit, GrantStage::PowerCrossing),
        ),
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// How many payload bytes participate in the trace id. 24 bytes covers
/// the `SampleFrame` wire header (magic, version, t0, dt, n), which is
/// unique per (topic, frame) in any sane stream.
pub const TRACE_ID_PAYLOAD_BYTES: usize = 24;

/// Deterministic trace id for a frame publication: FNV-1a over the
/// topic bytes, a 0xFF separator (valid topics are UTF-8, so this
/// cannot collide with topic content), and the first
/// [`TRACE_ID_PAYLOAD_BYTES`] payload bytes. Both the broker (raw
/// publish) and ingest (raw delivered payload) hold exactly these
/// inputs, so the id links the two without wire changes.
pub fn frame_trace_id(topic: &str, payload: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in topic.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h = (h ^ 0xFF).wrapping_mul(FNV_PRIME);
    for &b in payload.iter().take(TRACE_ID_PAYLOAD_BYTES) {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Clock seconds as the integer nanoseconds stamps store.
pub(crate) fn to_ns(t_s: f64) -> u64 {
    (t_s * 1e9).round().max(0.0) as u64
}

const PROBE: usize = 16;

/// Struct-of-arrays slot table: probing scans the packed `seen`/`ids`
/// arrays (64 and 8 entries per cache line), so a stamp on the ingest
/// hot path touches one or two lines instead of one per probed slot. A
/// slot is resident while its `seen` stage mask is non-zero.
struct Table {
    seen: Box<[u8]>,
    ids: Box<[u64]>,
    /// One row of `NAMES.len()` stamps per slot.
    t_ns: Box<[u64]>,
}

/// Fixed-capacity causal tracer over the stage set `S`; see the module
/// docs. All histograms and counters live in the [`MetricsRegistry`]
/// passed at construction.
pub struct Tracer<S: StageSet> {
    enabled: AtomicBool,
    table: Mutex<Table>,
    stage_lag: Box<[Histogram]>,
    intervals: Box<[Histogram]>,
    completed: Counter,
    lost: Box<[Counter]>,
    stages: PhantomData<S>,
}

impl<S: StageSet> Tracer<S> {
    /// A tracer registering its metrics in `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        const { assert!(S::NAMES.len() <= MAX_STAGES && S::CAPACITY.is_power_of_two()) };
        let (names, prefix) = (S::NAMES, S::PREFIX);
        let stage_lag = names
            .windows(2)
            .map(|w| {
                registry.histogram(&format!(
                    "{prefix}_stage_ns{{from=\"{}\",to=\"{}\"}}",
                    w[0], w[1]
                ))
            })
            .collect();
        let lost = names
            .iter()
            .map(|n| registry.counter(&format!("{prefix}_lost_total{{last=\"{n}\"}}")))
            .collect();
        let intervals = S::INTERVALS
            .iter()
            .map(|(n, _)| registry.histogram(&format!("{prefix}_{n}_ns")))
            .collect();
        // Touch every page at construction: the zeroed allocations are
        // otherwise backed lazily, and the page faults would land in
        // the first few thousand stamps on the ingest hot path. The
        // opaque fill value keeps the stores from being elided.
        let mut seen = vec![0u8; S::CAPACITY].into_boxed_slice();
        let mut ids = vec![0u64; S::CAPACITY].into_boxed_slice();
        let mut t_ns = vec![0u64; S::CAPACITY * names.len()].into_boxed_slice();
        seen.fill(std::hint::black_box(0));
        ids.fill(std::hint::black_box(0));
        t_ns.fill(std::hint::black_box(0));
        Tracer {
            enabled: AtomicBool::new(true),
            table: Mutex::new(Table { seen, ids, t_ns }),
            stage_lag,
            intervals,
            completed: registry.counter(&format!("{prefix}_completed_total")),
            lost,
            stages: PhantomData,
        }
    }

    /// Disable (or re-enable) stamping and closing; a disabled tracer's
    /// `stamp`/`close` are one atomic load. [`flush`](Self::flush)
    /// still accounts whatever is resident.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether stamping is active.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Stamp `stage` of trace `id` at `now_s` (clock seconds; stored as
    /// integer nanoseconds). Creates the trace on first stamp; if the
    /// probe window is full the displaced resident is finalised as lost.
    pub fn stamp(&self, id: u64, stage: S, now_s: f64) {
        self.stamp_batch(stage, now_s, [id]);
    }

    /// Stamp `stage` for every id in `ids` at one shared timestamp,
    /// taking the table lock once for the whole batch — the ingest
    /// hot-path amortisation (a drained batch shares one drain instant
    /// anyway).
    pub fn stamp_batch(&self, stage: S, now_s: f64, ids: impl IntoIterator<Item = u64>) {
        if !self.enabled() {
            return;
        }
        let (stage, now_ns) = (stage.index(), to_ns(now_s));
        let n = S::NAMES.len();
        let mut g = self.table.lock();
        for id in ids {
            let i = match Self::probe(&g, id) {
                Ok(i) => i,
                Err(i) => {
                    if g.seen[i] != 0 {
                        self.finalize_lost(g.seen[i]);
                        g.seen[i] = 0;
                    }
                    g.ids[i] = id;
                    i
                }
            };
            if g.seen[i] & (1 << stage) == 0 {
                g.seen[i] |= 1 << stage;
                g.t_ns[i * n + stage] = now_ns;
            }
        }
    }

    /// Close trace `id`: fold its lags and intervals into the histograms
    /// and count it completed. No-op if the trace is not resident.
    pub fn close(&self, id: u64) {
        if !self.enabled() {
            return;
        }
        let n = S::NAMES.len();
        let mut t_ns = [0u64; MAX_STAGES];
        let seen = {
            let mut g = self.table.lock();
            let Ok(i) = Self::probe(&g, id) else {
                return;
            };
            t_ns[..n].copy_from_slice(&g.t_ns[i * n..(i + 1) * n]);
            std::mem::take(&mut g.seen[i])
        };
        self.finalize_completed(seen, &t_ns);
    }

    /// Finalise every resident trace as lost (end-of-run accounting:
    /// anything still open never made it through).
    pub fn flush(&self) {
        let mut g = self.table.lock();
        for seen in g.seen.iter_mut().filter(|s| **s != 0) {
            self.finalize_lost(std::mem::take(seen));
        }
    }

    /// Probe `id`'s window: `Ok(slot)` if it is resident, otherwise
    /// `Err(slot)` naming where to insert it — the window's first free
    /// slot, or its start (to be evicted) when the window is full.
    fn probe(g: &Table, id: u64) -> Result<usize, usize> {
        let mask = S::CAPACITY - 1;
        let start = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize) & mask;
        let mut free = None;
        for k in 0..PROBE {
            let i = (start + k) & mask;
            if g.seen[i] == 0 {
                free.get_or_insert(i);
            } else if g.ids[i] == id {
                return Ok(i);
            }
        }
        Err(free.unwrap_or(start))
    }

    fn finalize_completed(&self, seen: u8, t_ns: &[u64; MAX_STAGES]) {
        let stamped = || (0..S::NAMES.len()).filter(move |&i| seen & (1 << i) != 0);
        // Consecutive stamped pairs: a skipped stage folds the whole gap
        // into the edge leaving the earlier stamped stage.
        for (p, i) in stamped().zip(stamped().skip(1)) {
            self.stage_lag[p].record(t_ns[i].saturating_sub(t_ns[p]));
        }
        for (h, (_, interval)) in self.intervals.iter().zip(S::INTERVALS) {
            let (from, to) = match *interval {
                Interval::FirstToLast => (seen.trailing_zeros() as usize, last_stage(seen)),
                Interval::Between(a, b) => (a.index(), b.index()),
            };
            if seen & (1 << from) != 0 && seen & (1 << to) != 0 {
                h.record(t_ns[to].saturating_sub(t_ns[from]));
            }
        }
        self.completed.inc();
    }

    /// Count a trace lost at the furthest stage it reached.
    fn finalize_lost(&self, seen: u8) {
        self.lost[last_stage(seen)].inc();
    }
}

/// The furthest stage stamped in a non-empty `seen` mask.
fn last_stage(seen: u8) -> usize {
    (u8::BITS - 1 - seen.leading_zeros()) as usize
}

impl<S: StageSet> std::fmt::Debug for Tracer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("prefix", &S::PREFIX)
            .field("enabled", &self.enabled())
            .field("completed", &self.completed.get())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(r: &MetricsRegistry, name: &str) -> u64 {
        r.find_counter(name).unwrap().get()
    }

    #[test]
    fn trace_id_is_deterministic_and_topic_sensitive() {
        let p = [0xD5u8; 32];
        let a = frame_trace_id("davide/node00/power/node", &p);
        let b = frame_trace_id("davide/node00/power/node", &p);
        let c = frame_trace_id("davide/node01/power/node", &p);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Only the first 24 payload bytes matter (the frame header).
        let mut p2 = p;
        p2[30] = 0;
        assert_eq!(a, frame_trace_id("davide/node00/power/node", &p2));
        let mut p3 = p;
        p3[3] = 0;
        assert_ne!(a, frame_trace_id("davide/node00/power/node", &p3));
    }

    #[test]
    fn complete_frame_trace_records_e2e_and_stage_lags() {
        let r = MetricsRegistry::new();
        let t = Tracer::<Stage>::new(&r);
        let id = frame_trace_id("t", b"payload-header-bytes-....");
        t.stamp(id, Stage::BrokerPublish, 1.0);
        t.stamp(id, Stage::SessionDeliver, 1.0);
        t.stamp(id, Stage::IngestAppend, 2.0);
        t.stamp(id, Stage::SchedulerTick, 2.0);
        t.stamp(id, Stage::DvfsPublish, 2.0);
        t.close(id);
        assert_eq!(counter(&r, "obs_trace_completed_total"), 1);
        let e2e = r.find_histogram("obs_trace_e2e_ns").unwrap().snapshot();
        assert_eq!(e2e.count, 1);
        assert_eq!(e2e.max, 1_000_000_000);
        // deliver → ingest carries the 1 s hop.
        let lag = r
            .find_histogram("obs_trace_stage_ns{from=\"session_deliver\",to=\"ingest_append\"}")
            .unwrap()
            .snapshot();
        assert_eq!(lag.count, 1);
        assert_eq!(lag.max, 1_000_000_000);
        // Closed traces are no longer resident: a second close is a no-op.
        t.close(id);
        assert_eq!(counter(&r, "obs_trace_completed_total"), 1);
    }

    #[test]
    fn full_grant_span_records_apply_and_e2e_latency() {
        let r = MetricsRegistry::new();
        let t = Tracer::<GrantStage>::new(&r);
        t.stamp(7, GrantStage::FedSplit, 100.0);
        t.stamp(7, GrantStage::BridgeDeliver, 100.0);
        t.stamp(7, GrantStage::RackReceive, 130.0);
        t.stamp(7, GrantStage::CapCommand, 130.0);
        t.stamp(7, GrantStage::PowerCrossing, 160.0);
        t.close(7);
        assert_eq!(counter(&r, "obs_grant_completed_total"), 1);
        let apply = r.find_histogram("obs_grant_apply_ns").unwrap().snapshot();
        assert_eq!(apply.count, 1);
        assert_eq!(apply.sum, 30_000_000_000);
        let e2e = r.find_histogram("obs_grant_e2e_ns").unwrap().snapshot();
        assert_eq!(e2e.sum, 60_000_000_000);
    }

    #[test]
    fn duplicate_stamp_keeps_first_timestamp() {
        let r = MetricsRegistry::new();
        let t = Tracer::<GrantStage>::new(&r);
        t.stamp(3, GrantStage::FedSplit, 10.0);
        t.stamp(3, GrantStage::RackReceive, 40.0);
        // A broker restart replays the retained grant; the duplicate
        // stamp must not move the timestamp.
        t.stamp(3, GrantStage::RackReceive, 70.0);
        t.stamp(3, GrantStage::PowerCrossing, 50.0);
        t.close(3);
        let e2e = r.find_histogram("obs_grant_e2e_ns").unwrap().snapshot();
        assert_eq!(e2e.sum, 40_000_000_000);
        // Without a cap command the apply interval is not recorded.
        let apply = r.find_histogram("obs_grant_apply_ns").unwrap().snapshot();
        assert_eq!(apply.count, 0);
    }

    #[test]
    fn flush_counts_unclosed_traces_as_lost_by_furthest_stage() {
        let r = MetricsRegistry::new();
        let t = Tracer::<Stage>::new(&r);
        t.stamp(1, Stage::BrokerPublish, 0.0);
        t.stamp(2, Stage::BrokerPublish, 0.0);
        t.stamp(2, Stage::SessionDeliver, 0.1);
        t.flush();
        let lost = |stage| counter(&r, &format!("obs_trace_lost_total{{last=\"{stage}\"}}"));
        assert_eq!(lost("broker_publish"), 1);
        assert_eq!(lost("session_deliver"), 1);
        assert_eq!(counter(&r, "obs_trace_completed_total"), 0);
        // Flushed slots are gone: closing or flushing again finds nothing.
        t.close(1);
        t.flush();
        assert_eq!(lost("broker_publish"), 1);
        assert_eq!(counter(&r, "obs_trace_completed_total"), 0);
    }

    #[test]
    fn table_eviction_finalizes_displaced_trace_as_lost() {
        let r = MetricsRegistry::new();
        let t = Tracer::<Stage>::new(&r);
        // Far more traces than capacity: evictions must not panic and
        // must account every displaced trace as lost.
        let n = 2 * Stage::CAPACITY as u64;
        t.stamp_batch(Stage::BrokerPublish, 0.0, 0..n);
        t.flush();
        assert_eq!(
            counter(&r, "obs_trace_lost_total{last=\"broker_publish\"}"),
            n
        );
    }

    #[test]
    fn disabled_tracer_stamps_nothing() {
        let r = MetricsRegistry::new();
        let t = Tracer::<GrantStage>::new(&r);
        t.set_enabled(false);
        t.stamp(9, GrantStage::FedSplit, 1.0);
        t.stamp(9, GrantStage::PowerCrossing, 2.0);
        t.close(9);
        t.flush();
        assert_eq!(counter(&r, "obs_grant_completed_total"), 0);
        assert_eq!(counter(&r, "obs_grant_lost_total{last=\"fed_split\"}"), 0);
        assert!(!t.enabled());
    }
}
