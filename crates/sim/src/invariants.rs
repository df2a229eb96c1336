//! The invariant checker.
//!
//! After every control period the harness feeds the checker ground truth
//! it alone can see (true draws, true delivery times, fault state) plus
//! the control plane's externally observable view, and the checker
//! asserts the loop's safety contract:
//!
//! * **INV-CAP** — aggregate true power never exceeds the active cap
//!   beyond the reactive controller's overshoot budget (`busy · band`)
//!   for longer than the scenario's grace window, whenever the loop can
//!   actually see the overcap (telemetry fresh, broker up).
//! * **INV-ENERGY** — energy accounting is conserved: per-node truth
//!   sums to the facility total, per-job plus idle sums to the total,
//!   the management store holds *exactly* the samples the delivery
//!   order entitles it to (a differential model replicates the store's
//!   monotonic acceptance rule over faults), and for fault-free jobs
//!   the telemetry-measured energy matches plant truth within noise.
//! * **INV-STALE** — a busy node whose telemetry is demonstrably old
//!   must be estimated by prediction, not a frozen sample, and the run
//!   report must own up to at least the provable stale node-seconds.
//! * **INV-CONVERGE** — retained DVFS commands converge: per-node
//!   command spacing respects the ladder's sustain time (no flapping),
//!   and at end of run the broker's retained command mirrors the
//!   controller's final state bit-for-rendered-bit.

use davide_sched::controlplane::speed_topic;
use davide_sched::{ControlPlane, ControlPlaneReport};
use davide_telemetry::gateway::power_topic;
use davide_telemetry::tsdb::Resolution;

/// One invariant breach, with the virtual time it was detected at.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant tripped (`"cap"`, `"energy-conservation"`,
    /// `"energy-store"`, `"energy-job"`, `"stale-fallback"`,
    /// `"stale-accounting"`, `"converge-spacing"`,
    /// `"converge-retained"`).
    pub invariant: &'static str,
    /// Detection time, virtual seconds (end-of-run checks use the final
    /// tick).
    pub t_s: f64,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] t={:.1}s: {}",
            self.invariant, self.t_s, self.detail
        )
    }
}

/// Differential model of the management store: replicates
/// `TsDb::append_frame_id`'s monotonic acceptance rule over the *actual*
/// delivery order (duplicates, reorders and all), so the checker can
/// assert the store holds exactly the entitled samples — no more (drop
/// duplicates), no fewer (keep everything in order).
#[derive(Debug, Clone)]
pub struct StoreModel {
    last_t: Vec<f64>,
    count: Vec<u64>,
    sum: Vec<f64>,
}

impl StoreModel {
    /// Model for `n` node series, all empty.
    pub fn new(n: usize) -> Self {
        StoreModel {
            last_t: vec![f64::NEG_INFINITY; n],
            count: vec![0; n],
            sum: vec![0.0; n],
        }
    }

    /// One frame delivered to the control plane for `node`, in delivery
    /// order. Mirrors the store's rule: a frame starting at or after the
    /// series tail is absorbed whole; otherwise samples are filtered
    /// individually against the advancing tail.
    pub fn deliver(&mut self, node: usize, t0: f64, dt: f64, watts: &[f32]) {
        let n = watts.len();
        if n == 0 {
            return;
        }
        if t0 < self.last_t[node] || dt < 0.0 {
            for (i, &v) in watts.iter().enumerate() {
                let t = t0 + i as f64 * dt;
                if t >= self.last_t[node] {
                    self.last_t[node] = t;
                    self.count[node] += 1;
                    self.sum[node] += v as f64;
                }
            }
            return;
        }
        self.last_t[node] = t0 + (n - 1) as f64 * dt;
        self.count[node] += n as u64;
        self.sum[node] += watts.iter().map(|&v| v as f64).sum::<f64>();
    }

    /// Samples the model says the store must hold for `node`.
    pub fn count(&self, node: usize) -> u64 {
        self.count[node]
    }

    /// Mean of the accepted samples, if any.
    pub fn mean(&self, node: usize) -> Option<f64> {
        (self.count[node] > 0).then(|| self.sum[node] / self.count[node] as f64)
    }
}

/// Checker tolerances and loop constants, frozen at harness start.
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// Nodes under control.
    pub n_nodes: u32,
    /// The facility cap, watts.
    pub cap_w: f64,
    /// Per-node hysteresis band of the reactive ladder, watts.
    pub band_w: f64,
    /// Ladder sustain time — the anti-flap floor on command spacing,
    /// seconds.
    pub sustain_s: f64,
    /// Nominal telemetry deadline the checker audits against, seconds.
    pub deadline_s: f64,
    /// INV-CAP grace window, seconds.
    pub cap_grace_s: f64,
    /// Control period, seconds.
    pub tick_s: f64,
    /// Telemetry noise (1σ, relative) for the job-energy tolerance.
    pub noise: f64,
    /// Gateway sample spacing, seconds.
    pub sample_dt_s: f64,
}

/// Ground truth for one control period, assembled by the harness.
#[derive(Debug)]
pub struct TickTruth<'a> {
    /// True aggregate draw over the period just advanced, watts.
    pub sys_w: f64,
    /// True broker state.
    pub broker_down: bool,
    /// Per node: true wall time up to which telemetry has actually been
    /// delivered (`NEG_INFINITY` before the first frame).
    pub delivered_until: &'a [f64],
    /// Per node: true dead/alive state.
    pub dead: &'a [bool],
    /// Per node: whether a clock fault has ever touched the gateway
    /// (its reported timestamps are untrustworthy; staleness checks
    /// skip it).
    pub clock_faulted: &'a [bool],
}

/// Truth record of one job's life on the plant.
#[derive(Debug, Clone)]
pub struct JobTruth {
    /// Job id.
    pub id: u64,
    /// Placement time, seconds.
    pub start_s: f64,
    /// Completion (or abort) time, seconds.
    pub end_s: f64,
    /// Nodes it ran on.
    pub nodes: Vec<u32>,
    /// True energy drawn by those nodes while it ran, joules.
    pub energy_j: f64,
    /// True when no fault window overlapped the job on any of its
    /// nodes — only these are held to the telemetry-vs-truth energy
    /// comparison.
    pub clean: bool,
    /// True when the job was killed by a node death.
    pub aborted: bool,
}

/// End-of-run ground truth.
#[derive(Debug)]
pub struct FinalTruth<'a> {
    /// Facility energy, joules (accumulated independently of the
    /// per-node and per-job ledgers below).
    pub total_energy_j: f64,
    /// Per-node energy, joules.
    pub per_node_energy_j: &'a [f64],
    /// Idle energy: draw of nodes with no job (and alive), joules.
    pub idle_energy_j: f64,
    /// Every job that ran, with its truth ledger.
    pub jobs: &'a [JobTruth],
    /// Final virtual time, seconds.
    pub t_s: f64,
}

/// The running checker; one per harness run.
pub struct InvariantChecker {
    cfg: CheckerConfig,
    violations: Vec<Violation>,
    overcap_streak_s: f64,
    overcap_flagged: bool,
    expected_stale_s: f64,
    last_cmd_s: Vec<f64>,
}

impl InvariantChecker {
    /// A fresh checker.
    pub fn new(cfg: CheckerConfig) -> Self {
        let n = cfg.n_nodes as usize;
        InvariantChecker {
            cfg,
            violations: Vec::new(),
            overcap_streak_s: 0.0,
            overcap_flagged: false,
            expected_stale_s: 0.0,
            last_cmd_s: vec![f64::NEG_INFINITY; n],
        }
    }

    /// Provable stale node-seconds accumulated so far (the lower bound
    /// the report must meet).
    pub fn expected_stale_s(&self) -> f64 {
        self.expected_stale_s
    }

    /// Update the cap the INV-CAP envelope audits against. Federated
    /// runs call this when a rack applies a new budget grant; the
    /// overcap streak deliberately survives the change, so a rack
    /// cannot launder a sustained overcap through a fresh grant — the
    /// grace window alone absorbs re-convergence.
    pub fn set_cap_w(&mut self, cap_w: f64) {
        self.cfg.cap_w = cap_w;
    }

    /// The cap currently audited against, watts.
    pub fn cap_w(&self) -> f64 {
        self.cfg.cap_w
    }

    /// The violations recorded so far, in detection order. Mid-run
    /// observers (the flight recorder) read this to notice the checker
    /// firing; [`finish`](Self::finish) still returns the complete list.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn flag(&mut self, invariant: &'static str, t_s: f64, detail: String) {
        self.violations.push(Violation {
            invariant,
            t_s,
            detail,
        });
    }

    /// The plant applied one speed command for `node`. `replayed` marks
    /// retained-store replay on reconnect, which is a restore, not a new
    /// controller action, and is exempt from the spacing bound.
    pub fn on_speed(&mut self, t_s: f64, node: u32, replayed: bool) {
        if replayed {
            return;
        }
        let last = self.last_cmd_s[node as usize];
        let gap = t_s - last;
        if last.is_finite() && gap < self.cfg.sustain_s - 1e-6 {
            self.flag(
                "converge-spacing",
                t_s,
                format!(
                    "node {node}: commands {gap:.2}s apart, sustain floor {:.2}s (flapping)",
                    self.cfg.sustain_s
                ),
            );
        }
        self.last_cmd_s[node as usize] = t_s;
    }

    /// One control period's worth of checks, after the plant advanced
    /// over `[t_s, t_s + dt_s)`.
    pub fn on_tick(&mut self, t_s: f64, dt_s: f64, cp: &ControlPlane, truth: &TickTruth<'_>) {
        let snapshot = cp.snapshot();
        let busy: Vec<&davide_sched::NodeSnapshot> =
            snapshot.iter().filter(|n| n.job.is_some()).collect();

        // INV-CAP: truth draw against the envelope plus the ladder's
        // overshoot budget. The streak only accrues while the loop can
        // see: broker up and every busy node's telemetry actually fresh.
        let allowed = self.cfg.cap_w + busy.len() as f64 * self.cfg.band_w + 1.0;
        if truth.sys_w <= allowed {
            self.overcap_streak_s = 0.0;
            self.overcap_flagged = false;
        } else {
            let visible = !truth.broker_down
                && busy
                    .iter()
                    .all(|n| t_s - truth.delivered_until[n.node as usize] <= self.cfg.deadline_s);
            if visible {
                self.overcap_streak_s += dt_s;
                if self.overcap_streak_s > self.cfg.cap_grace_s && !self.overcap_flagged {
                    self.overcap_flagged = true;
                    self.flag(
                        "cap",
                        t_s,
                        format!(
                            "true draw {:.0} W > cap {:.0} W + budget {:.0} W for {:.0}s \
                             (grace {:.0}s) with fresh telemetry",
                            truth.sys_w,
                            self.cfg.cap_w,
                            allowed - self.cfg.cap_w,
                            self.overcap_streak_s,
                            self.cfg.cap_grace_s
                        ),
                    );
                }
            }
            // Blind overcap holds the streak: the loop cannot be blamed
            // for what it provably could not observe.
        }

        // INV-STALE: any busy node whose telemetry is provably older
        // than the deadline (with slack for delivery granularity) must
        // be estimated by prediction, and those node-seconds are owed to
        // the report.
        let slack = 2.0 * self.cfg.tick_s + 1.0;
        for n in &busy {
            let i = n.node as usize;
            if truth.clock_faulted[i] || !truth.delivered_until[i].is_finite() {
                continue;
            }
            if t_s - truth.delivered_until[i] <= self.cfg.deadline_s + slack {
                continue;
            }
            // Dead nodes are owed the *fallback* but not the accounting
            // lower bound: their jobs abort within a period, and the
            // loop frees the node in the same tick it learns of the
            // abort, before its staleness accrual runs.
            if !truth.dead[i] {
                self.expected_stale_s += dt_s;
            }
            let job = n.job.expect("busy node has a job");
            let est = cp
                .node_estimate(n.node, t_s)
                .expect("snapshot node is known");
            match cp.predicted_power(job) {
                Some(pred) if (est - pred).abs() <= 1e-9 => {}
                Some(pred) => self.flag(
                    "stale-fallback",
                    t_s,
                    format!(
                        "node {} telemetry {:.0}s old but estimate {est:.1} W is not the \
                         prediction {pred:.1} W (frozen sample?)",
                        n.node,
                        t_s - truth.delivered_until[i]
                    ),
                ),
                None => self.flag(
                    "stale-fallback",
                    t_s,
                    format!("node {} busy with job {job} unknown to the loop", n.node),
                ),
            }
        }
    }

    /// End-of-run checks; consumes the checker and returns every
    /// violation found over the whole run.
    pub fn finish(
        mut self,
        cp: &ControlPlane,
        broker: &davide_mqtt::Broker,
        report: &ControlPlaneReport,
        model: &StoreModel,
        truth: &FinalTruth<'_>,
    ) -> Vec<Violation> {
        let t = truth.t_s;
        let scale = truth.total_energy_j.abs().max(1.0);

        // INV-ENERGY (a): independently accumulated ledgers agree.
        let node_sum: f64 = truth.per_node_energy_j.iter().sum();
        if (truth.total_energy_j - node_sum).abs() > 1e-6 * scale {
            self.flag(
                "energy-conservation",
                t,
                format!(
                    "Σ per-node {node_sum:.3} J != facility total {:.3} J",
                    truth.total_energy_j
                ),
            );
        }
        let job_sum: f64 = truth.jobs.iter().map(|j| j.energy_j).sum();
        if (job_sum + truth.idle_energy_j - truth.total_energy_j).abs() > 1e-6 * scale {
            self.flag(
                "energy-conservation",
                t,
                format!(
                    "Σ per-job {job_sum:.3} J + idle {:.3} J != facility total {:.3} J",
                    truth.idle_energy_j, truth.total_energy_j
                ),
            );
        }

        // INV-ENERGY (b): the store holds exactly the entitled samples.
        for node in 0..self.cfg.n_nodes {
            let i = node as usize;
            let Some(id) = cp.db().lookup(&power_topic(node, "node")) else {
                if model.count(i) != 0 {
                    self.flag(
                        "energy-store",
                        t,
                        format!(
                            "node {node}: {} samples delivered but series missing",
                            model.count(i)
                        ),
                    );
                }
                continue;
            };
            let got = cp.db().count_id(id);
            if got != model.count(i) {
                self.flag(
                    "energy-store",
                    t,
                    format!(
                        "node {node}: store absorbed {got} samples, delivery order entitles \
                         exactly {}",
                        model.count(i)
                    ),
                );
            }
            // The mean compare needs every accepted sample: skip it once
            // the store's retention has evicted part of the series.
            let (db_mean, coverage) =
                cp.db()
                    .mean_id_with_coverage(id, Resolution::Raw, -1e18, 1e18);
            if let (Some(want), false) = (model.mean(i), coverage.evicted) {
                match db_mean {
                    Some(m) if (m - want).abs() <= 1e-9 * want.abs().max(1.0) => {}
                    other => self.flag(
                        "energy-store",
                        t,
                        format!("node {node}: store mean {other:?}, model mean {want:.6}"),
                    ),
                }
            }
        }

        // INV-ENERGY (c): fault-free completed jobs — telemetry energy
        // matches plant truth within measurement noise. A job whose raw
        // window the store's retention evicted (even in part) can no
        // longer be measured and is skipped.
        for j in truth.jobs.iter().filter(|j| j.clean && !j.aborted) {
            let dur = j.end_s - j.start_s;
            if dur <= 0.0 {
                continue;
            }
            let mut measured = 0.0;
            let mut missing = false;
            let mut evicted = false;
            for &n in &j.nodes {
                let Some(id) = cp.db().lookup(&power_topic(n, "node")) else {
                    missing = true;
                    continue;
                };
                let (mean, coverage) = cp.db().mean_id_with_coverage(
                    id,
                    Resolution::Raw,
                    j.start_s - 0.5,
                    j.end_s - 0.5,
                );
                evicted |= coverage.evicted;
                match mean {
                    Some(m) => measured += m * dur,
                    None => missing = true,
                }
            }
            if evicted {
                continue;
            }
            if missing {
                self.flag(
                    "energy-job",
                    t,
                    format!("clean job {}: telemetry missing for its window", j.id),
                );
                continue;
            }
            let n_samples = (j.nodes.len() as f64 * dur / self.cfg.sample_dt_s).max(1.0);
            let tol = (6.0 * self.cfg.noise / n_samples.sqrt() + 1e-3) * j.energy_j.max(1.0) + 1.0;
            if (measured - j.energy_j).abs() > tol {
                self.flag(
                    "energy-job",
                    t,
                    format!(
                        "clean job {}: telemetry energy {measured:.0} J vs truth {:.0} J \
                         (tol {tol:.0} J)",
                        j.id, j.energy_j
                    ),
                );
            }
        }

        // INV-STALE (accounting): the report owns at least the provable
        // stale node-seconds.
        if self.expected_stale_s > 1e-9 && report.stale_node_s + 1e-6 < self.expected_stale_s {
            self.flag(
                "stale-accounting",
                t,
                format!(
                    "report admits {:.1} stale node-seconds, ground truth proves ≥ {:.1}",
                    report.stale_node_s, self.expected_stale_s
                ),
            );
        }

        // INV-CONVERGE (retained): the durable command mirrors the
        // controller's final state for every node.
        for s in cp.snapshot() {
            match broker.retained_get(&speed_topic(s.node)) {
                Some(payload) => {
                    let parsed = std::str::from_utf8(&payload)
                        .ok()
                        .and_then(|p| p.parse::<f64>().ok());
                    match parsed {
                        Some(v) if (v - s.speed).abs() <= 1e-4 => {}
                        other => self.flag(
                            "converge-retained",
                            t,
                            format!(
                                "node {}: retained command {other:?} != controller speed {:.4}",
                                s.node, s.speed
                            ),
                        ),
                    }
                }
                None if s.level == 0 => {}
                None => self.flag(
                    "converge-retained",
                    t,
                    format!(
                        "node {}: controller at level {} but no retained command survives",
                        s.node, s.level
                    ),
                ),
            }
        }

        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_model_mirrors_monotonic_acceptance() {
        let mut m = StoreModel::new(2);
        // Bulk path.
        m.deliver(0, 0.0, 1.0, &[1.0, 2.0, 3.0]);
        assert_eq!(m.count(0), 3);
        // Duplicate frame: only the boundary sample (t == last_t) lands.
        m.deliver(0, 0.0, 1.0, &[1.0, 2.0, 3.0]);
        assert_eq!(m.count(0), 4);
        // Reordered older frame: fully stale, nothing lands.
        m.deliver(0, -5.0, 1.0, &[9.0, 9.0]);
        assert_eq!(m.count(0), 4);
        // Fresh frame after the tail: bulk again.
        m.deliver(0, 5.0, 1.0, &[4.0]);
        assert_eq!(m.count(0), 5);
        // Other series untouched.
        assert_eq!(m.count(1), 0);
        assert!(m.mean(1).is_none());
        let mean = m.mean(0).unwrap();
        assert!((mean - (1.0 + 2.0 + 3.0 + 3.0 + 4.0) / 5.0).abs() < 1e-12);
    }
}
