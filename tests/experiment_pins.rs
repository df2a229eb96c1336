//! Behaviour pins for two time loops: E11's scheduling simulator (the
//! five policies under a 60 kW envelope, 400 jobs) and E22's closed
//! power-control loop on the sim harness (all three modes at smoke
//! size: 50 jobs, 400 history). Each run's `{:?}` text is digested with
//! FNV-1a and checked against a constant, so a refactor that changes
//! any outcome bit shows up here; each test also reruns in-process and
//! demands identical text.

use davide::predictor::ModelKind;
use davide::sched::{
    simulate, CapSchedule, ControlMode, EasyBackfill, Fcfs, JobId, Policy, PowerPredictor,
    SimConfig, SimOutcome, WorkloadConfig, WorkloadGenerator,
};
use std::collections::{BTreeMap, HashMap};

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-job maps are `HashMap`s, whose iteration order changes from run
/// to run; sort them so the text is a pure function of the outcome.
fn sorted<V>(m: &HashMap<JobId, V>) -> BTreeMap<&JobId, &V> {
    m.iter().collect()
}

fn outcome_text(o: &SimOutcome) -> String {
    format!(
        "{} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
        o.policy,
        o.config,
        o.completed,
        o.timeline,
        sorted(&o.job_energy_j),
        sorted(&o.placements),
        sorted(&o.diameters),
        o.makespan_s,
    )
}

/// E11's policy set at the 60 kW envelope (`run_policies(400, 60.0, 11)`).
fn e11_texts() -> Vec<String> {
    let cfg = WorkloadConfig {
        mean_interarrival_s: 60.0,
        ..WorkloadConfig::default()
    };
    let mut gen = WorkloadGenerator::new(cfg, 11);
    let history = gen.trace(2000);
    let mut trace = gen.trace(400);
    PowerPredictor::from_kind(ModelKind::linreg(), &history, 24).annotate(&mut trace);
    let capped =
        |reactive| SimConfig::davide().with_cap_schedule(CapSchedule::constant(60_000.0), reactive);
    let runs: Vec<(Box<dyn Policy>, SimConfig)> = vec![
        (Box::new(Fcfs), SimConfig::davide()),
        (Box::new(EasyBackfill::new()), SimConfig::davide()),
        (Box::new(EasyBackfill::new()), capped(true)),
        (Box::new(EasyBackfill::power_aware()), capped(false)),
        (Box::new(EasyBackfill::power_aware()), capped(true)),
    ];
    runs.into_iter()
        .map(|(mut policy, config)| outcome_text(&simulate(&trace, policy.as_mut(), config)))
        .collect()
}

/// One E22 mode at `--smoke` size: the loop's end-of-run report.
fn e22_text(mode: ControlMode) -> String {
    let sc = davide_sim::scenario::e22(mode, 50, 400);
    format!("{:?}", davide_sim::run(&sc).report)
}

fn check(texts: &[String], rerun: &[String], pinned: &[u64]) {
    assert_eq!(texts, rerun, "an in-process rerun changed the outcome");
    let digests: Vec<u64> = texts.iter().map(|t| fnv1a(t)).collect();
    assert_eq!(digests, pinned, "outcome digests moved: {digests:#018x?}");
}

#[test]
fn e11_policy_outcomes_are_pinned() {
    check(
        &e11_texts(),
        &e11_texts(),
        &[
            0x948646c04826e7bd,
            0xf680d8882dccc2dc,
            0x83be376335693209,
            0x914fec058e34a3d0,
            0xa5311ee0f97c698b,
        ],
    );
}

// One test per E22 mode, so the three runs proceed in parallel.
#[test]
fn e22_open_loop_is_pinned() {
    let mode = ControlMode::OpenLoop;
    check(&[e22_text(mode)], &[e22_text(mode)], &[0x3da47cb03477b26d]);
}

#[test]
fn e22_reactive_only_is_pinned() {
    let mode = ControlMode::ReactiveOnly;
    check(&[e22_text(mode)], &[e22_text(mode)], &[0x4aebc5063e67afe4]);
}

#[test]
fn e22_closed_loop_is_pinned() {
    let mode = ControlMode::ClosedLoop;
    check(&[e22_text(mode)], &[e22_text(mode)], &[0xef1fe36b86974a19]);
}
