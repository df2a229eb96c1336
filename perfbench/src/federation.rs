//! `federation`: an E29-shaped federated simulation, 8 racks × 45
//! nodes with tiered per-rack stores under one site budget. The only
//! workload where the control plane, the simulation kernel, the MQTT
//! bridges and the federator do the work. The run simulates a stream
//! of scenarios drawn from the seed, back to back; each call is one
//! batch job whose latency is its wall time. One scenario's speed swings
//! by about ±15 % with its seed, so the run averages over many small ones.

use std::hint::black_box;
use std::time::Instant;

use davide_core::rng::Rng;
use davide_sim::federation::{run_federated_with_db_config, FedOutcome, FedScenario};
use davide_telemetry::{TieringConfig, TsDbConfig};

use crate::common::{median_s, peak_rss_mb, percentile, Args, Outcome, Tracer};

const RACKS: usize = 8;
const NODES_PER_RACK: u32 = 45;
/// Sized so one call takes a few hundred ms on the 2-core dev box,
/// giving a few dozen calls per run.
const JOBS_PER_RACK: usize = 100;
/// `setup_s` is the median over this many builds of the federation:
/// the scenario and, inside the call, every rack's broker, bridges,
/// store and control plane, driven with one job per rack. Building the
/// scenario alone takes about a microsecond, too short to time steadily.
/// A build takes about 90 ms and varies by a quarter from one build to
/// the next on a shared host, so the median needs this many.
const SETUPS: usize = 21;
/// At least this many measured calls, however short `--seconds` is.
const MIN_CALLS: usize = 3;

fn scenario(seed: u64) -> FedScenario {
    FedScenario::sized("perfbench", seed, RACKS, NODES_PER_RACK, JOBS_PER_RACK)
}

/// Failed units of one call: incomplete jobs, invariant violations, and
/// one for a site ledger that differs from the sum of the rack ledgers.
fn call_failures(out: &FedOutcome) -> (u64, Vec<String>) {
    let mut failed = 0u64;
    let mut why = Vec::new();
    for r in &out.racks {
        let missing = (JOBS_PER_RACK as u64).saturating_sub(r.report.jobs_completed);
        if missing > 0 {
            why.push(format!("{}: {missing} jobs incomplete", r.scenario));
        }
        failed += missing;
    }
    let violations = out.all_violations();
    if let Some((who, v)) = violations.first() {
        why.push(format!(
            "{} violations, first {who}: {v:?}",
            violations.len()
        ));
    }
    failed += violations.len() as u64;
    let racks = out.racks_energy_j();
    if (out.global_energy_j - racks).abs() > 1e-9 * racks + 1e-6 {
        why.push(format!(
            "site ledger {} J != Σ racks {racks} J",
            out.global_energy_j
        ));
        failed += 1;
    }
    (failed, why)
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let base = Instant::now();
    let mut tr = Tracer::new(args.trace, base, 0);
    let db = TsDbConfig {
        tiering: Some(TieringConfig::default()),
        ..TsDbConfig::default()
    };

    let mut seeds = Rng::seed_from(args.seed);
    let first_seed = seeds.next_u64();

    // The first scenario warms up the process; re-run at the end, it
    // must reproduce its digest.
    let t = Instant::now();
    let first = run_federated_with_db_config(&scenario(first_seed), db.clone());
    tr.span("federation.warmup_call", 0, 0, t, Instant::now());
    let reference = first.digest();

    let mut setup = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t = Instant::now();
        let fs = FedScenario::sized("perfbench-setup", first_seed, RACKS, NODES_PER_RACK, 1);
        black_box(run_federated_with_db_config(&fs, db.clone()));
        setup.push(t.elapsed().as_secs_f64());
        tr.span("setup.federation_build", 0, 0, t, Instant::now());
    }

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut call_ns = Vec::new();
    let (mut sim_s, mut wall_s) = (0.0, 0.0);
    let mut failed = 0u64;
    let mut reasons = Vec::new();
    while call_ns.len() < MIN_CALLS || Instant::now() < deadline {
        let fs = scenario(seeds.next_u64());
        let t0 = Instant::now();
        let out = run_federated_with_db_config(&fs, db.clone());
        let t1 = Instant::now();
        tr.span("federation.call", call_ns.len() as u64 + 1, 0, t0, t1);
        let (f, why) = call_failures(&out);
        failed += f;
        reasons.extend(why);
        // A failed call counts in the latency tail.
        call_ns.push(if f == 0 {
            (t1 - t0).as_nanos() as u64
        } else {
            u64::MAX
        });
        let makespan = out
            .racks
            .iter()
            .map(|r| r.truth.makespan_s)
            .fold(0.0, f64::max);
        sim_s += makespan;
        wall_s += (t1 - t0).as_secs_f64();
    }
    let again = run_federated_with_db_config(&scenario(first_seed), db.clone());
    let digest_stable = again.digest() == reference;
    failed += u64::from(!digest_stable);
    let calls = call_ns.len() as u64;
    o.attempted = (calls + 2) * (RACKS * JOBS_PER_RACK) as u64;
    let (first_failed, first_why) = call_failures(&first);
    o.failed = (failed + first_failed).min(o.attempted);
    o.check(
        "federation.clean_complete_conserved",
        reasons.is_empty() && first_failed == 0,
        if reasons.is_empty() && first_why.is_empty() {
            format!("{calls} calls: 0 violations, every job done, site ledger = Σ racks")
        } else {
            [first_why, reasons].concat().join("; ")
        },
    );
    o.check(
        "federation.digest_stable_per_seed",
        digest_stable,
        format!(
            "first scenario re-run gives {:#018x}, first run {reference:#018x}",
            again.digest()
        ),
    );
    o.check(
        "federation.rebalanced",
        first.rebalances > 0,
        format!("{} rebalances", first.rebalances),
    );

    call_ns.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    let speed = sim_s / wall_s;
    let setup_s = median_s(setup);
    let rss = peak_rss_mb();
    o.e2e.insert("throughput", speed);
    o.e2e
        .insert("latency_ms_p50", ms(percentile(&call_ns, 0.50)));
    o.e2e
        .insert("latency_ms_p95", ms(percentile(&call_ns, 0.95)));
    o.e2e.insert("setup_s", setup_s);
    o.e2e.insert("peak_rss_mb", rss);
    o.named("sim_speed_x", speed, "sim s/wall s");
    o.named("setup_s", setup_s, "s");
    o.named("peak_rss_mb", rss, "MB");
    o.notes.push(format!(
        "federation: {RACKS} racks × {NODES_PER_RACK} nodes × {JOBS_PER_RACK} jobs/rack, {calls} measured calls, \
         each a different scenario; latency is per-call wall time"
    ));
    o.notes.push(format!(
        "federation: first scenario digest {reference:#018x}"
    ));

    let l = &mut o.layers;
    let sum =
        |f: &dyn Fn(&davide_sim::RunOutcome) -> u64| first.racks.iter().map(f).sum::<u64>() as f64;
    l.insert("controlplane.steps_down", sum(&|r| r.report.steps_down));
    l.insert("controlplane.steps_up", sum(&|r| r.report.steps_up));
    l.insert(
        "controlplane.samples_stored",
        sum(&|r| r.report.samples_stored),
    );
    l.insert("sim.frames_delivered", sum(&|r| r.truth.frames_delivered));
    l.insert("sim.jobs_completed", sum(&|r| r.report.jobs_completed));
    l.insert("broker.frames", sum(&|r| r.truth.frames_delivered));
    l.insert("federation.rebalances", first.rebalances as f64);
    l.insert("federation.grant_events", first.fed_log.len() as f64);
    l.insert("federation.busy_s", ms(percentile(&call_ns, 0.50)) / 1e3);
    o.notes.push(
        "federation: busy_s is the median call; splitting it by stage needs an in-program tracer"
            .into(),
    );
    o.spans = tr.spans;
    o
}
