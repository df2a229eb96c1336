//! E22 — the closed power-control loop of Fig. 4, end to end: gateway
//! frames over MQTT, online prediction, proactive admission, reactive
//! per-node DVFS. One job trace run through three loop configurations
//! under the same cap, each on the sim harness's plant with its
//! ground-truth invariant checker auditing the run.

use crate::header;
use davide_sched::controlplane::ControlMode;
use davide_sim::{scenario, RunOutcome};

/// `--smoke` (or the env var it sets) shrinks e22 for CI.
pub const SMOKE_ENV: &str = "DAVIDE_EXPERIMENTS_SMOKE";

fn smoke() -> bool {
    std::env::var_os(SMOKE_ENV).is_some()
}

/// The E22 scenario in `mode`: 160 jobs over 1200 history, or 50 over
/// 400 under `--smoke`.
pub(crate) fn e22_scenario(mode: ControlMode) -> davide_sim::Scenario {
    if smoke() {
        scenario::e22(mode, 50, 400)
    } else {
        scenario::e22(mode, 160, 1200)
    }
}

/// E22 — open-loop vs reactive-only vs closed-loop on one trace.
pub fn e22() {
    header("e22", "Closed-loop power control plane (Fig. 4)");
    let probe = e22_scenario(ControlMode::ClosedLoop);
    println!(
        "nodes {}, cap {:.0} kW, per-app plant drift ±12 % vs training history{}",
        probe.n_nodes,
        probe.cap_w / 1e3,
        if smoke() { "  [smoke]" } else { "" }
    );

    let runs: Vec<RunOutcome> = [
        ControlMode::OpenLoop,
        ControlMode::ReactiveOnly,
        ControlMode::ClosedLoop,
    ]
    .into_iter()
    .map(|m| davide_sim::run(&e22_scenario(m)))
    .collect();

    println!(
        "\n{:<14} {:>6} {:>10} {:>10} {:>11} {:>9} {:>7} {:>7} {:>9} {:>6}",
        "mode",
        "jobs",
        "makespan",
        "ovrcap s",
        "ovrcap kWh",
        "MAPE %",
        "down",
        "up",
        "jobs/h",
        "viol"
    );
    for out in &runs {
        let r = &out.report;
        println!(
            "{:<14} {:>6} {:>9.1}h {:>10.0} {:>11.2} {:>9.2} {:>7} {:>7} {:>9.2} {:>6}",
            r.mode.name(),
            r.jobs_completed,
            r.makespan_s / 3600.0,
            r.overcap_s,
            r.overcap_energy_j / 3.6e6,
            r.online_mape_pct,
            r.steps_down,
            r.steps_up,
            r.throughput_jobs_per_h,
            out.violations.len(),
        );
    }

    // The checker's verdict per mode. The open and reactive-only loops
    // may trip INV-CAP (that is E22's point); the closed loop must not.
    println!("\ninvariant violations (ground-truth checker):");
    for out in &runs {
        let mode = out.report.mode.name();
        if out.violations.is_empty() {
            println!("  {mode:<14} none");
        }
        for v in &out.violations {
            println!("  {mode:<14} {v}");
        }
    }

    let open = &runs[0].report;
    let closed_run = &runs[2];
    let closed = &closed_run.report;
    assert!(
        closed_run.violations.is_empty(),
        "closed loop must hold every invariant: {:?}",
        closed_run.violations
    );
    assert!(
        closed.overcap_energy_j < open.overcap_energy_j,
        "closed loop must cut overcap energy: {:.0} J vs {:.0} J",
        closed.overcap_energy_j,
        open.overcap_energy_j
    );
    assert!(
        closed.throughput_jobs_per_h >= open.throughput_jobs_per_h,
        "closed loop must not pay in throughput: {:.3} vs {:.3} jobs/h",
        closed.throughput_jobs_per_h,
        open.throughput_jobs_per_h
    );
    let saved = 100.0 * (1.0 - closed.overcap_energy_j / open.overcap_energy_j.max(1e-9));
    println!("\nclosed loop cuts overcap energy by {saved:.1} % at equal-or-better");
    println!("throughput: the predictor learns the plant drift from telemetry while");
    println!("the ladder absorbs what admission could not foresee — the \"mix both\"");
    println!("strategy of §III-A2.");
}
