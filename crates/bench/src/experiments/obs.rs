//! E24 — the monitoring plane measured by itself: the E22 closed-loop
//! workload replayed with the `davide-obs` stack armed. Every pipeline
//! stage (broker publish → fan-out delivery into the ingest subscriber's
//! queue → ingest append → predictor update → scheduler tick → DVFS
//! publish) stamps the hub's frame tracer, the control loop's
//! instruments land in the shared registry, and the registry itself is
//! republished over the replay broker on the reserved `davide/obs/#`
//! namespace and re-ingested like node power.
//!
//! The report is the observability story of the PR: the control-loop
//! latency distribution (frame age at actuation and end-to-end trace
//! latency), per-stage frame-loss accounting under injected broker
//! loss, and the self-telemetry round trip.

use crate::header;
use davide_obs::{Stage, StageSet};
use davide_sched::controlplane::{replay_instrumented, ControlMode, ReplayConfig, ReplayObs};
use davide_sched::CapSchedule;

use super::controlplane::SMOKE_ENV;

fn smoke() -> bool {
    std::env::var_os(SMOKE_ENV).is_some()
}

/// E24 — instrumented E22 replay: latency distributions, per-stage
/// loss, self-telemetry round trip.
pub fn e24() {
    header("e24", "Self-instrumented control loop (obs stack)");
    let mut cfg = ReplayConfig::e22(ControlMode::ClosedLoop, 16, CapSchedule::constant(22_000.0));
    if smoke() {
        cfg.n_jobs = 50;
        cfg.n_history = 400;
    }
    // 5 % in-transit loss on the gateway → broker hop: these frames are
    // stamped at publish and then vanish, so they must surface in the
    // tracer's per-stage loss counters rather than disappear silently.
    cfg.p_frame_drop = 0.05;
    println!(
        "closed loop, 16 nodes, cap 22 kW, 5 % injected broker loss{}",
        if smoke() { "  [smoke]" } else { "" }
    );

    let mut obs = ReplayObs::new();
    let report = replay_instrumented(&cfg, Some(&mut obs));
    let reg = &obs.hub.registry;
    let counter = |n: &str| reg.find_counter(n).map(|c| c.get()).unwrap_or(0);
    let hist = |n: &str| reg.find_histogram(n).map(|h| h.snapshot());

    println!(
        "\njobs {} | makespan {:.1} h | frames ingested {} | samples stored {}",
        report.jobs_completed,
        report.makespan_s / 3600.0,
        counter("ctl_frames_total"),
        counter("ctl_samples_stored_total"),
    );

    // ── Control-loop latency. ──
    let age = hist("ctl_frame_age_ns").expect("frame-age histogram registered");
    let e2e = hist("obs_trace_e2e_ns").expect("e2e histogram registered");
    println!("\ncontrol-loop latency (per ingested frame):");
    println!(
        "  {:<26} {:>8} {:>9} {:>9} {:>9}",
        "distribution", "n", "p50", "p99", "max"
    );
    for (name, s) in [("frame age at actuation", &age), ("trace end-to-end", &e2e)] {
        println!(
            "  {:<26} {:>8} {:>8.1}s {:>8.1}s {:>8.1}s",
            name,
            s.count,
            s.quantile(0.50) as f64 / 1e9,
            s.quantile(0.99) as f64 / 1e9,
            s.max as f64 / 1e9,
        );
    }

    // ── Per-stage trace accounting. ──
    let completed = counter("obs_trace_completed_total");
    println!("\nper-stage frame accounting (completed {completed}):");
    for name in Stage::NAMES {
        let lost = counter(&format!("obs_trace_lost_total{{last=\"{name}\"}}"));
        if lost > 0 {
            println!("  lost after {name:<16} {lost:>8}");
        }
    }
    let lost_at_publish = counter("obs_trace_lost_total{last=\"broker_publish\"}");

    // ── Predictor and actuator instruments. ──
    if let Some(err) = hist("ctl_predictor_abs_err_w") {
        println!(
            "\npredictor |error| at completion: n={} p50={} W p99={} W",
            err.count,
            err.quantile(0.50),
            err.quantile(0.99)
        );
    }
    println!(
        "ladder: {} observations, {} down, {} up; overcap excursions p99 {} W",
        counter("cap_observations_total"),
        counter("cap_steps_down_total"),
        counter("cap_steps_up_total"),
        hist("cap_overcap_w").map(|s| s.quantile(0.99)).unwrap_or(0),
    );

    // ── Self-telemetry round trip. ──
    println!(
        "\nself-telemetry: {} obs samples round-tripped over MQTT into {} series",
        obs.self_samples,
        davide_telemetry::SeriesRead::series_names(&obs.self_db).len(),
    );

    assert!(age.count > 0, "latency distribution must be measured");
    assert!(completed > 0, "frames must complete the causal chain");
    assert!(
        lost_at_publish > 0,
        "injected broker loss must surface in per-stage counters"
    );
    assert!(
        obs.self_samples > 0,
        "the registry must round-trip through the telemetry pipeline"
    );
    println!("\nthe loop watches itself with its own plumbing: latency is a measured");
    println!("distribution, loss is attributed to a pipeline stage, and the metrics");
    println!("travel the same EG → MQTT → TsDb path as node power (Fig. 4, inward).");
}
