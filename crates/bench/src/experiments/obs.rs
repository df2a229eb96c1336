//! E24 — the monitoring plane measured by itself: the E22 closed-loop
//! workload run on the sim harness, whose `davide-obs` stack is always
//! armed. Every pipeline stage (broker publish → fan-out delivery into
//! the ingest subscriber's queue → ingest append → predictor update →
//! scheduler tick → DVFS publish) stamps the hub's frame tracer, and the
//! control loop's instruments land in the shared registry. At the end
//! of the run the registry is published once over MQTT on the reserved
//! `davide/obs/#` namespace and ingested like node power.
//!
//! The report is the observability story of the loop: the control-loop
//! latency distribution (frame age at actuation and end-to-end trace
//! latency), per-stage frame-loss accounting under injected broker
//! loss, and the self-telemetry round trip.

use crate::header;
use davide_mqtt::Broker;
use davide_obs::{MetricsRegistry, Stage, StageSet, OBS_FILTER};
use davide_sched::controlplane::ControlMode;
use davide_sim::Fault;
use davide_telemetry::ingest::FrameIngestor;
use davide_telemetry::selfmon::SelfMonitor;
use davide_telemetry::TsDb;

use super::controlplane::SMOKE_ENV;

fn smoke() -> bool {
    std::env::var_os(SMOKE_ENV).is_some()
}

/// Publish one snapshot of `registry`, stamped `t_s` (> 0, the end of
/// the run), through a [`SelfMonitor`] on a fresh broker, and ingest it
/// on [`OBS_FILTER`] into a store like any node's power. Returns the
/// store and the samples it absorbed.
pub fn self_telemetry_round_trip(registry: &MetricsRegistry, t_s: f64) -> (TsDb, u64) {
    let broker = Broker::default();
    let mut ingest =
        FrameIngestor::subscribe(&broker, "obs-ingest", &[OBS_FILTER]).expect("subscribe obs");
    // One period that ends at `t_s`: the pump below is due exactly once.
    let mut mon = SelfMonitor::connect(&broker, "obs-selfmon", t_s).expect("selfmon connect");
    mon.pump(t_s, registry);
    let mut db = TsDb::new();
    let samples = ingest.drain_into(&mut db) as u64;
    (db, samples)
}

/// E24 — the instrumented E22 closed loop: latency distributions,
/// per-stage loss, self-telemetry round trip.
pub fn e24() {
    header("e24", "Self-instrumented control loop (obs stack)");
    let mut sc = super::controlplane::e22_scenario(ControlMode::ClosedLoop);
    // 5 % in-transit loss on the gateway → broker hop: these frames are
    // stamped at publish and then vanish, so they must surface in the
    // tracer's per-stage loss counters rather than disappear silently.
    sc.faults = vec![Fault::FrameLoss {
        node: None,
        p: 0.05,
        from_s: 0.0,
        until_s: f64::INFINITY,
    }];
    println!(
        "closed loop, {} nodes, cap {:.0} kW, 5 % injected broker loss{}",
        sc.n_nodes,
        sc.cap_w / 1e3,
        if smoke() { "  [smoke]" } else { "" }
    );

    let out = davide_sim::run(&sc);
    let report = &out.report;
    let reg = &out.obs.registry;
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
    let (self_db, self_samples) = self_telemetry_round_trip(reg, out.truth.makespan_s);
    println!(
        "\nself-telemetry: {} obs samples round-tripped over MQTT into {} series",
        self_samples,
        davide_telemetry::SeriesRead::series_names(&self_db).len(),
    );

    assert!(age.count > 0, "latency distribution must be measured");
    assert!(completed > 0, "frames must complete the causal chain");
    assert!(
        lost_at_publish > 0,
        "injected broker loss must surface in per-stage counters"
    );
    assert!(
        self_samples > 0,
        "the registry must round-trip through the telemetry pipeline"
    );
    println!("\nthe loop watches itself with its own plumbing: latency is a measured");
    println!("distribution, loss is attributed to a pipeline stage, and the metrics");
    println!("travel the same EG → MQTT → TsDb path as node power (Fig. 4, inward).");
}
