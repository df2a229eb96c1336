//! CI observability smoke: run a short closed-loop scenario on the sim
//! harness (whose obs stack is always armed), render the metrics
//! exposition, and fail if the obs stack produced an empty registry, a
//! non-finite sample, or a dead latency histogram, or if the finished
//! registry does not round-trip over MQTT into a store. Then run one
//! small federated scenario twice — tracing disarmed and armed — and
//! fail unless the digests are bit-identical, grant spans completed on
//! every rack, and the tracing overhead stays inside the E29 smoke gate.
//!
//! Exit code 0 only when every check holds.

use davide_bench::experiments::obs::self_telemetry_round_trip;
use davide_sched::ControlMode;
use davide_sim::federation::{run_federated_traced, FedScenario};
use davide_sim::{scenario, Fault};
use davide_telemetry::TsDbConfig;

fn main() {
    let mut sc = scenario::e22(ControlMode::ClosedLoop, 25, 400);
    sc.n_nodes = 8;
    sc.cap_w = 11_000.0;
    sc.faults = vec![Fault::FrameLoss {
        node: None,
        p: 0.02,
        from_s: 0.0,
        until_s: f64::INFINITY,
    }];

    let out = davide_sim::run(&sc);
    let report = &out.report;
    let reg = &out.obs.registry;
    let mut failed = false;

    // Every exported sample must be finite: a NaN gauge or histogram
    // quantile means an instrument was registered but never became
    // meaningful, and it would poison downstream dashboards silently.
    let mut samples = 0usize;
    reg.visit_samples(|name, v| {
        samples += 1;
        if !v.is_finite() {
            println!("non-finite series: {name} = {v}");
            failed = true;
        }
    });
    if samples == 0 {
        println!("empty registry: no series exported");
        failed = true;
    }

    // The load-bearing families must exist and have fired.
    for family in [
        "mqtt_published_total",
        "mqtt_delivered_total",
        "ctl_frames_total",
        "ctl_ticks_total",
        "obs_trace_completed_total",
    ] {
        match reg.find_counter(family).map(|c| c.get()) {
            Some(n) if n > 0 => {}
            got => {
                println!("dead counter {family}: {got:?}");
                failed = true;
            }
        }
    }
    let age = reg.find_histogram("ctl_frame_age_ns").map(|h| h.snapshot());
    match &age {
        Some(s) if s.count > 0 => {}
        _ => {
            println!("control-loop latency histogram empty or missing");
            failed = true;
        }
    }
    let (_, self_samples) = self_telemetry_round_trip(reg, out.truth.makespan_s);
    if self_samples == 0 {
        println!("self-telemetry round trip stored nothing");
        failed = true;
    }

    let text = reg.render_text();
    if text.is_empty() || !text.contains("# TYPE") {
        println!("exposition render is empty or malformed");
        failed = true;
    }

    println!(
        "obs-smoke: {} jobs, {} series, {} exposition bytes, {} obs samples round-tripped",
        report.jobs_completed,
        samples,
        text.len(),
        self_samples
    );
    if let Some(s) = age {
        println!(
            "frame age: n={} p50={:.1}s p99={:.1}s",
            s.count,
            s.quantile(0.50) as f64 / 1e9,
            s.quantile(0.99) as f64 / 1e9
        );
    }
    // ── Federated grant tracing: digest stability + overhead. ──
    let mut fs = FedScenario::base("obs_smoke_fed", 41, 2);
    fs.rack.n_jobs = 6;
    fs.rack.n_history = 160;
    let mut base_s = f64::INFINITY;
    let mut traced_s = f64::INFINITY;
    let mut base_digest = 0u64;
    let mut traced = None;
    for _ in 0..2 {
        let t = std::time::Instant::now();
        let out = run_federated_traced(&fs, TsDbConfig::default(), false);
        base_s = base_s.min(t.elapsed().as_secs_f64());
        base_digest = out.digest();
        let t = std::time::Instant::now();
        let out = run_federated_traced(&fs, TsDbConfig::default(), true);
        traced_s = traced_s.min(t.elapsed().as_secs_f64());
        traced = Some(out);
    }
    let out = traced.expect("two iterations ran");
    if out.digest() != base_digest {
        println!(
            "tracing perturbed the federated digest: {:#018x} vs {:#018x}",
            out.digest(),
            base_digest
        );
        failed = true;
    }
    for r in &out.racks {
        let completed = r
            .obs
            .registry
            .find_counter("obs_grant_completed_total")
            .map(|c| c.get())
            .unwrap_or(0);
        if completed == 0 {
            println!("{}: no grant span completed", r.scenario);
            failed = true;
        }
        if r.obs.flight.pushed() == 0 {
            println!("{}: flight recorder saw nothing", r.scenario);
            failed = true;
        }
    }
    // The same ≤5% + absolute-slack shape as E29's gate; the absolute
    // term dominates at this tiny scenario size and damps CI noise.
    if traced_s > base_s * 1.05 + 0.25 {
        println!("tracing overhead over budget: {traced_s:.3}s vs {base_s:.3}s");
        failed = true;
    }
    println!(
        "fed trace: digest {:#018x}, untraced {base_s:.3}s traced {traced_s:.3}s",
        out.digest()
    );

    if failed {
        println!("obs-smoke: FAIL");
        std::process::exit(1);
    }
    println!("obs-smoke: OK");
}
