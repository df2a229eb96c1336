//! What every workload shares: arguments, the metric tables that
//! `BENCHMARK.json` mirrors, percentiles, the in-memory span recorder,
//! the machine record and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fullrate", "dashboard", "federation"];

/// End-to-end metrics printed by an untraced run (`--trace 0`), with
/// units. Each is measured on every workload; what it counts there is
/// documented in `README.md`. The tail is p95, not p99: a `fullrate`
/// run has 2000 rounds, and on a shared host its p99 is set by the
/// time slices other tenants take. The p99s are printed in the report.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics printed by a traced run (`--trace 1`), with units.
/// A layer that does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("acquisition.busy_ms", "ms"),
    ("acquisition.ns_per_raw_sample", "ns"),
    ("broker.busy_ms", "ms"),
    ("broker.ns_per_frame", "ns"),
    ("broker.frames", "count"),
    ("ingest.busy_ms", "ms"),
    ("ingest.ns_per_sample", "ns"),
    ("ingest.stale_dropped", "count"),
    ("ingest.malformed", "count"),
    ("ingest.lock_wait_ms", "ms"),
    ("ingest.frame_lag_ms_p50", "ms"),
    ("ingest.frame_lag_ms_p99", "ms"),
    ("ingest.writer_late_ms_p99", "ms"),
    ("storage.sealed_points", "count"),
    ("storage.compression_ratio", "ratio"),
    ("storage.evicted_points", "count"),
    ("storage.bytes_per_sample", "B"),
    ("storage.points_examined_per_query", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_misses", "count"),
    ("service.query_us_p50", "us"),
    ("service.query_us_p99", "us"),
    ("http.overhead_us_p50", "us"),
    ("http.errors", "count"),
    ("controlplane.steps_down", "count"),
    ("controlplane.steps_up", "count"),
    ("controlplane.samples_stored", "count"),
    ("sim.frames_delivered", "count"),
    ("sim.jobs_completed", "count"),
    ("federation.rebalances", "count"),
    ("federation.grant_events", "count"),
];

/// Per-layer metrics beyond the layer table: the federation call, the
/// fullrate budget closure and the cost of tracing itself.
pub const PER_LAYER_RUN: [(&str, &str); 3] = [
    ("federation.busy_s", "s"),
    ("budget.closure_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload <fullrate|dashboard|federation> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(bad("one of fullrate, dashboard, federation")),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => match value.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 600.0 => seconds = Some(s),
                    _ => return Err(bad("seconds in (0, 600]")),
                },
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(bad("0 or 1")),
                },
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in (0, 1]).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a handful of timings, seconds.
pub fn median_s(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Peak resident memory of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// One timed call into a layer. Spans of one round or request share a
/// `trace` id; `parent` 0 marks a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; one per thread, merged when the run ends.
/// When off, `span` records nothing and costs a branch.
#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    base: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `base` is the run's common time origin; `id_base` keeps ids of
    /// different threads' tracers apart.
    pub fn new(on: bool, base: Instant, id_base: u64) -> Tracer {
        Tracer {
            on,
            base,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    /// Record `[start, end]` and return the span id (0 when off).
    pub fn span(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        self.next_id += 1;
        let ns = |t: Instant| t.saturating_duration_since(self.base).as_nanos() as u64;
        self.spans.push(Span {
            trace,
            id: self.next_id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.next_id
    }

    /// Record a span of known length laid end to end after `start`,
    /// returning its end. For layer times the program reports as
    /// durations rather than as timestamps.
    pub fn span_len(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        start: Instant,
        len_ns: u64,
    ) -> Instant {
        let end = start + std::time::Duration::from_nanos(len_ns);
        self.span(name, trace, parent, start, end);
        end
    }
}

/// A named correctness check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// End-to-end metric values by `END_TO_END` name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by `PER_LAYER`/`PER_LAYER_RUN` name;
    /// absent means the layer did no work here.
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's metrics under the names of the design notes
    /// (`acq_msps`, `query_qps`, ...), for the human-readable report.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Free-form lines for the report (what a number includes).
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// The machine a result was measured on.
pub fn machine(args: &Args) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    serde_json::object([
        ("nproc", nproc.into()),
        ("cpu_model", cpu.into()),
        ("git_rev", rev.into()),
        ("workload", args.workload.as_str().into()),
        ("seed", args.seed.into()),
        ("run_seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        (
            "note",
            "vendored rayon is a sequential shim: every DSP round runs on one thread".into(),
        ),
    ])
}

fn metric_object(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
    missing_is_zero: bool,
) -> Value {
    let mut m = BTreeMap::new();
    for &(name, unit) in table {
        let v = match values.get(name) {
            Some(v) => *v,
            None if missing_is_zero => 0.0,
            None => panic!("workload did not measure end-to-end metric `{name}`"),
        };
        m.insert(
            name.to_string(),
            serde_json::object([("value", v.into()), ("unit", unit.into())]),
        );
    }
    Value::Object(m)
}

/// Print the report and the result line; write the run record (and
/// spans, when traced) under `out/`. Returns whether the run is correct.
pub fn finish(args: &Args, o: Outcome) -> bool {
    let machine = machine(args);
    println!("# machine {}", serde_json::to_string(&machine));
    for n in &o.notes {
        println!("# {n}");
    }
    for c in &o.checks {
        println!(
            "# check {:<40} {} {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    println!("# {:<34} {failed_frac:>16} ratio", "failed_frac");
    for (name, v, unit) in &o.named {
        println!("# {name:<34} {v:>16.6} {unit}");
    }
    let correct = o.correct();
    let metrics = if args.trace {
        let table: Vec<_> = PER_LAYER
            .iter()
            .chain(PER_LAYER_RUN.iter())
            .copied()
            .collect();
        metric_object(&table, &o.layers, true)
    } else {
        metric_object(&END_TO_END, &o.e2e, false)
    };
    let record = serde_json::object([
        ("machine", machine),
        ("correct", correct.into()),
        ("attempted", o.attempted.into()),
        ("failed", o.failed.into()),
        ("failed_frac", failed_frac.into()),
        ("metrics", metrics.clone()),
        (
            "named",
            Value::Object(
                o.named
                    .iter()
                    .map(|(n, v, u)| {
                        (
                            n.to_string(),
                            serde_json::object([("value", (*v).into()), ("unit", (*u).into())]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "checks",
            Value::Array(
                o.checks
                    .iter()
                    .map(|c| {
                        serde_json::object([
                            ("name", c.name.as_str().into()),
                            ("ok", c.ok.into()),
                            ("detail", c.detail.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Value::Array(
                o.spans
                    .iter()
                    .map(|s| {
                        Value::Array(vec![
                            s.trace.into(),
                            s.id.into(),
                            s.parent.into(),
                            s.name.into(),
                            s.start_ns.into(),
                            s.end_ns.into(),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, serde_json::to_string(&record)))
    {
        Ok(()) => println!("# record written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    println!(
        "{}",
        serde_json::to_string(&serde_json::object([
            ("correct", correct.into()),
            ("attempted", o.attempted.into()),
            ("failed", o.failed.into()),
            ("metrics", metrics),
        ]))
    );
    correct
}
