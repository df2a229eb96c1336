//! `dashboard`: accounting and monitoring reads over HTTP while live
//! telemetry keeps arriving. A `QueryService` + `ApiServer` serve a
//! `ShardedTsDb` pre-filled with five minutes of node power; a paced
//! writer (open loop, one round per 10 ms) publishes node-total frames
//! for half of the series through the broker and a `FrameIngestor`
//! into the same store, and closed-loop keep-alive clients send a
//! seeded query mix. Each append moves a live series' watermark and so
//! invalidates that series' cached rollups.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use davide_api::{
    ApiServer, ApiServerConfig, HttpClient, QueryOp, QueryRequest, QueryService, QueryServiceConfig,
};
use davide_core::rng::Rng;
use davide_mqtt::Broker;
use davide_obs::ObsHub;
use davide_telemetry::gateway::{power_topic, SampleFrame};
use davide_telemetry::{FrameIngestor, Resolution, ShardedTsDb, TieringConfig, TsDbConfig};

use crate::common::{median_s, peak_rss_mb, percentile, Args, Outcome, Tracer};

const NODES: u32 = 45;
/// Pre-filled history per series, seconds, at 1 kS/s: long enough that
/// windows near its end cross the hot ring into sealed blocks.
const HISTORY_S: usize = 300;
const DT_S: f64 = 1e-3;
const PREFILL_FRAME: usize = 1_000;
/// Writer period and frame length: 10 ms of 1 kS/s samples.
const ROUND_S: f64 = 0.01;
const FRAME_LEN: usize = 10;
/// The query mix: each request kind and its share of requests. No
/// recorded dashboard trace or published mix backs these shares; they
/// are assumptions, picked so that aggregates (the accounting reads)
/// dominate and every other kind still makes up a tenth or more of the
/// requests. The README lists each figure and why it was picked.
const MIX: [(Kind, f64); 5] = [
    (Kind::Agg, 0.55),
    (Kind::RecentPoints, 0.10),
    (Kind::HistPoints, 0.10),
    (Kind::Last, 0.15),
    (Kind::Filter, 0.10),
];
/// Aggregate keys: series × {mean, energy} × windows. An assumption,
/// picked as about twice the 4096-entry rollup cache, so the popular
/// head hits and the tail misses.
const AGG_KEYS: usize = 9_000;
/// Aggregate window lengths, an assumption: dashboard panels of 10 s
/// to 1 min.
const AGG_LENGTHS_S: [f64; 3] = [10.0, 30.0, 60.0];
/// Zipf exponent of the aggregate keys' popularity, an assumption: the
/// classic s = 1 of web request popularity, not measured here.
const ZIPF_S: f64 = 1.0;
const FILTER: &str = "davide/+/power/node";
/// Filter windows are drawn fresh for every request, so each one
/// recomputes all 45 series: a steady cost, not a cache lottery.
const FILTER_S: f64 = 2.0;
const RECENT_S: f64 = 0.25;
const HIST_POINTS_S: f64 = 2.0;
/// Store pre-fills timed for `setup_s`; each takes about a second and
/// varies by a fifth from one to the next on a shared host.
const SETUPS: usize = 5;
/// Unrecorded time for the cache and the connections to warm.
const WARMUP: Duration = Duration::from_secs(1);
/// Every this-many answers whose value cannot change while the writer
/// runs is kept and compared with the in-process answer at the end.
const SAMPLE_EVERY: u64 = 16;
/// Requests replayed over HTTP and in-process once the writer stops.
const FINAL_SAMPLES: usize = 64;
/// 12-bit converter over 0–4000 W, as the gateways quantise.
const LSB_W: f64 = 4000.0 / 4095.0;

fn series(node: u32) -> String {
    power_topic(node, "node")
}

/// One node's synthetic power: a slow swing plus quantised noise.
struct Signal {
    base: f64,
    phase: f64,
    rng: Rng,
}

impl Signal {
    fn fill(&mut self, t0: f64, out: &mut [f32]) {
        for (i, v) in out.iter_mut().enumerate() {
            let t = t0 + i as f64 * DT_S;
            let w = self.base
                + 150.0 * (std::f64::consts::TAU * t / 60.0 + self.phase).sin()
                + self.rng.normal(0.0, 5.0);
            *v = ((w / LSB_W).round() * LSB_W) as f32;
        }
    }
}

fn signals(seed: u64) -> Vec<Signal> {
    let mut master = Rng::seed_from(seed);
    (0..NODES)
        .map(|_| {
            let mut rng = master.fork();
            Signal {
                base: rng.uniform_in(1_200.0, 2_000.0),
                phase: rng.uniform_in(0.0, std::f64::consts::TAU),
                rng,
            }
        })
        .collect()
}

/// The store with `HISTORY_S` of every series, sealed as it would be
/// after live ingest. Returns it with the signals, positioned for the
/// live writer to continue.
fn prefill(seed: u64) -> (ShardedTsDb, Vec<Signal>) {
    let mut db = ShardedTsDb::with_config(
        4,
        TsDbConfig {
            raw_capacity: 8_192,
            rollup_capacity: 1_024,
            tiering: Some(TieringConfig::default()),
            ..TsDbConfig::default()
        },
    )
    .expect("in-memory tiering cannot fail to open");
    let mut sig = signals(seed);
    let names: Vec<String> = (0..NODES).map(series).collect();
    let mut frame = vec![0f32; PREFILL_FRAME];
    for s in 0..HISTORY_S {
        let t0 = s as f64;
        for (name, g) in names.iter().zip(&mut sig) {
            g.fill(t0, &mut frame);
            db.append_frame(name, t0, DT_S, &frame);
        }
        db.compact();
    }
    (db, sig)
}

/// Which request kinds the mix sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Agg,
    RecentPoints,
    HistPoints,
    Last,
    Filter,
}

impl Kind {
    /// Span name of an HTTP request of this kind.
    fn span(self) -> &'static str {
        match self {
            Kind::Agg => "http.agg",
            Kind::RecentPoints => "http.recent_points",
            Kind::HistPoints => "http.hist_points",
            Kind::Last => "http.last",
            Kind::Filter => "http.filter",
        }
    }
}

/// One drawn request: its wire body, and whether its answer is fixed
/// while the writer runs (a frozen series' history).
struct Req {
    kind: Kind,
    body: String,
    invariant: bool,
}

/// The seeded query mix.
struct Mix {
    live: Vec<bool>,
    live_nodes: Vec<u32>,
    agg: Vec<(String, bool)>,
    zipf_cdf: Vec<f64>,
}

fn body(req: &QueryRequest) -> String {
    serde_json::to_string(&req.to_value())
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut rng = Rng::seed_from(seed ^ 0x006d_6978);
        let mut nodes: Vec<u32> = (0..NODES).collect();
        rng.shuffle(&mut nodes);
        let live_nodes: Vec<u32> = nodes[..NODES as usize / 2].to_vec();
        let frozen: Vec<u32> = nodes[NODES as usize / 2..].to_vec();
        let mut live = vec![false; NODES as usize];
        for &n in &live_nodes {
            live[n as usize] = true;
        }
        // Rank r's shape (live or frozen series, op, window length,
        // whether the window reaches the newest history) is fixed by r,
        // so every seed has the same cost structure; the seed picks the
        // series and where the window sits.
        let history = HISTORY_S as f64;
        let agg = (0..AGG_KEYS)
            .map(|r| {
                let is_live = r % 2 == 1;
                let node = *rng.choose(if is_live { &live_nodes } else { &frozen });
                let op = if (r / 2) % 2 == 0 {
                    QueryOp::Mean
                } else {
                    QueryOp::Energy
                };
                let len = AGG_LENGTHS_S[(r / 4) % AGG_LENGTHS_S.len()];
                let end = if (r / 12) % 4 == 0 {
                    history
                } else {
                    rng.uniform_in(len, history).floor()
                };
                let q = QueryRequest::series(op, &series(node), Resolution::Raw, end - len, end);
                (body(&q), !is_live)
            })
            .collect();
        let weights: Vec<f64> = (0..AGG_KEYS)
            .map(|r| 1.0 / (r as f64 + 1.0).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let zipf_cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Mix {
            live,
            live_nodes,
            agg,
            zipf_cdf,
        }
    }

    /// Draw the next request; `now_s` is the newest stored sample time.
    fn draw(&self, rng: &mut Rng, now_s: f64) -> Req {
        let mut u = rng.uniform();
        let kind = MIX
            .iter()
            .find(|&&(_, share)| {
                u -= share;
                u < 0.0
            })
            .map_or(MIX[MIX.len() - 1].0, |&(k, _)| k);
        match kind {
            Kind::Agg => self.agg_req(rng),
            Kind::RecentPoints => {
                let node = *rng.choose(&self.live_nodes);
                let q = QueryRequest::series(
                    QueryOp::Points,
                    &series(node),
                    Resolution::Raw,
                    now_s - RECENT_S,
                    now_s,
                );
                Req {
                    kind,
                    body: body(&q),
                    invariant: false,
                }
            }
            Kind::HistPoints => {
                let node = rng.below(NODES as u64) as u32;
                let end = rng.uniform_in(HIST_POINTS_S, HISTORY_S as f64).floor();
                let q = QueryRequest::series(
                    QueryOp::Points,
                    &series(node),
                    Resolution::Raw,
                    end - HIST_POINTS_S,
                    end,
                );
                Req {
                    kind,
                    body: body(&q),
                    invariant: !self.live[node as usize],
                }
            }
            Kind::Last => {
                let node = rng.below(NODES as u64) as u32;
                let q =
                    QueryRequest::series(QueryOp::Last, &series(node), Resolution::Raw, 0.0, 0.0);
                Req {
                    kind,
                    body: body(&q),
                    invariant: !self.live[node as usize],
                }
            }
            Kind::Filter => {
                let end = rng.uniform_in(FILTER_S, HISTORY_S as f64);
                let q = QueryRequest::filter(
                    QueryOp::Mean,
                    FILTER,
                    Resolution::Raw,
                    end - FILTER_S,
                    end,
                );
                Req {
                    kind,
                    body: body(&q),
                    invariant: false,
                }
            }
        }
    }

    /// A Zipf-drawn aggregate key.
    fn agg_req(&self, rng: &mut Rng) -> Req {
        let x = rng.uniform();
        let r = self.zipf_cdf.partition_point(|&c| c < x).min(AGG_KEYS - 1);
        let (body, invariant) = &self.agg[r];
        Req {
            kind: Kind::Agg,
            body: body.clone(),
            invariant: *invariant,
        }
    }
}

fn parse(body: &str) -> QueryRequest {
    let v = serde_json::from_str(body).expect("the mix writes valid JSON");
    QueryRequest::from_value(&v).expect("the mix writes valid requests")
}

/// The in-process answer, serialised exactly as the server does.
fn in_process(svc: &QueryService<ShardedTsDb>, body: &str) -> String {
    match svc.query(&parse(body)) {
        Ok(r) => serde_json::to_string(&r.to_value()),
        Err(e) => format!("error: {e}"),
    }
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    http_ns: Vec<u64>,
    ok: u64,
    errors: u64,
    samples: Vec<(String, String)>,
    inproc_ns: Vec<u64>,
    inproc_points: u64,
    spans: Vec<crate::common::Span>,
    kinds: [u64; 5],
}

/// What the writer saw over the measured window.
#[derive(Default)]
struct WriterLog {
    lag_ns: Vec<u64>,
    late_ns: Vec<u64>,
    rounds: u64,
    bad_rounds: u64,
    publish_ns: u64,
    lock_wait_ns: u64,
    drain_ns: u64,
    frames: u64,
    samples: u64,
    stale_dropped: u64,
    malformed: u64,
    spans: Vec<crate::common::Span>,
}

/// What the writer and the clients share.
struct Shared {
    svc: QueryService<ShardedTsDb>,
    addr: std::net::SocketAddr,
    mix: Mix,
    seed: u64,
    trace: bool,
    /// Time origin of every span.
    base: Instant,
    /// The writer's round 0 is due here.
    start: Instant,
    /// Requests and writer rounds before this are not recorded.
    measure_from: Instant,
    http_until: Instant,
    /// End of the in-process phase (traced runs only).
    inproc_until: Instant,
    /// Writer rounds stored so far; sets the clients' "now".
    newest_round: AtomicU64,
}

impl Shared {
    /// Time of the newest stored sample.
    fn now_s(&self) -> f64 {
        HISTORY_S as f64 + self.newest_round.load(Ordering::Acquire) as f64 * ROUND_S
    }
}

fn writer(sh: &Shared, mut sig: Vec<Signal>) -> WriterLog {
    let (svc, mix) = (&sh.svc, &sh.mix);
    let broker = Broker::default();
    let mut ingestor =
        FrameIngestor::subscribe(&broker, "dashboard-ingest", &[FILTER]).expect("valid filter");
    let publisher = broker.connect("dashboard-gateways");
    let store = svc.store();
    let names: Vec<String> = mix.live_nodes.iter().map(|&n| series(n)).collect();
    let mut frame = vec![0f32; FRAME_LEN];
    let mut log = WriterLog::default();
    let mut tr = Tracer::new(sh.trace, sh.base, 1 << 40);
    let per_round = (names.len() * FRAME_LEN) as u64;
    for r in 0u64.. {
        let due = sh.start + Duration::from_secs_f64(r as f64 * ROUND_S);
        if due >= sh.inproc_until {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let t_pub = Instant::now();
        let t0 = HISTORY_S as f64 + r as f64 * ROUND_S;
        let batch: Vec<_> = names
            .iter()
            .zip(&mix.live_nodes)
            .map(|(name, &n)| {
                sig[n as usize].fill(t0, &mut frame);
                (name.clone(), SampleFrame::encode_parts(t0, DT_S, &frame))
            })
            .collect();
        let t_rendered = Instant::now();
        publisher.publish_batch(&batch).expect("valid power topics");
        let t_lock = Instant::now();
        let before = ingestor.stats();
        let mut db = store.write();
        let t_locked = Instant::now();
        ingestor.drain_into_sharded(&mut db);
        drop(db);
        let t_done = Instant::now();
        let after = ingestor.stats();
        sh.newest_round.store(r + 1, Ordering::Release);

        let measured = due >= sh.measure_from && due < sh.http_until;
        if !measured {
            continue;
        }
        let trace_id = (1 << 40) + r;
        let root = tr.span("writer.round", trace_id, 0, due, t_done);
        tr.span("writer.render", trace_id, root, t_pub, t_rendered);
        tr.span("broker.publish", trace_id, root, t_rendered, t_lock);
        tr.span("ingest.lock_wait", trace_id, root, t_lock, t_locked);
        tr.span("ingest.drain_seal", trace_id, root, t_locked, t_done);
        let ok = after.samples - before.samples == per_round;
        log.rounds += 1;
        log.bad_rounds += u64::from(!ok);
        log.lag_ns.push(if ok {
            (t_done - due).as_nanos() as u64
        } else {
            u64::MAX
        });
        log.late_ns.push((t_pub - due).as_nanos() as u64);
        log.publish_ns += (t_lock - t_rendered).as_nanos() as u64;
        log.lock_wait_ns += (t_locked - t_lock).as_nanos() as u64;
        log.drain_ns += (t_done - t_locked).as_nanos() as u64;
        log.frames += after.frames - before.frames;
        log.samples += after.samples - before.samples;
        log.stale_dropped += after.stale_dropped - before.stale_dropped;
        log.malformed += after.malformed - before.malformed;
    }
    log.spans = tr.spans;
    log
}

fn client(sh: &Shared, tid: u64) -> ClientLog {
    let (addr, mix) = (sh.addr, &sh.mix);
    let mut rng = Rng::seed_from(sh.seed ^ (tid + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut tr = Tracer::new(sh.trace, sh.base, (tid + 2) << 40);
    let mut log = ClientLog::default();
    let mut conn = HttpClient::connect(addr).expect("connect to the local server");
    let mut n = 0u64;
    loop {
        let req = mix.draw(&mut rng, sh.now_s());
        let t0 = Instant::now();
        if t0 >= sh.http_until {
            break;
        }
        let res = conn.request("POST", "/v1/query", &req.body);
        let t1 = Instant::now();
        if t0 < sh.measure_from {
            if res.is_err() {
                conn = HttpClient::connect(addr).expect("reconnect to the local server");
            }
            continue;
        }
        n += 1;
        tr.span(req.kind.span(), (tid + 2) << 40 | n, 0, t0, t1);
        log.kinds[req.kind as usize] += 1;
        match res {
            Ok((200, answer)) => {
                log.ok += 1;
                log.http_ns.push((t1 - t0).as_nanos() as u64);
                if req.invariant && n.is_multiple_of(SAMPLE_EVERY) {
                    log.samples.push((req.body, answer));
                }
            }
            other => {
                log.errors += 1;
                log.http_ns.push(u64::MAX);
                if other.is_err() {
                    conn = HttpClient::connect(addr).expect("reconnect to the local server");
                }
            }
        }
    }
    drop(conn);
    // Traced runs send the same mix in-process, so HTTP's share of the
    // latency shows.
    while Instant::now() < sh.inproc_until {
        let q = parse(&mix.draw(&mut rng, sh.now_s()).body);
        let t0 = Instant::now();
        let res = sh.svc.query(&q);
        let t1 = Instant::now();
        tr.span("service.query", 0, 0, t0, t1);
        log.inproc_ns.push((t1 - t0).as_nanos() as u64);
        if let Ok(r) = res {
            log.inproc_points += r.coverage.total() as u64;
        }
    }
    log.spans = tr.spans;
    log
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Generator threads, the writer included, never exceed nproc.
    let clients = nproc.saturating_sub(1).max(1);
    let base = Instant::now();

    // Set-up: pre-fill the store several times; keep the last one.
    let mut setup = Vec::with_capacity(SETUPS);
    let mut filled = None;
    for _ in 0..SETUPS {
        drop(filled.take());
        let t = Instant::now();
        filled = Some(prefill(args.seed));
        setup.push(t.elapsed().as_secs_f64());
    }
    let (db, sig) = filled.expect("SETUPS > 0");
    let hub = ObsHub::monotonic();
    let svc = QueryService::over_store(db, &hub, QueryServiceConfig::default());
    let server = ApiServer::start(
        svc.clone(),
        ApiServerConfig {
            workers: nproc,
            ..ApiServerConfig::default()
        },
    )
    .expect("bind a local port");
    let start = Instant::now();
    let measure_from = start + WARMUP;
    let http_until = measure_from + Duration::from_secs_f64(args.seconds);
    let sh = Shared {
        addr: server.addr(),
        svc,
        mix: Mix::new(args.seed),
        seed: args.seed,
        trace: args.trace,
        base,
        start,
        measure_from,
        http_until,
        inproc_until: if args.trace {
            http_until + Duration::from_secs_f64((args.seconds / 4.0).max(0.5))
        } else {
            http_until
        },
        newest_round: AtomicU64::new(0),
    };
    let mut cache = Vec::with_capacity(2);
    let (wlog, clogs) = std::thread::scope(|s| {
        let sh = &sh;
        let w = s.spawn(move || writer(sh, sig));
        let cs: Vec<_> = (0..clients as u64)
            .map(|tid| s.spawn(move || client(sh, tid)))
            .collect();
        // Cache counters at the edges of the measured HTTP window.
        for edge in [measure_from, http_until] {
            let now = Instant::now();
            if now < edge {
                std::thread::sleep(edge - now);
            }
            cache.push(sh.svc.cache_stats());
        }
        let clogs: Vec<ClientLog> = cs
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        (w.join().expect("writer thread"), clogs)
    });
    let svc = &sh.svc;

    // Correctness: answers taken mid-run over frozen history, and a
    // fresh seeded sample now that the writer has stopped, must match
    // the in-process service byte for byte.
    let samples: Vec<&(String, String)> = clogs.iter().flat_map(|c| &c.samples).collect();
    let mid_bad = samples
        .iter()
        .filter(|(b, a)| in_process(svc, b) != *a)
        .count() as u64;
    let mut rng = Rng::seed_from(args.seed ^ 0xc4ec);
    let mut conn = HttpClient::connect(sh.addr).expect("connect to the local server");
    let mut final_bad = 0u64;
    for _ in 0..FINAL_SAMPLES {
        let req = sh.mix.draw(&mut rng, sh.now_s());
        let want = in_process(svc, &req.body);
        match conn.request("POST", "/v1/query", &req.body) {
            Ok((200, got)) if got == want => {}
            _ => final_bad += 1,
        }
    }
    drop(conn);
    server.stop();
    o.check(
        "dashboard.http_equals_in_process",
        mid_bad == 0 && final_bad == 0,
        format!(
            "{mid_bad} of {} mid-run and {final_bad} of {FINAL_SAMPLES} final answers differ",
            samples.len()
        ),
    );
    let errors: u64 = clogs.iter().map(|c| c.errors).sum();
    let ok: u64 = clogs.iter().map(|c| c.ok).sum();
    o.check(
        "dashboard.http_all_200",
        errors == 0,
        format!("{errors} of {} requests failed", ok + errors),
    );
    o.check(
        "dashboard.writer_frames_stored",
        wlog.bad_rounds == 0 && wlog.rounds > 0,
        format!(
            "{} of {} writer rounds lost samples",
            wlog.bad_rounds, wlog.rounds
        ),
    );
    o.attempted = ok + errors + wlog.rounds + samples.len() as u64 + FINAL_SAMPLES as u64;
    o.failed = errors + wlog.bad_rounds + mid_bad + final_bad;

    let mut http_ns: Vec<u64> = clogs
        .iter()
        .flat_map(|c| c.http_ns.iter().copied())
        .collect();
    http_ns.sort_unstable();
    let mut lag = wlog.lag_ns.clone();
    lag.sort_unstable();
    let mut late = wlog.late_ns.clone();
    late.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    let qps = ok as f64 / args.seconds;
    let (q50, q95, q99) = (
        percentile(&http_ns, 0.50),
        percentile(&http_ns, 0.95),
        percentile(&http_ns, 0.99),
    );
    let st = svc.store().read().tier_stats();
    let bytes_per_sample = (st.hot_bytes + st.compressed_bytes + st.disk_bytes) as f64
        / (st.hot_points + st.compressed_points + st.disk_points).max(1) as f64;
    let setup_s = median_s(setup);
    let rss = peak_rss_mb();
    let hits = cache[1].hits - cache[0].hits;
    let misses = cache[1].misses - cache[0].misses;

    o.e2e.insert("throughput", qps);
    o.e2e.insert("latency_ms_p50", ms(q50));
    o.e2e.insert("latency_ms_p95", ms(q95));
    o.e2e.insert("setup_s", setup_s);
    o.e2e.insert("peak_rss_mb", rss);
    o.named("query_qps", qps, "req/s");
    o.named("query_ms_p50", ms(q50), "ms");
    o.named("query_ms_p95", ms(q95), "ms");
    o.named("query_ms_p99", ms(q99), "ms");
    o.named("frame_lag_ms_p50", ms(percentile(&lag, 0.50)), "ms");
    o.named("frame_lag_ms_p99", ms(percentile(&lag, 0.99)), "ms");
    o.named("writer_late_ms_p99", ms(percentile(&late, 0.99)), "ms");
    o.named("store_bytes_per_sample", bytes_per_sample, "B");
    o.named("setup_s", setup_s, "s");
    o.named("peak_rss_mb", rss, "MB");
    let kinds = clogs.iter().fold([0u64; 5], |mut acc, c| {
        for (a, k) in acc.iter_mut().zip(c.kinds) {
            *a += k;
        }
        acc
    });
    o.notes.push(format!(
        "dashboard: {clients} client thread(s) + 1 paced writer, {nproc} server workers, {} requests in {:.1} s \
         (agg/recent/hist/last/filter = {kinds:?}), {} writer rounds, cache {hits} hits / {misses} misses",
        ok + errors,
        args.seconds,
        wlog.rounds
    ));

    let l = &mut o.layers;
    l.insert("broker.busy_ms", ms(wlog.publish_ns));
    l.insert(
        "broker.ns_per_frame",
        wlog.publish_ns as f64 / wlog.frames.max(1) as f64,
    );
    l.insert("broker.frames", wlog.frames as f64);
    l.insert("ingest.busy_ms", ms(wlog.drain_ns));
    l.insert(
        "ingest.ns_per_sample",
        wlog.drain_ns as f64 / wlog.samples.max(1) as f64,
    );
    l.insert("ingest.stale_dropped", wlog.stale_dropped as f64);
    l.insert("ingest.malformed", wlog.malformed as f64);
    l.insert("ingest.lock_wait_ms", ms(wlog.lock_wait_ns));
    l.insert("ingest.frame_lag_ms_p50", ms(percentile(&lag, 0.50)));
    l.insert("ingest.frame_lag_ms_p99", ms(percentile(&lag, 0.99)));
    l.insert("ingest.writer_late_ms_p99", ms(percentile(&late, 0.99)));
    l.insert("storage.sealed_points", st.sealed_points as f64);
    l.insert("storage.compression_ratio", st.compression_ratio());
    l.insert("storage.evicted_points", st.evicted_points as f64);
    l.insert("storage.bytes_per_sample", bytes_per_sample);
    l.insert(
        "service.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    l.insert("service.cache_misses", misses as f64);
    l.insert("http.errors", errors as f64);
    let mut inproc: Vec<u64> = clogs
        .iter()
        .flat_map(|c| c.inproc_ns.iter().copied())
        .collect();
    if !inproc.is_empty() {
        inproc.sort_unstable();
        let us = |ns: u64| ns as f64 / 1e3;
        let (i50, i99) = (percentile(&inproc, 0.50), percentile(&inproc, 0.99));
        let points: u64 = clogs.iter().map(|c| c.inproc_points).sum();
        l.insert("service.query_us_p50", us(i50));
        l.insert("service.query_us_p99", us(i99));
        l.insert("http.overhead_us_p50", us(q50) - us(i50));
        l.insert(
            "storage.points_examined_per_query",
            points as f64 / inproc.len() as f64,
        );
    }
    o.notes.push("dashboard: ingest.busy_ms includes the storage seal, because drain_into_sharded calls compact".into());
    o.spans = wlog.spans;
    for c in clogs {
        o.spans.extend(c.spans);
    }
    o
}
