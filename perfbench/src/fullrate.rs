//! `fullrate`: the paper's design point, 45 gateways × 8 channels ×
//! 800 kS/s, with tiered storage armed in memory. A closed loop calls
//! `AcquisitionRig::run` once per 10 ms round as fast as the rig goes;
//! the rig keeps its timeline across calls.

use std::time::{Duration, Instant};

use davide_telemetry::acquisition::{AcquisitionConfig, AcquisitionRig, DspMode};
use davide_telemetry::gateway::{power_topic, CHANNELS};
use davide_telemetry::{SeriesRead, TieringConfig};

use crate::common::{median_s, peak_rss_mb, percentile, Args, Outcome, Tracer};

/// Rounds per second of acquired signal: one 10 ms frame per channel.
const ROUNDS_PER_S: f64 = 100.0;
/// A p99 needs at least 10 rounds beyond it, so a run measures at least
/// this many rounds however short `--seconds` is.
const MIN_ROUNDS: usize = 1_000;
/// Unmeasured warm-up runs until the store reaches its memory budget
/// and starts to evict (about 450 rounds), so the measured rounds see
/// the steady state of a long-running acquisition, not a store that is
/// still growing. Capped in case a change makes the budget unreachable.
const MAX_WARMUP_ROUNDS: usize = 1_500;
/// The gated `latency_ms_p50` is the median, over consecutive windows
/// of this many rounds, of the window's mean frame lag. A round that
/// seals a 1024-point block per series takes about twice as long as
/// one that does not, and about half the rounds seal, so the median of
/// single rounds sits at the edge between the two modes. A window of
/// 32 rounds holds the same number of seals give or take one, so its
/// mean moves by a few percent, not 2x, when rounds shift between modes.
const WINDOW: usize = 32;
/// The gated `latency_ms_p95` is the median, over consecutive blocks of
/// this many rounds (1 s of signal), of each block's p95. Other tenants
/// of a shared host take time slices in bursts, and a burst that hits a
/// tenth of the slow rounds in one second moves the p95 of the whole run
/// by half; the median block is steady. Anything the program does every
/// 20 rounds or more often still lands in every block's p95.
const TAIL_BLOCK: usize = 100;
/// Rounds each of the two determinism-check rigs runs.
const DIGEST_ROUNDS: usize = 20;
/// Rig builds timed for `setup_s`. A build takes about 0.15 s and
/// varies by a quarter from one build to the next on a shared host, so
/// the median needs several.
const SETUPS: usize = 7;
/// Traced runs alternate blocks of this many rounds with spans on and
/// off, so the same run measures the tracing overhead.
const BLOCK: usize = 50;

fn config(seed: u64) -> AcquisitionConfig {
    AcquisitionConfig {
        // One round per `run` call.
        duration_s: 1.0 / ROUNDS_PER_S,
        seed,
        // One store shard, so `TieringConfig::default()`'s 256 MB
        // memory budget (applied per shard) bounds the whole store and
        // the run reaches its eviction regime instead of growing
        // memory with every round.
        shards: 1,
        tiering: Some(TieringConfig::default()),
        ..AcquisitionConfig::full_rate()
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let cfg = config(args.seed);
    let frames_per_round = cfg.nodes as u64 * cfg.channels as u64;
    let samples_per_round = frames_per_round * cfg.frame_len() as u64;
    let raw_per_round = cfg.raw_samples();
    let base = Instant::now();
    let mut tr = Tracer::new(args.trace, base, 0);

    // Set-up: build the rig several times; the last one is measured,
    // the first two check determinism, the others are dropped.
    let mut rigs = Vec::with_capacity(3);
    let mut setup = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let t = Instant::now();
        let rig = AcquisitionRig::new(cfg.clone(), DspMode::Blocked);
        setup.push(t.elapsed().as_secs_f64());
        tr.span("setup.rig_build", 0, 0, t, Instant::now());
        if k < 2 || k == SETUPS - 1 {
            rigs.push(rig);
        }
    }
    let mut rig = rigs.pop().expect("SETUPS > 0");
    let digests: Vec<u64> = rigs
        .iter_mut()
        .map(|r| {
            for _ in 0..DIGEST_ROUNDS {
                r.run();
            }
            r.digest()
        })
        .collect();
    drop(rigs);
    o.check(
        "fullrate.digest_stable_per_seed",
        digests.windows(2).all(|w| w[0] == w[1]),
        format!("{DIGEST_ROUNDS}-round digests {digests:x?}"),
    );
    o.notes.push(format!(
        "fullrate: {DIGEST_ROUNDS}-round store digest {:#018x}",
        digests[0]
    ));
    let mut last = rig.run();
    let mut warmup = 1;
    while warmup < MAX_WARMUP_ROUNDS && rig.db().tier_stats().evicted_points == 0 {
        last = rig.run();
        warmup += 1;
    }
    let stored_before = last.stored_samples;

    // Measured closed loop. A round is due when the previous one
    // returned; its frames are queryable when `run` returns, because
    // the rig drains the broker into the store inside the call.
    let probe: Vec<String> = (0..cfg.nodes)
        .map(|n| power_topic(n, CHANNELS[0]))
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut lag_ns = Vec::new();
    let (mut decimated, mut compute_ns, mut publish_ns, mut ingest_ns, mut wall_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut traced_ns, mut traced_rounds, mut plain_ns, mut plain_rounds) =
        (0u64, 0u64, 0u64, 0u64);
    let mut bad_rounds = 0u64;
    // Store and broker counts after exactly `MIN_ROUNDS` measured
    // rounds, so they repeat for a seed whatever the host's speed.
    let mut at_min = None;
    let mut i = 0;
    while i < MIN_ROUNDS || Instant::now() < deadline {
        tr.on = args.trace && (i / BLOCK).is_multiple_of(2);
        let t0 = Instant::now();
        let rep = rig.run();
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        wall_ns += ns;

        // Layer times come from the rig's own report, laid end to end
        // in the order the rig runs them.
        let round_id = tr.span("round", i as u64 + 1, 0, t0, t1);
        let t = tr.span_len(
            "acquisition.compute",
            i as u64 + 1,
            round_id,
            t0,
            rep.compute_ns,
        );
        let t = tr.span_len("broker.publish", i as u64 + 1, round_id, t, rep.publish_ns);
        tr.span_len(
            "ingest.drain_seal",
            i as u64 + 1,
            round_id,
            t,
            rep.ingest_ns,
        );
        if tr.on {
            traced_ns += ns;
            traced_rounds += 1;
        } else {
            plain_ns += ns;
            plain_rounds += 1;
        }

        // Every decimated sample of the round must be stored and the
        // newest frame of a rotating probe series queryable.
        let stored = rep.stored_samples - last.stored_samples;
        let frames = rep.frames - last.frames;
        let want_wm = (warmup + i + 1) as u64 * cfg.frame_len() as u64;
        let wm = rig.db().series_watermark(&probe[i % probe.len()]);
        let ok = stored == rep.decimated_samples && frames == frames_per_round && wm == want_wm;
        if ok {
            lag_ns.push(ns);
        } else {
            bad_rounds += 1;
            lag_ns.push(u64::MAX);
        }
        decimated += rep.decimated_samples;
        compute_ns += rep.compute_ns;
        publish_ns += rep.publish_ns;
        ingest_ns += rep.ingest_ns;
        last = rep;
        i += 1;
        if i == MIN_ROUNDS {
            at_min = Some(rig.db().tier_stats());
        }
    }
    let rounds = i;
    o.attempted = rounds as u64;
    o.failed = bad_rounds;
    o.check(
        "fullrate.stored_equals_decimated",
        bad_rounds == 0,
        format!("{bad_rounds} of {rounds} rounds lost samples, frames or queryability"),
    );
    // A window holding a failed round counts as failed.
    let mut window_ns: Vec<u64> = lag_ns
        .chunks_exact(WINDOW)
        .map(|w| {
            w.iter()
                .try_fold(0u64, |acc, &ns| acc.checked_add(ns))
                .map_or(u64::MAX, |sum| sum / WINDOW as u64)
        })
        .collect();
    window_ns.sort_unstable();
    let mut block_p95: Vec<u64> = lag_ns
        .chunks_exact(TAIL_BLOCK)
        .map(|b| {
            let mut b = b.to_vec();
            b.sort_unstable();
            percentile(&b, 0.95)
        })
        .collect();
    block_p95.sort_unstable();
    lag_ns.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    let acq = raw_per_round as f64 * rounds as f64 / (wall_ns as f64 / 1e9);
    let (w50, b95, p50, p95, p99) = (
        percentile(&window_ns, 0.50),
        percentile(&block_p95, 0.50),
        percentile(&lag_ns, 0.50),
        percentile(&lag_ns, 0.95),
        percentile(&lag_ns, 0.99),
    );

    let st = at_min.expect("a run measures at least MIN_ROUNDS rounds");
    let resident_points = st.hot_points + st.compressed_points + st.disk_points;
    let resident_bytes = st.hot_bytes + st.compressed_bytes + st.disk_bytes;
    let bytes_per_sample = resident_bytes as f64 / resident_points.max(1) as f64;
    let rss = peak_rss_mb();
    let setup_s = median_s(setup);

    o.e2e.insert("throughput", acq);
    o.e2e.insert("latency_ms_p50", ms(w50));
    o.e2e.insert("latency_ms_p95", ms(b95));
    o.e2e.insert("setup_s", setup_s);
    o.e2e.insert("peak_rss_mb", rss);
    o.named("acq_msps", acq / 1e6, "M/s");
    o.named("frame_lag_ms_p50", ms(w50), "ms");
    o.named("frame_lag_ms_p95", ms(b95), "ms");
    o.named("frame_lag_ms_p50_all_rounds", ms(p50), "ms");
    o.named("frame_lag_ms_p95_all_rounds", ms(p95), "ms");
    o.named("frame_lag_ms_p99", ms(p99), "ms");
    o.named("store_bytes_per_sample", bytes_per_sample, "B");
    o.named("setup_s", setup_s, "s");
    o.named("peak_rss_mb", rss, "MB");
    o.notes.push(format!(
        "fullrate: {warmup} warm-up rounds until the store evicts, then {rounds} measured rounds \
         ({:.1} s of acquired signal, {:.1} M raw samples each), closed loop",
        rounds as f64 / ROUNDS_PER_S,
        raw_per_round as f64 / 1e6
    ));

    let total_samples = samples_per_round * rounds as u64;
    let total_frames = frames_per_round * rounds as u64;
    o.notes.push(format!(
        "fullrate: frame_lag_ms_p50 (gated latency_ms_p50) is the median of {WINDOW}-round window means, \
         frame_lag_ms_p95 (gated latency_ms_p95) the median of {TAIL_BLOCK}-round block p95s; \
         broker.frames and storage.* are taken after exactly {MIN_ROUNDS} measured rounds"
    ));
    let l = &mut o.layers;
    l.insert("acquisition.busy_ms", ms(compute_ns));
    l.insert(
        "acquisition.ns_per_raw_sample",
        compute_ns as f64 / (raw_per_round * rounds as u64) as f64,
    );
    l.insert("broker.busy_ms", ms(publish_ns));
    l.insert(
        "broker.ns_per_frame",
        publish_ns as f64 / total_frames as f64,
    );
    l.insert(
        "broker.frames",
        (frames_per_round * MIN_ROUNDS as u64) as f64,
    );
    l.insert("ingest.busy_ms", ms(ingest_ns));
    l.insert(
        "ingest.ns_per_sample",
        ingest_ns as f64 / total_samples as f64,
    );
    l.insert(
        "ingest.stale_dropped",
        (decimated - (last.stored_samples - stored_before)) as f64,
    );
    l.insert("storage.sealed_points", st.sealed_points as f64);
    l.insert("storage.compression_ratio", st.compression_ratio());
    l.insert("storage.evicted_points", st.evicted_points as f64);
    l.insert("storage.bytes_per_sample", bytes_per_sample);
    let attributed = compute_ns + publish_ns + ingest_ns;
    l.insert(
        "budget.closure_pct",
        100.0 * attributed as f64 / wall_ns as f64,
    );
    if args.trace && traced_rounds > 0 && plain_rounds > 0 {
        let traced = traced_ns as f64 / traced_rounds as f64;
        let plain = plain_ns as f64 / plain_rounds as f64;
        // Rate difference as a share of the untraced rate.
        l.insert("trace.overhead_pct", 100.0 * (1.0 - plain / traced));
    }
    o.notes.push(
        "fullrate: ingest.busy_ms includes the storage seal, because drain_into_sharded calls compact".into(),
    );
    o.spans = tr.spans;
    o
}
