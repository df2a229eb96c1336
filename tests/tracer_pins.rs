//! Behaviour pin for the causal tracers: a scripted sequence of stamps,
//! closes and flushes drives an `ObsHub`'s frame and grant tracers, and
//! the registry's text exposition is digested with FNV-1a and checked
//! against a constant. Every histogram bucket, sum, max and counter the
//! tracers register shows up in that text, so a refactor of the tracer
//! that changes any recorded value, metric name or label fails here.

use davide_obs::{GrantStage, ObsHub, Stage};

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FRAME_STAGES: [Stage; 6] = [
    Stage::BrokerPublish,
    Stage::SessionDeliver,
    Stage::IngestAppend,
    Stage::PredictorUpdate,
    Stage::SchedulerTick,
    Stage::DvfsPublish,
];

const GRANT_STAGES: [GrantStage; 5] = [
    GrantStage::FedSplit,
    GrantStage::BridgeDeliver,
    GrantStage::RackReceive,
    GrantStage::CapCommand,
    GrantStage::PowerCrossing,
];

/// Frame table capacity (4096) and grant table capacity (256); the
/// eviction phases stamp well past both.
const FRAME_OVERFILL: u64 = 3 * 4096;
const GRANT_OVERFILL: u64 = 3 * 256;

fn drive_frames(hub: &ObsHub) {
    let t = &hub.frames;
    // Full spans with uneven, sub-microsecond hop lags.
    for id in 1..=40u64 {
        for (k, &stage) in FRAME_STAGES.iter().enumerate() {
            t.stamp(
                id,
                stage,
                10.0 + id as f64 * 0.25 + k as f64 * 1.3e-4 * id as f64,
            );
        }
        t.close(id);
    }
    // Skipped stages: the gap folds into the edge leaving the earlier
    // stamped stage; a lone stamp closes with a zero e2e.
    for id in 100..120u64 {
        let base = id as f64;
        t.stamp(id, Stage::BrokerPublish, base);
        if id % 2 == 0 {
            t.stamp(id, Stage::IngestAppend, base + 0.003);
        }
        if id % 3 == 0 {
            t.stamp(id, Stage::DvfsPublish, base + 0.5);
        }
        t.close(id);
    }
    t.stamp(130, Stage::SchedulerTick, 4.0);
    t.close(130);
    // Duplicate (replayed) stamps keep the first timestamp, including
    // out-of-order and negative clock readings.
    for id in 200..210u64 {
        t.stamp(id, Stage::BrokerPublish, 1.0);
        t.stamp(id, Stage::SessionDeliver, 1.5);
        t.stamp(id, Stage::BrokerPublish, 9.0);
        t.stamp(id, Stage::SessionDeliver, 0.5);
        t.stamp(id, Stage::IngestAppend, 2.0 + id as f64 * 1e-6);
        t.close(id);
    }
    t.stamp(220, Stage::BrokerPublish, -3.0);
    t.stamp(220, Stage::SessionDeliver, 0.25);
    t.close(220);
    // Closing what is not resident is a no-op: never stamped, already
    // closed, closed twice.
    t.close(0xDEAD_BEEF);
    t.close(1);
    t.close(200);
    // Batch stamps, some onto resident traces and some new.
    t.stamp_batch(Stage::IngestAppend, 30.0, 300..340u64);
    t.stamp_batch(Stage::PredictorUpdate, 30.5, (300..320u64).step_by(2));
    for id in 300..310u64 {
        t.close(id);
    }
    // Eviction: far more open traces than slots; the displaced ones are
    // lost at their furthest stage, and closes race the evictions.
    for id in 1_000..1_000 + FRAME_OVERFILL {
        t.stamp(id, Stage::BrokerPublish, id as f64 * 1e-4);
        if id % 5 == 0 {
            t.stamp(id, Stage::SessionDeliver, id as f64 * 1e-4 + 2e-5);
        }
        if id % 7 == 0 && id >= 4_000 {
            t.close(id - 3_000);
        }
    }
    t.stamp_batch(Stage::IngestAppend, 40.0, 1_000..1_000 + FRAME_OVERFILL);
    for id in (1_000..1_000 + FRAME_OVERFILL).step_by(3) {
        t.close(id);
    }
    // End of run: everything still resident is lost; a second flush
    // finds nothing.
    t.flush();
    t.flush();
    t.stamp(5, Stage::DvfsPublish, 50.0);
    t.close(5);
    t.stamp(6, Stage::SchedulerTick, 51.0);
    t.stamp(8, Stage::PredictorUpdate, 51.0);
    t.stamp(8, Stage::DvfsPublish, 52.0);
    t.flush();
}

fn drive_grants(hub: &ObsHub) {
    let t = &hub.grants;
    // Full spans: apply (split → command) and e2e (split → crossing).
    for seq in 1..=12u64 {
        for (k, &stage) in GRANT_STAGES.iter().enumerate() {
            t.stamp(
                seq,
                stage,
                100.0 * seq as f64 + k as f64 * (0.7 + seq as f64),
            );
        }
        t.close(seq);
    }
    // Skipped stages: apply without e2e, e2e without apply, neither.
    t.stamp(20, GrantStage::FedSplit, 1.0);
    t.stamp(20, GrantStage::CapCommand, 3.5);
    t.close(20);
    t.stamp(21, GrantStage::FedSplit, 2.0);
    t.stamp(21, GrantStage::PowerCrossing, 9.25);
    t.close(21);
    t.stamp(22, GrantStage::RackReceive, 4.0);
    t.stamp(22, GrantStage::PowerCrossing, 6.0);
    t.close(22);
    t.stamp(23, GrantStage::BridgeDeliver, 4.0);
    t.close(23);
    // Duplicate stamps: a retained replay after a broker restart.
    for seq in 30..34u64 {
        t.stamp(seq, GrantStage::FedSplit, 10.0);
        t.stamp(seq, GrantStage::RackReceive, 40.0);
        t.stamp(seq, GrantStage::RackReceive, 70.0);
        t.stamp(seq, GrantStage::FedSplit, 5.0);
        t.stamp(seq, GrantStage::CapCommand, 41.0 + seq as f64);
        t.stamp(seq, GrantStage::PowerCrossing, 50.0 + seq as f64);
        t.close(seq);
    }
    // Not resident: never stamped, closed twice.
    t.close(999_999);
    t.close(1);
    t.close(30);
    // Eviction past the grant table's capacity.
    for seq in 1_000..1_000 + GRANT_OVERFILL {
        t.stamp(seq, GrantStage::FedSplit, seq as f64 * 0.01);
        if seq % 2 == 0 {
            t.stamp(seq, GrantStage::BridgeDeliver, seq as f64 * 0.01 + 0.001);
        }
        if seq % 3 == 0 {
            t.stamp(seq, GrantStage::CapCommand, seq as f64 * 0.01 + 0.02);
        }
        if seq % 11 == 0 && seq >= 1_200 {
            t.close(seq - 200);
        }
    }
    for seq in (1_000..1_000 + GRANT_OVERFILL).step_by(4) {
        t.close(seq);
    }
    // Leave some residents open across the disarm.
    for seq in 5_000..5_010u64 {
        t.stamp(seq, GrantStage::FedSplit, 70.0);
        t.stamp(seq, GrantStage::RackReceive, 71.0);
    }
    // Disarmed: grant stamps and closes are no-ops, while frame
    // tracing stays live.
    hub.set_tracing_enabled(false);
    for seq in 5_000..5_020u64 {
        for &stage in &GRANT_STAGES {
            t.stamp(seq, stage, 80.0);
        }
        t.close(seq);
    }
    hub.frames.stamp(77, Stage::BrokerPublish, 80.0);
    hub.frames.stamp(77, Stage::DvfsPublish, 80.125);
    hub.frames.close(77);
    hub.set_tracing_enabled(true);
    // Re-armed: the open residents finish, then the run flushes.
    for seq in 5_000..5_005u64 {
        t.stamp(seq, GrantStage::CapCommand, 90.0);
        t.stamp(seq, GrantStage::PowerCrossing, 95.5);
        t.close(seq);
    }
    t.stamp(6_000, GrantStage::FedSplit, 99.0);
    t.stamp(6_001, GrantStage::FedSplit, 99.0);
    t.stamp(6_001, GrantStage::PowerCrossing, 99.5);
    t.flush();
    t.flush();
}

#[test]
fn tracer_exposition_is_pinned() {
    let (hub, _clock) = ObsHub::manual();
    drive_frames(&hub);
    drive_grants(&hub);
    let text = hub.registry.render_text();
    let rerun = {
        let (hub, _clock) = ObsHub::manual();
        drive_frames(&hub);
        drive_grants(&hub);
        hub.registry.render_text()
    };
    assert_eq!(text, rerun, "tracer exposition must be deterministic");
    assert_eq!(
        fnv1a(&text),
        0x9576_7dfd_70a4_6d90,
        "tracer exposition drifted:\n{text}"
    );
}
