//! The flight recorder's seqlocked snapshot under a concurrent writer:
//! every event a snapshot returns must be exactly the event pushed at
//! that logical index, never a mix of two writes.

use davide_obs::flight::kind;
use davide_obs::{FlightEvent, FlightRecorder, GrantStage, StageSet};
use std::sync::atomic::{AtomicBool, Ordering};

/// Kinds (the grant stage names, then the violation kind) and labels of
/// different lengths, so a (ptr, len) pair torn across two writes would
/// show up as a wrong string.
fn kind_of(n: u64) -> &'static str {
    let k = n as usize % (GrantStage::NAMES.len() + 1);
    GrantStage::NAMES.get(k).copied().unwrap_or(kind::VIOLATION)
}
const LABELS: [&str; 4] = ["", "cap", "budget_conservation", "x"];

fn event(n: u64) -> FlightEvent {
    FlightEvent {
        t_ns: 10 * n,
        kind: kind_of(n),
        label: LABELS[n as usize % LABELS.len()],
        seq: n,
        value_bits: n.rotate_left(17) ^ 0x5bd1_e995,
    }
}

#[test]
fn snapshots_racing_a_writer_return_only_pushed_events() {
    const PUSHES: u64 = 200_000;
    // A tiny ring, so the writer laps the reader constantly.
    let fr = FlightRecorder::new(8);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for n in 0..PUSHES {
                let e = event(n);
                fr.push(e.t_ns, e.kind, e.label, e.seq, e.value_bits);
            }
            done.store(true, Ordering::Release);
        });
        loop {
            let finished = done.load(Ordering::Acquire);
            for (n, e) in fr.snapshot() {
                assert_eq!(
                    e,
                    event(n),
                    "snapshot returned an event never pushed at {n}"
                );
            }
            if finished {
                break;
            }
        }
    });
    assert_eq!(fr.pushed(), PUSHES);
    let last = fr.snapshot();
    assert_eq!(last.len(), 8);
    assert_eq!(last[0].0, PUSHES - 8);
    for (n, e) in last {
        assert_eq!(e, event(n));
    }
}
