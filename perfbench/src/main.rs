//! The davide sample-path benchmark.
//!
//! ```text
//! perfbench --workload <fullrate|dashboard|federation> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload over the stack's public entry points,
//! checks its outputs, prints a human-readable report (lines starting
//! with `#`) and, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics when
//! untraced, the per-layer metrics when traced. Exits 1 when a
//! correctness check fails and 2 on bad arguments. See `README.md`.

mod common;
mod dashboard;
mod federation;
mod fullrate;

fn main() {
    let args = match common::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", common::USAGE);
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "fullrate" => fullrate::run(&args),
        "dashboard" => dashboard::run(&args),
        "federation" => federation::run(&args),
        other => unreachable!("Args::parse admits only known workloads, got {other}"),
    };
    if !common::finish(&args, outcome) {
        std::process::exit(1);
    }
}
