//! One process of the originscan benchmark: one part of one workload.
//!
//! ```text
//! perfbench <workload> <part> --seed N [--proto P] [--dir DIR] [--spans FILE]
//! ```
//!
//! Workloads and parts:
//!
//! * `study-2e20`: `main`, `traced`
//! * `scan-2e22`: `main`, `check`, `main-2e20` and `traced`, each for one
//!   `--proto` (HTTP, HTTPS or SSH); `split-null`, `split-plain`,
//!   `split-supervised` and `split-hub`
//! * `serve`: `main`, `traced`, and `store`, the helper that set-up
//!   starts to synthesize and write the store
//!
//! The last line of standard output is one JSON object: operations
//! attempted and failed, a digest of the outputs, and the measurements
//! by name with their units. `run.py` starts these processes, repeats
//! them and reduces their figures to the benchmark's metrics.

// Wall-clock timing is this benchmark's job.
#![allow(clippy::disallowed_methods)]

mod hook;
mod nets;
mod report;
mod scan;
mod serve;
mod spans;
mod study;

use originscan_netmodel::Protocol;
use originscan_scanner::PAPER_PROTOCOLS;
use report::Report;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: perfbench <workload> <part> --seed N [--proto P] [--dir DIR] [--spans FILE]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(workload), Some(part)) = (args.first(), args.get(1)) else {
        usage();
    };
    let mut seed = study::DEFAULT_SEED;
    let mut dir = PathBuf::from(".");
    let mut spans = PathBuf::from("spans.jsonl");
    let mut proto = Protocol::Http;
    let mut rest = args[2..].iter();
    while let Some(flag) = rest.next() {
        let Some(value) = rest.next() else { usage() };
        match flag.as_str() {
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--dir" => dir = PathBuf::from(value),
            "--spans" => spans = PathBuf::from(value),
            "--proto" => {
                proto = PAPER_PROTOCOLS
                    .into_iter()
                    .find(|p| p.name() == value)
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }

    let mut rep = Report::default();
    match (workload.as_str(), part.as_str()) {
        ("study-2e20", "main") => study::main(seed, &mut rep),
        ("study-2e20", "traced") => study::traced(seed, &spans, &mut rep),
        ("scan-2e22", "main") => scan::main(true, proto, &mut rep),
        ("scan-2e22", "check") => scan::check(proto, &mut rep),
        ("scan-2e22", "main-2e20") => scan::main(false, proto, &mut rep),
        ("scan-2e22", "traced") => scan::traced(proto, &spans, &mut rep),
        ("scan-2e22", split) if split.starts_with("split-") => {
            scan::split(&split["split-".len()..], &mut rep)
        }
        ("serve", "store") => serve::write_store(seed, &dir, &mut rep),
        ("serve", "main") => serve::main(seed, &dir, &mut rep),
        ("serve", "traced") => serve::traced(seed, &dir, &spans, &mut rep),
        _ => usage(),
    }
    println!("{}", rep.to_json());
}
