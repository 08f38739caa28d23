//! Workload `scan-2e22`: US₁'s supervised HTTP, HTTPS and SSH scans of a
//! 2^22-address world, in sequence, each on one thread in a fresh
//! process, with the telemetry hub on as `Experiment::run` has it. No
//! analysis or serve code runs.
//!
//! One process runs one protocol's scan (`main`), so a scan never starts
//! on an allocator that an earlier scan warmed. Once per run, a `check`
//! process runs the plain `run_scan` of each configuration; its output
//! digest must equal the supervised scan's.
//!
//! The input is the same on every seed: `WorldConfig::medium` of the
//! command line's default world seed, scanned with the configuration
//! `Experiment::run` gives US₁ in trial 0. Each checkpoint copies every
//! record so far, and whether glibc serves a copy from the heap or maps
//! it afresh follows the exact sequence of copy sizes; a world or
//! permutation drawn per seed would change that sequence and, with it,
//! the scan's time by up to a factor of two (see perfbench/README.md).
//!
//! The traced run adds, each in its own process: the scans under spans
//! through a counting network (`traced`), the same scans on the 2^20
//! world (`main-2e20`), and four splits of the HTTP scan that peel the
//! layers apart on one permutation and configuration (`split-*`).

use crate::hook::LoopSpans;
use crate::nets::{CountingNet, NullNet};
use crate::report::{hex, median, peak_rss_mib, Report};
use crate::spans::{Handle, Spans};
use crate::study::{more_builds, scan_config, timed_build, DEFAULT_SEED};
use originscan_core::experiment::{supervise_scan, ExperimentConfig, RunStatus};
use originscan_netmodel::{OriginId, Protocol, SimNet, World, WorldConfig};
use originscan_scanner::engine::{run_scan, ScanConfig, ScanOutput};
use originscan_telemetry::metrics::names;
use originscan_telemetry::{Telemetry, TelemetrySnapshot};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// World builds per process; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// US₁'s place in the main roster.
fn us1() -> usize {
    OriginId::MAIN
        .iter()
        .position(|o| *o == OriginId::Us1)
        .expect("US1 is a main origin")
}

/// US₁'s trial-0 configuration as `Experiment::run` builds it.
fn config(world: &World, proto: Protocol) -> ScanConfig {
    scan_config(world, &ExperimentConfig::default(), proto, 0, us1())
}

fn world_config(scale_2e22: bool) -> WorldConfig {
    if scale_2e22 {
        WorldConfig::medium(DEFAULT_SEED)
    } else {
        WorldConfig::small(DEFAULT_SEED)
    }
}

fn net(world: &World) -> SimNet<'_> {
    SimNet::new(
        world,
        &OriginId::MAIN,
        ExperimentConfig::default().duration_s,
    )
}

/// FNV-1a 64 over the `Debug` rendering of a scan's output, fed as it is
/// written: equal digests mean equal outputs record for record.
fn output_digest(out: &ScanOutput) -> String {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = write!(h, "{out:?}");
    hex(h.0)
}

/// One timed supervised scan, at 2^22 (`main`) or 2^20 (`main-2e20`).
/// Its digest must equal the `check` process's.
pub fn main(scale_2e22: bool, proto: Protocol, rep: &mut Report) {
    let (world, first_build_s) = timed_build(world_config(scale_2e22));
    let net = net(&world);
    let cfg = config(&world, proto);
    let hub = Telemetry::new();
    let t = Instant::now();
    let run = supervise_scan(
        &net,
        &cfg,
        None,
        &ExperimentConfig::default().policy,
        Some(&hub),
    );
    let wall_s = t.elapsed().as_secs_f64();
    rep.metric("wall_s", wall_s, "s");
    rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    let mut setup = more_builds(|| world_config(scale_2e22), SETUP_REPS - 1);
    setup.push(first_build_s);
    rep.metric("setup_s", median(&setup), "s");
    rep.check(
        run.status == RunStatus::Completed,
        &format!("{proto} scan: {}", run.status),
    );
    let Some(out) = run.output else {
        return;
    };
    rep.digest(output_digest(&out));
    let snap = hub.into_snapshot();
    let mut totals = ScanTotals::default();
    totals.add(&out);
    totals.report(rep);
    rep.metric("scanner.checkpoints", checkpoints(&snap) as f64, "count");
    rep.metric("telemetry.events", snap.events.len() as f64, "count");
}

/// Work counts summed over scan outputs.
#[derive(Debug, Default)]
pub struct ScanTotals {
    probes: u64,
    records: u64,
    synack_hosts: u64,
    l7_successes: u64,
}

impl ScanTotals {
    /// Add one scan's output.
    pub fn add(&mut self, out: &ScanOutput) {
        self.probes += out.summary.probes_sent;
        self.records += out.records.len() as u64;
        self.synack_hosts += out.records.iter().filter(|r| r.l4_responsive()).count() as u64;
        self.l7_successes += out.summary.l7_successes;
    }

    /// Report the counts as `scanner.*` metrics.
    pub fn report(&self, rep: &mut Report) {
        rep.metric("scanner.probes", self.probes as f64, "count");
        rep.metric("scanner.records", self.records as f64, "count");
        rep.metric("scanner.synack_hosts", self.synack_hosts as f64, "count");
        rep.metric("scanner.l7_successes", self.l7_successes as f64, "count");
    }
}

/// Checkpoints the supervisor wrote, over every scope of a hub.
pub fn checkpoints(snap: &TelemetrySnapshot) -> u64 {
    snap.scopes()
        .into_iter()
        .map(|s| snap.counter(s, names::CHECKPOINT_WRITES))
        .sum()
}

/// The plain `run_scan` of the same configuration at 2^22, untimed: the
/// reference the supervised scan's digest must equal.
pub fn check(proto: Protocol, rep: &mut Report) {
    let world = world_config(true).build();
    let out = run_scan(&net(&world), &config(&world, proto));
    rep.check(out.is_ok(), &format!("{proto}: plain run_scan completes"));
    if let Ok(out) = out {
        rep.digest(output_digest(&out));
    }
}

/// The 2^22 scan through a counting network, its probe loop split into
/// probing and checkpoint spans.
pub fn traced(proto: Protocol, spans_path: &Path, rep: &mut Report) {
    let world = world_config(true).build();
    let sim = net(&world);
    let counting = CountingNet::new(&sim);
    let cfg = config(&world, proto);
    let rec = Spans::default();
    let hub = Telemetry::new();
    let policy = ExperimentConfig::default().policy;
    let run = {
        let call = Handle::root(Some(&rec), 0, "scanner.supervise");
        let hook = LoopSpans::new(call.handle(), policy.checkpoint_every);
        let run = supervise_scan(&counting, &cfg, Some(&hook), &policy, Some(&hub));
        hook.finish();
        run
    };
    rep.check(
        run.status == RunStatus::Completed,
        &format!("{proto} scan: {}", run.status),
    );
    let m = match rec.finish(spans_path) {
        Ok(m) => m,
        Err(e) => {
            rep.check(false, &format!("write spans: {e}"));
            return;
        }
    };
    let c = counting.counts();
    rep.metric("traced_wall_s", m.wall_s, "s");
    rep.metric(
        "trace.span_coverage",
        m.coverage("scanner.supervise"),
        "ratio",
    );
    rep.metric(
        "scanner.loop_checkpoint_s",
        m.total_s("scanner.supervise/scanner.checkpoint"),
        "s",
    );
    rep.metric("netmodel.syn_calls", c.syn_calls as f64, "count");
    rep.metric("netmodel.l7_calls", c.l7_calls as f64, "count");
    rep.metric("netmodel.syn_ns", c.syn_mean_ns(), "ns");
    rep.metric("netmodel.l7_ns", c.l7_mean_ns(), "ns");
    rep.metric("netmodel.busy_s", c.busy_s(), "s");
}

/// One split of the US₁ HTTP scan at 2^22: `null` (`run_scan` against a
/// network that never answers), `plain` (`run_scan` against `SimNet`),
/// `supervised` (`supervise_scan`, no hub) or `hub` (`supervise_scan`
/// with the hub). Reports the call's wall seconds as `split_s`.
pub fn split(which: &str, rep: &mut Report) {
    let world = world_config(true).build();
    let net = net(&world);
    let cfg = config(&world, Protocol::Http);
    let policy = ExperimentConfig::default().policy;
    let t = Instant::now();
    let ok = match which {
        "null" => run_scan(&NullNet, &cfg).is_ok(),
        "plain" => run_scan(&net, &cfg).is_ok(),
        "supervised" => {
            supervise_scan(&net, &cfg, None, &policy, None).status == RunStatus::Completed
        }
        "hub" => {
            let hub = Telemetry::new();
            supervise_scan(&net, &cfg, None, &policy, Some(&hub)).status == RunStatus::Completed
        }
        other => {
            rep.check(false, &format!("unknown split {other}"));
            return;
        }
    };
    rep.metric("split_s", t.elapsed().as_secs_f64(), "s");
    rep.check(ok, &format!("split {which} completes"));
}
