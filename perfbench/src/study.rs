//! Workload `study-2e20`: the paper's study on a 2^20-address world —
//! 7 origins × HTTP/HTTPS/SSH × 3 trials of supervised scans, then the
//! trial matrices, the full report, and the encoded scan-set store.

use crate::hook::LoopSpans;
use crate::nets::{CountingNet, NetCounts};
use crate::report::{hex, median, peak_rss_mib, Report};
use crate::scan::{checkpoints, ScanTotals};
use crate::spans::{Handle, Merged, Spans};
use originscan_core::experiment::{
    supervise_scan, Experiment, ExperimentConfig, OriginRun, RunStatus,
};
use originscan_core::matrix::TrialMatrix;
use originscan_core::results::ExperimentResults;
use originscan_core::summary::full_report;
use originscan_netmodel::{Protocol, SimNet, World, WorldConfig};
use originscan_scanner::engine::ScanConfig;
use originscan_serve::query::fnv1a64;
use originscan_store::ScanSetStore;
use originscan_telemetry::metrics::names;
use originscan_telemetry::Telemetry;
use std::path::Path;
use std::time::Instant;

/// The seed a run uses when none is given; the report digest is pinned
/// for it.
pub const DEFAULT_SEED: u64 = 2020;

/// FNV-1a 64 of `full_report` for `WorldConfig::small(DEFAULT_SEED)`
/// under the default experiment configuration.
const PINNED_REPORT_DIGEST: u64 = 0xbd01_8e06_98ea_e3c3;

/// World builds per process; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Build the world once: the world and the build's seconds.
pub fn timed_build(cfg: WorldConfig) -> (World, f64) {
    let t = Instant::now();
    let world = cfg.build();
    (world, t.elapsed().as_secs_f64())
}

/// Seconds of each of `reps` more builds, each world dropped at once. A
/// process makes these after its measured work: the large blocks a
/// dropped world frees raise glibc's mmap threshold, which would change
/// how the work's checkpoint copies are allocated and so its time.
pub fn more_builds(cfg: impl Fn() -> WorldConfig, reps: usize) -> Vec<f64> {
    (0..reps).map(|_| timed_build(cfg()).1).collect()
}

/// The scan configuration `Experiment::run` gives origin `origin_idx` in
/// one (protocol, trial).
pub fn scan_config(
    world: &World,
    cfg: &ExperimentConfig,
    proto: Protocol,
    trial: u8,
    origin_idx: usize,
) -> ScanConfig {
    let space = world.space();
    let spec = cfg.origins[origin_idx].spec();
    let mut c = ScanConfig::new(space, proto, cfg.base_seed + u64::from(trial));
    c.origin = origin_idx as u16;
    c.trial = trial;
    c.probes = cfg.probes;
    c.rate_pps =
        originscan_scanner::rate::rate_for_duration(space * u64::from(cfg.probes), cfg.duration_s);
    c.l7_retries = cfg.l7_retries;
    c.probe_delay_s = cfg.probe_delay_s;
    c.concurrent_origins = cfg.origins.len() as u8;
    c.wire_check = cfg.wire_check;
    c.source_ips = (0..spec.source_ips)
        .map(|i| 0x0a00_0100u32 + u32::from(i))
        .collect();
    c
}

/// One timed study: world built → report rendered and store encoded.
pub fn main(seed: u64, rep: &mut Report) {
    let (world, first_build_s) = timed_build(WorldConfig::small(seed));

    let t = Instant::now();
    let results = match Experiment::new(&world, ExperimentConfig::default()).run() {
        Ok(r) => r,
        Err(e) => {
            rep.check(false, &format!("Experiment::run: {e}"));
            return;
        }
    };
    let scans_s = t.elapsed().as_secs_f64();
    let report = full_report(&results);
    let store = results.scan_set_store();
    let bytes = store.to_bytes();
    let wall_s = t.elapsed().as_secs_f64();

    rep.metric("wall_s", wall_s, "s");
    rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    let mut setup = more_builds(|| WorldConfig::small(seed), SETUP_REPS - 1);
    setup.push(first_build_s);
    rep.metric("setup_s", median(&setup), "s");
    let snap = results.telemetry();
    let probes: u64 = snap
        .scopes()
        .into_iter()
        .map(|s| snap.counter(s, names::PROBES_SENT))
        .sum();
    rep.metric("probes_per_s", probes as f64 / scans_s, "1/s");
    rep.metric("telemetry.events", snap.events.len() as f64, "count");

    check_results(&results, rep);
    match bytes {
        Ok(bytes) => {
            rep.metric("store.bytes", bytes.len() as f64, "bytes");
            rep.check(
                ScanSetStore::from_bytes(&bytes).is_ok_and(|s| s == store),
                "store round-trips through ScanSetStore::from_bytes",
            );
        }
        Err(e) => rep.check(false, &format!("store encode: {e}")),
    }
    let digest = fnv1a64(report.as_bytes());
    if seed == DEFAULT_SEED {
        rep.check(
            digest == PINNED_REPORT_DIGEST,
            &format!(
                "report digest {} != pinned {}",
                hex(digest),
                hex(PINNED_REPORT_DIGEST)
            ),
        );
    }
    rep.digest(hex(digest));
}

/// Every one of the study's origin scans must have completed.
fn check_results(results: &ExperimentResults<'_>, rep: &mut Report) {
    for m in results.matrices() {
        for (i, s) in m.statuses.iter().enumerate() {
            rep.check(
                *s == RunStatus::Completed,
                &format!("{} trial {} origin {i}: {s}", m.protocol, m.trial),
            );
        }
    }
}

/// Field-by-field equality of two trial matrices.
fn same_matrix(a: &TrialMatrix, b: &TrialMatrix) -> bool {
    a.protocol == b.protocol
        && a.trial == b.trial
        && a.addrs == b.addrs
        && a.hour == b.hour
        && a.outcomes == b.outcomes
        && a.statuses == b.statuses
        && a.gt_set == b.gt_set
        && a.seen_sets == b.seen_sets
        && a.one_probe_sets == b.one_probe_sets
}

/// The traced study: each trial recomposed from `SimNet::new`, the
/// per-origin `supervise_scan` fan-out and `TrialMatrix::build_supervised`,
/// under spans, with each scan's probe loop split into probing and
/// checkpoint spans; then `Experiment::run` as the reference the
/// recomposed matrices must equal, and the report and store encoding
/// under spans.
pub fn traced(seed: u64, spans_path: &Path, rep: &mut Report) {
    let rec = Spans::default();
    let world = WorldConfig::small(seed).build();
    let cfg = ExperimentConfig::default();
    let hub = Telemetry::new();
    let mut counts = NetCounts::default();
    let mut totals = ScanTotals::default();
    let mut stragglers = Vec::new();
    let mut matrices = Vec::new();
    {
        let root = Handle::root(Some(&rec), 0, "study");
        for &proto in &cfg.protocols {
            for trial in 0..cfg.trials {
                let net = {
                    let _s = root.child("netmodel.simnet_new");
                    SimNet::new(&world, &cfg.origins, cfg.duration_s)
                };
                let fan = root.child("core.scan");
                let h = fan.handle();
                let mut outs: Vec<Option<(OriginRun, f64, NetCounts)>> =
                    (0..cfg.origins.len()).map(|_| None).collect();
                std::thread::scope(|s| {
                    for (i, slot) in outs.iter_mut().enumerate() {
                        let c = scan_config(&world, &cfg, proto, trial, i);
                        let (net, cfg, hub) = (&net, &cfg, &hub);
                        s.spawn(move || {
                            let call = h.child("scanner.supervise");
                            let hook = LoopSpans::new(call.handle(), cfg.policy.checkpoint_every);
                            let counting = CountingNet::new(net);
                            let t = Instant::now();
                            let run =
                                supervise_scan(&counting, &c, Some(&hook), &cfg.policy, Some(hub));
                            let wall = t.elapsed().as_secs_f64();
                            hook.finish();
                            *slot = Some((run, wall, counting.counts()));
                        });
                    }
                });
                drop(fan);
                let mut runs = Vec::new();
                let mut walls = Vec::new();
                for (run, wall, c) in outs.into_iter().flatten() {
                    if let Some(out) = &run.output {
                        totals.add(out);
                    }
                    runs.push(run);
                    walls.push(wall);
                    counts.merge(c);
                }
                let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
                stragglers.push(walls.iter().copied().fold(0.0, f64::max) / mean);
                let _s = root.child("core.matrix");
                matrices.push(TrialMatrix::build_supervised(
                    &world,
                    proto,
                    trial,
                    &cfg.origins,
                    &runs,
                    cfg.duration_s,
                ));
            }
        }
    }

    let results = match Experiment::new(&world, cfg.clone()).run() {
        Ok(r) => r,
        Err(e) => {
            rep.check(false, &format!("Experiment::run: {e}"));
            return;
        }
    };
    for m in &matrices {
        let same = results
            .try_matrix(m.protocol, m.trial)
            .is_some_and(|r| same_matrix(m, r));
        rep.check(
            same,
            &format!(
                "recomposed {} trial {} matrix equals Experiment::run's",
                m.protocol, m.trial
            ),
        );
    }
    check_results(&results, rep);
    {
        let root = Handle::root(Some(&rec), 0, "analysis");
        let report = {
            let _s = root.child("core.report");
            full_report(&results)
        };
        rep.digest(hex(fnv1a64(report.as_bytes())));
        let bytes = {
            let _s = root.child("store.encode");
            results.scan_set_store().to_bytes()
        };
        rep.check(bytes.is_ok(), "store encodes");
        if let Ok(b) = bytes {
            rep.metric("store.bytes", b.len() as f64, "bytes");
        }
    }

    let merged = match rec.finish(spans_path) {
        Ok(m) => m,
        Err(e) => {
            rep.check(false, &format!("write spans: {e}"));
            return;
        }
    };
    report_layers(&merged, &counts, &stragglers, rep);
    totals.report(rep);
    rep.metric(
        "scanner.checkpoints",
        checkpoints(&hub.snapshot()) as f64,
        "count",
    );
    rep.metric(
        "telemetry.events",
        results.telemetry().events.len() as f64,
        "count",
    );
}

fn report_layers(m: &Merged, counts: &NetCounts, stragglers: &[f64], rep: &mut Report) {
    rep.metric("traced_wall_s", m.wall_s, "s");
    rep.metric(
        "trace.span_coverage",
        m.coverage("scanner.supervise"),
        "ratio",
    );
    rep.metric("core.scan_s", m.total_s("study/core.scan"), "s");
    rep.metric("core.matrix_s", m.total_s("study/core.matrix"), "s");
    rep.metric("core.report_s", m.total_s("analysis/core.report"), "s");
    rep.metric("store.encode_s", m.total_s("analysis/store.encode"), "s");
    rep.metric(
        "scanner.loop_checkpoint_s",
        m.total_s("study/core.scan/scanner.supervise/scanner.checkpoint"),
        "s",
    );
    rep.metric("core.straggler_ratio", median(stragglers), "ratio");
    rep.metric("netmodel.syn_calls", counts.syn_calls as f64, "count");
    rep.metric("netmodel.l7_calls", counts.l7_calls as f64, "count");
    rep.metric("netmodel.syn_ns", counts.syn_mean_ns(), "ns");
    rep.metric("netmodel.l7_ns", counts.l7_mean_ns(), "ns");
    rep.metric("netmodel.busy_s", counts.busy_s(), "s");
}
