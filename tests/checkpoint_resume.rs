//! Resume from every checkpoint: a supervised scan killed right after
//! its k-th periodic checkpoint — or halfway to the next one, losing the
//! records probed since — and resumed by `supervise_scan` produces the
//! uninterrupted `run_scan` output, field by field, timestamps included.
//! Checked for every k of a small open-loop scan and of a small adaptive
//! scan whose controller is driven by RST saturation.

use originscan::core::experiment::{supervise_scan, RunStatus, SupervisorPolicy};
use originscan::core::PolitenessProfile;
use originscan::netmodel::{OriginId, Protocol, SimNet, WorldConfig};
use originscan::scanner::engine::{
    run_scan, FaultAction, FaultCtx, FaultHook, ScanConfig, ScanOutput,
};
use originscan::scanner::rate::rate_for_duration;
use originscan::scanner::target::{L7Ctx, L7Reply, Network, ProbeCtx, SynReply};
use originscan::telemetry::metrics::names;
use originscan::telemetry::{Scope, Telemetry};
use originscan::wire::tcp::TcpHeader;
use std::sync::atomic::{AtomicU64, Ordering};

const DUR_S: f64 = 21.0 * 3600.0;
/// Scan space: 2^14 addresses of the tiny world.
const SPACE: u64 = 1 << 14;
const EVERY: u64 = 1024;

/// Kills the first attempt at its `at`-th hook call (0-based). The
/// engine consults the hook once per loop iteration, right after the
/// checkpoint that iteration may take, so call `k * EVERY` comes just
/// after the k-th checkpoint.
struct KillAtCall {
    at: u64,
    calls: AtomicU64,
}

impl FaultHook for KillAtCall {
    fn before_address(&self, ctx: &FaultCtx) -> FaultAction {
        if ctx.attempt > 0 {
            return FaultAction::Continue;
        }
        if self.calls.fetch_add(1, Ordering::Relaxed) == self.at {
            FaultAction::Kill
        } else {
            FaultAction::Continue
        }
    }
}

/// Counts hook calls without injecting anything.
#[derive(Default)]
struct CountCalls(AtomicU64);

impl FaultHook for CountCalls {
    fn before_address(&self, _: &FaultCtx) -> FaultAction {
        self.0.fetch_add(1, Ordering::Relaxed);
        FaultAction::Continue
    }
}

/// A stateless blocking front: every even /24 answers RSTs, so an
/// adaptive scan backs off, rotates and defers. Memoryless, so a resumed
/// scan replays the span since its checkpoint against identical replies.
struct RstBand<'a, N> {
    inner: &'a N,
}

impl<N: Network> Network for RstBand<'_, N> {
    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        if (ctx.dst >> 8).is_multiple_of(2) {
            SynReply::Rst(TcpHeader::rst_reply(probe))
        } else {
            self.inner.syn(ctx, probe)
        }
    }
    fn l7(&self, ctx: &L7Ctx, req: &[u8]) -> L7Reply {
        self.inner.l7(ctx, req)
    }
}

fn policy() -> SupervisorPolicy {
    SupervisorPolicy {
        checkpoint_every: EVERY,
        ..Default::default()
    }
}

fn assert_same(got: &ScanOutput, want: &ScanOutput, what: &str) {
    assert_eq!(got.summary, want.summary, "{what}: summary");
    assert_eq!(
        got.summary.duration_s.to_bits(),
        want.summary.duration_s.to_bits(),
        "{what}: duration"
    );
    assert_eq!(
        got.records.len(),
        want.records.len(),
        "{what}: record count"
    );
    for (i, (g, w)) in got.records.iter().zip(&want.records).enumerate() {
        assert_eq!(g.addr, w.addr, "{what}: record {i} addr");
        assert_eq!(
            g.synack_mask, w.synack_mask,
            "{what}: record {i} synack_mask"
        );
        assert_eq!(g.got_rst, w.got_rst, "{what}: record {i} got_rst");
        assert_eq!(
            g.response_time_s.to_bits(),
            w.response_time_s.to_bits(),
            "{what}: record {i} response_time_s"
        );
        assert_eq!(g.l7, w.l7, "{what}: record {i} l7");
        assert_eq!(
            g.l7_attempts, w.l7_attempts,
            "{what}: record {i} l7_attempts"
        );
    }
}

/// Kill `cfg`'s supervised scan at each checkpoint in turn, and halfway
/// between checkpoints, and check every resume against `run_scan`.
/// Returns the number of checkpoints the scan takes.
fn resume_from_every_checkpoint(net: &dyn Network, cfg: &ScanConfig) -> u64 {
    let want = run_scan(net, cfg).unwrap();

    // A clean supervised run: its checkpoint count must match the hook
    // call arithmetic the kills below rely on.
    let hub = Telemetry::new();
    let counter = CountCalls::default();
    let clean = supervise_scan(net, cfg, Some(&counter), &policy(), Some(&hub));
    assert_eq!(clean.status, RunStatus::Completed);
    assert_same(clean.output.as_ref().unwrap(), &want, "clean");
    let calls = counter.0.load(Ordering::Relaxed);
    let checkpoints = (calls - 1) / EVERY;
    let scope = Scope::new(cfg.protocol.name(), cfg.trial, cfg.origin);
    assert_eq!(
        hub.snapshot().counter(scope, names::CHECKPOINT_WRITES),
        checkpoints
    );

    for k in 0..=checkpoints {
        for at in [k * EVERY, k * EVERY + EVERY / 2] {
            if at >= calls {
                continue;
            }
            let hook = KillAtCall {
                at,
                calls: AtomicU64::new(0),
            };
            let run = supervise_scan(net, cfg, Some(&hook), &policy(), None);
            let what = format!("killed at call {at} (checkpoint {k})");
            assert_eq!(run.status, RunStatus::Resumed { retries: 1 }, "{what}");
            assert_same(run.output.as_ref().unwrap(), &want, &what);
        }
    }
    checkpoints
}

#[test]
fn open_loop_scan_resumes_identically_from_every_checkpoint() {
    let world = WorldConfig::tiny(41).build();
    let origins = [OriginId::Us1];
    let net = SimNet::new(&world, &origins, DUR_S);
    let mut cfg = ScanConfig::new(SPACE, Protocol::Http, 1234);
    cfg.rate_pps = rate_for_duration(SPACE * 2, DUR_S);
    let checkpoints = resume_from_every_checkpoint(&net, &cfg);
    assert_eq!(checkpoints, SPACE / EVERY);
}

#[test]
fn adaptive_scan_resumes_identically_from_every_checkpoint() {
    let world = WorldConfig::tiny(41).build();
    let origins = [OriginId::Us1];
    let net = SimNet::new(&world, &origins, DUR_S);
    let banded = RstBand { inner: &net };
    let p = PolitenessProfile::adaptive();
    let mut cfg = ScanConfig::new(SPACE, Protocol::Http, 99);
    cfg.rate_pps = rate_for_duration(SPACE * 2, DUR_S);
    cfg.adapt = p.adapt.clone();
    cfg.source_ips = (0..p.source_ips)
        .map(|i| 0x0a00_0100 + u32::from(i))
        .collect();

    // The controller really acted, so the checkpoints carry live pacer
    // and controller state rather than defaults.
    let hub = Telemetry::new();
    supervise_scan(&banded, &cfg, None, &policy(), Some(&hub));
    let snap = hub.snapshot();
    let scope = Scope::new("HTTP", 0, 0);
    assert!(snap.counter(scope, names::ADAPT_BACKOFFS) > 0);
    assert!(snap.counter(scope, names::ADAPT_DEFERRED_ADDRESSES) > 0);

    let checkpoints = resume_from_every_checkpoint(&banded, &cfg);
    assert_eq!(checkpoints, SPACE / EVERY);
}
