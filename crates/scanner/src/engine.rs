//! The scan engine: drives a full ZMap + ZGrab pass over an address space.
//!
//! For every address in the seed-determined pseudorandom order
//! ([`crate::cyclic`]), the engine sends `probes` back-to-back SYNs
//! (stateless, validation-tagged), collects validated replies, and — for
//! L4-responsive hosts — immediately runs the application handshake
//! ([`crate::zgrab`]), exactly mirroring the paper's ZMap → ZGrab
//! pipeline.
//!
//! # Supervision, faults, and resume
//!
//! Real measurement campaigns lose vantage points mid-scan; the paper's
//! multi-origin methodology only works if the remaining origins' results
//! stay valid. The engine therefore supports *supervised* execution via
//! [`run_scan_session`]:
//!
//! * a [`FaultHook`] is consulted before every address and may stall the
//!   probe pipeline or kill the scan (simulating the origin dying);
//! * periodic [`ScanCheckpoint`]s — permutation position, stall clock,
//!   summary counters, the number of records logged so far, and any
//!   adaptive state — are written to a [`CheckpointStore`] that outlives
//!   the scan (and any panic inside it), so a supervisor can resume
//!   mid-permutation. A checkpoint is a cursor, not a copy: records are
//!   append-only in permutation order, so each save *moves* the records
//!   found since the previous save onto the store's log, and a scan's
//!   cost and memory grow with its output, not with output × checkpoints;
//! * resuming from a checkpoint reproduces *exactly* the state an
//!   uninterrupted scan would have had at that point: the permutation
//!   fast-forwards in O(log n) and the pacer's clock is a closed-form
//!   function of probes sent, so re-run timestamps are bit-identical.

use crate::blocklist::Blocklist;
use crate::cyclic::Cycle;
use crate::error::{ConfigError, ScanError};
use crate::probe::{module_for, ProbeModule, ProbeShot, ProbeVerdict};
use crate::rate::{Pacer, PacerSnapshot};
use crate::resilience::{AdaptivePolicy, Controller, ControllerState, Reaction};
use crate::target::{L7Ctx, Network, ProbeCtx, Protocol};
use crate::zgrab::{self, L7Outcome};
use originscan_plan::TargetPlan;
use originscan_telemetry::metrics::{self, names};
use originscan_telemetry::{EventKind, MetricBatch, Scope, Telemetry, Tracer};
use originscan_wire::validation::Validator;
use std::sync::Mutex;

/// Configuration for one scan (one origin, one protocol, one trial).
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Scan seed: fixes the address permutation and validation key. The
    /// paper uses the *same* seed from all origins so scanners stay
    /// synchronized.
    pub seed: u64,
    /// Size of the scanned address space (addresses are `0..space`).
    pub space: u64,
    /// SYN probes per address, sent back-to-back (paper: 2).
    pub probes: u8,
    /// Send rate in probes per second.
    pub rate_pps: f64,
    /// Probes per send batch.
    pub batch: u32,
    /// Source addresses to cycle through (US₆₄ uses 64; most origins 1).
    pub source_ips: Vec<u32>,
    /// First ephemeral source port.
    pub sport_base: u16,
    /// Number of ephemeral source ports to spread flows over.
    pub sport_range: u16,
    /// Opaque origin index forwarded to the network model.
    pub origin: u16,
    /// Trial number forwarded to the network model.
    pub trial: u8,
    /// Protocol to scan.
    pub protocol: Protocol,
    /// Addresses never probed (the synchronized exclusion list).
    pub blocklist: Blocklist,
    /// Immediate L7 retries after closed/timed-out connections (paper
    /// baseline: 0; §6 sweeps 0..8).
    pub l7_retries: u8,
    /// Seconds between successive probes to the same address (paper
    /// baseline: 0, back-to-back). §7 endorses Bano et al.'s delayed
    /// probes: separating probes in time lets the second escape the
    /// correlated transient-loss state the first hit.
    pub probe_delay_s: f64,
    /// Shard spec `(index, total)`; `(0, 1)` scans everything.
    pub shard: (u64, u64),
    /// Origins scanning concurrently with this one (affects MaxStartups).
    pub concurrent_origins: u8,
    /// When set, every probe is round-tripped through its byte-level
    /// encoding (IPv4 + TCP emit/parse with checksums) as a self-check of
    /// the wire codecs. Costs ~2× per probe; default on in tests, off in
    /// large benches.
    pub wire_check: bool,
    /// Adaptive resilience policy (None: classic open-loop scan,
    /// byte-identical to builds before the controller existed). When set,
    /// the engine feeds every address outcome to a
    /// [`crate::resilience::Controller`] and applies its reactions: rate
    /// backoff/recovery at batch boundaries, source-IP rotation through
    /// [`ScanConfig::source_ips`], and deferral of suspect /24s to an
    /// end-of-scan tail pass.
    pub adapt: Option<AdaptivePolicy>,
    /// Optional target plan (None: probe the whole space, byte-identical
    /// to builds before the planner existed). When set, addresses outside
    /// the plan's /24 allowlist are skipped before probing, composing
    /// with the blocklist and sharding: each shard probes exactly its
    /// slice of `plan ∩ ¬blocklist`. The permutation still walks the full
    /// space, so planned scans stay synchronized across origins.
    pub plan: Option<TargetPlan>,
}

impl ScanConfig {
    /// A reasonable default configuration for `space` addresses: 2 probes,
    /// single source IP, rate chosen so the scan lasts the paper's ~21 h of
    /// simulated time.
    pub fn new(space: u64, protocol: Protocol, seed: u64) -> Self {
        let duration_s = 21.0 * 3600.0;
        Self {
            seed,
            space,
            probes: 2,
            rate_pps: crate::rate::rate_for_duration(space, duration_s),
            batch: 16,
            source_ips: vec![0x0a00_0001],
            sport_base: 32768,
            sport_range: 16384,
            origin: 0,
            trial: 0,
            protocol,
            blocklist: Blocklist::new(),
            l7_retries: 0,
            probe_delay_s: 0.0,
            shard: (0, 1),
            concurrent_origins: 1,
            wire_check: false,
            adapt: None,
            plan: None,
        }
    }

    /// Check every invariant the engine relies on, so a malformed
    /// configuration surfaces as a typed error instead of a panic deep in
    /// the scan loop.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.space == 0 {
            return Err(ConfigError::EmptySpace);
        }
        if self.probes == 0 {
            return Err(ConfigError::ZeroProbes);
        }
        if self.probes > 8 {
            return Err(ConfigError::TooManyProbes {
                probes: self.probes,
            });
        }
        if self.source_ips.is_empty() {
            return Err(ConfigError::NoSourceIps);
        }
        if self.shard.1 == 0 || self.shard.0 >= self.shard.1 {
            return Err(ConfigError::InvalidShard {
                shard: self.shard.0,
                total: self.shard.1,
            });
        }
        // NaN fails every ordered comparison, so reject it explicitly.
        if self.rate_pps.is_nan() || self.rate_pps <= 0.0 {
            return Err(ConfigError::NonPositiveRate);
        }
        if self.batch == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if let Some(adapt) = &self.adapt {
            if adapt.window_addrs == 0
                || !(adapt.backoff_factor > 0.0 && adapt.backoff_factor < 1.0)
            {
                return Err(ConfigError::BadAdaptivePolicy);
            }
        }
        if let Some(plan) = &self.plan {
            if plan.space() != self.space {
                return Err(ConfigError::PlanSpaceMismatch {
                    plan_space: plan.space(),
                    space: self.space,
                });
            }
        }
        Ok(())
    }
}

/// Per-responsive-address record produced by a scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostScanRecord {
    /// The probed address.
    pub addr: u32,
    /// Bit `i` set ⇔ probe `i` got a *validated* SYN-ACK.
    pub synack_mask: u8,
    /// A validated RST was seen (host reachable, port closed/refused).
    pub got_rst: bool,
    /// Simulated time of the first validated response.
    pub response_time_s: f64,
    /// Application-layer outcome (only attempted when a SYN-ACK arrived).
    pub l7: L7Outcome,
    /// L7 attempts performed.
    pub l7_attempts: u8,
}

impl HostScanRecord {
    /// Did at least one SYN probe elicit a validated SYN-ACK?
    pub fn l4_responsive(&self) -> bool {
        self.synack_mask != 0
    }

    /// Did the host complete the application handshake?
    pub fn l7_success(&self) -> bool {
        self.l7.is_success()
    }

    /// Number of probes answered with a SYN-ACK.
    pub fn synack_count(&self) -> u32 {
        u32::from(self.synack_mask).count_ones()
    }
}

/// Aggregate counters for one scan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScanSummary {
    /// SYN probes sent.
    pub probes_sent: u64,
    /// Addresses probed (after blocklist and sharding).
    pub addresses_probed: u64,
    /// Addresses skipped by the blocklist.
    pub blocked: u64,
    /// Addresses skipped because they fall outside the target plan.
    pub plan_skipped: u64,
    /// Validated SYN-ACKs received.
    pub synacks: u64,
    /// Replies that failed stateless validation (spoofed/stale).
    pub validation_failures: u64,
    /// Hosts whose application handshake completed.
    pub l7_successes: u64,
    /// Simulated scan duration in seconds.
    pub duration_s: f64,
}

/// Output of [`run_scan`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanOutput {
    /// One record per address that produced any validated response.
    pub records: Vec<HostScanRecord>,
    /// Aggregate counters.
    pub summary: ScanSummary,
}

/// What a [`FaultHook`] tells the engine to do before an address.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// No fault: probe normally.
    Continue,
    /// Probe-pipeline stall: shift this and every later probe `delay_s`
    /// seconds into the future (the send NIC blocked, the pacer fell
    /// behind). The stall accumulates into the scan's duration.
    Stall {
        /// Seconds of additional delay to accumulate.
        delay_s: f64,
    },
    /// Kill the scan here — the origin's scanning process dies. The
    /// engine returns [`ScanError::Killed`] without saving further state;
    /// only previously written periodic checkpoints survive.
    Kill,
}

/// Everything a [`FaultHook`] may condition on. All fields are pure
/// functions of the scan's progress, so a deterministic hook plus a
/// deterministic network yields bit-identical runs.
#[derive(Debug, Clone, Copy)]
pub struct FaultCtx {
    /// Origin index of the running scan.
    pub origin: u16,
    /// Trial number of the running scan.
    pub trial: u8,
    /// Supervisor attempt number: 0 for the first run, incremented on
    /// every retry/resume. Hooks use this to model faults that strike
    /// once and then clear (the supervisor's retry succeeds).
    pub attempt: u32,
    /// Permutation group steps consumed so far.
    pub steps: u64,
    /// Addresses fully probed so far.
    pub addresses_probed: u64,
    /// Send-clock time of the next probe, including accumulated stalls.
    pub time_s: f64,
    /// Stall seconds already accumulated.
    pub stall_s: f64,
}

/// A fault-injection hook consulted before every address.
///
/// Implementations must be deterministic in `FaultCtx` (plus their own
/// construction-time state): the integration suite asserts that a faulted
/// run is reproducible and that unaffected origins are bit-identical to a
/// fault-free run.
pub trait FaultHook: Sync {
    /// Decide what happens before the next address is probed.
    fn before_address(&self, ctx: &FaultCtx) -> FaultAction;
}

/// Adaptive-scan state captured alongside a [`ScanCheckpoint`]. The
/// pacer of an adaptive scan is no longer a closed-form function of its
/// probe count (mid-scan rate changes re-anchor it), so resuming needs a
/// full snapshot of both the pacer and the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptCheckpoint {
    /// Complete pacer state at the checkpoint.
    pub pacer: PacerSnapshot,
    /// Complete controller state at the checkpoint.
    pub ctrl: ControllerState,
}

/// Resumable scan state: a cursor into a scan's permutation and into the
/// record log of the [`CheckpointStore`] it was saved to. Together with
/// that log it is everything needed to continue a scan from the middle
/// of its permutation with bit-identical results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanCheckpoint {
    /// Permutation group steps consumed when the checkpoint was taken.
    pub steps: u64,
    /// Accumulated pipeline-stall seconds at the checkpoint.
    pub stall_s: f64,
    /// Aggregate counters up to the checkpoint.
    pub summary: ScanSummary,
    /// Records found up to the checkpoint: the length of the store's
    /// log when the checkpoint was saved. The records themselves stay in
    /// the log.
    pub logged_records: usize,
    /// Adaptive-scan state (None for classic open-loop scans).
    pub adapt: Option<AdaptCheckpoint>,
}

/// A thread-safe checkpoint store: an append-only record log plus the
/// latest cursor into it.
///
/// The store lives *outside* the scan (typically on the supervisor's
/// stack) so it survives a scan thread that panics or is killed by an
/// injected fault; the supervisor then [`CheckpointStore::take`]s the
/// last periodic checkpoint and resumes. The resumed scan appends to the
/// same log and, on completion, moves the whole log back out, leaving
/// the store empty.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    state: Mutex<StoreState>,
}

/// The record log and the latest cursor, kept under one lock so a save
/// updates both at once.
#[derive(Debug, Default)]
struct StoreState {
    log: Vec<HostScanRecord>,
    cursor: Option<ScanCheckpoint>,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` on the log and cursor. A poisoned lock means a writer
    /// panicked inside the store. A save grows the log before it assigns
    /// the cursor, so at worst the log runs ahead of the cursor, and
    /// [`CheckpointStore::take`] truncates it back; the state is
    /// therefore reused.
    fn with_state<T>(&self, f: impl FnOnce(&mut StoreState) -> T) -> T {
        match self.state.lock() {
            Ok(mut g) => f(&mut g),
            Err(poisoned) => f(&mut poisoned.into_inner()),
        }
    }

    /// Move `tail` — the records found since the previous save — onto the
    /// log, leaving `tail` empty, and make `cp` the latest cursor with
    /// its [`ScanCheckpoint::logged_records`] set to the log's length.
    pub(crate) fn save(&self, tail: &mut Vec<HostScanRecord>, mut cp: ScanCheckpoint) {
        self.with_state(|s| {
            s.log.append(tail);
            cp.logged_records = s.log.len();
            s.cursor = Some(cp);
        });
    }

    /// Remove and return the latest cursor, if any, and truncate the log
    /// to the records it covers (all of them when no cursor is stored),
    /// so a scan resumed from it never sees records past it.
    pub fn take(&self) -> Option<ScanCheckpoint> {
        self.with_state(|s| {
            let cp = s.cursor.take();
            s.log.truncate(cp.as_ref().map_or(0, |c| c.logged_records));
            cp
        })
    }

    /// Is a cursor currently stored?
    pub fn is_saved(&self) -> bool {
        self.with_state(|s| s.cursor.is_some())
    }

    /// Drop the cursor and move the whole log out, leaving the store
    /// empty.
    pub(crate) fn take_log(&self) -> Vec<HostScanRecord> {
        self.with_state(|s| {
            s.cursor = None;
            std::mem::take(&mut s.log)
        })
    }

    /// Prepare the log for a session resuming from `cp`, or for a fresh
    /// session when `cp` is None: drop any stored cursor and keep exactly
    /// the records `cp` covers. False when the log holds fewer.
    fn rewind(&self, cp: Option<&ScanCheckpoint>) -> bool {
        let keep = cp.map_or(0, |c| c.logged_records);
        self.with_state(|s| {
            s.cursor = None;
            s.log.truncate(keep);
            s.log.len() == keep
        })
    }
}

/// Supervision options for [`run_scan_session`].
#[derive(Default)]
pub struct ScanSession<'a> {
    /// Fault hook consulted before each address (None: no faults).
    pub hook: Option<&'a dyn FaultHook>,
    /// Save a checkpoint every this many addresses (0 disables).
    pub checkpoint_every: u64,
    /// Where periodic checkpoints, and the records they cover, are
    /// written. A fresh session (no `resume`) empties it first.
    pub store: Option<&'a CheckpointStore>,
    /// Resume from this checkpoint instead of starting fresh. Its
    /// records are read from `store`'s log, which must hold at least
    /// [`ScanCheckpoint::logged_records`] of them.
    pub resume: Option<ScanCheckpoint>,
    /// Supervisor attempt number forwarded to the fault hook.
    pub attempt: u32,
    /// Telemetry hub recording this scan's events and metrics (None:
    /// telemetry off, zero overhead). Events are emitted at simulated
    /// time as they happen; metrics are accumulated locally and flushed
    /// in one lock acquisition at completion.
    pub telemetry: Option<&'a Telemetry>,
}

// Manual impl: `hook` is a `&dyn FaultHook` with no Debug bound, so show
// which supervision knobs are engaged rather than their contents.
impl std::fmt::Debug for ScanSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanSession")
            .field("hook", &self.hook.is_some())
            .field("checkpoint_every", &self.checkpoint_every)
            .field("store", &self.store.is_some())
            .field("resume", &self.resume.is_some())
            .field("attempt", &self.attempt)
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

/// Execute one scan against `net` with no supervision: no fault hook, no
/// checkpoints. Equivalent to [`run_scan_session`] with a default
/// session.
pub fn run_scan(net: &dyn Network, cfg: &ScanConfig) -> Result<ScanOutput, ScanError> {
    run_scan_session(net, cfg, ScanSession::default())
}

/// A no-op-when-disabled telemetry handle bound to this scan's scope.
struct Tele<'a> {
    hub: Option<&'a Telemetry>,
    scope: Scope,
}

impl Tele<'_> {
    fn emit(&self, time_s: f64, kind: EventKind) {
        if let Some(hub) = self.hub {
            hub.emit(self.scope, time_s, kind);
        }
    }
}

/// Build the per-scan metric batch from the finished output. Called once
/// at completion (the summary is cumulative across resumes, so this is
/// also correct for scans that crossed a checkpoint).
fn scan_metrics(out: &ScanOutput, stall_s: f64, checkpoint_writes: u64) -> MetricBatch {
    let s = &out.summary;
    let mut b = MetricBatch::new();
    b.add(names::PROBES_SENT, s.probes_sent);
    b.add(names::ADDRESSES_PROBED, s.addresses_probed);
    b.add(names::BLOCKLIST_SKIPS, s.blocked);
    b.add(names::SYNACKS, s.synacks);
    b.add(names::VALIDATION_FAILURES, s.validation_failures);
    b.add(names::RESPONSIVE_HOSTS, out.records.len() as u64);
    b.add(names::CHECKPOINT_WRITES, checkpoint_writes);
    b.set_gauge(names::DURATION_SECONDS, s.duration_s);
    if stall_s > 0.0 {
        b.set_gauge(names::STALL_SECONDS, stall_s);
    }
    let (mut ok, mut closed, mut timeout, mut proto_err) = (0u64, 0u64, 0u64, 0u64);
    for r in &out.records {
        if s.duration_s > 0.0 {
            b.observe(
                names::RESPONSE_FRAC,
                metrics::RESPONSE_FRAC_BOUNDS,
                r.response_time_s / s.duration_s,
            );
        }
        // L7 classes are only meaningful where a handshake was attempted
        // (RST-only hosts carry a placeholder outcome).
        if r.l4_responsive() {
            b.observe(
                names::L7_ATTEMPTS,
                metrics::L7_ATTEMPT_BOUNDS,
                f64::from(r.l7_attempts),
            );
            match r.l7 {
                L7Outcome::Success(_) => ok += 1,
                L7Outcome::ConnClosed(_) => closed += 1,
                L7Outcome::Timeout => timeout += 1,
                L7Outcome::ProtocolError => proto_err += 1,
            }
        }
    }
    b.add(names::L7_SUCCESS, ok);
    b.add(names::L7_CONN_CLOSED, closed);
    b.add(names::L7_TIMEOUT, timeout);
    b.add(names::L7_PROTOCOL_ERROR, proto_err);
    b
}

/// Outcome of probing one address, as observed by the adaptive
/// controller.
struct AddrOutcome {
    /// At least one probe got a validated SYN-ACK.
    responsive: bool,
    /// A validated RST arrived.
    rst: bool,
    /// Send time of the address's last probe (the controller's clock).
    last_t: f64,
}

/// Probe one address end to end: pace and send every probe through the
/// scan's [`ProbeModule`], fold the module's verdicts into the record,
/// run the ZGrab follow-up for stateful modules, and append to `out`.
/// Extracted from the main loop so the adaptive tail pass probes
/// deferred addresses through the exact same path.
#[allow(clippy::too_many_arguments)]
fn probe_address(
    net: &dyn Network,
    cfg: &ScanConfig,
    module: &dyn ProbeModule,
    validator: &Validator,
    pacer: &mut Pacer,
    stall_s: f64,
    addr: u32,
    src_override: Option<u32>,
    out: &mut ScanOutput,
    tracer: Option<&Tracer>,
) -> Result<AddrOutcome, ScanError> {
    out.summary.addresses_probed += 1;
    let dport = module.port();
    // ZMap spreads flows over source IPs/ports by address hash; an
    // adaptive scan pins the source to the controller's active one.
    let mix = (addr ^ (addr >> 16)).wrapping_mul(0x9E37_79B9);
    let src_ip = match src_override {
        Some(ip) => ip,
        None => cfg.source_ips[(mix as usize) % cfg.source_ips.len()],
    };
    let sport = cfg
        .sport_base
        .wrapping_add(((mix >> 8) % u32::from(cfg.sport_range.max(1))) as u16);

    let mut synack_mask = 0u8;
    let mut got_rst = false;
    let mut response_time = 0.0f64;
    let mut last_t = 0.0f64;
    let mut detail = None;
    let shot = ProbeShot {
        validator,
        sport,
        dport,
        wire_check: cfg.wire_check,
    };
    for probe_idx in 0..cfg.probes {
        let t = pacer.next_send_time() + stall_s + f64::from(probe_idx) * cfg.probe_delay_s;
        last_t = t;
        out.summary.probes_sent += 1;
        let ctx = ProbeCtx {
            origin: cfg.origin,
            src_ip,
            dst: addr,
            protocol: cfg.protocol,
            time_s: t,
            probe_idx,
            trial: cfg.trial,
        };
        match module.deliver(net, &shot, &ctx)? {
            ProbeVerdict::Positive(d) => {
                if synack_mask == 0 && !got_rst {
                    response_time = t;
                }
                synack_mask |= 1 << probe_idx;
                if detail.is_none() {
                    detail = d;
                }
            }
            ProbeVerdict::Negative => {
                if synack_mask == 0 && !got_rst {
                    response_time = t;
                }
                got_rst = true;
            }
            ProbeVerdict::Invalid => {
                out.summary.validation_failures += 1;
                if let Some(tr) = tracer {
                    tr.instant_at("validate", t);
                }
            }
            ProbeVerdict::Silent => {}
        }
    }

    if synack_mask != 0 {
        out.summary.synacks += u64::from(u32::from(synack_mask).count_ones());
        let (l7, l7_attempts) = match detail {
            // Stateless module: the validated probe reply is already the
            // terminal application result; no follow-up connection.
            Some(d) => (L7Outcome::Success(d), 0),
            None => {
                // ZGrab follows up immediately on L4-responsive hosts.
                let l7ctx = L7Ctx {
                    origin: cfg.origin,
                    src_ip,
                    dst: addr,
                    protocol: cfg.protocol,
                    time_s: response_time,
                    trial: cfg.trial,
                    attempt: 0,
                    concurrent_origins: cfg.concurrent_origins,
                };
                let grab = zgrab::grab(net, l7ctx, cfg.l7_retries);
                (grab.outcome, grab.attempts)
            }
        };
        if l7.is_success() {
            out.summary.l7_successes += 1;
        }
        out.records.push(HostScanRecord {
            addr,
            synack_mask,
            got_rst,
            response_time_s: response_time,
            l7,
            l7_attempts,
        });
    } else if got_rst {
        out.records.push(HostScanRecord {
            addr,
            synack_mask: 0,
            got_rst: true,
            response_time_s: response_time,
            l7: L7Outcome::Timeout,
            l7_attempts: 0,
        });
    }
    Ok(AddrOutcome {
        responsive: synack_mask != 0,
        rst: got_rst,
        last_t,
    })
}

/// Apply a controller [`Reaction`] to the running scan: re-rate the pacer
/// at the batch boundary and emit the adaptation timeline events.
fn apply_reaction(
    reaction: &Reaction,
    cfg: &ScanConfig,
    pacer: &mut Pacer,
    tele: &Tele<'_>,
    tracer: Option<&Tracer>,
    time_s: f64,
) {
    if reaction.backoff.is_some()
        || reaction.recovered.is_some()
        || reaction.rotated.is_some()
        || reaction.suspect.is_some()
    {
        if let Some(tr) = tracer {
            tr.instant_at("adapt", time_s);
        }
    }
    if let Some((level, rate_mult)) = reaction.backoff {
        pacer.set_rate((cfg.rate_pps * rate_mult).max(f64::MIN_POSITIVE));
        tele.emit(time_s, EventKind::BackoffEngaged { level, rate_mult });
    }
    if let Some((level, rate_mult)) = reaction.recovered {
        pacer.set_rate((cfg.rate_pps * rate_mult).max(f64::MIN_POSITIVE));
        tele.emit(time_s, EventKind::BackoffReleased { level, rate_mult });
    }
    if let Some(source_idx) = reaction.rotated {
        tele.emit(time_s, EventKind::SourceRotated { source_idx });
    }
    if let Some((prefix, release_s)) = reaction.suspect {
        tele.emit(time_s, EventKind::PrefixDeferred { prefix, release_s });
    }
}

/// Execute one scan against `net` under supervision: consult the fault
/// hook before every address, periodically checkpoint resumable state,
/// and optionally resume from a prior checkpoint.
pub fn run_scan_session(
    net: &dyn Network,
    cfg: &ScanConfig,
    session: ScanSession<'_>,
) -> Result<ScanOutput, ScanError> {
    cfg.validate()?;
    // The probe module is resolved once per scan; everything below is
    // scenario-agnostic and threads the module through to delivery.
    let module = module_for(cfg.protocol);
    let tele = Tele {
        hub: session.telemetry,
        scope: Scope::new(module.name(), cfg.trial, cfg.origin),
    };
    let cycle = Cycle::new(cfg.space, cfg.seed);
    let validator = Validator::from_seed(cfg.seed);
    let mut pacer = Pacer::new(cfg.rate_pps, cfg.batch);
    let n_sources = u32::try_from(cfg.source_ips.len()).unwrap_or(u32::MAX);
    let mut ctrl = cfg
        .adapt
        .clone()
        .map(|policy| Controller::new(policy, n_sources));

    let mut iter = cycle.iter_shard(cfg.shard.0, cfg.shard.1);
    // `out.records` holds only the records found since the last save;
    // earlier ones are on the store's log until completion.
    let mut out = ScanOutput::default();
    let mut stall_s = 0.0f64;
    let log_ok = match session.store {
        Some(store) => store.rewind(session.resume.as_ref()),
        None => session
            .resume
            .as_ref()
            .is_none_or(|cp| cp.logged_records == 0),
    };
    if let Some(cp) = session.resume {
        if !log_ok || !iter.fast_forward(cp.steps) {
            return Err(ScanError::BadCheckpoint { steps: cp.steps });
        }
        match (cp.adapt, ctrl.as_mut()) {
            (Some(acp), Some(c)) => {
                // An adaptive pacer is not a closed-form function of its
                // probe count; restore both snapshots wholesale.
                pacer = Pacer::restore(&acp.pacer);
                *c = Controller::from_state(c.policy().clone(), n_sources, acp.ctrl);
            }
            _ => pacer.advance_to(cp.summary.probes_sent),
        }
        stall_s = cp.stall_s;
        out.summary = cp.summary;
        tele.emit(
            pacer.peek_send_time() + stall_s,
            EventKind::ScanResumed {
                attempt: session.attempt,
                steps: iter.steps_taken(),
            },
        );
    } else {
        tele.emit(
            0.0,
            EventKind::ScanStarted {
                attempt: session.attempt,
            },
        );
    }

    // Span tracing rides the same opt-in as event telemetry: a sim-clock
    // tracer whose time tracks the pacer, recorded into the hub under
    // the scan's scope when the attempt ends (completion or kill).
    let tracer = session.telemetry.map(|_| Tracer::sim());
    if let Some(tr) = &tracer {
        tr.set_time(pacer.peek_send_time() + stall_s);
    }
    let scan_guard = tracer.as_ref().map(|t| t.span("scan"));
    if let Some(tr) = &tracer {
        // Permutation + validator setup (and any checkpoint
        // fast-forward) happened between scan start and the first send.
        tr.instant("permute");
        // Mark which wire module drives this scan so traces from
        // different scenarios are tellable apart at a glance.
        tr.instant(module.wire_name());
        // Planned scans get a marker too, so a reduced-footprint trace
        // is distinguishable from a full sweep.
        if cfg.plan.is_some() {
            tr.instant("plan");
        }
    }
    let probe_guard = tracer.as_ref().map(|t| t.span("probe"));

    let mut since_checkpoint = 0u64;
    let mut checkpoint_writes = 0u64;
    loop {
        if let Some(tr) = &tracer {
            tr.set_time(pacer.peek_send_time() + stall_s);
        }
        // Periodic checkpoint, taken *before* the iterator advances so the
        // saved state excludes any in-flight address.
        if session.checkpoint_every > 0 && since_checkpoint >= session.checkpoint_every {
            if let Some(store) = session.store {
                store.save(
                    &mut out.records,
                    ScanCheckpoint {
                        steps: iter.steps_taken(),
                        stall_s,
                        summary: out.summary,
                        logged_records: 0,
                        adapt: ctrl.as_ref().map(|c| AdaptCheckpoint {
                            pacer: pacer.snapshot(),
                            ctrl: c.state().clone(),
                        }),
                    },
                );
                checkpoint_writes += 1;
                tele.emit(
                    pacer.peek_send_time() + stall_s,
                    EventKind::CheckpointSaved {
                        steps: iter.steps_taken(),
                        addresses_probed: out.summary.addresses_probed,
                    },
                );
            }
            since_checkpoint = 0;
        }
        if let Some(hook) = session.hook {
            let ctx = FaultCtx {
                origin: cfg.origin,
                trial: cfg.trial,
                attempt: session.attempt,
                steps: iter.steps_taken(),
                addresses_probed: out.summary.addresses_probed,
                time_s: pacer.peek_send_time() + stall_s,
                stall_s,
            };
            match hook.before_address(&ctx) {
                FaultAction::Continue => {}
                FaultAction::Stall { delay_s } => {
                    stall_s += delay_s;
                    tele.emit(ctx.time_s, EventKind::PipelineStall { delay_s });
                    if let Some(tr) = &tracer {
                        tr.record_span("stall", ctx.time_s, ctx.time_s + delay_s);
                    }
                    if let Some(hub) = tele.hub {
                        let mut b = MetricBatch::new();
                        b.add(names::FAULT_STALLS, 1);
                        b.observe(names::FAULT_STALL_SECONDS, metrics::STALL_BOUNDS, delay_s);
                        hub.flush(tele.scope, b);
                    }
                }
                FaultAction::Kill => {
                    tele.emit(
                        ctx.time_s,
                        EventKind::ScanKilled {
                            addresses_probed: ctx.addresses_probed,
                        },
                    );
                    if let Some(hub) = tele.hub {
                        hub.add(tele.scope, names::FAULT_KILLS, 1);
                    }
                    // A killed attempt still leaves its (truncated)
                    // trace behind — that is the interesting case for a
                    // flame view of where the attempt's time went.
                    if let Some(tr) = &tracer {
                        tr.set_time(ctx.time_s);
                    }
                    drop(probe_guard);
                    drop(scan_guard);
                    if let (Some(hub), Some(tr)) = (tele.hub, tracer) {
                        hub.record_trace(tele.scope, tr.finish());
                    }
                    return Err(ScanError::Killed {
                        time_s: ctx.time_s,
                        addresses_probed: ctx.addresses_probed,
                    });
                }
            }
        }
        let Some(addr64) = iter.next() else { break };
        since_checkpoint += 1;
        let addr = addr64 as u32;
        if let Some(plan) = &cfg.plan {
            if !plan.allows(addr) {
                out.summary.plan_skipped += 1;
                continue;
            }
        }
        if cfg.blocklist.contains(addr) {
            out.summary.blocked += 1;
            continue;
        }
        match ctrl.as_mut() {
            None => {
                probe_address(
                    net,
                    cfg,
                    module,
                    &validator,
                    &mut pacer,
                    stall_s,
                    addr,
                    None,
                    &mut out,
                    tracer.as_ref(),
                )?;
            }
            Some(c) => {
                if c.should_defer(addr, pacer.peek_send_time() + stall_s) {
                    // Parked for the tail pass; probed (and counted) there.
                    continue;
                }
                let src = cfg.source_ips[c.source_index() as usize % cfg.source_ips.len()];
                let o = probe_address(
                    net,
                    cfg,
                    module,
                    &validator,
                    &mut pacer,
                    stall_s,
                    addr,
                    Some(src),
                    &mut out,
                    tracer.as_ref(),
                )?;
                let reaction = c.observe(addr, o.responsive, o.rst, o.last_t);
                apply_reaction(&reaction, cfg, &mut pacer, &tele, tracer.as_ref(), o.last_t);
            }
        }
    }
    if let Some(tr) = &tracer {
        tr.set_time(pacer.peek_send_time() + stall_s);
    }
    drop(probe_guard);
    if let Some(c) = ctrl.as_mut() {
        // Tail pass: re-probe quarantined addresses now that their block
        // windows have had the rest of the scan to lapse. Bounded by the
        // policy's deferral cap; runs unsupervised (no fault hook or
        // checkpoints) at the current backed-off rate through the same
        // probe path as the main pass.
        let deferred = c.take_deferred();
        let tail_guard = if deferred.is_empty() {
            None
        } else {
            tracer.as_ref().map(|t| t.span("tail"))
        };
        for addr in deferred {
            let src = cfg.source_ips[c.source_index() as usize % cfg.source_ips.len()];
            probe_address(
                net,
                cfg,
                module,
                &validator,
                &mut pacer,
                stall_s,
                addr,
                Some(src),
                &mut out,
                tracer.as_ref(),
            )?;
        }
        if let Some(tr) = &tracer {
            tr.set_time(pacer.peek_send_time() + stall_s);
        }
        drop(tail_guard);
    }
    if let Some(store) = session.store {
        // Reclaim the logged records by move and put the unsaved tail
        // after them, leaving the store empty.
        let mut records = store.take_log();
        records.append(&mut out.records);
        out.records = records;
    }
    out.summary.duration_s = match &ctrl {
        // duration_elapsed() equals duration_for(probes_sent) bit-for-bit
        // while the rate never changes; adaptive scans need the
        // segment-aware form.
        Some(_) => pacer.duration_elapsed() + stall_s,
        None => pacer.duration_for(out.summary.probes_sent) + stall_s,
    };
    tele.emit(
        out.summary.duration_s,
        EventKind::ScanCompleted {
            addresses_probed: out.summary.addresses_probed,
            duration_s: out.summary.duration_s,
        },
    );
    if let Some(hub) = tele.hub {
        hub.flush(tele.scope, scan_metrics(&out, stall_s, checkpoint_writes));
        // Plan counters flush only for planned scans, so plan-free runs
        // keep their pre-planner telemetry byte-identical.
        if let Some(plan) = &cfg.plan {
            let mut b = MetricBatch::new();
            b.add(names::PLAN_SKIPS, out.summary.plan_skipped);
            b.set_gauge(names::PLAN_PLANNED_S24S, plan.planned_s24s() as f64);
            b.set_gauge(
                names::PLAN_PLANNED_ADDRESSES,
                plan.planned_addresses() as f64,
            );
            hub.flush(tele.scope, b);
        }
        if let Some(c) = &ctrl {
            let st = c.state();
            let mut b = MetricBatch::new();
            b.add(names::ADAPT_BACKOFFS, st.backoffs);
            b.add(names::ADAPT_RECOVERIES, st.recoveries);
            b.add(names::ADAPT_ROTATIONS, st.rotations);
            b.add(names::ADAPT_DEFERRED_ADDRESSES, st.deferred_total);
            b.set_gauge(names::ADAPT_RATE_MULT, c.rate_mult());
            hub.flush(tele.scope, b);
        }
    }
    if let Some(tr) = &tracer {
        tr.set_time(out.summary.duration_s);
    }
    drop(scan_guard);
    if let (Some(hub), Some(tr)) = (tele.hub, tracer) {
        hub.record_trace(tele.scope, tr.finish());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{CloseKind, L7Reply, SynReply};
    use originscan_wire::tcp::TcpHeader;

    /// A toy network: addresses divisible by `live_mod` run the service;
    /// addresses divisible by `closed_mod` RST; everything else silent.
    struct ToyNet {
        live_mod: u32,
        closed_mod: u32,
    }

    impl Network for ToyNet {
        fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            if ctx.dst.is_multiple_of(self.live_mod) {
                SynReply::SynAck(TcpHeader::syn_ack_reply(probe, 7))
            } else if ctx.dst.is_multiple_of(self.closed_mod) {
                SynReply::Rst(TcpHeader::rst_reply(probe))
            } else {
                SynReply::Silent
            }
        }
        fn l7(&self, ctx: &L7Ctx, _req: &[u8]) -> L7Reply {
            match ctx.protocol {
                Protocol::Http => L7Reply::Data(b"HTTP/1.1 200 OK\r\n\r\n".to_vec()),
                Protocol::Https => L7Reply::Data(
                    originscan_wire::tls::ServerHello {
                        version: originscan_wire::tls::VERSION_TLS12,
                        cipher_suite: 0xc02f,
                    }
                    .emit(3),
                ),
                Protocol::Ssh => L7Reply::ConnClosed(CloseKind::FinAck),
                // Stateless modules never open L7 connections.
                Protocol::Icmp | Protocol::Dns => L7Reply::Timeout,
            }
        }
    }

    fn cfg(space: u64) -> ScanConfig {
        let mut c = ScanConfig::new(space, Protocol::Http, 99);
        c.wire_check = true;
        c
    }

    #[test]
    fn finds_exactly_the_live_hosts() {
        let net = ToyNet {
            live_mod: 10,
            closed_mod: 3,
        };
        let out = run_scan(&net, &cfg(1000)).unwrap();
        let live: Vec<u32> = out
            .records
            .iter()
            .filter(|r| r.l4_responsive())
            .map(|r| r.addr)
            .collect();
        assert_eq!(live.len(), 100);
        assert!(live.iter().all(|a| a % 10 == 0));
        // All L4-responsive hosts completed HTTP.
        assert_eq!(out.summary.l7_successes, 100);
        // Two probes each, both answered.
        assert!(out
            .records
            .iter()
            .filter(|r| r.l4_responsive())
            .all(|r| r.synack_mask == 0b11));
    }

    #[test]
    fn rst_hosts_recorded_but_not_l7() {
        let net = ToyNet {
            live_mod: 10,
            closed_mod: 3,
        };
        let out = run_scan(&net, &cfg(100)).unwrap();
        let rst_only: Vec<&HostScanRecord> = out
            .records
            .iter()
            .filter(|r| r.got_rst && !r.l4_responsive())
            .collect();
        // Multiples of 3 but not 10, in 0..100: 33 - 3(mult of 30) = 30... 0 counts as live.
        assert!(!rst_only.is_empty());
        assert!(rst_only.iter().all(|r| r.addr % 3 == 0 && r.addr % 10 != 0));
        assert!(rst_only
            .iter()
            .all(|r| r.l7 == L7Outcome::Timeout && r.l7_attempts == 0));
    }

    #[test]
    fn blocklist_suppresses_probes() {
        let net = ToyNet {
            live_mod: 1,
            closed_mod: 1,
        }; // everything live
        let mut c = cfg(256);
        c.blocklist = Blocklist::parse("0.0.0.0/25").unwrap(); // block half
        let out = run_scan(&net, &c).unwrap();
        assert_eq!(out.summary.blocked, 128);
        assert_eq!(out.summary.addresses_probed, 128);
        assert!(out.records.iter().all(|r| r.addr >= 128));
    }

    #[test]
    fn plan_restricts_probing_to_planned_s24s() {
        let net = ToyNet {
            live_mod: 1,
            closed_mod: 1,
        }; // everything live
        let mut c = cfg(1024); // 4 /24s
        c.plan = Some(
            TargetPlan::from_entries(
                1024,
                99,
                "observed",
                vec![
                    originscan_plan::PlanEntry { s24: 1, score: 10 },
                    originscan_plan::PlanEntry { s24: 3, score: 5 },
                ],
            )
            .unwrap(),
        );
        let out = run_scan(&net, &c).unwrap();
        assert_eq!(out.summary.plan_skipped, 512);
        assert_eq!(out.summary.addresses_probed, 512);
        assert!(out.records.iter().all(|r| { matches!(r.addr >> 8, 1 | 3) }));
    }

    #[test]
    fn plan_composes_with_blocklist() {
        let net = ToyNet {
            live_mod: 1,
            closed_mod: 1,
        };
        let mut c = cfg(1024);
        c.plan = Some(
            TargetPlan::from_entries(
                1024,
                99,
                "observed",
                vec![originscan_plan::PlanEntry { s24: 0, score: 1 }],
            )
            .unwrap(),
        );
        // Block the lower half of the planned /24: probed = plan ∩ ¬block.
        c.blocklist = Blocklist::parse("0.0.0.0/25").unwrap();
        let out = run_scan(&net, &c).unwrap();
        assert_eq!(out.summary.plan_skipped, 768);
        assert_eq!(out.summary.blocked, 128);
        assert_eq!(out.summary.addresses_probed, 128);
        assert!(out.records.iter().all(|r| (128..256).contains(&r.addr)));
    }

    #[test]
    fn plan_space_mismatch_is_rejected() {
        let mut c = cfg(1024);
        c.plan = Some(TargetPlan::from_entries(512, 99, "full", Vec::new()).unwrap());
        assert_eq!(
            c.validate(),
            Err(ConfigError::PlanSpaceMismatch {
                plan_space: 512,
                space: 1024,
            })
        );
    }

    #[test]
    fn empty_plan_probes_nothing() {
        let net = ToyNet {
            live_mod: 1,
            closed_mod: 1,
        };
        let mut c = cfg(256);
        c.plan = Some(TargetPlan::from_entries(256, 99, "observed", Vec::new()).unwrap());
        let out = run_scan(&net, &c).unwrap();
        assert_eq!(out.summary.addresses_probed, 0);
        assert_eq!(out.summary.plan_skipped, 256);
        assert!(out.records.is_empty());
    }

    #[test]
    fn single_probe_sends_half_the_packets() {
        let net = ToyNet {
            live_mod: 7,
            closed_mod: 2,
        };
        let mut c1 = cfg(500);
        c1.probes = 1;
        let mut c2 = cfg(500);
        c2.probes = 2;
        let o1 = run_scan(&net, &c1).unwrap();
        let o2 = run_scan(&net, &c2).unwrap();
        assert_eq!(o1.summary.probes_sent * 2, o2.summary.probes_sent);
    }

    #[test]
    fn sharded_scans_cover_space() {
        let net = ToyNet {
            live_mod: 5,
            closed_mod: 2,
        };
        let mut all = Vec::new();
        for shard in 0..3u64 {
            let mut c = cfg(300);
            c.shard = (shard, 3);
            all.extend(
                run_scan(&net, &c)
                    .unwrap()
                    .records
                    .into_iter()
                    .map(|r| r.addr),
            );
        }
        all.sort_unstable();
        all.dedup();
        // live (60) + closed-not-live: multiples of 2 not of 5 => 150-30=120
        assert_eq!(all.len(), 180);
    }

    #[test]
    fn deterministic_output() {
        let net = ToyNet {
            live_mod: 9,
            closed_mod: 4,
        };
        let a = run_scan(&net, &cfg(2048)).unwrap();
        let b = run_scan(&net, &cfg(2048)).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn times_are_monotone_with_rate() {
        let net = ToyNet {
            live_mod: 2,
            closed_mod: 3,
        };
        let mut c = cfg(100);
        c.rate_pps = 10.0;
        c.batch = 1;
        let out = run_scan(&net, &c).unwrap();
        // 100 addrs * 2 probes at 10 pps = 20 s duration.
        assert!((out.summary.duration_s - 20.0).abs() < 1e-9);
        let times: Vec<f64> = out.records.iter().map(|r| r.response_time_s).collect();
        assert!(!times.is_empty());
        assert!(times.iter().all(|&t| (0.0..20.0).contains(&t)));
    }

    /// A hostile network that replies with spoofed SYN-ACKs (wrong ack).
    struct SpooferNet;
    impl Network for SpooferNet {
        fn syn(&self, _: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            let mut h = TcpHeader::syn_ack_reply(probe, 1);
            h.ack = h.ack.wrapping_add(0x1000); // corrupt the MAC echo
            SynReply::SynAck(h)
        }
        fn l7(&self, _: &L7Ctx, _: &[u8]) -> L7Reply {
            L7Reply::Timeout
        }
    }

    #[test]
    fn spoofed_replies_rejected_by_validation() {
        let out = run_scan(&SpooferNet, &cfg(128)).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.summary.validation_failures, 256);
        assert_eq!(out.summary.synacks, 0);
    }

    #[test]
    fn invalid_configs_rejected_as_typed_errors() {
        let base = cfg(100);
        let check = |mutate: &dyn Fn(&mut ScanConfig), want: ConfigError| {
            let mut c = base.clone();
            mutate(&mut c);
            assert_eq!(c.validate(), Err(want));
            assert_eq!(
                run_scan(
                    &ToyNet {
                        live_mod: 2,
                        closed_mod: 3
                    },
                    &c
                ),
                Err(ScanError::Config(want))
            );
        };
        check(&|c| c.space = 0, ConfigError::EmptySpace);
        check(&|c| c.probes = 0, ConfigError::ZeroProbes);
        check(&|c| c.probes = 9, ConfigError::TooManyProbes { probes: 9 });
        check(&|c| c.source_ips.clear(), ConfigError::NoSourceIps);
        check(
            &|c| c.shard = (1, 1),
            ConfigError::InvalidShard { shard: 1, total: 1 },
        );
        check(
            &|c| c.shard = (0, 0),
            ConfigError::InvalidShard { shard: 0, total: 0 },
        );
        check(&|c| c.rate_pps = 0.0, ConfigError::NonPositiveRate);
        check(&|c| c.rate_pps = f64::NAN, ConfigError::NonPositiveRate);
        check(&|c| c.batch = 0, ConfigError::ZeroBatch);
        assert_eq!(base.validate(), Ok(()));
    }

    /// Kills the scan the first `fail_attempts` times it reaches
    /// `kill_at` probed addresses.
    struct KillAt {
        kill_at: u64,
        fail_attempts: u32,
    }

    impl FaultHook for KillAt {
        fn before_address(&self, ctx: &FaultCtx) -> FaultAction {
            if ctx.attempt < self.fail_attempts && ctx.addresses_probed >= self.kill_at {
                FaultAction::Kill
            } else {
                FaultAction::Continue
            }
        }
    }

    #[test]
    fn kill_fault_surfaces_as_error_with_checkpoint() {
        let net = ToyNet {
            live_mod: 10,
            closed_mod: 3,
        };
        let store = CheckpointStore::new();
        let hook = KillAt {
            kill_at: 500,
            fail_attempts: 1,
        };
        let session = ScanSession {
            hook: Some(&hook),
            checkpoint_every: 128,
            store: Some(&store),
            resume: None,
            attempt: 0,
            telemetry: None,
        };
        let err = run_scan_session(&net, &cfg(1000), session).unwrap_err();
        assert!(
            matches!(
                err,
                ScanError::Killed {
                    addresses_probed: 500,
                    ..
                }
            ),
            "{err:?}"
        );
        let cp = store.take().expect("periodic checkpoint must exist");
        // The periodic checkpoint predates the kill point.
        assert!(cp.summary.addresses_probed <= 500);
        assert!(cp.summary.addresses_probed >= 500 - 128);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_to_uninterrupted() {
        let net = ToyNet {
            live_mod: 7,
            closed_mod: 5,
        };
        let uninterrupted = run_scan(&net, &cfg(3000)).unwrap();

        // Run with faults: killed at address 1100 on attempt 0, then
        // resumed from the last periodic checkpoint.
        let store = CheckpointStore::new();
        let hook = KillAt {
            kill_at: 1100,
            fail_attempts: 1,
        };
        let first = run_scan_session(
            &net,
            &cfg(3000),
            ScanSession {
                hook: Some(&hook),
                checkpoint_every: 256,
                store: Some(&store),
                resume: None,
                attempt: 0,
                telemetry: None,
            },
        );
        assert!(matches!(first, Err(ScanError::Killed { .. })));
        let cp = store.take().expect("checkpoint saved before the kill");
        let resumed = run_scan_session(
            &net,
            &cfg(3000),
            ScanSession {
                hook: Some(&hook),
                checkpoint_every: 256,
                store: Some(&store),
                resume: Some(cp),
                attempt: 1,
                telemetry: None,
            },
        )
        .unwrap();
        assert_eq!(resumed, uninterrupted);
    }

    fn logged(store: &CheckpointStore) -> usize {
        store.with_state(|s| s.log.len())
    }

    fn session<'a>(
        hook: Option<&'a dyn FaultHook>,
        store: &'a CheckpointStore,
        resume: Option<ScanCheckpoint>,
        attempt: u32,
    ) -> ScanSession<'a> {
        ScanSession {
            hook,
            checkpoint_every: 256,
            store: Some(store),
            resume,
            attempt,
            telemetry: None,
        }
    }

    #[test]
    fn killed_scan_leaves_exactly_the_cursor_prefix_in_the_store() {
        let net = ToyNet {
            live_mod: 7,
            closed_mod: 5,
        };
        let uninterrupted = run_scan(&net, &cfg(3000)).unwrap();
        let store = CheckpointStore::new();
        let hook = KillAt {
            kill_at: 1100,
            fail_attempts: 1,
        };
        let err = run_scan_session(&net, &cfg(3000), session(Some(&hook), &store, None, 0));
        assert!(matches!(err, Err(ScanError::Killed { .. })));
        let cp = store.take().expect("checkpoint saved before the kill");
        // The fourth save (1024 addresses) is the last before the kill;
        // records probed after it died with the scan.
        assert_eq!(cp.summary.addresses_probed, 1024);
        assert!(cp.logged_records > 0);
        assert!(cp.logged_records < uninterrupted.records.len());
        assert_eq!(logged(&store), cp.logged_records);
        assert!(!store.is_saved());
        assert_eq!(
            store.take_log(),
            uninterrupted.records[..cp.logged_records].to_vec()
        );
        assert_eq!(logged(&store), 0);
    }

    #[test]
    fn completed_scan_leaves_the_store_empty() {
        let net = ToyNet {
            live_mod: 7,
            closed_mod: 5,
        };
        let uninterrupted = run_scan(&net, &cfg(3000)).unwrap();
        let store = CheckpointStore::new();
        let out = run_scan_session(&net, &cfg(3000), session(None, &store, None, 0)).unwrap();
        assert_eq!(out, uninterrupted);
        assert!(!store.is_saved());
        assert_eq!(logged(&store), 0);

        // Same after a kill and a resume.
        let hook = KillAt {
            kill_at: 1100,
            fail_attempts: 1,
        };
        let first = run_scan_session(&net, &cfg(3000), session(Some(&hook), &store, None, 0));
        assert!(first.is_err());
        let resumed = run_scan_session(
            &net,
            &cfg(3000),
            session(Some(&hook), &store, store.take(), 1),
        )
        .unwrap();
        assert_eq!(resumed, uninterrupted);
        assert!(!store.is_saved());
        assert_eq!(logged(&store), 0);
    }

    #[test]
    fn stale_cursor_and_log_never_leak_into_a_session() {
        let net = ToyNet {
            live_mod: 7,
            closed_mod: 5,
        };
        let uninterrupted = run_scan(&net, &cfg(3000)).unwrap();
        let store = CheckpointStore::new();

        // Leave a stale cursor and log from a different network behind.
        let other = ToyNet {
            live_mod: 3,
            closed_mod: 2,
        };
        let hook = KillAt {
            kill_at: 2000,
            fail_attempts: 1,
        };
        let first = run_scan_session(&other, &cfg(3000), session(Some(&hook), &store, None, 0));
        assert!(first.is_err());
        assert!(store.is_saved());
        assert!(logged(&store) > 0);

        // A fresh session starts from an empty log.
        let fresh = run_scan_session(&net, &cfg(3000), session(None, &store, None, 0)).unwrap();
        assert_eq!(fresh, uninterrupted);
        assert!(!store.is_saved());
        assert_eq!(logged(&store), 0);

        // Resuming from an older cursor than the store's latest drops the
        // records logged after it.
        let hook = KillAt {
            kill_at: 1100,
            fail_attempts: 1,
        };
        let first = run_scan_session(&net, &cfg(3000), session(Some(&hook), &store, None, 0));
        assert!(first.is_err());
        let old = store.take().unwrap();
        let hook = KillAt {
            kill_at: 2100,
            fail_attempts: 2,
        };
        let second = run_scan_session(
            &net,
            &cfg(3000),
            session(Some(&hook), &store, Some(old.clone()), 1),
        );
        assert!(second.is_err());
        assert!(logged(&store) > old.logged_records);
        let resumed =
            run_scan_session(&net, &cfg(3000), session(None, &store, Some(old), 2)).unwrap();
        assert_eq!(resumed, uninterrupted);
    }

    #[test]
    fn cursor_past_the_log_is_rejected() {
        let net = ToyNet {
            live_mod: 2,
            closed_mod: 3,
        };
        let cp = ScanCheckpoint {
            logged_records: 1,
            ..Default::default()
        };
        let store = CheckpointStore::new();
        let err = run_scan_session(&net, &cfg(100), session(None, &store, Some(cp.clone()), 1));
        assert_eq!(err, Err(ScanError::BadCheckpoint { steps: 0 }));
        let err = run_scan_session(
            &net,
            &cfg(100),
            ScanSession {
                resume: Some(cp),
                ..Default::default()
            },
        );
        assert_eq!(err, Err(ScanError::BadCheckpoint { steps: 0 }));
    }

    #[test]
    fn resume_without_checkpoint_only_loses_nothing_on_restart() {
        // A scan killed before any checkpoint restarts from scratch and
        // still converges to the uninterrupted result.
        let net = ToyNet {
            live_mod: 4,
            closed_mod: 9,
        };
        let uninterrupted = run_scan(&net, &cfg(600)).unwrap();
        let store = CheckpointStore::new();
        let hook = KillAt {
            kill_at: 50,
            fail_attempts: 1,
        };
        let first = run_scan_session(
            &net,
            &cfg(600),
            ScanSession {
                hook: Some(&hook),
                checkpoint_every: 100,
                store: Some(&store),
                resume: None,
                attempt: 0,
                telemetry: None,
            },
        );
        assert!(matches!(first, Err(ScanError::Killed { .. })));
        assert!(!store.is_saved(), "killed before the first checkpoint");
        let retried = run_scan_session(
            &net,
            &cfg(600),
            ScanSession {
                hook: Some(&hook),
                checkpoint_every: 100,
                store: Some(&store),
                resume: store.take(),
                attempt: 1,
                telemetry: None,
            },
        )
        .unwrap();
        assert_eq!(retried, uninterrupted);
    }

    #[test]
    fn stale_checkpoint_rejected() {
        let net = ToyNet {
            live_mod: 2,
            closed_mod: 3,
        };
        let cp = ScanCheckpoint {
            steps: u64::MAX,
            ..Default::default()
        };
        let err = run_scan_session(
            &net,
            &cfg(100),
            ScanSession {
                resume: Some(cp),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, ScanError::BadCheckpoint { steps: u64::MAX });
    }

    /// Stalls the pipeline once, by `delay_s`, at `at` probed addresses.
    struct StallAt {
        at: u64,
        delay_s: f64,
    }

    impl FaultHook for StallAt {
        fn before_address(&self, ctx: &FaultCtx) -> FaultAction {
            // Idempotent across calls: request only the delay not yet
            // applied (ctx.stall_s is what the engine already absorbed).
            if ctx.addresses_probed >= self.at && ctx.stall_s < self.delay_s {
                FaultAction::Stall {
                    delay_s: self.delay_s - ctx.stall_s,
                }
            } else {
                FaultAction::Continue
            }
        }
    }

    #[test]
    fn telemetry_records_scan_lifecycle_and_metrics() {
        let net = ToyNet {
            live_mod: 10,
            closed_mod: 3,
        };
        let store = CheckpointStore::new();
        let hub = Telemetry::new();
        let out = run_scan_session(
            &net,
            &cfg(1000),
            ScanSession {
                checkpoint_every: 400,
                store: Some(&store),
                telemetry: Some(&hub),
                ..Default::default()
            },
        )
        .unwrap();
        let snap = hub.snapshot();
        let scope = Scope::new("HTTP", 0, 0);
        let kinds: Vec<&str> = snap.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "scan_started",
                "checkpoint_saved",
                "checkpoint_saved",
                "scan_completed"
            ]
        );
        assert_eq!(
            snap.counter(scope, names::PROBES_SENT),
            out.summary.probes_sent
        );
        assert_eq!(snap.counter(scope, names::CHECKPOINT_WRITES), 2);
        assert_eq!(snap.counter(scope, names::L7_SUCCESS), 100);
        assert_eq!(
            snap.gauge(scope, names::DURATION_SECONDS),
            Some(out.summary.duration_s)
        );
        // 100 responsive + RST-only hosts each contribute one
        // response-time observation.
        let frac = snap
            .histograms
            .iter()
            .find(|h| h.name == names::RESPONSE_FRAC)
            .unwrap();
        assert_eq!(frac.counts.iter().sum::<u64>(), out.records.len() as u64);
        // L7 attempts only for the 100 SYN-ACK hosts.
        let l7 = snap
            .histograms
            .iter()
            .find(|h| h.name == names::L7_ATTEMPTS)
            .unwrap();
        assert_eq!(l7.counts.iter().sum::<u64>(), 100);
    }

    #[test]
    fn telemetry_records_kill_and_stall_faults() {
        let net = ToyNet {
            live_mod: 10,
            closed_mod: 3,
        };
        let hub = Telemetry::new();
        let hook = KillAt {
            kill_at: 100,
            fail_attempts: 1,
        };
        let err = run_scan_session(
            &net,
            &cfg(1000),
            ScanSession {
                hook: Some(&hook),
                telemetry: Some(&hub),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ScanError::Killed { .. }));
        let snap = hub.snapshot();
        let scope = Scope::new("HTTP", 0, 0);
        assert_eq!(snap.counter(scope, names::FAULT_KILLS), 1);
        let kinds: Vec<&str> = snap.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["scan_started", "scan_killed"]);
        // A killed scan never flushes completion metrics.
        assert_eq!(snap.counter(scope, names::PROBES_SENT), 0);

        let hub = Telemetry::new();
        let hook = StallAt {
            at: 50,
            delay_s: 5.0,
        };
        run_scan_session(
            &net,
            &cfg(1000),
            ScanSession {
                hook: Some(&hook),
                telemetry: Some(&hub),
                ..Default::default()
            },
        )
        .unwrap();
        let snap = hub.snapshot();
        assert_eq!(snap.counter(scope, names::FAULT_STALLS), 1);
        assert_eq!(snap.gauge(scope, names::STALL_SECONDS), Some(5.0));
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind == EventKind::PipelineStall { delay_s: 5.0 }));
    }

    #[test]
    fn stall_shifts_later_probes_and_duration() {
        let net = ToyNet {
            live_mod: 2,
            closed_mod: 3,
        };
        let mut c = cfg(100);
        c.rate_pps = 10.0;
        c.batch = 1;
        let clean = run_scan(&net, &c).unwrap();
        let hook = StallAt {
            at: 50,
            delay_s: 5.0,
        };
        let stalled = run_scan_session(
            &net,
            &c,
            ScanSession {
                hook: Some(&hook),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(stalled.summary.probes_sent, clean.summary.probes_sent);
        assert!((stalled.summary.duration_s - clean.summary.duration_s - 5.0).abs() < 1e-9);
        // Same responsive set; late responses shifted by exactly 5 s.
        assert_eq!(stalled.records.len(), clean.records.len());
        for (s, c) in stalled.records.iter().zip(&clean.records) {
            assert_eq!(s.addr, c.addr);
            let shift = s.response_time_s - c.response_time_s;
            assert!(shift.abs() < 1e-9 || (shift - 5.0).abs() < 1e-9);
        }
    }
}
