//! `Network` implementations the benchmark wraps around or substitutes
//! for the simulated Internet, to split a scan's cost by layer.

use originscan_scanner::target::{
    IcmpReply, L7Ctx, L7Reply, Network, ProbeCtx, SynReply, UdpReply,
};
use originscan_wire::icmp::IcmpEcho;
use originscan_wire::tcp::TcpHeader;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One call in this many is timed; the rest are only counted.
pub const SAMPLE_EVERY: u64 = 64;

/// A network that never answers: the scan engine's own cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullNet;

impl Network for NullNet {
    fn syn(&self, _ctx: &ProbeCtx, _probe: &TcpHeader) -> SynReply {
        SynReply::Silent
    }

    fn l7(&self, _ctx: &L7Ctx, _request: &[u8]) -> L7Reply {
        L7Reply::Timeout
    }
}

/// Calls into the network model and sampled time spent in them.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCounts {
    /// `syn` calls.
    pub syn_calls: u64,
    /// `l7` calls.
    pub l7_calls: u64,
    /// `syn` calls timed.
    pub syn_timed: u64,
    /// Summed nanoseconds of the timed `syn` calls.
    pub syn_ns: u64,
    /// `l7` calls timed.
    pub l7_timed: u64,
    /// Summed nanoseconds of the timed `l7` calls.
    pub l7_ns: u64,
}

impl NetCounts {
    /// Add another wrapper's counts.
    pub fn merge(&mut self, o: NetCounts) {
        self.syn_calls += o.syn_calls;
        self.l7_calls += o.l7_calls;
        self.syn_timed += o.syn_timed;
        self.syn_ns += o.syn_ns;
        self.l7_timed += o.l7_timed;
        self.l7_ns += o.l7_ns;
    }

    /// Mean nanoseconds per timed `syn` call.
    pub fn syn_mean_ns(&self) -> f64 {
        self.syn_ns as f64 / self.syn_timed.max(1) as f64
    }

    /// Mean nanoseconds per timed `l7` call.
    pub fn l7_mean_ns(&self) -> f64 {
        self.l7_ns as f64 / self.l7_timed.max(1) as f64
    }

    /// Estimated seconds spent inside the network model: every call at
    /// its kind's sampled mean.
    pub fn busy_s(&self) -> f64 {
        (self.syn_calls as f64 * self.syn_mean_ns() + self.l7_calls as f64 * self.l7_mean_ns())
            / 1e9
    }
}

/// A delegating network that counts every call and times one in
/// [`SAMPLE_EVERY`]. Give each scanning thread its own wrapper so the
/// counters are never contended.
#[derive(Debug)]
pub struct CountingNet<'n, N: Network> {
    inner: &'n N,
    syn_calls: AtomicU64,
    l7_calls: AtomicU64,
    syn_timed: AtomicU64,
    syn_ns: AtomicU64,
    l7_timed: AtomicU64,
    l7_ns: AtomicU64,
}

impl<'n, N: Network> CountingNet<'n, N> {
    /// Wrap `inner`.
    pub fn new(inner: &'n N) -> Self {
        CountingNet {
            inner,
            syn_calls: AtomicU64::new(0),
            l7_calls: AtomicU64::new(0),
            syn_timed: AtomicU64::new(0),
            syn_ns: AtomicU64::new(0),
            l7_timed: AtomicU64::new(0),
            l7_ns: AtomicU64::new(0),
        }
    }

    /// The counts so far.
    pub fn counts(&self) -> NetCounts {
        NetCounts {
            syn_calls: self.syn_calls.load(Ordering::Relaxed),
            l7_calls: self.l7_calls.load(Ordering::Relaxed),
            syn_timed: self.syn_timed.load(Ordering::Relaxed),
            syn_ns: self.syn_ns.load(Ordering::Relaxed),
            l7_timed: self.l7_timed.load(Ordering::Relaxed),
            l7_ns: self.l7_ns.load(Ordering::Relaxed),
        }
    }
}

/// Run `f`, timing it when `n` is a sampled call number.
fn sampled<T>(n: u64, timed: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    if !n.is_multiple_of(SAMPLE_EVERY) {
        return f();
    }
    let t = Instant::now();
    let out = f();
    ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    timed.fetch_add(1, Ordering::Relaxed);
    out
}

impl<N: Network> Network for CountingNet<'_, N> {
    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        let n = self.syn_calls.fetch_add(1, Ordering::Relaxed);
        sampled(n, &self.syn_timed, &self.syn_ns, || {
            self.inner.syn(ctx, probe)
        })
    }

    fn l7(&self, ctx: &L7Ctx, request: &[u8]) -> L7Reply {
        let n = self.l7_calls.fetch_add(1, Ordering::Relaxed);
        sampled(n, &self.l7_timed, &self.l7_ns, || {
            self.inner.l7(ctx, request)
        })
    }

    fn icmp(&self, ctx: &ProbeCtx, probe: &IcmpEcho) -> IcmpReply {
        self.inner.icmp(ctx, probe)
    }

    fn udp(&self, ctx: &ProbeCtx, payload: &[u8]) -> UdpReply {
        self.inner.udp(ctx, payload)
    }
}
