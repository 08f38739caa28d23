//! Wall-clock spans recorded by the benchmark around its calls into each
//! layer. Spans stay in memory until [`Spans::finish`], which writes them
//! as JSONL and merges them into a [`Profile`] flame tree.
//!
//! Every span belongs to a trace: trace 0 is the workload run, and each
//! served request has a trace of its own ([`Handle::request`]). A
//! disabled recorder hands out inert spans, so the untraced passes run
//! the same code.

use originscan_telemetry::{Profile, SpanRecord};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Raw {
    trace: u64,
    seq: u32,
    parent: Option<u32>,
    name: &'static str,
    start_s: f64,
    end_s: f64,
}

/// The in-memory span store of one benchmark process.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    next: AtomicU32,
    traces: AtomicU64,
    done: Mutex<Vec<Raw>>,
}

/// Spans the store has room for from the start. Growing the store while
/// a scan runs would free large blocks, and glibc raises its mmap
/// threshold on such frees, which changes how the scan's checkpoint
/// copies are allocated and so the very time being traced.
const RESERVED_SPANS: usize = 1 << 18;

impl Default for Spans {
    fn default() -> Self {
        Spans {
            t0: Instant::now(),
            next: AtomicU32::new(0),
            traces: AtomicU64::new(1),
            done: Mutex::new(Vec::with_capacity(RESERVED_SPANS)),
        }
    }
}

/// A copyable reference to an open span, for opening children on other
/// threads.
#[derive(Debug, Clone, Copy)]
pub struct Handle<'a> {
    rec: Option<&'a Spans>,
    trace: u64,
    seq: Option<u32>,
}

/// An open span; it is recorded when dropped.
#[derive(Debug)]
pub struct Span<'a> {
    handle: Handle<'a>,
    parent: Option<u32>,
    name: &'static str,
    start_s: f64,
}

impl<'a> Handle<'a> {
    /// Open a root span of `trace` (inert when `rec` is `None`).
    pub fn root(rec: Option<&'a Spans>, trace: u64, name: &'static str) -> Span<'a> {
        Handle {
            rec,
            trace,
            seq: None,
        }
        .child(name)
    }

    /// Open the root span of a trace of its own, for one served request.
    pub fn request(rec: Option<&'a Spans>, name: &'static str) -> Span<'a> {
        let trace = rec.map_or(0, |r| r.traces.fetch_add(1, Ordering::Relaxed));
        Handle::root(rec, trace, name)
    }

    /// Record a finished child span of this one that ran from `start` to
    /// `end`.
    pub fn record(self, name: &'static str, start: Instant, end: Instant) {
        if let Some(r) = self.rec {
            let at = |t: Instant| t.saturating_duration_since(r.t0).as_secs_f64();
            r.push(Raw {
                trace: self.trace,
                seq: r.next.fetch_add(1, Ordering::Relaxed),
                parent: self.seq,
                name,
                start_s: at(start),
                end_s: at(end),
            });
        }
    }

    /// Open a child span of this one, in the same trace.
    pub fn child(self, name: &'static str) -> Span<'a> {
        let (seq, start_s) = match self.rec {
            Some(r) => (
                Some(r.next.fetch_add(1, Ordering::Relaxed)),
                r.t0.elapsed().as_secs_f64(),
            ),
            None => (None, 0.0),
        };
        Span {
            handle: Handle {
                rec: self.rec,
                trace: self.trace,
                seq,
            },
            parent: self.seq,
            name,
            start_s,
        }
    }
}

impl<'a> Span<'a> {
    /// Open a child span.
    pub fn child(&self, name: &'static str) -> Span<'a> {
        self.handle.child(name)
    }

    /// A handle for opening children elsewhere.
    pub fn handle(&self) -> Handle<'a> {
        self.handle
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let (Some(r), Some(seq)) = (self.handle.rec, self.handle.seq) {
            let raw = Raw {
                trace: self.handle.trace,
                seq,
                parent: self.parent,
                name: self.name,
                start_s: self.start_s,
                end_s: r.t0.elapsed().as_secs_f64(),
            };
            r.push(raw);
        }
    }
}

/// What the recorded spans say once merged.
#[derive(Debug)]
pub struct Merged {
    /// The flame tree over every trace.
    pub profile: Profile,
    /// Summed duration of the root spans of trace 0, the workload run.
    pub wall_s: f64,
    /// Every trace's spans, IDs being indices into its list.
    traces: Vec<Vec<SpanRecord>>,
}

impl Merged {
    /// Total seconds of the node at `path` (0 when absent).
    pub fn total_s(&self, path: &str) -> f64 {
        self.profile.node(path).map_or(0.0, |n| n.total_s)
    }

    /// The share of the time in spans named `call` that the union of
    /// their direct children covers, over all such spans. Each `call`
    /// span wraps one call into the program, and its children are
    /// recorded from inside that call, so the uncovered rest is time the
    /// program spent outside the named layers.
    pub fn coverage(&self, call: &str) -> f64 {
        let (mut covered, mut total) = (0.0, 0.0);
        for records in &self.traces {
            for s in records.iter().filter(|s| s.name == call) {
                let children = records
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(|c| (c.start_s, c.end_s))
                    .collect();
                covered += union_len(children);
                total += s.duration_s();
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            f64::NAN
        }
    }
}

impl Spans {
    fn push(&self, raw: Raw) {
        self.done
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(raw);
    }

    /// Write every span to `path` as JSONL and merge them.
    pub fn finish(&self, path: &Path) -> std::io::Result<Merged> {
        let raws = std::mem::take(&mut *self.done.lock().unwrap_or_else(|p| p.into_inner()));
        let mut by_trace: BTreeMap<u64, Vec<Raw>> = BTreeMap::new();
        for r in raws {
            by_trace.entry(r.trace).or_default().push(r);
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut profile = Profile::new();
        let mut wall_s = 0.0;
        let mut traces = Vec::with_capacity(by_trace.len());
        for (trace, mut spans) in by_trace {
            // Parents open before their children, so ordering by open
            // sequence puts them first; IDs become indices in the trace.
            spans.sort_by_key(|s| s.seq);
            let index: BTreeMap<u32, u32> = spans
                .iter()
                .enumerate()
                .map(|(i, s)| (s.seq, i as u32))
                .collect();
            let records: Vec<SpanRecord> = spans
                .iter()
                .enumerate()
                .map(|(i, s)| SpanRecord {
                    id: i as u32,
                    parent: s.parent.and_then(|p| index.get(&p).copied()),
                    name: s.name,
                    start_s: s.start_s,
                    end_s: s.end_s,
                })
                .collect();
            for s in &records {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"trace\":{trace},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                    s.id, s.name, s.start_s, s.end_s
                )?;
            }
            if trace == 0 {
                wall_s += records
                    .iter()
                    .filter(|s| s.parent.is_none())
                    .map(SpanRecord::duration_s)
                    .sum::<f64>();
            }
            profile.add_spans(&records);
            traces.push(records);
        }
        out.flush()?;
        Ok(Merged {
            profile,
            wall_s,
            traces,
        })
    }
}

/// Length of the union of closed intervals.
fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}
