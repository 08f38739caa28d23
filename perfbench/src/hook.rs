//! A fault hook that injects no fault: it splits a supervised scan's
//! probe loop into spans.
//!
//! `run_scan_session` consults the hook at the top of every loop
//! iteration, right after the periodic checkpoint that iteration may
//! have taken. With a checkpoint every `E` addresses, the stretch from
//! call `kE - 1` to call `kE` holds the `k`-th checkpoint copy (and one
//! address), and the calls between two checkpoints hold probing. The
//! spans tile the loop from its first call to its last; what they leave
//! of the `supervise_scan` call around them is the scan's set-up, its
//! output and telemetry flush, and the supervisor's own work.

use crate::spans::Handle;
use originscan_scanner::engine::{FaultAction, FaultCtx, FaultHook};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Records `scanner.probe` and `scanner.checkpoint` spans under one
/// `supervise_scan` call's span. Use one per scan.
#[derive(Debug)]
pub struct LoopSpans<'a> {
    parent: Handle<'a>,
    every: u64,
    calls: AtomicU64,
    /// Start of the open span, and the time of the latest call.
    marks: Mutex<Option<(Instant, Instant)>>,
}

impl<'a> LoopSpans<'a> {
    /// Spans under `parent` for a scan that checkpoints every `every`
    /// addresses.
    pub fn new(parent: Handle<'a>, every: u64) -> Self {
        LoopSpans {
            parent,
            every: every.max(2),
            calls: AtomicU64::new(0),
            marks: Mutex::new(None),
        }
    }

    /// Close the last probing span at the loop's last call.
    pub fn finish(&self) {
        let marks = self.marks.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((start, last)) = *marks {
            self.parent.record("scanner.probe", start, last);
        }
    }
}

impl FaultHook for LoopSpans<'_> {
    fn before_address(&self, _ctx: &FaultCtx) -> FaultAction {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let mut marks = self.marks.lock().unwrap_or_else(|p| p.into_inner());
        let start = match *marks {
            None => now,
            Some((start, _)) => match n % self.every {
                0 => {
                    self.parent.record("scanner.checkpoint", start, now);
                    now
                }
                k if k == self.every - 1 => {
                    self.parent.record("scanner.probe", start, now);
                    now
                }
                _ => start,
            },
        };
        *marks = Some((start, now));
        FaultAction::Continue
    }
}
