//! In-memory spans recorded around calls into each layer.
//!
//! Recording is off unless [`set_enabled`] turned it on; a disabled
//! [`span`] is one atomic load. Spans are appended to a process-wide
//! buffer when they end and written out once, when the run ends
//! ([`write_tsv`]). A span's *self time* is its duration minus the part of
//! it that its child spans cover ([`self_times`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// One finished span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u64,
    /// Layer boundary the span covers, e.g. `oracle.query`.
    pub name: &'static str,
    /// Request key shared by the spans of one request (0 if none).
    pub key: u64,
    /// Start, in nanoseconds since the process's trace origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    origin();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped (if recording was on at open).
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    key: u64,
    start_ns: u64,
}

impl Guard {
    /// This span's id (0 when recording is off), to pass as a child's
    /// parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            key: self.key,
            start_ns: self.start_ns,
            end_ns: now_ns(),
        };
        // never panic in drop: a poisoned buffer loses the span
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Open a span named `name` under `parent` (0 for none) for request `key`.
pub fn span(name: &'static str, parent: u64, key: u64) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent,
            name,
            key,
            start_ns: 0,
        };
    }
    Guard {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        key,
        start_ns: now_ns(),
    }
}

/// Run `f` inside a span and return its result.
pub fn in_span<R>(name: &'static str, parent: u64, key: u64, f: impl FnOnce() -> R) -> R {
    let _g = span(name, parent, key);
    f()
}

/// Take every recorded span out of the buffer.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned by a panic"))
}

/// Self time of every span, in nanoseconds, keyed by span id: its
/// duration minus the union of its children's intervals (clipped to the
/// parent), so parallel children covering the same instant count once.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get_mut(&s.id).map_or(0, |iv| {
                iv.sort_unstable();
                let (mut total, mut cur_end) = (0u64, s.start_ns);
                for &(a, b) in iv.iter() {
                    let (a, b) = (a.max(cur_end), b.min(s.end_ns));
                    if b > a {
                        total += b - a;
                        cur_end = b;
                    }
                }
                total
            });
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per-name summary of a span set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameSummary {
    /// Their durations, milliseconds.
    pub dur_ms: Vec<f64>,
    /// Their self times, milliseconds.
    pub self_ms: Vec<f64>,
}

/// Group spans by name with their durations and self times.
pub fn summarize(spans: &[Span]) -> HashMap<&'static str, NameSummary> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, NameSummary> = HashMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.dur_ms.push(s.dur_ns() as f64 / 1e6);
        e.self_ms.push(selfs[&s.id] as f64 / 1e6);
    }
    out
}

/// Write spans as tab-separated `id parent name key start_ns end_ns`
/// lines (one header line first).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tkey\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
