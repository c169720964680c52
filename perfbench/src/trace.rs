//! In-memory span recorder for the traced mode.
//!
//! The benchmark wraps each call it makes into a layer's public API in
//! [`span`]. With tracing off that is one thread-local flag check and no
//! clock read; with tracing on every call becomes a [`Span`] (name, start,
//! end, parent) kept in memory until [`finish`] hands the whole list back
//! for aggregation and writing. The benchmark is single-threaded, so one
//! thread-local recorder sees every span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

/// One recorded call. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Starts recording (discarding anything recorded before).
pub fn start() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.epoch = Instant::now();
        r.spans.clear();
        r.open.clear();
    });
}

/// Stops recording and returns every span, in start order.
pub fn finish() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        assert!(r.open.is_empty(), "span left open at finish");
        std::mem::take(&mut r.spans)
    })
}

/// Runs `f` inside a span called `name` (a plain call when tracing is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let id = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(ROOT);
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.elapsed().as_nanos() as u64;
            r.spans[id as usize].end_ns = end;
            r.open.pop();
        });
    }
    out
}

/// Per-name aggregate of a span list.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time the span's direct children cover.
    pub self_ns: u64,
    pub durs_ns: Vec<u64>,
}

impl Agg {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }
    pub fn p50_ns(&self) -> f64 {
        crate::stats::median_u64(&self.durs_ns)
    }
}

/// Aggregates spans by name, with self time.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    // Children of one span never overlap (single thread, strict nesting),
    // so their summed durations are the time they cover.
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += s.dur_ns().saturating_sub(child);
        a.durs_ns.push(s.dur_ns());
    }
    out
}

/// Writes `spans` as tab-separated rows `parent, name, start_ns, dur_ns`.
/// A span's id is its row number (from 0) and a root span's parent is
/// `-`; names are indices into the `# names` header line, and a `# run`
/// header line names the run every span belongs to.
pub fn write_tsv(path: &Path, run_id: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# run {run_id}")?;
    writeln!(w, "# names {}", names.join(" "))?;
    writeln!(w, "parent\tname\tstart_ns\tdur_ns")?;
    for s in spans {
        let name = names.binary_search(&s.name).expect("name collected above");
        if s.parent == ROOT {
            writeln!(w, "-\t{name}\t{}\t{}", s.start_ns, s.dur_ns())?;
        } else {
            writeln!(w, "{}\t{name}\t{}\t{}", s.parent, s.start_ns, s.dur_ns())?;
        }
    }
    w.flush()
}
