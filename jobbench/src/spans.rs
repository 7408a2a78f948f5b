//! In-memory spans recorded by the benchmark's own code around its calls
//! into each layer, and the self-time analysis over them.
//!
//! Spans of one job share the `X-MC-Request-Id` the benchmark sets. A span's
//! parent is the innermost span of the same request that encloses it in
//! time, whichever thread recorded either; its self time is its duration
//! minus the union of its children's intervals.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub rid: String,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        on: AtomicBool::new(false),
        spans: Mutex::new(Vec::new()),
    })
}

/// Starts recording (clearing earlier spans).
pub fn start() {
    let r = recorder();
    r.spans.lock().expect("span buffer lock poisoned").clear();
    r.on.store(true, Ordering::SeqCst);
}

/// Stops recording and hands back everything recorded since [`start`].
pub fn stop() -> Vec<Span> {
    let r = recorder();
    r.on.store(false, Ordering::SeqCst);
    std::mem::take(&mut *r.spans.lock().expect("span buffer lock poisoned"))
}

pub fn enabled() -> bool {
    recorder().on.load(Ordering::Relaxed)
}

/// Records `name` over `[from, to]` for request `rid`, when recording.
pub fn record(name: &'static str, rid: &str, from: Instant, to: Instant) {
    let r = recorder();
    if !r.on.load(Ordering::Relaxed) {
        return;
    }
    let ns = |t: Instant| t.saturating_duration_since(r.epoch).as_nanos() as u64;
    let span = Span {
        name,
        rid: rid.to_string(),
        start: ns(from),
        end: ns(to),
    };
    r.spans
        .lock()
        .expect("span buffer lock poisoned")
        .push(span);
}

/// Runs `f` inside a span when recording; a plain call otherwise.
pub fn timed<T>(name: &'static str, rid: &str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    record(name, rid, t0, Instant::now());
    out
}

/// The span forest of one request.
#[derive(Debug)]
pub struct Tree {
    pub spans: Vec<Span>,
    pub parent: Vec<Option<usize>>,
    pub children: Vec<Vec<usize>>,
}

impl Tree {
    /// Builds the containment tree of spans that share one request id.
    pub fn build(mut spans: Vec<Span>) -> Tree {
        // Outer spans first: earlier start, then longer.
        spans.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
        let mut parent = vec![None; spans.len()];
        let mut children = vec![Vec::new(); spans.len()];
        let mut open: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            while let Some(&top) = open.last() {
                if spans[top].end >= spans[i].end && spans[top].start <= spans[i].start {
                    break;
                }
                open.pop();
            }
            if let Some(&top) = open.last() {
                parent[i] = Some(top);
                children[top].push(i);
            }
            open.push(i);
        }
        Tree {
            spans,
            parent,
            children,
        }
    }

    /// Duration minus the union of the children's intervals.
    pub fn self_ns(&self, i: usize) -> u64 {
        self.spans[i].dur_ns() - self.covered_ns(i)
    }

    fn covered_ns(&self, i: usize) -> u64 {
        let mut iv: Vec<(u64, u64)> = self.children[i]
            .iter()
            .map(|&c| (self.spans[c].start, self.spans[c].end))
            .collect();
        iv.sort_unstable();
        let mut total = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in iv {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total.min(self.spans[i].dur_ns())
    }

    /// Time below span `i` on the blocking path: its self time plus its
    /// children's, with overlapping (parallel) children scaled down to the
    /// wall time they cover together.
    pub fn blocking_ns(&self, i: usize) -> f64 {
        let kids = &self.children[i];
        let sum_dur: u64 = kids.iter().map(|&c| self.spans[c].dur_ns()).sum();
        let scale = if sum_dur == 0 {
            0.0
        } else {
            self.covered_ns(i) as f64 / sum_dur as f64
        };
        let below: f64 = kids.iter().map(|&c| self.blocking_ns(c)).sum();
        self.self_ns(i) as f64 + below * scale.min(1.0)
    }
}

/// Groups spans by request id.
pub fn by_request(spans: Vec<Span>) -> HashMap<String, Vec<Span>> {
    let mut map: HashMap<String, Vec<Span>> = HashMap::new();
    for s in spans {
        map.entry(s.rid.clone()).or_default().push(s);
    }
    map
}

/// Writes spans as JSON lines (name, request id, start/end in µs, parent
/// index within the same request).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_jsonl(path: &Path, trees: &[Tree]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for tree in trees {
        for (i, s) in tree.spans.iter().enumerate() {
            let parent = tree.parent[i].map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"rid\":\"{}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.rid,
                s.name,
                s.start as f64 / 1e3,
                s.end as f64 / 1e3
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64) -> Span {
        Span {
            name,
            rid: "r".into(),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_scales_parallel_ones() {
        let tree = Tree::build(vec![
            span("job", 0, 100),
            span("a", 10, 60),
            span("b", 20, 50),
            span("c", 30, 55),
        ]);
        let job = tree.spans.iter().position(|s| s.name == "job").unwrap();
        let a = tree.spans.iter().position(|s| s.name == "a").unwrap();
        assert_eq!(tree.self_ns(job), 50);
        // b and c overlap inside a: union 20..55 = 35.
        assert_eq!(tree.self_ns(a), 15);
        // Blocking path of the whole tree is the root's duration.
        assert!((tree.blocking_ns(job) - 100.0).abs() < 1e-9);
    }
}
