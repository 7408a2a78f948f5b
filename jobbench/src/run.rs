//! One benchmark run: set-up, the closed loop, and the metrics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mathcloud_everest::memo::memo_key;
use mathcloud_exact::{InvertStrategy, Matrix};
use mathcloud_json::value::Object;
use mathcloud_json::Value;
use mathcloud_telemetry::metrics;
use mathcloud_telemetry::trace::next_request_id;
use mathcloud_workflow::{BlockKind, Edge};

use crate::fixture::{Fixture, Held, Input, Workload, RETENTION, SCHUR_N};
use crate::probe::{self, delta, Snapshot};
use crate::spans::{self, Tree};
use crate::stats::{median, percentile, samples_needed};

/// End-to-end metrics (untraced run), name and unit, in `BENCHMARK.json`
/// order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("cpu_ms_per_job", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("error_rate", "ratio"),
    ("client.subscribe_ms", "ms"),
    ("client.submit_ms", "ms"),
    ("client.wait_ms", "ms"),
    ("client.download_ms", "ms"),
    ("tcp.time_wait_at_start", "count"),
    ("http.requests_per_job", "count"),
    ("http.requests_per_job.submit", "count"),
    ("http.requests_per_job.events", "count"),
    ("http.requests_per_job.status", "count"),
    ("http.requests_per_job.file", "count"),
    ("http.server_ms.submit", "ms"),
    ("http.server_ms.status", "ms"),
    ("http.server_ms.file", "ms"),
    ("http.wire_ms", "ms"),
    ("http.body_bytes_per_job", "bytes"),
    ("rest.post_ms", "ms"),
    ("container.submit_ms", "ms"),
    ("container.wait_ms", "ms"),
    ("container.queue_wait_ms", "ms"),
    ("container.run_ms", "ms"),
    ("container.pool_busy", "count"),
    ("container.queue_depth", "count"),
    ("adapter.self_ms", "ms"),
    ("jobstore.appends_per_job", "count"),
    ("jobstore.compactions", "count"),
    ("jobstore.bytes_per_job", "bytes"),
    ("memo.hit_ratio", "ratio"),
    ("memo.key_us", "us"),
    ("filestore.blobs", "count"),
    ("filestore.bytes", "bytes"),
    ("events.published_per_job", "count"),
    ("events.subscribers_peak", "count"),
    ("events.lag", "count"),
    ("workflow.blocks_per_job", "count"),
    ("workflow.block_ms", "ms"),
    ("workflow.engine_ms", "ms"),
    ("workflow.platform_share", "ratio"),
    ("exact.invert_ms", "ms"),
    ("json.parse_us", "us"),
    ("json.ser_us", "us"),
    ("core.validate_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.job_p50_ms", "ms"),
    ("layer.unattributed_ms", "ms"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// An HTTP run waits (up to [`TIME_WAIT_MAX_WAIT`]) until loopback TIME_WAIT
/// sockets left by earlier runs fall to this level.
const TIME_WAIT_CALM: u64 = 5_000;
const TIME_WAIT_MAX_WAIT: Duration = Duration::from_secs(2);
/// Hard stop for the timed loop, whatever the sample count.
const LOOP_CAP: Duration = Duration::from_secs(100);

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The result line.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// A run is correct when every job it attempted was verified.
    fn new(attempted: u64, failed: u64, metrics: Vec<(&'static str, f64, &'static str)>) -> Report {
        Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        }
    }

    pub fn to_json(&self) -> String {
        let mut metrics = Object::new();
        for (name, value, unit) in &self.metrics {
            let mut m = Object::new();
            m.insert("value".into(), Value::from(*value));
            m.insert("unit".into(), Value::from(*unit));
            metrics.insert((*name).to_string(), Value::Object(m));
        }
        let mut doc = Object::new();
        doc.insert("correct".into(), Value::from(self.correct));
        doc.insert("attempted".into(), Value::from(self.attempted as i64));
        doc.insert("failed".into(), Value::from(self.failed as i64));
        doc.insert("metrics".into(), Value::Object(metrics));
        mathcloud_json::ser::to_string(&Value::Object(doc))
    }
}

/// Where runs keep journals and span files: inside the build directory.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("jobbench")
}

/// Length of the windows a timed phase is cut into.
const WINDOW: Duration = Duration::from_secs(1);
/// A window is clean when the hypervisor took at most this share of the
/// process's CPUs during it (`steal` in `/proc/stat`).
const CLEAN_STEAL: f64 = 0.05;
/// A timed phase runs on past its length until its clean windows add up to
/// that length, but for at most this share of the length more.
const MAX_EXTENSION: f64 = 1.0;

/// A window boundary: seconds from the phase start, process CPU time, and
/// the steal time of the process's CPUs.
#[derive(Clone, Copy, Debug)]
struct Mark {
    t: f64,
    cpu: Duration,
    steal: Duration,
}

impl Mark {
    fn now(start: Instant) -> Mark {
        Mark {
            t: start.elapsed().as_secs_f64(),
            cpu: probe::process_cpu(),
            steal: probe::steal().1,
        }
    }

    /// The share of `cpus` CPUs' time the hypervisor took between `self`
    /// and `next`.
    fn stolen_until(&self, next: &Mark, cpus: usize) -> f64 {
        let stolen = next.steal.saturating_sub(self.steal).as_secs_f64();
        stolen / ((next.t - self.t) * cpus.max(1) as f64)
    }
}

/// One window of a timed phase.
#[derive(Clone, Copy, Debug)]
struct Window {
    t0: f64,
    t1: f64,
    jobs_per_s: f64,
    cpu_ms_per_job: f64,
    /// Share of the window the hypervisor took from the process's CPUs.
    stolen: f64,
}

impl Window {
    fn clean(&self) -> bool {
        self.stolen <= CLEAN_STEAL
    }
}

/// Outcome of one closed-loop phase.
#[derive(Debug, Default)]
struct Phase {
    /// Turnaround of each verified job, in ms, in completion order per
    /// worker.
    latencies_ms: Vec<f64>,
    /// When each verified job completed, in seconds from the phase start.
    completed_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// The requested length, in seconds.
    seconds: f64,
    /// Window boundaries, [`WINDOW`] apart.
    marks: Vec<Mark>,
    /// CPUs the process may run on.
    cpus: usize,
    first_error: Option<String>,
    /// Request bodies and DONE representations of a few jobs, for re-timing
    /// the JSON and validation layers on the workload's own data.
    bodies: Vec<Value>,
    responses: Vec<Value>,
}

impl Phase {
    /// Runs one job and checks its outputs; a verified job adds a latency
    /// sample, anything else (an error on the call path, a FAILED or
    /// CANCELLED job, a wrong output) counts as failed. Returns whether the
    /// job was verified.
    fn attempt(&mut self, fx: &Fixture, input: &Input, start: Instant) -> bool {
        let rid = next_request_id();
        let t0 = Instant::now();
        let held = fx.job(input, &rid);
        let t1 = Instant::now();
        spans::record("job", &rid, t0, t1);
        self.attempted += 1;
        let sample = self.bodies.len() < 16;
        let response = match (&held, sample) {
            (Ok(Held::Rep(rep)), true) => Some(rep.to_value()),
            _ => None,
        };
        match held.and_then(|h| fx.check(input, h)) {
            Ok(()) => {
                self.latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);
                self.completed_s.push((t1 - start).as_secs_f64());
                if sample {
                    self.bodies.push(input.body.clone());
                    self.responses.extend(response);
                }
                true
            }
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                false
            }
        }
    }

    /// Every window, in order.
    fn windows(&self) -> Vec<Window> {
        self.marks
            .windows(2)
            .map(|w| {
                let (m0, m1) = (w[0], w[1]);
                let jobs = self
                    .completed_s
                    .iter()
                    .filter(|&&t| t >= m0.t && t < m1.t)
                    .count();
                Window {
                    t0: m0.t,
                    t1: m1.t,
                    jobs_per_s: jobs as f64 / (m1.t - m0.t),
                    cpu_ms_per_job: (m1.cpu - m0.cpu).as_secs_f64() * 1e3 / jobs.max(1) as f64,
                    stolen: m0.stolen_until(&m1, self.cpus),
                }
            })
            .collect()
    }

    /// The windows the phase's figures come from: the clean ones, topped up
    /// with the least-stolen others when the clean ones cover less than a
    /// quarter of the requested length. A phase ends once its clean windows
    /// cover that length, so they fall short only when the hypervisor kept
    /// taking time until the extension ran out.
    fn measured(&self) -> Vec<Window> {
        let mut by_steal = self.windows();
        by_steal.sort_by(|a, b| a.stolen.total_cmp(&b.stolen));
        let mut covered = 0.0;
        by_steal
            .into_iter()
            .take_while(|w| {
                let take = w.clean() || covered < self.seconds / 4.0;
                covered += w.t1 - w.t0;
                take
            })
            .collect()
    }

    /// Ascending turnarounds of the jobs completed in `windows`.
    fn latencies_in(&self, windows: &[Window]) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .completed_s
            .iter()
            .zip(&self.latencies_ms)
            .filter(|&(&t, _)| windows.iter().any(|w| t >= w.t0 && t < w.t1))
            .map(|(_, &l)| l)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Verified jobs per second, the median over the measured windows.
    fn jobs_per_s(&self) -> f64 {
        median(
            &self
                .measured()
                .iter()
                .map(|w| w.jobs_per_s)
                .collect::<Vec<_>>(),
        )
    }
}

/// Runs the closed loop on `fx` for `seconds` (and at least `min_jobs`
/// verified jobs). Worker `w` draws inputs from stream `first_worker + w`.
/// The calling thread marks a window boundary every [`WINDOW`] and stops the
/// workers once the clean windows add up to `seconds` (or the phase has run
/// [`MAX_EXTENSION`] longer than that).
fn closed_loop(fx: &Fixture, seconds: f64, min_jobs: usize, first_worker: usize) -> Phase {
    let threads = fx.workload.threads();
    let done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let cpus = probe::steal().0;
    let start = Instant::now();
    let mut marks = vec![Mark::now(start)];
    let mut phases: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (done, stop) = (&done, &stop);
                s.spawn(move || {
                    let mut stream = fx.stream(first_worker + w);
                    let mut p = Phase::default();
                    while !stop.load(Ordering::Relaxed) && start.elapsed() < LOOP_CAP {
                        let input = fx.input(&mut stream);
                        if p.attempt(fx, &input, start) {
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    stop.store(true, Ordering::Relaxed);
                    p
                })
            })
            .collect();
        let mut next = start + WINDOW;
        let mut clean_s = 0.0;
        while !stop.load(Ordering::Relaxed) {
            let now = Instant::now();
            if now < next {
                std::thread::sleep((next - now).min(Duration::from_millis(20)));
                continue;
            }
            next += WINDOW;
            let mark = Mark::now(start);
            let last = marks.last().expect("the start mark");
            if last.stolen_until(&mark, cpus) <= CLEAN_STEAL {
                clean_s += mark.t - last.t;
            }
            marks.push(mark);
            let enough = done.load(Ordering::Relaxed) >= min_jobs as u64;
            if enough && (clean_s >= seconds || mark.t >= seconds * (1.0 + MAX_EXTENSION)) {
                stop.store(true, Ordering::Relaxed);
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let mut all = phases.pop().unwrap_or_default();
    for p in phases {
        all.latencies_ms.extend(p.latencies_ms);
        all.completed_s.extend(p.completed_s);
        all.attempted += p.attempted;
        all.failed += p.failed;
        all.first_error = all.first_error.or(p.first_error);
        all.bodies.extend(p.bodies);
        all.responses.extend(p.responses);
    }
    all.seconds = seconds;
    all.marks = marks;
    all.cpus = cpus;
    all
}

/// Waits until TIME_WAIT sockets drain to [`TIME_WAIT_CALM`] (or the wait
/// cap passes); returns the count when the run starts.
fn hold_for_time_wait() -> u64 {
    let until = Instant::now() + TIME_WAIT_MAX_WAIT;
    loop {
        let tw = probe::time_wait_sockets();
        if tw <= TIME_WAIT_CALM || Instant::now() >= until {
            return tw;
        }
        std::thread::sleep(Duration::from_millis(250));
    }
}

/// Runs the benchmark once and builds the result line.
///
/// # Errors
///
/// Set-up failures, or a run too short to report its percentiles.
pub fn run(opts: &Options) -> Result<Report, String> {
    let work = work_dir();
    std::fs::create_dir_all(&work).map_err(|e| format!("work dir {}: {e}", work.display()))?;
    let report = set_up_and_measure(opts, &work);
    remove_journals(&work);
    report
}

fn set_up_and_measure(opts: &Options, work: &Path) -> Result<Report, String> {
    let tw_at_start = if opts.workload.http() {
        hold_for_time_wait()
    } else {
        probe::time_wait_sockets()
    };
    // (seconds, share stolen) of each set-up.
    let mut setups: Vec<(f64, f64)> = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    let cpus = probe::steal().0;
    for instance in 0..SETUPS {
        drop(fixture.take());
        let start = Instant::now();
        let m0 = Mark::now(start);
        let fx = Fixture::setup(opts.workload, opts.seed, false, work, instance)?;
        let m1 = Mark::now(start);
        setups.push((m1.t, m0.stolen_until(&m1, cpus)));
        fixture = Some(fx);
    }
    let fx = fixture.expect("at least one set-up");
    // The least-stolen half of the set-ups, as the timed phases keep their
    // least-stolen windows.
    setups.sort_by(|a, b| a.1.total_cmp(&b.1));
    let kept: Vec<f64> = setups[..SETUPS.div_ceil(2)].iter().map(|s| s.0).collect();
    eprintln!(
        "{}: set-ups (s, share stolen) {:?}, terminal-retention cap {RETENTION}{}",
        opts.workload.name(),
        setups
            .iter()
            .map(|s| ((s.0 * 1e3).round() / 1e3, (s.1 * 1e2).round() / 1e2))
            .collect::<Vec<_>>(),
        fx.journal.as_ref().map_or(String::new(), |p| format!(
            ", journal on {}",
            probe::filesystem_type(p)
        ))
    );
    if opts.trace {
        traced_run(opts, &fx, work, tw_at_start)
    } else {
        untraced_run(opts, &fx, median(&kept), tw_at_start)
    }
}

/// Deletes the journals this process created.
fn remove_journals(work: &Path) {
    let prefix = format!("jobs-{}-", std::process::id());
    if let Ok(dir) = std::fs::read_dir(work) {
        for entry in dir.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

fn untraced_run(opts: &Options, fx: &Fixture, setup_s: f64, tw: u64) -> Result<Report, String> {
    let phase = closed_loop(fx, opts.seconds, samples_needed(0.9), 0);
    let windows = phase.windows();
    let measured = phase.measured();
    let sorted = phase.latencies_in(&measured);
    let jobs = sorted.len();
    let p50 = percentile(&sorted, 0.5).ok_or("no verified jobs")?;
    let p90 = percentile(&sorted, 0.9)
        .ok_or_else(|| format!("{jobs} verified jobs are too few for p90"))?;
    let of = |f: fn(&Window) -> f64| measured.iter().map(f).collect::<Vec<f64>>();
    let values = [
        setup_s,
        median(&of(|w| w.jobs_per_s)),
        p50,
        p90,
        median(&of(|w| w.cpu_ms_per_job)),
        probe::peak_rss_mib(),
    ];
    let mut all = phase.latencies_ms.clone();
    all.sort_by(f64::total_cmp);
    eprintln!(
        "{}: {} of {} windows measured ({} clean); jobs/s per window (* stolen) {:?}; \
         {jobs} verified jobs measured, p90 {} beyond, p99 {}; all jobs: p50 {:.4} ms, \
         p90 {:.4} ms; {} failed{}, TIME_WAIT at start {tw}",
        opts.workload.name(),
        measured.len(),
        windows.len(),
        windows.iter().filter(|w| w.clean()).count(),
        windows
            .iter()
            .map(|w| format!(
                "{}{}",
                w.jobs_per_s.round(),
                if w.clean() { "" } else { "*" }
            ))
            .collect::<Vec<_>>(),
        sorted.iter().filter(|&&x| x > p90).count(),
        percentile(&sorted, 0.99).map_or("needs 1000 samples".into(), |p| format!("{p:.4} ms")),
        percentile(&all, 0.5).unwrap_or(0.0),
        percentile(&all, 0.9).unwrap_or(0.0),
        phase.failed,
        phase
            .first_error
            .as_ref()
            .map_or(String::new(), |e| format!(" (first: {e})"))
    );
    Ok(Report::new(
        phase.attempted,
        phase.failed,
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
    ))
}

/// Gauges sampled while the traced phase runs.
#[derive(Default)]
struct Sampled {
    samples: u64,
    busy: f64,
    queue: f64,
    subscribers_peak: i64,
    journal_growth: u64,
}

fn sample_gauges(fx: &Fixture, stop: &AtomicBool) -> Sampled {
    let reg = metrics::global();
    let labels: Vec<String> = fx
        .containers
        .iter()
        .map(|e| e.metrics_label().to_string())
        .collect();
    let mut s = Sampled::default();
    let mut last_size = fx
        .journal
        .as_ref()
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len());
    while !stop.load(Ordering::Relaxed) {
        for l in &labels {
            let c: &[(&str, &str)] = &[("container", l)];
            s.busy += reg.gauge_value("mc_pool_busy_workers", c).unwrap_or(0) as f64;
            s.queue += reg.gauge_value("mc_pool_queue_depth", c).unwrap_or(0) as f64;
        }
        let subs = reg.gauge_value("mc_events_subscribers", &[]).unwrap_or(0);
        s.subscribers_peak = s.subscribers_peak.max(subs);
        if let Some(size) = fx
            .journal
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
        {
            // Compaction shrinks the file; count growth only.
            s.journal_growth += size.saturating_sub(last_size);
            last_size = size;
        }
        s.samples += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    s
}

/// Per-job figures read off the span trees.
#[derive(Default)]
struct JobSpans {
    dur: Vec<f64>,
    blocking: Vec<f64>,
    by_name: HashMap<&'static str, Vec<f64>>,
    rest_post: Vec<f64>,
    wire: Vec<f64>,
}

fn analyse(trees: &[Tree]) -> JobSpans {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = JobSpans::default();
    for tree in trees {
        let Some(root) = tree.spans.iter().position(|s| s.name == "job") else {
            continue;
        };
        out.dur.push(ms(tree.spans[root].dur_ns()));
        out.blocking
            .push((tree.blocking_ns(root) - tree.self_ns(root) as f64) / 1e6);
        let mut per_name: HashMap<&'static str, f64> = HashMap::new();
        for (i, s) in tree.spans.iter().enumerate() {
            if i != root {
                *per_name.entry(s.name).or_default() += ms(s.dur_ns());
            }
        }
        for (name, v) in per_name {
            out.by_name.entry(name).or_default().push(v);
        }
        for &c in &tree.children[root] {
            if tree.spans[c].name != "client.submit" {
                continue;
            }
            if let Some(&post) = tree.children[c]
                .iter()
                .find(|&&g| tree.spans[g].name == "rest.post")
            {
                let (submit, post) = (tree.spans[c].dur_ns(), tree.spans[post].dur_ns());
                out.rest_post.push(ms(post));
                out.wire.push(ms(submit.saturating_sub(post)));
            }
        }
    }
    out
}

fn traced_run(opts: &Options, fx: &Fixture, work: &Path, tw: u64) -> Result<Report, String> {
    let w = opts.workload;
    // Untraced quarters around the traced half give the same process's
    // untraced throughput, for the tracing overhead.
    let quarter = opts.seconds / 4.0;
    let before = closed_loop(fx, quarter, 0, 0);
    let traced_fx = Fixture::setup(w, opts.seed, true, work, SETUPS)?;
    let snap0 = Snapshot::take();
    let stop = AtomicBool::new(false);
    spans::start();
    let (phase, sampled) = std::thread::scope(|s| {
        let sampler = s.spawn(|| sample_gauges(&traced_fx, &stop));
        let phase = closed_loop(&traced_fx, opts.seconds / 2.0, 0, 0);
        stop.store(true, Ordering::Relaxed);
        (phase, sampler.join().expect("sampler panicked"))
    });
    let recorded = spans::stop();
    let snap1 = Snapshot::take();
    let (blobs, blob_bytes) = traced_fx.containers.iter().fold((0, 0), |(n, b), e| {
        (n + e.files().blob_count(), b + e.files().total_bytes())
    });
    let retimed = retime(&traced_fx, &phase);
    let kernel_ms = if w == Workload::SchurWorkflow {
        critical_kernel_ms(&traced_fx)?
    } else {
        0.0
    };
    drop(traced_fx);
    let after = closed_loop(fx, quarter, 0, 4);

    let trees: Vec<Tree> = spans::by_request(recorded)
        .into_values()
        .map(Tree::build)
        .collect();
    let span_file = work.join(format!("spans-{}-{}.jsonl", w.name(), opts.seed));
    spans::write_jsonl(&span_file, &trees).map_err(|e| format!("write spans: {e}"))?;
    let js = analyse(&trees);

    let jobs = phase.latencies_ms.len().max(1) as f64;
    let d = |name: &str, filter: &[(&str, &str)]| delta(&snap0, &snap1, name, filter);
    let per_job = |name: &str, filter: &[(&str, &str)]| d(name, filter) / jobs;
    let mean_ms = |name: &str, filter: &[(&str, &str)]| {
        let n = d(&format!("{name}_count"), filter);
        if n > 0.0 {
            d(&format!("{name}_sum"), filter) / n * 1e3
        } else {
            0.0
        }
    };
    let span_ms = |name: &str| median(js.by_name.get(name).map_or(&[][..], Vec::as_slice));
    let route = |route: &'static str, method: &'static str| [("route", route), ("method", method)];
    let submit = route("/services/{name}", "POST");
    let events = route("/events", "GET");
    let status = route("/services/{name}/jobs/{id}", "GET");
    let file = route("/services/{name}/jobs/{id}/files/{file}", "GET");
    let hits = d("mc_cache_hits_total", &[]);
    let misses = d("mc_cache_misses_total", &[]);
    let untraced_jps = (before.jobs_per_s() + after.jobs_per_s()) / 2.0;
    let traced_p50 = median(&phase.latencies_ms);
    let untraced_p50 = median(
        &before
            .latencies_ms
            .iter()
            .chain(&after.latencies_ms)
            .copied()
            .collect::<Vec<_>>(),
    );
    let farm = [("container", "matrix-node-*")];
    let front = [("container", "bench-front*")];
    let adapter_ms = if w == Workload::SchurWorkflow {
        d("mc_job_run_seconds_sum", &farm) * 1e3 / jobs
    } else {
        let total: f64 = js
            .by_name
            .get("adapter.self")
            .map_or(0.0, |v| v.iter().sum());
        total / js.dur.len().max(1) as f64
    };
    let run_ms = if w == Workload::SchurWorkflow {
        mean_ms("mc_job_run_seconds", &farm)
    } else {
        mean_ms("mc_job_run_seconds", &[])
    };
    let attempted = before.attempted + phase.attempted + after.attempted;
    let failed = before.failed + phase.failed + after.failed;
    let samples = sampled.samples.max(1) as f64;
    let values: HashMap<&str, f64> = [
        ("error_rate", failed as f64 / attempted.max(1) as f64),
        ("client.subscribe_ms", span_ms("client.subscribe")),
        ("client.submit_ms", span_ms("client.submit")),
        ("client.wait_ms", span_ms("client.wait")),
        ("client.download_ms", span_ms("client.download")),
        ("tcp.time_wait_at_start", tw as f64),
        (
            "http.requests_per_job",
            per_job("mc_http_requests_total", &[]),
        ),
        (
            "http.requests_per_job.submit",
            per_job("mc_http_requests_total", &submit),
        ),
        (
            "http.requests_per_job.events",
            per_job("mc_http_requests_total", &events),
        ),
        (
            "http.requests_per_job.status",
            per_job("mc_http_requests_total", &status),
        ),
        (
            "http.requests_per_job.file",
            per_job("mc_http_requests_total", &file),
        ),
        (
            "http.server_ms.submit",
            mean_ms("mc_http_request_seconds", &submit),
        ),
        (
            "http.server_ms.status",
            mean_ms("mc_http_request_seconds", &status),
        ),
        (
            "http.server_ms.file",
            mean_ms("mc_http_request_seconds", &file),
        ),
        ("http.wire_ms", median(&js.wire)),
        (
            "http.body_bytes_per_job",
            per_job("mc_http_body_bytes_sum", &[]),
        ),
        ("rest.post_ms", median(&js.rest_post)),
        ("container.submit_ms", span_ms("container.submit")),
        ("container.wait_ms", span_ms("container.wait")),
        (
            "container.queue_wait_ms",
            mean_ms("mc_job_wait_seconds", &[]),
        ),
        ("container.run_ms", run_ms),
        ("container.pool_busy", sampled.busy / samples),
        ("container.queue_depth", sampled.queue / samples),
        ("adapter.self_ms", adapter_ms),
        (
            "jobstore.appends_per_job",
            per_job("mc_job_journal_appends_total", &[]),
        ),
        (
            "jobstore.compactions",
            d("mc_job_journal_compactions_total", &[]),
        ),
        (
            "jobstore.bytes_per_job",
            sampled.journal_growth as f64 / jobs,
        ),
        (
            "memo.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        ("memo.key_us", retimed.memo_key_us),
        ("filestore.blobs", blobs as f64),
        ("filestore.bytes", blob_bytes as f64),
        (
            "events.published_per_job",
            per_job("mc_events_published_total", &[]),
        ),
        ("events.subscribers_peak", sampled.subscribers_peak as f64),
        ("events.lag", d("mc_events_lag_total", &[])),
        (
            "workflow.blocks_per_job",
            per_job("mc_workflow_block_seconds_count", &[("kind", "service")]),
        ),
        (
            "workflow.block_ms",
            mean_ms("mc_workflow_block_seconds", &[("kind", "service")]),
        ),
        ("workflow.engine_ms", mean_ms("mc_job_run_seconds", &front)),
        (
            "workflow.platform_share",
            if kernel_ms > 0.0 {
                1.0 - kernel_ms / untraced_p50
            } else {
                0.0
            },
        ),
        ("exact.invert_ms", mean_ms("mc_exact_invert_seconds", &[])),
        ("json.parse_us", retimed.parse_us),
        ("json.ser_us", retimed.ser_us),
        ("core.validate_us", retimed.validate_us),
        (
            "trace.overhead_pct",
            (1.0 - phase.jobs_per_s() / untraced_jps) * 100.0,
        ),
        ("trace.job_p50_ms", traced_p50),
        (
            "layer.unattributed_ms",
            median(&js.dur) - median(&js.blocking),
        ),
    ]
    .into_iter()
    .collect();
    eprintln!(
        "{} traced: {} jobs, {} spans written to {}",
        w.name(),
        phase.latencies_ms.len(),
        trees.iter().map(|t| t.spans.len()).sum::<usize>(),
        span_file.display()
    );
    Ok(Report::new(
        attempted,
        failed,
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values[name], unit))
            .collect(),
    ))
}

/// Layer costs re-timed in-process on the workload's own data.
struct Retimed {
    memo_key_us: f64,
    parse_us: f64,
    ser_us: f64,
    validate_us: f64,
}

fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn retime(fx: &Fixture, phase: &Phase) -> Retimed {
    const REPS: usize = 200;
    let bodies = &phase.bodies;
    let texts: Vec<String> = bodies
        .iter()
        .chain(&phase.responses)
        .map(mathcloud_json::ser::to_string)
        .collect();
    let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
    let parse_us = per(
        time_us(REPS, || {
            for t in &texts {
                std::hint::black_box(mathcloud_json::parse(std::hint::black_box(t)).ok());
            }
        }),
        texts.len(),
    );
    let values: Vec<&Value> = bodies.iter().chain(&phase.responses).collect();
    let ser_us = per(
        time_us(REPS, || {
            for v in &values {
                std::hint::black_box(mathcloud_json::ser::to_string(std::hint::black_box(v)));
            }
        }),
        values.len(),
    );
    let description = fx.description();
    let validate_us = per(
        time_us(REPS, || {
            for b in bodies {
                std::hint::black_box(description.validate_inputs(std::hint::black_box(b)).ok());
            }
        }),
        bodies.len(),
    );
    let memo_key_us = if fx.workload.memo() {
        let files = fx.containers[0].files().clone();
        let resolve = move |id: &str| files.hash_of(id);
        let objects: Vec<Object> = bodies
            .iter()
            .filter_map(|b| description.validate_inputs(b).ok())
            .collect();
        per(
            time_us(REPS, || {
                for o in &objects {
                    std::hint::black_box(memo_key(&fx.service, o, &resolve));
                }
            }),
            objects.len(),
        )
    } else {
        0.0
    };
    Retimed {
        memo_key_us,
        parse_us,
        ser_us,
        validate_us,
    }
}

/// Kernel time on the Schur workflow's critical path: the workflow's own
/// block graph evaluated in-process on pool matrix 0, each service block's
/// exact operation (with its text parse and print, as the service runs it)
/// re-timed, then the longest path through the graph.
fn critical_kernel_ms(fx: &Fixture) -> Result<f64, String> {
    const REPS: usize = 20;
    let wf = fx.workflow.as_ref().ok_or("no workflow to re-time")?;
    let services: Vec<(&str, &str)> = wf
        .blocks
        .iter()
        .filter_map(|b| match &b.kind {
            BlockKind::Service { url } => Some((b.id.as_str(), url.rsplit('/').next()?)),
            _ => None,
        })
        .collect();
    // Values on output ports, seeded with the workflow's input blocks.
    let port = |block: &str, port: &str| (block.to_string(), port.to_string());
    let mut ports: HashMap<(String, String), Value> = HashMap::new();
    ports.insert(port("matrix", "value"), Value::from(fx.pool_matrix(0)));
    ports.insert(port("k", "value"), Value::from((SCHUR_N / 2) as i64));
    let mut finish: HashMap<&str, f64> = HashMap::new();
    while finish.len() < services.len() {
        let before = finish.len();
        for &(id, service) in &services {
            let into: Vec<&Edge> = wf.edges.iter().filter(|e| e.to.block == id).collect();
            let source = |e: &Edge| port(&e.from.block, &e.from.port);
            if finish.contains_key(id) || !into.iter().all(|e| ports.contains_key(&source(e))) {
                continue;
            }
            let inputs: Object = into
                .iter()
                .map(|e| (e.to.port.clone(), ports[&source(e)].clone()))
                .collect();
            let outputs = kernel(service, &inputs)?;
            let ms = time_us(REPS, || {
                std::hint::black_box(kernel(service, &inputs).ok());
            }) / 1e3;
            let start = into
                .iter()
                .filter_map(|e| finish.get(e.from.block.as_str()))
                .fold(0.0, |a: f64, &b| a.max(b));
            finish.insert(id, start + ms);
            for (name, v) in outputs {
                ports.insert(port(id, &name), v);
            }
        }
        if finish.len() == before {
            return Err("workflow block graph has a cycle or an unfed input".into());
        }
    }
    Ok(finish.values().fold(0.0, |a: f64, &b| a.max(b)))
}

/// One matrix service's operation, as `deploy_matrix_services` runs it:
/// parse the text inputs, compute, print the outputs.
fn kernel(service: &str, inputs: &Object) -> Result<Object, String> {
    let m = |name: &str| {
        inputs
            .get(name)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{service}: no input {name}"))
            .and_then(|t| Matrix::from_text(t).map_err(|e| format!("{service}.{name}: {e}")))
    };
    let text = |x: Matrix| Value::from(x.to_text());
    let one = |x: Matrix| Object::from_iter([("result".to_string(), text(x))]);
    Ok(match service {
        "mat-split" => {
            let x = m("matrix")?;
            let k = inputs
                .get("k")
                .and_then(Value::as_u64)
                .ok_or("mat-split: no input k")? as usize;
            let n = x.rows();
            Object::from_iter([
                ("a".to_string(), text(x.submatrix(0, k, 0, k))),
                ("b".to_string(), text(x.submatrix(0, k, k, n))),
                ("c".to_string(), text(x.submatrix(k, n, 0, k))),
                ("d".to_string(), text(x.submatrix(k, n, k, n))),
            ])
        }
        "mat-invert" => {
            let inv = m("matrix")?
                .invert(InvertStrategy::Auto, mathcloud_exact::effective_threads())
                .map_err(|e| e.to_string())?;
            std::hint::black_box(inv.max_entry_bits());
            one(inv)
        }
        "mat-mul" => one(&m("a")? * &m("b")?),
        "mat-add" => one(&m("a")? + &m("b")?),
        "mat-sub" => one(&m("a")? - &m("b")?),
        "mat-neg" => one(-1 * &m("a")?),
        "mat-assemble" => one(
            Matrix::from_blocks(&m("tl")?, &m("tr")?, &m("bl")?, &m("br")?)
                .map_err(|e| e.to_string())?,
        ),
        other => return Err(format!("no kernel for service {other}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::Want;
    use mathcloud_json::json;

    /// A FAILED job and a wrong output each count as failed, and either
    /// clears `correct`; a good job beside them is still verified.
    #[test]
    fn failed_and_wrong_jobs_clear_correct() {
        let work = work_dir();
        std::fs::create_dir_all(&work).unwrap();
        let start = Instant::now();
        let mut p = Phase::default();

        let schur = Fixture::setup(Workload::SchurWorkflow, 5, false, &work, 0).unwrap();
        let good = schur.input(&mut schur.stream(0));
        assert!(p.attempt(&schur, &good, start), "{:?}", p.first_error);
        let singular = Input {
            body: json!({ "matrix": (Matrix::zero(SCHUR_N, SCHUR_N).to_text()), "k": 2 }),
            want: Want::Inverse(0),
        };
        assert!(
            !p.attempt(&schur, &singular, start),
            "a singular matrix fails its job"
        );
        drop(schur);
        remove_journals(&work);

        let noop = Fixture::setup(Workload::HttpCall, 5, false, &work, 0).unwrap();
        let wrong = Input {
            body: json!({ "n": 3 }),
            want: Want::Double(4),
        };
        assert!(!p.attempt(&noop, &wrong, start), "m = 6 is not 2 * 4");

        assert_eq!((p.attempted, p.failed, p.latencies_ms.len()), (3, 2, 1));
        assert!(!Report::new(p.attempted, p.failed, Vec::new()).correct);
        assert!(Report::new(1, 0, Vec::new()).correct);
    }
}
