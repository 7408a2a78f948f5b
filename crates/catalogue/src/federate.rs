//! Catalogue-level federation of container observability endpoints.
//!
//! Every MathCloud container serves `GET /metrics` (Prometheus text) and
//! `GET /health` (JSON); this module lets the catalogue — which already knows
//! every registered container — scrape them all in one bounded sweep and
//! answer as a single federation endpoint:
//!
//! * each target is scraped under a hard per-target deadline (connect *and*
//!   I/O), with retries disabled — the deadline is the whole budget,
//! * the sweep fans out over a bounded worker pool so one dead or
//!   black-holed container can never serialise behind the others,
//! * metric samples are relabelled with an `mc_instance` label naming the
//!   source authority, and every target — up or down — contributes
//!   `mc_scrape_up` / `mc_scrape_seconds` meta-series, the same degraded-
//!   partial-response shape Prometheus federation uses.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use mathcloud_http::transport::RetryPolicy;
use mathcloud_http::Client;
use mathcloud_json::value::Object;
use mathcloud_json::Value;
use mathcloud_telemetry::expose::escape_label_value;
use mathcloud_telemetry::sync::Mutex;

/// How a federation sweep is bounded.
#[derive(Debug, Clone)]
pub struct ScrapeConfig {
    /// Hard deadline per target, applied to connect and to each read/write.
    pub per_target_deadline: Duration,
    /// Upper bound on concurrent scrape workers.
    pub max_workers: usize,
}

impl Default for ScrapeConfig {
    fn default() -> Self {
        ScrapeConfig {
            per_target_deadline: Duration::from_secs(2),
            max_workers: 8,
        }
    }
}

impl ScrapeConfig {
    /// A client whose every failure mode is bounded by the per-target
    /// deadline: no retries (they would multiply the budget), connect and
    /// I/O timeouts both set to the deadline.
    pub fn scrape_client(&self) -> Client {
        Client::new()
            .with_timeout(self.per_target_deadline)
            .with_connect_timeout(self.per_target_deadline)
            .with_retry_policy(RetryPolicy::disabled())
    }
}

/// One scrape target: an authority (`host:port`) and the catalogued services
/// it hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapeTarget {
    /// The authority, also the value of the injected `mc_instance` label.
    pub instance: String,
    /// Names of the registered services behind this authority.
    pub services: Vec<String>,
}

/// The outcome of scraping one target.
#[derive(Debug, Clone)]
pub struct TargetScrape {
    pub instance: String,
    pub services: Vec<String>,
    /// Whether the scrape returned a 2xx response within the deadline.
    pub up: bool,
    /// Round-trip time of the scrape (bounded by the deadline).
    pub elapsed: Duration,
    /// HTTP status, when a response arrived at all.
    pub status: Option<u16>,
    /// Response body of a successful scrape.
    pub body: Option<String>,
    /// Transport or HTTP error description for a failed scrape.
    pub error: Option<String>,
}

/// Runs `f` over `items` on a bounded pool of scoped worker threads,
/// preserving input order in the results.
pub(crate) fn fan_out<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = queue.lock().pop_front();
                let Some((idx, item)) = next else { return };
                let r = f(item);
                results.lock()[idx] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("scoped worker completed every claimed item"))
        .collect()
}

fn scrape_one(client: &Client, target: ScrapeTarget, path: &str) -> TargetScrape {
    let url = format!("http://{}{}", target.instance, path);
    let started = Instant::now();
    let (up, status, body, error) = match client.get(&url) {
        Ok(resp) if resp.status.is_success() => (
            true,
            Some(resp.status.as_u16()),
            Some(resp.body_string()),
            None,
        ),
        Ok(resp) => (
            false,
            Some(resp.status.as_u16()),
            None,
            Some(format!("HTTP {}", resp.status)),
        ),
        Err(e) => (false, None, None, Some(e.to_string())),
    };
    TargetScrape {
        instance: target.instance,
        services: target.services,
        up,
        elapsed: started.elapsed(),
        status,
        body,
        error,
    }
}

/// Scrapes `path` on every target concurrently under the config's bounds;
/// returns the per-target outcomes (input order) and the total sweep time.
pub fn sweep(
    targets: Vec<ScrapeTarget>,
    cfg: &ScrapeConfig,
    path: &str,
) -> (Vec<TargetScrape>, Duration) {
    let client = cfg.scrape_client();
    let started = Instant::now();
    let reports = fan_out(targets, cfg.max_workers, |t| scrape_one(&client, t, path));
    (reports, started.elapsed())
}

#[derive(Default)]
struct Family {
    help: Option<String>,
    kind: Option<String>,
    samples: Vec<String>,
}

/// The family a sample line belongs to: histogram/summary `_bucket`/`_sum`/
/// `_count` suffixes resolve to their typed base name.
fn family_of(name: &str, kinds: &HashMap<String, String>) -> String {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if matches!(
                kinds.get(base).map(String::as_str),
                Some("histogram") | Some("summary")
            ) {
                return base.to_string();
            }
        }
    }
    name.to_string()
}

/// Injects `mc_instance="<instance>"` as the first label of a sample line.
/// `name_end` is the byte offset where the metric name ends (`{` or space) —
/// the first `{` in an exposition line is always the label-block opener.
fn relabel(line: &str, name_end: usize, instance: &str) -> String {
    let name = &line[..name_end];
    let rest = &line[name_end..];
    if let Some(inner) = rest.strip_prefix('{') {
        if inner.starts_with('}') {
            format!("{name}{{mc_instance=\"{instance}\"{inner}")
        } else {
            format!("{name}{{mc_instance=\"{instance}\",{inner}")
        }
    } else {
        format!("{name}{{mc_instance=\"{instance}\"}}{rest}")
    }
}

/// Merges per-target Prometheus expositions into one document.
///
/// Samples from each reachable target are relabelled with `mc_instance`;
/// families are grouped (one `# HELP`/`# TYPE` header per family, first
/// target's metadata wins) and emitted in sorted order. Every target —
/// including dead ones — contributes `mc_scrape_up` and `mc_scrape_seconds`
/// meta-series, so a consumer can always tell a missing target from a
/// missing metric.
pub fn merge_prometheus(reports: &[TargetScrape]) -> String {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    for report in reports {
        let Some(body) = &report.body else { continue };
        let instance = escape_label_value(&report.instance);
        let mut kinds: HashMap<String, String> = HashMap::new();
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some((name, kind)) = rest.split_once(' ') {
                    kinds.insert(name.to_string(), kind.trim().to_string());
                }
            }
        }
        for line in body.lines() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                if let Some((name, help)) = rest.split_once(' ') {
                    let fam = families.entry(name.to_string()).or_default();
                    if fam.help.is_none() {
                        fam.help = Some(help.to_string());
                    }
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some((name, kind)) = rest.split_once(' ') {
                    let fam = families.entry(name.to_string()).or_default();
                    if fam.kind.is_none() {
                        fam.kind = Some(kind.trim().to_string());
                    }
                }
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let name_end = line.find(['{', ' ']).unwrap_or(line.len());
            let family = family_of(&line[..name_end], &kinds);
            let sample = relabel(line, name_end, &instance);
            families.entry(family).or_default().samples.push(sample);
        }
    }

    // Meta-series: one sample per target, up or down.
    let up_fam = families.entry("mc_scrape_up".to_string()).or_default();
    up_fam.help = Some("1 when the federated scrape of the target succeeded".to_string());
    up_fam.kind = Some("gauge".to_string());
    for r in reports {
        up_fam.samples.push(format!(
            "mc_scrape_up{{mc_instance=\"{}\"}} {}",
            escape_label_value(&r.instance),
            u8::from(r.up)
        ));
    }
    let secs_fam = families.entry("mc_scrape_seconds".to_string()).or_default();
    secs_fam.help = Some("round-trip time of the federated scrape per target".to_string());
    secs_fam.kind = Some("gauge".to_string());
    for r in reports {
        secs_fam.samples.push(format!(
            "mc_scrape_seconds{{mc_instance=\"{}\"}} {}",
            escape_label_value(&r.instance),
            r.elapsed.as_secs_f64()
        ));
    }

    let mut out = String::new();
    for (name, fam) in &families {
        if fam.samples.is_empty() {
            continue;
        }
        if let Some(help) = &fam.help {
            out.push_str(&format!("# HELP {name} {help}\n"));
        }
        if let Some(kind) = &fam.kind {
            out.push_str(&format!("# TYPE {name} {kind}\n"));
        }
        for s in &fam.samples {
            out.push_str(s);
            out.push('\n');
        }
    }
    out
}

/// Builds the `GET /health/all` JSON summary from per-target `/health`
/// scrapes. Returns `(payload, all_up)` — the router maps `all_up` to
/// HTTP 200 and partial failure to a 207-style response.
pub fn health_summary(reports: &[TargetScrape], sweep_elapsed: Duration) -> (Value, bool) {
    let up = reports.iter().filter(|r| r.up).count();
    let all_up = up == reports.len();
    let targets: Vec<Value> = reports
        .iter()
        .map(|r| {
            let mut o = Object::new();
            o.insert("instance".into(), Value::from(r.instance.as_str()));
            o.insert(
                "services".into(),
                Value::Array(r.services.iter().map(|s| Value::from(s.as_str())).collect()),
            );
            o.insert("up".into(), Value::Bool(r.up));
            o.insert(
                "elapsed_seconds".into(),
                Value::from(r.elapsed.as_secs_f64()),
            );
            match r.status {
                Some(s) => o.insert("status".into(), Value::from(i64::from(s))),
                None => o.insert("status".into(), Value::Null),
            };
            match &r.error {
                Some(e) => o.insert("error".into(), Value::from(e.as_str())),
                None => o.insert("error".into(), Value::Null),
            };
            let health = r
                .body
                .as_deref()
                .and_then(|b| mathcloud_json::parse(b).ok())
                .unwrap_or(Value::Null);
            o.insert("health".into(), health);
            Value::Object(o)
        })
        .collect();
    let mut root = Object::new();
    root.insert(
        "status".into(),
        Value::from(if all_up { "ok" } else { "degraded" }),
    );
    root.insert("targets_total".into(), Value::from(reports.len() as i64));
    root.insert("targets_up".into(), Value::from(up as i64));
    root.insert(
        "sweep_seconds".into(),
        Value::from(sweep_elapsed.as_secs_f64()),
    );
    root.insert("targets".into(), Value::Array(targets));
    (Value::Object(root), all_up)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_preserves_order_and_runs_everything() {
        let items: Vec<usize> = (0..37).collect();
        let out = fan_out(items, 4, |i| i * 2);
        assert_eq!(out, (0..37).map(|i| i * 2).collect::<Vec<_>>());
        assert!(fan_out(Vec::<usize>::new(), 4, |i| i).is_empty());
        // More workers than items is fine.
        assert_eq!(fan_out(vec![1, 2], 16, |i| i), vec![1, 2]);
    }

    #[test]
    fn relabel_handles_all_sample_shapes() {
        assert_eq!(relabel("m 1", 1, "a:1"), "m{mc_instance=\"a:1\"} 1");
        assert_eq!(
            relabel("m{x=\"y\"} 1", 1, "a:1"),
            "m{mc_instance=\"a:1\",x=\"y\"} 1"
        );
        assert_eq!(relabel("m{} 1", 1, "a:1"), "m{mc_instance=\"a:1\"} 1");
    }

    fn scrape(instance: &str, body: Option<&str>) -> TargetScrape {
        TargetScrape {
            instance: instance.to_string(),
            services: vec![],
            up: body.is_some(),
            elapsed: Duration::from_millis(5),
            status: body.map(|_| 200),
            body: body.map(String::from),
            error: None,
        }
    }

    #[test]
    fn merge_groups_families_and_adds_meta_series() {
        let a = "# HELP jobs_total submitted jobs\n\
                 # TYPE jobs_total counter\n\
                 jobs_total{route=\"/x\"} 3\n";
        let b = "# HELP jobs_total submitted jobs\n\
                 # TYPE jobs_total counter\n\
                 jobs_total 9\n\
                 # HELP lat_seconds latency\n\
                 # TYPE lat_seconds histogram\n\
                 lat_seconds_bucket{le=\"+Inf\"} 4\n\
                 lat_seconds_sum 0.5\n\
                 lat_seconds_count 4\n";
        let merged = merge_prometheus(&[
            scrape("a:1", Some(a)),
            scrape("b:2", Some(b)),
            scrape("c:3", None),
        ]);
        // One header per family, samples from both targets under it.
        assert_eq!(merged.matches("# TYPE jobs_total counter").count(), 1);
        assert!(merged.contains("jobs_total{mc_instance=\"a:1\",route=\"/x\"} 3"));
        assert!(merged.contains("jobs_total{mc_instance=\"b:2\"} 9"));
        // Histogram suffixes stay under the base family's single header.
        assert_eq!(merged.matches("# TYPE lat_seconds histogram").count(), 1);
        assert!(merged.contains("lat_seconds_bucket{mc_instance=\"b:2\",le=\"+Inf\"} 4"));
        assert!(merged.contains("lat_seconds_count{mc_instance=\"b:2\"} 4"));
        // Every target appears in the meta-series, dead ones as 0.
        assert!(merged.contains("mc_scrape_up{mc_instance=\"a:1\"} 1"));
        assert!(merged.contains("mc_scrape_up{mc_instance=\"c:3\"} 0"));
        assert!(merged.contains("mc_scrape_seconds{mc_instance=\"c:3\"}"));
        // The header precedes its samples.
        let type_pos = merged.find("# TYPE jobs_total").unwrap();
        let sample_pos = merged.find("jobs_total{mc_instance=").unwrap();
        assert!(type_pos < sample_pos);
    }

    #[test]
    fn health_summary_reports_degraded_on_partial_failure() {
        let healthy = scrape("a:1", Some("{\"status\":\"ok\"}"));
        let mut dead = scrape("b:2", None);
        dead.error = Some("connect refused".to_string());
        let (value, all_up) = health_summary(&[healthy, dead], Duration::from_millis(40));
        assert!(!all_up);
        assert_eq!(value.str_field("status"), Some("degraded"));
        let targets = value.get("targets").and_then(Value::as_array).unwrap();
        assert_eq!(targets.len(), 2);
        assert_eq!(
            targets[0].get("health").map(|h| h.str_field("status")),
            Some(Some("ok"))
        );
        assert_eq!(targets[1].str_field("error"), Some("connect refused"));

        let (value, all_up) = health_summary(
            &[scrape("a:1", Some("{\"status\":\"ok\"}"))],
            Duration::from_millis(3),
        );
        assert!(all_up);
        assert_eq!(value.str_field("status"), Some("ok"));
    }
}
