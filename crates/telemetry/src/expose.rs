//! Prometheus text exposition format (version 0.0.4).
//!
//! Renders a [`MetricsRegistry`] as the plain-text format Prometheus scrapes:
//! `# HELP` / `# TYPE` headers, one sample line per label set, histograms
//! expanded into cumulative `_bucket{le=...}` series plus `_sum` and
//! `_count`. Label values are escaped per the spec (backslash, double quote
//! and newline).

use crate::metrics::{Metric, MetricsRegistry};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a `# HELP` text: `\` → `\\`, newline → `\n`.
pub fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Format a float the way Prometheus expects (`+Inf`, integers without
/// trailing noise, everything else via Rust's shortest-roundtrip formatter).
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render the registry in the text exposition format. Families are sorted by
/// name and label sets within a family are sorted, so output is deterministic.
pub fn render(registry: &MetricsRegistry) -> String {
    let metrics = registry.metrics.read().unwrap_or_else(|e| e.into_inner());
    let help = registry.help.read().unwrap_or_else(|e| e.into_inner());

    // Group samples into families by metric name.
    type Samples = Vec<(Vec<(String, String)>, Metric)>;
    let mut families: BTreeMap<String, Samples> = BTreeMap::new();
    for (key, metric) in metrics.iter() {
        families
            .entry(key.name.clone())
            .or_default()
            .push((key.labels.clone(), metric.clone()));
    }

    let mut out = String::new();
    for (name, mut samples) in families {
        samples.sort_by(|a, b| a.0.cmp(&b.0));
        let kind = match samples[0].1 {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        };
        if let Some(h) = help.get(&name) {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(h));
        }
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for (labels, metric) in samples {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name}{} {}", label_block(&labels, None), c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name}{} {}", label_block(&labels, None), g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for (i, n) in snap.buckets.iter().enumerate() {
                        cumulative += n;
                        let le = if i < snap.bounds.len() {
                            fmt_f64(snap.bounds[i])
                        } else {
                            "+Inf".to_string()
                        };
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            label_block(&labels, Some(("le", &le)))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_sum{} {}",
                        label_block(&labels, None),
                        fmt_f64(snap.sum)
                    );
                    let _ = writeln!(
                        out,
                        "{name}_count{} {}",
                        label_block(&labels, None),
                        snap.count
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_rules() {
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
        assert_eq!(escape_help("back\\slash\nnl"), "back\\\\slash\\nnl");
        // Double quotes are NOT escaped in help text, only in label values.
        assert_eq!(escape_help("a \"quote\""), "a \"quote\"");
    }

    #[test]
    fn renders_counters_gauges_histograms() {
        let reg = MetricsRegistry::new();
        reg.describe("hits_total", "total hits");
        reg.counter("hits_total", &[("route", "/jobs")]).add(3);
        reg.gauge("depth", &[]).set(-4);
        let h = reg.histogram_with("lat_seconds", &[("svc", "inv")], &[0.5, 1.0]);
        h.observe(0.25);
        h.observe(0.75);
        h.observe(2.0);

        let text = reg.render_prometheus();
        assert!(text.contains("# HELP hits_total total hits"));
        assert!(text.contains("# TYPE hits_total counter"));
        assert!(text.contains("hits_total{route=\"/jobs\"} 3"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth -4"));
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{svc=\"inv\",le=\"0.5\"} 1"));
        assert!(text.contains("lat_seconds_bucket{svc=\"inv\",le=\"1\"} 2"));
        assert!(text.contains("lat_seconds_bucket{svc=\"inv\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_seconds_count{svc=\"inv\"} 3"));
        assert!(text.contains("lat_seconds_sum{svc=\"inv\"} 3"));
    }

    #[test]
    fn label_values_are_escaped_in_output() {
        let reg = MetricsRegistry::new();
        reg.counter("odd_total", &[("name", "a\"b\\c\nd")]).inc();
        let text = reg.render_prometheus();
        assert!(
            text.contains(r#"odd_total{name="a\"b\\c\nd"} 1"#),
            "got: {text}"
        );
    }

    #[test]
    fn output_is_deterministic_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total", &[]).inc();
        reg.counter("a_total", &[("z", "1")]).inc();
        reg.counter("a_total", &[("a", "1")]).inc();
        let text = reg.render_prometheus();
        let a_pos = text.find("# TYPE a_total").unwrap();
        let b_pos = text.find("# TYPE b_total").unwrap();
        assert!(a_pos < b_pos);
        assert!(text.find("a_total{a=\"1\"}").unwrap() < text.find("a_total{z=\"1\"}").unwrap());
        assert_eq!(text, reg.render_prometheus());
    }
}
