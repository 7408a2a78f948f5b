//! The benchmark's own contract: deterministic inputs, the percentile rule,
//! metric names registered in `BENCHMARK.json`, and error-free short runs
//! whose per-layer counts match each workload's predictions.
//!
//! Run with `cargo test --release --manifest-path jobbench/Cargo.toml`.

use mathcloud_jobbench::fixture::{inputs, Workload};
use mathcloud_jobbench::run::{run, Options, Report, END_TO_END, PER_LAYER};
use mathcloud_jobbench::stats::{percentile, samples_needed, MIN_BEYOND};
use mathcloud_json::Value;

#[test]
fn the_same_seed_yields_identical_inputs() {
    for w in Workload::ALL {
        for worker in [0, 1] {
            assert_eq!(
                inputs(w, 7, worker, 200),
                inputs(w, 7, worker, 200),
                "{w:?}"
            );
        }
        assert_ne!(
            inputs(w, 7, 0, 50),
            inputs(w, 8, 0, 50),
            "{w:?}: seeds differ"
        );
    }
    assert_ne!(
        inputs(Workload::HttpCall, 7, 0, 50),
        inputs(Workload::HttpCall, 7, 1, 50),
        "workers draw independent streams"
    );
}

#[test]
fn durable_inputs_never_repeat() {
    let mut seen = std::collections::HashSet::new();
    for worker in [0, 1, 4, 5, 8, 9] {
        for input in inputs(Workload::DurableSubmit, 3, worker, 5000) {
            assert!(
                seen.insert(input.body.to_string()),
                "repeated {}",
                input.body
            );
        }
    }
}

#[test]
fn percentiles_keep_ten_samples_beyond() {
    assert_eq!(samples_needed(0.99), 1000);
    assert_eq!(samples_needed(0.9), 100);
    assert_eq!(samples_needed(0.5), 20);
    let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 0.99), Some(990.0));
    assert_eq!(percentile(&sorted[..999], 0.99), None);
    for n in [20, 137, 1000, 4321] {
        let s: Vec<f64> = (1..=n).map(f64::from).collect();
        for q in [0.5, 0.9, 0.99] {
            if let Some(v) = percentile(&s, q) {
                let beyond = s.iter().filter(|&&x| x > v).count();
                assert!(beyond >= MIN_BEYOND, "n={n} q={q}: {beyond} beyond");
            }
        }
    }
}

fn registered(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = mathcloud_json::parse(&text).expect("BENCHMARK.json is json");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn every_printed_metric_is_registered() {
    assert_eq!(registered("end_to_end"), own(END_TO_END));
    assert_eq!(registered("per_layer"), own(PER_LAYER));
    for (name, _) in registered("workloads") {
        assert!(
            Workload::parse(&name).is_some(),
            "registered workload {name} runs"
        );
    }
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("{name} not printed"))
        .1
}

/// One test, run workload after workload: runs share the process-wide
/// metrics registry and span recorder.
#[test]
fn short_runs_are_error_free_and_match_the_layer_predictions() {
    for w in Workload::ALL {
        let report = run(&Options {
            workload: w,
            seed: 5,
            seconds: 1.0,
            trace: true,
        })
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, expected, "{}", w.name());
        assert!(report.correct && report.attempted > 0, "{}", w.name());
        assert_eq!(report.failed, 0, "{}", w.name());
        assert_eq!(metric(&report, "error_rate"), 0.0, "{}", w.name());
        assert!(
            report.metrics.iter().all(|m| m.1.is_finite()),
            "{}: {:?}",
            w.name(),
            report.metrics
        );

        let appends = metric(&report, "jobstore.appends_per_job");
        let requests = metric(&report, "http.requests_per_job");
        let blocks = metric(&report, "workflow.blocks_per_job");
        match w {
            Workload::DurableSubmit => {
                assert!(appends >= 3.0, "durable appends per job {appends}");
                assert_eq!(requests, 0.0, "durable_submit makes no HTTP requests");
            }
            Workload::SchurWorkflow => {
                assert!(appends >= 3.0, "front container appends per job {appends}");
                assert!(requests >= 2.0, "requests per job {requests}");
            }
            _ => {
                assert_eq!(appends, 0.0, "{}: no journal", w.name());
                assert!(requests >= 2.0, "{}: requests per job {requests}", w.name());
            }
        }
        if w == Workload::SchurWorkflow {
            assert_eq!(blocks, 14.0, "fourteen block calls per workflow");
        } else {
            assert_eq!(blocks, 0.0, "{}: no workflow", w.name());
        }
        if w == Workload::MemoFiles {
            let hit = metric(&report, "memo.hit_ratio");
            assert!((0.9..0.97).contains(&hit), "memo hit ratio {hit}");
            assert!(metric(&report, "filestore.blobs") > 0.0);
        }
    }
}
