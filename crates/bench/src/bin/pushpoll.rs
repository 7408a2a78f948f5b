//! `pushpoll` — measures the status-request volume of waiting out a job by
//! polling versus subscribing to `GET /events`, and writes `BENCH_6.json`.
//!
//! ```text
//! pushpoll [--smoke]
//! ```
//!
//! Both modes run the same load against the same container and read the
//! server-side `mc_http_requests_total` counter on the job-status route
//! (client and server share the process-wide registry here, so the counts
//! are exact, not sampled). Poll mode forces `JobHandle::wait_polling`; push
//! mode uses `ServiceClient::call`, which subscribes before submitting and
//! fetches the result with a single status request once the terminal
//! `job.done` event arrives. (`JobHandle::wait` and the workflow
//! `HttpCaller` instead submit first and resume the stream from the
//! response's `X-MC-Event-Id`, which costs the same one status request.)
//! CI gates on push reducing per-job status requests at least 5x.

use std::time::Duration;

use mathcloud_client::ServiceClient;
use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::Everest;
use mathcloud_json::{json, Schema, Value};
use mathcloud_telemetry::metrics;

/// Compute time per job: long enough to outlast the container's 100 ms
/// synchronous-completion window by several poll-backoff doublings.
const NAP_MS: u64 = 600;

/// Successful `GET`s on the job-status route so far.
fn status_requests() -> u64 {
    metrics::global()
        .counter_value(
            "mc_http_requests_total",
            &[
                ("route", "/services/{name}/jobs/{id}"),
                ("method", "GET"),
                ("status", "200"),
            ],
        )
        .unwrap_or(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let jobs = if smoke { 4 } else { 12 };

    let e = Everest::new("pushpoll");
    e.deploy(
        ServiceDescription::new("nap", "sleeps, then returns its input")
            .input(Parameter::new("x", Schema::integer()))
            .output(Parameter::new("x", Schema::integer())),
        NativeAdapter::from_fn(|inputs, _| {
            std::thread::sleep(Duration::from_millis(NAP_MS));
            let x = inputs.get("x").and_then(Value::as_i64).unwrap_or(0);
            Ok([("x".to_string(), json!(x))].into_iter().collect())
        }),
    );
    let server = mathcloud_everest::serve(e, "127.0.0.1:0", None).expect("bind");
    let svc = ServiceClient::connect(&format!("{}/services/nap", server.base_url())).expect("url");
    let timeout = Duration::from_secs(30);

    println!("== push vs poll: status requests per completed {NAP_MS}ms job ==");

    // Poll mode: the classic §2 client loop (capped jittered backoff).
    let before = status_requests();
    for i in 0..jobs {
        let rep = svc
            .submit(&json!({ "x": (i as i64) }))
            .expect("submit")
            .wait_polling(timeout)
            .expect("poll wait");
        assert_eq!(
            rep.outputs.expect("outputs").get("x"),
            Some(&json!(i as i64))
        );
    }
    let poll_requests = status_requests() - before;

    // Push mode: subscribe to `/events` before submitting, then one status
    // request for the outputs after the terminal event.
    let before = status_requests();
    for i in 0..jobs {
        let rep = svc
            .call(&json!({ "x": (i as i64) }), timeout)
            .expect("push wait");
        assert_eq!(
            rep.outputs.expect("outputs").get("x"),
            Some(&json!(i as i64))
        );
    }
    let push_requests = status_requests() - before;

    let poll_per_job = poll_requests as f64 / jobs as f64;
    let push_per_job = push_requests as f64 / jobs as f64;
    let reduction = if push_requests == 0 {
        f64::INFINITY
    } else {
        poll_requests as f64 / push_requests as f64
    };
    println!("{:>6} {:>16} {:>9}", "mode", "status requests", "per job");
    println!("{:>6} {:>16} {:>9.2}", "poll", poll_requests, poll_per_job);
    println!("{:>6} {:>16} {:>9.2}", "push", push_requests, push_per_job);
    println!("reduction: {reduction:.1}x");

    let report = json!({
        "bench": "push-vs-poll",
        "jobs": (jobs as i64),
        "nap_ms": (NAP_MS as i64),
        "poll": {
            "status_requests": (poll_requests as i64),
            "per_job": (poll_per_job),
        },
        "push": {
            "status_requests": (push_requests as i64),
            "per_job": (push_per_job),
        },
        "reduction": (reduction),
    });
    std::fs::write("BENCH_6.json", report.to_pretty_string()).expect("write BENCH_6.json");
    println!("wrote BENCH_6.json ({jobs} jobs per mode)");
}
