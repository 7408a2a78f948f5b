//! Resuming a job's event stream from the event id its representation
//! carried (`X-MC-Event-Id`): the stream replays every event the
//! representation does not reflect, and a resume point the bus can no
//! longer serve is reported (`X-MC-Events-Gap`) so the waiter falls back to
//! one status request instead of waiting out its deadline.
//!
//! A test binary of its own: these tests flood the process-wide replay ring
//! and count the process-wide status-request metric, which would race the
//! ring-resume and single-status-request tests of `events_streaming.rs`; and
//! a journal a sibling attached to the process-wide bus would replay the
//! evicted range, so the gap would never show. They also serialize among
//! themselves, for the same reasons.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use mathcloud_client::ServiceClient;
use mathcloud_core::{JobRepresentation, JobState, Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::Everest;
use mathcloud_http::sse::{self, SseItem};
use mathcloud_http::{Client, Url, EVENT_ID_HEADER};
use mathcloud_integration_tests::loadgen::job_status_requests;
use mathcloud_json::{json, Schema, Value};

const CONNECT: Duration = Duration::from_secs(5);
const STREAM_TIMEOUT: Duration = Duration::from_secs(10);

static SERIAL: Mutex<()> = Mutex::new(());

/// A container whose `pulse` naps 250 ms — past the 100 ms synchronous
/// window, so a submission answers with a live job.
fn pulse_server(name: &str) -> (Everest, mathcloud_http::Server) {
    let e = Everest::new(name);
    e.deploy(
        ServiceDescription::new("pulse", "naps, then echoes its input")
            .input(Parameter::new("x", Schema::integer()))
            .output(Parameter::new("x", Schema::integer())),
        NativeAdapter::from_fn(|inputs, _| {
            std::thread::sleep(Duration::from_millis(250));
            let x = inputs.get("x").and_then(Value::as_i64).unwrap_or(0);
            Ok([("x".to_string(), json!(x))].into_iter().collect())
        }),
    );
    let server = mathcloud_everest::serve(e.clone(), "127.0.0.1:0", None).unwrap();
    (e, server)
}

fn event_id(resp: &mathcloud_http::Response) -> u64 {
    resp.headers
        .get(EVENT_ID_HEADER)
        .expect("job responses carry an event id")
        .parse()
        .expect("numeric event id")
}

#[test]
fn a_stream_resumed_from_the_post_event_id_replays_the_whole_job() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (e, server) = pulse_server("resume-post");
    let base: Url = server.base_url().parse().unwrap();
    let submit = Client::new()
        .post_json(&format!("{base}/services/pulse"), &json!({"x": 1}))
        .unwrap();
    let after = event_id(&submit);
    let rep = JobRepresentation::from_value(&submit.body_json().unwrap()).unwrap();
    assert!(!rep.state.is_terminal(), "pulse outlives the POST");
    let job = rep.id.as_str().to_string();

    // Subscribe only once the job is over: the resume point alone must
    // bring back every event the POST response did not reflect.
    assert!(e.wait("pulse", &job, Duration::from_secs(5)).is_some());
    let status = Client::new().get(&format!("{base}{}", rep.uri)).unwrap();
    assert!(event_id(&status) >= after, "ids only grow");

    let mut stream = sse::subscribe(&base, "job.", Some(after), CONNECT, STREAM_TIMEOUT).unwrap();
    assert!(!stream.gap, "the ring still holds the job's events");
    let deadline = Instant::now() + STREAM_TIMEOUT;
    let mut seen = Vec::new();
    while seen.last().map(String::as_str) != Some("job.done") {
        assert!(Instant::now() < deadline, "replay stalled after {seen:?}");
        match stream.next_item().expect("replay") {
            SseItem::Event(ev) => {
                let env = ev.envelope().expect("well-formed envelope");
                if env.payload.get("job").and_then(Value::as_str) == Some(job.as_str()) {
                    seen.push(env.kind);
                }
            }
            SseItem::Heartbeat => {}
            SseItem::Closed => panic!("stream closed during replay"),
        }
    }
    assert_eq!(seen, ["job.submitted", "job.running", "job.done"]);
}

#[test]
fn submit_then_wait_costs_one_status_request() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_e, server) = pulse_server("resume-wait");
    let svc = ServiceClient::connect(&format!("{}/services/pulse", server.base_url())).unwrap();
    let before = job_status_requests();
    let job = svc.submit(&json!({"x": 2})).unwrap();
    let rep = job.wait(Duration::from_secs(30)).unwrap();
    assert_eq!(rep.state, JobState::Done);
    assert_eq!(
        job_status_requests() - before,
        1,
        "the wait resumes from the submission's event id: only the outputs fetch remains"
    );
}

#[test]
fn wait_refreshes_once_when_its_resume_point_has_left_the_ring() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (e, server) = pulse_server("resume-gap");
    let svc = ServiceClient::connect(&format!("{}/services/pulse", server.base_url())).unwrap();
    let job = svc.submit(&json!({"x": 3})).unwrap();
    let id = job.representation().id.as_str().to_string();
    assert!(!job.representation().state.is_terminal());

    // The job finishes, then its events are pushed out of the ring.
    assert!(e.wait("pulse", &id, Duration::from_secs(5)).is_some());
    let bus = mathcloud_events::global();
    assert!(
        !bus.has_journal(),
        "a journal would replay the evicted range"
    );
    for _ in 0..=mathcloud_events::DEFAULT_RING {
        bus.publish("itgap.filler", None, json!({}));
    }

    let started = Instant::now();
    let before = job_status_requests();
    let rep = job
        .wait(Duration::from_secs(5))
        .expect("no wait for a lost event");
    assert_eq!(rep.state, JobState::Done);
    assert_eq!(rep.outputs.unwrap().get("x"), Some(&json!(3)));
    assert!(started.elapsed() < Duration::from_secs(5));
    assert_eq!(
        job_status_requests() - before,
        1,
        "the gap is closed by one status request"
    );
}
