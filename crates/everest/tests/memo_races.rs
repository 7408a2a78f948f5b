//! Concurrency battery for the result memo cache and the content-addressed
//! filestore.
//!
//! The dangerous states are all interleavings: N identical submissions
//! racing the reservation, a memo hit racing terminal-job eviction, and two
//! jobs sharing one content-addressed blob while one of them is deleted.
//! Each test pins an invariant the REST surface relies on:
//!
//! * a storm of identical submissions runs the kernel **exactly once**;
//! * a memo hit never resurrects an evicted job and never serves a freed
//!   blob — stale keys degrade to a miss that re-executes;
//! * deleting one of two jobs that share a blob leaves the other readable,
//!   and the blob is unlinked only when the last reference drops;
//! * failures are never memoized.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mathcloud_core::{JobState, Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::Everest;
use mathcloud_json::{json, Schema, Value};
use mathcloud_telemetry::metrics;

/// A container with one `add` service that counts its executions, so a test
/// can prove how many times the kernel actually ran.
fn counting_container(name: &str, execs: &Arc<AtomicUsize>) -> Everest {
    let e = Everest::with_handlers(name, 4);
    let execs = Arc::clone(execs);
    e.deploy(
        ServiceDescription::new("add", "adds")
            .input(Parameter::new("a", Schema::integer()))
            .input(Parameter::new("b", Schema::integer()))
            .output(Parameter::new("sum", Schema::integer())),
        NativeAdapter::from_fn(move |inputs, _| {
            execs.fetch_add(1, Ordering::SeqCst);
            // Long enough that racers arrive while the winner is live, so
            // the coalescing path is exercised, not just the Done-hit path.
            std::thread::sleep(Duration::from_millis(40));
            let a = inputs.get("a").and_then(Value::as_i64).unwrap_or(0);
            let b = inputs.get("b").and_then(Value::as_i64).unwrap_or(0);
            Ok([("sum".to_string(), json!(a + b))].into_iter().collect())
        }),
    );
    e.set_result_memoization(true);
    e
}

fn hits(e: &Everest, service: &str) -> u64 {
    metrics::global()
        .counter_value(
            "mc_cache_hits_total",
            &[("container", e.metrics_label()), ("service", service)],
        )
        .unwrap_or(0)
}

fn misses(e: &Everest, service: &str) -> u64 {
    metrics::global()
        .counter_value(
            "mc_cache_misses_total",
            &[("container", e.metrics_label()), ("service", service)],
        )
        .unwrap_or(0)
}

#[test]
fn identical_submission_storm_executes_exactly_once() {
    const RACERS: usize = 16;
    let execs = Arc::new(AtomicUsize::new(0));
    let e = counting_container("memo-storm", &execs);

    // Wire-level spellings differ per racer; all canonicalize identically.
    let spellings = [
        json!({"a": 20, "b": 22}),
        json!({"b": 22, "a": 20}),
        json!({"a": 20.0, "b": 22.0}),
        json!({"b": 22.0, "a": 20}),
    ];
    let mut outcomes: Vec<(String, bool)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..RACERS)
            .map(|i| {
                let e = &e;
                let body = &spellings[i % spellings.len()];
                s.spawn(move || {
                    let o = e.submit_full("add", body, None, None, None).unwrap();
                    (o.rep.id.as_str().to_string(), o.memo_hit)
                })
            })
            .collect();
        outcomes.extend(handles.into_iter().map(|h| h.join().unwrap()));
    });

    let winners: Vec<_> = outcomes.iter().filter(|(_, hit)| !hit).collect();
    assert_eq!(winners.len(), 1, "exactly one racer creates the job");
    let job_id = &winners[0].0;
    assert!(
        outcomes.iter().all(|(id, _)| id == job_id),
        "every racer was answered with the winner's job"
    );

    let done = e
        .wait("add", job_id, Duration::from_secs(10))
        .expect("storm job completes");
    assert_eq!(done.state, JobState::Done);
    assert_eq!(
        done.outputs
            .as_ref()
            .and_then(|o| o.get("sum"))
            .and_then(Value::as_i64),
        Some(42)
    );

    assert_eq!(
        execs.load(Ordering::SeqCst),
        1,
        "the kernel ran exactly once"
    );
    assert_eq!(
        e.stats().submitted,
        1,
        "only the winner counts as a submission"
    );
    assert_eq!(hits(&e, "add"), (RACERS - 1) as u64);
    assert_eq!(misses(&e, "add"), 1);

    // A late identical submission — the job is long Done — is a plain hit.
    let late = e
        .submit_full("add", &json!({"b": 22, "a": 20.0}), None, None, None)
        .unwrap();
    assert!(late.memo_hit);
    assert_eq!(late.rep.state, JobState::Done);
    assert_eq!(late.rep.id.as_str(), job_id);
    assert_eq!(execs.load(Ordering::SeqCst), 1);
}

/// A container whose `blob` service writes its result through the
/// content-addressed filestore, for racing hits against eviction.
fn blob_container(name: &str, execs: &Arc<AtomicUsize>) -> Everest {
    let e = Everest::with_handlers(name, 4);
    let execs = Arc::clone(execs);
    e.deploy(
        ServiceDescription::new("blob", "stores a payload file")
            .input(Parameter::new("n", Schema::integer()))
            .output(Parameter::new("data", Schema::string())),
        NativeAdapter::from_fn(move |inputs, ctx| {
            execs.fetch_add(1, Ordering::SeqCst);
            let n = inputs.get("n").and_then(Value::as_i64).unwrap_or(0);
            let file = ctx.store_file(format!("payload-{n}").into_bytes());
            Ok([("data".to_string(), file)].into_iter().collect())
        }),
    );
    e.set_result_memoization(true);
    e
}

fn file_bytes(
    e: &Everest,
    service: &str,
    job: &str,
    rep: &mathcloud_core::JobRepresentation,
) -> Option<Vec<u8>> {
    let reference = rep.outputs.as_ref()?.get("data")?.as_str()?;
    let id = reference.strip_prefix("mc-file:")?;
    e.file(service, job, id)
}

#[test]
fn memo_hits_race_eviction_without_resurrecting_jobs_or_dangling_blobs() {
    const ROUNDS: usize = 120;
    let execs = Arc::new(AtomicUsize::new(0));
    let e = blob_container("memo-evict", &execs);
    // A brutal retention cap: every terminal transition evicts the previous
    // terminal job, constantly invalidating memo entries under thread A.
    e.set_terminal_retention(1);

    std::thread::scope(|s| {
        // Thread A: hammers one memoized payload, checking every answer.
        let a = s.spawn(|| {
            for round in 0..ROUNDS {
                let o = e
                    .submit_full("blob", &json!({"n": 7}), None, None, None)
                    .unwrap();
                assert!(
                    o.rep.state == JobState::Done || !o.rep.state.is_terminal(),
                    "round {round}: a hit/creation never surfaces a failed or \
                     cancelled record, got {:?}",
                    o.rep.state
                );
                if o.rep.state == JobState::Done {
                    // A Done answer is a self-contained snapshot: outputs
                    // are present even if the record is evicted right now.
                    assert!(
                        o.rep.outputs.is_some(),
                        "round {round}: Done representation without outputs"
                    );
                } else if !o.memo_hit {
                    // The fresh job may complete and be evicted by B's
                    // churn before this wait observes it; `None` here means
                    // exactly that, not a failure.
                    let _ = e.wait("blob", o.rep.id.as_str(), Duration::from_secs(10));
                }
            }
        });
        // Thread B: churns distinct payloads so terminal eviction runs
        // continuously, racing A's lookups.
        let b = s.spawn(|| {
            for i in 0..ROUNDS {
                let o = e
                    .submit_full("blob", &json!({"n": (1000 + i as i64)}), None, None, None)
                    .unwrap();
                // As above: the churn job itself can be evicted the moment
                // a newer job goes terminal, so `None` is fine.
                let _ = e.wait("blob", o.rep.id.as_str(), Duration::from_secs(10));
            }
        });
        a.join().unwrap();
        b.join().unwrap();
    });

    assert!(hits(&e, "blob") > 0, "the storm produced no memo hits");

    // Deterministically evict whatever record `{"n": 7}` maps to: one more
    // churn job goes terminal, and the cap-1 retention keeps only it.
    let churn = e
        .submit_full("blob", &json!({"n": 9999}), None, None, None)
        .unwrap();
    e.wait("blob", churn.rep.id.as_str(), Duration::from_secs(10))
        .expect("churn job completes");

    // The memoized payload's record is gone, so the next identical
    // submission must be a *miss* that cleanly re-executes — never a hit on
    // a resurrected job or a freed blob.
    let before = execs.load(Ordering::SeqCst);
    let o = e
        .submit_full("blob", &json!({"n": 7}), None, None, None)
        .unwrap();
    assert!(!o.memo_hit, "a hit resurrected an evicted job");
    let rep = e
        .wait("blob", o.rep.id.as_str(), Duration::from_secs(10))
        .expect("re-execution completes");
    assert_eq!(rep.state, JobState::Done);
    assert_eq!(
        execs.load(Ordering::SeqCst),
        before + 1,
        "eviction forces re-execution"
    );
    assert_eq!(
        file_bytes(&e, "blob", rep.id.as_str(), &rep).as_deref(),
        Some(b"payload-7".as_slice()),
        "the answer's file bytes are intact after the eviction storm"
    );

    // With a retention cap of 1, exactly one terminal record survives, and
    // the store holds exactly its blob — nothing leaked, nothing dangling.
    assert_eq!(e.files().blob_count(), 1, "one blob per surviving job");
}

#[test]
fn retention_cap_holds_as_soon_as_wait_returns() {
    const JOBS: i64 = 2000;
    const CAP: usize = 4;
    let execs = Arc::new(AtomicUsize::new(0));
    let e = blob_container("memo-retention", &execs);
    e.set_terminal_retention(CAP);
    // Eviction happens in the critical section that settles a job, before
    // its waiters wake. Otherwise a caller acting on DONE could take a memo
    // hit on the oldest retained job and lose its file to the eviction
    // still in flight.
    for n in 0..JOBS {
        let o = e
            .submit_full("blob", &json!({"n": n}), None, None, None)
            .unwrap();
        let rep = e
            .wait("blob", o.rep.id.as_str(), Duration::from_secs(10))
            .expect("job completes");
        assert_eq!(rep.state, JobState::Done);
        let done = e.health().done;
        assert!(
            done <= CAP,
            "job {n}: {done} DONE records retained, cap {CAP}"
        );
        let blobs = e.files().blob_count();
        assert!(blobs <= CAP, "job {n}: {blobs} blobs retained, cap {CAP}");
    }
}

#[test]
fn deleting_one_of_two_jobs_sharing_a_blob_keeps_the_other_readable() {
    let e = Everest::with_handlers("memo-shared-blob", 2);
    e.deploy(
        ServiceDescription::new("constant", "always writes the same bytes")
            .input(Parameter::new("n", Schema::integer()))
            .output(Parameter::new("data", Schema::string())),
        NativeAdapter::from_fn(|_, ctx| {
            let file = ctx.store_file(b"shared payload".to_vec());
            Ok([("data".to_string(), file)].into_iter().collect())
        }),
    );
    // Memoization stays off: the point is two *distinct* jobs converging on
    // one content-addressed blob.
    let first = e
        .submit_full("constant", &json!({"n": 1}), None, None, None)
        .unwrap()
        .rep;
    let second = e
        .submit_full("constant", &json!({"n": 2}), None, None, None)
        .unwrap()
        .rep;
    let first = e
        .wait("constant", first.id.as_str(), Duration::from_secs(10))
        .unwrap();
    let second = e
        .wait("constant", second.id.as_str(), Duration::from_secs(10))
        .unwrap();
    assert_eq!(
        e.files().blob_count(),
        1,
        "identical outputs share one blob"
    );

    let hash = {
        let reference = first.outputs.as_ref().unwrap().get("data").unwrap();
        let id = reference
            .as_str()
            .unwrap()
            .strip_prefix("mc-file:")
            .unwrap();
        e.files().hash_of(id).unwrap()
    };
    assert_eq!(e.files().blob_refs(&hash), Some(2));

    // The regression this test locks down: deleting the first job must
    // decrement the refcount, not unlink the blob out from under job two.
    assert!(e.delete_job("constant", first.id.as_str()));
    assert_eq!(e.files().blob_refs(&hash), Some(1));
    assert_eq!(
        file_bytes(&e, "constant", second.id.as_str(), &second).as_deref(),
        Some(b"shared payload".as_slice()),
        "job two's file survives job one's deletion"
    );

    // The last reference unlinks the blob.
    assert!(e.delete_job("constant", second.id.as_str()));
    assert_eq!(e.files().blob_refs(&hash), None);
    assert_eq!(e.files().blob_count(), 0);
    assert_eq!(e.files().total_bytes(), 0);
}

#[test]
fn failures_are_never_memoized() {
    let execs = Arc::new(AtomicUsize::new(0));
    let e = Everest::with_handlers("memo-failures", 2);
    let counter = Arc::clone(&execs);
    e.deploy(
        ServiceDescription::new("flaky", "always fails")
            .input(Parameter::new("n", Schema::integer()))
            .output(Parameter::new("r", Schema::integer())),
        NativeAdapter::from_fn(move |_, _| {
            counter.fetch_add(1, Ordering::SeqCst);
            Err("transient infrastructure failure".to_string())
        }),
    );
    e.set_result_memoization(true);

    for round in 0..3 {
        let o = e
            .submit_full("flaky", &json!({"n": 1}), None, None, None)
            .unwrap();
        let rep = e
            .wait("flaky", o.rep.id.as_str(), Duration::from_secs(10))
            .unwrap();
        assert_eq!(rep.state, JobState::Failed, "round {round}");
        assert!(
            !o.memo_hit,
            "round {round}: a failure was served from the cache"
        );
    }
    // Every retry re-executed: errors are not results.
    assert_eq!(execs.load(Ordering::SeqCst), 3);
    assert_eq!(hits(&e, "flaky"), 0);
}
