//! The four workloads: their containers, their one-job call path, and the
//! output check each job must pass.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mathcloud_bench::matrix::{deploy_matrix_services, schur_workflow};
use mathcloud_client::ServiceClient;
use mathcloud_core::{JobRepresentation, JobState, Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::{rest, Everest};
use mathcloud_exact::Matrix;
use mathcloud_http::{sse, Method, Request, Response, Router, Server};
use mathcloud_json::value::Object;
use mathcloud_json::{json, Schema, Value};
use mathcloud_telemetry::trace::{next_request_id, REQUEST_ID_HEADER};
use mathcloud_workflow::{Workflow, WorkflowService};

use crate::gen::{self, Stream, Zipf};
use crate::spans;

/// Deadline for one job; a job past it counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Terminal jobs every container retains. Fixed, so memory and journal
/// compaction hold the same state however many jobs a run completes.
pub const RETENTION: usize = 256;
/// Matrix order on `schur_workflow`: small, so orchestration is a visible
/// share of each run.
pub const SCHUR_N: usize = 4;
/// Distinct matrices a `schur_workflow` run draws from.
const SCHUR_POOL: usize = 4;
/// Containers in the `schur_workflow` farm (the paper's Table 2 setup).
const FARM: usize = 4;
const FARM_HANDLERS: usize = 2;
const SSE_CONNECT: Duration = Duration::from_secs(10);

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HttpCall,
    DurableSubmit,
    MemoFiles,
    SchurWorkflow,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HttpCall,
        Workload::DurableSubmit,
        Workload::MemoFiles,
        Workload::SchurWorkflow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HttpCall => "http_call",
            Workload::DurableSubmit => "durable_submit",
            Workload::MemoFiles => "memo_files",
            Workload::SchurWorkflow => "schur_workflow",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop callers.
    pub fn threads(self) -> usize {
        match self {
            Workload::DurableSubmit => 2,
            _ => 1,
        }
    }

    /// Whether jobs cross HTTP (and so leave loopback TIME_WAIT sockets).
    pub fn http(self) -> bool {
        self != Workload::DurableSubmit
    }

    /// Whether result memoization is on.
    pub fn memo(self) -> bool {
        matches!(self, Workload::DurableSubmit | Workload::MemoFiles)
    }

    fn warmup_jobs(self) -> usize {
        match self {
            Workload::HttpCall => 300,
            // Fills the retained set: evictions run from the first timed job.
            Workload::DurableSubmit => RETENTION + 400,
            Workload::MemoFiles => 100,
            Workload::SchurWorkflow => 20,
        }
    }
}

/// One generated job input and what its output must be.
#[derive(Clone, Debug, PartialEq)]
pub struct Input {
    pub body: Value,
    pub want: Want,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Want {
    /// `m == 2n`.
    Double(i64),
    /// The file equals `gen::blob(seed, key)`.
    Blob { key: u64, fresh: bool },
    /// The inverse equals pool entry `i`'s serial inverse.
    Inverse(usize),
}

/// What the caller holds when the job's clock stops.
pub enum Held {
    Rep(JobRepresentation),
    File(Vec<u8>),
}

/// Inputs `count` jobs of `worker` would submit under `seed`.
pub fn inputs(workload: Workload, seed: u64, worker: usize, count: usize) -> Vec<Input> {
    let mut stream = Stream::new(seed, workload.name(), worker);
    let zipf = Zipf::new(gen::HOT_KEYS, gen::ZIPF_S);
    let pool = schur_pool_text(seed);
    (0..count)
        .map(|_| next_input(workload, &mut stream, &zipf, &pool))
        .collect()
}

fn schur_pool_text(seed: u64) -> Vec<String> {
    (0..SCHUR_POOL)
        .map(|i| gen::schur_matrix(seed, i, SCHUR_N).to_text())
        .collect()
}

fn next_input(workload: Workload, stream: &mut Stream, zipf: &Zipf, pool: &[String]) -> Input {
    match workload {
        Workload::HttpCall => {
            let n = stream.any_n();
            Input {
                body: json!({ "n": n }),
                want: Want::Double(n),
            }
        }
        Workload::DurableSubmit => {
            let n = stream.unique_n();
            Input {
                body: json!({ "n": n }),
                want: Want::Double(n),
            }
        }
        Workload::MemoFiles => {
            let (key, fresh) = stream.memo_key(zipf);
            Input {
                body: json!({ "key": (key as i64) }),
                want: Want::Blob { key, fresh },
            }
        }
        Workload::SchurWorkflow => {
            let i = stream.pick(pool.len());
            Input {
                body: json!({ "matrix": (pool[i].as_str()), "k": ((SCHUR_N / 2) as i64) }),
                want: Want::Inverse(i),
            }
        }
    }
}

/// A set-up workload, ready for timed jobs.
pub struct Fixture {
    pub workload: Workload,
    seed: u64,
    /// Every container of the workload; the first is the one jobs go to.
    pub containers: Vec<Everest>,
    servers: Vec<Server>,
    client: Option<ServiceClient>,
    /// The service jobs are submitted to.
    pub service: String,
    zipf: Zipf,
    pool: Vec<String>,
    hot_blobs: Vec<Vec<u8>>,
    inverses: Vec<Matrix>,
    pub journal: Option<PathBuf>,
    /// The workflow `schur_workflow` publishes, wired to its farm.
    pub workflow: Option<Workflow>,
    traced: bool,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        for s in &self.servers {
            s.shutdown();
        }
    }
}

fn double_service() -> ServiceDescription {
    ServiceDescription::new("double", "No-op integer service: m = 2n")
        .input(Parameter::new("n", Schema::integer()))
        .output(Parameter::new("m", Schema::integer()))
}

fn double_adapter() -> NativeAdapter {
    NativeAdapter::from_fn(|inputs: &Object, ctx| {
        spans::timed("adapter.self", ctx.request_id().unwrap_or(""), || {
            let n = inputs.get("n").and_then(Value::as_i64).ok_or("missing n")?;
            let mut out = Object::new();
            out.insert("m".into(), Value::from(2 * n));
            Ok(out)
        })
    })
}

fn blob_service() -> ServiceDescription {
    ServiceDescription::new("blob", "Returns a 64 KiB file derived from its key")
        .input(Parameter::new("key", Schema::integer().minimum(0.0)))
        .output(Parameter::new("data", Schema::string()))
}

fn blob_adapter(seed: u64) -> NativeAdapter {
    NativeAdapter::from_fn(move |inputs: &Object, ctx| {
        spans::timed("adapter.self", ctx.request_id().unwrap_or(""), || {
            let key = inputs
                .get("key")
                .and_then(Value::as_u64)
                .ok_or("missing key")?;
            let mut out = Object::new();
            out.insert("data".into(), ctx.store_file(gen::blob(seed, key)));
            Ok(out)
        })
    })
}

/// Serves a container over loopback HTTP. Traced fixtures put an outer
/// router in front of `rest::router` that times each dispatch; it repeats
/// the inner route templates, so per-route server metrics keep their labels.
fn serve(everest: Everest, traced: bool) -> Result<Server, String> {
    let bound = if traced {
        Server::bind("127.0.0.1:0", timing_router(rest::router(everest, None)))
    } else {
        rest::serve(everest, "127.0.0.1:0", None)
    };
    bound.map_err(|e| format!("bind container: {e}"))
}

fn timing_router(inner: Router) -> Router {
    let inner = Arc::new(inner);
    let mut outer = Router::new();
    let routes: [(Method, &str, &'static str); 5] = [
        (Method::Post, "/services/{name}", "rest.post"),
        (Method::Get, "/services/{name}", "rest.describe"),
        (Method::Get, "/services/{name}/jobs/{id}", "rest.status"),
        (
            Method::Get,
            "/services/{name}/jobs/{id}/files/{file}",
            "rest.file",
        ),
        (Method::Get, "/events", "rest.events"),
    ];
    for (method, template, span) in routes {
        let inner = Arc::clone(&inner);
        outer.route(method, template, move |req: &Request, _p| {
            let rid = req.headers.get(REQUEST_ID_HEADER).unwrap_or("").to_string();
            let t0 = Instant::now();
            let resp: Response = inner.dispatch(req);
            spans::record(span, &rid, t0, Instant::now());
            resp
        });
    }
    outer
}

impl Fixture {
    /// Starts the workload's containers, deploys, attaches the journal,
    /// publishes the workflow and warms up; returns when the first job can
    /// be timed. `instance` keeps journal files of repeated set-ups apart.
    pub fn setup(
        workload: Workload,
        seed: u64,
        traced: bool,
        work: &Path,
        instance: usize,
    ) -> Result<Fixture, String> {
        let mut fx = Fixture {
            workload,
            seed,
            containers: Vec::new(),
            servers: Vec::new(),
            client: None,
            service: String::new(),
            zipf: Zipf::new(gen::HOT_KEYS, gen::ZIPF_S),
            pool: Vec::new(),
            hot_blobs: Vec::new(),
            inverses: Vec::new(),
            journal: None,
            workflow: None,
            traced,
        };
        match workload {
            Workload::HttpCall => {
                let e = Everest::new("bench-noop");
                e.deploy(double_service(), double_adapter());
                fx.attach_http(e, "double")?;
            }
            Workload::DurableSubmit => {
                let e = Everest::new("bench-durable");
                e.deploy(double_service(), double_adapter());
                e.set_result_memoization(true);
                fx.attach_journal(&e, work, instance)?;
                e.set_terminal_retention(RETENTION);
                fx.service = "double".into();
                fx.containers.push(e);
            }
            Workload::MemoFiles => {
                let e = Everest::new("bench-memo");
                e.deploy(blob_service(), blob_adapter(seed));
                e.set_result_memoization(true);
                fx.hot_blobs = (0..gen::HOT_KEYS).map(|k| gen::blob(seed, k)).collect();
                fx.attach_http(e, "blob")?;
                // Execute the hot set once, so timed hot draws are memo hits.
                for key in 0..gen::HOT_KEYS {
                    let input = Input {
                        body: json!({ "key": (key as i64) }),
                        want: Want::Blob { key, fresh: false },
                    };
                    let held = fx.job(&input, &next_request_id())?;
                    fx.check(&input, held)?;
                }
            }
            Workload::SchurWorkflow => {
                fx.pool = schur_pool_text(seed);
                fx.inverses = (0..SCHUR_POOL)
                    .map(|i| {
                        gen::schur_matrix(seed, i, SCHUR_N)
                            .inverse_serial()
                            .map_err(|e| format!("schur matrix {i}: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                let farm = fx.spawn_farm()?;
                let front = Everest::new("bench-front");
                fx.attach_journal(&front, work, instance)?;
                let wms = WorkflowService::new(front.clone());
                let workflow = schur_workflow(&farm);
                let name = wms
                    .publish(&workflow)
                    .map_err(|issues| format!("publish workflow: {}", issues.join("; ")))?;
                fx.workflow = Some(workflow);
                fx.attach_http(front, &name)?;
                // Keep the front container first: jobs go to it.
                fx.containers.rotate_right(1);
            }
        }
        fx.warm_up()?;
        Ok(fx)
    }

    /// Journals `everest`'s jobs to a fresh file under `work`, at the
    /// program's default compaction threshold.
    fn attach_journal(
        &mut self,
        everest: &Everest,
        work: &Path,
        instance: usize,
    ) -> Result<(), String> {
        let path = work.join(format!("jobs-{}-{instance}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        everest
            .attach_job_journal(&path)
            .map_err(|err| format!("attach journal: {err}"))?;
        self.journal = Some(path);
        Ok(())
    }

    fn attach_http(&mut self, everest: Everest, service: &str) -> Result<(), String> {
        everest.set_terminal_retention(RETENTION);
        let server = serve(everest.clone(), self.traced)?;
        let url = format!("{}/services/{service}", server.base_url());
        self.client =
            Some(ServiceClient::connect(&url).map_err(|e| format!("client for {url}: {e}"))?);
        self.service = service.to_string();
        self.servers.push(server);
        self.containers.push(everest);
        Ok(())
    }

    /// The `schur_workflow` farm, built as `spawn_matrix_farm` builds it but
    /// keeping the container handles (retention cap, metrics labels).
    fn spawn_farm(&mut self) -> Result<Vec<String>, String> {
        let mut bases = Vec::new();
        for i in 0..FARM {
            let e = Everest::with_handlers(&format!("matrix-node-{i}"), FARM_HANDLERS);
            deploy_matrix_services(&e);
            e.set_terminal_retention(RETENTION);
            let server = serve(e.clone(), self.traced)?;
            bases.push(server.base_url());
            self.servers.push(server);
            self.containers.push(e);
        }
        Ok(bases)
    }

    fn warm_up(&self) -> Result<(), String> {
        let per_worker = self.workload.warmup_jobs() / self.workload.threads();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.workload.threads())
                .map(|w| {
                    s.spawn(move || {
                        // Worker ids 8.. keep warm-up inputs apart from timed ones.
                        let mut stream = self.stream(8 + w);
                        for _ in 0..per_worker {
                            let input = self.input(&mut stream);
                            let held = self.job(&input, &next_request_id())?;
                            self.check(&input, held)?;
                        }
                        Ok::<(), String>(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("warm-up worker panicked"))
        })
        .map_err(|e| format!("warm-up: {e}"))
    }

    pub fn stream(&self, worker: usize) -> Stream {
        Stream::new(self.seed, self.workload.name(), worker)
    }

    pub fn input(&self, stream: &mut Stream) -> Input {
        next_input(self.workload, stream, &self.zipf, &self.pool)
    }

    /// One job, from submission until the caller holds its DONE outputs (and, on
    /// `memo_files`, the file bytes). `rid` is the `X-MC-Request-Id`.
    pub fn job(&self, input: &Input, rid: &str) -> Result<Held, String> {
        match self.workload {
            Workload::DurableSubmit => self.durable_job(input, rid).map(Held::Rep),
            Workload::MemoFiles => self.file_job(input, rid),
            Workload::HttpCall | Workload::SchurWorkflow => {
                let client = self.client.as_ref().expect("http workloads have a client");
                let rep = if spans::enabled() {
                    self.traced_call(client, input, rid)?
                } else {
                    client
                        .call(&input.body, JOB_TIMEOUT)
                        .map_err(|e| format!("call: {e}"))?
                };
                Ok(Held::Rep(rep))
            }
        }
    }

    /// `ServiceClient::call`, unrolled into its three public steps so each
    /// gets a span.
    fn traced_call(
        &self,
        client: &ServiceClient,
        input: &Input,
        rid: &str,
    ) -> Result<JobRepresentation, String> {
        let (job, stream) = self.subscribe_and_submit(client, input, rid)?;
        spans::timed("client.wait", rid, || match stream {
            Some(stream) => job.wait_streamed(stream, JOB_TIMEOUT),
            None => job.wait(JOB_TIMEOUT),
        })
        .map_err(|e| format!("wait: {e}"))
    }

    fn subscribe_and_submit(
        &self,
        client: &ServiceClient,
        input: &Input,
        rid: &str,
    ) -> Result<(mathcloud_client::JobHandle, Option<sse::EventStream>), String> {
        let stream = spans::timed("client.subscribe", rid, || {
            sse::subscribe(
                client.url(),
                "job.",
                None,
                SSE_CONNECT,
                sse::DEFAULT_HEARTBEAT,
            )
            .ok()
        });
        let job = spans::timed("client.submit", rid, || {
            client.submit_with_request_id(&input.body, rid)
        })
        .map_err(|e| format!("submit: {e}"))?;
        Ok((job, stream))
    }

    fn file_job(&self, input: &Input, rid: &str) -> Result<Held, String> {
        let client = self.client.as_ref().expect("http workloads have a client");
        let (job, stream) = self.subscribe_and_submit(client, input, rid)?;
        let handle = job.clone();
        let rep = spans::timed("client.wait", rid, || match stream {
            Some(stream) => job.wait_streamed(stream, JOB_TIMEOUT),
            None => job.wait(JOB_TIMEOUT),
        })
        .map_err(|e| format!("wait: {e}"))?;
        let url = rep
            .outputs
            .as_ref()
            .and_then(|o| o.get("data"))
            .and_then(Value::as_str)
            .ok_or("DONE job without a data file")?
            .to_string();
        spans::timed("client.download", rid, || handle.download(&url))
            .map(Held::File)
            .map_err(|e| format!("download: {e}"))
    }

    fn durable_job(&self, input: &Input, rid: &str) -> Result<JobRepresentation, String> {
        let e = &self.containers[0];
        // A fresh Idempotency-Key per job, as the workflow HttpCaller sends.
        let idem = next_request_id();
        let outcome = spans::timed("container.submit", rid, || {
            e.submit_full(&self.service, &input.body, None, Some(rid), Some(&idem))
        })
        .map_err(|r| format!("submit rejected: {r}"))?;
        if outcome.rep.state.is_terminal() {
            return Ok(outcome.rep);
        }
        let id = outcome.rep.id.as_str().to_string();
        spans::timed("container.wait", rid, || {
            e.wait(&self.service, &id, JOB_TIMEOUT)
        })
        .ok_or_else(|| "timed out waiting for the job".to_string())
    }

    /// Checks a job's outputs against what its input demands.
    pub fn check(&self, input: &Input, held: Held) -> Result<(), String> {
        let outputs = |held: Held| match held {
            Held::Rep(rep) if rep.state == JobState::Done => rep.outputs.ok_or("no outputs"),
            Held::Rep(rep) => Err(match rep.state {
                JobState::Failed | JobState::Cancelled => "job failed or was cancelled",
                _ => "job not terminal",
            }),
            Held::File(_) => Err("unexpected file"),
        };
        match &input.want {
            Want::Double(n) => {
                let m = outputs(held)?.get("m").and_then(Value::as_i64);
                if m != Some(2 * n) {
                    return Err(format!("wrong output: m = {m:?} for n = {n}"));
                }
            }
            Want::Blob { key, fresh } => {
                let Held::File(bytes) = held else {
                    return Err("no file downloaded".into());
                };
                let same = if *fresh {
                    bytes == gen::blob(self.seed, *key)
                } else {
                    bytes == self.hot_blobs[*key as usize]
                };
                if !same || bytes.len() != gen::BLOB_BYTES {
                    return Err(format!("wrong file bytes for key {key}"));
                }
            }
            Want::Inverse(i) => {
                let text = outputs(held)?
                    .get("inverse")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or("no inverse output")?;
                let m = Matrix::from_text(&text).map_err(|e| format!("inverse: {e}"))?;
                if m != self.inverses[*i] {
                    return Err(format!("wrong inverse for pool matrix {i}"));
                }
            }
        }
        Ok(())
    }

    /// The description of the service jobs go to.
    pub fn description(&self) -> ServiceDescription {
        self.containers[0]
            .description(&self.service)
            .expect("the workload's service is deployed")
    }

    /// The inputs of the matrix in pool entry `i` (text form).
    pub fn pool_matrix(&self, i: usize) -> &str {
        &self.pool[i]
    }
}
