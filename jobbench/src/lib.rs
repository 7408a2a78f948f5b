//! Job-path benchmark for the MathCloud container.
//!
//! The unit of work is one job: `POST /services/{name}` → DONE → outputs in
//! the caller's hands. Every workload is a closed loop (each caller waits for
//! its reply, as `ServiceClient::call` and the workflow `HttpCaller` do),
//! driven from this one process against in-process containers, and every
//! job's output is checked outside its timed span. Generators are seeded
//! from `--seed`; the program sees only the generated inputs.
//!
//! # Workloads, and why each exists
//!
//! * `http_call` — one caller runs `ServiceClient::call` on a no-op service
//!   (`m = 2n`, fresh `n` per job); journal and memo off. The paper's
//!   platform overhead with compute at zero: client, server edge, wire,
//!   router, JSON, validation, handler pool and the per-call event-stream
//!   subscription do all the work. Predicted idle: jobstore, memo,
//!   filestore, workflow, exact.
//! * `durable_submit` — two in-process threads call `Everest::submit_full`
//!   then `Everest::wait`, journal on a disk-backed filesystem, memo on,
//!   a fresh `Idempotency-Key` and unique inputs per job. Journal fsyncs
//!   under the container-wide `jobs` lock dominate; a WAL or single-flight
//!   change must move this workload and nothing on `http_call`. Predicted
//!   idle: client, http, rest, events subscribers, filestore, workflow,
//!   exact. The journal keeps the program's default compaction threshold
//!   (`DEFAULT_COMPACT_EVERY`, 1024 appends, about 256 jobs), so the
//!   compaction pause under the `jobs` lock is part of what it measures.
//!   It runs (`--workload durable_submit`, traced or not) but is not
//!   registered in `BENCHMARK.json`: on the shared machine it was built on,
//!   its fsync load drew 15-25 % steal onto its own vCPU, and across seeds
//!   its `jobs_per_s` spread (quartile distance over median) measured
//!   0.25-0.55 and its `job_p90_ms` spread 0.4-1.2, against a largest
//!   bound of 0.25, pinned or not, with one submitter or two. The journal
//!   is gated through `schur_workflow` instead.
//! * `memo_files` — one HTTP caller, memo on, journal off; the service
//!   returns a 64 KiB file. A seeded Zipf draw over 32 hot inputs makes 95 %
//!   of submissions memo hits; the other 5 % are fresh inputs that execute
//!   and store a new blob. Every file is downloaded and compared byte for
//!   byte. Reads of completed jobs and bulk bytes instead of small writes:
//!   a change that speeds job creation but slows hits, blob storage or file
//!   transfer shows here. Predicted idle: jobstore, workflow, exact. It runs
//!   but is not registered in `BENCHMARK.json`, because an operation on it
//!   can fail: in 3 of 44 runs of 20-24 s (seed 10007 reproduces it) one
//!   download failed with `http 404: no such file`. The container
//!   publishes a job's DONE event before it enforces the terminal-retention
//!   cap, so the caller's next submission can take a memo hit on the oldest
//!   retained job that the finished job's retention pass then evicts, file
//!   and all. Until that is fixed the memo and filestore layers are gated by
//!   no registered workload.
//! * `schur_workflow` — one HTTP caller submits the Table 2 workflow
//!   (`matrix::schur_workflow`), published by `WorkflowService` as a
//!   composite service on a front container; each job fans out 14 block
//!   calls to a 4-container farm (built as `spawn_matrix_farm` builds it).
//!   The matrix is an order-4 Hilbert matrix plus a seeded positive integer
//!   diagonal, checked against `inverse_serial()` computed during set-up;
//!   at order 4 orchestration, not arithmetic, is most of each job. The
//!   front container journals its jobs to the disk-backed filesystem at the
//!   default compaction threshold, as a durable deployment would: four
//!   fsync'd appends per workflow job (three until the retention cap is
//!   reached) and a compaction every 256 or so. The only workload where the
//!   workflow engine, the `HttpCaller` fan-out, several containers, the
//!   journal and the exact kernels all work; it carries the paper's
//!   overhead-share claim. Predicted idle: memo, filestore.
//!
//! HTTP workloads use one calling thread (a `call` holds an event stream and
//! a POST open at once: two connections); `durable_submit` uses two. Wider
//! submitter counts are deliberately left out: on two shared cores more load
//! generators measure the scheduler, not the program.
//!
//! Every container keeps at most 256 terminal jobs (`set_terminal_retention`),
//! so memory and compaction hold the same state however many jobs a run
//! completes; without the cap, peak RSS stepped with the job map's growth
//! and so with throughput.
//!
//! The process pins itself to one CPU before it starts any thread, so
//! parallel effects are not measured: jobs-lock contention between the two
//! `durable_submit` submitters comes only from preemption, and the handler
//! pools, the streamers and the workflow's fan-out over four containers
//! interleave on one core (`mathcloud_exact` also sees one CPU and runs its
//! kernels single-threaded). A change that adds or removes parallelism reads
//! as neutral here. The reason is the machine this benchmark was built on, a
//! shared two-vCPU virtual machine: a wakeup sent to the other vCPU waits
//! whenever the hypervisor has descheduled it. Run alternately pinned and
//! unpinned over six seeds each, unpinned `schur_workflow` fell below
//! 50 jobs/s in four of six runs while 20-30 % steal appeared whenever it
//! used both vCPUs; pinned, its spreads (quartile distance over median)
//! stayed within 0.06-0.10 and its throughput near 74 jobs/s. glibc's
//! malloc arena count is capped at the CPU count as well (see
//! [`probe::cap_malloc_arenas`]): otherwise peak RSS depended on how threads
//! happened to be scheduled.
//!
//! Every timed phase is cut into one-second windows, each tagged with the
//! share of the CPU the hypervisor took during it (`steal` in
//! `/proc/stat`). A window is clean when that share is at most 5 %. The
//! phase runs until its clean windows add up to `--seconds`, or for twice
//! that at most, and its figures come from its clean windows, topped up
//! with the least-stolen others if the clean ones cover less than a quarter
//! of `--seconds`. Steal on that machine came in bursts of 6-30 % lasting
//! 30-90 s, and a run caught in one lost a fifth to a half of its throughput.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! * `setup_s` — nine full set-ups (containers, deploy, journal attach and
//!   recovery, workflow publish, warm-up) until the first job can be timed;
//!   the median of the five the hypervisor took least from.
//! * `jobs_per_s` — verified jobs per second, the median over the measured
//!   windows.
//! * `job_p50_ms`, `job_p90_ms` — turnaround from submission until the caller
//!   holds verified DONE outputs, downloaded bytes included, over the jobs
//!   completed in the measured windows. p90 is the bounded tail; p99 is
//!   printed on stderr beside its sample count whenever 1000 samples exist.
//!   Its spread across seeds reached 0.24-0.41 of its median, more than any
//!   bound up to 0.25 admits.
//! * `cpu_ms_per_job` — process user + system CPU (`getrusage`) per verified
//!   job, the median over the measured windows: client and containers share
//!   the process, so CPU burned anywhere shows.
//! * `peak_rss_mb` — `VmHWM` at the end of the run.
//!
//! Failures — non-2xx, timeouts, FAILED or CANCELLED, wrong outputs — count
//! in the result line's `failed` against `attempted`, and any failure clears
//! `correct`. The error rate is 0 at a healthy commit, and a bounded
//! metric may never read 0, so it is not an end-to-end metric: the traced run
//! prints it as `error_rate`.
//!
//! # Per-layer metrics (`--trace 1`), and what each should move
//!
//! The traced run first runs a quarter of `--seconds` untraced, then half
//! traced on a fresh set-up whose containers sit behind a timing router, then
//! another untraced quarter; `trace.overhead_pct` compares traced against
//! untraced throughput. Spans come from the benchmark's own code around its
//! calls into each layer; counts come from deltas of `metrics::global()`.
//!
//! | metric | layer | should move | on |
//! |---|---|---|---|
//! | `client.{subscribe,submit,wait,download}_ms` | client | `job_p50_ms` | http_call, memo_files, schur_workflow |
//! | `tcp.time_wait_at_start` | kernel | `jobs_per_s` drift | HTTP workloads |
//! | `http.requests_per_job[.route]` | http edge | `jobs_per_s`, `cpu_ms_per_job` | http_call, schur_workflow |
//! | `http.server_ms.<route>`, `http.wire_ms` | http edge | `job_p50_ms` | http_call |
//! | `http.body_bytes_per_job` | http edge | `job_p50_ms` | memo_files, schur_workflow |
//! | `rest.post_ms` (incl. the 100 ms sync-wait) | rest | `job_p50_ms` | http_call |
//! | `container.{submit,wait}_ms` | container | `jobs_per_s` | durable_submit |
//! | `container.{queue_wait_ms,run_ms,pool_busy,queue_depth}` | container | `job_p90_ms` | durable_submit, http_call |
//! | `adapter.self_ms` | adapter | compute share | all |
//! | `jobstore.{appends_per_job,compactions,bytes_per_job}` | jobstore | `jobs_per_s`, `job_p90_ms` | schur_workflow, durable_submit (0 elsewhere) |
//! | `memo.hit_ratio` | memo | `job_p50_ms` | memo_files (0.95 drawn; retention evictions cost ≈ 0.01) |
//! | `memo.key_us` | memo | `job_p50_ms` | memo_files, durable_submit |
//! | `filestore.{blobs,bytes}` | filestore | `peak_rss_mb` | memo_files |
//! | `events.{published_per_job,subscribers_peak,lag}` | events | `job_p50_ms` | http_call, schur_workflow |
//! | `workflow.{blocks_per_job,block_ms,engine_ms}` | workflow | `job_p50_ms` | schur_workflow (14 blocks; 0 elsewhere) |
//! | `workflow.platform_share` | workflow | reported, not gated | schur_workflow |
//! | `exact.invert_ms` | exact | `job_p50_ms` | schur_workflow |
//! | `json.{parse,ser}_us`, `core.validate_us` | json, core | `job_p50_ms` | http_call, schur_workflow |
//! | `trace.{overhead_pct,job_p50_ms}`, `layer.unattributed_ms`, `error_rate` | accounting | — | all |
//!
//! `http.wire_ms` is `client.submit` minus the server's `rest.post` span of
//! the same request; `layer.unattributed_ms` is the traced p50 minus the p50
//! of the layer self times on the blocking path (parallel workflow blocks
//! scaled to the wall time they cover). `workflow.platform_share` is
//! 1 − critical-path kernel time ÷ `job_p50_ms`: the published workflow's
//! own block graph is evaluated in-process, each block's operation re-timed
//! with its text parse and print — the paper's 2–5 % figure.
//! `adapter.self_ms` is adapter time per job (memo hits run none): spans
//! inside the benchmark's own adapters, or on `schur_workflow`, whose farm
//! runs the `deploy_matrix_services` adapters, the farm's
//! `mc_job_run_seconds`. Other span metrics are medians over jobs. A layer a workload
//! does not use reads 0 (`memo.key_us` too, where memo is off).
//!
//! # Hygiene
//!
//! Each call leaves loopback TIME_WAIT sockets (the client sends
//! `Connection: close`). An HTTP run waits, at most 2 s, until earlier
//! runs' sockets drain to 5000 before it sets up, and every run reports the
//! count it started with (stderr, and `tcp.time_wait_at_start`). The wait is
//! bounded because a full drain takes the kernel's 60 s and runs that
//! started with anywhere from 0 to 30 000 such sockets showed no trend in
//! throughput. Journals and span files live under the build directory
//! (`$CARGO_TARGET_DIR/jobbench`); journals are deleted when the run ends.

pub mod fixture;
pub mod gen;
pub mod probe;
pub mod run;
pub mod spans;
pub mod stats;
