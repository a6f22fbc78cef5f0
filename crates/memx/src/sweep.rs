//! Distributed sweeps: the `memx sweep --distributed` coordinator, the
//! `memx worker` shard process, and the executors bridging them.
//!
//! The coordinator partitions the explore grid (paper grid for kernels,
//! trace grid for `.din` workloads) into contiguous shards, dispatches
//! them onto local worker *processes* (spawned from this binary) and/or
//! attached `memx serve` daemons (over the existing HTTP/1.1+JSON
//! transport), and merges the result streams back into grid order. The
//! merged stdout is byte-identical to the single-process `memx explore`
//! — workers evaluate exactly the designs of their slice, and per-design
//! records are deterministic (the property the resume oracle already
//! pins bit-exactly).
//!
//! Fault tolerance is the point, not an afterthought:
//!
//! * a worker crash (or SIGKILL) surfaces as a non-zero exit; the retry
//!   *resumes* the shard's checkpoint file, so completed designs are
//!   never re-simulated;
//! * a corrupt result stream fails the typed checkpoint validation and
//!   is re-dispatched fresh (never merged, never resumed);
//! * a straggler whose checkpoint stops growing gets a speculative twin
//!   (first complete wins, duplicates deduped by sweep id + entry index);
//! * a shard that exhausts its retry budget degrades to coordinator-
//!   local execution, down to zero surviving workers.
//!
//! The wire format between worker and coordinator is the checkpoint
//! sidecar itself ([`memexplore::Checkpoint`]): the worker streams
//! records into it as it sweeps, and its final flush *is* the result.
//! Quarantined designs ride alongside as `quarantine <idx> <message>`
//! lines on the worker's stdout.

use crate::cli::ObsFlags;
use crate::commands::{self, Output, RunError, Workload};
use memexplore::obs::{parse_json, Json};
use memexplore::supervisor::sweep_id;
use memexplore::{
    partition, run_sharded, trace_sweep_id, CacheDesign, Checkpoint, CheckpointPolicy,
    CoordinatorOptions, Evaluator, ExploreError, Explorer, Record, ShardError, ShardExecutor,
    ShardHandle, ShardOutput, ShardSpec, SweepOptions, SweepOutcome, SweepTelemetry,
};
use std::cell::Cell;
use std::fmt::Write as _;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as ProcessCommand, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant, SystemTime};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Sweep id of one slice — what the worker's checkpoint header will
/// carry, so the coordinator can reject a stream from the wrong shard,
/// workload, or evaluator.
fn slice_id(workload: &Workload, slice: &[CacheDesign], evaluator: &Evaluator) -> u64 {
    match workload {
        Workload::Kernel(kernel) => sweep_id(kernel, slice, evaluator),
        Workload::Trace(tw) => trace_sweep_id(tw, slice, evaluator),
    }
}

/// Quarantine messages travel as single stdout lines; embedded newlines
/// would desynchronize the line protocol.
fn sanitize(message: &str) -> String {
    message.replace(['\n', '\r'], " ")
}

/// Parses `quarantine <local_idx> <message>` lines out of a worker's
/// stdout (anything else on the stream is ignored).
fn parse_quarantine_lines(text: &str) -> Vec<(usize, String)> {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("quarantine ")?;
            let (idx, message) = rest.split_once(' ')?;
            Some((idx.parse().ok()?, message.to_string()))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// memx worker
// ---------------------------------------------------------------------------

/// Runs one shard: evaluate `designs[start..end)` of the workload's grid
/// and stream records into the checkpoint file (the coordinator's wire
/// format and this shard's crash-recovery journal). Quarantined designs
/// are reported as `quarantine <local_idx> <message>` stdout lines; the
/// process still exits 0 — a quarantine is a per-design result, not a
/// worker failure.
#[allow(clippy::too_many_arguments)]
pub fn worker(
    file: &str,
    part: &str,
    em_nj: Option<f64>,
    natural: bool,
    engine: &str,
    start: usize,
    end: usize,
    checkpoint: &str,
    checkpoint_every: usize,
    resume: bool,
) -> Result<Output, RunError> {
    let workload = Workload::load(file)?;
    let evaluator = commands::make_evaluator(part, em_nj, natural);
    let designs = workload.designs();
    if end > designs.len() {
        return Err(RunError::Io(format!(
            "worker range [{start}..{end}) exceeds the {}-design grid of `{file}`",
            designs.len()
        )));
    }
    let slice = &designs[start..end];
    let options = SweepOptions {
        checkpoint: Some(CheckpointPolicy {
            path: PathBuf::from(checkpoint),
            every: if checkpoint_every == 0 {
                32
            } else {
                checkpoint_every
            },
            resume,
        }),
        ..SweepOptions::default()
    };
    let outcome =
        run_slice(&workload, &evaluator, engine, slice, &options, None).map_err(|e| match e {
            SliceError::Checkpoint(message) => RunError::Io(message),
            SliceError::Other(message) => RunError::Other(message.into()),
        })?;
    let mut stdout = String::new();
    for e in &outcome.errors {
        let _ = writeln!(
            stdout,
            "quarantine {} {}",
            e.design_index,
            sanitize(&e.message)
        );
    }
    let mut stderr = String::new();
    let t = &outcome.telemetry;
    if t.records_resumed > 0 {
        let _ = writeln!(
            stderr,
            "note: resumed {} of {} records from the checkpoint",
            t.records_resumed,
            slice.len()
        );
    }
    let _ = writeln!(
        stderr,
        "worker: designs [{start}..{end}) done: {} records, {} quarantined",
        t.designs_evaluated,
        outcome.errors.len()
    );
    Ok(Output { stdout, stderr })
}

/// Failure of one slice sweep, split along the CLI exit-code contract
/// (checkpoint problems are I/O, exit 2; everything else is runtime).
enum SliceError {
    Checkpoint(String),
    Other(String),
}

/// Sweeps one slice of the grid under the fault-isolation supervisor —
/// the shared engine behind `memx worker`, the coordinator-local
/// degradation path, and the serve daemon's shard jobs.
fn run_slice(
    workload: &Workload,
    evaluator: &Evaluator,
    engine: &str,
    slice: &[CacheDesign],
    options: &SweepOptions,
    workers: Option<usize>,
) -> Result<SweepOutcome, SliceError> {
    let mut explorer = Explorer::new(evaluator.clone()).with_engine(commands::engine_kind(engine));
    if let Some(w) = workers {
        explorer = explorer.with_workers(w);
    }
    match workload {
        Workload::Kernel(kernel) => {
            explorer
                .explore_supervised(kernel, slice, options)
                .map_err(|e| match e {
                    ExploreError::Checkpoint(c) => SliceError::Checkpoint(c.to_string()),
                    other => SliceError::Other(other.to_string()),
                })
        }
        Workload::Trace(tw) => explorer
            .explore_trace_supervised(tw, slice, options)
            .map_err(|e| match commands::trace_error(e) {
                RunError::Io(m) => SliceError::Checkpoint(m),
                other => SliceError::Other(other.to_string()),
            }),
    }
}

/// [`run_slice`] shaped as a [`ShardOutput`] (local indices, sanitized
/// quarantine messages) for the coordinator-local and in-process paths.
fn run_slice_output(
    workload: &Workload,
    evaluator: &Evaluator,
    engine: &str,
    slice: &[CacheDesign],
    spec: &ShardSpec,
    workers: Option<usize>,
) -> Result<ShardOutput, ShardError> {
    let options = SweepOptions::default();
    let outcome = run_slice(workload, evaluator, engine, slice, &options, workers).map_err(
        |(SliceError::Checkpoint(message) | SliceError::Other(message))| ShardError::WorkerLost {
            shard: spec.index,
            attempt: 0,
            message,
        },
    )?;
    Ok(ShardOutput {
        sweep_id: spec.sweep_id,
        entries: outcome
            .records
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.clone().map(|r| (i, r)))
            .collect(),
        quarantined: outcome
            .errors
            .iter()
            .map(|e| (e.design_index, sanitize(&e.message)))
            .collect(),
    })
}

// ---------------------------------------------------------------------------
// Process executor (spawned `memx worker` children)
// ---------------------------------------------------------------------------

/// Launches shard attempts as `memx worker` child processes of this
/// binary. Heartbeats are derived from the shard's checkpoint sidecar:
/// the file (or its atomic-rename `.tmp` neighbour) growing or changing
/// counts as life, so a wedged worker that stops flushing goes stale
/// even though its process is still running.
struct ProcessExecutor {
    exe: PathBuf,
    file: String,
    /// Evaluator/engine flags every worker inherits.
    flags: Vec<String>,
    dir: PathBuf,
    slots: usize,
    checkpoint_every: usize,
}

impl ProcessExecutor {
    fn new(
        slots: usize,
        file: &str,
        part: &str,
        em_nj: Option<f64>,
        natural: bool,
        engine: &str,
        dir: PathBuf,
    ) -> Result<Self, RunError> {
        let exe = std::env::current_exe()
            .map_err(|e| RunError::Io(format!("cannot locate the memx binary: {e}")))?;
        let mut flags = vec!["--part".to_string(), part.to_string()];
        if let Some(em) = em_nj {
            flags.push("--em".to_string());
            flags.push(em.to_string());
        }
        if natural {
            flags.push("--natural".to_string());
        }
        if engine != "fused" {
            flags.push("--engine".to_string());
            flags.push(engine.to_string());
        }
        Ok(Self {
            exe,
            file: file.to_string(),
            flags,
            dir,
            slots,
            checkpoint_every: 8,
        })
    }

    /// The attempt's checkpoint file. Attempt 0 and resuming retries
    /// share the shard's canonical sidecar (the resumable crash-recovery
    /// lineage); fresh re-dispatches — speculative twins and
    /// corrupt-stream retries — get their own file, because two live
    /// writers on one path would race the atomic rename.
    fn checkpoint_path(&self, spec: &ShardSpec, attempt: u32, resume: bool) -> PathBuf {
        if resume || attempt == 0 {
            self.dir.join(format!("shard-{}.ckpt", spec.index))
        } else {
            self.dir
                .join(format!("shard-{}-a{attempt}.ckpt", spec.index))
        }
    }
}

impl ShardExecutor for ProcessExecutor {
    fn launch(
        &self,
        spec: &ShardSpec,
        attempt: u32,
        resume: bool,
    ) -> Result<Box<dyn ShardHandle>, ShardError> {
        let path = self.checkpoint_path(spec, attempt, resume);
        if !resume {
            // A fresh attempt must not resume a predecessor's leftovers.
            let _ = std::fs::remove_file(&path);
        }
        let mut cmd = ProcessCommand::new(&self.exe);
        cmd.arg("worker")
            .arg(&self.file)
            .args(["--start", &spec.start.to_string()])
            .args(["--end", &spec.end.to_string()])
            .arg("--checkpoint")
            .arg(&path)
            .args(["--checkpoint-every", &self.checkpoint_every.to_string()])
            .args(&self.flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if resume {
            cmd.arg("--resume");
        }
        let child = cmd.spawn().map_err(|e| ShardError::Launch {
            shard: spec.index,
            attempt,
            message: format!("cannot spawn `memx worker`: {e}"),
        })?;
        Ok(Box::new(ProcessHandle {
            child,
            path,
            shard: spec.index,
            attempt,
            last_sig: Cell::new(None),
            last_change: Cell::new(Instant::now()),
        }))
    }

    fn slots(&self) -> usize {
        self.slots
    }
}

/// `(len, mtime)` of the checkpoint file and its `.tmp` neighbour — the
/// signal whose change resets the heartbeat clock.
type CheckpointSig = ((u64, Option<SystemTime>), (u64, Option<SystemTime>));

struct ProcessHandle {
    child: Child,
    path: PathBuf,
    shard: usize,
    attempt: u32,
    last_sig: Cell<Option<CheckpointSig>>,
    last_change: Cell<Instant>,
}

fn file_sig(path: &Path) -> (u64, Option<SystemTime>) {
    match std::fs::metadata(path) {
        Ok(m) => (m.len(), m.modified().ok()),
        Err(_) => (0, None),
    }
}

impl ShardHandle for ProcessHandle {
    fn poll(&mut self) -> Option<Result<ShardOutput, ShardError>> {
        let status = match self.child.try_wait() {
            Err(e) => {
                return Some(Err(ShardError::WorkerLost {
                    shard: self.shard,
                    attempt: self.attempt,
                    message: format!("cannot wait on worker: {e}"),
                }))
            }
            Ok(None) => return None,
            Ok(Some(status)) => status,
        };
        // The worker writes only a handful of quarantine/summary lines,
        // far below the pipe buffer, so draining after exit cannot
        // deadlock.
        let mut stdout = String::new();
        if let Some(mut s) = self.child.stdout.take() {
            let _ = s.read_to_string(&mut stdout);
        }
        let mut errtext = String::new();
        if let Some(mut s) = self.child.stderr.take() {
            let _ = s.read_to_string(&mut errtext);
        }
        if !status.success() {
            let tail = errtext
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .unwrap_or("")
                .to_string();
            return Some(Err(ShardError::WorkerLost {
                shard: self.shard,
                attempt: self.attempt,
                message: if tail.is_empty() {
                    format!("worker exited with {status}")
                } else {
                    format!("worker exited with {status}: {tail}")
                },
            }));
        }
        match Checkpoint::read(&self.path) {
            Ok(ck) => Some(Ok(ShardOutput {
                sweep_id: ck.sweep_id,
                entries: ck.entries,
                quarantined: parse_quarantine_lines(&stdout),
            })),
            Err(e) => Some(Err(ShardError::CorruptStream {
                shard: self.shard,
                attempt: self.attempt,
                message: e.to_string(),
            })),
        }
    }

    fn heartbeat_age(&self) -> Duration {
        let sig: CheckpointSig = (
            file_sig(&self.path),
            file_sig(&self.path.with_extension("tmp")),
        );
        if self.last_sig.get() != Some(sig) {
            self.last_sig.set(Some(sig));
            self.last_change.set(Instant::now());
        }
        self.last_change.get().elapsed()
    }

    fn cancel(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ProcessHandle {
    fn drop(&mut self) {
        // Never leak a running child (or a zombie) past the handle.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// HTTP executor (attached `memx serve` daemons)
// ---------------------------------------------------------------------------

/// Launches shard attempts as `shard` jobs on attached daemons,
/// round-robin. The response carries the checkpoint wire bytes
/// hex-encoded in `stdout` (decoded through the same typed validation a
/// file stream gets) and quarantine lines in `stderr`.
///
/// Liveness over HTTP is the transport's concern — the client enforces
/// its own I/O timeout, after which the attempt fails as lost — so the
/// heartbeat is reported as forever-fresh rather than pretending a
/// signal exists.
struct HttpExecutor {
    addrs: Vec<String>,
    /// Request-body prefix: `{"command":"shard",…knobs…,` awaiting
    /// `"start":…,"end":…}`.
    body_prefix: String,
    next: AtomicUsize,
}

impl HttpExecutor {
    fn new(
        addrs: Vec<String>,
        is_trace: bool,
        workload_text: &str,
        part: &str,
        em_nj: Option<f64>,
        natural: bool,
        engine: &str,
    ) -> Self {
        use memexplore::obs::push_json_str;
        let mut b = String::from("{\"command\":\"shard\",\"");
        b.push_str(if is_trace { "trace" } else { "kernel" });
        b.push_str("\":");
        push_json_str(&mut b, workload_text);
        if part != "cy7c" {
            b.push_str(",\"part\":");
            push_json_str(&mut b, part);
        }
        if let Some(em) = em_nj {
            let _ = write!(b, ",\"em_nj\":{em}");
        }
        if natural {
            b.push_str(",\"natural\":true");
        }
        if !is_trace && engine != "fused" {
            b.push_str(",\"engine\":");
            push_json_str(&mut b, engine);
        }
        b.push(',');
        Self {
            addrs,
            body_prefix: b,
            next: AtomicUsize::new(0),
        }
    }
}

impl ShardExecutor for HttpExecutor {
    fn launch(
        &self,
        spec: &ShardSpec,
        attempt: u32,
        _resume: bool,
    ) -> Result<Box<dyn ShardHandle>, ShardError> {
        let addr = self.addrs[self.next.fetch_add(1, Ordering::Relaxed) % self.addrs.len()].clone();
        let body = format!(
            "{}\"start\":{},\"end\":{}}}",
            self.body_prefix, spec.start, spec.end
        );
        let shard = spec.index;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let lost = |message: String| ShardError::WorkerLost {
                shard,
                attempt,
                message,
            };
            let corrupt = |message: String| ShardError::CorruptStream {
                shard,
                attempt,
                message,
            };
            let result = (|| {
                let resp = crate::serve::http_request(&addr, "POST", "/v1/jobs", body.as_bytes())
                    .map_err(|e| lost(format!("daemon {addr}: {e}")))?;
                let text = String::from_utf8_lossy(&resp.body).into_owned();
                let json = parse_json(&text)
                    .map_err(|e| lost(format!("daemon {addr}: malformed response: {e}")))?;
                if resp.code != 200 {
                    let msg = json
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("daemon error");
                    return Err(lost(format!("daemon {addr} answered {}: {msg}", resp.code)));
                }
                let hex = json
                    .get("stdout")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .trim();
                let bytes = hex_decode(hex).map_err(corrupt)?;
                let ck = Checkpoint::from_bytes(&bytes).map_err(|e| corrupt(e.to_string()))?;
                let quarantined = parse_quarantine_lines(
                    json.get("stderr")
                        .and_then(Json::as_str)
                        .unwrap_or_default(),
                );
                Ok(ShardOutput {
                    sweep_id: ck.sweep_id,
                    entries: ck.entries,
                    quarantined,
                })
            })();
            let _ = tx.send(result);
        });
        Ok(Box::new(HttpHandle { rx, done: false }))
    }

    fn slots(&self) -> usize {
        self.addrs.len()
    }
}

struct HttpHandle {
    rx: mpsc::Receiver<Result<ShardOutput, ShardError>>,
    done: bool,
}

impl ShardHandle for HttpHandle {
    fn poll(&mut self) -> Option<Result<ShardOutput, ShardError>> {
        if self.done {
            return None;
        }
        match self.rx.try_recv() {
            Ok(result) => {
                self.done = true;
                Some(result)
            }
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => {
                self.done = true;
                None
            }
        }
    }

    fn heartbeat_age(&self) -> Duration {
        Duration::ZERO
    }

    fn cancel(&mut self) {
        // The request thread finishes on its own; its send just lands in
        // a closed channel.
        self.done = true;
    }
}

/// Routes launches round-robin across local worker processes and
/// attached daemons; total capacity is the sum of both pools.
struct MixedExecutor {
    process: Option<ProcessExecutor>,
    http: Option<HttpExecutor>,
    next: AtomicUsize,
}

impl ShardExecutor for MixedExecutor {
    fn launch(
        &self,
        spec: &ShardSpec,
        attempt: u32,
        resume: bool,
    ) -> Result<Box<dyn ShardHandle>, ShardError> {
        let p = self.process.as_ref().map_or(0, ShardExecutor::slots);
        let total = self.slots();
        let pick = self.next.fetch_add(1, Ordering::Relaxed) % total.max(1);
        match (&self.process, &self.http) {
            (Some(proc_exec), _) if pick < p => proc_exec.launch(spec, attempt, resume),
            (_, Some(http_exec)) => http_exec.launch(spec, attempt, resume),
            (Some(proc_exec), None) => proc_exec.launch(spec, attempt, resume),
            (None, None) => Err(ShardError::Launch {
                shard: spec.index,
                attempt,
                message: "no executors configured".into(),
            }),
        }
    }

    fn slots(&self) -> usize {
        self.process.as_ref().map_or(0, ShardExecutor::slots)
            + self.http.as_ref().map_or(0, ShardExecutor::slots)
    }
}

// ---------------------------------------------------------------------------
// memx sweep (the coordinator)
// ---------------------------------------------------------------------------

/// The `memx sweep` request, mirroring `Command::Sweep`.
pub struct SweepRequest {
    pub file: String,
    pub part: String,
    pub em_nj: Option<f64>,
    pub natural: bool,
    pub bound_cycles: Option<f64>,
    pub bound_energy: Option<f64>,
    pub pareto: bool,
    pub telemetry: bool,
    pub engine: String,
    pub distributed: usize,
    pub shards: Option<usize>,
    pub attach: Vec<String>,
    pub shard_dir: Option<String>,
    pub retry_budget: u32,
    pub backoff_ms: u64,
    pub straggler_ms: u64,
    pub obs: ObsFlags,
}

/// Runs the distributed sweep coordinator. With zero workers
/// (`--distributed 0` and nothing attached) this is exactly the local
/// `memx explore` — the graceful-degradation floor made explicit.
pub fn sweep(req: &SweepRequest) -> Result<Output, RunError> {
    let slots = req.distributed + req.attach.len();
    if slots == 0 {
        return local_only(req);
    }
    let workload = Workload::load(&req.file)?;
    let evaluator = commands::make_evaluator(&req.part, req.em_nj, req.natural);
    let mut stderr = String::new();
    let designs = workload.checked_designs(&req.engine, &mut stderr)?;

    let shard_count = req.shards.unwrap_or_else(|| (2 * slots).max(1));
    let mut specs = partition(designs.len(), shard_count);
    for spec in &mut specs {
        spec.sweep_id = slice_id(&workload, &designs[spec.start..spec.end], &evaluator);
    }

    let (dir, ephemeral) = match &req.shard_dir {
        Some(d) => (PathBuf::from(d), false),
        None => (
            std::env::temp_dir().join(format!("memx-sweep-{}", std::process::id())),
            true,
        ),
    };
    std::fs::create_dir_all(&dir)
        .map_err(|e| RunError::Io(format!("cannot create shard dir `{}`: {e}", dir.display())))?;

    let process = if req.distributed > 0 {
        Some(ProcessExecutor::new(
            req.distributed,
            &req.file,
            &req.part,
            req.em_nj,
            req.natural,
            &req.engine,
            dir.clone(),
        )?)
    } else {
        None
    };
    let http = if req.attach.is_empty() {
        None
    } else {
        let text = std::fs::read_to_string(&req.file)
            .map_err(|e| RunError::Io(format!("cannot read `{}`: {e}", req.file)))?;
        Some(HttpExecutor::new(
            req.attach.clone(),
            matches!(workload, Workload::Trace(_)),
            &text,
            &req.part,
            req.em_nj,
            req.natural,
            &req.engine,
        ))
    };
    let executor = MixedExecutor {
        process,
        http,
        next: AtomicUsize::new(0),
    };

    let local = |spec: &ShardSpec| {
        run_slice_output(
            &workload,
            &evaluator,
            &req.engine,
            &designs[spec.start..spec.end],
            spec,
            None,
        )
    };
    let options = CoordinatorOptions {
        retry_budget: req.retry_budget,
        backoff: Duration::from_millis(req.backoff_ms),
        straggler_after: Duration::from_millis(req.straggler_ms),
        ..CoordinatorOptions::default()
    };
    let obs = commands::build_obs(&req.obs)?;
    let t0 = Instant::now();
    let outcome = run_sharded(
        &executor,
        &specs,
        &designs,
        &local,
        &options,
        obs.as_deref(),
    )
    .map_err(|e| RunError::Other(e.to_string().into()))?;
    if let Some(o) = &obs {
        o.finish();
    }
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Checkpoint entries persist geometry only; the sweep id matched, so
    // the grid's design is the one each record was measured for (same
    // fix-up the resume path applies).
    let mut slots_out = outcome.records;
    for (i, r) in slots_out.iter_mut().enumerate() {
        if let Some(r) = r {
            r.design = designs[i];
        }
    }
    // Every empty slot must be accounted for by a quarantine; anything
    // else means a worker returned a validated but incomplete stream,
    // and silently shrinking the sweep would betray the byte-identity
    // contract.
    let quarantined: std::collections::BTreeSet<usize> =
        outcome.errors.iter().map(|e| e.design_index).collect();
    let missing = slots_out
        .iter()
        .enumerate()
        .filter(|(i, r)| r.is_none() && !quarantined.contains(i))
        .count();
    if missing > 0 {
        return Err(RunError::Other(
            format!("distributed sweep lost {missing} designs without a quarantine record").into(),
        ));
    }
    let records: Vec<Record> = slots_out.iter().filter_map(Clone::clone).collect();
    for e in &outcome.errors {
        let _ = writeln!(stderr, "warning: {e}");
    }

    let mut out = workload.explored_line(records.len(), false);
    out.push('\n');
    commands::write_selection(
        &mut out,
        &records,
        req.bound_cycles,
        req.bound_energy,
        req.pareto,
    );
    if req.telemetry {
        let mut t = SweepTelemetry {
            designs_evaluated: records.len(),
            designs_quarantined: outcome.errors.len(),
            workers: slots,
            total_time: t0.elapsed(),
            ..SweepTelemetry::default()
        };
        outcome.stats.fill(&mut t);
        let _ = writeln!(stderr, "{t}");
    }
    Ok(Output {
        stdout: out,
        stderr,
    })
}

/// The zero-worker floor: run the ordinary local explore so `--distributed 0`
/// is usable (and byte-identical) rather than an error.
fn local_only(req: &SweepRequest) -> Result<Output, RunError> {
    let evaluator = commands::make_evaluator(&req.part, req.em_nj, req.natural);
    let supervise = crate::cli::Supervise::default();
    let (mut output, _partial) = commands::explore(
        &Workload::load(&req.file)?,
        evaluator,
        false,
        req.bound_cycles,
        req.bound_energy,
        req.pareto,
        req.telemetry,
        &req.engine,
        true,
        &supervise,
        &req.obs,
        None,
    )?;
    output.stderr.insert_str(
        0,
        "note: no workers (--distributed 0, none attached); sweeping locally\n",
    );
    Ok(output)
}

// ---------------------------------------------------------------------------
// Serve integration: shard jobs and --distribute
// ---------------------------------------------------------------------------

/// Checkpoint wire bytes plus `(local index, reason)` quarantine lines —
/// the payload of one shard-job response.
pub(crate) type ShardBytes = (Vec<u8>, Vec<(usize, String)>);

/// Runs one shard job for the serve daemon: sweep designs
/// `[start..end)` of the workload's grid and return the checkpoint wire
/// bytes plus quarantine lines.
pub(crate) fn shard_bytes(
    workload: &Workload,
    evaluator: &Evaluator,
    engine: &str,
    workers: usize,
    start: usize,
    end: usize,
) -> Result<ShardBytes, RunError> {
    let designs = workload.designs();
    if end > designs.len() || start >= end {
        return Err(RunError::Other(
            format!(
                "shard range [{start}..{end}) is invalid for the {}-design grid",
                designs.len()
            )
            .into(),
        ));
    }
    let slice = &designs[start..end];
    let spec = ShardSpec {
        index: 0,
        start,
        end,
        sweep_id: slice_id(workload, slice, evaluator),
    };
    let out = run_slice_output(workload, evaluator, engine, slice, &spec, Some(workers))
        .map_err(|e| RunError::Other(e.to_string().into()))?;
    let ck = Checkpoint {
        sweep_id: out.sweep_id,
        entries: out.entries,
    };
    Ok((ck.to_bytes(), out.quarantined))
}

/// `memx serve --distribute N`: route an explore job through the shard
/// coordinator onto `distribute` in-process workers. Output is
/// byte-identical to the undistributed explore path by the same argument
/// as `memx sweep` (and pinned by the suite's oracle).
#[allow(clippy::too_many_arguments)]
pub(crate) fn explore_sharded(
    workload: &Workload,
    evaluator: &Evaluator,
    engine: &str,
    workers: usize,
    distribute: usize,
    bound_cycles: Option<f64>,
    bound_energy: Option<f64>,
    pareto: bool,
) -> Result<(Output, bool), RunError> {
    let mut stderr = String::new();
    let designs = workload.checked_designs(engine, &mut stderr)?;
    let mut specs = partition(designs.len(), (2 * distribute).max(1));
    for spec in &mut specs {
        spec.sweep_id = slice_id(workload, &designs[spec.start..spec.end], evaluator);
    }
    // Each in-process shard worker gets a share of the job's thread
    // budget so `--distribute` does not oversubscribe the slot's cores.
    let per_shard = (workers / distribute).max(1);
    let run_workload = workload.clone();
    let run_evaluator = evaluator.clone();
    let run_engine = engine.to_string();
    let run_designs = designs.clone();
    let run: std::sync::Arc<memexplore::shard::ShardFn> =
        std::sync::Arc::new(move |spec: &ShardSpec| {
            run_slice_output(
                &run_workload,
                &run_evaluator,
                &run_engine,
                &run_designs[spec.start..spec.end],
                spec,
                Some(per_shard),
            )
        });
    let executor = memexplore::ThreadExecutor::new(distribute, run);
    let local = |spec: &ShardSpec| {
        run_slice_output(
            workload,
            evaluator,
            engine,
            &designs[spec.start..spec.end],
            spec,
            Some(workers),
        )
    };
    let outcome = run_sharded(
        &executor,
        &specs,
        &designs,
        &local,
        &CoordinatorOptions::default(),
        None,
    )
    .map_err(|e| RunError::Other(e.to_string().into()))?;
    let mut slots_out = outcome.records;
    for (i, r) in slots_out.iter_mut().enumerate() {
        if let Some(r) = r {
            r.design = designs[i];
        }
    }
    let records: Vec<Record> = slots_out.iter().filter_map(Clone::clone).collect();
    for e in &outcome.errors {
        let _ = writeln!(stderr, "warning: {e}");
    }
    let mut out = workload.explored_line(records.len(), false);
    out.push('\n');
    commands::write_selection(&mut out, &records, bound_cycles, bound_energy, pareto);
    // A quarantined design leaves the result partial: never cache it.
    let partial = !outcome.errors.is_empty();
    Ok((
        Output {
            stdout: out,
            stderr,
        },
        partial,
    ))
}

// ---------------------------------------------------------------------------
// Hex (std-only wire encoding for shard job responses)
// ---------------------------------------------------------------------------

pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

pub(crate) fn hex_decode(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err(format!("odd-length hex stream ({} chars)", text.len()));
    }
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(text.len() / 2);
    let nibble = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("non-hex byte {c:#04x} in result stream")),
        }
    };
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0u8..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("abc").unwrap_err().contains("odd-length"));
        assert!(hex_decode("zz").unwrap_err().contains("non-hex"));
    }

    #[test]
    fn quarantine_lines_round_trip() {
        let mut stdout = String::new();
        for (i, m) in [(3usize, "boom"), (7, "replay panicked")] {
            let _ = writeln!(stdout, "quarantine {i} {}", sanitize(m));
        }
        stdout.push_str("unrelated noise\n");
        assert_eq!(
            parse_quarantine_lines(&stdout),
            vec![(3, "boom".to_string()), (7, "replay panicked".to_string())]
        );
    }

    #[test]
    fn sanitize_flattens_newlines() {
        assert_eq!(sanitize("a\nb\r\nc"), "a b  c");
    }
}
