//! Sweep-as-a-service: the `memx serve` daemon and its tiny HTTP client.
//!
//! The daemon accepts exploration jobs (explore / pareto / search — the
//! same commands the offline CLI runs, with the same knobs) over a
//! line-delimited HTTP/1.1+JSON API on a TCP socket:
//!
//! * `POST /v1/jobs` — run (or serve from cache) one job. The body is a
//!   JSON object; `command` picks the job kind and exactly one of
//!   `kernel` (inline loopir `.mx` text) or `trace` (inline Dinero `.din`
//!   text, swept by streaming) carries the workload. Unknown fields are
//!   rejected (400), so a typo'd knob can never silently fall back to a
//!   default.
//! * `GET  /v1/health` — liveness probe.
//! * `GET  /v1/stats` — job/cache/queue counters as JSON.
//! * `POST /v1/shutdown` — graceful stop (also SIGTERM on the binary).
//!
//! Completed results are memoized in a content-addressed
//! [`ResultCache`](memexplore::ResultCache): the key is a 128-bit FNV-1a
//! hash of the *canonical* job rendering — the parsed kernel's canonical
//! IR `Display`, the resolved model parameters, engine, objective, and
//! every knob, with defaults made explicit — so JSON key order,
//! whitespace, and spelled-out defaults cannot change the key, while any
//! semantic difference must. Single-flight deduplication makes concurrent
//! identical jobs simulate once; every submitter gets byte-identical
//! bytes. Cancelled (deadline) and failed jobs are never cached.
//!
//! Jobs are admitted through a ticket-FIFO [`FairGate`] with a bounded
//! number of concurrent slots; each admitted job runs on the existing
//! work-stealing sweep pool with `workers ≈ cores/slots` so concurrent
//! jobs share the machine instead of oversubscribing it. Per-job events
//! (`serve`/`job` with duration, cache disposition, status, and queue
//! depth) flow through the obs layer and surface in `memx report`.

use crate::cli::{ObsFlags, Supervise};
use crate::commands::{self, Output, RunError, Workload};
use loopir::parse::parse_kernel;
use memexplore::obs::{parse_json, push_json_str, Json};
use memexplore::{CacheKey, FieldValue, Lookup, Objective, Obs, ResultCache, TraceWorkload};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Version tag mixed into every cache key: bump it whenever the canonical
/// job rendering or the response byte format changes, so stale entries
/// from an older daemon can never be (mis)interpreted by a newer one.
const KEY_SCHEMA: &str = "memx-serve-job-v1";

/// Read timeout on accepted connections — a stalled client cannot pin a
/// handler thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Largest accepted request body (16 MiB leaves room for very large
/// generated kernels while bounding a hostile Content-Length).
const MAX_BODY: usize = 16 << 20;

// ---------------------------------------------------------------------------
// Job specification
// ---------------------------------------------------------------------------

/// The job kinds the daemon runs — the three sweep commands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobKind {
    /// Exhaustive paper-grid sweep (`memx explore`).
    Explore,
    /// Three-objective Pareto frontier (`memx pareto`).
    Pareto,
    /// Certified bound-guided search (`memx search`).
    Search,
    /// One shard of a distributed sweep: evaluate `[start, end)` of the
    /// workload's grid and answer with the checkpoint wire bytes
    /// (hex-encoded in `stdout`) plus quarantine lines (`stderr`). The
    /// `memx sweep --attach` coordinator is the client.
    Shard,
}

impl JobKind {
    fn as_str(self) -> &'static str {
        match self {
            JobKind::Explore => "explore",
            JobKind::Pareto => "pareto",
            JobKind::Search => "search",
            JobKind::Shard => "shard",
        }
    }
}

/// A fully validated job request. Defaults mirror the offline CLI, so a
/// request that only sets `command` and `kernel` behaves exactly like
/// `memx <command> KERNEL.mx` (and `trace` like `memx <command> TRACE.din`).
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Which sweep to run.
    pub kind: JobKind,
    /// The workload (inline kernel or inline trace).
    pub input: Workload,
    /// Off-chip part keyword (`cy7c`, `lp2m`, `16m`).
    pub part: String,
    /// Custom `Em` (nJ/access) overriding `part`.
    pub em_nj: Option<f64>,
    /// Natural (unoptimized) layout.
    pub natural: bool,
    /// Per-job deadline in seconds (not part of the cache key).
    pub deadline_secs: Option<f64>,
    /// explore: analytical miss-rate model.
    pub analytical: bool,
    /// explore: cycle bound for the min-energy selection.
    pub bound_cycles: Option<f64>,
    /// explore: energy bound for the min-time selection.
    pub bound_energy: Option<f64>,
    /// explore: print the Pareto frontier.
    pub pareto: bool,
    /// explore/pareto: simulation engine (`fused` or `per-design`).
    pub engine: String,
    /// pareto: `csv`/`json`; search: `text`/`csv`/`json`.
    pub format: String,
    /// pareto: exhaustive instead of pruned.
    pub exhaustive: bool,
    /// search: objective to minimize.
    pub objective: Objective,
    /// search: `paper` or `expansive` grid.
    pub space: String,
    /// search: beam width.
    pub beam: Option<usize>,
    /// search: relative gap target.
    pub gap: f64,
    /// shard: first grid index of the slice (inclusive).
    pub shard_start: usize,
    /// shard: one past the last grid index of the slice.
    pub shard_end: usize,
}

/// A rejected job request — one line, reported as HTTP 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for BadRequest {}

fn bad(msg: impl Into<String>) -> BadRequest {
    BadRequest(msg.into())
}

fn field_f64(v: &Json, key: &str) -> Result<f64, BadRequest> {
    v.as_f64()
        .ok_or_else(|| bad(format!("field `{key}` must be a number")))
}

fn field_bool(v: &Json, key: &str) -> Result<bool, BadRequest> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(bad(format!("field `{key}` must be a boolean"))),
    }
}

fn field_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, BadRequest> {
    v.as_str()
        .ok_or_else(|| bad(format!("field `{key}` must be a string")))
}

fn field_keyword<'a>(v: &'a Json, key: &str, allowed: &[&str]) -> Result<&'a str, BadRequest> {
    let s = field_str(v, key)?;
    if !allowed.contains(&s) {
        return Err(bad(format!(
            "unknown {key} `{s}` (expected {})",
            allowed.join(", ")
        )));
    }
    Ok(s)
}

impl JobSpec {
    /// Parses and validates a `POST /v1/jobs` body. Every key is checked
    /// against the allowlist for its job kind; anything else is an error,
    /// never a silent default.
    pub fn from_json(body: &Json) -> Result<JobSpec, BadRequest> {
        let Json::Obj(pairs) = body else {
            return Err(bad("request body must be a JSON object"));
        };
        let kind = match body.get("command") {
            None => return Err(bad("missing field `command`")),
            Some(v) => match field_str(v, "command")? {
                "explore" => JobKind::Explore,
                "pareto" => JobKind::Pareto,
                "search" => JobKind::Search,
                "shard" => JobKind::Shard,
                other => {
                    return Err(bad(format!(
                        "unknown command `{other}` (expected explore, pareto, search, or shard)"
                    )))
                }
            },
        };
        let input = match (body.get("kernel"), body.get("trace")) {
            (Some(_), Some(_)) => {
                return Err(bad("fields `kernel` and `trace` are mutually exclusive"))
            }
            (None, None) => return Err(bad(
                "missing workload: set `kernel` (inline .mx text) or `trace` (inline .din text)",
            )),
            (Some(v), None) => {
                let text = field_str(v, "kernel")?;
                Workload::Kernel(parse_kernel(text).map_err(|e| bad(format!("bad kernel: {e}")))?)
            }
            (None, Some(v)) => {
                let text = field_str(v, "trace")?.to_string();
                Workload::Trace(
                    TraceWorkload::from_text("inline.din", text)
                        .map_err(|e| bad(format!("bad trace: {e}")))?,
                )
            }
        };
        let is_trace = matches!(input, Workload::Trace(_));

        let mut spec = JobSpec {
            kind,
            input,
            part: "cy7c".to_string(),
            em_nj: None,
            natural: false,
            deadline_secs: None,
            analytical: false,
            bound_cycles: None,
            bound_energy: None,
            pareto: false,
            engine: "fused".to_string(),
            format: if kind == JobKind::Search {
                "text".to_string()
            } else {
                "csv".to_string()
            },
            exhaustive: false,
            objective: Objective::Energy,
            space: "paper".to_string(),
            beam: None,
            gap: 0.0,
            shard_start: 0,
            shard_end: 0,
        };
        for (key, value) in pairs {
            let known = match key.as_str() {
                "command" | "kernel" | "trace" => true,
                // Kernel-shaped knobs are rejected outright for trace
                // jobs: a streamed `.din` sweep has one engine, no
                // analytical model, and sweeps the fixed trace grid
                // exhaustively, so accepting these would silently lie.
                "engine" | "analytical" | "exhaustive" | "space" | "beam" | "gap" if is_trace => {
                    return Err(bad(format!(
                        "field `{key}` needs a kernel workload (a streamed `.din` trace \
                         sweeps the fixed trace grid)"
                    )));
                }
                "part" => {
                    spec.part = field_keyword(value, "part", &["cy7c", "lp2m", "16m"])?.to_string();
                    true
                }
                "em_nj" => {
                    let em = field_f64(value, "em_nj")?;
                    if !em.is_finite() || em <= 0.0 {
                        return Err(bad("field `em_nj` must be a positive number"));
                    }
                    spec.em_nj = Some(em);
                    true
                }
                "natural" => {
                    spec.natural = field_bool(value, "natural")?;
                    true
                }
                // A deadline would truncate the shard's result stream,
                // and the coordinator would silently merge a partial
                // sweep — so it is a typed error, never ignored.
                "deadline_secs" if kind == JobKind::Shard => {
                    return Err(bad("field `deadline_secs` does not apply to shard jobs \
                         (a partial shard would corrupt the merged sweep)"));
                }
                "start" | "end" if kind == JobKind::Shard => {
                    let n = value.as_u64().ok_or_else(|| {
                        bad(format!("field `{key}` must be a non-negative integer"))
                    })? as usize;
                    if key == "start" {
                        spec.shard_start = n;
                    } else {
                        spec.shard_end = n;
                    }
                    true
                }
                "deadline_secs" => {
                    let d = field_f64(value, "deadline_secs")?;
                    if !d.is_finite() || d <= 0.0 {
                        return Err(bad("field `deadline_secs` must be a positive number"));
                    }
                    spec.deadline_secs = Some(d);
                    true
                }
                "analytical" if kind == JobKind::Explore => {
                    spec.analytical = field_bool(value, "analytical")?;
                    true
                }
                "bound_cycles" if kind == JobKind::Explore => {
                    spec.bound_cycles = Some(field_f64(value, "bound_cycles")?);
                    true
                }
                "bound_energy" if kind == JobKind::Explore => {
                    spec.bound_energy = Some(field_f64(value, "bound_energy")?);
                    true
                }
                "pareto" if kind == JobKind::Explore => {
                    spec.pareto = field_bool(value, "pareto")?;
                    true
                }
                "engine" if kind != JobKind::Search => {
                    spec.engine =
                        field_keyword(value, "engine", &["fused", "per-design"])?.to_string();
                    true
                }
                "format" if kind == JobKind::Pareto => {
                    spec.format = field_keyword(value, "format", &["csv", "json"])?.to_string();
                    true
                }
                "format" if kind == JobKind::Search => {
                    spec.format =
                        field_keyword(value, "format", &["text", "csv", "json"])?.to_string();
                    true
                }
                "exhaustive" if kind == JobKind::Pareto => {
                    spec.exhaustive = field_bool(value, "exhaustive")?;
                    true
                }
                "objective" if kind == JobKind::Search => {
                    spec.objective = field_str(value, "objective")?.parse().map_err(bad)?;
                    true
                }
                "space" if kind == JobKind::Search => {
                    spec.space =
                        field_keyword(value, "space", &["paper", "expansive"])?.to_string();
                    true
                }
                "beam" if kind == JobKind::Search => {
                    let b = value
                        .as_u64()
                        .filter(|&b| b >= 1)
                        .ok_or_else(|| bad("field `beam` must be a positive integer"))?;
                    spec.beam = Some(b as usize);
                    true
                }
                "gap" if kind == JobKind::Search => {
                    let g = field_f64(value, "gap")?;
                    if !g.is_finite() || g < 0.0 {
                        return Err(bad("field `gap` must be a finite non-negative fraction"));
                    }
                    spec.gap = g;
                    true
                }
                _ => false,
            };
            if !known {
                return Err(bad(format!(
                    "unknown field `{key}` for command `{}`",
                    kind.as_str()
                )));
            }
        }
        if kind == JobKind::Shard && spec.shard_end <= spec.shard_start {
            return Err(bad(
                "shard jobs need a non-empty range: `start` < `end` (grid indices)",
            ));
        }
        Ok(spec)
    }

    /// The content address of this job: a 128-bit FNV-1a hash over the
    /// canonical rendering. Canonical means (a) the *parsed* kernel's
    /// `Display` (so formatting/comments in the request text are erased)
    /// — or, for trace jobs, the streaming fingerprint plus event count
    /// (so two spellings of the same recorded events share an entry), (b)
    /// every knob present with its resolved value (so explicit defaults
    /// hash like omitted ones), (c) floats as IEEE bit patterns (so `0.5`
    /// and `5e-1` agree), and (d) only fields that affect the result
    /// bytes — `deadline_secs` is excluded because cancelled results are
    /// never cached.
    pub fn cache_key(&self) -> CacheKey {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        let _ = write!(s, "{KEY_SCHEMA}\0command={}\0", self.kind.as_str());
        match &self.input {
            Workload::Kernel(kernel) => {
                let _ = write!(s, "kernel={kernel}\0");
            }
            Workload::Trace(workload) => {
                let _ = write!(
                    s,
                    "trace={}:{}\0",
                    workload.fingerprint().to_hex(),
                    workload.events()
                );
            }
        }
        let _ = write!(s, "part={}\0", self.part);
        let _ = write!(
            s,
            "em={}\0",
            self.em_nj
                .map_or("-".to_string(), |v| format!("{:016x}", v.to_bits()))
        );
        let _ = write!(s, "natural={}\0", u8::from(self.natural));
        match self.kind {
            JobKind::Explore => {
                let _ = write!(s, "engine={}\0", self.engine);
                let _ = write!(s, "analytical={}\0", u8::from(self.analytical));
                let _ = write!(
                    s,
                    "bound_cycles={}\0",
                    self.bound_cycles
                        .map_or("-".to_string(), |v| format!("{:016x}", v.to_bits()))
                );
                let _ = write!(
                    s,
                    "bound_energy={}\0",
                    self.bound_energy
                        .map_or("-".to_string(), |v| format!("{:016x}", v.to_bits()))
                );
                let _ = write!(s, "pareto={}\0", u8::from(self.pareto));
            }
            JobKind::Pareto => {
                let _ = write!(s, "engine={}\0", self.engine);
                let _ = write!(s, "format={}\0", self.format);
                let _ = write!(s, "exhaustive={}\0", u8::from(self.exhaustive));
            }
            JobKind::Search => {
                let _ = write!(s, "objective={}\0", self.objective);
                let _ = write!(s, "space={}\0", self.space);
                let _ = write!(
                    s,
                    "beam={}\0",
                    self.beam.map_or("-".to_string(), |b| b.to_string())
                );
                let _ = write!(s, "gap={:016x}\0", self.gap.to_bits());
                let _ = write!(s, "format={}\0", self.format);
            }
            JobKind::Shard => {
                let _ = write!(s, "engine={}\0", self.engine);
                let _ = write!(s, "start={}\0", self.shard_start);
                let _ = write!(s, "end={}\0", self.shard_end);
            }
        }
        CacheKey::from_canonical(s.as_bytes())
    }
}

// ---------------------------------------------------------------------------
// Fair admission gate
// ---------------------------------------------------------------------------

struct GateState {
    /// Next ticket to hand out.
    tail: u64,
    /// Lowest ticket not yet admitted.
    head: u64,
    /// Jobs currently holding a slot.
    active: usize,
}

/// Ticket-FIFO admission with `slots` concurrent holders: jobs are
/// admitted strictly in arrival order (no barging — a heavyweight
/// expansive-space job cannot be starved by a stream of cheap ones), at
/// most `slots` at a time.
pub struct FairGate {
    state: Mutex<GateState>,
    cv: Condvar,
    slots: usize,
}

impl FairGate {
    /// A gate with `slots` concurrent slots (clamped to ≥ 1).
    pub fn new(slots: usize) -> Self {
        FairGate {
            state: Mutex::new(GateState {
                tail: 0,
                head: 0,
                active: 0,
            }),
            cv: Condvar::new(),
            slots: slots.max(1),
        }
    }

    /// Blocks until this caller's ticket is first in line *and* a slot is
    /// free. Returns the queue depth observed at enqueue time (jobs that
    /// were waiting ahead of this one).
    pub fn acquire(&self) -> u64 {
        let mut st = self.state.lock().unwrap();
        let ticket = st.tail;
        st.tail += 1;
        let depth = ticket - st.head;
        while !(st.head == ticket && st.active < self.slots) {
            st = self.cv.wait(st).unwrap();
        }
        st.head += 1;
        st.active += 1;
        depth
    }

    /// Releases a slot (pairs with one [`FairGate::acquire`]).
    pub fn release(&self) {
        let mut st = self.state.lock().unwrap();
        st.active -= 1;
        drop(st);
        self.cv.notify_all();
    }

    /// `(waiting, active)` snapshot.
    pub fn depth(&self) -> (u64, usize) {
        let st = self.state.lock().unwrap();
        (st.tail - st.head, st.active)
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// `memx serve` configuration.
pub struct ServeConfig {
    /// Listen address (`HOST:PORT`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Concurrent job slots (0 = one per available core).
    pub slots: usize,
    /// Result-cache bound, entries.
    pub cache_entries: usize,
    /// Result-cache bound, bytes.
    pub cache_bytes: usize,
    /// Deadline for jobs that do not set one (`None` = unbounded).
    pub default_deadline: Option<f64>,
    /// Route eligible explore jobs through the shard coordinator onto
    /// this many in-process workers (0/1 = undistributed).
    pub distribute: usize,
    /// Observability hub for per-job events (`None` = off).
    pub obs: Option<Arc<Obs>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            slots: 0,
            cache_entries: 256,
            cache_bytes: 64 << 20,
            default_deadline: None,
            distribute: 0,
            obs: None,
        }
    }
}

struct ServerShared {
    cache: ResultCache,
    gate: FairGate,
    obs: Option<Arc<Obs>>,
    shutdown: Arc<AtomicBool>,
    jobs: AtomicU64,
    /// Worker threads each admitted job may use, sized so `slots`
    /// concurrent jobs share the cores instead of oversubscribing.
    workers_per_job: usize,
    default_deadline: Option<f64>,
    /// In-process shard workers for eligible explore jobs (0/1 = off).
    distribute: usize,
}

/// A running daemon. Dropping the handle does NOT stop it; call
/// [`Server::request_shutdown`] then [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the accept loop. Returns once the
    /// socket is live — jobs can be submitted immediately.
    ///
    /// # Errors
    ///
    /// Propagates the bind error (address in use, bad host, …).
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let slots = if config.slots == 0 {
            cores
        } else {
            config.slots
        };
        let shared = Arc::new(ServerShared {
            cache: ResultCache::new(config.cache_entries, config.cache_bytes),
            gate: FairGate::new(slots),
            obs: config.obs,
            shutdown: Arc::new(AtomicBool::new(false)),
            jobs: AtomicU64::new(0),
            workers_per_job: (cores / slots).max(1),
            default_deadline: config.default_deadline,
            distribute: config.distribute,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The result cache (tests use this to force evictions).
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// Jobs completed so far (any disposition).
    pub fn jobs_done(&self) -> u64 {
        self.shared.jobs.load(Ordering::Relaxed)
    }

    /// Asks the accept loop to stop after in-flight requests drain.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once the accept loop has exited.
    pub fn is_stopped(&self) -> bool {
        self.accept_thread.as_ref().is_none_or(|h| h.is_finished())
    }

    /// Waits for the accept loop (and its in-flight requests) to finish.
    pub fn join(mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(&shared);
                handlers.push(std::thread::spawn(move || {
                    let _ = handle_connection(stream, &conn_shared);
                }));
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Graceful drain: finish requests that were already accepted.
    for h in handlers {
        let _ = h.join();
    }
    if let Some(obs) = &shared.obs {
        obs.finish();
    }
}

// ---------------------------------------------------------------------------
// HTTP plumbing (std-only, HTTP/1.1, one request per connection)
// ---------------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    }
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

fn write_response(
    stream: &mut TcpStream,
    code: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_text(code),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

fn error_body(code: u16, message: &str) -> Vec<u8> {
    let mut s = String::from("{\"status\":\"error\",\"code\":");
    s.push_str(&code.to_string());
    s.push_str(",\"error\":");
    push_json_str(&mut s, message);
    s.push_str("}\n");
    s.into_bytes()
}

fn handle_connection(mut stream: TcpStream, shared: &ServerShared) -> io::Result<()> {
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let body = error_body(400, &format!("malformed request: {e}"));
            return write_response(&mut stream, 400, &[], &body);
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/health") => {
            let run_id = shared.obs.as_deref().map_or("-", |o| o.run_id());
            let mut body = String::from("{\"status\":\"ok\",\"run\":");
            push_json_str(&mut body, run_id);
            body.push_str("}\n");
            write_response(&mut stream, 200, &[], body.as_bytes())
        }
        ("GET", "/v1/stats") => {
            let body = stats_json(shared);
            write_response(&mut stream, 200, &[], body.as_bytes())
        }
        ("POST", "/v1/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            write_response(&mut stream, 200, &[], b"{\"status\":\"shutting-down\"}\n")
        }
        ("POST", "/v1/jobs") => handle_job(&mut stream, shared, &request.body),
        (_, "/v1/jobs") | (_, "/v1/health") | (_, "/v1/stats") | (_, "/v1/shutdown") => {
            let body = error_body(405, &format!("method {} not allowed", request.method));
            write_response(&mut stream, 405, &[], &body)
        }
        (_, path) => {
            let body = error_body(404, &format!("no such endpoint `{path}`"));
            write_response(&mut stream, 404, &[], &body)
        }
    }
}

fn stats_json(shared: &ServerShared) -> String {
    let st = shared.cache.stats();
    let (waiting, active) = shared.gate.depth();
    format!(
        concat!(
            "{{\"jobs\":{},\"active\":{},\"queue_depth\":{},",
            "\"cache\":{{\"hits\":{},\"misses\":{},\"joins\":{},\"evictions\":{},",
            "\"abandoned\":{},\"entries\":{},\"bytes\":{}}}}}\n"
        ),
        shared.jobs.load(Ordering::Relaxed),
        active,
        waiting,
        st.hits,
        st.misses,
        st.joins,
        st.evictions,
        st.abandoned,
        st.entries,
        st.bytes,
    )
}

// ---------------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------------

/// Renders the response body for a finished job. This is the byte string
/// the cache stores, so hit and miss responses are identical by
/// construction; fixed key order keeps it deterministic.
fn job_body(status: &str, key: CacheKey, spec_kind: JobKind, output: &Output) -> Vec<u8> {
    let mut s = String::with_capacity(output.stdout.len() + output.stderr.len() + 128);
    s.push_str("{\"status\":");
    push_json_str(&mut s, status);
    s.push_str(",\"command\":");
    push_json_str(&mut s, spec_kind.as_str());
    s.push_str(",\"key\":");
    push_json_str(&mut s, &key.to_hex());
    s.push_str(",\"stdout\":");
    push_json_str(&mut s, &output.stdout);
    s.push_str(",\"stderr\":");
    push_json_str(&mut s, &output.stderr);
    s.push_str("}\n");
    s.into_bytes()
}

/// Renders a shard job's output: checkpoint wire bytes hex-encoded on
/// stdout (one line), quarantine lines on stderr.
fn shard_output(result: (Vec<u8>, Vec<(usize, String)>)) -> (Output, bool) {
    use std::fmt::Write as _;
    let (bytes, quarantined) = result;
    let mut stdout = crate::sweep::hex_encode(&bytes);
    stdout.push('\n');
    let mut stderr = String::new();
    for (idx, message) in &quarantined {
        let _ = writeln!(stderr, "quarantine {idx} {message}");
    }
    (Output { stdout, stderr }, false)
}

/// Runs one job on the sweep engines. Returns the command output plus the
/// partial flag (deadline reached or a design quarantined → uncacheable).
fn run_job(spec: &JobSpec, workers: usize, distribute: usize) -> Result<(Output, bool), RunError> {
    let evaluator = commands::make_evaluator(&spec.part, spec.em_nj, spec.natural);
    let supervise = Supervise {
        deadline_secs: spec.deadline_secs,
        ..Supervise::default()
    };
    let obs_flags = ObsFlags::default();
    match (&spec.input, spec.kind) {
        // `--distribute N` routes eligible explore jobs through the shard
        // coordinator; analytical jobs never sweep, and deadline jobs
        // need the supervisor's cooperative cancellation, so both keep
        // the undistributed path.
        (input @ Workload::Kernel(_), JobKind::Explore)
            if distribute >= 2 && !spec.analytical && spec.deadline_secs.is_none() =>
        {
            crate::sweep::explore_sharded(
                input,
                &evaluator,
                &spec.engine,
                workers,
                distribute,
                spec.bound_cycles,
                spec.bound_energy,
                spec.pareto,
            )
        }
        (input, JobKind::Shard) => crate::sweep::shard_bytes(
            input,
            &evaluator,
            &spec.engine,
            workers,
            spec.shard_start,
            spec.shard_end,
        )
        .map(shard_output),
        (input, JobKind::Explore) => commands::explore(
            input,
            evaluator,
            spec.analytical,
            spec.bound_cycles,
            spec.bound_energy,
            spec.pareto,
            false,
            &spec.engine,
            true,
            &supervise,
            &obs_flags,
            Some(workers),
        ),
        (input, JobKind::Pareto) => commands::pareto(
            input,
            evaluator,
            &spec.format,
            spec.exhaustive,
            false,
            &spec.engine,
            true,
            &supervise,
            &obs_flags,
            Some(workers),
        ),
        (Workload::Kernel(kernel), JobKind::Search) => commands::search(
            kernel,
            evaluator,
            spec.objective,
            &spec.space,
            spec.beam,
            spec.gap,
            spec.deadline_secs,
            &spec.format,
            false,
            true,
            &obs_flags,
            Some(workers),
        ),
        (input @ Workload::Trace(_), JobKind::Search) => commands::search_trace(
            input,
            evaluator,
            spec.objective,
            spec.beam,
            spec.deadline_secs,
            &spec.format,
            false,
            true,
            &obs_flags,
            Some(workers),
        ),
    }
}

fn handle_job(stream: &mut TcpStream, shared: &ServerShared, body: &[u8]) -> io::Result<()> {
    let started = Instant::now();
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            let b = error_body(400, "request body is not UTF-8");
            return write_response(stream, 400, &[], &b);
        }
    };
    let json = match parse_json(text) {
        Ok(j) => j,
        Err(e) => {
            let b = error_body(400, &format!("malformed JSON: {e}"));
            return write_response(stream, 400, &[], &b);
        }
    };
    let mut spec = match JobSpec::from_json(&json) {
        Ok(s) => s,
        Err(e) => {
            let b = error_body(400, &e.0);
            return write_response(stream, 400, &[], &b);
        }
    };
    if spec.deadline_secs.is_none() {
        spec.deadline_secs = shared.default_deadline;
    }
    let key = spec.cache_key();
    let key_hex = key.to_hex();

    // Single-flight lookup: a hit (resident or coalesced onto a concurrent
    // leader) answers without touching the gate or the sweep pool.
    let (disposition, code, status, response) = match shared.cache.lookup(key) {
        Lookup::Hit { value, coalesced } => {
            let disposition = if coalesced { "join" } else { "hit" };
            (disposition, 200u16, "complete", (*value).clone())
        }
        Lookup::Miss(flight) => {
            // Leader: fair-FIFO admission, then simulate.
            let queue_depth = shared.gate.acquire();
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_job(&spec, shared.workers_per_job, shared.distribute)
            }));
            shared.gate.release();
            match result {
                Ok(Ok((output, partial))) => {
                    // Any partial result (deadline or quarantine) reports
                    // the `cancelled` status.
                    let status = if partial { "cancelled" } else { "complete" };
                    let bytes = job_body(status, key, spec.kind, &output);
                    // Only completed results are cacheable; a partial job
                    // still answers its waiters with the partial bytes but
                    // is re-simulated next time.
                    flight.fulfill(Arc::new(bytes.clone()), !partial);
                    record_job(shared, &spec, started, "miss", status, queue_depth, 200);
                    let headers = [
                        ("X-Memx-Cache", "miss"),
                        ("X-Memx-Key", key_hex.as_str()),
                        ("X-Memx-Status", status),
                    ];
                    return write_response(stream, 200, &headers, &bytes);
                }
                Ok(Err(err)) => {
                    // Runtime failure (e.g. infeasible grid): typed 422.
                    // Invalid cache geometry is the client's fault: 400.
                    // I/O failures cannot normally happen (inputs are
                    // inline), so anything of that class is a 500.
                    let code = match &err {
                        RunError::Io(_) => 500,
                        RunError::Geometry(_) | RunError::Bounds(_) => 400,
                        RunError::Other(_) => 422,
                    };
                    drop(flight); // abandon: waiters retry, nothing cached
                    let b = error_body(code, &err.to_string());
                    record_job(shared, &spec, started, "miss", "error", queue_depth, code);
                    let headers = [
                        ("X-Memx-Cache", "miss"),
                        ("X-Memx-Key", key_hex.as_str()),
                        ("X-Memx-Status", "error"),
                    ];
                    return write_response(stream, code, &headers, &b);
                }
                Err(panic) => {
                    let msg = panic_message(&panic);
                    drop(flight);
                    let b = error_body(500, &format!("job panicked: {msg}"));
                    record_job(shared, &spec, started, "miss", "panic", queue_depth, 500);
                    let headers = [
                        ("X-Memx-Cache", "miss"),
                        ("X-Memx-Key", key_hex.as_str()),
                        ("X-Memx-Status", "panic"),
                    ];
                    return write_response(stream, 500, &headers, &b);
                }
            }
        }
    };
    record_job(shared, &spec, started, disposition, status, 0, code);
    let headers = [
        ("X-Memx-Cache", disposition),
        ("X-Memx-Key", key_hex.as_str()),
        ("X-Memx-Status", status),
    ];
    write_response(stream, code, &headers, &response)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Emits the per-job observability event and bumps the job counter.
fn record_job(
    shared: &ServerShared,
    spec: &JobSpec,
    started: Instant,
    cache: &str,
    status: &str,
    queue_depth: u64,
    http: u16,
) {
    shared.jobs.fetch_add(1, Ordering::Relaxed);
    if let Some(obs) = &shared.obs {
        let dur = started.elapsed();
        obs.point(
            "serve",
            "job",
            &[
                (
                    "dur_us",
                    FieldValue::U64(u64::try_from(dur.as_micros()).unwrap_or(u64::MAX)),
                ),
                ("command", FieldValue::Str(spec.kind.as_str().to_string())),
                ("key", FieldValue::Str(spec.cache_key().to_hex())),
                ("cache", FieldValue::Str(cache.to_string())),
                ("status", FieldValue::Str(status.to_string())),
                ("queue_depth", FieldValue::U64(queue_depth)),
                ("http", FieldValue::U64(u64::from(http))),
            ],
        );
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A parsed HTTP response from the daemon.
pub struct HttpResponse {
    /// Status code (200, 400, …).
    pub code: u16,
    /// Lower-cased header map.
    pub headers: HashMap<String, String>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

/// One-shot HTTP request over a fresh connection — the tiny client used
/// by `memx submit`, the test battery, and the bench harness.
///
/// # Errors
///
/// Any transport failure (connect, write, read, malformed status line).
pub fn http_request(addr: &str, method: &str, path: &str, body: &[u8]) -> io::Result<HttpResponse> {
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "bad address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line: {status_line:?}"),
            )
        })?;
    let mut headers = HashMap::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.insert(name, value);
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    Ok(HttpResponse {
        code,
        headers,
        body,
    })
}

/// Polls `GET /v1/health` until the daemon answers 200 or the budget runs
/// out. Used by `memx submit --wait-health` and the CI smoke job to avoid
/// racing the daemon's startup.
pub fn wait_health(addr: &str, budget: Duration) -> bool {
    let deadline = Instant::now() + budget;
    loop {
        if let Ok(r) = http_request(addr, "GET", "/v1/health", b"") {
            if r.code == 200 {
                return true;
            }
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

// ---------------------------------------------------------------------------
// Signals (binary path only)
// ---------------------------------------------------------------------------

static SIGNAL_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SIGNAL_FLAG.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that request a graceful shutdown.
/// Called only from the `memx serve` binary path — the in-process
/// [`Server`] used by tests never touches process-wide signal state.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `signal` with an async-signal-safe handler (one relaxed
    // atomic store) is the POSIX-sanctioned std-only way to observe
    // SIGTERM (15) and SIGINT (2).
    unsafe {
        signal(15, on_signal);
        signal(2, on_signal);
    }
}

/// True once SIGTERM or SIGINT has been delivered.
pub fn signal_received() -> bool {
    SIGNAL_FLAG.load(Ordering::SeqCst)
}

// ---------------------------------------------------------------------------
// memx submit
// ---------------------------------------------------------------------------

/// The `memx submit` request, mirroring the `Command::Submit` CLI flags.
pub struct SubmitRequest {
    /// Daemon address (`HOST:PORT`).
    pub addr: String,
    /// Workload file path (read locally, sent inline): `.mx` kernel
    /// text, or a `.din` trace submitted as a streamed trace job.
    pub file: String,
    /// Job kind keyword (`explore`, `pareto`, `search`).
    pub job: String,
    /// Off-chip part keyword.
    pub part: String,
    /// Custom `Em` (nJ/access).
    pub em_nj: Option<f64>,
    /// Natural layout.
    pub natural: bool,
    /// explore: analytical model.
    pub analytical: bool,
    /// explore: cycle bound.
    pub bound_cycles: Option<f64>,
    /// explore: energy bound.
    pub bound_energy: Option<f64>,
    /// explore: print the frontier.
    pub pareto: bool,
    /// Simulation engine keyword.
    pub engine: String,
    /// Output format (pareto/search).
    pub format: Option<String>,
    /// pareto: exhaustive sweep.
    pub exhaustive: bool,
    /// search: objective.
    pub objective: Option<Objective>,
    /// search: grid keyword.
    pub space: String,
    /// search: beam width.
    pub beam: Option<usize>,
    /// search: gap target.
    pub gap: f64,
    /// Per-job deadline.
    pub deadline_secs: Option<f64>,
    /// Poll health for up to this many seconds before submitting.
    pub wait_health_secs: Option<f64>,
    /// Retry transient transport failures this many times (`--retries`).
    pub retries: u32,
    /// Base backoff between retries, milliseconds (`--backoff`);
    /// exponential with deterministic jitter.
    pub backoff_ms: u64,
}

impl SubmitRequest {
    /// Renders the `POST /v1/jobs` body. Only non-default knobs are sent,
    /// so a flag that does not apply to the chosen job kind surfaces as
    /// the daemon's typed 400 instead of being silently dropped.
    /// `workload_key` is `"kernel"` for `.mx` files and `"trace"` for
    /// `.din` files.
    fn body(&self, workload_key: &str, workload_text: &str) -> String {
        let mut b = String::from("{\"command\":");
        push_json_str(&mut b, &self.job);
        b.push_str(",\"");
        b.push_str(workload_key);
        b.push_str("\":");
        push_json_str(&mut b, workload_text);
        if self.part != "cy7c" {
            b.push_str(",\"part\":");
            push_json_str(&mut b, &self.part);
        }
        if let Some(em) = self.em_nj {
            let _ = std::fmt::Write::write_fmt(&mut b, format_args!(",\"em_nj\":{em}"));
        }
        if self.natural {
            b.push_str(",\"natural\":true");
        }
        if self.analytical {
            b.push_str(",\"analytical\":true");
        }
        if let Some(v) = self.bound_cycles {
            let _ = std::fmt::Write::write_fmt(&mut b, format_args!(",\"bound_cycles\":{v}"));
        }
        if let Some(v) = self.bound_energy {
            let _ = std::fmt::Write::write_fmt(&mut b, format_args!(",\"bound_energy\":{v}"));
        }
        if self.pareto {
            b.push_str(",\"pareto\":true");
        }
        if self.engine != "fused" {
            b.push_str(",\"engine\":");
            push_json_str(&mut b, &self.engine);
        }
        if let Some(f) = &self.format {
            b.push_str(",\"format\":");
            push_json_str(&mut b, f);
        }
        if self.exhaustive {
            b.push_str(",\"exhaustive\":true");
        }
        if let Some(o) = &self.objective {
            b.push_str(",\"objective\":");
            push_json_str(&mut b, &o.to_string());
        }
        if self.space != "paper" {
            b.push_str(",\"space\":");
            push_json_str(&mut b, &self.space);
        }
        if let Some(n) = self.beam {
            let _ = std::fmt::Write::write_fmt(&mut b, format_args!(",\"beam\":{n}"));
        }
        if self.gap != 0.0 {
            let _ = std::fmt::Write::write_fmt(&mut b, format_args!(",\"gap\":{}", self.gap));
        }
        if let Some(d) = self.deadline_secs {
            let _ = std::fmt::Write::write_fmt(&mut b, format_args!(",\"deadline_secs\":{d}"));
        }
        b.push('}');
        b
    }
}

/// Runs `memx submit`: reads the kernel, posts the job, and relays the
/// daemon's response following the CLI exit-code contract — transport
/// failures and 400s are exit 2 (bad input / I/O), daemon-side runtime
/// failures (422/500) are exit 1.
///
/// # Errors
///
/// [`RunError`] per the contract above.
pub fn submit(req: &SubmitRequest) -> Result<Output, RunError> {
    let workload_text = std::fs::read_to_string(&req.file)
        .map_err(|e| RunError::Io(format!("cannot read `{}`: {e}", req.file)))?;
    let is_trace = commands::is_din_path(&req.file);
    if !is_trace {
        // Fail on an unparsable kernel locally — no point shipping it.
        parse_kernel(&workload_text).map_err(|e| commands::kernel_error(&req.file, e))?;
    }
    if let Some(budget) = req.wait_health_secs {
        if !wait_health(&req.addr, Duration::from_secs_f64(budget)) {
            return Err(RunError::Io(format!(
                "daemon at {} did not become healthy within {budget} s",
                req.addr
            )));
        }
    }
    let body = req.body(if is_trace { "trace" } else { "kernel" }, &workload_text);
    let mut notes = String::new();
    let response = submit_with_retry(req, body.as_bytes(), &mut notes)?;
    let text = String::from_utf8_lossy(&response.body);
    let json = parse_json(&text)
        .map_err(|e| RunError::Other(format!("malformed daemon response: {e}").into()))?;
    if response.code != 200 {
        let msg = json
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("daemon error")
            .to_string();
        return Err(match response.code {
            400 => RunError::Io(format!("daemon rejected the job: {msg}")),
            code => RunError::Other(format!("job failed ({code}): {msg}").into()),
        });
    }
    let stdout = json
        .get("stdout")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let mut stderr = notes;
    stderr.push_str(
        json.get("stderr")
            .and_then(Json::as_str)
            .unwrap_or_default(),
    );
    let status = json.get("status").and_then(Json::as_str).unwrap_or("?");
    let disposition = response
        .headers
        .get("x-memx-cache")
        .map_or("?", String::as_str);
    let key = json.get("key").and_then(Json::as_str).unwrap_or("?");
    use std::fmt::Write as _;
    let _ = writeln!(
        stderr,
        "note: cache {disposition}, status {status}, key {key}"
    );
    Ok(Output { stdout, stderr })
}

/// True for transport failures worth retrying: the daemon is not up yet,
/// dropped the connection, or the socket timed out. A DNS failure or a
/// refused *response* (HTTP-level error) is not transient.
fn transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

/// Posts the job, retrying transient transport failures up to
/// `req.retries` times with exponential backoff plus deterministic
/// jitter (the same [`memexplore::backoff_delay`] schedule the shard
/// coordinator uses). Each retry leaves a note for the final stderr.
fn submit_with_retry(
    req: &SubmitRequest,
    body: &[u8],
    notes: &mut String,
) -> Result<HttpResponse, RunError> {
    use std::fmt::Write as _;
    let mut attempt: u32 = 0;
    loop {
        match http_request(&req.addr, "POST", "/v1/jobs", body) {
            Ok(response) => return Ok(response),
            Err(e) if attempt < req.retries && transient(&e) => {
                attempt += 1;
                let delay = memexplore::backoff_delay(
                    Duration::from_millis(req.backoff_ms.max(1)),
                    0x6d65_6d78,
                    0,
                    attempt,
                );
                let _ = writeln!(
                    notes,
                    "note: retrying after transport error ({e}); attempt {attempt} of {}, \
                     backoff {} ms",
                    req.retries,
                    delay.as_millis()
                );
                std::thread::sleep(delay);
            }
            Err(e) => {
                return Err(RunError::Io(if attempt > 0 {
                    format!(
                        "cannot reach daemon at {} after {} attempts: {e}",
                        req.addr,
                        attempt + 1
                    )
                } else {
                    format!("cannot reach daemon at {}: {e}", req.addr)
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compress_text() -> String {
        "kernel Compress\narray a[32][32] elem 4\nfor i = 1 .. 31\nfor j = 1 .. 31\n  \
         read a[i][j]\n  read a[i-1][j]\n  read a[i][j-1]\n  read a[i-1][j-1]\n  write a[i][j]\n"
            .to_string()
    }

    fn explore_spec(extra: &str) -> JobSpec {
        let mut body = String::from("{\"command\":\"explore\",\"kernel\":");
        push_json_str(&mut body, &compress_text());
        body.push_str(extra);
        body.push('}');
        JobSpec::from_json(&parse_json(&body).expect("valid JSON")).expect("valid spec")
    }

    #[test]
    fn defaults_hash_like_explicit_defaults() {
        let implicit = explore_spec("");
        let explicit = explore_spec(
            ",\"part\":\"cy7c\",\"natural\":false,\"engine\":\"fused\",\
             \"analytical\":false,\"pareto\":false",
        );
        assert_eq!(implicit.cache_key(), explicit.cache_key());
    }

    #[test]
    fn kernel_formatting_does_not_change_the_key() {
        let a = explore_spec("");
        let mut body = String::from("{\"command\":\"explore\",\"kernel\":");
        // Same kernel, different whitespace and a comment.
        push_json_str(
            &mut body,
            "# compress kernel\nkernel Compress\narray a[32][32] elem 4\nfor i = 1 .. 31\n\
             for j = 1 .. 31\n    read  a[i][j]\n    read a[i-1][j]\n    read a[i][j-1]\n    \
             read a[i-1][j-1]\n    write  a[i][j]\n",
        );
        body.push('}');
        let b = JobSpec::from_json(&parse_json(&body).expect("valid")).expect("valid spec");
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn deadline_is_not_part_of_the_key() {
        let a = explore_spec("");
        let b = explore_spec(",\"deadline_secs\":5.0");
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn each_knob_perturbs_the_key() {
        let base = explore_spec("");
        for extra in [
            ",\"part\":\"lp2m\"",
            ",\"em_nj\":3.5",
            ",\"natural\":true",
            ",\"engine\":\"per-design\"",
            ",\"analytical\":true",
            ",\"bound_cycles\":10000",
            ",\"bound_energy\":50000",
            ",\"pareto\":true",
        ] {
            let varied = explore_spec(extra);
            assert_ne!(base.cache_key(), varied.cache_key(), "{extra}");
        }
    }

    #[test]
    fn commands_never_share_keys() {
        let kernel = compress_text();
        let spec_of = |cmd: &str| {
            let mut body = format!("{{\"command\":\"{cmd}\",\"kernel\":");
            push_json_str(&mut body, &kernel);
            body.push('}');
            JobSpec::from_json(&parse_json(&body).expect("valid")).expect("valid spec")
        };
        let keys = [
            spec_of("explore").cache_key(),
            spec_of("pareto").cache_key(),
            spec_of("search").cache_key(),
        ];
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
    }

    #[test]
    fn unknown_fields_are_rejected_per_command() {
        let mut body = String::from("{\"command\":\"explore\",\"kernel\":");
        push_json_str(&mut body, &compress_text());
        body.push_str(",\"exhaustive\":true}");
        let e = JobSpec::from_json(&parse_json(&body).expect("valid")).expect_err("must reject");
        assert!(e.0.contains("exhaustive"), "{e}");
        // ... and a field that is valid nowhere.
        let mut body = String::from("{\"command\":\"search\",\"kernel\":");
        push_json_str(&mut body, &compress_text());
        body.push_str(",\"turbo\":1}");
        let e = JobSpec::from_json(&parse_json(&body).expect("valid")).expect_err("must reject");
        assert!(e.0.contains("turbo"), "{e}");
    }

    #[test]
    fn missing_command_or_kernel_is_rejected() {
        let e = JobSpec::from_json(&parse_json("{}").expect("valid")).expect_err("no command");
        assert!(e.0.contains("command"), "{e}");
        let e = JobSpec::from_json(&parse_json("{\"command\":\"explore\"}").expect("valid"))
            .expect_err("no kernel");
        assert!(e.0.contains("kernel"), "{e}");
    }

    #[test]
    fn bad_kernel_text_is_rejected() {
        let e = JobSpec::from_json(
            &parse_json("{\"command\":\"explore\",\"kernel\":\"not a kernel\"}").expect("valid"),
        )
        .expect_err("bad kernel");
        assert!(e.0.contains("bad kernel"), "{e}");
    }

    fn trace_spec(cmd: &str, din_text: &str, extra: &str) -> Result<JobSpec, BadRequest> {
        let mut body = format!("{{\"command\":\"{cmd}\",\"trace\":");
        push_json_str(&mut body, din_text);
        body.push_str(extra);
        body.push('}');
        JobSpec::from_json(&parse_json(&body).expect("valid JSON"))
    }

    #[test]
    fn trace_jobs_key_by_content_not_spelling() {
        // Same four events, different address spellings and labels order —
        // the streaming fingerprint erases the text differences.
        let a = trace_spec("explore", "0 0\n1 4\n0 8\n2 c\n", "").expect("valid spec");
        let b = trace_spec("explore", "0 0x0\n1 0x4\n0 08\n2 0xc\n", "").expect("valid spec");
        assert_eq!(a.cache_key(), b.cache_key());
        // A different event stream must change the key.
        let c = trace_spec("explore", "0 0\n1 4\n0 8\n2 10\n", "").expect("valid spec");
        assert_ne!(a.cache_key(), c.cache_key());
        // And the key never collides with any kernel job's.
        assert_ne!(a.cache_key(), explore_spec("").cache_key());
    }

    #[test]
    fn trace_jobs_reject_kernel_shaped_knobs() {
        for (cmd, extra) in [
            ("explore", ",\"analytical\":true"),
            ("explore", ",\"engine\":\"per-design\""),
            ("pareto", ",\"exhaustive\":true"),
            ("search", ",\"space\":\"expansive\""),
            ("search", ",\"beam\":4"),
            ("search", ",\"gap\":0.1"),
        ] {
            let e = trace_spec(cmd, "0 0\n", extra).expect_err("must reject");
            assert!(e.0.contains("needs a kernel workload"), "{cmd}{extra}: {e}");
        }
        // Bounds, part, format, deadline stay valid for trace jobs.
        trace_spec("explore", "0 0\n", ",\"bound_cycles\":100,\"pareto\":true").expect("valid");
        trace_spec(
            "search",
            "0 0\n",
            ",\"objective\":\"cycles\",\"format\":\"json\"",
        )
        .expect("valid");
    }

    #[test]
    fn kernel_and_trace_are_mutually_exclusive() {
        let mut body = String::from("{\"command\":\"explore\",\"kernel\":");
        push_json_str(&mut body, &compress_text());
        body.push_str(",\"trace\":\"0 0\\n\"}");
        let e = JobSpec::from_json(&parse_json(&body).expect("valid")).expect_err("must reject");
        assert!(e.0.contains("mutually exclusive"), "{e}");
        let e = trace_spec("explore", "not a trace", "").expect_err("bad trace");
        assert!(e.0.contains("bad trace"), "{e}");
    }

    #[test]
    fn fair_gate_admits_in_fifo_order() {
        let gate = Arc::new(FairGate::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        // Hold the only slot so the workers below must queue.
        let depth0 = gate.acquire();
        assert_eq!(depth0, 0);
        let mut handles = Vec::new();
        for i in 0..4 {
            let worker_gate = Arc::clone(&gate);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                worker_gate.acquire();
                order.lock().unwrap().push(i);
                worker_gate.release();
            }));
            // Give each thread time to enqueue before the next, so the
            // ticket order matches the spawn order.
            while gate.depth().0 < i + 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        gate.release();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn gate_depth_tracks_waiting_and_active() {
        let gate = FairGate::new(2);
        gate.acquire();
        gate.acquire();
        assert_eq!(gate.depth(), (0, 2));
        gate.release();
        assert_eq!(gate.depth(), (0, 1));
        gate.release();
        assert_eq!(gate.depth(), (0, 0));
    }
}
