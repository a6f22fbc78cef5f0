//! Helpers of the memx benchmark (`run.py` drives them):
//!
//! * `gen-din --seed N --events N --out FILE` writes the seeded hot/cold
//!   `.din` trace of the din-stream workload.
//! * `offline --jobs FILE --dir DIR` runs each `POST /v1/jobs` body of
//!   FILE (one per line) offline through `memx::commands::run` and prints
//!   one JSON line per job with its wall time, stdout and stderr (the
//!   bytes a serve response must carry).
//! * `trace --workload W --dir DIR [--addr HOST:PORT]` is the traced run:
//!   it times calls into each layer's public functions from here, keeps
//!   the spans in memory, writes them to DIR/spans.jsonl at the end and
//!   prints the per-layer metrics it reached as one JSON line.

mod serve;
mod spans;
mod sweep;

use memexplore::obs::{parse_json, push_json_str, Json};
use memexplore::{
    DesignSpace, Evaluator, Explorer, SearchOptions, TraceWorkload, TRACE_BANK_WIDTH,
};
use spans::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use sweep::Counts;

/// Per-layer metrics, by name, of a traced run.
pub type Metrics = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Outcome of a traced run: metrics plus the operations it checked.
pub struct Traced {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen-din") => gen_din(&args),
        Some("offline") => offline(&args),
        Some("trace") => trace(&args),
        _ => Err("usage: perfbench gen-din|offline|trace ...".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// splitmix64: a small seeded generator, so a seed always yields the same
/// trace.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A hot/cold data trace: 7 accesses in 8 go to a 512 B hot region (half
/// of them walking it word by word), the rest to a 64 KiB cold region;
/// one access in four is a store.
fn gen_din(args: &[String]) -> Result<(), String> {
    let seed: u64 = required(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let events: u64 = required(args, "--events")?
        .parse()
        .map_err(|e| format!("--events: {e}"))?;
    let out = required(args, "--out")?;
    let mut rng = Rng(seed ^ 0x6d65_6d78_6469_6e00);
    let hot = 0x1_0000 + 64 * rng.below(64);
    let cold = 0x40_0000 + 4096 * rng.below(256);
    let mut walk = 0u64;
    let mut text = String::with_capacity(events as usize * 10);
    for _ in 0..events {
        let r = rng.next();
        let addr = match r & 7 {
            0 => cold + 4 * ((r >> 8) % (64 << 8)),
            1..=3 => {
                walk = (walk + 4) % 512;
                hot + walk
            }
            _ => hot + 4 * ((r >> 8) % 128),
        };
        let label = u8::from((r >> 40) & 3 == 0);
        let _ = writeln!(text, "{label} {addr:x}");
    }
    std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))
}

/// The `memx` argv that runs a `POST /v1/jobs` body offline, after
/// writing its inline workload into `dir` (as `inline.din` for a trace,
/// the name the daemon gives inline traces).
fn job_argv(body: &Json, dir: &Path) -> Result<Vec<String>, String> {
    let command = body
        .get("command")
        .and_then(Json::as_str)
        .ok_or("job without command")?;
    let (name, text) = match (body.get("kernel"), body.get("trace")) {
        (Some(k), None) => ("kernel.mx", k.as_str().ok_or("kernel is not text")?),
        (None, Some(t)) => ("inline.din", t.as_str().ok_or("trace is not text")?),
        _ => return Err("job needs one of kernel, trace".to_string()),
    };
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(name), text).map_err(|e| e.to_string())?;
    let mut argv = vec![command.to_string(), name.to_string()];
    for (key, value) in match body {
        Json::Obj(pairs) => pairs.as_slice(),
        _ => &[],
    } {
        let flag = match key.as_str() {
            "command" | "kernel" | "trace" => continue,
            "part" => "--part",
            "em_nj" => "--em",
            "space" => "--space",
            other => return Err(format!("job field `{other}` has no offline flag here")),
        };
        let value = match value {
            Json::Str(s) | Json::Num(s) => s.clone(),
            _ => return Err(format!("job field `{key}` is not a string or number")),
        };
        argv.push(flag.to_string());
        argv.push(value);
    }
    Ok(argv)
}

/// Runs one job offline in `dir` (the working directory while it runs, so
/// the trace is named `inline.din` exactly as in the daemon's output).
pub fn run_offline(body: &Json, dir: &Path) -> Result<memx::Output, String> {
    let argv = job_argv(body, dir)?;
    let cmd = memx::parse_args(&argv).map_err(|e| e.to_string())?;
    let back = std::env::current_dir().map_err(|e| e.to_string())?;
    std::env::set_current_dir(dir).map_err(|e| e.to_string())?;
    let out = memx::run(cmd);
    std::env::set_current_dir(back).map_err(|e| e.to_string())?;
    out.map_err(|e| e.to_string())
}

fn offline(args: &[String]) -> Result<(), String> {
    let jobs = required(args, "--jobs")?;
    let dir = PathBuf::from(required(args, "--dir")?);
    let text = std::fs::read_to_string(jobs).map_err(|e| format!("{jobs}: {e}"))?;
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        let body = parse_json(line).map_err(|e| format!("{jobs}:{}: {e}", i + 1))?;
        let start = Instant::now();
        let result = run_offline(&body, &dir.join(format!("job{i}")));
        let _ = write!(
            out,
            "{{\"seconds\":{:e},\"ok\":",
            start.elapsed().as_secs_f64()
        );
        match result {
            Ok(o) => {
                out.push_str("true,\"stdout\":");
                push_json_str(&mut out, &o.stdout);
                out.push_str(",\"stderr\":");
                push_json_str(&mut out, &o.stderr);
            }
            Err(e) => {
                out.push_str("false,\"error\":");
                push_json_str(&mut out, &e);
            }
        }
        out.push_str("}\n");
    }
    print!("{out}");
    Ok(())
}

fn trace(args: &[String]) -> Result<(), String> {
    let workload = required(args, "--workload")?;
    let dir = PathBuf::from(required(args, "--dir")?);
    let mut tr = Tracer::new();
    let traced = match workload {
        "paper-kernels" => trace_kernels(&mut tr, &dir)?,
        "din-stream" => trace_din(&mut tr, &dir)?,
        "serve-mixed" => serve::trace_serve(&mut tr, &dir, required(args, "--addr")?)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let spans_path = dir.join("spans.jsonl");
    std::fs::write(&spans_path, tr.to_jsonl())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let mut metrics = traced.metrics;
    let (wall, remainder) = tr.wall_and_remainder();
    let attributed: f64 = tr
        .self_times(0)
        .iter()
        .filter(|(n, _)| !n.starts_with("trace.") && !n.starts_with("serve."))
        .map(|(_, v)| v)
        .sum();
    eprintln!(
        "traced wall {wall:.6} s = layer self times {attributed:.6} s + unattributed remainder {remainder:.6} s"
    );
    let mut failed = traced.failed;
    if (attributed + remainder - wall).abs() > 1e-6 * wall.max(1.0) {
        eprintln!("error: self times and remainder do not add up to the traced wall time");
        failed += 1;
    }
    metrics.insert("trace.coverage", ratio(attributed, wall));
    // Metrics a workload does not reach are left out; run.py reports them as 0.
    let mut out = format!(
        "{{\"attempted\":{},\"failed\":{},\"metrics\":{{",
        traced.attempted, failed
    );
    for (i, (name, v)) in metrics.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\":{v:e}", if i == 0 { "" } else { "," });
    }
    out.push_str("}}");
    println!("{out}");
    Ok(())
}

/// Sets the metrics derived from span self times and work counts.
fn layer_metrics(m: &mut Metrics, tr: &Tracer, c: &Counts) {
    let s = tr.self_times(0);
    let get = |n: &str| s.get(n).copied().unwrap_or(0.0);
    for (metric, span) in [
        ("core.layout_s", "core.layout"),
        ("analysis.placement_s", "analysis.placement"),
        ("loopir.parse_s", "loopir.parse"),
        ("loopir.tile_s", "loopir.tile"),
        ("loopir.trace_s", "loopir.trace"),
        ("memsim.zarena.encode_s", "memsim.zarena.encode"),
        ("memsim.zarena.decode_s", "memsim.zarena.decode"),
        ("memsim.bank.replay_s", "memsim.bank.replay"),
        ("memsim.source.parse_s", "memsim.source.parse"),
        ("core.evaluate_s", "core.evaluate"),
        ("core.select_s", "core.select"),
    ] {
        m.insert(metric, get(span));
    }
    m.insert("core.layout_calls", c.layout_calls as f64);
    m.insert("loopir.trace_events", c.trace_events as f64);
    m.insert(
        "loopir.trace_events_per_s",
        ratio(c.trace_events as f64, get("loopir.trace")),
    );
    m.insert(
        "memsim.zarena.ratio",
        ratio(c.raw_bytes as f64, c.compressed_bytes as f64),
    );
    m.insert(
        "memsim.bank.design_events_per_s",
        ratio(c.design_events as f64, get("memsim.bank.replay")),
    );
    m.insert(
        "memsim.source.events_per_s",
        ratio(c.source_events as f64, get("memsim.source.parse")),
    );
    m.insert(
        "core.analytic.resolved_ratio",
        ratio(c.analytic_resolved as f64, c.analytic_tried as f64),
    );
}

/// The `minimum energy` / `minimum time` lines of `memx explore INPUT`.
fn explore_lines(input: &Path) -> Result<Vec<String>, String> {
    let argv = vec!["explore".to_string(), input.display().to_string()];
    let out = memx::run(memx::parse_args(&argv).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    Ok(out
        .stdout
        .lines()
        .filter(|l| l.starts_with("minimum "))
        .map(str::to_string)
        .collect())
}

fn check_lines(what: &str, traced: &[String], program: &[String], failed: &mut u64) {
    if traced != program {
        eprintln!(
            "error: {what}: traced selections {traced:?} differ from memx explore {program:?}"
        );
        *failed += 1;
    }
}

fn trace_kernels(tr: &mut Tracer, dir: &Path) -> Result<Traced, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("kernels"))
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mx"))
        .collect();
    files.sort();
    let ev = Evaluator::default();
    let designs = DesignSpace::paper().designs();
    let mut counts = Counts::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut recomposed, mut untraced) = (0.0, 0.0);
    let (mut busy, mut capacity) = (0.0, 0.0);
    let (mut pruned, mut considered) = (0u64, 0u64);
    let (mut simulated, mut candidates, mut expansions) = (0u64, 0u64, 0u64);
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let top = tr.begin("trace.kernel");
        let mark = tr.len();
        let kernel = tr.span("loopir.parse", || loopir::parse_kernel(&text));
        let kernel = kernel.map_err(|e| format!("{}: {e}", path.display()))?;
        let records = sweep::recompose_kernel(tr, &mut counts, &ev, &kernel, &designs);
        let lines = sweep::select_lines(tr, &records);
        tr.end(top);
        recomposed += tr.secs(top);
        let s = tr.self_times(mark);
        let get = |n: &str| s.get(n).copied().unwrap_or(0.0);

        // The program on the same inputs, untraced and on one worker.
        let (program, tel) = Explorer::new(ev.clone())
            .with_workers(1)
            .explore_designs_with_telemetry(&kernel, &designs);
        untraced += tel.total_time.as_secs_f64();
        attempted += 2;
        if program != records {
            eprintln!(
                "error: {}: recomposed records differ from Explorer's",
                kernel.name
            );
            failed += 1;
        }
        check_lines(&kernel.name, &lines, &explore_lines(path)?, &mut failed);
        eprintln!(
            "ledger {:<8} traced: layout {:.4} s, trace {:.4} s, compress {:.4} s, replay {:.4} s | \
             SweepTelemetry: layout {:.4} s, trace {:.4} s, compress {:.4} s, simulate {:.4} s",
            kernel.name,
            get("core.layout") + get("analysis.placement"),
            get("loopir.tile") + get("loopir.trace"),
            get("memsim.zarena.encode"),
            get("memsim.zarena.decode") + get("memsim.bank.replay") + get("core.evaluate"),
            tel.layout_time.as_secs_f64(),
            tel.trace_time.as_secs_f64() + tel.classify_time.as_secs_f64(),
            tel.compress_time.as_secs_f64(),
            tel.simulate_time.as_secs_f64(),
        );

        let explorer = Explorer::new(ev.clone());
        let (_, tel) = tr.span("core.explore", || {
            explorer.explore_designs_with_telemetry(&kernel, &designs)
        });
        busy += tel.worker_busy.iter().map(|d| d.as_secs_f64()).sum::<f64>();
        capacity += tel.simulate_time.as_secs_f64() * tel.workers as f64;
        let (_, tel) = tr.span("core.pareto", || {
            explorer.pareto_pruned(&kernel, &DesignSpace::paper())
        });
        pruned += tel.designs_pruned as u64;
        considered += designs.len() as u64;
        // MatMult's expansive search alone takes longer than a whole run.
        if kernel.name != "MatMult" {
            let outcome = tr.span("core.search", || {
                explorer.search(
                    &kernel,
                    &DesignSpace::expansive(),
                    &SearchOptions::default(),
                )
            });
            simulated += outcome.telemetry.designs_evaluated as u64;
            candidates += outcome.candidates as u64;
            expansions += outcome.expansions;
        }
    }
    let mut m = Metrics::new();
    layer_metrics(&mut m, tr, &counts);
    m.insert(
        "core.pareto.prune_ratio",
        ratio(pruned as f64, considered as f64),
    );
    m.insert(
        "core.search.simulated_ratio",
        ratio(simulated as f64, candidates as f64),
    );
    m.insert("core.search.expansions", expansions as f64);
    m.insert("core.explore.worker_utilization", ratio(busy, capacity));
    m.insert("trace.overhead_s", recomposed - untraced);
    Ok(Traced {
        metrics: m,
        attempted,
        failed,
    })
}

fn trace_din(tr: &mut Tracer, dir: &Path) -> Result<Traced, String> {
    let path = dir.join("trace.din");
    let ev = Evaluator::default();
    let designs = TraceWorkload::design_space().designs();
    let mut counts = Counts::default();
    let workload = tr.span("core.workload", || TraceWorkload::from_path(&path));
    let workload = workload.map_err(|e| e.to_string())?;
    let top = tr.begin("trace.sweep");
    let records = sweep::recompose_din(tr, &mut counts, &ev, &path, &designs, TRACE_BANK_WIDTH);
    let lines = match &records {
        Ok(r) => sweep::select_lines(tr, r),
        Err(_) => Vec::new(),
    };
    tr.end(top);
    let records = records?;

    let (mut attempted, mut failed) = (2u64, 0u64);
    let (program, tel) = Explorer::new(ev.clone())
        .with_workers(1)
        .explore_trace(&workload, &designs)
        .map_err(|e| e.to_string())?;
    if program != records {
        eprintln!("error: recomposed trace records differ from Explorer's");
        failed += 1;
    }
    check_lines("trace", &lines, &explore_lines(&path)?, &mut failed);
    eprintln!(
        "ledger trace traced: parse {:.4} s, replay {:.4} s | SweepTelemetry: simulate {:.4} s",
        tr.self_times(0)
            .get("memsim.source.parse")
            .copied()
            .unwrap_or(0.0),
        tr.self_times(0)
            .get("memsim.bank.replay")
            .copied()
            .unwrap_or(0.0),
        tel.simulate_time.as_secs_f64()
    );
    let overhead = tr.secs(top) - tel.total_time.as_secs_f64();

    let explorer = Explorer::new(ev);
    let result = tr.span("core.explore", || {
        explorer.explore_trace(&workload, &designs)
    });
    let (_, tel) = result.map_err(|e| e.to_string())?;
    attempted += 1;
    let mut m = Metrics::new();
    layer_metrics(&mut m, tr, &counts);
    // One preparation pass (the fingerprint) plus one pass per bank.
    m.insert(
        "core.workload.stream_passes",
        1.0 + ratio(tel.trace_events_scanned as f64, workload.events() as f64),
    );
    m.insert("core.explore.worker_utilization", tel.worker_utilization());
    // `memx search` and `memx pareto` sweep the trace grid exhaustively.
    m.insert(
        "core.search.simulated_ratio",
        ratio(tel.designs_evaluated as f64, designs.len() as f64),
    );
    m.insert("trace.overhead_s", overhead);
    Ok(Traced {
        metrics: m,
        attempted,
        failed,
    })
}
