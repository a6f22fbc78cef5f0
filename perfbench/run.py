#!/usr/bin/env python3
"""The memx benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the release `memx`
binary and the `perfbench` helper, writes the seed's inputs under
perfbench/out/W/seed-N/ (kept, so a failing case reruns with plain `memx`
commands), and prints every metric by name and unit; the last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 times what a user runs, on one CPU: `memx explore|pareto|search`
passes over the workload's inputs, and between those commands a closed
loop of one client sending jobs to a `memx serve` child (classified by
its X-Memx-Cache header).
--trace 1 runs `perfbench trace`, which times calls into each layer's
public functions and reports the per-layer metrics.

Every output is checked after timing: stdout of each command must be
byte-identical across passes and equal to the `--engine per-design`
reference, and every serve reply must equal the offline
`memx::commands::run` bytes of its job. A mismatch counts as failed.
"""

import argparse
import json
import os
import platform
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SETUPS = 3  # set-ups per run; setup_s is their median
# Passes over the offline inputs; each input's time is its median. More
# where an input is shorter or a command has only one input.
PASSES = {"paper-kernels": 3, "din-stream": 4, "serve-mixed": 15}
DIN_EVENTS = 400_000
# paper-kernels' expansive searches: the two cheapest, so that three passes
# fit a run (on one CPU the other five take ~10 s a pass, MatMult over 30 s).
SEARCHED = ("dequant", "matadd")
HIT_SAMPLES, MISS_SAMPLES = 1000, 100  # >= 10 samples beyond p99 / p90
FRESH_EVERY = 10  # one request in ten is a never-seen job
LOOP_REQUESTS = 1120  # enough for both sample counts
UNBOUNDED = {"hit_p99_ms": "ms", "miss_p90_ms": "ms"}  # printed, not in BENCHMARK.json


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def cargo(*args):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    p = subprocess.run(["cargo", "build", "--release", "--offline", *args], cwd=ROOT,
                       env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
        raise SystemExit(f"build failed: cargo build {' '.join(args)}")
    return Path(env["CARGO_TARGET_DIR"]).resolve() / "release"


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise SystemExit("not a memexplore source checkout: Cargo.toml or crates/ missing")
    out = cargo("-p", "memx")
    cargo("--manifest-path", "perfbench/Cargo.toml")
    return out / "memx", out / "perfbench"


def sh(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT).stdout.strip()
    except OSError:
        return ""


def metadata(seed, sizes):
    cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo")
                if l.startswith("model name")), platform.processor())
    commit = sh(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)"
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "rustc": sh(["rustc", "--version"]), "profile": "release", "seed": seed, **sizes}


def nearest_rank(samples, p):
    """Exact percentile of raw samples: the nearest-rank value."""
    s = sorted(samples)
    rank = max(1, -(-p * len(s) // 100))
    return s[int(rank) - 1]


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------

class Daemon:
    def __init__(self, memx, log_path):
        self.err = open(log_path, "wb")
        # One malloc arena: with one per handler thread, the daemon's peak
        # RSS varied by a fifth with which thread got which arena.
        self.proc = subprocess.Popen([str(memx), "serve", "--addr", "127.0.0.1:0"],
                                     stdout=subprocess.PIPE, stderr=self.err,
                                     env={**os.environ, "MALLOC_ARENA_MAX": "1"})
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"memx serve did not start: {line!r}")
        host, port = line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)
        self.addr = (host, int(port))

    def peak_rss_mb(self):
        for line in open(f"/proc/{self.proc.pid}/status"):
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is None:
            try:
                post(getattr(self, "addr", None), "/v1/shutdown", b"")
            except (OSError, TypeError):
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def post(addr, path, data):
    """One HTTP request on its own connection: (code, cache header, body)."""
    with socket.create_connection(addr, timeout=120) as s:
        s.sendall(f"POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json"
                  f"\r\nContent-Length: {len(data)}\r\nConnection: close\r\n\r\n".encode() + data)
        chunks = []
        while True:
            b = s.recv(1 << 16)
            if not b:
                break
            chunks.append(b)
    raw = b"".join(chunks)
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    code = int(lines[0].split()[1])
    cache = next((l.split(":", 1)[1].strip() for l in lines[1:]
                  if l.lower().startswith("x-memx-cache:")), "")
    return code, cache, payload


# ---------------------------------------------------------------------------
# Workloads: inputs, CLI operations, daemon traffic
# ---------------------------------------------------------------------------

def make_inputs(workload, seed, d, helper):
    """Writes the seed's inputs into `d`; returns (cli ops, job source, sizes).
    A CLI op is (command kind, argv after `memx`)."""
    ops = {"explore": [], "pareto": [], "search": []}
    if workload == "paper-kernels":
        kernels = inputs.paper_kernels(seed)
        (d / "kernels").mkdir(parents=True, exist_ok=True)
        for name, (text, _) in kernels.items():
            path = d / "kernels" / f"{name}.mx"
            path.write_text(text)
            ops["explore"].append(("explore", [str(path)]))
            ops["pareto"].append(("pareto", [str(path)]))
            if name in SEARCHED:
                ops["search"].append(("search", [str(path), "--space", "expansive"]))
        jobs = inputs.paper_jobs(kernels)
        sizes = {"kernel_extents": {n: e for n, (_, e) in kernels.items()}, "designs": 425}
    elif workload == "din-stream":
        path = d / "trace.din"
        subprocess.run([str(helper), "gen-din", "--seed", str(seed), "--events",
                        str(DIN_EVENTS), "--out", str(path)], check=True)
        for kind in ops:
            ops[kind].append((kind, [str(path)]))
        with open(path) as f:
            jobs = inputs.WindowJobs(seed, f.readlines())
        sizes = {"din_events": DIN_EVENTS, "din_bytes": path.stat().st_size, "designs": 95,
                 "window_events": inputs.WindowJobs.WINDOW}
    else:
        jobs = inputs.serve_jobs(seed)
        (d / "pool").mkdir(parents=True, exist_ok=True)
        for i, b in enumerate(jobs.warm):
            job = json.loads(b)
            path = d / "pool" / f"job{i:02}.mx"
            path.write_text(job["kernel"])
            ops[job["command"]].append((job["command"], [str(path), "--part", job["part"]]))
        sizes = {"pool_jobs": len(jobs.warm), "designs": 425}
    (d / "pool.jsonl").write_text("".join(b + "\n" for b in jobs.warm))
    return ops, jobs, sizes


def setup(workload, seed, d, memx, helper):
    """Input generation, daemon start and cache warm-up."""
    d.mkdir(parents=True, exist_ok=True)
    ops, jobs, sizes = make_inputs(workload, seed, d, helper)
    daemon = Daemon(memx, d / "serve.log")
    try:
        for b in jobs.warm:
            code, _, _ = post(daemon.addr, "/v1/jobs", b.encode())
            if code != 200:
                raise RuntimeError(f"warm-up job answered HTTP {code}")
    except BaseException:
        daemon.stop()
        raise
    return ops, jobs, sizes, daemon


def run_op(memx, argv):
    """Runs one `memx` command: (seconds, exit code, stdout, peak RSS MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([str(memx), *argv], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    dt = time.perf_counter() - t0
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return dt, p.returncode, out, ru.ru_maxrss / 1024


def cli_passes(memx, ops, passes, between):
    """`passes` whole passes over every command's inputs, the commands
    taking turns within a pass, so a slow spell of the host falls on all
    of them; `between()` runs after each command. Returns each command's
    pass time (the sum over its inputs of each input's median time across
    passes), outputs, peak RSS and failures."""
    per_op, outputs, rss, failures = {}, {}, 0.0, 0
    for _ in range(passes):
        for kind, kind_ops in ops.items():
            for op in kind_ops:
                dt, code, out, mb = run_op(memx, [op[0], *op[1]])
                per_op.setdefault((kind, tuple(op[1])), []).append(dt)
                rss = max(rss, mb)
                failures += code != 0
                outputs.setdefault((op[0], tuple(op[1])), []).append(out)
                between()
    times = {kind: sum(statistics.median(t) for (k, _), t in per_op.items() if k == kind)
             for kind in ops}
    return times, outputs, rss, failures


def offline_passes(helper, d, ops, passes, between):
    """serve-mixed's offline passes: the pool's jobs of each kind run through
    `memx::commands::run` in one `perfbench offline` process per kind and
    pass, so milliseconds of process start-up do not swamp milliseconds of
    work. Same rule and results as `cli_passes` (no per-process RSS)."""
    per_op, outputs, failures = {}, {}, 0
    for kind, kind_ops in ops.items():
        (d / f"offline-{kind}.jsonl").write_text(
            "".join(inputs.body(kind, kernel=Path(argv[0]).read_text(), part=argv[2]) + "\n"
                    for _, argv in kind_ops))
    for _ in range(passes):
        for kind, kind_ops in ops.items():
            p = subprocess.run([str(helper), "offline", "--jobs", str(d / f"offline-{kind}.jsonl"),
                                "--dir", str(d / "offline-passes")], capture_output=True, text=True)
            lines = p.stdout.splitlines() if p.returncode == 0 else []
            if len(lines) != len(kind_ops):
                raise SystemExit(f"perfbench offline failed: {p.stderr[-2000:]}")
            for (_, argv), line in zip(kind_ops, lines):
                r = json.loads(line)
                per_op.setdefault((kind, tuple(argv)), []).append(r["seconds"])
                failures += not r["ok"]
                outputs.setdefault((kind, tuple(argv)), []).append(r.get("stdout", "").encode())
            between()
    times = {kind: sum(statistics.median(t) for (k, _), t in per_op.items() if k == kind)
             for kind in ops}
    return times, outputs, 0.0, failures


def request(jobs, rng, i, fresh_base=0):
    """The body of the i-th request of a closed loop: a fresh job (a miss)
    for the last of every FRESH_EVERY, a seeded pick of the warm jobs (a
    hit) otherwise."""
    if i % FRESH_EVERY == FRESH_EVERY - 1:
        return jobs.fresh(fresh_base + i // FRESH_EVERY)
    return rng.choice(jobs.warm)


class ClosedLoop:
    """One client sending one job at a time, each after the reply to the
    last. It runs in chunks between the offline commands, so its samples
    span the whole timed run rather than one stretch of the host's load."""

    def __init__(self, addr, jobs, seed):
        self.addr, self.jobs = addr, jobs
        self.rng = random.Random(f"client/{seed}")
        self.samples, self.hits, self.misses, self.wall = [], 0, 0, 0.0

    def send(self, n):
        t0 = time.perf_counter()
        for _ in range(n):
            b = request(self.jobs, self.rng, len(self.samples))
            t1 = time.perf_counter()
            try:
                code, cache, payload = post(self.addr, "/v1/jobs", b.encode())
            except (OSError, ValueError, IndexError) as e:
                code, cache, payload = 0, "", str(e).encode()
            self.samples.append((b, code, cache, payload, time.perf_counter() - t1))
            self.hits += cache in ("hit", "join")
            self.misses += cache == "miss"
        self.wall += time.perf_counter() - t0

    def finish(self, seconds):
        """Sends on until the percentile sample counts are met and the loop
        has run `seconds` in all (at most LOOP_REQUESTS three times over)."""
        while ((self.hits < HIT_SAMPLES or self.misses < MISS_SAMPLES or self.wall < seconds)
               and len(self.samples) < 3 * LOOP_REQUESTS):
            self.send(FRESH_EVERY)


# ---------------------------------------------------------------------------
# Correctness, checked after timing
# ---------------------------------------------------------------------------

def check_cli(memx, outputs):
    """Passes byte-identical; explore/pareto equal the per-design engine."""
    bad = 0
    for (kind, argv), outs in outputs.items():
        if any(o != outs[0] for o in outs):
            log(f"mismatch: memx {kind} {' '.join(argv)}: stdout differs across passes")
            bad += len(outs)
            continue
        if kind in ("explore", "pareto"):
            _, code, ref, _ = run_op(memx, [kind, *argv, "--engine", "per-design"])
            if code != 0 or ref != outs[0]:
                log(f"mismatch: memx {kind} {' '.join(argv)}: differs from --engine per-design")
                bad += len(outs)
    return bad


def check_serve(helper, d, samples):
    """Every reply equals the offline `memx::commands::run` bytes of its job."""
    bodies = list(dict.fromkeys(s[0] for s in samples))
    (d / "served.jsonl").write_text("".join(b + "\n" for b in bodies))
    p = subprocess.run([str(helper), "offline", "--jobs", str(d / "served.jsonl"),
                        "--dir", str(d / "offline")], capture_output=True, text=True)
    if p.returncode != 0:
        log(p.stderr)
        return len(samples)
    refs = dict(zip(bodies, (json.loads(l) for l in p.stdout.splitlines())))
    bad = 0
    for b, code, cache, payload, _ in samples:
        ref = refs.get(b)
        try:
            reply = json.loads(payload)
        except ValueError:
            reply = None
        ok = (code == 200 and cache in ("hit", "join", "miss") and ref and ref["ok"] and reply
              and reply.get("status") == "complete" and reply.get("stdout") == ref["stdout"]
              and reply.get("stderr") == ref["stderr"])
        if not ok:
            bad += 1
            if bad <= 5:
                log(f"mismatch: serve reply (HTTP {code}, {cache or 'no cache header'}) "
                    f"differs from the offline run of {b[:120]}...")
    return bad


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def timed_run(workload, seed, seconds, d, memx, helper):
    # Everything timed runs on one CPU. On a few shared vCPUs, wake-ups
    # that cross CPUs made the same millisecond job vary two- to five-fold;
    # on one CPU it varies by a few percent. Children inherit the mask.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    setups, daemon, passes = [], None, PASSES[workload]
    try:
        for _ in range(SETUPS):
            if daemon:
                daemon.stop()
            t0 = time.perf_counter()
            ops, jobs, sizes, daemon = setup(workload, seed, d, memx, helper)
            setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        loop = ClosedLoop(daemon.addr, jobs, seed)
        if workload == "serve-mixed":
            chunk = -(-LOOP_REQUESTS // (passes * len(ops)))
            times, outputs, rss, cli_failed = offline_passes(helper, d, ops, passes,
                                                             lambda: loop.send(chunk))
            rss = daemon.peak_rss_mb()
        else:
            chunk = -(-LOOP_REQUESTS // (passes * sum(map(len, ops.values()))))
            times, outputs, rss, cli_failed = cli_passes(memx, ops, passes,
                                                         lambda: loop.send(chunk))
        loop.finish(seconds)
        samples, wall = loop.samples, loop.wall
        log(f"timed: set-ups {sum(setups):.1f} s, commands and closed loop "
            f"{time.perf_counter() - t0:.1f} s, of which the loop {wall:.1f} s")
    finally:
        if daemon:
            daemon.stop()
        os.sched_setaffinity(0, cpus)

    attempted = sum(len(o) for o in outputs.values()) + len(samples)
    # The two checks are independent and untimed: run them side by side.
    serve_bad = []
    checker = threading.Thread(target=lambda: serve_bad.append(check_serve(helper, d, samples)))
    checker.start()
    failed = cli_failed + check_cli(memx, outputs)
    checker.join()
    failed += serve_bad[0] if serve_bad else len(samples)
    hits = [s[4] * 1e3 for s in samples if s[2] in ("hit", "join")]
    misses = [s[4] * 1e3 for s in samples if s[2] == "miss"]
    values, notes = {
        "setup_s": statistics.median(setups),
        "explore_s": times["explore"],
        "pareto_s": times["pareto"],
        "search_s": times["search"],
        "peak_rss_mb": rss,
        "requests_per_s": len(samples) / wall,
    }, {}
    for name, xs, p in (("hit_p50_ms", hits, 50), ("hit_p99_ms", hits, 99),
                        ("miss_p50_ms", misses, 50), ("miss_p90_ms", misses, 90)):
        if not xs:
            raise SystemExit(f"no samples for {name}: every request failed")
        values[name] = nearest_rank(xs, p)
        beyond = len(xs) - -(-p * len(xs) // 100)
        notes[name] = f"n={len(xs)}, {beyond} beyond"
    for kind in times:
        notes[f"{kind}_s"] = f"sum of per-input medians over {passes} passes"
    notes["setup_s"] = f"median of {SETUPS}"
    return values, notes, attempted, failed, sizes


def traced_run(workload, seed, d, memx, helper):
    ops, jobs, sizes, daemon = setup(workload, seed, d, memx, helper)
    try:
        args = [str(helper), "trace", "--workload", workload, "--dir", str(d)]
        if workload == "serve-mixed":
            rng = random.Random(f"trace/{seed}")
            reqs = [request(jobs, rng, i, fresh_base=100_000) for i in range(300)]
            (d / "trace_requests.jsonl").write_text("".join(b + "\n" for b in reqs))
            args += ["--addr", "%s:%d" % daemon.addr]
        p = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    finally:
        daemon.stop()
    if p.returncode != 0:
        raise SystemExit("perfbench trace failed")
    out = json.loads(p.stdout.strip().splitlines()[-1])
    log(f"spans written to {d / 'spans.jsonl'}")
    return out["metrics"], {}, out["attempted"], out["failed"], sizes


def per_layer_values(reached, names):
    """Every per-layer metric: those the traced run reached, 0 for the rest."""
    unknown = set(reached) - set(names)
    if unknown:
        raise SystemExit(f"perfbench trace reported metrics not in BENCHMARK.json: {sorted(unknown)}")
    return {n: reached.get(n, 0.0) for n in names}


def main():
    # SIGTERM unwinds like an error, so the daemon and children are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper-kernels", "din-stream", "serve-mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if a.trace else "end_to_end"]
    memx, helper = build()
    d = BENCH / "out" / a.workload / f"seed-{a.seed}"
    if a.trace:
        values, notes, attempted, failed, sizes = traced_run(a.workload, a.seed, d, memx, helper)
        values = per_layer_values(values, [m["name"] for m in wanted])
    else:
        values, notes, attempted, failed, sizes = timed_run(a.workload, a.seed, a.seconds, d,
                                                            memx, helper)
    meta = metadata(a.seed, sizes)
    if not a.trace:
        meta["timed_on_cpus"] = 1
    (d / f"meta-trace{a.trace}.json").write_text(json.dumps(meta, indent=1))
    print(f"# memx benchmark: workload {a.workload}, seed {a.seed}, trace {a.trace}")
    for k, v in meta.items():
        print(f"# {k}: {v}")
    metrics = {}
    for m in wanted:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']} = {v:.6g} {m['unit']}{note}")
    for name in sorted(set(values) - set(metrics)):
        print(f"{name} = {values[name]:.6g} {UNBOUNDED[name]}  ({notes[name]}; not in BENCHMARK.json:"
              " on a shared host this tail follows the host's timer and slow spells)")
    print(f"failed_ratio = {failed / attempted:.6g} ratio  ({failed} of {attempted} operations;"
          " not in BENCHMARK.json: it is 0 on a correct build)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
