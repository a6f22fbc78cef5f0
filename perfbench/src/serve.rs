//! Traced requests against a running `memx serve`.
//!
//! Each request is timed from the client (`serve.request`, with the TCP
//! connect as its child). Its body is then passed, in this process,
//! through the stages the daemon runs before it answers a hit — JSON
//! parse, job validation, cache key, cache lookup — and a miss also
//! through the offline `memx::commands::run` of the same job. The hit
//! latency not covered by those stages is reported as unattributed.

use crate::spans::Tracer;
use crate::{ratio, run_offline, Metrics, Traced};
use memexplore::obs::parse_json;
use memexplore::{Lookup, ResultCache};
use memx::JobSpec;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;

/// One request's client-side and stage times, in seconds.
struct Sample {
    hit: bool,
    latency: f64,
    connect: f64,
    stages: [f64; 4],
    run: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// Sends one `POST /v1/jobs` and returns the status code, the
/// `X-Memx-Cache` header and the body.
fn post(stream: &mut TcpStream, body: &str) -> Result<(u16, String, String), String> {
    let head = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    stream
        .write_all(body.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let raw = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("response without header end")?;
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("response without status")?;
    let cache = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Memx-Cache: "))
        .unwrap_or("")
        .to_string();
    Ok((code, cache, body.to_string()))
}

pub fn trace_serve(tr: &mut Tracer, dir: &Path, addr: &str) -> Result<Traced, String> {
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("{}/{name}: {e}", dir.display()))
    };
    let pool = read("pool.jsonl")?;
    let requests = read("trace_requests.jsonl")?;

    // A cache holding the keys the daemon was warmed with, so lookups of
    // repeated jobs hit here as they do there.
    let cache = ResultCache::new(256, 64 << 20);
    for body in pool.lines() {
        let json = parse_json(body)?;
        let spec = JobSpec::from_json(&json).map_err(|e| e.to_string())?;
        if let Lookup::Miss(flight) = cache.lookup(spec.cache_key()) {
            flight.fulfill(Arc::new(Vec::new()), true);
        }
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut samples = Vec::new();
    for (i, body) in requests.lines().enumerate() {
        attempted += 1;
        tr.set_request(Some(i as u64));
        let req = tr.begin("serve.request");
        let c = tr.begin("memx.serve.connect");
        let stream = TcpStream::connect(addr);
        tr.end(c);
        let response = stream
            .map_err(|e| e.to_string())
            .and_then(|mut s| post(&mut s, body));
        tr.end(req);
        let (code, disposition, reply) = match response {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: request {i}: {e}");
                failed += 1;
                continue;
            }
        };

        let top = tr.begin("serve.stages");
        let json = tr.span("core.obs.parse_json", || parse_json(body));
        let p = tr.len() - 1;
        let spec = tr.span("memx.serve.jobspec", || {
            json.as_ref().ok().map(JobSpec::from_json)
        });
        let j = tr.len() - 1;
        let spec = match spec {
            Some(Ok(spec)) => spec,
            _ => {
                tr.end(top);
                eprintln!("error: request {i}: body does not validate");
                failed += 1;
                continue;
            }
        };
        let key = tr.span("memx.serve.cache_key", || spec.cache_key());
        let k = tr.len() - 1;
        let lookup = tr.span("core.cache.lookup", || cache.lookup(key));
        let l = tr.len() - 1;
        let mut run = 0.0;
        let mut ok = code == 200;
        if let Lookup::Miss(flight) = lookup {
            let json = json.as_ref().expect("validated above");
            let workdir = dir.join(format!("trace-job{i}"));
            let out = tr.span("memx.commands.run", || run_offline(json, &workdir));
            run = tr.secs(tr.len() - 1);
            // The reply must carry exactly the offline bytes.
            ok &= match (&out, parse_json(&reply)) {
                (Ok(o), Ok(r)) => {
                    r.get("stdout").and_then(|s| s.as_str()) == Some(o.stdout.as_str())
                        && r.get("stderr").and_then(|s| s.as_str()) == Some(o.stderr.as_str())
                }
                _ => false,
            };
            flight.fulfill(Arc::new(Vec::new()), true);
        }
        tr.end(top);
        tr.set_request(None);
        if !ok {
            eprintln!("error: request {i}: HTTP {code} or reply differs from the offline run");
            failed += 1;
        }
        samples.push(Sample {
            hit: disposition != "miss",
            latency: tr.secs(req),
            connect: tr.secs(c),
            stages: [tr.secs(p), tr.secs(j), tr.secs(k), tr.secs(l)],
            run,
        });
    }

    let hits: Vec<&Sample> = samples.iter().filter(|s| s.hit).collect();
    let misses: Vec<&Sample> = samples.iter().filter(|s| !s.hit).collect();
    let over =
        |set: &[&Sample], f: &dyn Fn(&Sample) -> f64| median(set.iter().map(|s| f(s)).collect());
    let unattributed = |s: &Sample| s.latency - s.connect - s.stages.iter().sum::<f64>() - s.run;
    let mut m = Metrics::new();
    m.insert("memx.serve.connect_s", over(&hits, &|s| s.connect));
    m.insert("core.obs.parse_json_s", over(&hits, &|s| s.stages[0]));
    m.insert("memx.serve.jobspec_s", over(&hits, &|s| s.stages[1]));
    m.insert("memx.serve.cache_key_s", over(&hits, &|s| s.stages[2]));
    m.insert("core.cache.lookup_s", over(&hits, &|s| s.stages[3]));
    m.insert("memx.serve.hit_unattributed_s", over(&hits, &unattributed));
    m.insert("memx.commands.run_s", over(&misses, &|s| s.run));
    m.insert(
        "memx.serve.miss_unattributed_s",
        over(&misses, &unattributed),
    );
    m.insert(
        "core.cache.hit_ratio",
        ratio(hits.len() as f64, samples.len() as f64),
    );
    // The work this run adds around the requests it measures.
    let latencies: f64 = samples.iter().map(|s| s.latency).sum();
    m.insert("trace.overhead_s", tr.wall_and_remainder().0 - latencies);
    eprintln!(
        "serve trace: {} requests ({} hits, {} misses); hit latency median {:.6} s, unattributed {:.6} s",
        samples.len(),
        hits.len(),
        misses.len(),
        over(&hits, &|s| s.latency),
        over(&hits, &unattributed)
    );
    Ok(Traced {
        metrics: m,
        attempted,
        failed,
    })
}
