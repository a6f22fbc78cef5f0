//! The serve oracle: for every paper kernel and every job kind, the
//! daemon's response must be byte-identical between a cold miss and a
//! cache hit, its `stdout` field must be byte-identical to the offline
//! `memx` command's stdout, and an eviction followed by a re-query must
//! re-simulate and still produce the same bytes.
//!
//! This is the end-to-end correctness contract of the result cache: a
//! client can never tell (from the body) whether its job was simulated
//! or served from memory, and the daemon can never drift from the CLI.

mod common;

use common::{
    body_json, body_str, cache_disposition, job_body, kernel_path, kernel_source, post_job,
    PAPER_KERNELS,
};
use memexplore::CacheKey;
use memx::cli::{ObsFlags, Supervise};
use memx::{run, Command, ServeConfig, Server};

/// The offline command equivalent to a default serve job of `kind`.
fn offline_command(kind: &str, file: String) -> Command {
    match kind {
        "explore" => Command::Explore {
            file,
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            analytical: false,
            bound_cycles: None,
            bound_energy: None,
            pareto: false,
            telemetry: false,
            engine: "fused".into(),
            no_analytic: false,
            supervise: Supervise::default(),
            obs: ObsFlags::default(),
        },
        "pareto" => Command::Pareto {
            file,
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            format: "csv".into(),
            exhaustive: false,
            telemetry: false,
            engine: "fused".into(),
            no_analytic: false,
            supervise: Supervise::default(),
            obs: ObsFlags::default(),
        },
        "search" => Command::Search {
            file,
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            objective: memexplore::Objective::Energy,
            space: "paper".into(),
            beam: None,
            gap: 0.0,
            deadline_secs: None,
            format: "text".into(),
            telemetry: false,
            no_analytic: false,
            obs: ObsFlags::default(),
        },
        other => panic!("unknown job kind {other}"),
    }
}

#[test]
fn hit_miss_offline_and_eviction_agree_on_every_paper_kernel() {
    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    for name in PAPER_KERNELS {
        let source = kernel_source(name);
        for kind in ["explore", "pareto", "search"] {
            let body = job_body(kind, &source, "");

            // Cold miss: the job simulates.
            let first = post_job(&server, &body);
            assert_eq!(first.code, 200, "{name}/{kind}");
            assert_eq!(cache_disposition(&first), "miss", "{name}/{kind}");

            // Warm hit: byte-identical body, no simulation.
            let second = post_job(&server, &body);
            assert_eq!(second.code, 200, "{name}/{kind}");
            assert_eq!(cache_disposition(&second), "hit", "{name}/{kind}");
            assert_eq!(
                first.body, second.body,
                "{name}/{kind}: hit bytes differ from miss bytes"
            );

            // The response stdout is byte-identical to the offline CLI.
            let json = body_json(&first);
            assert_eq!(body_str(&json, "status"), "complete", "{name}/{kind}");
            let offline = run(offline_command(kind, kernel_path(name)))
                .unwrap_or_else(|e| panic!("{name}/{kind} offline run failed: {e}"));
            assert_eq!(
                body_str(&json, "stdout"),
                offline.stdout,
                "{name}/{kind}: daemon stdout diverged from offline memx"
            );

            // Evict, re-query: re-simulates (miss) to the same bytes.
            let key_hex = body_str(&json, "key");
            let key = CacheKey(u128::from_str_radix(key_hex, 16).expect("hex key"));
            assert!(
                server.cache().evict(key),
                "{name}/{kind}: key {key_hex} was not resident"
            );
            let third = post_job(&server, &body);
            assert_eq!(cache_disposition(&third), "miss", "{name}/{kind}");
            assert_eq!(
                first.body, third.body,
                "{name}/{kind}: re-simulated bytes differ"
            );
        }
    }
    // 5 kernels x 3 kinds, each simulated twice (cold + after eviction).
    assert_eq!(server.jobs_done(), 45);
    server.request_shutdown();
    server.join();
}

#[test]
fn health_stats_and_error_paths_are_typed() {
    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let get = |path: &str| memx::http_request(&addr, "GET", path, b"").expect("reachable");

    let health = get("/v1/health");
    assert_eq!(health.code, 200);
    assert!(health.body.starts_with(b"{\"status\":\"ok\""));

    let stats = get("/v1/stats");
    assert_eq!(stats.code, 200);
    let json = body_json(&stats);
    assert!(json.get("cache").is_some(), "stats must expose the cache");

    // Typed rejections: malformed JSON, unknown field, bad kernel,
    // unknown endpoint, wrong method.
    let post = |path: &str, body: &str| {
        memx::http_request(&addr, "POST", path, body.as_bytes()).expect("reachable")
    };
    assert_eq!(post("/v1/jobs", "{not json").code, 400);
    let source = kernel_source("compress");
    assert_eq!(
        post("/v1/jobs", &job_body("explore", &source, ",\"turbo\":1")).code,
        400
    );
    assert_eq!(
        post("/v1/jobs", &job_body("explore", "not a kernel", "")).code,
        400
    );
    // A kernel that indexes past its array is rejected up front, naming
    // the array and dimension, instead of panicking a sweep worker.
    let oob = post(
        "/v1/jobs",
        &job_body(
            "explore",
            "kernel Bad\narray a[8] elem 4\nfor i = 0 .. 8\n  read a[i]\n",
            "",
        ),
    );
    assert_eq!(oob.code, 400);
    assert!(
        body_str(&body_json(&oob), "error").contains("subscript 0 of `a` out of bounds"),
        "{:?}",
        String::from_utf8_lossy(&oob.body)
    );
    assert_eq!(post("/v1/nope", "{}").code, 404);
    assert_eq!(get("/v1/jobs").code, 405);

    // Errors never enter the cache: a subsequent valid job still misses.
    let ok = post_job(&server, &job_body("search", &source, ""));
    assert_eq!(ok.code, 200);
    assert_eq!(cache_disposition(&ok), "miss");
    server.request_shutdown();
    server.join();
}
