//! End-to-end test of the campaign service through the real binary:
//! `fades-experiments serve` on a scratch queue directory, driven over
//! HTTP, killed hard mid-campaign, and restarted.
//!
//! The load-bearing assertion is bit-identity: the merged
//! `emulation_seconds` of an HTTP-submitted sharded job — including one
//! whose server was SIGKILLed mid-run and restarted on the same queue
//! directory — must equal a monolithic run of the same (load, faults,
//! seed) computed in-process, bit for bit. The short job's ground truth
//! is [`Campaign::run`] on a `batch: false` campaign — the scalar
//! oracle — so the lane-sharded service is checked against the scalar
//! `Device` on the 8051; the long job's is a single-process single-shard
//! lane run (which the dispatch suite proves bit-identical to the scalar
//! oracle, and which is fast enough to recompute here — the scalar path
//! would take minutes at this fault count).
//!
//! [`Campaign::run`]: fades_core::Campaign::run

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use fades_experiments::dispatch_cli::named_load;
use fades_experiments::ExperimentContext;
use fades_telemetry::json::{parse, JsonValue};
use fades_telemetry::{http_get, http_post};

const DEADLINE: Duration = Duration::from_secs(300);

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_fades-experiments")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fades-svc-{}-{name}", std::process::id()))
}

/// A serve invocation with a hermetic environment: no inherited
/// observability settings, a fixed thread count, port 0.
fn spawn_serve(queue: &Path, addr_file: &Path) -> Child {
    let _ = std::fs::remove_file(addr_file);
    let mut cmd = Command::new(bin());
    cmd.env_remove("FADES_RUN_LOG")
        .env_remove("FADES_METRICS_ADDR")
        .env_remove("FADES_METRICS_ADDR_FILE")
        .env_remove("FADES_TRACE_OUT")
        .env_remove("FADES_WATCHDOG_MS")
        .env_remove("FADES_SERVICE_ADDR")
        .env("FADES_THREADS", "2")
        .env("FADES_PROGRESS", "0")
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--jobs",
            "2",
        ])
        .arg("--queue-dir")
        .arg(queue)
        .arg("--addr-file")
        .arg(addr_file);
    cmd.spawn().expect("spawn serve")
}

fn wait_for_addr(addr_file: &Path, child: &mut Child) -> String {
    let t0 = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        assert!(
            child.try_wait().expect("probe serve").is_none(),
            "serve exited before publishing its address"
        );
        assert!(t0.elapsed() < DEADLINE, "service address never appeared");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Submits a job and returns its id.
fn submit(addr: &str, load: &str, faults: u64, seed: u64, shards: u64) -> String {
    let body =
        format!("{{\"load\":\"{load}\",\"faults\":{faults},\"seed\":{seed},\"shards\":{shards}}}");
    let (code, response) = http_post(addr, "/campaigns", &body).expect("POST /campaigns");
    assert_eq!(code, 200, "submit: {response}");
    let v = parse(response.trim()).expect("submit response parses");
    v.get("id")
        .and_then(JsonValue::as_str)
        .expect("submit response has an id")
        .to_string()
}

/// One GET of the job detail document `{job, progress?}`.
fn job_detail(addr: &str, id: &str) -> JsonValue {
    let (code, response) = http_get(addr, &format!("/campaigns/{id}")).expect("GET job");
    assert_eq!(code, 200, "job detail: {response}");
    parse(response.trim()).expect("job detail parses")
}

/// Polls the job until `pred` accepts its detail document. Costs one
/// `campaign_status` journal scan per poll — fine while journals are
/// small; for plain state changes use [`wait_for_state`].
fn wait_for_job(addr: &str, id: &str, what: &str, pred: impl Fn(&JsonValue) -> bool) -> JsonValue {
    let t0 = Instant::now();
    loop {
        let detail = job_detail(addr, id);
        if pred(&detail) {
            return detail;
        }
        assert!(t0.elapsed() < DEADLINE, "{id} never reached: {what}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Polls the cheap list endpoint (no journal scans) until the job
/// reaches `state`.
fn wait_for_state(addr: &str, id: &str, state: &str) {
    let t0 = Instant::now();
    loop {
        let (code, response) = http_get(addr, "/campaigns").expect("GET /campaigns");
        assert_eq!(code, 200, "list: {response}");
        let v = parse(response.trim()).expect("list parses");
        let Some(JsonValue::Array(jobs)) = v.get("jobs") else {
            panic!("malformed list: {response}");
        };
        let current = jobs
            .iter()
            .find(|j| j.get("id").and_then(JsonValue::as_str) == Some(id))
            .and_then(|j| j.get("state"))
            .and_then(JsonValue::as_str)
            .unwrap_or("absent");
        if current == state {
            return;
        }
        assert!(
            t0.elapsed() < DEADLINE,
            "{id} never reached `{state}` (last seen `{current}`)"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// Fetches merged results and returns `(complete, emulation_seconds_bits)`.
fn results(addr: &str, id: &str) -> (bool, String) {
    let (code, response) =
        http_get(addr, &format!("/campaigns/{id}/results")).expect("GET results");
    assert_eq!(code, 200, "results: {response}");
    let v = parse(response.trim()).expect("results parse");
    let complete = matches!(v.get("complete"), Some(JsonValue::Bool(true)));
    let bits = v
        .get("stats")
        .and_then(|s| s.get("emulation_seconds_bits"))
        .and_then(JsonValue::as_str)
        .expect("results carry exact bits")
        .to_string();
    (complete, bits)
}

/// Journal-settled experiments according to the live progress report.
fn settled(detail: &JsonValue) -> u64 {
    let num = |k: &str| {
        detail
            .get("progress")
            .and_then(|p| p.get(k))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    num("completed") + num("quarantined")
}

#[test]
fn http_campaigns_survive_sigkill_and_match_monolithic_bits() {
    let queue = tmp("queue");
    let addr_file = tmp("addr.txt");
    let _ = std::fs::remove_dir_all(&queue);

    // The ground truth: monolithic in-process runs of the same specs the
    // service will execute shard-by-shard.
    let t_all = Instant::now();
    macro_rules! mark {
        ($what:expr) => {
            eprintln!("[e2e {:7.1?}] {}", t_all.elapsed(), $what)
        };
    }
    const SMALL_N: u64 = 1_000;
    const BIG_N: u64 = 50_000;

    let ctx = ExperimentContext::new().expect("context");
    mark!("context built");
    let campaign = ctx.fades_campaign().expect("campaign");
    let load = named_load(&ctx, "pulse-luts").expect("known load");
    let oracle = fades_core::Campaign::with_config(
        &ctx.soc().netlist,
        ctx.implementation().clone(),
        &fades_mcu8051::OBSERVED_PORTS,
        ctx.workload_cycles(),
        fades_core::CampaignConfig {
            batch: false,
            ..fades_core::CampaignConfig::default()
        },
    )
    .expect("scalar oracle campaign");
    let small_bits = oracle
        .run(&load, SMALL_N as usize, 7)
        .expect("monolithic small");
    let small_bits = format!("{:016x}", small_bits.emulation_seconds.to_bits());
    mark!("monolithic small done");
    let truth = tmp("truth.jsonl");
    let _ = std::fs::remove_file(&truth);
    let plan = campaign.plan(&load, BIG_N as usize, 9).expect("big plan");
    let opts = fades_dispatch::ShardOptions {
        load: "pulse-luts".into(),
        retries: 1,
        with_recorder: false,
        cancel: None,
    };
    fades_dispatch::run_shard(&campaign, &plan, 0, 1, &truth, &opts).expect("monolithic big");
    let big_truth = fades_dispatch::merge(&[&truth]).expect("merge truth");
    assert!(big_truth.is_complete());
    let big_bits = format!("{:016x}", big_truth.stats.emulation_seconds.to_bits());
    mark!("monolithic big done");

    // Phase A: serve, submit a long job and a short one. The long job's
    // two shards occupy both workers, so the short one waits in queue.
    let mut server = spawn_serve(&queue, &addr_file);
    let addr = wait_for_addr(&addr_file, &mut server);
    let big = submit(&addr, "pulse-luts", BIG_N, 9, 2);
    let small = submit(&addr, "pulse-luts", SMALL_N, 7, 2);
    assert_ne!(big, small, "distinct job ids");
    mark!("jobs submitted");

    // The list endpoint knows both jobs...
    let (code, response) = http_get(&addr, "/campaigns").expect("GET /campaigns");
    assert_eq!(code, 200);
    assert!(
        response.contains(&big) && response.contains(&small),
        "{response}"
    );

    // ... and so does the `jobs` CLI client.
    let out = Command::new(bin())
        .args(["jobs", "--addr", &addr])
        .output()
        .expect("jobs client");
    assert!(out.status.success(), "jobs client: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&big) && stdout.contains(&small), "{stdout}");

    // Phase B: once the long job has journaled real progress, kill the
    // server dead — no shutdown courtesy, mid-write is fair game. The
    // short job has not started yet: it rides out the crash as a queued
    // spec file.
    let detail = wait_for_job(&addr, &big, "progress > 500", |d| settled(d) > 500);
    assert!(
        settled(&detail) < BIG_N,
        "the long job must still be mid-run at kill time (raise BIG_N?)"
    );
    mark!("big job past 500, killing");
    server.kill().expect("SIGKILL serve");
    let _ = server.wait();

    // Phase C: a fresh server on the same queue directory picks up both
    // jobs — the interrupted one resumes from its journals, the queued
    // one runs from scratch — and the merged stats of each are
    // bit-identical to their uninterrupted monolithic runs.
    let mut server = spawn_serve(&queue, &addr_file);
    let addr = wait_for_addr(&addr_file, &mut server);
    mark!("restarted");
    wait_for_state(&addr, &big, "completed");
    mark!("big job completed after restart");
    let detail = job_detail(&addr, &big);
    assert!(
        settled(&detail) >= BIG_N,
        "every experiment settled: {detail:?}"
    );
    let (complete, bits) = results(&addr, &big);
    assert!(complete, "resumed job merged complete");
    assert_eq!(bits, big_bits, "kill+restart preserves exact bits");

    wait_for_state(&addr, &small, "completed");
    mark!("small job completed");
    let (complete, bits) = results(&addr, &small);
    assert!(complete, "short job merged complete");
    assert_eq!(bits, small_bits, "HTTP results == monolithic Campaign::run");

    // The `results` CLI client renders the same bits.
    let out = Command::new(bin())
        .args(["results", &big, "--addr", &addr])
        .output()
        .expect("results client");
    assert!(out.status.success(), "results client: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&big_bits), "exact bits printed: {stdout}");
    assert!(stdout.contains("bit-identical"), "{stdout}");

    // Phase D: cancellation. A huge job stops (from queued or mid-run)
    // with a durable `cancelled` marker.
    let doomed = submit(&addr, "pulse-luts", 500_000, 3, 2);
    let (code, response) =
        http_post(&addr, &format!("/campaigns/{doomed}/cancel"), "").expect("cancel");
    assert_eq!(code, 200, "cancel: {response}");
    mark!("doomed job cancel requested");
    wait_for_state(&addr, &doomed, "cancelled");
    mark!("doomed job cancelled");
    assert!(
        queue.join(&doomed).join("cancelled").exists(),
        "cancel leaves a durable marker"
    );

    // Phase E: graceful shutdown over HTTP — the server drains and the
    // process exits cleanly by itself.
    let (code, _) = http_post(&addr, "/shutdown", "").expect("POST /shutdown");
    assert_eq!(code, 200);
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = server.try_wait().expect("probe serve") {
            break status;
        }
        assert!(
            t0.elapsed() < DEADLINE,
            "serve never exited after /shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "serve exited cleanly: {status:?}");

    let _ = std::fs::remove_dir_all(&queue);
    let _ = std::fs::remove_file(&addr_file);
    let _ = std::fs::remove_file(&truth);
}
