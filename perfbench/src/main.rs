//! The FADES campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-lane|sweep-delay|table3> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload for about `--seconds` seconds, as whole
//! iterations (each: a fresh setup, then the workload's public calls),
//! checks every output, and prints as its last stdout line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` alternates untraced and
//! traced iterations and reports the per-layer metrics, the layers' self
//! times and the tracing overhead, and writes a Chrome trace. Every
//! iteration's record is appended to `.perfbench_out/results.jsonl` as
//! soon as it finishes. See `perfbench/README.md`.

mod bench;
mod counters;
mod host;
mod metrics;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::error::Error;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fades_telemetry::json::{escape, number, JsonObject};

use bench::{Bench, Iteration, Workload};
use metrics::{Clock, Metric};

/// Setups made before the first iteration: warm-up, and extra samples
/// so `setup_s` is a median of at least this many even when few
/// iterations fit in the run.
const SETUP_REPS: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <sweep-lane|sweep-delay|table3> --seed <n> \
                     --seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".perfbench_out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Fields every record in the result file starts with.
fn header(args: &Args, host: &host::Host, record: &str) -> JsonObject {
    JsonObject::new()
        .str("type", record)
        .str("workload", args.workload.name())
        .u64("seed", args.seed)
        .u64("trace", u64::from(args.trace))
        .raw(
            "host",
            &JsonObject::new()
                .u64("nproc", host.nproc as u64)
                .str("cpu_model", &host.cpu_model)
                .finish(),
        )
        .u64("threads", fades_core::worker_threads() as u64)
        .u64(
            "faults_per_campaign",
            args.workload.faults_per_campaign() as u64,
        )
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(format!("{line}\n").as_bytes())?;
    f.flush()
}

fn iteration_record(args: &Args, host: &host::Host, run: u32, it: &Iteration) -> String {
    let secs = |v: f64, clock: Clock| {
        JsonObject::new()
            .f64("value", v)
            .str("clock", clock.label())
            .finish()
    };
    header(args, host, "iteration")
        .u64("run", u64::from(run))
        .u64("traced", u64::from(it.traced))
        .u64("plan_seed", it.plan_seed)
        .f64("speed", it.speed)
        .raw("setup_s", &secs(it.setup.total_s(), Clock::Host))
        .raw("setup_s_scaled", &secs(it.setup_s(), Clock::Scaled))
        .raw("work_s", &secs(it.work_s, Clock::Host))
        .raw("work_cpu_s", &secs(it.work_cpu_s, Clock::Host))
        .f64("faults_per_s_raw", it.raw_faults_per_s())
        .f64("faults_per_s", it.faults_per_s())
        .u64("attempted", it.attempted)
        .u64("completed", it.completed)
        .u64("failed", it.failed)
        .u64("fades_faults", it.fades_faults)
        .raw("modelled_s", &secs(it.modelled_s, Clock::Modelled))
        .str("fingerprint", &it.fingerprint)
        .raw(
            "mismatches",
            &fades_telemetry::json::array(
                &it.mismatches
                    .iter()
                    .map(|m| format!("\"{}\"", escape(m)))
                    .collect::<Vec<_>>(),
            ),
        )
        .finish()
}

fn metrics_object(metrics: &[Metric], with_clock: bool) -> String {
    let mut o = JsonObject::new();
    for m in metrics {
        let mut v = JsonObject::new()
            .raw("value", &number(m.value))
            .str("unit", m.unit);
        if with_clock {
            v = v.str("clock", m.clock.label());
        }
        o = o.raw(m.name, &v.finish());
    }
    o.finish()
}

/// Runs the benchmark; `Ok(false)` when a correctness check failed.
fn run(args: &Args) -> Result<bool, Box<dyn Error>> {
    let host = host::Host::detect();
    std::fs::create_dir_all(&args.out)?;
    let results = args.out.join("results.jsonl");
    let journal_dir = args.out.join(format!("journals-{}", std::process::id()));
    let mut bench = Bench::new(args.workload, args.seed, journal_dir.clone());
    let outcome = measure(args, &host, &results, &mut bench);
    let _ = std::fs::remove_dir_all(&journal_dir);
    let (its, setups) = outcome?;

    let mut mismatches: Vec<String> = Vec::new();
    let mut first_of_plan: BTreeMap<u64, usize> = BTreeMap::new();
    for (run, it) in its.iter().enumerate() {
        let first = *first_of_plan.entry(it.plan_seed).or_insert(run);
        if it.fingerprint != its[first].fingerprint {
            mismatches.push(format!(
                "iteration {run} outcome statistics differ from iteration {first} under plan seed {}",
                it.plan_seed
            ));
        }
        mismatches.extend(
            it.mismatches
                .iter()
                .map(|m| format!("iteration {run}: {m}")),
        );
    }
    let attempted: u64 = its.iter().map(|i| i.attempted).sum();
    let failed: u64 = its.iter().map(|i| i.failed).sum();
    let correct = mismatches.is_empty() && failed == 0;

    let metrics = if args.trace {
        metrics::per_layer(&its)
    } else {
        metrics::end_to_end(&its, &setups, host::peak_rss_mb())
    };
    if let Some(m) = metrics
        .iter()
        .find(|m| !stats::valid_name(m.name) || !stats::valid_unit(m.unit))
    {
        return Err(format!("invalid metric name or unit: {} [{}]", m.name, m.unit).into());
    }
    report(args, &host, &its, &metrics, &mismatches, &bench);
    if args.trace {
        let path = args.out.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(
            &path,
            spans::chrome_json(bench.spans.all(), &bench.program_events),
        )?;
        eprintln!("chrome trace: {}", path.display());
    }
    let summary = header(args, &host, "summary")
        .u64("iterations", its.len() as u64)
        .u64("setups", setups.len() as u64)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("correct", if correct { "true" } else { "false" })
        .raw("metrics", &metrics_object(&metrics, true))
        .finish();
    append_line(&results, &summary)?;
    println!(
        "{}",
        JsonObject::new()
            .raw("correct", if correct { "true" } else { "false" })
            .u64("attempted", attempted)
            .u64("failed", failed)
            .raw("metrics", &metrics_object(&metrics, false))
            .finish()
    );
    Ok(correct)
}

/// The measured loop: warm-up setups, then whole iterations until the
/// next one would overrun `--seconds` (at least three, or four when
/// traced so both halves of the alternation have two). Iterations rotate
/// through the workload's plans; a traced run gives each plan to an
/// untraced and a traced iteration in turn, so the two halves see the
/// same plans.
fn measure(
    args: &Args,
    host: &host::Host,
    results: &Path,
    bench: &mut Bench,
) -> Result<(Vec<Iteration>, Vec<f64>), Box<dyn Error>> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let (times, speed) = bench.setup_only()?;
        setups.push(times.total_s() * speed);
    }
    let min_iterations = if args.trace { 4 } else { 3 };
    let started = Instant::now();
    let mut its: Vec<Iteration> = Vec::new();
    let mut walls = Vec::new();
    loop {
        let run = its.len() as u32;
        let t0 = Instant::now();
        let traced = args.trace && run % 2 == 1;
        let slot = u64::from(if args.trace { run / 2 } else { run });
        let it = bench.iteration(run, slot, traced)?;
        walls.push(t0.elapsed().as_secs_f64());
        append_line(results, &iteration_record(args, host, run, &it))?;
        setups.push(it.setup_s());
        its.push(it);
        let next_end = started.elapsed().as_secs_f64() + stats::median(&walls);
        if its.len() >= min_iterations && next_end > args.seconds {
            break;
        }
    }
    Ok((its, setups))
}

/// Human-readable report on stderr.
fn report(
    args: &Args,
    host: &host::Host,
    its: &[Iteration],
    metrics: &[Metric],
    mismatches: &[String],
    bench: &Bench,
) {
    eprintln!(
        "perfbench {} seed {} on {} ({} cpus, {} campaign threads): {} iterations, {} faults per campaign",
        args.workload.name(),
        args.seed,
        host.cpu_model,
        host.nproc,
        fades_core::worker_threads(),
        its.len(),
        args.workload.faults_per_campaign()
    );
    let per_iteration = |label: &str, values: Vec<f64>| {
        if let Some([q1, q2, q3]) = stats::quartiles(&values) {
            eprintln!(
                "  {label:<24} q1 {q1:.4}  median {q2:.4}  q3 {q3:.4}  spread {:.4}",
                stats::spread(&values).unwrap_or(0.0)
            );
        }
    };
    per_iteration("host speed", its.iter().map(|i| i.speed).collect());
    per_iteration(
        "faults/s (host)",
        its.iter().map(Iteration::raw_faults_per_s).collect(),
    );
    per_iteration(
        "faults/s (scaled)",
        its.iter().map(Iteration::faults_per_s).collect(),
    );
    let attempted: u64 = its.iter().map(|i| i.attempted).sum();
    let failed: u64 = its.iter().map(|i| i.failed).sum();
    eprintln!(
        "  failed_ratio {} ({failed} of {attempted} attempted)",
        counters::ratio(failed as f64, attempted as f64)
    );
    for m in metrics {
        eprintln!(
            "  {:<34} {:>16.6} {:<6} [{}]",
            m.name,
            m.value,
            m.unit,
            m.clock.label()
        );
    }
    if args.trace {
        eprintln!("  self time per span (traced iterations, host seconds):");
        let traced = |run: u32| its.get(run as usize).is_some_and(|i| i.traced);
        for (name, us) in spans::self_time_by_name(bench.spans.all(), traced) {
            eprintln!("    {name:<22} {:>10.4}", us as f64 / 1e6);
        }
        let top: Vec<String> = metrics::top_layers(metrics)
            .iter()
            .map(|(n, v)| format!("{n} {v:.3} s"))
            .collect();
        eprintln!("  top host-time layers: {}", top.join(", "));
    }
    for m in mismatches {
        eprintln!("  MISMATCH {m}");
    }
}
