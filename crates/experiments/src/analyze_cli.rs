//! The `analyze` subcommand: static analysis of an implemented design
//! before any experiment runs.
//!
//! ```text
//! fades-experiments analyze [load|all] [--json] [--design 8051|demo-dead]
//! ```
//!
//! Lints the placed design (combinational cycles, floating or constant
//! LUTs, dead flip-flops, dangling wires, lane-engine obstacles,
//! unused-site inventory) and, for each requested fault load, samples
//! the campaign plan from `FADES_FAULTS` / `FADES_SEED` and reports how
//! many experiments the cone-of-influence pre-classifier proves
//! statically Silent — a plan-time outcome report; `run`/`shard`/service
//! jobs still execute them, and the soundness suite checks the claim
//! against their executed outcome.
//!
//! The exit status is the gate: `Error`-severity diagnostics (the same
//! findings that make `fades-dispatch::run_shard` and service admission
//! reject the design) fail the command. Diagnostics are also appended to
//! `FADES_RUN_LOG` as structured `lint` lines when configured.
//!
//! `--design demo-dead` swaps the 8051 for a small synthetic design with
//! provably dead logic (a shadow register nobody reads and inverters
//! feeding an unobserved debug port) — a fixture with known non-zero
//! static-Silent counts, used by `scripts/check.sh` to prove the
//! pre-classifier is alive end to end.

use std::error::Error;

use fades_analysis::{Diagnostic, Severity};
use fades_core::{Campaign, FaultLoad, PlanAnnotation, TargetClass};
use fades_netlist::Netlist;
use fades_pnr::{implement, Implementation};
use fades_rtl::RtlBuilder;
use fades_telemetry::json::{self, JsonObject};

use crate::dispatch_cli::{named_load_for, NAMED_LOADS};
use crate::{fault_count_from_env, seed_from_env, ExperimentContext};

/// Handles `analyze` argv. Returns `None` when the first argument is not
/// `analyze` (other dispatchers take over).
pub fn try_analyze(args: &[String]) -> Option<Result<(), Box<dyn Error>>> {
    match args.first().map(String::as_str) {
        Some("analyze") => Some(cmd_analyze(&args[1..])),
        _ => None,
    }
}

/// One design under analysis, however it was obtained.
struct AnalyzedDesign {
    label: String,
    netlist: Netlist,
    implementation: Implementation,
    ports: Vec<String>,
    run_cycles: u64,
    memory_targets: Option<TargetClass>,
}

/// The per-load plan summary: how many of `n` planned experiments the
/// static pre-classifier settled, or why the load is not plannable on
/// this design.
struct LoadSummary {
    load: &'static str,
    result: Result<(usize, usize), String>,
}

fn cmd_analyze(args: &[String]) -> Result<(), Box<dyn Error>> {
    const USAGE: &str =
        "usage: fades-experiments analyze [load|all] [--json] [--design 8051|demo-dead]";
    let mut json_out = false;
    let mut design_name = "8051".to_string();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_out = true,
            "--design" => {
                design_name = it.next().ok_or("--design needs a value")?.clone();
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown analyze option `{flag}`\n{USAGE}").into());
            }
            _ => positional.push(arg.clone()),
        }
    }
    let which = positional.first().map_or("all", String::as_str);
    if positional.len() > 1 {
        return Err(USAGE.into());
    }
    let loads: Vec<&'static str> = if which == "all" {
        NAMED_LOADS.to_vec()
    } else {
        let name = NAMED_LOADS.iter().find(|l| **l == which).ok_or_else(|| {
            format!(
                "unknown fault load `{which}` (known: all, {})",
                NAMED_LOADS.join(", ")
            )
        })?;
        vec![name]
    };

    let design = match design_name.as_str() {
        "8051" => design_8051()?,
        "demo-dead" => design_demo_dead()?,
        other => return Err(format!("unknown --design `{other}` (known: 8051, demo-dead)").into()),
    };

    let diagnostics = fades_analysis::lint(&design.implementation.bitstream);
    for d in &diagnostics {
        fades_telemetry::log_raw_line(&d.to_runlog_json(&design.label));
    }

    let n = fault_count_from_env();
    let seed = seed_from_env();
    let summaries: Vec<LoadSummary> = loads
        .iter()
        .map(|name| LoadSummary {
            load: name,
            result: static_silent_count(&design, name, n, seed),
        })
        .collect();

    if json_out {
        print_json(&design, &diagnostics, &summaries, n, seed);
    } else {
        print_text(&design, &diagnostics, &summaries, n, seed);
    }

    if fades_analysis::worst(&diagnostics) == Some(Severity::Error) {
        let errors = diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        return Err(format!(
            "design `{}` rejected: {errors} error-severity lint diagnostic(s)",
            design.label
        )
        .into());
    }
    Ok(())
}

/// Plans `load` and counts statically-Silent annotations.
fn static_silent_count(
    design: &AnalyzedDesign,
    load_name: &str,
    n: usize,
    seed: u64,
) -> Result<(usize, usize), String> {
    let load: FaultLoad = named_load_for(load_name, || {
        design.memory_targets.clone().unwrap_or_else(|| {
            // No memory on this design; let plan() report the miss.
            TargetClass::MemoryBits {
                name: "iram".into(),
                lo: 0,
                hi: 0,
            }
        })
    })
    .ok_or_else(|| format!("unknown fault load `{load_name}`"))?;
    let ports: Vec<&str> = design.ports.iter().map(String::as_str).collect();
    let campaign = Campaign::new(
        &design.netlist,
        design.implementation.clone(),
        &ports,
        design.run_cycles,
    )
    .map_err(|e| e.to_string())?;
    let plan = campaign.plan(&load, n, seed).map_err(|e| e.to_string())?;
    let silent = plan
        .experiments
        .iter()
        .filter(|e| e.annotation == PlanAnnotation::StaticSilent)
        .count();
    Ok((silent, plan.experiments.len()))
}

fn print_text(
    design: &AnalyzedDesign,
    diagnostics: &[Diagnostic],
    summaries: &[LoadSummary],
    n: usize,
    seed: u64,
) {
    let (luts, ffs, brams) = design.implementation.bitstream.utilisation();
    println!(
        "analyze `{}`: {luts} LUTs / {ffs} FFs / {brams} memory block(s), observing {:?}",
        design.label, design.ports
    );
    println!("\nlint: {} diagnostic(s)", diagnostics.len());
    for d in diagnostics {
        println!("  {d}");
    }
    println!("\nstatic pre-classification ({n} faults per load, seed {seed}):");
    for s in summaries {
        match &s.result {
            Ok((silent, total)) => {
                println!("  {:<12} {silent:>6} of {total} statically Silent", s.load);
            }
            Err(e) => println!("  {:<12} not plannable on this design: {e}", s.load),
        }
    }
}

fn print_json(
    design: &AnalyzedDesign,
    diagnostics: &[Diagnostic],
    summaries: &[LoadSummary],
    n: usize,
    seed: u64,
) {
    let diags: Vec<String> = diagnostics.iter().map(Diagnostic::to_json).collect();
    let loads: Vec<String> = summaries
        .iter()
        .map(|s| {
            let mut obj = JsonObject::new().str("load", s.load);
            match &s.result {
                Ok((silent, total)) => {
                    obj = obj
                        .u64("n", *total as u64)
                        .u64("static_silent", *silent as u64);
                }
                Err(e) => obj = obj.str("error", e),
            }
            obj.finish()
        })
        .collect();
    let worst = fades_analysis::worst(diagnostics).map_or("none", Severity::as_str);
    println!(
        "{}",
        JsonObject::new()
            .str("design", &design.label)
            .str("worst", worst)
            .u64("faults", n as u64)
            .u64("seed", seed)
            .raw("diagnostics", &json::array(&diags))
            .raw("loads", &json::array(&loads))
            .finish()
    );
}

fn design_8051() -> Result<AnalyzedDesign, Box<dyn Error>> {
    let ctx = ExperimentContext::new()?;
    let memory_targets = Some(ctx.memory_data_targets());
    let run_cycles = ctx.workload_cycles();
    let (soc, _workload, implementation, _) = ctx.into_parts();
    Ok(AnalyzedDesign {
        label: "8051-bubblesort".into(),
        netlist: soc.netlist,
        implementation,
        ports: fades_mcu8051::OBSERVED_PORTS
            .iter()
            .map(|p| (*p).to_string())
            .collect(),
        run_cycles,
        memory_targets,
    })
}

/// A counter observed on `q`, a shadow register nobody reads (dead
/// state), and inverters feeding only an unobserved debug port (dead
/// combinational logic). Faults confined to the shadow FFs or the
/// inverter LUTs provably never reach `q`.
fn design_demo_dead() -> Result<AnalyzedDesign, Box<dyn Error>> {
    let mut b = RtlBuilder::new("demo-dead");
    let r = b.reg("cnt", 4, 0);
    let q = r.q().clone();
    let next = b.add_const(&q, 1);
    b.connect(r, &next);
    b.output("q", &q);
    let shadow = b.reg("shadow", 4, 0);
    b.connect(shadow, &q);
    let mut dead = Vec::new();
    for i in 0..4 {
        dead.push(b.not_bit(q.bit(i)));
    }
    let dead_sig = fades_rtl::Signal::from_bits(dead);
    b.output("unused_dbg", &dead_sig);
    let netlist = b.finish()?;
    let implementation = implement(&netlist, fades_fpga::ArchParams::small())?;
    Ok(AnalyzedDesign {
        label: "demo-dead".into(),
        netlist,
        implementation,
        ports: vec!["q".into()],
        run_cycles: 200,
        memory_targets: None,
    })
}
