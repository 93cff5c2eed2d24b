//! The workloads: one iteration is a fresh setup followed by the
//! workload's public calls, each wrapped in a span and a counter delta.
//! Correctness checks run between calls, outside every timed span.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fades_core::{Campaign, CampaignPlan};
use fades_dispatch::{merge, run_shard, Journal, JournalRecord, ShardOptions};
use fades_experiments::dispatch_cli::named_load;
use fades_experiments::{table3, ExperimentContext};
use fades_telemetry::{drain_aggregates, trace, CampaignAggregate};

use crate::counters::{Counters, Engine, LayerWork};
use crate::host;
use crate::spans::{lane_busy, merge_intervals, ProgramEvent, Spans};

/// Faults per named load in the sweeps (the paper's campaign size).
pub const SWEEP_FAULTS: usize = 3000;
/// Shards each sweep load is split into (run one after another, then
/// merged), so the merge folds more than one journal.
pub const SHARDS: u32 = 2;
/// Fault samples a sweep run rotates through. A sweep's cost per fault
/// depends on which faults are sampled (the simulated cycles of 3000
/// `delay-wires` faults differ by up to 15% between seeds), so a run
/// spreads its iterations over several plans drawn from its seed and its
/// median averages over them.
pub const SWEEP_PLAN_SEEDS: u64 = 4;
/// Faults per Table 3 row and tool.
pub const TABLE3_FAULTS: usize = 20;
/// Experiments per sweep load re-run on the scalar oracle.
pub const ORACLE_SAMPLES: usize = 48;
/// Program trace-ring capacity for traced iterations (one sweep-lane
/// iteration records 12 000 experiment spans).
const TRACE_CAPACITY: usize = 1 << 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The four lane-expressible named loads, sharded and merged.
    SweepLane,
    /// The `delay-wires` load, sharded and merged (scalar path).
    SweepDelay,
    /// Table 3 regeneration (screening, FADES and VFIT campaigns).
    Table3,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SweepLane, Workload::SweepDelay, Workload::Table3];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepLane => "sweep-lane",
            Workload::SweepDelay => "sweep-delay",
            Workload::Table3 => "table3",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The named fault loads a sweep runs (empty for `table3`).
    pub fn loads(self) -> &'static [&'static str] {
        match self {
            Workload::SweepLane => &["bitflip-ffs", "bitflip-mem", "pulse-luts", "indet-ffs"],
            Workload::SweepDelay => &["delay-wires"],
            Workload::Table3 => &[],
        }
    }

    /// Plans a run rotates through: [`SWEEP_PLAN_SEEDS`] on the sweeps,
    /// one on `table3`, whose 3–5 iterations per run leave too few to
    /// repeat more than one plan.
    pub fn plan_seeds(self) -> u64 {
        match self {
            Workload::Table3 => 1,
            _ => SWEEP_PLAN_SEEDS,
        }
    }

    /// The seed of plan `slot` (taken modulo [`Workload::plan_seeds`]) of
    /// a run on `seed`: distinct seeds below 2^62 never share a plan.
    pub fn plan_seed(self, seed: u64, slot: u64) -> u64 {
        let n = self.plan_seeds();
        seed.wrapping_mul(n).wrapping_add(slot % n)
    }

    /// Faults per campaign: per named load on the sweeps, per row and
    /// tool on `table3` (recorded with every result).
    pub fn faults_per_campaign(self) -> usize {
        match self {
            Workload::Table3 => TABLE3_FAULTS,
            _ => SWEEP_FAULTS,
        }
    }
}

/// Setup times of one iteration, host seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `ExperimentContext::new`: model build, PnR, ISS reference run.
    pub context_s: f64,
    /// `fades_campaign`: device configuration and golden capture.
    pub golden_s: f64,
    /// `vfit_campaign`: netlist golden capture.
    pub vfit_golden_s: f64,
}

impl SetupTimes {
    /// Whole setup.
    pub fn total_s(&self) -> f64 {
        self.context_s + self.golden_s + self.vfit_golden_s
    }
}

/// Separate timings of setup pieces `ExperimentContext::new` runs
/// internally, plus the admission lint `run_shard` runs internally
/// (traced iterations only; outside the iteration span).
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `build_soc` on the benchmark ROM.
    pub soc_s: f64,
    /// `implement` on the built netlist.
    pub pnr_s: f64,
    /// `lint_gate` on the implemented bitstream.
    pub lint_s: f64,
}

/// Everything one iteration measured.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Whether program tracing and hot-path counters were on.
    pub traced: bool,
    /// Seed of the fault plans ([`Workload::plan_seed`]).
    pub plan_seed: u64,
    /// Setup times.
    pub setup: SetupTimes,
    /// Host speed over the iteration ([`host::speed`] of the reference
    /// samples taken before each call and after the last).
    pub speed: f64,
    /// Probe times (traced iterations).
    pub probes: Option<Probes>,
    /// Host seconds of the timed work calls (plan, shard, merge, table3).
    pub work_s: f64,
    /// Process CPU seconds over the same calls.
    pub work_cpu_s: f64,
    /// Experiments attempted by the work calls.
    pub attempted: u64,
    /// Experiments completed (FADES, VFIT and screening).
    pub completed: u64,
    /// Experiments quarantined, missing or errored.
    pub failed: u64,
    /// FADES experiments with modelled emulation time.
    pub fades_faults: u64,
    /// Their summed modelled emulation seconds.
    pub modelled_s: f64,
    /// Host seconds in `Campaign::plan`.
    pub plan_s: f64,
    /// Host seconds in `run_shard`.
    pub shard_s: f64,
    /// Host seconds in `merge`.
    pub merge_s: f64,
    /// Journal bytes written.
    pub journal_bytes: u64,
    /// Lane-engine calls.
    pub lane: LayerWork,
    /// Scalar-path calls.
    pub scalar: LayerWork,
    /// VFIT campaigns.
    pub vfit: LayerWork,
    /// Counter deltas summed over the work calls.
    pub delta: Counters,
    /// Experiment run length (workload plus margin) in cycles.
    pub run_cycles: u64,
    /// Configuration-port operations over the FADES campaigns.
    pub reconfig_ops: u64,
    /// Configuration bytes moved over the FADES campaigns.
    pub reconfig_bytes: u64,
    /// Experiments those two sums cover.
    pub reconfig_faults: u64,
    /// Self time per span name (traced iterations).
    pub self_us: BTreeMap<String, u64>,
    /// Outcome statistics, modelled-seconds bits included: identical for
    /// every iteration of one plan seed.
    pub fingerprint: String,
    /// Correctness-check failures (empty when every check passed).
    pub mismatches: Vec<String>,
}

impl Iteration {
    /// Experiments completed per host second of work.
    pub fn raw_faults_per_s(&self) -> f64 {
        crate::counters::ratio(self.completed as f64, self.work_s)
    }

    /// Experiments completed per second of work at the reference host's
    /// speed.
    pub fn faults_per_s(&self) -> f64 {
        crate::counters::ratio(self.completed as f64, self.work_s * self.speed)
    }

    /// Setup seconds at the reference host's speed.
    pub fn setup_s(&self) -> f64 {
        self.setup.total_s() * self.speed
    }
}

/// Microseconds on the program's trace clock, so benchmark spans and
/// program trace events share one timeline.
fn now_us() -> u64 {
    trace::epoch_us()
}

/// One timed public call: its span, wall, CPU and counter delta.
struct Call {
    span: usize,
    wall_s: f64,
    cpu_s: f64,
    delta: Counters,
}

/// Drives iterations of one workload.
pub struct Bench {
    workload: Workload,
    seed: u64,
    /// Spans of every iteration.
    pub spans: Spans,
    /// The most recent traced iteration's program trace events.
    pub program_events: Vec<ProgramEvent>,
    journal_dir: PathBuf,
    /// Plan seeds already checked against the scalar oracle.
    oracle_checked: BTreeSet<u64>,
    /// One reference kernel per campaign worker thread.
    references: Vec<host::Reference>,
    /// Reference samples since the current iteration or setup began.
    samples: Vec<f64>,
}

impl Bench {
    /// A bench writing its shard journals under `journal_dir`.
    pub fn new(workload: Workload, seed: u64, journal_dir: PathBuf) -> Bench {
        Bench {
            workload,
            seed,
            spans: Spans::default(),
            program_events: Vec::new(),
            journal_dir,
            oracle_checked: BTreeSet::new(),
            references: (0..fades_core::worker_threads())
                .map(|_| host::Reference::default())
                .collect(),
            samples: Vec::new(),
        }
    }

    fn call<T>(
        &mut self,
        name: &str,
        f: impl FnOnce() -> Result<T, Box<dyn Error>>,
    ) -> Result<(T, Call), Box<dyn Error>> {
        self.samples
            .push(host::sample_together(&mut self.references));
        let before = Counters::read();
        let cpu0 = host::cpu_seconds();
        let span = self.spans.open(name, now_us());
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        self.spans.close(span, now_us());
        let call = Call {
            span,
            wall_s,
            cpu_s: host::cpu_seconds() - cpu0,
            delta: Counters::read().since(&before),
        };
        Ok((out?, call))
    }

    /// The first setup step, `ExperimentContext::new`.
    fn setup_context(&mut self) -> Result<(ExperimentContext, f64), Box<dyn Error>> {
        let (ctx, c) = self.call("setup.context", ExperimentContext::new)?;
        Ok((ctx, c.wall_s))
    }

    /// The golden captures closing a setup: the FADES campaign (kept) and
    /// the VFIT campaign (dropped; `table3::run` builds its own).
    fn setup_goldens<'c>(
        &mut self,
        ctx: &'c ExperimentContext,
        context_s: f64,
    ) -> Result<(Campaign<'c>, SetupTimes), Box<dyn Error>> {
        let (campaign, g) = self.call("setup.golden", || Ok(ctx.fades_campaign()?))?;
        let (_, v) = self.call("setup.vfit_golden", || Ok(ctx.vfit_campaign()?))?;
        let times = SetupTimes {
            context_s,
            golden_s: g.wall_s,
            vfit_golden_s: v.wall_s,
        };
        Ok((campaign, times))
    }

    /// One setup with nothing after it (extra samples for `setup_s`), and
    /// the host speed measured around it.
    pub fn setup_only(&mut self) -> Result<(SetupTimes, f64), Box<dyn Error>> {
        self.samples.clear();
        let s = self.spans.open("setup", now_us());
        let (ctx, context_s) = self.setup_context()?;
        let (_, times) = self.setup_goldens(&ctx, context_s)?;
        self.spans.close(s, now_us());
        self.samples
            .push(host::sample_together(&mut self.references));
        Ok((times, host::speed(&self.samples)))
    }

    /// Runs one iteration on plan `slot`: setup, then the workload's calls.
    pub fn iteration(
        &mut self,
        run: u32,
        slot: u64,
        traced: bool,
    ) -> Result<Iteration, Box<dyn Error>> {
        fades_telemetry::set_enabled(traced);
        trace::set_enabled_with_capacity(traced, TRACE_CAPACITY);
        drain_aggregates();
        self.samples.clear();
        self.spans.set_run(run);
        let mut it = Iteration {
            traced,
            plan_seed: self.workload.plan_seed(self.seed, slot),
            ..Iteration::default()
        };
        if traced {
            it.probes = Some(self.probes()?);
        }
        let first_span = self.spans.all().len();
        let root = self.spans.open("iteration", now_us());
        let s = self.spans.open("setup", now_us());
        let (ctx, context_s) = self.setup_context()?;
        let (campaign, setup) = self.setup_goldens(&ctx, context_s)?;
        self.spans.close(s, now_us());
        it.setup = setup;
        it.run_cycles = campaign.run_cycles();
        let mut calls = Vec::new();
        match self.workload {
            Workload::Table3 => self.table3(&ctx, &mut it, &mut calls)?,
            w => {
                let oracle = self.oracle_checked.insert(it.plan_seed);
                for load in w.loads() {
                    self.sweep_load(&ctx, &campaign, load, oracle, &mut it, &mut calls)?;
                }
            }
        }
        self.spans.close(root, now_us());
        self.samples
            .push(host::sample_together(&mut self.references));
        it.speed = host::speed(&self.samples);
        for (_, c) in &calls {
            it.work_s += c.wall_s;
            it.work_cpu_s += c.cpu_s;
            it.delta.add(&c.delta);
        }
        if traced {
            trace::set_enabled_with_capacity(false, TRACE_CAPACITY);
            fades_telemetry::set_enabled(false);
            self.attribute_engine_time(root, &calls);
            let spans = &self.spans.all()[first_span..];
            let times = crate::spans::self_times(self.spans.all());
            for (i, s) in spans.iter().enumerate() {
                *it.self_us.entry(s.name.clone()).or_insert(0) += times[first_span + i];
            }
        }
        Ok(it)
    }

    fn probes(&mut self) -> Result<Probes, Box<dyn Error>> {
        let rom = fades_mcu8051::workloads::bubblesort().rom;
        let (soc, soc_c) = self.call("probe.soc", || Ok(fades_mcu8051::build_soc(&rom)?))?;
        let (imp, pnr_c) = self.call("probe.pnr", || {
            Ok(fades_pnr::implement(
                &soc.netlist,
                fades_fpga::ArchParams::virtex1000_like(),
            )?)
        })?;
        let ((), lint_c) = self.call("probe.lint", || {
            fades_dispatch::lint_gate(&imp.bitstream)?;
            Ok(())
        })?;
        Ok(Probes {
            soc_s: soc_c.wall_s,
            pnr_s: pnr_c.wall_s,
            lint_s: lint_c.wall_s,
        })
    }

    /// Plans one named load, runs its shards through `run_shard`, merges
    /// the journals, then checks the merge (and, on the first iteration
    /// of each plan seed, a strided subsample against the scalar oracle).
    fn sweep_load(
        &mut self,
        ctx: &ExperimentContext,
        campaign: &Campaign,
        load_name: &str,
        oracle: bool,
        it: &mut Iteration,
        calls: &mut Vec<(&'static str, Call)>,
    ) -> Result<(), Box<dyn Error>> {
        let load = named_load(ctx, load_name).ok_or_else(|| format!("unknown load {load_name}"))?;
        let seed = it.plan_seed;
        let (plan, c) = self.call("plan", || Ok(campaign.plan(&load, SWEEP_FAULTS, seed)?))?;
        it.plan_s += c.wall_s;
        calls.push(("plan", c));
        it.attempted += plan.len() as u64;

        std::fs::create_dir_all(&self.journal_dir)?;
        let paths: Vec<PathBuf> = (0..SHARDS)
            .map(|s| self.journal_dir.join(format!("{load_name}-{s}.jsonl")))
            .collect();
        for p in &paths {
            remove_if_present(p)?;
        }
        let opts = ShardOptions {
            load: load_name.to_string(),
            with_recorder: true,
            ..ShardOptions::default()
        };
        for (shard, path) in paths.iter().enumerate() {
            let (outcome, c) = self.call("dispatch.shard", || {
                Ok(run_shard(
                    campaign,
                    &plan,
                    shard as u32,
                    SHARDS,
                    path,
                    &opts,
                )?)
            })?;
            let engine = Engine::of(&c.delta);
            let layer = match engine {
                Engine::Lane => &mut it.lane,
                Engine::Scalar => &mut it.scalar,
            };
            layer.add(c.wall_s, c.cpu_s, outcome.executed, it.run_cycles);
            it.shard_s += c.wall_s;
            for a in drain_aggregates() {
                add_reconfig(it, &a);
            }
            calls.push((engine.layer(), c));
        }
        let (report, c) = self.call("dispatch.merge", || Ok(merge(&paths)?))?;
        it.merge_s += c.wall_s;
        calls.push(("dispatch.merge", c));

        // --- checks, outside every timed span ---------------------------
        for p in &paths {
            it.journal_bytes += std::fs::metadata(p)?.len();
        }
        let missing = report.missing.len() as u64 + report.quarantined.len() as u64;
        it.failed += missing;
        if !report.is_complete() || report.completed != plan.len() as u64 {
            it.mismatches.push(format!(
                "{load_name}: merged journals cover {} of {} planned experiments ({} missing, {} quarantined)",
                report.completed,
                plan.len(),
                report.missing.len(),
                report.quarantined.len()
            ));
        }
        it.completed += report.completed;
        it.fades_faults += report.stats.n as u64;
        it.modelled_s += report.stats.emulation_seconds;
        let o = report.stats.outcomes;
        let _ = write!(
            it.fingerprint,
            "{load_name}:n={},f={},l={},s={},emu={:016x};",
            report.stats.n,
            o.failures,
            o.latents,
            o.silents,
            report.stats.emulation_seconds.to_bits()
        );
        if oracle {
            check_against_oracle(campaign, &plan, &paths, load_name, &mut it.mismatches)?;
        }
        for p in &paths {
            remove_if_present(p)?;
        }
        Ok(())
    }

    /// Regenerates Table 3 through `table3::run` and splits the call
    /// between VFIT (its campaigns' own wall time) and the scalar path.
    fn table3(
        &mut self,
        ctx: &ExperimentContext,
        it: &mut Iteration,
        calls: &mut Vec<(&'static str, Call)>,
    ) -> Result<(), Box<dyn Error>> {
        let seed = it.plan_seed;
        let (result, c) = self.call("table3", || Ok(table3::run(ctx, TABLE3_FAULTS, seed)?))?;
        let aggregates = drain_aggregates();
        let (vfit_aggs, fades_aggs): (Vec<&CampaignAggregate>, Vec<&CampaignAggregate>) =
            aggregates.iter().partition(|a| a.name.starts_with("vfit "));
        let vfit_wall: f64 = vfit_aggs
            .iter()
            .map(|a| a.wall_s)
            .sum::<f64>()
            .min(c.wall_s);
        let share = crate::counters::ratio(vfit_wall, c.wall_s);
        it.vfit
            .add(vfit_wall, c.cpu_s * share, c.delta.vfit_experiments, 0);
        it.scalar.add(
            c.wall_s - vfit_wall,
            c.cpu_s * (1.0 - share),
            c.delta.fades_experiments,
            it.run_cycles,
        );
        it.attempted += c.delta.fades_experiments + c.delta.vfit_experiments;
        it.completed += c.delta.fades_experiments + c.delta.vfit_experiments;
        it.failed += c.delta.quarantines;
        for a in &fades_aggs {
            it.fades_faults += a.n;
            it.modelled_s += a.modelled_s;
            add_reconfig(it, a);
        }
        calls.push(("table3", c));

        // --- checks -----------------------------------------------------
        let expected_rows = 17;
        if result.rows.len() != expected_rows {
            it.mismatches.push(format!(
                "table3: {} rows, expected {expected_rows}",
                result.rows.len()
            ));
        }
        for a in &aggregates {
            if a.n != TABLE3_FAULTS as u64 {
                it.mismatches.push(format!(
                    "table3: campaign `{}` recorded {} experiments, expected {TABLE3_FAULTS}",
                    a.name, a.n
                ));
            }
            let o = a.outcomes;
            let _ = write!(
                it.fingerprint,
                "{}:n={},f={},l={},s={},emu={:016x};",
                a.name,
                a.n,
                o.failures,
                o.latents,
                o.silents,
                a.modelled_s.to_bits()
            );
        }
        for r in &result.rows {
            let _ = write!(
                it.fingerprint,
                "{}/{}/{}:{:016x}/{};",
                r.model,
                r.location,
                r.duration,
                r.fades_failure_pct.to_bits(),
                r.vfit_failure_pct.map_or(0, f64::to_bits)
            );
        }
        Ok(())
    }

    /// Adds, under each engine call span, child spans covering the
    /// engine's busy time inside the call, from the program's trace ring:
    /// the union of its experiment spans for the scalar path and VFIT
    /// (whose spans tile their worker threads), [`lane_busy`] for the lane
    /// engine. The rest of a `dispatch.shard` span is dispatch self time
    /// (lint, journal open/replay, thread start-up); the rest of a
    /// `table3` span is its own orchestration and in-call golden captures.
    fn attribute_engine_time(&mut self, root: usize, calls: &[(&'static str, Call)]) {
        let (start, end) = {
            let r = self.spans.get(root);
            (r.start_us, r.end_us)
        };
        let events: Vec<ProgramEvent> = trace::snapshot_events()
            .into_iter()
            .filter(|e| e.ts_us >= start && e.ts_us + e.dur_us <= end)
            .map(|e| ProgramEvent {
                name: e.name,
                ts_us: e.ts_us,
                dur_us: e.dur_us,
                tid: e.tid,
                experiment: e.experiment,
            })
            .collect();
        for (layer, c) in calls {
            let span = self.spans.get(c.span).clone();
            let engines: &[(&str, &str)] = match *layer {
                "lane" => &[("experiment", "lane")],
                "scalar" => &[("experiment", "scalar")],
                "table3" => &[("experiment", "scalar"), ("vfit-experiment", "vfit")],
                _ => &[],
            };
            for (event, engine) in engines {
                let inside = events.iter().filter(|e| e.name == *event).map(|e| {
                    (
                        e.tid,
                        e.ts_us.max(span.start_us),
                        (e.ts_us + e.dur_us).min(span.end_us),
                    )
                });
                let busy = if *engine == "lane" {
                    lane_busy(inside, span.end_us).into_iter().collect()
                } else {
                    merge_intervals(&inside.map(|(_, s, e)| (s, e)).collect::<Vec<_>>())
                };
                for (s, e) in busy {
                    self.spans.push(engine, s, e, Some(c.span));
                }
            }
        }
        self.program_events = events;
    }
}

fn add_reconfig(it: &mut Iteration, a: &CampaignAggregate) {
    it.reconfig_ops += a.ops;
    it.reconfig_bytes += a.readback_bytes + a.write_bytes + a.bulk_bytes;
    it.reconfig_faults += a.n;
}

fn remove_if_present(p: &Path) -> std::io::Result<()> {
    match std::fs::remove_file(p) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Re-runs every `stride`-th planned experiment on the scalar `Device`
/// oracle (`Campaign::execute`) and compares outcome and modelled-seconds
/// bits with what the shards journaled.
fn check_against_oracle(
    campaign: &Campaign,
    plan: &CampaignPlan,
    journals: &[PathBuf],
    load_name: &str,
    mismatches: &mut Vec<String>,
) -> Result<(), Box<dyn Error>> {
    let mut journaled = BTreeMap::new();
    for p in journals {
        for (index, record) in Journal::load(p)?.completed {
            if let JournalRecord::Completed {
                outcome,
                modelled_seconds,
                ..
            } = record
            {
                journaled.insert(index, (outcome, modelled_seconds));
            }
        }
    }
    let stride = (plan.len() / ORACLE_SAMPLES).max(1) as u64;
    let mut sample = plan.clone();
    sample.experiments.retain(|e| e.index % stride == 0);
    let results = campaign.execute(&sample, None)?;
    for (e, r) in sample.experiments.iter().zip(&results) {
        let modelled = campaign
            .time_model()
            .experiment_seconds(&r.traffic, campaign.golden().cycles());
        match journaled.get(&e.index) {
            Some(&(outcome, secs))
                if outcome == r.outcome && secs.to_bits() == modelled.to_bits() => {}
            got => mismatches.push(format!(
                "{load_name} #{}: journaled {got:?}, scalar oracle ({}, {modelled})",
                e.index, r.outcome
            )),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_seeds_rotate_within_a_seed_and_never_overlap_across_seeds() {
        let w = Workload::SweepDelay;
        let plans = |seed| -> BTreeSet<u64> { (0..8).map(|k| w.plan_seed(seed, k)).collect() };
        assert_eq!(plans(7).len(), SWEEP_PLAN_SEEDS as usize);
        assert!(plans(7).is_disjoint(&plans(8)));
        assert_eq!(w.plan_seed(7, 1), w.plan_seed(7, 1 + SWEEP_PLAN_SEEDS));
        assert_eq!(Workload::Table3.plan_seed(7, 3), 7);
    }
}
