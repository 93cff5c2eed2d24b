//! Fault-injection campaigns: thousands of experiments, run in parallel.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use fades_fpga::{CbCoord, Device};
use fades_netlist::Netlist;
use fades_pnr::Implementation;
use fades_telemetry::{ExperimentRecord, Recorder, RecorderHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::classify::{Outcome, OutcomeStats};
use crate::error::CoreError;
use crate::experiment::{run_experiment, ExperimentResult, FaultSchedule};
use crate::golden::GoldenRun;
use crate::location::{resolve_targets, sample_fault, DurationRange, FaultLoad, TargetClass};
use crate::plan::{CampaignPlan, ChaosPanic, ExperimentVerdict, PlannedExperiment};
use crate::strategies::strategy_for;
use crate::timing::TimeModel;

/// Tunables of a campaign run.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Worker threads (experiments are embarrassingly parallel; each
    /// worker clones the configured device).
    pub threads: usize,
    /// Extra cycles executed beyond the workload's nominal completion so
    /// delayed completions still count as observed differences.
    pub margin_cycles: u64,
    /// Whether experiments use the checkpointed fast-forward path
    /// (golden-prefix skip plus early-stop convergence detection). Both
    /// shortcuts change host wall-clock only — outcomes and modelled
    /// emulation time are identical to the full-simulation path.
    pub fastpath: bool,
    /// Whether campaigns run on the bit-parallel lane engine (63
    /// experiments plus the golden run per `u64` word). Like
    /// [`fastpath`](CampaignConfig::fastpath), a host-side shortcut only:
    /// outcomes, traffic and modelled emulation time are bit-identical to
    /// the scalar path. With this off, [`Campaign::run`] and every other
    /// entry point execute on the scalar `Device` — the reference the
    /// lane engine is tested against.
    pub batch: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            threads: worker_threads(),
            margin_cycles: 64,
            fastpath: fastpath_default(),
            batch: batch_default(),
        }
    }
}

/// Default for [`CampaignConfig::fastpath`]: enabled unless the
/// `FADES_NO_FASTPATH` escape hatch is set to a non-empty value other
/// than `0` (kept available for equivalence testing and debugging).
///
/// Read per call — not cached — so one process can construct configs on
/// both paths (the equivalence test relies on this).
pub fn fastpath_default() -> bool {
    !matches!(std::env::var("FADES_NO_FASTPATH"), Ok(v) if !v.is_empty() && v != "0")
}

/// Default for [`CampaignConfig::batch`]: enabled unless the
/// `FADES_NO_BATCH` escape hatch is set to a non-empty value other than
/// `0` (kept available for equivalence testing and debugging).
///
/// Read per call — not cached — so one process can construct configs on
/// both paths (the differential test relies on this).
pub fn batch_default() -> bool {
    !matches!(std::env::var("FADES_NO_BATCH"), Ok(v) if !v.is_empty() && v != "0")
}

/// Campaign worker-thread count: `FADES_THREADS` when set to a positive
/// integer, otherwise `min(available_parallelism, 8)`.
///
/// Parsed once per process (and the "ignoring invalid" warning printed
/// at most once) — campaigns call this per run and the answer cannot
/// meaningfully change mid-process.
pub fn worker_threads() -> usize {
    static WORKER_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKER_THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("FADES_THREADS") {
            match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => return n,
                _ => eprintln!("warning: ignoring invalid FADES_THREADS=`{v}`"),
            }
        }
        std::thread::available_parallelism().map_or(4, |n| n.get().min(8))
    })
}

/// Aggregated results of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Outcome counts.
    pub outcomes: OutcomeStats,
    /// Modelled total emulation time of the whole campaign in seconds
    /// (the quantity of the paper's Figure 10 / Table 2).
    pub emulation_seconds: f64,
    /// Experiments executed.
    pub n: usize,
}

impl CampaignStats {
    /// Experiments executed.
    pub fn total(&self) -> usize {
        self.n
    }

    /// Mean modelled seconds per injected fault (0 for an empty
    /// campaign — never a division by zero).
    pub fn mean_seconds_per_fault(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.emulation_seconds / self.n as f64
        }
    }

    /// Folds one experiment into the stats.
    ///
    /// This is *the* accumulation step of a campaign: the monolithic
    /// runner and `fades-dispatch`'s shard merge both fold experiments
    /// through here in ascending plan order, which is what makes merged
    /// shard stats bit-identical to a single-process run (floating-point
    /// addition is order-sensitive, so the order is part of the
    /// contract).
    pub fn accumulate(&mut self, outcome: Outcome, modelled_seconds: f64) {
        self.outcomes.record(outcome);
        self.emulation_seconds += modelled_seconds;
        self.n += 1;
    }
}

/// How the executors — scalar and lane — respond to a failing
/// experiment.
#[derive(Clone, Copy)]
pub(crate) enum ExecMode<'a> {
    /// Propagate the first error; let panics unwind the worker (they are
    /// converted to [`CoreError::ExperimentPanic`] at join time).
    FailFast,
    /// Contain panics and errors per experiment: retry `retries` times on
    /// a pristine device, then quarantine. `observer` sees every verdict
    /// as it is decided, from the deciding worker thread.
    Isolated {
        retries: u32,
        observer: Option<&'a (dyn Fn(&ExperimentVerdict) + Sync)>,
    },
}

/// The run-log record of one decided experiment; `engine` names the
/// executor that decided it (`"lane"` or `"scalar"`).
fn experiment_record(
    target: &str,
    index: u64,
    result: &ExperimentResult,
    modelled_s: f64,
    attempts: u32,
    engine: &'static str,
) -> ExperimentRecord {
    let t = &result.traffic;
    ExperimentRecord {
        index,
        target: target.to_string(),
        strategy: result.strategy.to_string(),
        outcome: result.outcome.as_str(),
        modelled_s,
        ops: t.ops as u64,
        readback_ops: t.readback_ops as u64,
        write_ops: t.write_ops as u64,
        bulk_ops: t.bulk_ops as u64,
        pulse_ops: t.pulse_ops as u64,
        readback_bytes: t.readback_bytes,
        write_bytes: t.write_bytes,
        bulk_bytes: t.bulk_bytes,
        skipped_cycles: result.skipped_cycles,
        early_stop_cycles: result.early_stop_cycles,
        wall_us: result.wall_us,
        attempts: u64::from(attempts),
        engine,
    }
}

/// Files one decided experiment from the thread that decided it: its
/// run-log record (quarantined experiments have none), then, under
/// isolation, the observer. `engine` names the executor (`"lane"` or
/// `"scalar"`).
fn file_verdict(
    verdict: &ExperimentVerdict,
    target: &str,
    engine: &'static str,
    rec: Option<&RecorderHandle>,
    mode: ExecMode<'_>,
) {
    if let (
        Some(h),
        ExperimentVerdict::Completed {
            index,
            result,
            modelled_seconds,
            attempts,
        },
    ) = (rec, verdict)
    {
        h.record(experiment_record(
            target,
            *index,
            result,
            *modelled_seconds,
            *attempts,
            engine,
        ));
    }
    if let ExecMode::Isolated {
        observer: Some(f), ..
    } = mode
    {
        f(verdict);
    }
}

/// The results of fail-fast verdicts, which are never quarantined.
fn completed(verdicts: Vec<ExperimentVerdict>) -> Vec<ExperimentResult> {
    verdicts
        .into_iter()
        .map(|v| match v {
            ExperimentVerdict::Completed { result, .. } => result,
            ExperimentVerdict::Quarantined { .. } => {
                unreachable!("fail-fast execution never quarantines")
            }
        })
        .collect()
}

/// Renders a panic payload for error reports (string payloads pass
/// through; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A prepared fault-injection campaign over one implemented design.
///
/// Holds the configured device, the golden run and the time model; each
/// [`run`](Campaign::run) executes a fault load against it. See the crate
/// documentation for an example.
#[derive(Debug)]
pub struct Campaign<'n> {
    netlist: &'n Netlist,
    implementation: Implementation,
    ports: Vec<String>,
    run_cycles: u64,
    golden: GoldenRun,
    device: Device,
    time_model: TimeModel,
    config: CampaignConfig,
}

impl<'n> Campaign<'n> {
    /// Prepares a campaign: configures the device, captures the golden
    /// run over `workload_cycles` plus a safety margin.
    ///
    /// # Errors
    ///
    /// Propagates device-configuration errors and unknown observed ports.
    pub fn new(
        netlist: &'n Netlist,
        implementation: Implementation,
        observed_ports: &[&str],
        workload_cycles: u64,
    ) -> Result<Self, CoreError> {
        Self::with_config(
            netlist,
            implementation,
            observed_ports,
            workload_cycles,
            CampaignConfig::default(),
        )
    }

    /// [`Campaign::new`] with explicit tunables.
    ///
    /// # Errors
    ///
    /// Propagates device-configuration errors and unknown observed ports.
    pub fn with_config(
        netlist: &'n Netlist,
        implementation: Implementation,
        observed_ports: &[&str],
        workload_cycles: u64,
        config: CampaignConfig,
    ) -> Result<Self, CoreError> {
        let mut device = Device::configure(implementation.bitstream.clone())?;
        let ports: Vec<String> = observed_ports
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let run_cycles = workload_cycles + config.margin_cycles;
        let golden = GoldenRun::capture(&mut device, &ports, run_cycles)?;
        let time_model = TimeModel::paper_calibrated(device.arch());
        Ok(Campaign {
            netlist,
            implementation,
            ports,
            run_cycles,
            golden,
            device,
            time_model,
            config,
        })
    }

    /// The golden run this campaign classifies against.
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// The implementation under test.
    pub fn implementation(&self) -> &Implementation {
        &self.implementation
    }

    /// The netlist under test.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The time model used for emulation-time reporting.
    pub fn time_model(&self) -> &TimeModel {
        &self.time_model
    }

    /// Experiment run length in cycles (workload plus margin).
    pub fn run_cycles(&self) -> u64 {
        self.run_cycles
    }

    /// The campaign's tunables.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Modelled emulation seconds of one executed experiment.
    fn modelled_seconds(&self, result: &ExperimentResult) -> f64 {
        self.time_model
            .experiment_seconds(&result.traffic, self.golden.cycles())
    }

    /// Runs `n_faults` experiments of the given fault load and aggregates
    /// outcome statistics and modelled emulation time.
    ///
    /// Experiments execute on the bit-parallel lane engine: cohorts of up
    /// to 63 emulated simultaneously, one per `u64` lane, with lane 0
    /// replaying the golden run. Faults the lanes cannot express (routing
    /// delays, oscillating indeterminations) run on the scalar `Device`
    /// within the same call. The scalar path is the oracle: with
    /// [`CampaignConfig::batch`] off (or `FADES_NO_BATCH` set) everything
    /// runs there, as does [`execute`](Campaign::execute); outcomes,
    /// configuration traffic and modelled seconds are bit-identical either
    /// way.
    ///
    /// # Errors
    ///
    /// Returns an error if the target class resolves to nothing, or if an
    /// experiment fails to reconfigure.
    pub fn run(
        &self,
        load: &FaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<CampaignStats, CoreError> {
        let label = load.target.to_string();
        self.run_named(&label, load, n_faults, seed)
    }

    /// [`run`](Campaign::run) with an explicit campaign label for the
    /// telemetry sinks (run log, summary table, `BENCH_campaign.json`).
    ///
    /// # Errors
    ///
    /// See [`run`](Campaign::run).
    pub fn run_named(
        &self,
        label: &str,
        load: &FaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<CampaignStats, CoreError> {
        let plan = self.plan(load, n_faults, seed)?;
        let threads = self.config.threads.max(1).min(n_faults.max(1));
        let recorder = Recorder::new(label, n_faults, threads);
        let results = self.execute_batched(&plan, Some(&recorder))?;
        let mut stats = CampaignStats::default();
        for result in &results {
            stats.accumulate(result.outcome, self.modelled_seconds(result));
        }
        recorder.finish();
        Ok(stats)
    }

    /// Like [`run`](Campaign::run), returning every per-experiment result
    /// in plan order. Does not feed the telemetry sinks.
    ///
    /// # Errors
    ///
    /// See [`run`](Campaign::run).
    pub fn run_detailed(
        &self,
        load: &FaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<Vec<ExperimentResult>, CoreError> {
        let plan = self.plan(load, n_faults, seed)?;
        self.execute_batched(&plan, None)
    }

    /// Executes every experiment of `plan` with lane-cohort batching (the
    /// engine behind [`run`](Campaign::run)), failing fast on the first
    /// experiment error; a panicking experiment surfaces as
    /// [`CoreError::ExperimentPanic`], as on the scalar path. Results come
    /// back in plan order. Accepts any plan — including a
    /// [shard](CampaignPlan::shard), which is how batched execution
    /// composes with `fades-dispatch`'s sharded runs.
    ///
    /// # Errors
    ///
    /// Propagates the first experiment error, or reports a panic.
    pub fn execute_batched(
        &self,
        plan: &CampaignPlan,
        recorder: Option<&Recorder>,
    ) -> Result<Vec<ExperimentResult>, CoreError> {
        Ok(completed(self.execute_lanes(
            plan,
            recorder,
            ExecMode::FailFast,
        )?))
    }

    /// Samples the campaign's complete fault list deterministically up
    /// front: `n_faults` experiments of `load`, each with its resolved
    /// fault, schedule and derived per-experiment seed.
    ///
    /// The plan is a pure function of `(campaign, load, n_faults, seed)`
    /// — independent of thread count and of which subset later executes —
    /// so [shards](CampaignPlan::shard) built in different processes
    /// partition exactly the fault set a monolithic run would inject.
    ///
    /// # Errors
    ///
    /// Returns an error if the target class resolves to nothing or the
    /// fault model cannot be sampled from the resolved pool.
    pub fn plan(
        &self,
        load: &FaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<CampaignPlan, CoreError> {
        let sites = resolve_targets(
            self.netlist,
            &self.implementation.map,
            &self.implementation.bitstream,
            &load.target,
        )?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut experiments = Vec::with_capacity(n_faults);
        let workload_cycles = self.run_cycles - self.config.margin_cycles;
        for i in 0..n_faults {
            let fault = sample_fault(load, &sites, &self.implementation.bitstream, &mut rng)?;
            let inject_at = rng.gen_range(0..workload_cycles.max(1));
            let duration = load.duration.sample(&mut rng);
            experiments.push(PlannedExperiment {
                index: i as u64,
                fault,
                schedule: FaultSchedule {
                    inject_at,
                    duration,
                },
                seed: seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
                annotation: crate::plan::PlanAnnotation::None,
            });
        }
        // Annotate unconditionally — the plan must stay a pure function
        // of its inputs, so shards built in different processes agree.
        self.annotate_static(&mut experiments);
        Ok(CampaignPlan {
            target: load.target.to_string(),
            sub_cycle: load.duration == DurationRange::SubCycle,
            seed,
            n_total: n_faults,
            experiments,
        })
    }

    /// Marks the experiments whose outcome the cone-of-influence analysis
    /// decides at plan time. The rules are deliberately conservative —
    /// each one rests on a healing argument the soundness suite checks
    /// dynamically:
    ///
    /// * **FF bit-flips** (single, multi, via GSR) on registers whose
    ///   output cone is combinationally dead: the flipped value feeds
    ///   nothing, and the register recaptures its pristine data input at
    ///   the very next clock edge (a dead Q rules out self-loops, so every
    ///   data input in the design stays pristine). No schedule condition
    ///   needed — injection always precedes that cycle's edge.
    /// * **LUT pulses / indeterminations** on provably dead LUTs: only
    ///   configuration memory is touched, the corrupted output reaches no
    ///   capture point, and configuration is not part of the final-state
    ///   snapshot.
    /// * **CB input pulses / FF indeterminations** on dead registers,
    ///   additionally requiring a bounded schedule with at least one clean
    ///   clock edge after removal (`inject_at + d < run_cycles`) and no
    ///   pristine setup-time violation on the register (a violated FF
    ///   captures one cycle stale and would heal one edge later).
    /// * **Memory flips, wire delays, permanent faults**: never — a
    ///   flipped memory bit persists into the final state, and the others
    ///   have no static healing argument.
    fn annotate_static(&self, experiments: &mut [PlannedExperiment]) {
        use crate::location::ResolvedFault as Rf;
        use crate::plan::PlanAnnotation;
        let eligible = |f: &Rf| {
            matches!(
                f,
                Rf::FfBitFlip { .. }
                    | Rf::MultiFfBitFlip { .. }
                    | Rf::LutPulse { .. }
                    | Rf::LutIndet { .. }
                    | Rf::CbInputPulse { .. }
                    | Rf::FfIndet { .. }
            )
        };
        if !experiments.iter().any(|e| eligible(&e.fault)) {
            return;
        }
        let cone =
            fades_analysis::ConeIndex::combinational(&self.implementation.bitstream, &self.ports);
        let run_cycles = self.run_cycles;
        for e in experiments {
            let healed_with_clean_edge = |cb: &CbCoord| {
                cone.ff_dead(*cb)
                    && !self.device.ff_timing_violated(*cb)
                    && matches!(e.schedule.duration,
                        Some(d) if d >= 1 && e.schedule.inject_at + d < run_cycles)
            };
            let silent = match &e.fault {
                Rf::FfBitFlip { cb, .. } => cone.ff_dead(*cb),
                Rf::MultiFfBitFlip { cbs } => {
                    !cbs.is_empty() && cbs.iter().all(|cb| cone.ff_dead(*cb))
                }
                Rf::LutPulse { cb, .. } | Rf::LutIndet { cb, .. } => cone.lut_dead(*cb),
                Rf::CbInputPulse { cb } | Rf::FfIndet { cb, .. } => healed_with_clean_edge(cb),
                Rf::MemBitFlip { .. } | Rf::WireDelay { .. } | Rf::Permanent { .. } => false,
            };
            if silent {
                e.annotation = PlanAnnotation::StaticSilent;
                fades_telemetry::analysis::STATIC_SILENT.inc();
            }
        }
    }

    /// Executes every experiment of `plan` on the scalar per-experiment
    /// `Device` — the oracle the lane engine is tested against — failing
    /// fast: the first experiment error aborts the run, and a panicking
    /// experiment surfaces as [`CoreError::ExperimentPanic`] naming the
    /// global index that was in flight (instead of tearing down the
    /// process).
    ///
    /// Results come back in plan order regardless of thread count.
    ///
    /// # Errors
    ///
    /// Propagates the first experiment error, or reports a worker panic.
    pub fn execute(
        &self,
        plan: &CampaignPlan,
        recorder: Option<&Recorder>,
    ) -> Result<Vec<ExperimentResult>, CoreError> {
        Ok(completed(self.execute_mode(
            plan,
            recorder,
            ExecMode::FailFast,
        )?))
    }

    /// Executes `plan` with per-experiment fault containment: each
    /// experiment runs under `catch_unwind`, a panicking or erroring
    /// attempt is retried `retries` more times on a freshly re-cloned
    /// pristine device, and an experiment that exhausts its attempts is
    /// [quarantined](ExperimentVerdict::Quarantined) — the campaign
    /// finishes without it instead of aborting.
    ///
    /// `observer` is invoked once per finished experiment, from the
    /// worker thread that ran it (this is how `fades-dispatch` journals
    /// progress crash-tolerantly — the journal line is written before the
    /// next experiment starts). Verdicts come back in plan order.
    ///
    /// Retries are deterministic replays: every attempt re-seeds the
    /// experiment RNG from the plan, so a retry that succeeds produces
    /// the same result the first attempt would have.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures (an unknown observed port resolving
    /// mid-run, never per-experiment faults) can surface here; experiment
    /// panics and errors are quarantined, not propagated.
    pub fn execute_isolated(
        &self,
        plan: &CampaignPlan,
        retries: u32,
        recorder: Option<&Recorder>,
        observer: Option<&(dyn Fn(&ExperimentVerdict) + Sync)>,
    ) -> Result<Vec<ExperimentVerdict>, CoreError> {
        self.execute_mode(plan, recorder, ExecMode::Isolated { retries, observer })
    }

    /// The lane engine under the isolation contract: lane-expressible
    /// experiments run 63 per `u64` word, everything else goes through
    /// [`execute_isolated`](Self::execute_isolated) — same retry/quarantine
    /// semantics, same verdict shapes, outcomes and modelled seconds
    /// bit-identical to the scalar isolated path.
    ///
    /// `observer` is invoked at lane *retirement* — the moment a lane's
    /// outcome is decided, not when the whole cohort finishes — so a
    /// journaling observer forfeits at most the in-flight word of each
    /// lane thread on a kill.
    ///
    /// A panicking or erroring cohort is contained, not propagated: the
    /// experiments that were aboard the word and not yet retired are
    /// replayed on the scalar isolated path, where the per-experiment
    /// retry (`retries` attempts on a pristine device) and quarantine
    /// machinery isolates the actual offender. One poisoned fault
    /// therefore costs one scalar word replay, never the shard.
    /// Experiments never loaded into the poisoned word stay on the lanes
    /// (the engine is rebuilt from a pristine clone).
    ///
    /// Falls back to [`execute_isolated`](Self::execute_isolated)
    /// wholesale when [`CampaignConfig::batch`] is off or the design is
    /// not lane-encodable. Verdicts come back in plan order.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures (unknown observed port, invalid plan
    /// schedule) surface here; per-experiment faults are quarantined.
    pub fn execute_batched_isolated(
        &self,
        plan: &CampaignPlan,
        retries: u32,
        recorder: Option<&Recorder>,
        observer: Option<&(dyn Fn(&ExperimentVerdict) + Sync)>,
    ) -> Result<Vec<ExperimentVerdict>, CoreError> {
        self.execute_lanes(plan, recorder, ExecMode::Isolated { retries, observer })
    }

    /// The lane executor behind both failure policies: partitions `plan`
    /// into lane-expressible entries and the rest, runs the former on the
    /// lane engine and the latter — plus anything the lanes evicted —
    /// through [`execute_mode`](Self::execute_mode), and stitches the
    /// verdicts back into plan order. Runs everything through
    /// `execute_mode` when batching is off or the design is not
    /// lane-encodable (pristine memory contents carry bits beyond their
    /// declared width, or a word is wider than 64 bits).
    fn execute_lanes(
        &self,
        plan: &CampaignPlan,
        recorder: Option<&Recorder>,
        mode: ExecMode<'_>,
    ) -> Result<Vec<ExperimentVerdict>, CoreError> {
        let engine = (self.config.batch && !plan.is_empty())
            .then(|| fades_fpga::BatchDevice::new(&self.device))
            .flatten();
        let Some(pristine) = engine else {
            return self.execute_mode(plan, recorder, mode);
        };
        let (lane_entries, mut scalar_entries): (Vec<_>, Vec<_>) = plan
            .experiments
            .iter()
            .partition(|e| crate::batch::lane_expressible(&e.fault));
        let settle = |index, result, handle: Option<&RecorderHandle>| {
            let verdict = ExperimentVerdict::Completed {
                index,
                modelled_seconds: self.modelled_seconds(&result),
                attempts: 1,
                result,
            };
            file_verdict(&verdict, &plan.target, "lane", handle, mode);
            verdict
        };
        let (mut verdicts, evicted) = crate::batch::run_lane_cohorts(
            &pristine,
            &self.golden,
            &self.ports,
            plan.sub_cycle,
            &lane_entries,
            self.config.threads,
            mode,
            recorder,
            &settle,
        )?;
        scalar_entries.extend(evicted);
        let scalar_plan = plan.subplan(scalar_entries.into_iter().cloned());
        verdicts.extend(self.execute_mode(&scalar_plan, recorder, mode)?);

        // Stitch back into plan order (float accumulation order is part
        // of the bit-identical contract).
        let mut by_index: std::collections::HashMap<u64, ExperimentVerdict> =
            verdicts.into_iter().map(|v| (v.index(), v)).collect();
        Ok(plan
            .experiments
            .iter()
            .map(|e| {
                by_index
                    .remove(&e.index)
                    .unwrap_or_else(|| unreachable!("every plan entry was decided"))
            })
            .collect())
    }

    fn execute_mode(
        &self,
        plan: &CampaignPlan,
        recorder: Option<&Recorder>,
        mode: ExecMode<'_>,
    ) -> Result<Vec<ExperimentVerdict>, CoreError> {
        if plan.is_empty() {
            // Guard explicitly: an empty campaign has no work and a zero
            // chunk size would panic `chunks(0)` below.
            return Ok(Vec::new());
        }
        let chaos = ChaosPanic::from_env();
        let threads = self.config.threads.max(1).min(plan.len());
        let chunk = plan.len().div_ceil(threads);
        let n_chunks = plan.len().div_ceil(chunk);
        let mut results: Vec<Option<ExperimentVerdict>> = vec![None; plan.len()];
        // Every worker publishes the global index it is about to run, so
        // a panic escaping the fail-fast path can be attributed.
        let in_flight: Vec<AtomicU64> = (0..n_chunks).map(|_| AtomicU64::new(u64::MAX)).collect();

        crossbeam::thread::scope(|scope| -> Result<(), CoreError> {
            let mut handles = Vec::new();
            for ((chunk_plan, chunk_out), slot) in plan
                .experiments
                .chunks(chunk)
                .zip(results.chunks_mut(chunk))
                .zip(&in_flight)
            {
                let pristine = &self.device;
                let mut dev = pristine.clone();
                let ports = &self.ports;
                let golden = &self.golden;
                let rec: Option<RecorderHandle> = recorder.map(Recorder::handle);
                let target = plan.target.as_str();
                let sub_cycle = plan.sub_cycle;
                let fastpath = self.config.fastpath;
                handles.push(scope.spawn(move |_| -> Result<(), CoreError> {
                    for (planned, out) in chunk_plan.iter().zip(chunk_out.iter_mut()) {
                        slot.store(planned.index, Ordering::Release);
                        fades_telemetry::trace::set_current_experiment(planned.index);
                        let _span = fades_telemetry::span!("experiment");
                        let mut attempt = 0u32;
                        let verdict = loop {
                            let run_one =
                                |dev: &mut Device| -> Result<ExperimentResult, CoreError> {
                                    if let Some(c) = chaos {
                                        c.maybe_panic(planned.index, attempt);
                                    }
                                    let mut rng = StdRng::seed_from_u64(planned.seed);
                                    run_experiment(
                                        dev,
                                        golden,
                                        planned.fault.clone(),
                                        strategy_for(&planned.fault, sub_cycle),
                                        planned.schedule,
                                        ports,
                                        &mut rng,
                                        fastpath,
                                    )
                                };
                            let error = match mode {
                                ExecMode::FailFast => {
                                    // Let a panic unwind the worker; the
                                    // join below converts it into
                                    // `ExperimentPanic` via `slot`.
                                    let result = run_one(&mut dev)?;
                                    break ExperimentVerdict::Completed {
                                        index: planned.index,
                                        modelled_seconds: self.modelled_seconds(&result),
                                        attempts: 1,
                                        result,
                                    };
                                }
                                ExecMode::Isolated { .. } => {
                                    match catch_unwind(AssertUnwindSafe(|| run_one(&mut dev))) {
                                        Ok(Ok(result)) => {
                                            break ExperimentVerdict::Completed {
                                                index: planned.index,
                                                modelled_seconds: self.modelled_seconds(&result),
                                                attempts: attempt + 1,
                                                result,
                                            };
                                        }
                                        Ok(Err(e)) => e.to_string(),
                                        Err(payload) => panic_message(payload.as_ref()),
                                    }
                                }
                            };
                            // The attempt died mid-experiment: the device
                            // may hold a half-installed fault, so rebuild
                            // it from the pristine configuration.
                            dev = pristine.clone();
                            let retries = match mode {
                                ExecMode::Isolated { retries, .. } => retries,
                                ExecMode::FailFast => 0,
                            };
                            if attempt >= retries {
                                fades_telemetry::dispatch::QUARANTINES.inc();
                                break ExperimentVerdict::Quarantined {
                                    index: planned.index,
                                    error,
                                    attempts: attempt + 1,
                                };
                            }
                            fades_telemetry::dispatch::RETRIES.inc();
                            attempt += 1;
                        };
                        file_verdict(&verdict, target, "scalar", rec.as_ref(), mode);
                        *out = Some(verdict);
                    }
                    fades_telemetry::trace::clear_current_experiment();
                    Ok(())
                }));
            }
            for (h, slot) in handles.into_iter().zip(&in_flight) {
                match h.join() {
                    Ok(worker) => worker?,
                    Err(payload) => {
                        return Err(CoreError::ExperimentPanic {
                            index: slot.load(Ordering::Acquire),
                            message: panic_message(payload.as_ref()),
                        })
                    }
                }
            }
            Ok(())
        })
        .unwrap_or_else(|p| std::panic::resume_unwind(p))?;

        Ok(results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| unreachable!("all experiments decided")))
            .collect())
    }

    /// The paper's screening pass (§6.3): finds the flip-flop sites whose
    /// bit-flips can cause a Failure, by injecting `per_ff` flips into
    /// every used FF at random instants. The returned sites are the
    /// "registers eligible for being targeted by transient faults".
    ///
    /// Each FF's flips are sampled as their own `per_ff`-fault campaign
    /// (seed `seed ^ ((i + 1) << 20)` for the `i`-th used FF); the
    /// per-FF plans are concatenated into one plan (FF `i`, flip `k` at
    /// index `i·per_ff + k`) and executed in a single
    /// [`execute_batched`](Campaign::execute_batched) call.
    ///
    /// # Errors
    ///
    /// See [`run`](Campaign::run).
    pub fn screen_sensitive_ffs(
        &self,
        per_ff: usize,
        seed: u64,
    ) -> Result<Vec<CbCoord>, CoreError> {
        let all = self.implementation.bitstream.used_ffs();
        let mut plan = CampaignPlan {
            target: "FF screening".to_string(),
            sub_cycle: false,
            seed,
            n_total: all.len() * per_ff,
            experiments: Vec::with_capacity(all.len() * per_ff),
        };
        for (i, &cb) in all.iter().enumerate() {
            let load =
                FaultLoad::bit_flips(TargetClass::FfSites(vec![cb]), DurationRange::SubCycle);
            let ff_plan = self.plan(&load, per_ff, seed ^ ((i as u64 + 1) << 20))?;
            // All per-FF plans share the load's duration range, hence
            // the same `sub_cycle`.
            plan.sub_cycle = ff_plan.sub_cycle;
            plan.experiments
                .extend(ff_plan.experiments.into_iter().map(|mut e| {
                    e.index += (i * per_ff) as u64;
                    e
                }));
        }
        let results = self.execute_batched(&plan, None)?;
        Ok(all
            .iter()
            .zip(results.chunks(per_ff.max(1)))
            .filter(|(_, flips)| flips.iter().any(|r| r.outcome == Outcome::Failure))
            .map(|(&cb, _)| cb)
            .collect())
    }
}
