//! VFIT campaign runner.

use fades_core::{CoreError, FaultModel, Outcome, OutcomeStats, DEFAULT_CHECKPOINT_INTERVAL};
use fades_netlist::{CellId, Force, Netlist, OutputTrace, SimSnapshot, Simulator};
use fades_telemetry::{ExperimentRecord, Recorder, RecorderHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inject::{command_count, resolve, sample, VfitFault, VfitFaultLoad};
use crate::time_model::VfitTimeModel;

/// Cycles simulated past the end of the workload, so that faults injected
/// late still have time to reach an output.
const MARGIN_CYCLES: u64 = 64;

/// Aggregated results of a VFIT campaign.
#[derive(Debug, Clone, Default)]
pub struct VfitStats {
    /// Outcome counts.
    pub outcomes: OutcomeStats,
    /// Modelled simulation time in seconds.
    pub simulation_seconds: f64,
    /// Experiments executed.
    pub n: usize,
}

impl VfitStats {
    /// Experiments executed.
    pub fn total(&self) -> usize {
        self.n
    }

    /// Mean modelled seconds per fault.
    pub fn mean_seconds_per_fault(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.simulation_seconds / self.n as f64
        }
    }
}

/// One planned experiment: the fault, when it strikes, how long it stays,
/// and the seed of the experiment's own RNG stream.
#[derive(Debug)]
pub(crate) struct VfitExperiment {
    fault: VfitFault,
    inject_at: u64,
    duration: Option<u64>,
    seed: u64,
}

impl VfitExperiment {
    /// First cycle past the fault window: its forces are released at the
    /// end of the cycle before (`None` for permanent faults).
    fn expiry(&self) -> Option<u64> {
        self.duration.map(|d| self.inject_at.saturating_add(d))
    }

    /// Whether the fault issues no further simulator commands from the
    /// top of `cycle` on, and leaves no hold that the state hash cannot
    /// see. A bit-flip acts once, at `inject_at`. A windowed fault is gone
    /// once its forces were released at the end of the window. A
    /// permanent fault never is: its held registers are rewritten with
    /// `set_ff` every cycle, which no hash records.
    fn inert_at(&self, cycle: u64) -> bool {
        cycle > self.inject_at
            && match self.fault {
                VfitFault::FfBitFlip(_) | VfitFault::MemBitFlip { .. } => true,
                _ => self.expiry().is_some_and(|e| cycle >= e),
            }
    }

    /// Issues the simulator commands due at the top of `cycle`: the
    /// injection itself, then, while the window lasts, the per-cycle
    /// re-force of an oscillating signal and the hold of a forced
    /// register. (A VHDL `force` holds the register for the whole window;
    /// the oscillating variant re-randomises each cycle.)
    fn issue_commands(&self, sim: &mut Simulator<'_>, cycle: u64, rng: &mut StdRng) {
        if cycle == self.inject_at {
            apply(sim, &self.fault, rng);
            return;
        }
        if cycle < self.inject_at || self.expiry().is_some_and(|e| cycle >= e) {
            return;
        }
        match self.fault {
            VfitFault::SignalIndet {
                net,
                oscillating: true,
            } => {
                sim.release(net);
                sim.force(Force::stuck(net, rng.gen()));
            }
            VfitFault::FfIndet { cell, oscillating } => {
                let value = if oscillating {
                    rng.gen()
                } else {
                    held_value(cell)
                };
                sim.set_ff(cell, value);
            }
            _ => {}
        }
    }
}

/// How one experiment ended on the host.
#[derive(Debug)]
pub(crate) struct VfitRun {
    pub(crate) outcome: Outcome,
    /// Golden-prefix cycles skipped by restoring a checkpoint.
    pub(crate) skipped_cycles: u64,
    /// Tail cycles left unsimulated once the outcome was decided.
    pub(crate) early_stop_cycles: u64,
}

/// A prepared VFIT campaign over an HDL model.
///
/// See the crate documentation for an example.
#[derive(Debug)]
pub struct VfitCampaign<'n> {
    netlist: &'n Netlist,
    ports: Vec<String>,
    run_cycles: u64,
    golden_trace: OutputTrace,
    golden_state: Vec<u64>,
    /// Checkpoint `i` holds the golden state at the top of cycle
    /// `i * DEFAULT_CHECKPOINT_INTERVAL`.
    checkpoints: Vec<SimSnapshot>,
    /// `hashes[c]` is the golden state hash at the top of cycle `c`.
    hashes: Vec<u64>,
    /// A levelized power-on simulator; each worker clones it once.
    template: Simulator<'n>,
    time_model: VfitTimeModel,
}

impl<'n> VfitCampaign<'n> {
    /// Prepares a campaign: captures the golden simulation over
    /// `workload_cycles` plus a small margin, with a state checkpoint every
    /// [`DEFAULT_CHECKPOINT_INTERVAL`] cycles and a per-cycle state hash.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors (unknown ports, bad netlist).
    pub fn new(
        netlist: &'n Netlist,
        observed_ports: &[&str],
        workload_cycles: u64,
    ) -> Result<Self, CoreError> {
        let ports: Vec<String> = observed_ports
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let run_cycles = workload_cycles + MARGIN_CYCLES;
        let template = Simulator::new(netlist)?;
        let mut sim = template.clone();
        let mut trace = OutputTrace::new(ports.clone());
        let mut checkpoints = Vec::new();
        let mut hashes = Vec::with_capacity(run_cycles as usize);
        for cycle in 0..run_cycles {
            hashes.push(sim.state_hash());
            if cycle % DEFAULT_CHECKPOINT_INTERVAL == 0 {
                checkpoints.push(sim.save_state());
            }
            sim.settle();
            let mut row = Vec::with_capacity(ports.len());
            for p in &ports {
                row.push(sim.output_u64(p)?);
            }
            trace.push_cycle(row);
            sim.clock_edge();
        }
        Ok(VfitCampaign {
            netlist,
            ports,
            run_cycles,
            golden_trace: trace,
            golden_state: sim.state_snapshot(),
            checkpoints,
            hashes,
            template,
            time_model: VfitTimeModel::paper_calibrated(),
        })
    }

    /// The time model used for reporting.
    pub fn time_model(&self) -> &VfitTimeModel {
        &self.time_model
    }

    /// Runs `n_faults` experiments of the given fault load.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyTargetSet`] when nothing matches the
    /// target class — including the unsupported delay model.
    pub fn run(
        &self,
        load: &VfitFaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<VfitStats, CoreError> {
        let label = format!("vfit {:?}", load.target);
        self.run_named(&label, load, n_faults, seed)
    }

    /// [`run`](VfitCampaign::run) with an explicit campaign label for the
    /// telemetry sinks.
    ///
    /// # Errors
    ///
    /// See [`run`](VfitCampaign::run).
    pub fn run_named(
        &self,
        label: &str,
        load: &VfitFaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<VfitStats, CoreError> {
        let plan = self.plan(load, n_faults, seed)?;
        if plan.is_empty() {
            return Ok(VfitStats::default());
        }

        let threads = fades_core::worker_threads().min(plan.len());
        let chunk = plan.len().div_ceil(threads);
        let mut outcomes: Vec<Option<Outcome>> = vec![None; plan.len()];
        let recorder = Recorder::new(label, plan.len(), threads);
        let target_label = format!("{:?}", load.target);
        let strategy_label = format!("vfit-{:?}", load.model).to_lowercase();
        crossbeam::thread::scope(|scope| -> Result<(), CoreError> {
            let mut handles = Vec::new();
            for (t, (chunk_plan, chunk_out)) in plan
                .chunks(chunk)
                .zip(outcomes.chunks_mut(chunk))
                .enumerate()
            {
                let rec: RecorderHandle = recorder.handle();
                let target = target_label.as_str();
                let strategy = strategy_label.as_str();
                let base = t * chunk;
                handles.push(scope.spawn(move |_| -> Result<(), CoreError> {
                    let mut sim = self.simulator();
                    for (j, (exp, out)) in chunk_plan.iter().zip(chunk_out.iter_mut()).enumerate() {
                        let _span = fades_telemetry::span!("vfit-experiment");
                        let started = std::time::Instant::now();
                        let run = self.run_one(&mut sim, exp)?;
                        rec.record(ExperimentRecord {
                            index: (base + j) as u64,
                            target: target.to_string(),
                            strategy: strategy.to_string(),
                            outcome: run.outcome.as_str(),
                            modelled_s: self.experiment_seconds(exp),
                            skipped_cycles: run.skipped_cycles,
                            early_stop_cycles: run.early_stop_cycles,
                            wall_us: started.elapsed().as_micros() as u64,
                            engine: "vfit",
                            ..Default::default()
                        });
                        *out = Some(run.outcome);
                    }
                    Ok(())
                }));
            }
            for h in handles {
                h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))?;
            }
            Ok(())
        })
        .unwrap_or_else(|p| std::panic::resume_unwind(p))?;
        recorder.finish();
        Ok(self.tally(&plan, outcomes.into_iter().flatten()))
    }

    /// Samples the experiments of a campaign, in plan order.
    pub(crate) fn plan(
        &self,
        load: &VfitFaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<Vec<VfitExperiment>, CoreError> {
        if load.model == FaultModel::Delay {
            // The paper could not compare delay experiments: VFIT needs
            // the model to declare delays via generic clauses.
            return Err(CoreError::EmptyTargetSet(
                "VFIT does not support the delay model on this design".into(),
            ));
        }
        let pool = resolve(self.netlist, &load.target);
        if pool.is_empty() {
            return Err(CoreError::EmptyTargetSet(format!("{:?}", load.target)));
        }
        let workload_cycles = (self.run_cycles - MARGIN_CYCLES).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        Ok((0..n_faults)
            .map(|i| VfitExperiment {
                fault: sample(load, &pool, &mut rng),
                inject_at: rng.gen_range(0..workload_cycles),
                duration: load.duration.sample(&mut rng),
                seed: seed ^ (0xA076_1D64_78BD_642Fu64.wrapping_mul(i as u64 + 1)),
            })
            .collect())
    }

    /// A power-on simulator over the campaign's netlist.
    pub(crate) fn simulator(&self) -> Simulator<'n> {
        self.template.clone()
    }

    /// Modelled seconds of one experiment. It depends on the full run
    /// length only, never on how many cycles the host simulated.
    fn experiment_seconds(&self, exp: &VfitExperiment) -> f64 {
        self.time_model.experiment_seconds(
            self.netlist,
            self.run_cycles,
            command_count(&exp.fault, exp.duration),
        )
    }

    /// Folds per-experiment outcomes (in plan order) into campaign stats.
    pub(crate) fn tally(
        &self,
        plan: &[VfitExperiment],
        outcomes: impl IntoIterator<Item = Outcome>,
    ) -> VfitStats {
        let mut stats = VfitStats {
            n: plan.len(),
            ..Default::default()
        };
        for (exp, outcome) in plan.iter().zip(outcomes) {
            stats.outcomes.record(outcome);
            stats.simulation_seconds += self.experiment_seconds(exp);
        }
        stats
    }

    /// Runs one experiment on `sim`, shortening the host simulation at
    /// both ends without changing the outcome:
    ///
    /// * the golden checkpoint at or before `inject_at` is restored, since
    ///   the run before injection is fault-free and draws nothing from the
    ///   RNG, so the skipped rows are golden by construction;
    /// * the first output row that differs from the golden row decides
    ///   `Failure` (nothing later can undo a failure);
    /// * once the fault is inert and the state hash equals the golden hash
    ///   of the same cycle, every remaining cycle replays the golden run,
    ///   so the outcome is `Silent`.
    ///
    /// `sim` may hold any state on entry; the restore overwrites all of it.
    pub(crate) fn run_one(
        &self,
        sim: &mut Simulator<'n>,
        exp: &VfitExperiment,
    ) -> Result<VfitRun, CoreError> {
        let mut rng = StdRng::seed_from_u64(exp.seed);
        let index = (exp.inject_at / DEFAULT_CHECKPOINT_INTERVAL) as usize;
        let checkpoint = &self.checkpoints[index.min(self.checkpoints.len() - 1)];
        sim.restore_state(checkpoint);
        let start = checkpoint.cycle();
        let stopped = |outcome, early_stop_cycles| VfitRun {
            outcome,
            skipped_cycles: start,
            early_stop_cycles,
        };
        let mut row = Vec::with_capacity(self.ports.len());
        for cycle in start..self.run_cycles {
            if exp.inert_at(cycle) && sim.state_hash() == self.hashes[cycle as usize] {
                return Ok(stopped(Outcome::Silent, self.run_cycles - cycle));
            }
            exp.issue_commands(sim, cycle, &mut rng);
            sim.settle();
            row.clear();
            for p in &self.ports {
                row.push(sim.output_u64(p)?);
            }
            if self.golden_trace.row(cycle as usize) != Some(row.as_slice()) {
                return Ok(stopped(Outcome::Failure, self.run_cycles - cycle - 1));
            }
            sim.clock_edge();
            if Some(cycle + 1) == exp.expiry() {
                sim.clear_forces();
            }
        }
        let outcome = if sim.state_snapshot() != self.golden_state {
            Outcome::Latent
        } else {
            Outcome::Silent
        };
        Ok(stopped(outcome, 0))
    }
}

#[cfg(test)]
impl VfitCampaign<'_> {
    /// Reference experiment: a fresh simulator run from reset through the
    /// last cycle, recording the whole output trace, then classified
    /// against the golden trace and final state. No checkpoint, no early
    /// stop.
    pub(crate) fn run_one_full(&self, exp: &VfitExperiment) -> Result<Outcome, CoreError> {
        let mut rng = StdRng::seed_from_u64(exp.seed);
        let mut sim = Simulator::new(self.netlist)?;
        let mut trace = OutputTrace::new(self.ports.clone());
        for cycle in 0..self.run_cycles {
            exp.issue_commands(&mut sim, cycle, &mut rng);
            sim.settle();
            let mut row = Vec::with_capacity(self.ports.len());
            for p in &self.ports {
                row.push(sim.output_u64(p)?);
            }
            trace.push_cycle(row);
            sim.clock_edge();
            if Some(cycle + 1) == exp.expiry() {
                sim.clear_forces();
            }
        }
        Ok(if !trace.diff(&self.golden_trace).identical() {
            Outcome::Failure
        } else if sim.state_snapshot() != self.golden_state {
            Outcome::Latent
        } else {
            Outcome::Silent
        })
    }
}

/// The level a fixed indetermination holds for its whole window. It is a
/// fixed function of the target register (a hash of its cell id), not an
/// RNG draw, so injection and every hold cycle agree on it.
fn held_value(cell: CellId) -> bool {
    ((cell.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63) & 1 == 1
}

/// Injects `fault` at the top of its injection cycle.
fn apply(sim: &mut Simulator<'_>, fault: &VfitFault, rng: &mut StdRng) {
    match fault {
        VfitFault::FfBitFlip(cell) => {
            let v = sim.ff_value(*cell);
            sim.set_ff(*cell, !v);
        }
        VfitFault::MemBitFlip { cell, addr, bit } => {
            sim.flip_mem_bit(*cell, *addr, *bit);
        }
        VfitFault::SignalPulse(net) => {
            sim.force(Force::flip(*net));
        }
        VfitFault::SignalIndet { net, .. } => {
            sim.force(Force::stuck(*net, rng.gen()));
        }
        VfitFault::FfIndet { cell, oscillating } => {
            let value = if *oscillating {
                rng.gen()
            } else {
                held_value(*cell)
            };
            sim.set_ff(*cell, value);
        }
    }
}
