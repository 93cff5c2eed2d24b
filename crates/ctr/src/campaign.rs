//! CTR campaign runner: instrument → implement → execute, per target.

use std::collections::HashMap;

use fades_core::{CoreError, DurationRange, Outcome, OutcomeStats};
use fades_fpga::{ArchParams, Device};
use fades_netlist::{Cell, NetId, Netlist, OutputTrace};
use fades_pnr::implement;
use fades_telemetry::{span, ExperimentRecord, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::saboteur::{instrument, SABOTEUR_PORT};
use crate::time_model::CtrTimeModel;

/// Aggregated results of a CTR campaign.
#[derive(Debug, Clone, Default)]
pub struct CtrStats {
    /// Outcome counts.
    pub outcomes: OutcomeStats,
    /// Modelled implementation time (the dominant CTR cost).
    pub implementation_seconds: f64,
    /// Modelled on-device execution time.
    pub execution_seconds: f64,
    /// Distinct instrumented versions implemented.
    pub versions: usize,
    /// Experiments executed.
    pub n: usize,
}

impl CtrStats {
    /// Total modelled seconds.
    pub fn total_seconds(&self) -> f64 {
        self.implementation_seconds + self.execution_seconds
    }

    /// Mean modelled seconds per fault.
    pub fn mean_seconds_per_fault(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total_seconds() / self.n as f64
        }
    }
}

/// A compile-time-reconfiguration campaign over an HDL model.
///
/// Pulse faults only (the saboteur is an inverter): each distinct target
/// requires its own instrumented implementation, which is exactly the
/// cost structure the paper's §7.3 argues against for large systems.
#[derive(Debug)]
pub struct CtrCampaign<'n> {
    netlist: &'n Netlist,
    arch: ArchParams,
    ports: Vec<String>,
    run_cycles: u64,
    golden_trace: OutputTrace,
    golden_state_len: usize,
    time_model: CtrTimeModel,
}

impl<'n> CtrCampaign<'n> {
    /// Prepares a campaign: implements the *uninstrumented* design once
    /// and captures its golden run.
    ///
    /// # Errors
    ///
    /// Propagates implementation and configuration errors.
    pub fn new(
        netlist: &'n Netlist,
        arch: ArchParams,
        observed_ports: &[&str],
        workload_cycles: u64,
    ) -> Result<Self, CoreError> {
        let ports: Vec<String> = observed_ports
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let run_cycles = workload_cycles + 64;
        let imp = implement(netlist, arch).map_err(|e| CoreError::Implementation(e.to_string()))?;
        let mut dev = Device::configure(imp.bitstream)?;
        let mut trace = OutputTrace::new(ports.clone());
        for _ in 0..run_cycles {
            dev.settle();
            let mut row = Vec::with_capacity(ports.len());
            for p in &ports {
                row.push(
                    dev.output_u64(p)
                        .map_err(|_| CoreError::UnknownPort(p.clone()))?,
                );
            }
            trace.push_cycle(row);
            dev.clock_edge();
        }
        let golden_state_len = dev.state_snapshot().len();
        Ok(CtrCampaign {
            netlist,
            arch,
            ports,
            run_cycles,
            golden_trace: trace,
            golden_state_len,
            time_model: CtrTimeModel::paper_era(),
        })
    }

    /// The time model used for reporting.
    pub fn time_model(&self) -> &CtrTimeModel {
        &self.time_model
    }

    /// Runs `n_faults` pulse experiments on combinational signals.
    ///
    /// Distinct targets are instrumented and implemented once each and the
    /// version is reused for repeated hits — the most charitable CTR cost
    /// accounting.
    ///
    /// # Errors
    ///
    /// Propagates instrumentation, implementation and execution errors.
    pub fn run(
        &self,
        duration: DurationRange,
        n_faults: usize,
        seed: u64,
    ) -> Result<CtrStats, CoreError> {
        let targets: Vec<NetId> = self
            .netlist
            .cells()
            .iter()
            .filter(|c| matches!(c, Cell::Lut(_)))
            .flat_map(fades_netlist::Cell::outputs)
            .collect();
        if targets.is_empty() {
            return Err(CoreError::EmptyTargetSet("combinational signals".into()));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = CtrStats {
            n: n_faults,
            ..Default::default()
        };
        // CTR is inherently sequential: each new target blocks on its
        // instrumented implementation before any experiment can run.
        let recorder = Recorder::new("ctr saboteur", n_faults, 1);
        let handle = recorder.handle();
        // Cache of instrumented versions: target net -> configured device.
        let mut versions: HashMap<NetId, Device> = HashMap::new();
        for i in 0..n_faults {
            let started = std::time::Instant::now();
            let mut modelled = 0.0;
            let target = targets[rng.gen_range(0..targets.len())];
            let inject_at = rng.gen_range(0..self.run_cycles - 64);
            let dur = duration.sample(&mut rng).unwrap_or(self.run_cycles);
            if let std::collections::hash_map::Entry::Vacant(slot) = versions.entry(target) {
                let _implement_span = span!("ctr-implement");
                let inst = instrument(self.netlist, target)?;
                let imp = implement(&inst, self.arch)
                    .map_err(|e| CoreError::Implementation(e.to_string()))?;
                let impl_s = self.time_model.implementation_seconds(&inst);
                stats.implementation_seconds += impl_s;
                modelled += impl_s;
                stats.versions += 1;
                slot.insert(Device::configure(imp.bitstream)?);
            }
            let dev = versions
                .get_mut(&target)
                .unwrap_or_else(|| unreachable!("version cached above"));
            let outcome = {
                let _execute_span = span!("ctr-execute");
                self.run_one(dev, inject_at, dur)?
            };
            stats.outcomes.record(outcome);
            let exec_s = self.time_model.execution_seconds(self.run_cycles);
            stats.execution_seconds += exec_s;
            modelled += exec_s;
            handle.record(ExperimentRecord {
                index: i as u64,
                target: "combinational signals".to_string(),
                strategy: "ctr-saboteur-pulse".to_string(),
                outcome: outcome.as_str(),
                modelled_s: modelled,
                wall_us: started.elapsed().as_micros() as u64,
                engine: "ctr",
                ..Default::default()
            });
        }
        drop(handle);
        recorder.finish();
        Ok(stats)
    }

    fn run_one(
        &self,
        dev: &mut Device,
        inject_at: u64,
        duration: u64,
    ) -> Result<Outcome, CoreError> {
        dev.reset();
        let mut trace = OutputTrace::new(self.ports.clone());
        for cycle in 0..self.run_cycles {
            let active = cycle >= inject_at && cycle < inject_at + duration;
            dev.set_input(SABOTEUR_PORT, &[active])?;
            dev.settle();
            let mut row = Vec::with_capacity(self.ports.len());
            for p in &self.ports {
                row.push(
                    dev.output_u64(p)
                        .map_err(|_| CoreError::UnknownPort(p.clone()))?,
                );
            }
            trace.push_cycle(row);
            dev.clock_edge();
        }
        // The instrumented device has one extra FF-free LUT, so its raw
        // snapshot length matches the original's (saboteurs add no state);
        // compare lengths defensively anyway.
        let state = dev.state_snapshot();
        let outcome = if !trace.diff(&self.golden_trace).identical() {
            Outcome::Failure
        } else if state.len() != self.golden_state_len {
            Outcome::Latent
        } else {
            // Without a matching golden snapshot of the instrumented
            // variant, re-run the variant fault-free and compare.
            dev.reset();
            for _ in 0..self.run_cycles {
                dev.set_input(SABOTEUR_PORT, &[false])?;
                dev.step();
            }
            if dev.state_snapshot() == state {
                Outcome::Silent
            } else {
                Outcome::Latent
            }
        };
        Ok(outcome)
    }
}
