//! Shared experimental setup (paper §6.1).

use std::cell::RefCell;
use std::collections::HashMap;

use fades_core::{Campaign, CoreError};
use fades_fpga::{ArchParams, CbCoord};
use fades_mcu8051::workloads::Workload;
use fades_mcu8051::{build_soc, workloads, Iss, Soc, OBSERVED_PORTS};
use fades_pnr::{implement, Implementation};
use fades_vfit::VfitCampaign;

/// The paper's experimental setup: the 8051 model running Bubblesort,
/// synthesised and implemented on the Virtex-1000-like device, with its
/// golden run, plus a VFIT view of the same model.
#[derive(Debug)]
pub struct ExperimentContext {
    soc: Soc,
    workload: Workload,
    implementation: Implementation,
    workload_cycles: u64,
    screened: RefCell<HashMap<u64, Vec<CbCoord>>>,
}

impl ExperimentContext {
    /// Builds the standard setup (Bubblesort on the 8051).
    ///
    /// # Errors
    ///
    /// Propagates model-construction and implementation errors.
    pub fn new() -> Result<Self, Box<dyn std::error::Error>> {
        Self::with_workload(workloads::bubblesort())
    }

    /// Builds the setup with a different workload (parameter sweeps).
    ///
    /// # Errors
    ///
    /// Propagates model-construction and implementation errors.
    pub fn with_workload(workload: Workload) -> Result<Self, Box<dyn std::error::Error>> {
        let soc = build_soc(&workload.rom)?;
        let implementation = implement(&soc.netlist, ArchParams::virtex1000_like())?;
        let mut iss = Iss::new(workload.rom.clone());
        let trace = iss
            .run_to_completion(100_000)
            .ok_or("workload does not terminate")?;
        Ok(ExperimentContext {
            soc,
            workload,
            implementation,
            workload_cycles: trace.cycles,
            screened: RefCell::default(),
        })
    }

    /// The system under analysis.
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// The workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Workload duration in clock cycles (the paper reports 1303 for its
    /// Bubblesort; ours is the same order).
    pub fn workload_cycles(&self) -> u64 {
        self.workload_cycles
    }

    /// A fresh FADES campaign over the implemented design.
    ///
    /// # Errors
    ///
    /// Propagates device-configuration errors.
    pub fn fades_campaign(&self) -> Result<Campaign<'_>, CoreError> {
        Campaign::new(
            &self.soc.netlist,
            self.implementation.clone(),
            &OBSERVED_PORTS,
            self.workload_cycles,
        )
    }

    /// A fresh VFIT campaign over the same HDL model.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn vfit_campaign(&self) -> Result<VfitCampaign<'_>, CoreError> {
        VfitCampaign::new(&self.soc.netlist, &OBSERVED_PORTS, self.workload_cycles)
    }

    /// The implementation (bitstream + resource map).
    pub fn implementation(&self) -> &Implementation {
        &self.implementation
    }

    /// The memory target class covering the workload's data (the paper's
    /// "selected memory positions").
    pub fn memory_data_targets(&self) -> fades_core::TargetClass {
        fades_core::TargetClass::MemoryBits {
            name: "iram".into(),
            lo: self.workload.data_range.0 as usize,
            hi: self.workload.data_range.1 as usize,
        }
    }

    /// Decomposes the context into `(soc, workload, implementation,
    /// workload_cycles)`. The campaign-service backend needs a
    /// `Send + Sync` view of the setup, and the screening cache is the
    /// only non-`Sync` field — everything else moves out as-is.
    pub fn into_parts(self) -> (Soc, Workload, Implementation, u64) {
        (
            self.soc,
            self.workload,
            self.implementation,
            self.workload_cycles,
        )
    }

    /// The screened sensitive flip-flop sites (paper §6.3's first
    /// experiment: "only 14 registers (81 FFs out of 637) were eligible").
    /// Computed once per seed and cached.
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn sensitive_ffs(&self, seed: u64) -> Result<Vec<CbCoord>, CoreError> {
        if let Some(found) = self.screened.borrow().get(&seed) {
            return Ok(found.clone());
        }
        let found = self.fades_campaign()?.screen_sensitive_ffs(3, seed)?;
        self.screened.borrow_mut().insert(seed, found.clone());
        Ok(found)
    }
}
