//! Figure 11: results from the bit-flip emulation.
//!
//! The paper first screens the registers for those "eligible for being
//! targeted by transient faults" (81 FFs out of 637 on its core), then
//! reports Failure / Latent / Silent percentages for bit-flips into those
//! registers and into the memory positions the workload uses.

use fades_core::{CoreError, DurationRange, FaultLoad, OutcomeStats, TargetClass};

use crate::context::ExperimentContext;
use crate::tablefmt::TextTable;

/// The regenerated figure.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// Outcomes for bit-flips into the screened sensitive registers.
    pub registers: OutcomeStats,
    /// Outcomes for bit-flips into the workload's memory positions.
    pub memory: OutcomeStats,
    /// Screened sensitive FFs (the paper found 81 of 637).
    pub sensitive_ffs: usize,
    /// Total used FFs.
    pub total_ffs: usize,
}

/// Runs the screening pass and both campaigns.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn run(ctx: &ExperimentContext, n_faults: usize, seed: u64) -> Result<Fig11Result, CoreError> {
    let sensitive = ctx.sensitive_ffs(seed)?;
    let total_ffs = ctx.implementation().bitstream.used_ffs().len();
    let campaign = ctx.fades_campaign()?;
    let registers = campaign
        .run(
            &FaultLoad::bit_flips(
                TargetClass::FfSites(sensitive.clone()),
                DurationRange::SubCycle,
            ),
            n_faults,
            seed,
        )?
        .outcomes;
    let memory = campaign
        .run(
            &FaultLoad::bit_flips(ctx.memory_data_targets(), DurationRange::SubCycle),
            n_faults,
            seed ^ 1,
        )?
        .outcomes;
    Ok(Fig11Result {
        registers,
        memory,
        sensitive_ffs: sensitive.len(),
        total_ffs,
    })
}

impl Fig11Result {
    /// Renders the figure.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&[
            "target",
            "failure %",
            "latent %",
            "silent %",
            "paper failure %",
        ]);
        t.row(vec![
            format!(
                "registers ({}/{} FFs eligible)",
                self.sensitive_ffs, self.total_ffs
            ),
            format!("{:.1}", self.registers.failure_pct()),
            format!("{:.1}", self.registers.latent_pct()),
            format!("{:.1}", self.registers.silent_pct()),
            "43.9".into(),
        ]);
        t.row(vec![
            "memory (used positions)".into(),
            format!("{:.1}", self.memory.failure_pct()),
            format!("{:.1}", self.memory.latent_pct()),
            format!("{:.1}", self.memory.silent_pct()),
            "81.0".into(),
        ]);
        t
    }
}
