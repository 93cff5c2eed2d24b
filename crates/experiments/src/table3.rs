//! Table 3: comparison of the results obtained via FADES and VFIT.
//!
//! Both tools inject the same fault models into the same model, FADES
//! through run-time reconfiguration of the implemented design, VFIT
//! through simulator commands on the HDL model. Delay rows have no VFIT
//! column: VFIT needs generic-clause delays the model does not declare
//! (exactly the paper's situation).

use fades_core::{CoreError, DurationRange, FaultLoad, TargetClass};
use fades_netlist::UnitTag;
use fades_vfit::{VfitFaultLoad, VfitTargetClass};

use crate::context::ExperimentContext;
use crate::fig12::DURATIONS;
use crate::tablefmt::TextTable;

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Fault model.
    pub model: &'static str,
    /// Fault location.
    pub location: &'static str,
    /// Duration label (empty for duration-independent rows).
    pub duration: String,
    /// FADES failure percentage.
    pub fades_failure_pct: f64,
    /// VFIT failure percentage (`None` where VFIT cannot inject).
    pub vfit_failure_pct: Option<f64>,
    /// The paper's FADES figure, where reported.
    pub paper_fades: Option<f64>,
    /// The paper's VFIT figure, where reported.
    pub paper_vfit: Option<f64>,
}

/// The regenerated table.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// All rows.
    pub rows: Vec<ComparisonRow>,
}

/// Runs both tools over the shared fault loads.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn run(ctx: &ExperimentContext, n_faults: usize, seed: u64) -> Result<Table3Result, CoreError> {
    let fades = ctx.fades_campaign()?;
    let vfit = ctx.vfit_campaign()?;
    let mut rows = Vec::new();

    // --- Bit-flip into the screened registers ---------------------------
    let sensitive = ctx.sensitive_ffs(seed)?;
    let map = &ctx.implementation().map;
    // The same physical FFs, expressed as model registers for VFIT.
    let sensitive_cells: Vec<_> = sensitive
        .iter()
        .filter_map(|&site| map.ff_cell_at(site))
        .collect();
    let f = fades.run(
        &FaultLoad::bit_flips(
            TargetClass::FfSites(sensitive.clone()),
            DurationRange::SubCycle,
        ),
        n_faults,
        seed,
    )?;
    let v = vfit.run(
        &VfitFaultLoad::bit_flips(
            VfitTargetClass::FfList(sensitive_cells.clone()),
            DurationRange::SubCycle,
        ),
        n_faults,
        seed,
    )?;
    rows.push(ComparisonRow {
        model: "bit-flip",
        location: "FFs",
        duration: String::new(),
        fades_failure_pct: f.outcomes.failure_pct(),
        vfit_failure_pct: Some(v.outcomes.failure_pct()),
        paper_fades: Some(43.86),
        paper_vfit: Some(43.70),
    });

    // --- Bit-flip into the used memory words ----------------------------
    let (lo, hi) = (
        ctx.workload().data_range.0 as usize,
        ctx.workload().data_range.1 as usize,
    );
    let f = fades.run(
        &FaultLoad::bit_flips(ctx.memory_data_targets(), DurationRange::SubCycle),
        n_faults,
        seed ^ 2,
    )?;
    let v = vfit.run(
        &VfitFaultLoad::bit_flips(
            VfitTargetClass::MemoryWords {
                name: "iram".into(),
                lo,
                hi,
            },
            DurationRange::SubCycle,
        ),
        n_faults,
        seed ^ 2,
    )?;
    rows.push(ComparisonRow {
        model: "bit-flip",
        location: "memory",
        duration: String::new(),
        fades_failure_pct: f.outcomes.failure_pct(),
        vfit_failure_pct: Some(v.outcomes.failure_pct()),
        paper_fades: Some(80.95),
        paper_vfit: Some(81.76),
    });

    // --- Pulse / delay / indetermination, per duration ------------------
    let paper_pulse_alu = [(0.06, 1.36), (3.13, 3.53), (8.86, 7.43)];
    let paper_delay_ffs = [5.7, 18.6, 31.67];
    let paper_delay_alu = [0.0, 0.57, 2.1];
    let paper_indet_ffs = [(29.53, 18.87), (45.9, 35.90), (61.4, 52.47)];
    let paper_indet_alu = [(0.37, 1.30), (1.37, 3.03), (3.57, 8.23)];
    for (di, duration) in DURATIONS.iter().enumerate() {
        let salt = seed ^ ((di as u64 + 1) << 32);
        let f = fades.run(
            &FaultLoad::pulses(TargetClass::LutsOfUnit(UnitTag::Alu), *duration),
            n_faults,
            salt,
        )?;
        let v = vfit.run(
            &VfitFaultLoad::pulses(VfitTargetClass::SignalsOfUnit(UnitTag::Alu), *duration),
            n_faults,
            salt,
        )?;
        rows.push(ComparisonRow {
            model: "pulse",
            location: "ALU",
            duration: duration.label(),
            fades_failure_pct: f.outcomes.failure_pct(),
            vfit_failure_pct: Some(v.outcomes.failure_pct()),
            paper_fades: Some(paper_pulse_alu[di].0),
            paper_vfit: Some(paper_pulse_alu[di].1),
        });
    }
    for (di, duration) in DURATIONS.iter().enumerate() {
        let salt = seed ^ ((di as u64 + 1) << 36);
        let f = fades.run(
            &FaultLoad::delays(TargetClass::SequentialWires, *duration),
            n_faults,
            salt,
        )?;
        rows.push(ComparisonRow {
            model: "delay",
            location: "FFs",
            duration: duration.label(),
            fades_failure_pct: f.outcomes.failure_pct(),
            vfit_failure_pct: None,
            paper_fades: Some(paper_delay_ffs[di]),
            paper_vfit: None,
        });
        let f = fades.run(
            &FaultLoad::delays(TargetClass::WiresOfUnit(UnitTag::Alu), *duration),
            n_faults,
            salt ^ 1,
        )?;
        rows.push(ComparisonRow {
            model: "delay",
            location: "ALU",
            duration: duration.label(),
            fades_failure_pct: f.outcomes.failure_pct(),
            vfit_failure_pct: None,
            paper_fades: Some(paper_delay_alu[di]),
            paper_vfit: None,
        });
    }
    for (di, duration) in DURATIONS.iter().enumerate() {
        let salt = seed ^ ((di as u64 + 1) << 40);
        let f = fades.run(
            &FaultLoad::indeterminations(TargetClass::AllFfs, *duration, false),
            n_faults,
            salt,
        )?;
        let v = vfit.run(
            &VfitFaultLoad::indeterminations(VfitTargetClass::AllFfs, *duration, false),
            n_faults,
            salt,
        )?;
        rows.push(ComparisonRow {
            model: "indetermination",
            location: "FFs",
            duration: duration.label(),
            fades_failure_pct: f.outcomes.failure_pct(),
            vfit_failure_pct: Some(v.outcomes.failure_pct()),
            paper_fades: Some(paper_indet_ffs[di].0),
            paper_vfit: Some(paper_indet_ffs[di].1),
        });
        let f = fades.run(
            &FaultLoad::indeterminations(TargetClass::LutsOfUnit(UnitTag::Alu), *duration, false),
            n_faults,
            salt ^ 1,
        )?;
        let v = vfit.run(
            &VfitFaultLoad::indeterminations(
                VfitTargetClass::SignalsOfUnit(UnitTag::Alu),
                *duration,
                false,
            ),
            n_faults,
            salt ^ 1,
        )?;
        rows.push(ComparisonRow {
            model: "indetermination",
            location: "ALU",
            duration: duration.label(),
            fades_failure_pct: f.outcomes.failure_pct(),
            vfit_failure_pct: Some(v.outcomes.failure_pct()),
            paper_fades: Some(paper_indet_alu[di].0),
            paper_vfit: Some(paper_indet_alu[di].1),
        });
    }

    Ok(Table3Result { rows })
}

impl Table3Result {
    /// Renders the table.
    pub fn table(&self) -> TextTable {
        let fmt_opt = |v: Option<f64>| v.map_or("-".into(), |x| format!("{x:.2}"));
        let mut t = TextTable::new(&[
            "model",
            "location",
            "duration",
            "FADES fail %",
            "VFIT fail %",
            "paper FADES",
            "paper VFIT",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.model.to_string(),
                r.location.to_string(),
                r.duration.clone(),
                format!("{:.2}", r.fades_failure_pct),
                fmt_opt(r.vfit_failure_pct),
                fmt_opt(r.paper_fades),
                fmt_opt(r.paper_vfit),
            ]);
        }
        t
    }
}
