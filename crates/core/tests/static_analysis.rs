//! The static pre-classifier's two contracts, test-enforced:
//!
//! * **Purity** — plan annotations are a pure function of the plan
//!   inputs, independent of thread count and engine, so shards agree on
//!   them without communicating.
//! * **Soundness** — every experiment the cone-of-influence pass marks
//!   `StaticSilent` must classify Silent when executed, on both the
//!   scalar and the lane engine.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_core::{
    Campaign, CampaignConfig, CampaignPlan, DurationRange, ExperimentVerdict, FaultLoad, Outcome,
    PlanAnnotation, TargetClass,
};
use fades_rtl::{RtlBuilder, Signal};
use proptest::prelude::*;

/// A counter observed on `q`, plus logic the observation frontier can
/// provably never see: a shadow register nobody reads and inverters
/// feeding only an unobserved debug port.
fn dead_logic_design() -> (fades_netlist::Netlist, fades_pnr::Implementation) {
    let mut b = RtlBuilder::new("dead");
    let r = b.reg("cnt", 4, 0);
    let q = r.q().clone();
    let next = b.add_const(&q, 1);
    b.connect(r, &next);
    b.output("q", &q);
    let shadow = b.reg("shadow", 4, 0);
    b.connect(shadow, &q);
    let dead: Vec<_> = (0..4).map(|i| b.not_bit(q.bit(i))).collect();
    b.output("unused_dbg", &Signal::from_bits(dead));
    let nl = b.finish().unwrap();
    let imp = fades_pnr::implement(&nl, fades_fpga::ArchParams::small()).unwrap();
    (nl, imp)
}

fn config(batch: bool) -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        margin_cycles: 32,
        fastpath: true,
        batch,
    }
}

#[test]
fn dead_design_plans_carry_static_silent_annotations() {
    let (nl, imp) = dead_logic_design();
    let campaign = Campaign::with_config(&nl, imp, &["q"], 120, config(false)).unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    let before = fades_telemetry::analysis::STATIC_SILENT.get();
    let plan = campaign.plan(&load, 40, 11).unwrap();
    let silent = plan
        .experiments
        .iter()
        .filter(|e| e.annotation == PlanAnnotation::StaticSilent)
        .count();
    assert!(
        silent > 0,
        "the shadow register must yield statically-Silent bit flips"
    );
    assert!(
        silent < plan.len(),
        "flips into the live counter must not be annotated"
    );
    // The counter is process-global (other tests plan concurrently), so
    // only a lower bound on its delta is deterministic.
    assert!(
        fades_telemetry::analysis::STATIC_SILENT.get() - before >= silent as u64,
        "planning must count every annotated experiment"
    );
}

#[test]
fn annotations_are_a_pure_function_of_the_plan_inputs() {
    // Same inputs → same annotations, regardless of worker threads or
    // any engine configuration: shards must agree without communicating.
    let (nl, imp) = dead_logic_design();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let mut seen = Vec::new();
    for (threads, batch) in [(1, false), (4, true), (2, true)] {
        let cfg = CampaignConfig {
            threads,
            ..config(batch)
        };
        let campaign = Campaign::with_config(&nl, imp.clone(), &["q"], 120, cfg).unwrap();
        let plan = campaign.plan(&load, 30, 99).unwrap();
        seen.push(
            plan.experiments
                .iter()
                .map(|e| e.annotation)
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(seen[0], seen[1]);
    assert_eq!(seen[1], seen[2]);
    assert!(seen[0].contains(&PlanAnnotation::StaticSilent));
}

/// Executes every statically-Silent experiment of `plan` and asserts
/// all of them classify Silent.
fn assert_static_silent_sound(
    executing: &Campaign,
    plan: &CampaignPlan,
    batch: bool,
) -> Result<usize, TestCaseError> {
    let silent_only = CampaignPlan {
        target: plan.target.clone(),
        sub_cycle: plan.sub_cycle,
        seed: plan.seed,
        n_total: plan.n_total,
        experiments: plan
            .experiments
            .iter()
            .filter(|e| e.annotation == PlanAnnotation::StaticSilent)
            .cloned()
            .collect(),
    };
    let verdicts = if batch {
        executing.execute_batched_isolated(&silent_only, 1, None, None)
    } else {
        executing.execute_isolated(&silent_only, 1, None, None)
    };
    let verdicts = verdicts.expect("execution");
    for v in &verdicts {
        match v {
            ExperimentVerdict::Completed { result, index, .. } => prop_assert_eq!(
                result.outcome,
                Outcome::Silent,
                "statically-Silent experiment {} was {:?} when executed: {:?}",
                index,
                result.outcome,
                result.fault
            ),
            ExperimentVerdict::Quarantined { index, error, .. } => {
                return Err(TestCaseError::fail(format!(
                    "statically-Silent experiment {index} quarantined: {error}"
                )))
            }
        }
    }
    Ok(verdicts.len())
}

/// Random register-feedback design with dead logic grafted on: a shadow
/// register of the live state and inverters into an unobserved port.
fn random_design_with_dead_logic(
    topology: u8,
    width: usize,
    init: u64,
    taps: (usize, usize),
) -> (fades_netlist::Netlist, fades_pnr::Implementation) {
    let mut b = RtlBuilder::new("prop-dead");
    let r = b.reg("state", width, init & ((1 << width) - 1));
    let q = r.q().clone();
    let next = match topology % 3 {
        0 => b.add_const(&q, 1),
        1 => {
            let fb = b.xor_bit(q.bit(taps.0 % width), q.bit(taps.1 % width));
            let mut bits = vec![fb];
            bits.extend((0..width - 1).map(|i| q.bit(i)));
            Signal::from_bits(bits)
        }
        _ => {
            let bits = (0..width)
                .map(|i| b.not_bit(q.bit((i + 1) % width)))
                .collect();
            Signal::from_bits(bits)
        }
    };
    b.connect(r, &next);
    b.output("q", &q);
    let shadow = b.reg("shadow", width, 0);
    b.connect(shadow, &q);
    let dead: Vec<_> = (0..width).map(|i| b.not_bit(q.bit(i))).collect();
    b.output("unused_dbg", &Signal::from_bits(dead));
    let nl = b.finish().unwrap();
    let imp = fades_pnr::implement(&nl, fades_fpga::ArchParams::small()).unwrap();
    (nl, imp)
}

fn random_load(pick: u8) -> FaultLoad {
    match pick % 5 {
        0 => FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle),
        1 => FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT),
        2 => FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle),
        3 => FaultLoad::pulses(TargetClass::CbInputs, DurationRange::SHORT),
        _ => FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::SHORT, false),
    }
}

proptest! {
    /// Soundness over random netlists: whatever the cone-of-influence
    /// pass calls statically Silent must be dynamically Silent under
    /// every fault model when forced to execute, on both engines — and
    /// the lint output for the design must be deterministic.
    #[test]
    fn static_silent_is_sound_on_random_netlists(
        topology in 0u8..3,
        width in 2usize..6,
        init in any::<u64>(),
        taps in (0usize..8, 0usize..8),
        pick in 0u8..5,
        n in 6usize..14,
        cycles in 80u64..130,
        seed in any::<u64>(),
    ) {
        let (nl, imp) = random_design_with_dead_logic(topology, width, init, taps);
        let load = random_load(pick);
        let executing = Campaign::with_config(
            &nl, imp.clone(), &["q"], cycles, config(false),
        ).expect("campaign");
        let plan = executing.plan(&load, n, seed).expect("plan");

        prop_assume!(plan.experiments.iter().any(|e| e.annotation == PlanAnnotation::StaticSilent));
        assert_static_silent_sound(&executing, &plan, false)?;

        let lane = Campaign::with_config(
            &nl, imp.clone(), &["q"], cycles, config(true),
        ).expect("campaign");
        assert_static_silent_sound(&lane, &plan, true)?;

        // Lint determinism: two runs over the same bitstream agree
        // diagnostic-for-diagnostic, in order.
        let a = fades_analysis::lint_quiet(&imp.bitstream);
        let b = fades_analysis::lint_quiet(&imp.bitstream);
        prop_assert_eq!(a, b);
    }
}
