//! Differential suite: the checkpointed, early-stopping experiment path
//! against the full-simulation reference. Outcomes must agree per
//! experiment, and campaign stats (modelled seconds to the bit) per load.

use fades_core::{DurationRange, FaultModel, OutcomeStats};
use fades_mcu8051::{build_soc, workloads, OBSERVED_PORTS};
use fades_netlist::{Netlist, UnitTag};

use crate::tests::counter_netlist;
use crate::{VfitCampaign, VfitFaultLoad, VfitTargetClass};

/// Windows that cover sub-cycle, zero-length, short and permanent faults.
const WINDOWS: [DurationRange; 4] = [
    DurationRange::SubCycle,
    DurationRange::Cycles(0, 3),
    DurationRange::Cycles(2, 12),
    DurationRange::Permanent,
];

/// Every fault kind VFIT injects, over every window: register, memory and
/// signal targets, bit-flips, pulses, and fixed and oscillating
/// indeterminations.
fn loads(
    ffs: &VfitTargetClass,
    signals: &VfitTargetClass,
    mem: Option<&VfitTargetClass>,
) -> Vec<VfitFaultLoad> {
    let mut loads = Vec::new();
    for window in WINDOWS {
        loads.push(VfitFaultLoad::bit_flips(ffs.clone(), window));
        if let Some(mem) = mem {
            loads.push(VfitFaultLoad::bit_flips(mem.clone(), window));
        }
        loads.push(VfitFaultLoad::pulses(signals.clone(), window));
        // VFIT treats a register pulse as a bit-flip.
        loads.push(VfitFaultLoad::pulses(ffs.clone(), window));
        for oscillating in [false, true] {
            loads.push(VfitFaultLoad::indeterminations(
                ffs.clone(),
                window,
                oscillating,
            ));
            loads.push(VfitFaultLoad::indeterminations(
                signals.clone(),
                window,
                oscillating,
            ));
        }
    }
    loads
}

/// What the fast path did over a whole comparison.
#[derive(Default)]
struct Coverage {
    outcomes: OutcomeStats,
    /// Prefix cycles skipped by checkpoint restores.
    skipped: u64,
    /// Tail cycles skipped by early stops.
    stopped: u64,
}

/// Runs `n` experiments of every load on both paths and compares them.
fn compare(campaign: &VfitCampaign<'_>, loads: &[VfitFaultLoad], n: usize, seed: u64) -> Coverage {
    let mut coverage = Coverage::default();
    for (l, load) in loads.iter().enumerate() {
        let seed = seed ^ ((l as u64) << 16);
        let plan = campaign.plan(load, n, seed).unwrap();
        // One simulator for the whole load: each restore must wipe what
        // the previous experiment left behind.
        let mut sim = campaign.simulator();
        let mut reference = Vec::with_capacity(n);
        for (i, exp) in plan.iter().enumerate() {
            let fast = campaign.run_one(&mut sim, exp).unwrap();
            let full = campaign.run_one_full(exp).unwrap();
            assert_eq!(
                fast.outcome, full,
                "{:?} {:?} experiment {i}: {exp:?}",
                load.model, load.duration
            );
            coverage.outcomes.record(fast.outcome);
            coverage.skipped += fast.skipped_cycles;
            coverage.stopped += fast.early_stop_cycles;
            reference.push(full);
        }
        let fast = campaign.run(load, n, seed).unwrap();
        let full = campaign.tally(&plan, reference);
        assert_eq!(fast.outcomes, full.outcomes, "{load:?}");
        assert_eq!(fast.n, full.n);
        assert_eq!(
            fast.simulation_seconds.to_bits(),
            full.simulation_seconds.to_bits(),
            "{load:?}"
        );
    }
    coverage
}

#[test]
fn counter_fast_path_matches_full_simulation() {
    let nl = counter_netlist();
    // With no observed port nothing fails, so every run either
    // reconverges or reaches the end and is classified from its state.
    for ports in [&["q"][..], &[]] {
        let campaign = VfitCampaign::new(&nl, ports, 300).unwrap();
        let loads = loads(
            &VfitTargetClass::AllFfs,
            &VfitTargetClass::CombinationalSignals,
            None,
        );
        let coverage = compare(&campaign, &loads, 12, 11);
        assert!(coverage.skipped > 0, "no prefix was skipped");
        if !ports.is_empty() {
            assert!(coverage.stopped > 0, "no run stopped early");
        }
    }
}

#[test]
fn mcu8051_fast_path_matches_full_simulation() {
    let workload = workloads::bubblesort();
    let soc = build_soc(&workload.rom).unwrap();
    let nl: &Netlist = &soc.netlist;
    // A shortened workload keeps the reference path affordable in debug
    // builds while still spanning several checkpoints.
    let campaign = VfitCampaign::new(nl, &OBSERVED_PORTS, 600).unwrap();
    let mem = VfitTargetClass::MemoryWords {
        name: "iram".into(),
        lo: workload.data_range.0 as usize,
        hi: workload.data_range.1 as usize,
    };
    let loads = loads(
        &VfitTargetClass::AllFfs,
        &VfitTargetClass::SignalsOfUnit(UnitTag::Alu),
        Some(&mem),
    );
    assert!(loads
        .iter()
        .any(|l| l.model == FaultModel::Indetermination && l.oscillating));
    let coverage = compare(&campaign, &loads, 5, 29);
    assert!(coverage.skipped > 0, "no prefix was skipped");
    assert!(coverage.stopped > 0, "no run stopped early");
    let o = coverage.outcomes;
    assert!(
        o.failures > 0 && o.latents > 0 && o.silents > 0,
        "every outcome class occurs: {o:?}"
    );
}
