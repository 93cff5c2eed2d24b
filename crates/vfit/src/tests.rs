//! Unit tests for the VFIT baseline.

use fades_core::DurationRange;
use fades_rtl::RtlBuilder;

use crate::{VfitCampaign, VfitFaultLoad, VfitTargetClass};

pub(crate) fn counter_netlist() -> fades_netlist::Netlist {
    let mut b = RtlBuilder::new("cnt");
    let r = b.reg("cnt", 8, 0);
    let q = r.q().clone();
    let next = b.add_const(&q, 1);
    b.connect(r, &next);
    b.output("q", &q);
    b.finish().unwrap()
}

#[test]
fn bit_flip_in_counter_always_fails() {
    let nl = counter_netlist();
    let campaign = VfitCampaign::new(&nl, &["q"], 100).unwrap();
    let load = VfitFaultLoad::bit_flips(VfitTargetClass::AllFfs, DurationRange::SubCycle);
    let stats = campaign.run(&load, 12, 3).unwrap();
    assert_eq!(stats.outcomes.failures, 12);
}

#[test]
fn simulation_time_is_flat_across_models_and_durations() {
    let nl = counter_netlist();
    let campaign = VfitCampaign::new(&nl, &["q"], 100).unwrap();
    let flips = VfitFaultLoad::bit_flips(VfitTargetClass::AllFfs, DurationRange::SubCycle);
    let pulses =
        VfitFaultLoad::pulses(VfitTargetClass::CombinationalSignals, DurationRange::MEDIUM);
    let a = campaign.run(&flips, 10, 1).unwrap();
    let b = campaign.run(&pulses, 10, 1).unwrap();
    let ratio = a.mean_seconds_per_fault() / b.mean_seconds_per_fault();
    // Paper: "very similar execution times for any type and length".
    assert!((0.85..1.18).contains(&ratio), "ratio {ratio}");
}

#[test]
fn delay_model_is_rejected() {
    let nl = counter_netlist();
    let campaign = VfitCampaign::new(&nl, &["q"], 50).unwrap();
    let mut load =
        VfitFaultLoad::pulses(VfitTargetClass::CombinationalSignals, DurationRange::SHORT);
    load.model = fades_core::FaultModel::Delay;
    assert!(campaign.run(&load, 4, 1).is_err());
}

#[test]
fn oscillating_indetermination_differs_from_fixed() {
    let nl = counter_netlist();
    let campaign = VfitCampaign::new(&nl, &["q"], 100).unwrap();
    let load = VfitFaultLoad::indeterminations(
        VfitTargetClass::AllFfs,
        DurationRange::Cycles(10, 10),
        true,
    );
    let stats = campaign.run(&load, 10, 7).unwrap();
    assert_eq!(stats.total(), 10);
    // Oscillation adds per-cycle commands but the simulation-dominated
    // time stays within a few percent.
    let fixed = VfitFaultLoad::indeterminations(
        VfitTargetClass::AllFfs,
        DurationRange::Cycles(10, 10),
        false,
    );
    let f = campaign.run(&fixed, 10, 7).unwrap();
    assert!(stats.simulation_seconds > f.simulation_seconds);
    assert!(stats.simulation_seconds < f.simulation_seconds * 2.0);
}

#[test]
fn zero_fault_campaign_returns_empty_stats() {
    let nl = counter_netlist();
    let campaign = VfitCampaign::new(&nl, &["q"], 100).unwrap();
    let load = VfitFaultLoad::bit_flips(VfitTargetClass::AllFfs, DurationRange::SubCycle);
    let stats = campaign.run(&load, 0, 1).unwrap();
    assert_eq!(stats.total(), 0);
    assert_eq!(stats.outcomes, fades_core::OutcomeStats::default());
    assert_eq!(stats.simulation_seconds, 0.0);
}

#[test]
fn zero_cycle_workload_injects_at_cycle_zero() {
    let nl = counter_netlist();
    let campaign = VfitCampaign::new(&nl, &["q"], 0).unwrap();
    let load = VfitFaultLoad::bit_flips(VfitTargetClass::AllFfs, DurationRange::SubCycle);
    let stats = campaign.run(&load, 5, 2).unwrap();
    // The 64-cycle margin still runs, so every counter flip shows.
    assert_eq!(stats.outcomes.failures, 5);
}

#[test]
fn run_log_records_carry_skipped_prefix_cycles() {
    let nl = counter_netlist();
    let campaign = VfitCampaign::new(&nl, &["q"], 400).unwrap();
    let load = VfitFaultLoad::bit_flips(VfitTargetClass::AllFfs, DurationRange::SubCycle);
    let label = "vfit provenance test";
    campaign.run_named(label, &load, 20, 5).unwrap();
    let agg = fades_telemetry::peek_aggregates()
        .into_iter()
        .find(|a| a.name == label)
        .expect("the campaign registered its aggregate");
    assert_eq!(agg.n, 20);
    assert!(agg.skipped_cycles > 0, "no prefix was skipped");
    // A counter flip shows on the row of its injection cycle, so each
    // run stops there.
    assert!(agg.early_stop_cycles > 0, "no run stopped early");
}
