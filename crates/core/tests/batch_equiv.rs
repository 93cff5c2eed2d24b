//! Equivalence of the bit-parallel lane engine with the scalar
//! per-experiment path.
//!
//! The lane engine is a host-side shortcut: each faulty machine still
//! executes the full workload and its strategy issues the same
//! reconfigurations in the same order, just 63 machines per `u64` word.
//! These tests pin that down for every fault load — identical seeds must
//! give identical faults, outcomes, configuration traffic and
//! (bit-for-bit) modelled emulation time on both paths, including for
//! loads whose faults the lane engine cannot express and routes to the
//! scalar fallback. `Campaign::run` is lane-backed, so the scalar side
//! always comes from a `batch: false` campaign or `Campaign::execute`.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_core::{
    Campaign, CampaignConfig, DurationRange, FaultLoad, FaultSchedule, PermanentFault,
    PlanAnnotation, PlannedExperiment, ResolvedFault, TargetClass,
};
use fades_netlist::UnitTag;
use fades_pnr::implement;
use fades_rtl::RtlBuilder;
use fades_telemetry::Recorder;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The lane telemetry counters are process-global and the tests of this
/// binary run in parallel. Every test that runs the lane engine holds this
/// lock shared; the tests that reset and read the counters hold it
/// exclusively, so no other test's lane cycles land in their readings.
static LANE_COUNTERS: RwLock<()> = RwLock::new(());

fn lanes_running() -> RwLockReadGuard<'static, ()> {
    LANE_COUNTERS.read().unwrap_or_else(PoisonError::into_inner)
}

fn lane_counters_exclusive() -> RwLockWriteGuard<'static, ()> {
    LANE_COUNTERS
        .write()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The campaign-test LFSR (same fixture shape as `fastpath.rs`).
fn lfsr_design() -> (fades_netlist::Netlist, fades_pnr::Implementation) {
    let mut b = RtlBuilder::new("lfsr");
    b.set_unit(UnitTag::Registers);
    let r = b.reg("lfsr", 8, 1);
    let q = r.q().clone();
    b.set_unit(UnitTag::Alu);
    let t1 = b.xor_bit(q.bit(7), q.bit(5));
    let t2 = b.xor_bit(q.bit(4), q.bit(3));
    let tap = b.xor_bit(t1, t2);
    let mut bits = vec![tap];
    bits.extend((0..7).map(|i| q.bit(i)));
    b.set_unit(UnitTag::Registers);
    let next = fades_rtl::Signal::from_bits(bits);
    b.connect(r, &next);
    b.output("q", &q);
    let netlist = b.finish().unwrap();
    let imp = implement(&netlist, fades_fpga::ArchParams::small()).unwrap();
    (netlist, imp)
}

fn config(batch: bool) -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        margin_cycles: 64,
        fastpath: true,
        batch,
    }
}

/// Runs `load` on the lane engine and on a `batch: false` oracle campaign
/// and asserts the per-experiment results and aggregated stats are
/// identical — outcomes and traffic exactly, modelled emulation seconds to
/// the bit.
fn assert_equivalent(
    nl: &fades_netlist::Netlist,
    imp: &fades_pnr::Implementation,
    ports: &[&str],
    workload_cycles: u64,
    load: &FaultLoad,
    n: usize,
    seed: u64,
) {
    let _lanes = lanes_running();
    let campaign = Campaign::with_config(nl, imp.clone(), ports, workload_cycles, config(true))
        .expect("campaign");
    let oracle = Campaign::with_config(nl, imp.clone(), ports, workload_cycles, config(false))
        .expect("oracle campaign");
    let batched = campaign.run_detailed(load, n, seed).expect("batched run");
    let scalar = oracle.run_detailed(load, n, seed).expect("scalar run");
    assert_eq!(batched.len(), scalar.len());
    for (b, s) in batched.iter().zip(&scalar) {
        assert_eq!(b.fault, s.fault, "{load:?}");
        assert_eq!(b.schedule, s.schedule, "{load:?}");
        assert_eq!(b.outcome, s.outcome, "{load:?} fault {:?}", b.fault);
        assert_eq!(
            b.traffic, s.traffic,
            "{load:?} fault {:?}: configuration traffic must be identical",
            b.fault
        );
        assert_eq!(b.strategy, s.strategy);
    }
    // The modelled campaign time — the paper's reported quantity — must
    // agree to the bit, not just approximately.
    let bs = campaign.run(load, n, seed).expect("batched stats");
    let ss = oracle.run(load, n, seed).expect("scalar stats");
    assert_eq!(bs.outcomes, ss.outcomes, "{load:?}");
    assert_eq!(
        bs.emulation_seconds.to_bits(),
        ss.emulation_seconds.to_bits(),
        "{load:?}: modelled emulation time must be bit-identical"
    );
}

#[test]
fn ff_bit_flips_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 12, 201);
}

#[test]
fn gsr_bit_flips_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    let mut load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    load.use_gsr = true;
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 202);
}

#[test]
fn multiple_bit_flips_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::multiple_bit_flips(TargetClass::AllFfs, 3);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 203);
}

#[test]
fn lut_pulses_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 12, 204);
}

#[test]
fn cb_input_pulses_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::pulses(TargetClass::CbInputs, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 205);
}

#[test]
fn wire_delays_fall_back_to_scalar_and_match() {
    // Routing delays are not lane-expressible: the whole load routes to
    // the scalar fallback inside `run`, which must still produce
    // results identical to a plain scalar run.
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::delays(TargetClass::SequentialWires, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 206);
}

#[test]
fn indeterminations_match_scalar_path() {
    // `oscillating: false` runs on the lanes; `oscillating: true`
    // re-randomises every cycle and falls back to the scalar path.
    let (nl, imp) = lfsr_design();
    for oscillating in [false, true] {
        let load =
            FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::SHORT, oscillating);
        assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 207);
    }
}

#[test]
fn lut_indeterminations_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    for oscillating in [false, true] {
        let load =
            FaultLoad::indeterminations(TargetClass::AllLuts, DurationRange::SHORT, oscillating);
        assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 208);
    }
}

#[test]
fn permanent_stuck_at_faults_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::permanent(PermanentFault::StuckAt, TargetClass::AllLuts);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 209);
}

#[test]
fn permanent_stuck_ff_faults_match_scalar_path() {
    // Stuck-at on a flip-flop resolves to the StuckFf strategy, which
    // re-asserts its level through the LSR every cycle — per-cycle PulseLsr
    // traffic the lanes must charge identically.
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::permanent(PermanentFault::StuckAt, TargetClass::AllFfs);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 210);
}

#[test]
fn permanent_open_line_faults_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    for kind in [
        PermanentFault::OpenLine,
        PermanentFault::Bridging,
        PermanentFault::StuckOpen,
    ] {
        let load = FaultLoad::permanent(kind, TargetClass::AllLuts);
        assert_equivalent(&nl, &imp, &["q"], 150, &load, 8, 216);
    }
}

#[test]
fn memory_bit_flips_match_scalar_path() {
    use fades_mcu8051::{build_soc, workloads, OBSERVED_PORTS};
    let w = workloads::fibonacci();
    let soc = build_soc(&w.rom).unwrap();
    let imp = implement(&soc.netlist, fades_fpga::ArchParams::virtex1000_like()).unwrap();
    let load = FaultLoad::bit_flips(
        TargetClass::MemoryBits {
            name: "iram".into(),
            lo: w.data_range.0 as usize,
            hi: w.data_range.1 as usize,
        },
        DurationRange::SubCycle,
    );
    // BRAM-targeting faults exercise the dirty-content divergence sweep
    // and the per-lane gather path after a warm-start restore.
    for seed in [211, 219] {
        assert_equivalent(&soc.netlist, &imp, &OBSERVED_PORTS, 700, &load, 6, seed);
    }
}

#[test]
fn cohort_overflow_refills_and_multi_pass() {
    // More experiments than lanes: the runner must refill retired lanes
    // and, when an entry's injection instant has already passed, carry it
    // into a later pass with its own warm-start checkpoint — all without
    // disturbing equivalence.
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    for seed in [212, 218] {
        assert_equivalent(&nl, &imp, &["q"], 150, &load, 100, seed);
    }
}

#[test]
fn batched_execution_composes_with_shards() {
    let _lanes = lanes_running();
    // `execute_batched` accepts shards, which is how it composes with
    // `fades-dispatch`: the union of per-shard results must equal the
    // monolithic run. Warm-start picks its checkpoint from each shard's
    // own earliest injection, which must not show.
    let (nl, imp) = lfsr_design();
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config(true)).unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    for seed in [213, 222] {
        let plan = campaign.plan(&load, 20, seed).unwrap();
        let whole = campaign.execute_batched(&plan, None).unwrap();
        let mut sharded = Vec::new();
        for shard in 0..3 {
            let sub = plan.shard(shard, 3);
            sharded.extend(
                campaign
                    .execute_batched(&sub, None)
                    .unwrap()
                    .into_iter()
                    .zip(sub.experiments.iter().map(|e| e.index)),
            );
        }
        sharded.sort_by_key(|(_, index)| *index);
        assert_eq!(whole.len(), sharded.len());
        for (w, (s, _)) in whole.iter().zip(&sharded) {
            assert_eq!(w.fault, s.fault);
            assert_eq!(w.outcome, s.outcome);
            assert_eq!(w.traffic, s.traffic);
        }
    }
}

#[test]
fn disabling_batch_makes_run_scalar() {
    let _lanes = lane_counters_exclusive();
    // With `batch: false` the campaign entry points must route everything
    // through the scalar executor — observable as zero lane telemetry.
    let (nl, imp) = lfsr_design();
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config(false)).unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    fades_telemetry::sim::reset();
    let scalar = campaign
        .execute(&campaign.plan(&load, 8, 214).unwrap(), None)
        .unwrap();
    let batched = campaign.run_detailed(&load, 8, 214).unwrap();
    assert_eq!(
        fades_telemetry::sim::LANE_CYCLES.get(),
        0,
        "batch: false must never touch the lane engine"
    );
    for (b, s) in batched.iter().zip(&scalar) {
        assert_eq!(b.outcome, s.outcome);
        assert_eq!(b.traffic, s.traffic);
    }
}

/// Asserts two isolated-executor verdict streams are equivalent:
/// identical indices, outcomes, traffic, attempts and bit-identical
/// modelled seconds.
fn assert_verdicts_equivalent(
    batched: &[fades_core::ExperimentVerdict],
    scalar: &[fades_core::ExperimentVerdict],
) {
    use fades_core::ExperimentVerdict as V;
    assert_eq!(batched.len(), scalar.len());
    for (b, s) in batched.iter().zip(scalar) {
        assert_eq!(b.index(), s.index());
        match (b, s) {
            (
                V::Completed {
                    modelled_seconds: bm,
                    result: br,
                    attempts: ba,
                    ..
                },
                V::Completed {
                    modelled_seconds: sm,
                    result: sr,
                    attempts: sa,
                    ..
                },
            ) => {
                assert_eq!(ba, sa, "index {}", b.index());
                assert_eq!(br.outcome, sr.outcome, "index {}", b.index());
                assert_eq!(br.traffic, sr.traffic, "index {}", b.index());
                assert_eq!(
                    bm.to_bits(),
                    sm.to_bits(),
                    "index {}: modelled seconds must be bit-identical",
                    b.index()
                );
            }
            (V::Quarantined { .. }, V::Quarantined { .. }) => {}
            other => panic!("verdict kinds diverge at index {}: {other:?}", b.index()),
        }
    }
}

#[test]
fn batched_isolated_matches_scalar_isolated_bitwise() {
    let _lanes = lanes_running();
    // The tentpole contract: the lane engine under the isolation
    // contract produces verdicts bit-identical to the scalar isolated
    // executor, and its observer fires exactly once per experiment — at
    // lane retirement, i.e. interleaved with execution, not after it.
    let (nl, imp) = lfsr_design();
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config(true)).unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    let plan = campaign.plan(&load, 70, 215).unwrap();

    let observed = std::sync::Mutex::new(Vec::new());
    let observer = |v: &fades_core::ExperimentVerdict| observed.lock().unwrap().push(v.index());
    let batched = campaign
        .execute_batched_isolated(&plan, 1, None, Some(&observer))
        .unwrap();
    let scalar = campaign.execute_isolated(&plan, 1, None, None).unwrap();
    assert_verdicts_equivalent(&batched, &scalar);

    let mut seen = observed.into_inner().unwrap();
    seen.sort_unstable();
    assert_eq!(
        seen,
        (0..70).collect::<Vec<u64>>(),
        "observer must fire exactly once per experiment"
    );
}

#[test]
fn threaded_batched_isolated_matches_scalar_isolated_bitwise() {
    let _lanes = lanes_running();
    // The isolated lane executor chunks the injection-sorted plan across
    // lane threads exactly as the fail-fast one does: on four threads
    // over five words' worth of experiments, every verdict must still be
    // bit-identical to the scalar isolated executor, and the observer —
    // now called from several lane threads — must see each experiment
    // exactly once.
    let (nl, imp) = lfsr_design();
    let config = CampaignConfig {
        threads: 4,
        ..config(true)
    };
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config).unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    let n = 300;
    let plan = campaign.plan(&load, n, 223).unwrap();

    let observed = std::sync::Mutex::new(Vec::new());
    let observer = |v: &fades_core::ExperimentVerdict| observed.lock().unwrap().push(v.index());
    let batched = campaign
        .execute_batched_isolated(&plan, 1, None, Some(&observer))
        .unwrap();
    let scalar = campaign.execute_isolated(&plan, 1, None, None).unwrap();
    assert_verdicts_equivalent(&batched, &scalar);

    let mut seen = observed.into_inner().unwrap();
    seen.sort_unstable();
    assert_eq!(
        seen,
        (0..n as u64).collect::<Vec<u64>>(),
        "observer must fire exactly once per experiment"
    );
}

#[test]
fn batched_isolated_scalar_fallback_load_matches() {
    let _lanes = lanes_running();
    // A load the lane engine cannot express at all (routing delays):
    // `execute_batched_isolated` must route it wholesale to the scalar
    // isolated path and stay equivalent.
    let (nl, imp) = lfsr_design();
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config(true)).unwrap();
    let load = FaultLoad::delays(TargetClass::SequentialWires, DurationRange::SHORT);
    let plan = campaign.plan(&load, 10, 217).unwrap();
    let batched = campaign
        .execute_batched_isolated(&plan, 1, None, None)
        .unwrap();
    let scalar = campaign.execute_isolated(&plan, 1, None, None).unwrap();
    assert_verdicts_equivalent(&batched, &scalar);
}

/// A counter whose inverted bits feed only an unobserved port (same
/// fixture shape as `fastpath.rs`): pulses into the inverters are silent
/// and the lane re-converges with golden once the fault is removed.
fn dead_logic_design() -> (fades_netlist::Netlist, fades_pnr::Implementation) {
    let mut b = RtlBuilder::new("dead");
    let r = b.reg("cnt", 4, 0);
    let q = r.q().clone();
    let next = b.add_const(&q, 1);
    b.connect(r, &next);
    b.output("q", &q);
    let mut dead = Vec::new();
    for i in 0..4 {
        dead.push(b.not_bit(q.bit(i)));
    }
    let dead_sig = fades_rtl::Signal::from_bits(dead);
    b.output("unused_dbg", &dead_sig);
    let nl = b.finish().unwrap();
    let imp = implement(&nl, fades_fpga::ArchParams::small()).unwrap();
    (nl, imp)
}

#[test]
fn silent_faults_retire_lanes_early() {
    let _lanes = lane_counters_exclusive();
    // Guard against the differential suite silently passing because the
    // batch path quietly fell back to scalar for everything — and check
    // the batch analogue of early stop: pulses into the dead inverters
    // reconverge with lane 0 once removed, so those lanes must retire.
    let (nl, imp) = dead_logic_design();
    let campaign = Campaign::with_config(&nl, imp.clone(), &["q"], 150, config(true)).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    fades_telemetry::sim::reset();
    let batched = campaign.run_detailed(&load, 20, 17).unwrap();
    assert!(
        fades_telemetry::sim::LANE_CYCLES.get() > 0,
        "the lane engine never ran"
    );
    assert!(
        fades_telemetry::sim::LANE_RETIREMENTS.get() > 0,
        "no lane ever retired early on reconvergence"
    );
    fades_telemetry::sim::reset();
    assert!(
        batched
            .iter()
            .any(|r| r.outcome == fades_core::Outcome::Silent && r.early_stop_cycles > 0),
        "no silent experiment retired early: {:?}",
        batched
            .iter()
            .map(|r| (r.outcome, r.early_stop_cycles))
            .collect::<Vec<_>>()
    );
    // And the retired outcomes still match the scalar reference.
    let scalar = campaign
        .execute(&campaign.plan(&load, 20, 17).unwrap(), None)
        .unwrap();
    for (b, s) in batched.iter().zip(&scalar) {
        assert_eq!(b.outcome, s.outcome, "fault {:?}", b.fault);
        assert_eq!(b.traffic, s.traffic);
    }
}

#[test]
fn no_batch_escape_hatch_controls_the_default() {
    // Read per call (deliberately uncached) so one process can exercise
    // both settings; no other test in this binary consults the default.
    std::env::set_var("FADES_NO_BATCH", "1");
    assert!(!fades_core::batch_default());
    std::env::set_var("FADES_NO_BATCH", "0");
    assert!(fades_core::batch_default());
    std::env::set_var("FADES_NO_BATCH", "");
    assert!(fades_core::batch_default());
    std::env::remove_var("FADES_NO_BATCH");
    assert!(fades_core::batch_default());
}

#[test]
fn batched_isolated_matches_a_separate_scalar_campaign() {
    let _lanes = lanes_running();
    // The isolation contract across campaigns: verdicts from
    // `execute_batched_isolated` must stay bit-identical to the isolated
    // path of an independently built scalar campaign.
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    let reference = Campaign::with_config(&nl, imp.clone(), &["q"], 150, config(false)).unwrap();
    let plan = reference.plan(&load, 70, 220).unwrap();
    let scalar = reference.execute_isolated(&plan, 1, None, None).unwrap();
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config(true)).unwrap();
    let batched = campaign
        .execute_batched_isolated(&plan, 1, None, None)
        .unwrap();
    assert_verdicts_equivalent(&batched, &scalar);
}

#[test]
fn multi_thread_batched_matches_single_thread_bitwise() {
    let _lanes = lanes_running();
    // Per-experiment results are cohort-composition-independent (lanes
    // interact only with the golden lane and timing draws are
    // lane-invariant), so chunking the sorted plan across worker threads
    // must be invisible: threads=4 equals threads=1 equals scalar, to the
    // bit.
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    let n = 150; // several cohorts, so the chunking actually splits work
    let mt = Campaign::with_config(
        &nl,
        imp.clone(),
        &["q"],
        150,
        CampaignConfig {
            threads: 4,
            ..config(true)
        },
    )
    .unwrap();
    let st = Campaign::with_config(&nl, imp.clone(), &["q"], 150, config(true)).unwrap();
    let threaded = mt.run_detailed(&load, n, 221).unwrap();
    let single = st.run_detailed(&load, n, 221).unwrap();
    let scalar = st.execute(&st.plan(&load, n, 221).unwrap(), None).unwrap();
    assert_eq!(threaded.len(), single.len());
    assert_eq!(threaded.len(), scalar.len());
    for ((t, o), s) in threaded.iter().zip(&single).zip(&scalar) {
        assert_eq!(t.fault, s.fault);
        assert_eq!(t.outcome, o.outcome, "fault {:?}", t.fault);
        assert_eq!(t.outcome, s.outcome, "fault {:?}", t.fault);
        assert_eq!(t.traffic, o.traffic, "fault {:?}", t.fault);
        assert_eq!(t.traffic, s.traffic, "fault {:?}", t.fault);
    }
    let ts = mt.run(&load, n, 221).unwrap();
    let os = st.run(&load, n, 221).unwrap();
    assert_eq!(ts.outcomes, os.outcomes);
    assert_eq!(
        ts.emulation_seconds.to_bits(),
        os.emulation_seconds.to_bits(),
        "modelled time must not depend on the thread count"
    );
}

#[test]
fn lane_experiments_are_recorded_as_their_lanes_retire() {
    let _lanes = lanes_running();
    // A fail-fast lane run that errors part-way through its cohort: the
    // experiments whose lanes retired before the error must already be in
    // the recorder. Recording them only after the whole lane run returns
    // would freeze `/status` progress for the length of a campaign.
    let (nl, imp) = lfsr_design();
    let campaign = Campaign::with_config(&nl, imp.clone(), &["q"], 150, config(true)).unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    let mut plan = campaign.plan(&load, 8, 223).unwrap();
    // The poison: a flip into a block without a flip-flop, injected at
    // the last workload cycle, long after the good flips have diverged
    // and retired.
    plan.experiments.push(PlannedExperiment {
        index: 8,
        fault: ResolvedFault::FfBitFlip {
            cb: imp.bitstream.unused_cbs()[0],
            via_gsr: false,
        },
        schedule: FaultSchedule {
            inject_at: 149,
            duration: None,
        },
        seed: 0,
        annotation: PlanAnnotation::None,
    });
    plan.n_total = 9;
    let recorder = Recorder::new("live-lanes", 9, 1).with_run_log(None);
    assert!(campaign.execute_batched(&plan, Some(&recorder)).is_err());
    let aggregate = recorder.finish();
    let _ = fades_telemetry::drain_aggregates();
    let retired_early = plan.experiments[..8]
        .iter()
        .filter(|e| e.schedule.inject_at < 140)
        .count();
    assert!(retired_early > 0, "the plan needs early injections");
    assert!(
        aggregate.n as usize >= retired_early,
        "only {} of the {retired_early} experiments retired before the error were recorded",
        aggregate.n
    );
}

#[test]
fn run_log_names_the_engine_that_decided_each_experiment() {
    let _lanes = lanes_running();
    // One plan mixing lane-expressible bit-flips with routing delays,
    // which fall back to the scalar `Device`: each run-log record must
    // name the engine that decided it.
    let (nl, imp) = lfsr_design();
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config(true)).unwrap();
    let flips = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    let delays = FaultLoad::delays(TargetClass::SequentialWires, DurationRange::SHORT);
    let mut plan = campaign.plan(&flips, 6, 224).unwrap();
    plan.experiments.extend(
        campaign
            .plan(&delays, 4, 225)
            .unwrap()
            .experiments
            .into_iter()
            .map(|mut e| {
                e.index += 6;
                e
            }),
    );
    plan.n_total = 10;

    let log = std::env::temp_dir().join(format!("fades-engine-test-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let recorder = Recorder::new("engine-mix", 10, 1).with_run_log(Some(log.clone()));
    campaign.execute_batched(&plan, Some(&recorder)).unwrap();
    recorder.finish();
    let _ = fades_telemetry::drain_aggregates();

    let text = std::fs::read_to_string(&log).expect("run log written");
    let _ = std::fs::remove_file(&log);
    let mut seen = 0;
    for line in text.lines() {
        let v = fades_telemetry::json::parse(line).unwrap();
        if v.get("type").and_then(|t| t.as_str()) != Some("experiment") {
            continue;
        }
        let index = v
            .get("index")
            .and_then(fades_telemetry::json::JsonValue::as_u64)
            .unwrap();
        let expected = match plan.experiments[index as usize].fault {
            ResolvedFault::WireDelay { .. } => "scalar",
            _ => "lane",
        };
        assert_eq!(
            v.get("engine").and_then(|e| e.as_str()),
            Some(expected),
            "experiment {index}: {line}"
        );
        seen += 1;
    }
    assert_eq!(seen, 10, "one record per experiment:\n{text}");
}
