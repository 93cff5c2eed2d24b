//! Panic-isolation behaviour under the `FADES_CHAOS_PANIC*` hooks.
//!
//! One sequential test: the chaos hooks are process-wide environment
//! variables, so the scenarios must not run on parallel test threads.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::fs;
use std::path::PathBuf;

use fades_core::{
    Campaign, CampaignConfig, CoreError, DurationRange, ExperimentVerdict, FaultLoad, TargetClass,
};
use fades_dispatch::{merge, run_shard, ShardOptions};
use fades_fpga::ArchParams;
use fades_netlist::UnitTag;
use fades_pnr::implement;
use fades_rtl::RtlBuilder;

fn lfsr_campaign() -> (fades_netlist::Netlist, fades_pnr::Implementation) {
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
    let imp = implement(&netlist, ArchParams::small()).unwrap();
    (netlist, imp)
}

#[test]
fn chaos_panics_quarantine_retry_and_fail_fast() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp.clone(), &["q"], 150).unwrap();
    let on_engine = |threads: usize, batch: bool| {
        let config = CampaignConfig {
            threads,
            batch,
            ..CampaignConfig::default()
        };
        Campaign::with_config(&nl, imp.clone(), &["q"], 150, config).unwrap()
    };
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    let plan = campaign.plan(&load, 10, 7).unwrap();

    // Baseline, no chaos: everything completes on the first attempt.
    let baseline = campaign.execute_isolated(&plan, 1, None, None).unwrap();
    assert_eq!(baseline.len(), 10);
    for v in &baseline {
        match v {
            ExperimentVerdict::Completed { attempts, .. } => assert_eq!(*attempts, 1),
            other => panic!("baseline quarantined {other:?}"),
        }
    }

    // Scenario 1: experiment 4 panics on every attempt. The campaign
    // must finish with exactly that experiment quarantined after the
    // retry, everything else unchanged.
    std::env::set_var("FADES_CHAOS_PANIC", "4");
    fades_telemetry::dispatch::reset();
    let verdicts = campaign.execute_isolated(&plan, 1, None, None).unwrap();
    std::env::remove_var("FADES_CHAOS_PANIC");
    assert_eq!(verdicts.len(), 10);
    for (v, b) in verdicts.iter().zip(&baseline) {
        if v.index() == 4 {
            match v {
                ExperimentVerdict::Quarantined {
                    error, attempts, ..
                } => {
                    assert_eq!(*attempts, 2, "one retry before quarantine");
                    assert!(error.contains("chaos"), "{error}");
                }
                other => panic!("expected quarantine, got {other:?}"),
            }
        } else {
            let (v, b) = (v.result().unwrap(), b.result().unwrap());
            assert_eq!(v.outcome, b.outcome, "bystanders are unaffected");
        }
    }
    assert_eq!(fades_telemetry::dispatch::QUARANTINES.get(), 1);

    // Scenario 2: experiment 3 panics only on its first attempt. The
    // retry reruns it on a pristine device and must reproduce the
    // baseline result exactly (retries are deterministic replays).
    std::env::set_var("FADES_CHAOS_PANIC_ONCE", "3");
    fades_telemetry::dispatch::reset();
    let verdicts = campaign.execute_isolated(&plan, 1, None, None).unwrap();
    std::env::remove_var("FADES_CHAOS_PANIC_ONCE");
    match verdicts.iter().find(|v| v.index() == 3).unwrap() {
        ExperimentVerdict::Completed {
            attempts, result, ..
        } => {
            assert_eq!(*attempts, 2, "first attempt panicked, second ran");
            assert_eq!(result.outcome, baseline[3].result().unwrap().outcome);
        }
        other => panic!("retry should have succeeded, got {other:?}"),
    }
    assert_eq!(fades_telemetry::dispatch::RETRIES.get(), 1);
    assert_eq!(fades_telemetry::dispatch::QUARANTINES.get(), 0);

    // Scenario 3: the classic fail-fast path does not quarantine — a
    // panicking experiment surfaces as an error naming its global index.
    std::env::set_var("FADES_CHAOS_PANIC", "2");
    let err = campaign.run(&load, 10, 7).unwrap_err();
    std::env::remove_var("FADES_CHAOS_PANIC");
    match err {
        CoreError::ExperimentPanic { index, message } => {
            assert_eq!(index, 2);
            assert!(message.contains("chaos"), "{message}");
        }
        other => panic!("expected ExperimentPanic, got {other:?}"),
    }

    // Scenario 4: the panic lands *inside a lane cohort* on the batched
    // isolated path. The cohort dies mid-pass; the experiments aboard the
    // word replay scalar-isolated, where the offender is retried and
    // quarantined — one poisoned fault costs one scalar cohort replay,
    // never the shard, and bystanders match the scalar baseline exactly.
    std::env::set_var("FADES_CHAOS_PANIC", "4");
    fades_telemetry::dispatch::reset();
    let verdicts = campaign
        .execute_batched_isolated(&plan, 1, None, None)
        .unwrap();
    std::env::remove_var("FADES_CHAOS_PANIC");
    assert_eq!(verdicts.len(), 10);
    for (v, b) in verdicts.iter().zip(&baseline) {
        if v.index() == 4 {
            match v {
                ExperimentVerdict::Quarantined {
                    error, attempts, ..
                } => {
                    assert_eq!(*attempts, 2, "one scalar retry before quarantine");
                    assert!(error.contains("chaos"), "{error}");
                }
                other => panic!("expected quarantine, got {other:?}"),
            }
        } else {
            let (v, b) = (v.result().unwrap(), b.result().unwrap());
            assert_eq!(v.outcome, b.outcome, "cohort bystanders are unaffected");
            assert_eq!(v.traffic, b.traffic, "cohort bystanders are unaffected");
        }
    }
    assert_eq!(fades_telemetry::dispatch::QUARANTINES.get(), 1);

    // Scenario 5: first-attempt-only panic on the batched path — the
    // cohort attempt panics once, the scalar replay's first attempt
    // panics again (it is still attempt 0 of that executor), and the
    // retry reproduces the baseline result deterministically.
    std::env::set_var("FADES_CHAOS_PANIC_ONCE", "3");
    fades_telemetry::dispatch::reset();
    let verdicts = campaign
        .execute_batched_isolated(&plan, 1, None, None)
        .unwrap();
    std::env::remove_var("FADES_CHAOS_PANIC_ONCE");
    match verdicts.iter().find(|v| v.index() == 3).unwrap() {
        ExperimentVerdict::Completed {
            attempts, result, ..
        } => {
            assert_eq!(*attempts, 2, "scalar replay panicked once, then ran");
            assert_eq!(result.outcome, baseline[3].result().unwrap().outcome);
        }
        other => panic!("retry should have succeeded, got {other:?}"),
    }
    assert_eq!(fades_telemetry::dispatch::QUARANTINES.get(), 0);

    // Scenario 6: the same mid-cohort panic under sharded dispatch. Both
    // engines — picked by the campaign's `CampaignConfig::batch` —
    // journal the quarantine and merge to bit-identical stats.
    let dir = std::env::temp_dir().join(format!("fades-chaos-shard-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    std::env::set_var("FADES_CHAOS_PANIC", "5");
    let mut merged = Vec::new();
    for batch in [true, false] {
        let engine = if batch { "lane" } else { "scalar" };
        let campaign = on_engine(campaign.config().threads, batch);
        let journals: Vec<PathBuf> = (0..2u32)
            .map(|shard| {
                let path = dir.join(format!("{engine}-s{shard}.jsonl"));
                let opts = ShardOptions {
                    load: "bitflip-ffs".into(),
                    retries: 1,
                    with_recorder: false,
                    cancel: None,
                };
                let outcome = run_shard(&campaign, &plan, shard, 2, &path, &opts).unwrap();
                if shard == 1 {
                    assert_eq!(
                        outcome.quarantined.len(),
                        1,
                        "{engine}: the victim lives in shard 1"
                    );
                    assert_eq!(outcome.quarantined[0].0, 5);
                } else {
                    assert!(outcome.quarantined.is_empty(), "{engine}");
                }
                path
            })
            .collect();
        merged.push(merge(&journals).unwrap());
    }
    std::env::remove_var("FADES_CHAOS_PANIC");
    let (lane, scalar) = (&merged[0], &merged[1]);
    assert_eq!(lane.completed, 9);
    assert_eq!(lane.completed, scalar.completed);
    assert_eq!(lane.quarantined.len(), 1);
    assert_eq!(lane.quarantined[0].0, scalar.quarantined[0].0);
    assert_eq!(lane.stats.outcomes, scalar.stats.outcomes);
    assert_eq!(
        lane.stats.emulation_seconds.to_bits(),
        scalar.stats.emulation_seconds.to_bits(),
        "sharded batched merge must be bit-identical to the scalar-isolated merge"
    );
    let _ = fs::remove_dir_all(&dir);

    // Scenario 7: the panic lands in the *second* lane thread. On two
    // threads the injection-sorted lane plan splits into two contiguous
    // chunks of at least two words each; the victim sits in the second.
    // That thread evicts its poisoned word and carries on, the offender
    // is quarantined after one scalar retry, and every bystander matches
    // the scalar baseline to the bit.
    let threaded = on_engine(2, true);
    let plan = threaded.plan(&load, 260, 11).unwrap();
    let mut sorted: Vec<_> = plan.experiments.iter().collect();
    sorted.sort_by_key(|e| (e.schedule.inject_at, e.index));
    let chunk_len = sorted.len().div_ceil(2);
    assert!(
        chunk_len >= 2 * 63,
        "each lane thread gets at least two words"
    );
    let victim = sorted[chunk_len + chunk_len / 2].index;
    let baseline = campaign.execute_isolated(&plan, 1, None, None).unwrap();
    std::env::set_var("FADES_CHAOS_PANIC", victim.to_string());
    fades_telemetry::dispatch::reset();
    let verdicts = threaded
        .execute_batched_isolated(&plan, 1, None, None)
        .unwrap();
    std::env::remove_var("FADES_CHAOS_PANIC");
    assert_eq!(verdicts.len(), baseline.len());
    for (v, b) in verdicts.iter().zip(&baseline) {
        assert_eq!(v.index(), b.index());
        if v.index() == victim {
            match v {
                ExperimentVerdict::Quarantined {
                    error, attempts, ..
                } => {
                    assert_eq!(*attempts, 2, "one scalar retry before quarantine");
                    assert!(error.contains("chaos"), "{error}");
                }
                other => panic!("expected quarantine, got {other:?}"),
            }
            continue;
        }
        match (v, b) {
            (
                ExperimentVerdict::Completed {
                    modelled_seconds: vm,
                    result: vr,
                    ..
                },
                ExperimentVerdict::Completed {
                    modelled_seconds: bm,
                    result: br,
                    ..
                },
            ) => {
                assert_eq!(vr.outcome, br.outcome, "bystander {}", v.index());
                assert_eq!(vr.traffic, br.traffic, "bystander {}", v.index());
                assert_eq!(vm.to_bits(), bm.to_bits(), "bystander {}", v.index());
            }
            other => panic!("bystander {} not completed: {other:?}", v.index()),
        }
    }
    assert_eq!(fades_telemetry::dispatch::QUARANTINES.get(), 1);
}
