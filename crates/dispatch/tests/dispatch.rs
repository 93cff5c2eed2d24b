//! End-to-end shard / resume / merge behaviour on a real campaign.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::fs;
use std::path::PathBuf;

use fades_core::{Campaign, CampaignConfig, DurationRange, FaultLoad, TargetClass};
use fades_dispatch::{merge, run_shard, CancelToken, DispatchError, Journal, ShardOptions};
use fades_fpga::ArchParams;
use fades_netlist::UnitTag;
use fades_pnr::implement;
use fades_rtl::RtlBuilder;

/// The same 8-bit LFSR fixture the core campaign tests use: every bit
/// observable, fast to simulate, rich enough to produce all three
/// outcome classes under pulse loads.
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

/// The fixture on the engine `batch` picks ([`CampaignConfig::batch`],
/// which `run_shard` honours). With `batch: false` it is the scalar
/// oracle, whose `run` never touches the lane engine: monolithic ground
/// truths come from there so lane-engine shards are checked against the
/// scalar `Device`, not against the lane engine itself.
fn on_engine<'n>(
    nl: &'n fades_netlist::Netlist,
    imp: &fades_pnr::Implementation,
    batch: bool,
) -> Campaign<'n> {
    let config = CampaignConfig {
        batch,
        ..CampaignConfig::default()
    };
    Campaign::with_config(nl, imp.clone(), &["q"], 150, config).unwrap()
}

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fades-dispatch-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> ShardOptions {
    ShardOptions {
        load: "pulse-luts".into(),
        ..ShardOptions::default()
    }
}

#[test]
fn merged_shards_are_bit_identical_to_the_monolithic_run() {
    // Both shard engines — scalar isolated and the batched lane engine —
    // must merge to stats bit-identical to the monolithic run on the
    // scalar oracle, for every shard count.
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp.clone(), &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    let (n, seed) = (30, 42);

    let monolithic = on_engine(&nl, &imp, false).run(&load, n, seed).unwrap();
    let plan = campaign.plan(&load, n, seed).unwrap();
    let dir = scratch_dir("bitident");

    for batch in [false, true] {
        let engine = if batch { "lane" } else { "scalar" };
        let campaign = on_engine(&nl, &imp, batch);
        for count in [1u32, 2, 3, 5] {
            let journals: Vec<PathBuf> = (0..count)
                .map(|shard| {
                    let path = dir.join(format!("{engine}-c{count}-s{shard}.jsonl"));
                    let outcome =
                        run_shard(&campaign, &plan, shard, count, &path, &opts()).unwrap();
                    assert_eq!(outcome.skipped, 0);
                    assert!(outcome.quarantined.is_empty());
                    path
                })
                .collect();
            let report = merge(&journals).unwrap();
            assert!(report.is_complete(), "{engine}, {count} shards: {report:?}");
            assert_eq!(report.completed, n as u64);
            assert_eq!(report.stats.n, monolithic.n);
            assert_eq!(report.stats.outcomes, monolithic.outcomes);
            assert_eq!(
                report.stats.emulation_seconds.to_bits(),
                monolithic.emulation_seconds.to_bits(),
                "{engine}, {count} shards: merged modelled time must be bit-identical \
                 ({} vs {})",
                report.stats.emulation_seconds,
                monolithic.emulation_seconds
            );
        }
    }

    // The batched shards above drove the lane engine, whose process-wide
    // counters feed the `/status` endpoint: sharded runs must show up as
    // non-zero lane occupancy there.
    let status = fades_telemetry::status_snapshot();
    assert!(
        status.lane_occupancy > 0.0,
        "batched sharded runs must feed /status lane occupancy"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn lint_gate_rejects_error_designs_and_shard_runs_pass_through_it() {
    // A LUT feeding its own input pin is a combinational cycle, the one
    // lint rule with `Error` severity. Such a bitstream cannot even
    // become a `Campaign` (device construction refuses the loop), so the
    // gate is exercised directly — it is the same call `run_shard` makes
    // before touching any journal.
    let mut broken = fades_fpga::Bitstream::new(ArchParams::small());
    let cycle_cb = fades_fpga::CbCoord::new(15, 15);
    let out = broken.place_lut(cycle_cb, 0xAAAA).unwrap();
    broken.connect_lut_pin(cycle_cb, 0, out).unwrap();
    match fades_dispatch::lint_gate(&broken) {
        Err(DispatchError::Lint(diags)) => {
            assert!(!diags.is_empty());
            assert!(
                diags
                    .iter()
                    .all(|d| d.severity == fades_analysis::Severity::Error),
                "the Lint error carries only the error-severity findings: {diags:?}"
            );
            assert!(diags.iter().any(|d| d.rule == "comb-cycle"), "{diags:?}");
        }
        other => panic!("expected a lint rejection, got {other:?}"),
    }

    // A healthy design passes the gate inside run_shard — and the lint
    // pass feeds the process-wide diagnostics counter while doing so.
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    let plan = campaign.plan(&load, 4, 7).unwrap();
    let dir = scratch_dir("lintgate");
    let before = fades_telemetry::analysis::LINT_DIAGNOSTICS.get();
    run_shard(&campaign, &plan, 0, 1, &dir.join("ok.jsonl"), &opts()).unwrap();
    assert!(
        fades_telemetry::analysis::LINT_DIAGNOSTICS.get() > before,
        "run_shard must actually lint the design on admission"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn invalid_shard_geometry_is_a_typed_error() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let plan = campaign.plan(&load, 6, 3).unwrap();
    let dir = scratch_dir("geometry");

    for (shard, count) in [(0u32, 0u32), (2, 2), (7, 3)] {
        let path = dir.join(format!("g{shard}-{count}.jsonl"));
        let err = run_shard(&campaign, &plan, shard, count, &path, &opts()).unwrap_err();
        match err {
            DispatchError::Core(fades_core::CoreError::ShardGeometry { index, count: c }) => {
                assert_eq!((index, c), (shard, count));
            }
            other => panic!("shard {shard}/{count}: expected geometry error, got {other:?}"),
        }
        assert!(
            !path.exists(),
            "an impossible geometry must not leave a journal behind"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_kill_skips_journaled_experiments() {
    // Run the kill/resume drill on both engines. On the batched path the
    // journal is written at lane *retirement*, so a kill mid-cohort
    // leaves a prefix of retirement-ordered records — resume must pick
    // up the remainder (batched again) and still fold to stats
    // bit-identical to the uninterrupted scalar pass.
    let (nl, imp) = lfsr_campaign();
    let campaign = on_engine(&nl, &imp, false);
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let (n, seed) = (20, 9);
    let plan = campaign.plan(&load, n, seed).unwrap();
    let dir = scratch_dir("resume");

    // The scalar-isolated reference pass over shard 0 of 2.
    let full_path = dir.join("full.jsonl");
    let full = run_shard(&campaign, &plan, 0, 2, &full_path, &opts()).unwrap();
    assert_eq!(full.executed, 10);

    for batch in [false, true] {
        let engine = if batch { "lane" } else { "scalar" };
        let campaign = on_engine(&nl, &imp, batch);
        // A full pass on this engine, then simulate a kill: keep the
        // header + 4 journaled experiments and a torn partial line, as
        // if the process died mid-append.
        let donor_path = dir.join(format!("{engine}-donor.jsonl"));
        run_shard(&campaign, &plan, 0, 2, &donor_path, &opts()).unwrap();
        let text = fs::read_to_string(&donor_path).unwrap();
        let keep: Vec<&str> = text.lines().take(5).collect();
        let crashed_path = dir.join(format!("{engine}-crashed.jsonl"));
        fs::write(
            &crashed_path,
            format!("{}\n{{\"type\":\"exp", keep.join("\n")),
        )
        .unwrap();

        let resumed = run_shard(&campaign, &plan, 0, 2, &crashed_path, &opts()).unwrap();
        assert_eq!(
            resumed.skipped, 4,
            "{engine}: journaled experiments are not re-run"
        );
        assert_eq!(resumed.executed, 6, "{engine}");
        assert_eq!(resumed.completed, 10, "{engine}");

        // The healed journal folds to exactly the uninterrupted
        // scalar-isolated pass, to the bit.
        assert_eq!(resumed.stats.outcomes, full.stats.outcomes, "{engine}");
        assert_eq!(
            resumed.stats.emulation_seconds.to_bits(),
            full.stats.emulation_seconds.to_bits(),
            "{engine}: resumed stats must be bit-identical to the scalar reference"
        );

        // And a replayed journal has every shard-0 experiment exactly once.
        let replay = Journal::load(&crashed_path).unwrap();
        let indices: Vec<u64> = replay.settled_indices().into_iter().collect();
        assert_eq!(
            indices,
            (0..n as u64).filter(|i| i % 2 == 0).collect::<Vec<_>>(),
            "{engine}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_shard_leaves_a_resumable_journal() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp.clone(), &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let (n, seed) = (12, 7);
    let plan = campaign.plan(&load, n, seed).unwrap();
    let dir = scratch_dir("cancel");
    let path = dir.join("s0.jsonl");

    // A token that fired before the run starts: the runner must write a
    // valid (empty) journal and stop before executing anything.
    let token = CancelToken::new();
    token.cancel();
    let opts_cancel = ShardOptions {
        cancel: Some(token),
        ..opts()
    };
    let outcome = run_shard(&campaign, &plan, 0, 1, &path, &opts_cancel).unwrap();
    assert!(outcome.cancelled);
    assert_eq!(outcome.executed, 0);
    assert_eq!(outcome.completed, 0);
    let replay = Journal::load(&path).unwrap();
    assert!(!replay.shard_complete, "a cancelled shard is not complete");

    // Re-running with a live token resumes and completes (on the lane
    // engine, the campaign's default); stats are bit-identical to the
    // monolithic run of the same plan on the scalar oracle.
    let monolithic = on_engine(&nl, &imp, false).run(&load, n, seed).unwrap();
    let live = ShardOptions {
        cancel: Some(CancelToken::new()),
        ..opts()
    };
    let resumed = run_shard(&campaign, &plan, 0, 1, &path, &live).unwrap();
    assert!(!resumed.cancelled);
    assert_eq!(resumed.completed, n as u64);
    assert_eq!(resumed.stats.outcomes, monolithic.outcomes);
    assert_eq!(
        resumed.stats.emulation_seconds.to_bits(),
        monolithic.emulation_seconds.to_bits(),
        "cancel + resume must not perturb merged stats"
    );
    let replay = Journal::load(&path).unwrap();
    assert!(replay.shard_complete);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_a_journal_from_a_different_campaign() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let dir = scratch_dir("mismatch");
    let path = dir.join("s0.jsonl");

    let plan = campaign.plan(&load, 10, 1).unwrap();
    run_shard(&campaign, &plan, 0, 2, &path, &opts()).unwrap();

    // Same journal, different seed: resume must refuse, not silently mix.
    let other = campaign.plan(&load, 10, 2).unwrap();
    let err = run_shard(&campaign, &other, 0, 2, &path, &opts()).unwrap_err();
    assert!(matches!(err, DispatchError::Mismatch(_)), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_journals_of_different_campaigns() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let dir = scratch_dir("mergemismatch");

    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");
    let plan1 = campaign.plan(&load, 8, 1).unwrap();
    let plan2 = campaign.plan(&load, 8, 2).unwrap();
    run_shard(&campaign, &plan1, 0, 2, &a, &opts()).unwrap();
    run_shard(&campaign, &plan2, 1, 2, &b, &opts()).unwrap();
    let err = merge(&[a, b]).unwrap_err();
    assert!(matches!(err, DispatchError::Mismatch(_)), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn merge_reports_missing_experiments_of_unrun_shards() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let dir = scratch_dir("missing");
    let path = dir.join("s1.jsonl");

    let plan = campaign.plan(&load, 9, 5).unwrap();
    run_shard(&campaign, &plan, 1, 3, &path, &opts()).unwrap();
    let report = merge(&[path]).unwrap();
    assert!(!report.is_complete());
    assert_eq!(report.completed, 3);
    assert_eq!(
        report.missing,
        vec![0, 2, 3, 5, 6, 8],
        "everything outside shard 1 of 3 is missing"
    );
    let _ = fs::remove_dir_all(&dir);
}
