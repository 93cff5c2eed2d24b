//! Deterministic campaign plans: the shardable, resumable half of the
//! plan/execute split.
//!
//! A [`CampaignPlan`] is the fully-sampled fault list of one campaign —
//! every experiment's resolved fault, schedule and derived RNG seed,
//! tagged with its global index. Because sampling happens once, up
//! front, from the campaign seed alone, the plan is a pure function of
//! `(campaign, load, n_faults, seed)`: two processes that build the same
//! plan and execute disjoint [shards](CampaignPlan::shard) of it perform
//! exactly the experiments a single monolithic run would have, which is
//! what makes `fades-dispatch`'s shard/resume/merge workflow sound.

use std::collections::BTreeSet;

use crate::error::CoreError;
use crate::experiment::{ExperimentResult, FaultSchedule};
use crate::location::ResolvedFault;

/// A plan-time verdict attached to an experiment by the static
/// pre-classifier (`fades-analysis` cone-of-influence over the pristine
/// design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanAnnotation {
    /// No static knowledge; the experiment executes normally.
    #[default]
    None,
    /// The fault lands in provably dead logic and heals before it could
    /// matter: the analysis predicts a Silent outcome. Executors still run
    /// the experiment; the annotation is a plan-time report, and the
    /// soundness suite checks it against the executed outcome.
    StaticSilent,
}

/// One fully-sampled experiment of a campaign plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedExperiment {
    /// Global index within the monolithic plan (stable across sharding
    /// and resume; the journal and run-log key).
    pub index: u64,
    /// The concrete fault to inject.
    pub fault: ResolvedFault,
    /// When the fault is injected and for how long.
    pub schedule: FaultSchedule,
    /// Per-experiment RNG seed, derived from the campaign seed and the
    /// global index (so a shard replays exactly the monolithic stream).
    pub seed: u64,
    /// Static pre-classification verdict (a pure function of the plan
    /// inputs, so shards agree on it without communicating).
    pub annotation: PlanAnnotation,
}

/// The fully-sampled fault list of one campaign.
///
/// Built by [`Campaign::plan`](crate::Campaign::plan); executed by
/// [`Campaign::execute`](crate::Campaign::execute) (fail-fast) or
/// [`Campaign::execute_isolated`](crate::Campaign::execute_isolated)
/// (per-experiment panic containment).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Display label of the targeted element class (feeds the telemetry
    /// records, e.g. `"all FFs"`).
    pub target: String,
    /// Whether the load's duration range is sub-cycle (selects the
    /// sub-cycle injection strategies).
    pub sub_cycle: bool,
    /// The campaign seed the plan was sampled from.
    pub seed: u64,
    /// Experiments in the *monolithic* plan (a shard keeps this so the
    /// union proof and the merge completeness check know the universe).
    pub n_total: usize,
    /// The experiments of this plan (all of them for a monolithic plan,
    /// a subset with original indices for a shard).
    pub experiments: Vec<PlannedExperiment>,
}

impl CampaignPlan {
    /// Experiments in this plan (≤ [`n_total`](CampaignPlan::n_total)).
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// Whether the plan holds no experiments.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// Deterministically partitions the plan: shard `index` of `count`
    /// keeps the experiments whose global index is congruent to `index`
    /// modulo `count` (strided, so long and short experiments spread
    /// evenly). The shards of any `count` are disjoint and their union is
    /// exactly this plan — no experiment is duplicated or dropped.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `index >= count`. Callers handling
    /// untrusted geometry use [`try_shard`](CampaignPlan::try_shard).
    pub fn shard(&self, index: u32, count: u32) -> CampaignPlan {
        self.try_shard(index, count)
            .unwrap_or_else(|_| panic!("shard index {index} out of {count}"))
    }

    /// [`shard`](CampaignPlan::shard) with the geometry validated
    /// instead of asserted: `count == 0` or `index >= count` is a typed
    /// [`CoreError::ShardGeometry`], never a panic and never a silently
    /// empty shard.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShardGeometry`] on an impossible geometry.
    pub fn try_shard(&self, index: u32, count: u32) -> Result<CampaignPlan, CoreError> {
        if count == 0 || index >= count {
            return Err(CoreError::ShardGeometry { index, count });
        }
        Ok(self.subplan(
            self.experiments
                .iter()
                .filter(|e| e.index % count as u64 == index as u64)
                .cloned(),
        ))
    }

    /// A plan over `experiments` — a subset of this plan's, global
    /// indices kept — inheriting this plan's target, sub-cycle flag, seed
    /// and universe size. Every sub-plan (shard, cancellation chunk,
    /// engine partition) is built here.
    pub fn subplan(
        &self,
        experiments: impl IntoIterator<Item = PlannedExperiment>,
    ) -> CampaignPlan {
        CampaignPlan {
            target: self.target.clone(),
            sub_cycle: self.sub_cycle,
            seed: self.seed,
            n_total: self.n_total,
            experiments: experiments.into_iter().collect(),
        }
    }

    /// Drops the experiments whose global index is in `done` (journal
    /// replay during resume). Returns how many were dropped.
    pub fn retain_pending(&mut self, done: &BTreeSet<u64>) -> usize {
        let before = self.experiments.len();
        self.experiments.retain(|e| !done.contains(&e.index));
        before - self.experiments.len()
    }
}

/// The fate of one planned experiment under the isolating executor.
#[derive(Debug, Clone)]
pub enum ExperimentVerdict {
    /// The experiment ran to classification.
    Completed {
        /// Global plan index.
        index: u64,
        /// Modelled emulation seconds of this experiment (the paper's
        /// metric, precomputed so downstream sinks need no time model).
        modelled_seconds: f64,
        /// Execution attempts it took (1 = first try).
        attempts: u32,
        /// The classified result.
        result: ExperimentResult,
    },
    /// Every attempt panicked or errored; the experiment is set aside so
    /// the campaign can finish without it.
    Quarantined {
        /// Global plan index.
        index: u64,
        /// The final attempt's panic message or error.
        error: String,
        /// Execution attempts made before giving up.
        attempts: u32,
    },
}

impl ExperimentVerdict {
    /// The experiment's global plan index.
    pub fn index(&self) -> u64 {
        match self {
            ExperimentVerdict::Completed { index, .. }
            | ExperimentVerdict::Quarantined { index, .. } => *index,
        }
    }

    /// The completed result, if the experiment was not quarantined.
    pub fn result(&self) -> Option<&ExperimentResult> {
        match self {
            ExperimentVerdict::Completed { result, .. } => Some(result),
            ExperimentVerdict::Quarantined { .. } => None,
        }
    }
}

/// Chaos-testing hook: a deliberate panic injected into the experiment
/// executor, controlled by environment variables.
///
/// * `FADES_CHAOS_PANIC=<index>` — every attempt at that global
///   experiment index panics (drives an experiment into quarantine).
/// * `FADES_CHAOS_PANIC_ONCE=<index>` — only the first attempt panics
///   (exercises the retry-then-succeed path).
///
/// Test/chaos tooling only — both unset in normal operation. Read per
/// executor call, not cached, so one process can flip them between runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChaosPanic {
    pub(crate) index: u64,
    pub(crate) first_attempt_only: bool,
}

impl ChaosPanic {
    pub(crate) fn from_env() -> Option<ChaosPanic> {
        let parse = |var: &str| {
            std::env::var(var)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
        };
        if let Some(index) = parse("FADES_CHAOS_PANIC") {
            return Some(ChaosPanic {
                index,
                first_attempt_only: false,
            });
        }
        parse("FADES_CHAOS_PANIC_ONCE").map(|index| ChaosPanic {
            index,
            first_attempt_only: true,
        })
    }

    /// Panics when this experiment/attempt is the configured victim.
    pub(crate) fn maybe_panic(self, index: u64, attempt: u32) {
        if self.index == index && (attempt == 0 || !self.first_attempt_only) {
            panic!("chaos: injected panic at experiment {index} (attempt {attempt})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::FaultSchedule;

    fn plan_of(n: u64) -> CampaignPlan {
        CampaignPlan {
            target: "all FFs".into(),
            sub_cycle: true,
            seed: 7,
            n_total: n as usize,
            experiments: (0..n)
                .map(|index| PlannedExperiment {
                    index,
                    fault: crate::location::ResolvedFault::FfBitFlip {
                        cb: fades_fpga::CbCoord::new(index as u16, 0),
                        via_gsr: false,
                    },
                    schedule: FaultSchedule {
                        inject_at: index,
                        duration: Some(1),
                    },
                    seed: index.wrapping_mul(0x9E37_79B9),
                    annotation: PlanAnnotation::None,
                })
                .collect(),
        }
    }

    #[test]
    fn shards_partition_without_loss_or_overlap() {
        let plan = plan_of(23);
        for count in [1u32, 2, 3, 5, 8, 23, 30] {
            let mut seen = BTreeSet::new();
            for index in 0..count {
                let shard = plan.shard(index, count);
                assert_eq!(shard.n_total, plan.n_total);
                for e in &shard.experiments {
                    assert!(seen.insert(e.index), "index {} duplicated", e.index);
                    assert_eq!(plan.experiments[e.index as usize], *e);
                }
            }
            assert_eq!(seen.len(), 23, "union of {count} shards covers the plan");
        }
    }

    #[test]
    fn try_shard_rejects_impossible_geometry() {
        let plan = plan_of(10);
        for (index, count) in [(0u32, 0u32), (3, 3), (5, 2), (u32::MAX, 16)] {
            match plan.try_shard(index, count) {
                Err(CoreError::ShardGeometry { index: i, count: c }) => {
                    assert_eq!((i, c), (index, count));
                }
                other => panic!("shard {index}/{count}: expected geometry error, got {other:?}"),
            }
        }
        // Valid geometry still shards.
        let ok = plan.try_shard(1, 3).unwrap();
        assert!(ok.experiments.iter().all(|e| e.index % 3 == 1));
    }

    #[test]
    fn retain_pending_drops_journaled_indices() {
        let mut plan = plan_of(10);
        let done: BTreeSet<u64> = [0u64, 3, 9].into_iter().collect();
        assert_eq!(plan.retain_pending(&done), 3);
        assert_eq!(plan.len(), 7);
        assert!(plan.experiments.iter().all(|e| !done.contains(&e.index)));
    }
}
