//! Metric definitions and their computation from iterations. The names
//! and units here are the ones `BENCHMARK.json` declares (a test keeps
//! the two in step).

use crate::bench::Iteration;
use crate::counters::{lane_occupancy, ratio, scalar_sim_cycles};
use crate::stats::median;

/// What a number measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall or CPU time (or a rate over it).
    Host,
    /// Host time scaled to the reference host's speed (see
    /// [`crate::host::Reference`]).
    Scaled,
    /// Simulated FADES emulation time (deterministic per seed).
    Modelled,
    /// A deterministic work count or a ratio of counts.
    Count,
}

impl Clock {
    /// Label written beside every number in the result file.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Scaled => "host-scaled",
            Clock::Modelled => "modelled",
            Clock::Count => "count",
        }
    }
}

/// A metric definition: name, unit, clock.
pub type Def = (&'static str, &'static str, Clock);

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [Def; 4] = [
    ("setup_s", "s", Clock::Scaled),
    ("faults_per_s", "1/s", Clock::Scaled),
    ("peak_rss_mb", "MiB", Clock::Host),
    ("completed_ratio", "ratio", Clock::Count),
];

/// Per-layer metrics, reported by traced runs. All but the last are
/// medians over traced iterations of [`layer_values`].
pub const PER_LAYER: [Def; 45] = [
    ("setup.soc_s", "s", Clock::Host),
    ("setup.pnr_s", "s", Clock::Host),
    ("setup.golden_s", "s", Clock::Host),
    ("setup.vfit_golden_s", "s", Clock::Host),
    ("plan.s", "s", Clock::Host),
    ("plan.static_silent", "count", Clock::Count),
    ("analysis.lint_s", "s", Clock::Host),
    ("dispatch.shard_s", "s", Clock::Host),
    ("dispatch.merge_s", "s", Clock::Host),
    ("dispatch.journal_bytes_per_fault", "B", Clock::Count),
    ("dispatch.retries", "count", Clock::Count),
    ("dispatch.quarantines", "count", Clock::Count),
    ("lane.batch_cycles", "count", Clock::Count),
    ("lane.occupancy", "ratio", Clock::Count),
    ("lane.retirements", "count", Clock::Count),
    ("lane.warm_skipped_cycles", "count", Clock::Count),
    ("lane.evals_skipped", "count", Clock::Count),
    ("lane.uniform_cycles", "count", Clock::Count),
    ("lane.ns_per_lane_cycle", "ns", Clock::Host),
    ("lane.cpu_util", "cores", Clock::Host),
    ("scalar.experiments", "count", Clock::Count),
    ("scalar.fast_forwarded", "count", Clock::Count),
    ("scalar.early_stopped", "count", Clock::Count),
    ("scalar.sim_cycles", "count", Clock::Count),
    ("scalar.us_per_sim_cycle", "us", Clock::Host),
    ("scalar.cpu_util", "cores", Clock::Host),
    ("vfit.s", "s", Clock::Host),
    ("vfit.experiments", "count", Clock::Count),
    ("vfit.cycles", "count", Clock::Count),
    ("vfit.cell_evals", "count", Clock::Count),
    ("vfit.ns_per_cell_eval", "ns", Clock::Host),
    ("reconfig.ops_per_fault", "count", Clock::Count),
    ("reconfig.bytes_per_fault", "B", Clock::Count),
    ("reconfig.modelled_s_per_fault", "s", Clock::Modelled),
    ("self.setup_s", "s", Clock::Host),
    ("self.plan_s", "s", Clock::Host),
    ("self.dispatch_s", "s", Clock::Host),
    ("self.lane_s", "s", Clock::Host),
    ("self.scalar_s", "s", Clock::Host),
    ("self.vfit_s", "s", Clock::Host),
    ("self.other_s", "s", Clock::Host),
    ("host.speed", "ratio", Clock::Host),
    ("faults_per_s.traced", "1/s", Clock::Scaled),
    ("faults_per_s.untraced", "1/s", Clock::Scaled),
    ("trace.overhead_pct", "%", Clock::Scaled),
];

/// Span names whose self time makes up each `self.*` layer.
const SELF_LAYERS: [(&str, &[&str]); 7] = [
    (
        "self.setup_s",
        &[
            "setup",
            "setup.context",
            "setup.golden",
            "setup.vfit_golden",
        ],
    ),
    ("self.plan_s", &["plan"]),
    ("self.dispatch_s", &["dispatch.shard", "dispatch.merge"]),
    ("self.lane_s", &["lane"]),
    ("self.scalar_s", &["scalar"]),
    ("self.vfit_s", &["vfit"]),
    ("self.other_s", &["iteration", "table3"]),
];

/// One computed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Clock label.
    pub clock: Clock,
    /// Value (always finite).
    pub value: f64,
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn build(defs: &[Def], values: &[f64]) -> Vec<Metric> {
    defs.iter()
        .zip(values)
        .map(|(&(name, unit, clock), &v)| Metric {
            name,
            unit,
            clock,
            value: finite(v),
        })
        .collect()
}

/// End-to-end metrics of an untraced run: setup is the median of every
/// setup the run made, throughput the median over iterations.
pub fn end_to_end(its: &[Iteration], setups_s: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let rates: Vec<f64> = its.iter().map(Iteration::faults_per_s).collect();
    let attempted: u64 = its.iter().map(|i| i.attempted).sum();
    let completed: u64 = its.iter().map(|i| i.completed).sum();
    build(
        &END_TO_END,
        &[
            median(setups_s),
            median(&rates),
            peak_rss_mb,
            ratio(completed as f64, attempted as f64),
        ],
    )
}

/// The per-layer values of one (traced) iteration, in [`PER_LAYER`]
/// order, without the three throughput/overhead entries at its end.
pub fn layer_values(it: &Iteration) -> Vec<f64> {
    let d = &it.delta;
    let probes = it.probes.unwrap_or_default();
    let self_s = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| it.self_us.get(*n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / 1e6
    };
    let sim_cycles = scalar_sim_cycles(&it.scalar, d, it.run_cycles);
    let sweep_faults = if it.journal_bytes > 0 {
        it.fades_faults
    } else {
        0
    };
    let mut v = vec![
        probes.soc_s,
        probes.pnr_s,
        it.setup.golden_s,
        it.setup.vfit_golden_s,
        it.plan_s,
        d.static_silent as f64,
        probes.lint_s,
        it.shard_s,
        it.merge_s,
        ratio(it.journal_bytes as f64, sweep_faults as f64),
        d.retries as f64,
        d.quarantines as f64,
        d.batch_cycles as f64,
        lane_occupancy(d),
        d.lane_retirements as f64,
        d.warm_skipped_cycles as f64,
        d.evals_skipped as f64,
        d.uniform_cycles as f64,
        ratio(it.lane.wall_s * 1e9, d.lane_cycles as f64),
        it.lane.cpu_util(),
        it.scalar.experiments as f64,
        d.fast_forwarded as f64,
        d.early_stopped as f64,
        sim_cycles as f64,
        ratio(it.scalar.wall_s * 1e6, sim_cycles as f64),
        it.scalar.cpu_util(),
        it.vfit.wall_s,
        it.vfit.experiments as f64,
        d.netlist_cycles as f64,
        d.cell_evals as f64,
        ratio(it.vfit.wall_s * 1e9, d.cell_evals as f64),
        ratio(it.reconfig_ops as f64, it.reconfig_faults as f64),
        ratio(it.reconfig_bytes as f64, it.reconfig_faults as f64),
        ratio(it.modelled_s, it.fades_faults as f64),
    ];
    v.extend(SELF_LAYERS.iter().map(|(_, names)| self_s(names)));
    v.push(it.speed);
    v
}

/// Per-layer metrics of a traced run: medians of [`layer_values`] over
/// its traced iterations, then the traced and untraced throughput
/// medians and the tracing overhead between them.
pub fn per_layer(its: &[Iteration]) -> Vec<Metric> {
    let traced: Vec<&Iteration> = its.iter().filter(|i| i.traced).collect();
    let rows: Vec<Vec<f64>> = traced.iter().map(|i| layer_values(i)).collect();
    let n = PER_LAYER.len() - 3;
    let mut values: Vec<f64> = (0..n)
        .map(|k| median(&rows.iter().map(|r| r[k]).collect::<Vec<_>>()))
        .collect();
    let rate = |t: bool| {
        median(
            &its.iter()
                .filter(|i| i.traced == t)
                .map(Iteration::faults_per_s)
                .collect::<Vec<_>>(),
        )
    };
    let (on, off) = (rate(true), rate(false));
    values.extend([on, off, 100.0 * (ratio(off, on) - 1.0)]);
    build(&PER_LAYER, &values)
}

/// The three layers with the most self time in `metrics` (a traced
/// run's), largest first.
pub fn top_layers(metrics: &[Metric]) -> Vec<(&'static str, f64)> {
    let mut v: Vec<(&'static str, f64)> = metrics
        .iter()
        .filter(|m| m.name.starts_with("self."))
        .map(|m| (m.name, m.value))
        .collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    v.truncate(3);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Probes;
    use crate::counters::Counters;
    use crate::stats::{valid_name, valid_unit};
    use fades_telemetry::json::{parse, JsonValue};

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = parse(&text).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(JsonValue::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let ours = |defs: &[Def]| -> Vec<(String, String)> {
            defs.iter()
                .map(|(n, u, _)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = match doc.get("workloads") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect(),
            _ => panic!("workloads missing"),
        };
        let names: Vec<String> = crate::bench::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, names);
    }

    fn lane_iteration() -> Iteration {
        let mut it = Iteration {
            traced: true,
            probes: Some(Probes {
                soc_s: 0.01,
                pnr_s: 0.02,
                lint_s: 0.003,
            }),
            speed: 1.0,
            work_s: 2.0,
            completed: 6000,
            attempted: 6000,
            fades_faults: 6000,
            journal_bytes: 600_000,
            modelled_s: 3000.0,
            run_cycles: 1000,
            reconfig_ops: 12_000,
            reconfig_bytes: 60_000,
            reconfig_faults: 6000,
            delta: Counters {
                batch_cycles: 100,
                lane_cycles: 3150,
                retries: 1,
                ..Counters::default()
            },
            ..Iteration::default()
        };
        it.lane.add(1.5, 1.5, 6000, 1000);
        it.self_us.insert("lane".into(), 1_200_000);
        it.self_us.insert("dispatch.shard".into(), 200_000);
        it.self_us.insert("dispatch.merge".into(), 100_000);
        it
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn counter_deltas_map_to_layer_metrics() {
        let mut untraced = lane_iteration();
        untraced.traced = false;
        untraced.work_s = 1.5;
        let m = per_layer(&[lane_iteration(), untraced]);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(value(&m, "setup.pnr_s"), 0.02);
        assert_eq!(value(&m, "analysis.lint_s"), 0.003);
        assert_eq!(value(&m, "lane.batch_cycles"), 100.0);
        assert_eq!(value(&m, "lane.occupancy"), 0.5);
        assert_eq!(value(&m, "lane.ns_per_lane_cycle"), 1.5e9 / 3150.0);
        assert_eq!(value(&m, "lane.cpu_util"), 1.0);
        assert_eq!(value(&m, "dispatch.journal_bytes_per_fault"), 100.0);
        assert_eq!(value(&m, "dispatch.retries"), 1.0);
        assert_eq!(value(&m, "reconfig.ops_per_fault"), 2.0);
        assert_eq!(value(&m, "reconfig.bytes_per_fault"), 10.0);
        assert_eq!(value(&m, "reconfig.modelled_s_per_fault"), 0.5);
        // An idle layer reports zeros, never NaN.
        assert_eq!(value(&m, "scalar.us_per_sim_cycle"), 0.0);
        assert_eq!(value(&m, "vfit.ns_per_cell_eval"), 0.0);
        assert_eq!(value(&m, "self.lane_s"), 1.2);
        assert!((value(&m, "self.dispatch_s") - 0.3).abs() < 1e-12);
        assert_eq!(value(&m, "faults_per_s.traced"), 3000.0);
        assert_eq!(value(&m, "faults_per_s.untraced"), 4000.0);
        assert!((value(&m, "trace.overhead_pct") - 100.0 / 3.0).abs() < 1e-9);
        let top = top_layers(&m);
        assert_eq!(top[0].0, "self.lane_s");
        assert_eq!(top[1].0, "self.dispatch_s");
    }

    #[test]
    fn host_times_scale_to_the_reference_speed() {
        let mut it = lane_iteration();
        it.speed = 0.5; // the host ran at half the reference host's speed
        it.setup.context_s = 0.08;
        assert_eq!(it.raw_faults_per_s(), 3000.0);
        assert_eq!(it.faults_per_s(), 6000.0);
        assert_eq!(it.setup_s(), 0.04);
        let m = per_layer(&[it]);
        assert_eq!(value(&m, "host.speed"), 0.5);
        assert_eq!(value(&m, "faults_per_s.traced"), 6000.0);
    }

    #[test]
    fn end_to_end_takes_medians_and_ratios() {
        let a = lane_iteration();
        let mut b = lane_iteration();
        b.work_s = 3.0;
        b.completed = 5999;
        let mut c = lane_iteration();
        c.work_s = 1.0;
        let m = end_to_end(&[a, b, c], &[0.3, 0.1, 0.2], 50.0);
        assert_eq!(value(&m, "setup_s"), 0.2);
        assert_eq!(value(&m, "faults_per_s"), 3000.0);
        assert_eq!(value(&m, "peak_rss_mb"), 50.0);
        assert_eq!(value(&m, "completed_ratio"), 17999.0 / 18000.0);
    }
}
