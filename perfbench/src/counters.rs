//! The program's public counters, read as before/after snapshots around
//! each public call, and the per-layer arithmetic built on their deltas.

use fades_telemetry::{analysis, dispatch, fastpath, phase_snapshots, sim};

/// A point-in-time reading of every program counter the benchmark uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `sim::BATCH_CYCLES`: lane-engine cycles (each advances 64 lanes).
    pub batch_cycles: u64,
    /// `sim::LANE_CYCLES`: occupied faulty-lane cycles.
    pub lane_cycles: u64,
    /// `sim::LANE_RETIREMENTS`: lanes retired early on reconvergence.
    pub lane_retirements: u64,
    /// `sim::WARM_SKIPPED_CYCLES`: golden-prefix cycles warm-start skipped.
    pub warm_skipped_cycles: u64,
    /// `sim::EVALS_SKIPPED`: node evaluations the sparse settle skipped.
    pub evals_skipped: u64,
    /// `sim::UNIFORM_CYCLES`: settles in the golden-uniform fast path.
    pub uniform_cycles: u64,
    /// `sim::CYCLES`: netlist-interpreter clock edges (VFIT; only counted
    /// while hot-path telemetry is enabled).
    pub netlist_cycles: u64,
    /// `sim::CELL_EVALS`: netlist-interpreter cell evaluations (same gate).
    pub cell_evals: u64,
    /// `fastpath::FAST_FORWARDED`: scalar experiments that restored a
    /// checkpoint.
    pub fast_forwarded: u64,
    /// `fastpath::EARLY_STOPPED`: scalar experiments stopped early.
    pub early_stopped: u64,
    /// `fastpath::PREFIX_CYCLES_SKIPPED`.
    pub prefix_skipped: u64,
    /// `fastpath::EARLY_STOP_CYCLES_SKIPPED`.
    pub early_stop_skipped: u64,
    /// `dispatch::RETRIES`.
    pub retries: u64,
    /// `dispatch::QUARANTINES`.
    pub quarantines: u64,
    /// `analysis::STATIC_SILENT`: experiments skipped as statically Silent.
    pub static_silent: u64,
    /// Samples of the `experiment` phase histogram: FADES experiments
    /// finished on either engine.
    pub fades_experiments: u64,
    /// Samples of the `vfit-experiment` phase histogram.
    pub vfit_experiments: u64,
}

impl Counters {
    /// Reads every counter now.
    pub fn read() -> Counters {
        let mut c = Counters {
            batch_cycles: sim::BATCH_CYCLES.get(),
            lane_cycles: sim::LANE_CYCLES.get(),
            lane_retirements: sim::LANE_RETIREMENTS.get(),
            warm_skipped_cycles: sim::WARM_SKIPPED_CYCLES.get(),
            evals_skipped: sim::EVALS_SKIPPED.get(),
            uniform_cycles: sim::UNIFORM_CYCLES.get(),
            netlist_cycles: sim::CYCLES.get(),
            cell_evals: sim::CELL_EVALS.get(),
            fast_forwarded: fastpath::FAST_FORWARDED.get(),
            early_stopped: fastpath::EARLY_STOPPED.get(),
            prefix_skipped: fastpath::PREFIX_CYCLES_SKIPPED.get(),
            early_stop_skipped: fastpath::EARLY_STOP_CYCLES_SKIPPED.get(),
            retries: dispatch::RETRIES.get(),
            quarantines: dispatch::QUARANTINES.get(),
            static_silent: analysis::STATIC_SILENT.get(),
            ..Counters::default()
        };
        for (name, snap) in phase_snapshots() {
            match name {
                "experiment" => c.fades_experiments = snap.count(),
                "vfit-experiment" => c.vfit_experiments = snap.count(),
                _ => {}
            }
        }
        c
    }

    /// `self - earlier`, field by field (saturating: a counter reset by
    /// someone else reads as no work rather than as wrap-around).
    pub fn since(&self, earlier: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            batch_cycles: d(self.batch_cycles, earlier.batch_cycles),
            lane_cycles: d(self.lane_cycles, earlier.lane_cycles),
            lane_retirements: d(self.lane_retirements, earlier.lane_retirements),
            warm_skipped_cycles: d(self.warm_skipped_cycles, earlier.warm_skipped_cycles),
            evals_skipped: d(self.evals_skipped, earlier.evals_skipped),
            uniform_cycles: d(self.uniform_cycles, earlier.uniform_cycles),
            netlist_cycles: d(self.netlist_cycles, earlier.netlist_cycles),
            cell_evals: d(self.cell_evals, earlier.cell_evals),
            fast_forwarded: d(self.fast_forwarded, earlier.fast_forwarded),
            early_stopped: d(self.early_stopped, earlier.early_stopped),
            prefix_skipped: d(self.prefix_skipped, earlier.prefix_skipped),
            early_stop_skipped: d(self.early_stop_skipped, earlier.early_stop_skipped),
            retries: d(self.retries, earlier.retries),
            quarantines: d(self.quarantines, earlier.quarantines),
            static_silent: d(self.static_silent, earlier.static_silent),
            fades_experiments: d(self.fades_experiments, earlier.fades_experiments),
            vfit_experiments: d(self.vfit_experiments, earlier.vfit_experiments),
        }
    }

    /// Field-by-field sum (accumulating deltas of several calls).
    pub fn add(&mut self, o: &Counters) {
        self.batch_cycles += o.batch_cycles;
        self.lane_cycles += o.lane_cycles;
        self.lane_retirements += o.lane_retirements;
        self.warm_skipped_cycles += o.warm_skipped_cycles;
        self.evals_skipped += o.evals_skipped;
        self.uniform_cycles += o.uniform_cycles;
        self.netlist_cycles += o.netlist_cycles;
        self.cell_evals += o.cell_evals;
        self.fast_forwarded += o.fast_forwarded;
        self.early_stopped += o.early_stopped;
        self.prefix_skipped += o.prefix_skipped;
        self.early_stop_skipped += o.early_stop_skipped;
        self.retries += o.retries;
        self.quarantines += o.quarantines;
        self.static_silent += o.static_silent;
        self.fades_experiments += o.fades_experiments;
        self.vfit_experiments += o.vfit_experiments;
    }
}

/// Which FADES engine settled a call's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The 64-lane engine on `fpga::BatchDevice`.
    Lane,
    /// The scalar `fpga::Device` path.
    Scalar,
}

impl Engine {
    /// Attribution of one public call: the lane engine ran iff it
    /// advanced any batch cycle during the call. The counters cannot
    /// split a call that used both engines; every shipped load runs
    /// wholly on one of them.
    pub fn of(delta: &Counters) -> Engine {
        if delta.batch_cycles > 0 {
            Engine::Lane
        } else {
            Engine::Scalar
        }
    }

    /// Layer name.
    pub fn layer(self) -> &'static str {
        match self {
            Engine::Lane => "lane",
            Engine::Scalar => "scalar",
        }
    }
}

/// Host time and work of one layer, summed over an iteration's calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerWork {
    /// Host wall seconds attributed to the layer.
    pub wall_s: f64,
    /// Process CPU seconds over the same calls.
    pub cpu_s: f64,
    /// Experiments the layer settled.
    pub experiments: u64,
    /// Σ experiments × run length in cycles (scalar layer only).
    pub nominal_cycles: u64,
}

impl LayerWork {
    /// Adds one call's share.
    pub fn add(&mut self, wall_s: f64, cpu_s: f64, experiments: u64, run_cycles: u64) {
        self.wall_s += wall_s;
        self.cpu_s += cpu_s;
        self.experiments += experiments;
        self.nominal_cycles += experiments * run_cycles;
    }

    /// Cores kept busy on average (CPU seconds over wall seconds).
    pub fn cpu_util(&self) -> f64 {
        ratio(self.cpu_s, self.wall_s)
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Scalar-path cycles actually simulated: every scalar experiment's
/// nominal run, minus the golden prefix restored from checkpoints, the
/// tail cut by early stop, and whole runs of statically skipped ones.
pub fn scalar_sim_cycles(scalar: &LayerWork, delta: &Counters, run_cycles: u64) -> u64 {
    scalar
        .nominal_cycles
        .saturating_sub(delta.static_silent * run_cycles)
        .saturating_sub(delta.prefix_skipped)
        .saturating_sub(delta.early_stop_skipped)
}

/// Lane occupancy: occupied faulty-lane cycles over the 63 faulty lanes
/// every batch cycle offers (useful over attempted lane work).
pub fn lane_occupancy(delta: &Counters) -> f64 {
    ratio(delta.lane_cycles as f64, 63.0 * delta.batch_cycles as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(batch: u64, lane: u64) -> Counters {
        Counters {
            batch_cycles: batch,
            lane_cycles: lane,
            ..Counters::default()
        }
    }

    #[test]
    fn deltas_saturate_and_sum() {
        let before = Counters {
            quarantines: 5,
            ..counters(10, 100)
        };
        let after = Counters {
            quarantines: 2,
            ..counters(30, 400)
        };
        let d = after.since(&before);
        assert_eq!(d.batch_cycles, 20);
        assert_eq!(d.lane_cycles, 300);
        assert_eq!(d.quarantines, 0);
        let mut total = Counters::default();
        total.add(&d);
        total.add(&d);
        assert_eq!(total.lane_cycles, 600);
    }

    #[test]
    fn engine_attribution_follows_batch_cycles() {
        assert_eq!(Engine::of(&counters(1, 0)), Engine::Lane);
        assert_eq!(Engine::of(&counters(0, 0)), Engine::Scalar);
        assert_eq!(Engine::Lane.layer(), "lane");
    }

    #[test]
    fn occupancy_is_lane_cycles_over_63_per_batch_cycle() {
        assert_eq!(lane_occupancy(&counters(10, 630)), 1.0);
        assert_eq!(lane_occupancy(&counters(4, 126)), 0.5);
        assert_eq!(lane_occupancy(&counters(0, 0)), 0.0);
    }

    #[test]
    fn scalar_cycles_subtract_every_skip() {
        let mut scalar = LayerWork::default();
        scalar.add(2.0, 3.0, 10, 1000);
        let delta = Counters {
            prefix_skipped: 2500,
            early_stop_skipped: 1500,
            static_silent: 1,
            ..Counters::default()
        };
        assert_eq!(
            scalar_sim_cycles(&scalar, &delta, 1000),
            10_000 - 1000 - 2500 - 1500
        );
        assert_eq!(scalar.cpu_util(), 1.5);
        assert_eq!(LayerWork::default().cpu_util(), 0.0);
    }
}
