//! Simulator-command fault descriptions.

use fades_core::{DurationRange, FaultModel};
use fades_netlist::{Cell, CellId, NetId, Netlist, UnitTag};
use rand::rngs::StdRng;
use rand::Rng;

/// Model elements VFIT can force.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfitTargetClass {
    /// All flip-flops (registers of the model).
    AllFfs,
    /// Flip-flops of one unit.
    FfsOfUnit(UnitTag),
    /// An explicit list of flip-flop cells (e.g. the same screened
    /// registers a FADES campaign targets, for Table 3 comparisons).
    FfList(Vec<CellId>),
    /// Words of a named memory in an address range (inclusive).
    MemoryWords {
        /// Memory name.
        name: String,
        /// First address.
        lo: usize,
        /// Last address (inclusive).
        hi: usize,
    },
    /// Signals driven by combinational cells (LUT outputs).
    CombinationalSignals,
    /// Signals driven by combinational cells of one unit.
    SignalsOfUnit(UnitTag),
}

/// A concrete simulator-command fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfitFault {
    /// Flip a register bit once.
    FfBitFlip(CellId),
    /// Flip a stored memory bit once.
    MemBitFlip {
        /// Memory cell.
        cell: CellId,
        /// Word address.
        addr: usize,
        /// Bit within the word.
        bit: usize,
    },
    /// Invert a signal for the fault window (`force`/`release`).
    SignalPulse(NetId),
    /// Force a signal to a random level for the window.
    SignalIndet {
        /// Target net.
        net: NetId,
        /// Re-randomise every cycle.
        oscillating: bool,
    },
    /// Force a register bit to a random level.
    FfIndet {
        /// Target register bit.
        cell: CellId,
        /// Re-randomise every cycle.
        oscillating: bool,
    },
}

/// A VFIT fault load.
#[derive(Debug, Clone)]
pub struct VfitFaultLoad {
    /// Fault model (delay is rejected at resolution time).
    pub model: FaultModel,
    /// Targeted model elements.
    pub target: VfitTargetClass,
    /// Duration range.
    pub duration: DurationRange,
    /// Indeterminations: oscillate every cycle.
    pub oscillating: bool,
}

impl VfitFaultLoad {
    /// Bit-flip load.
    pub fn bit_flips(target: VfitTargetClass, duration: DurationRange) -> Self {
        VfitFaultLoad {
            model: FaultModel::BitFlip,
            target,
            duration,
            oscillating: false,
        }
    }

    /// Pulse load.
    pub fn pulses(target: VfitTargetClass, duration: DurationRange) -> Self {
        VfitFaultLoad {
            model: FaultModel::Pulse,
            target,
            duration,
            oscillating: false,
        }
    }

    /// Indetermination load.
    pub fn indeterminations(
        target: VfitTargetClass,
        duration: DurationRange,
        oscillating: bool,
    ) -> Self {
        VfitFaultLoad {
            model: FaultModel::Indetermination,
            target,
            duration,
            oscillating,
        }
    }
}

/// Enumerates the injectable model elements of a class.
pub(crate) fn resolve(netlist: &Netlist, class: &VfitTargetClass) -> Vec<VfitFault> {
    match class {
        VfitTargetClass::AllFfs => netlist
            .dff_ids()
            .into_iter()
            .map(VfitFault::FfBitFlip)
            .collect(),
        VfitTargetClass::FfsOfUnit(unit) => netlist
            .dff_ids()
            .into_iter()
            .filter(|&id| netlist.unit(id) == *unit)
            .map(VfitFault::FfBitFlip)
            .collect(),
        VfitTargetClass::FfList(cells) => cells.iter().copied().map(VfitFault::FfBitFlip).collect(),
        VfitTargetClass::MemoryWords { name, lo, hi } => {
            let Ok(cell) = netlist.ram_by_name(name) else {
                return Vec::new();
            };
            let Cell::Ram(ram) = netlist.cell(cell) else {
                return Vec::new();
            };
            let mut v = Vec::new();
            for addr in *lo..=*hi {
                for bit in 0..ram.width() {
                    v.push(VfitFault::MemBitFlip { cell, addr, bit });
                }
            }
            v
        }
        VfitTargetClass::CombinationalSignals => netlist
            .lut_ids()
            .into_iter()
            .flat_map(|id| netlist.cell(id).outputs())
            .map(VfitFault::SignalPulse)
            .collect(),
        VfitTargetClass::SignalsOfUnit(unit) => netlist
            .lut_ids()
            .into_iter()
            .filter(|&id| netlist.unit(id) == *unit)
            .flat_map(|id| netlist.cell(id).outputs())
            .map(VfitFault::SignalPulse)
            .collect(),
    }
}

/// Specialises a sampled element to the fault model.
pub(crate) fn specialise(load: &VfitFaultLoad, base: VfitFault) -> VfitFault {
    match (&load.model, base) {
        (FaultModel::BitFlip, f) => f,
        (FaultModel::Pulse, VfitFault::FfBitFlip(cell)) => {
            // A pulse on a register's input manifests as a flip; VFIT
            // treats register pulses as bit-flips.
            VfitFault::FfBitFlip(cell)
        }
        (FaultModel::Pulse, f) => f,
        (FaultModel::Indetermination, VfitFault::FfBitFlip(cell)) => VfitFault::FfIndet {
            cell,
            oscillating: load.oscillating,
        },
        (FaultModel::Indetermination, VfitFault::SignalPulse(net)) => VfitFault::SignalIndet {
            net,
            oscillating: load.oscillating,
        },
        (_, f) => f,
    }
}

/// Counts the simulator commands a fault costs (stop/force + release).
pub(crate) fn command_count(fault: &VfitFault, duration: Option<u64>) -> u64 {
    match fault {
        VfitFault::FfBitFlip(_) | VfitFault::MemBitFlip { .. } => 1,
        VfitFault::SignalPulse(_) => 2,
        VfitFault::SignalIndet { oscillating, .. } | VfitFault::FfIndet { oscillating, .. } => {
            if *oscillating {
                1 + duration.unwrap_or(1).max(1)
            } else {
                2
            }
        }
    }
}

pub(crate) fn sample(load: &VfitFaultLoad, pool: &[VfitFault], rng: &mut StdRng) -> VfitFault {
    let base = pool[rng.gen_range(0..pool.len())].clone();
    specialise(load, base)
}
