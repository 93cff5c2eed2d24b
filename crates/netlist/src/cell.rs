//! Netlist cells: LUTs, flip-flops and memory blocks.

use std::fmt;

use crate::net::NetId;

/// Identifier of a cell within a [`crate::Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// Returns the raw index of this cell (dense, `0..n_cells`).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a `CellId` from a raw index (see [`crate::NetId::from_index`]).
    pub fn from_index(index: usize) -> Self {
        CellId(index as u32)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Functional unit a cell belongs to, used for region-constrained placement
/// and for targeting fault-injection campaigns at a specific unit (the
/// paper's ALU / MEM / FSM / register-file split of the 8051 model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum UnitTag {
    /// No specific unit (glue logic).
    #[default]
    Glue,
    /// Register file and special-function registers.
    Registers,
    /// Arithmetic logic unit (purely combinational in the 8051 model).
    Alu,
    /// Memory control unit.
    MemCtl,
    /// Finite state machine / instruction sequencer.
    Fsm,
    /// Embedded memory blocks (internal RAM, ROM).
    Memory,
}

impl UnitTag {
    /// All unit tags, in a stable order.
    pub const ALL: [UnitTag; 6] = [
        UnitTag::Glue,
        UnitTag::Registers,
        UnitTag::Alu,
        UnitTag::MemCtl,
        UnitTag::Fsm,
        UnitTag::Memory,
    ];

    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            UnitTag::Glue => "GLUE",
            UnitTag::Registers => "REG",
            UnitTag::Alu => "ALU",
            UnitTag::MemCtl => "MEM",
            UnitTag::Fsm => "FSM",
            UnitTag::Memory => "BRAM",
        }
    }
}

impl fmt::Display for UnitTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A `k`-input look-up table with `k <= 4`.
///
/// The truth table is stored LSB-first: output for input combination
/// `(i3, i2, i1, i0)` is bit `i3*8 + i2*4 + i1*2 + i0` of `table`. Unused
/// input positions must be `None` and their table bits replicated so the
/// function is independent of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LutCell {
    /// Input nets, up to four. `None` marks an unused pin.
    pub inputs: [Option<NetId>; 4],
    /// 16-bit truth table, LSB-first.
    pub table: u16,
    /// Output net (driven exclusively by this LUT).
    pub output: NetId,
}

impl LutCell {
    /// Number of connected inputs.
    pub fn arity(&self) -> usize {
        self.inputs.iter().filter(|i| i.is_some()).count()
    }

    /// Evaluates the truth table for the given input values.
    ///
    /// Values for unused pins are ignored (the table must be padded so the
    /// result does not depend on them; [`crate::NetlistBuilder`] guarantees
    /// this for the LUTs it creates).
    pub fn eval(&self, values: [bool; 4]) -> bool {
        let mut idx = 0usize;
        for (bit, value) in values.iter().enumerate() {
            if *value {
                idx |= 1 << bit;
            }
        }
        (self.table >> idx) & 1 == 1
    }
}

/// A D-type flip-flop, clocked by the single implicit global clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DffCell {
    /// Data input net.
    pub d: NetId,
    /// Output net (the stored state).
    pub q: NetId,
    /// Power-on / reset value.
    pub init: bool,
    /// Human-readable name (HDL register name plus bit index), used by the
    /// fault-location process to aim campaigns at specific registers.
    pub name: String,
}

/// A memory block (RAM or ROM).
///
/// Reads are asynchronous (`dout` follows `addr` combinationally), writes
/// are synchronous on the global clock edge when `write_enable` is high.
/// ROMs are RAMs whose `write_enable` is absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RamCell {
    /// Address input nets, LSB first; depth is `2^addr.len()`.
    pub addr: Vec<NetId>,
    /// Data input nets (write port), empty for ROMs.
    pub din: Vec<NetId>,
    /// Data output nets (read port), LSB first.
    pub dout: Vec<NetId>,
    /// Write-enable net; `None` for ROMs.
    pub write_enable: Option<NetId>,
    /// Initial contents, one word per address (LSB-first bit packing into
    /// `u64`; width is `dout.len()` and must be <= 64).
    pub init: Vec<u64>,
    /// Human-readable name.
    pub name: String,
}

impl RamCell {
    /// Number of addressable words.
    pub fn depth(&self) -> usize {
        1usize << self.addr.len()
    }

    /// Word width in bits.
    pub fn width(&self) -> usize {
        self.dout.len()
    }

    /// Total capacity in bits.
    pub fn capacity_bits(&self) -> usize {
        self.depth() * self.width()
    }

    /// True if this memory has no write port.
    pub fn is_rom(&self) -> bool {
        self.write_enable.is_none()
    }
}

/// A netlist cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cell {
    /// Combinational look-up table.
    Lut(LutCell),
    /// Sequential flip-flop.
    Dff(DffCell),
    /// Memory block.
    Ram(RamCell),
}

impl Cell {
    /// Nets driven by this cell.
    pub fn outputs(&self) -> Vec<NetId> {
        match self {
            Cell::Lut(l) => vec![l.output],
            Cell::Dff(d) => vec![d.q],
            Cell::Ram(r) => r.dout.clone(),
        }
    }

    /// Nets read by this cell.
    pub fn inputs(&self) -> Vec<NetId> {
        match self {
            Cell::Lut(l) => l.inputs.iter().flatten().copied().collect(),
            Cell::Dff(d) => vec![d.d],
            Cell::Ram(r) => {
                let mut v = r.addr.clone();
                v.extend_from_slice(&r.din);
                v.extend(r.write_enable);
                v
            }
        }
    }

    /// Short kind name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Cell::Lut(_) => "LUT",
            Cell::Dff(_) => "DFF",
            Cell::Ram(_) => "RAM",
        }
    }
}
