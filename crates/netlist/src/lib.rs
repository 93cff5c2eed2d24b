//! LUT-level netlist intermediate representation.
//!
//! This crate is the "HDL model" substrate of the FADES reproduction. A
//! [`Netlist`] is a technology-mapped description of a digital circuit in
//! terms of the primitives a generic FPGA offers:
//!
//! * 4-input look-up tables ([`LutCell`]),
//! * D-type flip-flops ([`DffCell`]),
//! * RAM/ROM memory blocks ([`RamCell`]),
//! * primary input and output ports.
//!
//! Netlists are constructed through [`NetlistBuilder`], which synthesises
//! word-level logic operators down to LUTs on the fly, and can be
//!
//! * executed directly by the cycle-accurate [`Simulator`] (this is what the
//!   VFIT-analogue baseline does, and what golden runs use), or
//! * placed-and-routed onto the simulated FPGA by the `fades-pnr` crate and
//!   executed from its configuration memory (this is what FADES does).
//!
//! # Example
//!
//! ```
//! use fades_netlist::{NetlistBuilder, Simulator};
//!
//! let mut b = NetlistBuilder::new("majority");
//! let x = b.input("x", 1)[0];
//! let y = b.input("y", 1)[0];
//! let z = b.input("z", 1)[0];
//! let xy = b.and2(x, y);
//! let xz = b.and2(x, z);
//! let yz = b.and2(y, z);
//! let t = b.or2(xy, xz);
//! let m = b.or2(t, yz);
//! b.output("m", &[m]);
//! let netlist = b.finish()?;
//!
//! let mut sim = Simulator::new(&netlist)?;
//! sim.set_input("x", &[true])?;
//! sim.set_input("y", &[false])?;
//! sim.set_input("z", &[true])?;
//! sim.settle();
//! assert_eq!(sim.output_bits("m")?, vec![true]);
//! # Ok::<(), fades_netlist::NetlistError>(())
//! ```

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)
)]

mod builder;
mod cell;
mod error;
mod force;
mod interp;
mod levelize;
mod net;
mod netlist;
mod stats;
mod trace;
mod vcd;

pub use builder::{DffHandle, NetlistBuilder};
pub use cell::{Cell, CellId, DffCell, LutCell, RamCell, UnitTag};
pub use error::NetlistError;
pub use force::{Force, ForceKind};
pub use interp::{SimSnapshot, Simulator};
pub use levelize::{levelize, LevelizeResult};
pub use net::{NetId, PortDir};
pub use netlist::{Netlist, Port};
pub use stats::NetlistStats;
pub use trace::{OutputTrace, TraceDiff};
pub use vcd::VcdRecorder;
