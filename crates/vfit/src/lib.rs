//! VFIT-style baseline: simulator-command fault injection on the HDL
//! model.
//!
//! VFIT, the paper's comparison tool, injects faults by driving a VHDL
//! simulator with commands — stop at the injection instant, `force` the
//! target signal or variable, resume, `release` at expiry. This crate
//! reproduces that technique on the `fades-netlist` cycle interpreter: no
//! FPGA is involved; the model executes on the host CPU, which is
//! precisely why it is slow (the paper measured a flat ~21 600 s per
//! 3000-fault campaign regardless of fault model, ~7.2 s per experiment).
//!
//! The host does not pay that full price per experiment. Each one starts
//! from the golden checkpoint at or before its injection cycle and stops
//! once its outcome is decided: at the first output row that differs from
//! the golden row, or when the fault is inert and the state hash equals
//! the golden hash of the same cycle. This shortens host wall time only.
//! The modelled VFIT time ([`VfitTimeModel`]) still charges every
//! experiment the full run, and outcomes are those of the full
//! simulation.
//!
//! The delay fault model is intentionally **unsupported**, as in the
//! paper: VFIT requires the model to expose signal delays through generic
//! clauses, which the 8051 model does not (Table 3 shows dashes for
//! delay).
//!
//! # Example
//!
//! ```
//! use fades_vfit::{VfitCampaign, VfitFaultLoad, VfitTargetClass};
//! use fades_core::DurationRange;
//! use fades_mcu8051::{build_soc, workloads, OBSERVED_PORTS};
//!
//! let soc = build_soc(&workloads::bubblesort().rom)?;
//! let campaign = VfitCampaign::new(&soc.netlist, &OBSERVED_PORTS, 1400)?;
//! let load = VfitFaultLoad::bit_flips(VfitTargetClass::AllFfs, DurationRange::SubCycle);
//! let stats = campaign.run(&load, 10, 1)?;
//! assert_eq!(stats.total(), 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)
)]

mod campaign;
#[cfg(test)]
mod differential;
mod inject;
#[cfg(test)]
mod tests;
mod time_model;

pub use campaign::{VfitCampaign, VfitStats};
pub use inject::{VfitFault, VfitFaultLoad, VfitTargetClass};
pub use time_model::VfitTimeModel;
