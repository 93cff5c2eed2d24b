//! Cycle-accurate netlist interpreter.
//!
//! This is the "HDL simulator" of the reproduction: it executes a
//! [`Netlist`] directly, one clock cycle at a time, and supports the
//! simulator-command style of fault injection (force / release / flip) that
//! the VFIT baseline uses.

use crate::cell::{Cell, CellId};
use crate::error::NetlistError;
use crate::force::{Force, ForceKind};
use crate::levelize::{levelize, LevelizeResult};
use crate::net::{NetId, PortDir};
use crate::netlist::Netlist;

/// A point-in-time snapshot of a [`Simulator`]'s state, taken with
/// [`Simulator::save_state`] and reapplied with
/// [`Simulator::restore_state`].
///
/// Snapshots are only meaningful on a simulator over the same netlist
/// they were taken from; restoring one elsewhere panics on a dimension
/// mismatch or silently corrupts state on a coincidental match.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    cycle: u64,
    values: Vec<bool>,
    ff_state: Vec<bool>,
    mem: Vec<Vec<u64>>,
    forces: Vec<Force>,
    mem_hash: u64,
}

impl SimSnapshot {
    /// The cycle counter at which the snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

/// Finalising mix (splitmix64) for state digests.
#[inline]
fn hash_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// XOR-combinable hash of one memory word, so the simulator can keep a
/// whole-memory digest current in O(1) per write.
#[inline]
fn mem_cell_hash(cell: usize, addr: usize, word: u64) -> u64 {
    hash_mix(
        ((cell as u64) << 40 | addr as u64).rotate_left(17)
            ^ word.wrapping_mul(0x9FB2_1C65_1E98_DF25),
    )
}

/// Cycle-accurate simulator over a netlist.
///
/// The simulator owns a value per net, flip-flop state, and memory
/// contents. A cycle consists of [`settle`](Self::settle) (combinational
/// propagation) followed by [`clock_edge`](Self::clock_edge) (sequential
/// update); [`step`](Self::step) performs both.
#[derive(Debug, Clone)]
pub struct Simulator<'n> {
    netlist: &'n Netlist,
    level: LevelizeResult,
    values: Vec<bool>,
    /// Flip-flop state, indexed by cell index (unused slots for non-DFFs).
    ff_state: Vec<bool>,
    /// Cell indices of the flip-flops, ascending, so that
    /// [`state_hash`](Self::state_hash) reads only their state instead of
    /// scanning every cell.
    ff_cells: Vec<usize>,
    /// Memory contents, indexed by cell index.
    mem: Vec<Vec<u64>>,
    /// Active simulator-command forces.
    forces: Vec<Force>,
    /// Per-net index into `forces` (`u32::MAX` = no force on that net),
    /// rebuilt on force/release so the per-LUT-output lookup in `settle`
    /// is O(1) instead of a linear scan of the force list.
    force_index: Vec<u32>,
    cycle: u64,
    /// Incremental digest of all memory contents (see [`mem_cell_hash`]),
    /// kept current on every write so [`state_hash`](Self::state_hash)
    /// never rescans memories.
    mem_hash: u64,
}

impl<'n> Simulator<'n> {
    /// Creates a simulator with all state at its power-on values.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist cannot be levelized (it always can if
    /// it came from [`crate::NetlistBuilder::finish`]).
    pub fn new(netlist: &'n Netlist) -> Result<Self, NetlistError> {
        let level = levelize(netlist)?;
        let mut sim = Simulator {
            netlist,
            level,
            values: vec![false; netlist.net_count()],
            ff_state: vec![false; netlist.cell_count()],
            ff_cells: netlist.dff_ids().iter().map(|id| id.index()).collect(),
            mem: vec![Vec::new(); netlist.cell_count()],
            forces: Vec::new(),
            force_index: vec![u32::MAX; netlist.net_count()],
            cycle: 0,
            mem_hash: 0,
        };
        sim.reset();
        Ok(sim)
    }

    /// Restores all flip-flops and memories to their power-on values and
    /// clears forces and the cycle counter. Input values are kept.
    pub fn reset(&mut self) {
        self.mem_hash = 0;
        for (i, cell) in self.netlist.cells().iter().enumerate() {
            match cell {
                Cell::Dff(d) => self.ff_state[i] = d.init,
                Cell::Ram(r) => {
                    self.mem[i] = r.init.clone();
                    for (addr, &word) in self.mem[i].iter().enumerate() {
                        self.mem_hash ^= mem_cell_hash(i, addr, word);
                    }
                }
                Cell::Lut(_) => {}
            }
        }
        self.clear_forces();
        self.cycle = 0;
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Current cycle count (number of clock edges since reset).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Drives an input port.
    ///
    /// # Errors
    ///
    /// Returns an error if the port is unknown, is an output, or `bits` has
    /// the wrong width.
    pub fn set_input(&mut self, name: &str, bits: &[bool]) -> Result<(), NetlistError> {
        let port = self.netlist.port(name)?;
        if port.dir != PortDir::Input {
            return Err(NetlistError::PortDirection {
                name: name.to_string(),
                actual: port.dir,
            });
        }
        if port.bits.len() != bits.len() {
            return Err(NetlistError::WidthMismatch {
                name: name.to_string(),
                expected: port.bits.len(),
                actual: bits.len(),
            });
        }
        for (net, &v) in port.bits.clone().iter().zip(bits) {
            self.values[net.index()] = v;
        }
        Ok(())
    }

    /// Reads an output port as bits (LSB first). Call after
    /// [`settle`](Self::settle).
    ///
    /// # Errors
    ///
    /// Returns an error if the port is unknown or is an input.
    pub fn output_bits(&self, name: &str) -> Result<Vec<bool>, NetlistError> {
        let port = self.netlist.port(name)?;
        if port.dir != PortDir::Output {
            return Err(NetlistError::PortDirection {
                name: name.to_string(),
                actual: port.dir,
            });
        }
        Ok(port.bits.iter().map(|n| self.values[n.index()]).collect())
    }

    /// Reads an output port as an integer (at most 64 bits).
    ///
    /// # Errors
    ///
    /// Same conditions as [`output_bits`](Self::output_bits).
    pub fn output_u64(&self, name: &str) -> Result<u64, NetlistError> {
        let bits = self.output_bits(name)?;
        Ok(pack_bits(&bits))
    }

    /// Current value of an arbitrary net.
    pub fn net_value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Current state of a flip-flop.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a flip-flop.
    pub fn ff_value(&self, id: CellId) -> bool {
        assert!(
            matches!(self.netlist.cell(id), Cell::Dff(_)),
            "{id} is not a flip-flop"
        );
        self.ff_state[id.index()]
    }

    /// Overwrites the state of a flip-flop (takes effect at the next
    /// [`settle`](Self::settle)).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a flip-flop.
    pub fn set_ff(&mut self, id: CellId, value: bool) {
        assert!(
            matches!(self.netlist.cell(id), Cell::Dff(_)),
            "{id} is not a flip-flop"
        );
        self.ff_state[id.index()] = value;
    }

    /// Reads one word of a memory.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a memory or `addr` is out of range.
    pub fn mem_word(&self, id: CellId, addr: usize) -> u64 {
        self.mem[id.index()][addr]
    }

    /// Overwrites one word of a memory.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a memory or `addr` is out of range.
    pub fn set_mem_word(&mut self, id: CellId, addr: usize, word: u64) {
        self.mem_hash ^= mem_cell_hash(id.index(), addr, self.mem[id.index()][addr])
            ^ mem_cell_hash(id.index(), addr, word);
        self.mem[id.index()][addr] = word;
    }

    /// Flips a single stored bit of a memory.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a memory or the location is out of range.
    pub fn flip_mem_bit(&mut self, id: CellId, addr: usize, bit: usize) {
        let old = self.mem[id.index()][addr];
        self.mem[id.index()][addr] = old ^ (1 << bit);
        self.mem_hash ^= mem_cell_hash(id.index(), addr, old)
            ^ mem_cell_hash(id.index(), addr, old ^ (1 << bit));
    }

    /// Adds a simulator-command force; it applies until
    /// [`release`](Self::release) or [`clear_forces`](Self::clear_forces).
    pub fn force(&mut self, force: Force) {
        self.forces.push(force);
        // Later forces shadow earlier ones on the same net, so the index
        // always points at the newest entry.
        self.force_index[force.net.index()] = (self.forces.len() - 1) as u32;
    }

    /// Removes all forces on the given net.
    pub fn release(&mut self, net: NetId) {
        self.forces.retain(|f| f.net != net);
        self.force_index[net.index()] = u32::MAX;
        self.reindex_forces();
    }

    /// Removes every active force.
    pub fn clear_forces(&mut self) {
        for f in &self.forces {
            self.force_index[f.net.index()] = u32::MAX;
        }
        self.forces.clear();
    }

    /// Rewrites the per-net index entries for the current force list
    /// (positions shift after a removal). O(forces), and the force list is
    /// short — at most a handful of injected faults at a time.
    fn reindex_forces(&mut self) {
        for (i, f) in self.forces.iter().enumerate() {
            self.force_index[f.net.index()] = i as u32;
        }
    }

    /// Number of currently active forces.
    pub fn force_count(&self) -> usize {
        self.forces.len()
    }

    /// Propagates values through the combinational fabric.
    ///
    /// Flip-flop outputs present their stored state; LUTs and memory read
    /// ports are evaluated in topological order; forces are applied to their
    /// target nets both before and after evaluation so that downstream logic
    /// observes the forced value.
    pub fn settle(&mut self) {
        // Present sequential state on Q nets.
        for (i, cell) in self.netlist.cells().iter().enumerate() {
            if let Cell::Dff(d) = cell {
                self.values[d.q.index()] = self.ff_state[i];
            }
        }
        self.apply_forces();
        for idx in 0..self.level.order.len() {
            let id = self.level.order[idx];
            match self.netlist.cell(id) {
                Cell::Lut(l) => {
                    let mut vals = [false; 4];
                    for (pin, input) in l.inputs.iter().enumerate() {
                        if let Some(n) = input {
                            vals[pin] = self.values[n.index()];
                        }
                    }
                    let mut out = l.eval(vals);
                    if let Some(kind) = self.force_on(l.output) {
                        out = kind.apply(out);
                    }
                    self.values[l.output.index()] = out;
                }
                Cell::Ram(r) => {
                    let addr = self.read_addr(&r.addr);
                    let word = self.mem[id.index()][addr];
                    for (bit, out) in r.dout.iter().enumerate() {
                        let mut v = (word >> bit) & 1 == 1;
                        if let Some(kind) = self.force_on(*out) {
                            v = kind.apply(v);
                        }
                        self.values[out.index()] = v;
                    }
                }
                Cell::Dff(_) => unreachable!("levelize only yields combinational cells"),
            }
        }
        fades_telemetry::sim::record_settle(self.level.order.len() as u64);
    }

    /// Applies forces to nets that are *not* recomputed during LUT
    /// evaluation (primary inputs and flip-flop outputs). Nets driven by
    /// combinational cells are handled inline by [`Self::force_on`] so that
    /// `Flip` inverts the freshly computed value.
    fn apply_forces(&mut self) {
        for i in 0..self.forces.len() {
            let f = self.forces[i];
            let driven_by_comb = self
                .netlist
                .driver(f.net)
                .is_some_and(|c| !matches!(self.netlist.cell(c), Cell::Dff(_)));
            if !driven_by_comb {
                let v = f.value(self.values[f.net.index()]);
                self.values[f.net.index()] = v;
            }
        }
    }

    #[inline(always)]
    fn force_on(&self, net: NetId) -> Option<ForceKind> {
        // Early-out: the common case is a fault-free settle, which must not
        // pay a per-output lookup for an empty force list.
        if self.forces.is_empty() {
            return None;
        }
        let slot = self.force_index[net.index()];
        if slot == u32::MAX {
            None
        } else {
            Some(self.forces[slot as usize].kind)
        }
    }

    fn read_addr(&self, addr: &[NetId]) -> usize {
        let mut a = 0usize;
        for (bit, n) in addr.iter().enumerate() {
            if self.values[n.index()] {
                a |= 1 << bit;
            }
        }
        a
    }

    /// Applies the clock edge: flip-flops capture `D`, memories perform
    /// enabled writes. Values must be settled first.
    ///
    /// The update is single-phase with no per-cycle allocation: every
    /// capture and write reads only the settled combinational `values`
    /// (frozen during the edge) and mutates only `ff_state` / `mem`, so
    /// no staging buffers are needed to keep the edge atomic.
    pub fn clock_edge(&mut self) {
        for (i, cell) in self.netlist.cells().iter().enumerate() {
            match cell {
                Cell::Dff(d) => self.ff_state[i] = self.values[d.d.index()],
                Cell::Ram(r) => {
                    if let Some(we) = r.write_enable {
                        if self.values[we.index()] {
                            let addr = self.read_addr(&r.addr);
                            let mut word = 0u64;
                            for (bit, n) in r.din.iter().enumerate().take(64) {
                                word |= (self.values[n.index()] as u64) << bit;
                            }
                            self.mem_hash ^= mem_cell_hash(i, addr, self.mem[i][addr])
                                ^ mem_cell_hash(i, addr, word);
                            self.mem[i][addr] = word;
                        }
                    }
                }
                Cell::Lut(_) => {}
            }
        }
        self.cycle += 1;
        fades_telemetry::sim::record_clock_edge();
    }

    /// Runs one full cycle: settle then clock edge.
    pub fn step(&mut self) {
        self.settle();
        self.clock_edge();
    }

    /// Runs `n` full cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Snapshot of all sequential state (flip-flops, then memory words),
    /// used by outcome classification to detect latent faults.
    pub fn state_snapshot(&self) -> Vec<u64> {
        let mut snap = Vec::new();
        let mut acc = 0u64;
        let mut nbits = 0;
        for (i, cell) in self.netlist.cells().iter().enumerate() {
            if matches!(cell, Cell::Dff(_)) {
                if self.ff_state[i] {
                    acc |= 1 << nbits;
                }
                nbits += 1;
                if nbits == 64 {
                    snap.push(acc);
                    acc = 0;
                    nbits = 0;
                }
            }
        }
        if nbits > 0 {
            snap.push(acc);
        }
        for (i, cell) in self.netlist.cells().iter().enumerate() {
            if matches!(cell, Cell::Ram(_)) {
                snap.extend_from_slice(&self.mem[i]);
            }
        }
        snap
    }

    /// Snapshots the full simulator state (cycle counter, net values,
    /// flip-flop state, memory contents, active forces) for later
    /// [`restore_state`](Self::restore_state).
    pub fn save_state(&self) -> SimSnapshot {
        SimSnapshot {
            cycle: self.cycle,
            values: self.values.clone(),
            ff_state: self.ff_state.clone(),
            mem: self.mem.clone(),
            forces: self.forces.clone(),
            mem_hash: self.mem_hash,
        }
    }

    /// Restores a snapshot taken by [`save_state`](Self::save_state) on a
    /// simulator over the same netlist.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's dimensions do not match this netlist.
    pub fn restore_state(&mut self, snap: &SimSnapshot) {
        self.cycle = snap.cycle;
        self.values.copy_from_slice(&snap.values);
        self.ff_state.copy_from_slice(&snap.ff_state);
        assert_eq!(snap.mem.len(), self.mem.len(), "snapshot matches netlist");
        for (dst, src) in self.mem.iter_mut().zip(&snap.mem) {
            dst.copy_from_slice(src);
        }
        self.clear_forces();
        self.forces.extend_from_slice(&snap.forces);
        self.reindex_forces();
        self.mem_hash = snap.mem_hash;
    }

    /// Digest of everything that determines the simulation's evolution
    /// from the top of the current cycle under constant inputs: the cycle
    /// counter, flip-flop state, memory contents (via the incremental
    /// write digest — no rescan), and active forces.
    ///
    /// Two simulators over the same netlist with equal hashes at the same
    /// cycle produce identical behaviour for all subsequent cycles, which
    /// is the basis for early-stop convergence detection. Combinational
    /// net values are recomputed by [`settle`](Self::settle) and are not
    /// hashed; primary-input values are not hashed either, so the
    /// guarantee requires inputs to be held constant (true for the
    /// self-driving campaign workloads).
    pub fn state_hash(&self) -> u64 {
        let mut h = hash_mix(self.cycle ^ 0x5851_F42D_4C95_7F2D);
        let mut acc = 0u64;
        let mut n = 0u32;
        for &i in &self.ff_cells {
            acc = (acc << 1) | self.ff_state[i] as u64;
            n += 1;
            if n == 64 {
                h = hash_mix(h ^ acc);
                acc = 0;
                n = 0;
            }
        }
        if n > 0 {
            h = hash_mix(h ^ acc ^ ((n as u64) << 56));
        }
        for f in &self.forces {
            let kind = match f.kind {
                ForceKind::Stuck(false) => 1u64,
                ForceKind::Stuck(true) => 2,
                ForceKind::Flip => 3,
            };
            h = hash_mix(h ^ ((f.net.index() as u64) << 2) ^ kind);
        }
        h ^ self.mem_hash
    }
}

/// Packs bits (LSB first) into a `u64`.
pub(crate) fn pack_bits(bits: &[bool]) -> u64 {
    let mut v = 0u64;
    for (i, &b) in bits.iter().enumerate().take(64) {
        if b {
            v |= 1 << i;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn counter(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("counter");
        let mut qs = Vec::new();
        let mut handles = Vec::new();
        for i in 0..width {
            let (q, h) = b.dff_placeholder(format!("cnt[{i}]"), false);
            qs.push(q);
            handles.push(h);
        }
        // increment: d[i] = q[i] ^ carry, carry &= q[i]
        let mut carry = b.const1();
        for (i, h) in handles.into_iter().enumerate() {
            let d = b.xor2(qs[i], carry);
            carry = b.and2(carry, qs[i]);
            b.dff_connect(h, d);
        }
        b.output("q", &qs);
        b.finish().unwrap()
    }

    #[test]
    fn counter_counts() {
        let nl = counter(4);
        let mut sim = Simulator::new(&nl).unwrap();
        for expect in 0..20u64 {
            sim.settle();
            assert_eq!(sim.output_u64("q").unwrap(), expect % 16);
            sim.clock_edge();
        }
    }

    #[test]
    fn ram_write_then_read() {
        let mut b = NetlistBuilder::new("ram");
        let addr = b.input("addr", 4);
        let din = b.input("din", 8);
        let we = b.input("we", 1)[0];
        let dout = b.ram("m", &addr, &din, we, 8, &[]).unwrap();
        b.output("dout", &dout);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("addr", &bits(5, 4)).unwrap();
        sim.set_input("din", &bits(0xAB, 8)).unwrap();
        sim.set_input("we", &[true]).unwrap();
        sim.step();
        sim.set_input("we", &[false]).unwrap();
        sim.settle();
        assert_eq!(sim.output_u64("dout").unwrap(), 0xAB);
    }

    #[test]
    fn force_overrides_lut_output() {
        let mut b = NetlistBuilder::new("f");
        let a = b.input("a", 1)[0];
        let n = b.not(a);
        b.output("n", &[n]);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("a", &[false]).unwrap();
        sim.settle();
        assert_eq!(sim.output_u64("n").unwrap(), 1);
        sim.force(Force::stuck(n, false));
        sim.settle();
        assert_eq!(sim.output_u64("n").unwrap(), 0);
        sim.release(n);
        sim.settle();
        assert_eq!(sim.output_u64("n").unwrap(), 1);
    }

    pub(crate) fn bits(value: u64, width: usize) -> Vec<bool> {
        (0..width).map(|i| (value >> i) & 1 == 1).collect()
    }

    #[test]
    fn force_index_shadows_and_survives_release() {
        let mut b = NetlistBuilder::new("f");
        let a = b.input("a", 1)[0];
        let x = b.not(a);
        let y = b.not(x);
        b.output("x", &[x]);
        b.output("y", &[y]);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("a", &[false]).unwrap();
        // Newest force on the same net wins (matches the old reverse scan).
        sim.force(Force::stuck(x, true));
        sim.force(Force::flip(x));
        sim.force(Force::stuck(y, true));
        sim.settle();
        assert_eq!(sim.output_u64("x").unwrap(), 0); // not(0)=1, flipped
        assert_eq!(sim.output_u64("y").unwrap(), 1); // stuck high
                                                     // Releasing one net re-points the index at the survivors.
        sim.release(x);
        sim.settle();
        assert_eq!(sim.output_u64("x").unwrap(), 1);
        assert_eq!(sim.output_u64("y").unwrap(), 1);
        sim.clear_forces();
        sim.settle();
        assert_eq!(sim.output_u64("y").unwrap(), 0);
    }

    #[test]
    fn save_restore_replays_identically() {
        let nl = counter(4);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.run(3);
        let snap = sim.save_state();
        assert_eq!(snap.cycle(), 3);
        let hash_at_snap = sim.state_hash();
        let mut hashes = Vec::new();
        let mut outs = Vec::new();
        for _ in 0..5 {
            sim.settle();
            outs.push(sim.output_u64("q").unwrap());
            sim.clock_edge();
            hashes.push(sim.state_hash());
        }
        sim.restore_state(&snap);
        assert_eq!(sim.cycle(), 3);
        assert_eq!(sim.state_hash(), hash_at_snap);
        for i in 0..5 {
            sim.settle();
            assert_eq!(sim.output_u64("q").unwrap(), outs[i]);
            sim.clock_edge();
            assert_eq!(sim.state_hash(), hashes[i]);
        }
    }

    #[test]
    fn state_hash_tracks_memory_and_forces() {
        let mut b = NetlistBuilder::new("ram");
        let addr = b.input("addr", 4);
        let din = b.input("din", 8);
        let we = b.input("we", 1)[0];
        let dout = b.ram("m", &addr, &din, we, 8, &[]).unwrap();
        b.output("dout", &dout);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let ram = nl
            .cells()
            .iter()
            .enumerate()
            .find_map(|(i, c)| matches!(c, Cell::Ram(_)).then(|| CellId::from_index(i)))
            .unwrap();
        let h0 = sim.state_hash();
        // A mem poke and its inverse cancel in the digest.
        sim.flip_mem_bit(ram, 7, 3);
        assert_ne!(sim.state_hash(), h0);
        sim.flip_mem_bit(ram, 7, 3);
        assert_eq!(sim.state_hash(), h0);
        sim.set_mem_word(ram, 2, 0xCC);
        assert_ne!(sim.state_hash(), h0);
        sim.set_mem_word(ram, 2, 0);
        assert_eq!(sim.state_hash(), h0);
        // Forces are part of the evolution-determining state.
        sim.force(Force::flip(dout[0]));
        assert_ne!(sim.state_hash(), h0);
        sim.release(dout[0]);
        assert_eq!(sim.state_hash(), h0);
        // A clocked write keeps the incremental digest consistent with a
        // fresh simulator brought to the same state.
        sim.set_input("addr", &bits(5, 4)).unwrap();
        sim.set_input("din", &bits(0xAB, 8)).unwrap();
        sim.set_input("we", &[true]).unwrap();
        sim.step();
        let mut twin = Simulator::new(&nl).unwrap();
        twin.set_input("addr", &bits(5, 4)).unwrap();
        twin.set_input("din", &bits(0xAB, 8)).unwrap();
        twin.set_input("we", &[true]).unwrap();
        twin.step();
        assert_eq!(sim.state_hash(), twin.state_hash());
    }
}
