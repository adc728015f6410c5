//! The FPGA fabric: synthesized netlists clocked against the wire bank.
//!
//! Each fabric tick is one FPGA clock cycle: every netlist samples the
//! bank, evaluates, and drives back the wires whose write-enable outputs
//! are asserted. All netlists see the same pre-tick bank state and writes
//! are applied together afterwards — the same two-phase discipline as the
//! co-simulation kernel, so execution order cannot change results.
//!
//! When several instances drive one wire in the same tick, the
//! last-placed instance's value wins, and if the drivers disagree the
//! wire counts as one conflict for that tick, however many drivers it
//! has.
//!
//! A tick allocates nothing: each instance keeps its input words in a
//! reusable buffer, and the fabric keeps the tick's pending writes in
//! another.

use crate::wire_bank::{SlotId, WireBank};
use cosma_synth::{Netlist, NetlistSim};
use std::fmt;

struct Instance {
    name: String,
    sim: NetlistSim,
    /// Bank slot per netlist input (by input index); `None` = unconnected
    /// (reads 0).
    input_slots: Vec<Option<SlotId>>,
    /// `(out node name base, value node, we node, slot)` per driven wire.
    drives: Vec<(String, cosma_synth::NodeId, cosma_synth::NodeId, SlotId)>,
    /// Input words sampled from the bank, reused every tick.
    inputs: Vec<u64>,
}

/// The fabric hosting synthesized hardware.
#[derive(Default)]
pub struct Fabric {
    instances: Vec<Instance>,
    ticks: u64,
    /// This tick's writes as `(slot, placement order, value)`, reused
    /// every tick.
    pending: Vec<(SlotId, usize, u64)>,
    /// Write conflicts observed: wires whose drivers disagreed, counted
    /// once per wire per tick.
    pub conflicts: u64,
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric")
            .field("instances", &self.instances.len())
            .field("ticks", &self.ticks)
            .finish_non_exhaustive()
    }
}

impl Fabric {
    /// Creates an empty fabric.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Places a synthesized netlist into the fabric, connecting its
    /// inputs and `__out`/`__we` output pairs to like-named bank slots.
    /// Missing slots are created with the input/port widths.
    pub fn place(&mut self, netlist: &Netlist, bank: &mut WireBank) {
        let sim = netlist.simulator();
        let input_slots: Vec<Option<SlotId>> = netlist
            .inputs()
            .iter()
            .map(|(name, width)| Some(bank.add(name, *width, 0)))
            .collect();
        let mut drives = vec![];
        for (oname, node) in netlist.outputs() {
            if let Some(base) = oname.strip_suffix("__out") {
                let we_name = format!("{base}__we");
                if let Some(we_node) = netlist.output(&we_name) {
                    let width = netlist.width(*node);
                    let slot = bank.add(base, width, 0);
                    drives.push((base.to_string(), *node, we_node, slot));
                }
            }
        }
        self.instances.push(Instance {
            name: netlist.name().to_string(),
            sim,
            inputs: vec![0; input_slots.len()],
            input_slots,
            drives,
        });
    }

    /// One FPGA clock cycle.
    pub fn tick(&mut self, bank: &mut WireBank) {
        self.pending.clear();
        for (order, inst) in self.instances.iter_mut().enumerate() {
            for (word, slot) in inst.inputs.iter_mut().zip(&inst.input_slots) {
                *word = slot.map_or(0, |id| bank.read(id));
            }
            inst.sim.step(&inst.inputs);
            for (_, value_node, we_node, slot) in &inst.drives {
                if inst.sim.node_value(*we_node) & 1 == 1 {
                    self.pending
                        .push((*slot, order, inst.sim.node_value(*value_node)));
                }
            }
        }
        // Two-phase commit in placement order per wire, so the last-placed
        // driver wins; a wire whose drivers disagree is one conflict.
        self.pending
            .sort_unstable_by_key(|&(slot, order, _)| (slot.0, order));
        for drivers in self.pending.chunk_by(|a, b| a.0 == b.0) {
            if drivers.iter().any(|w| w.2 != drivers[0].2) {
                self.conflicts += 1;
            }
            for &(slot, _, v) in drivers {
                bank.write(slot, v);
            }
        }
        self.ticks += 1;
    }

    /// Number of placed netlists.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Total fabric clock cycles.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Aggregate technology report over all placed instances.
    #[must_use]
    pub fn tech_report(&self) -> cosma_synth::TechReport {
        let mut luts = 0;
        let mut ffs = 0;
        let mut clbs = 0;
        let mut depth = 0;
        let mut crit: f64 = 0.0;
        for inst in &self.instances {
            let r = inst.sim.netlist().tech_report();
            luts += r.luts;
            ffs += r.ffs;
            clbs += r.clbs;
            depth = depth.max(r.depth);
            crit = crit.max(r.crit_ns);
        }
        cosma_synth::TechReport {
            luts,
            ffs,
            clbs,
            depth,
            crit_ns: crit,
            fmax_mhz: if crit > 0.0 { 1000.0 / crit } else { 500.0 },
        }
    }

    /// Names of placed instances.
    pub fn instance_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.instances.iter().map(|i| i.name.as_str())
    }

    /// Register value inside a placed instance (debug/observability).
    #[must_use]
    pub fn reg_value(&self, instance: &str, reg: &str) -> Option<u64> {
        let inst = self.instances.iter().find(|i| i.name == instance)?;
        let r = inst.sim.netlist().find_reg(reg)?;
        Some(inst.sim.reg_value(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma_synth::{Netlist, Op};

    /// A netlist that increments the bank wire `N` every cycle.
    fn incrementer() -> Netlist {
        let mut n = Netlist::new("inc");
        let (_, cur) = n.input("N", 16);
        let one = n.constant(1, 16);
        let next = n.bin(Op::Add, cur, one);
        let we = n.constant(1, 1);
        n.mark_output("N__out", next);
        n.mark_output("N__we", we);
        n
    }

    #[test]
    fn placed_netlist_drives_bank() {
        let mut bank = WireBank::new();
        let mut fabric = Fabric::new();
        fabric.place(&incrementer(), &mut bank);
        assert_eq!(fabric.instance_count(), 1);
        for _ in 0..5 {
            fabric.tick(&mut bank);
        }
        assert_eq!(bank.read_named("N"), Some(5));
        assert_eq!(fabric.ticks(), 5);
    }

    #[test]
    fn conditional_write_enable_respected() {
        // Drives only when EN is set.
        let mut n = Netlist::new("cond");
        let (_, en) = n.input("EN", 1);
        let (_, x) = n.input("X", 8);
        let one = n.constant(1, 8);
        let next = n.bin(Op::Add, x, one);
        n.mark_output("X__out", next);
        n.mark_output("X__we", en);

        let mut bank = WireBank::new();
        let mut fabric = Fabric::new();
        fabric.place(&n, &mut bank);
        fabric.tick(&mut bank);
        assert_eq!(bank.read_named("X"), Some(0), "EN low: no write");
        bank.write_named("EN", 1);
        fabric.tick(&mut bank);
        assert_eq!(bank.read_named("X"), Some(1));
    }

    #[test]
    fn instances_share_wires_two_phase() {
        // Two incrementers of the same wire in one tick: both read the
        // same pre-tick value, so the result is +1 (and a conflict is
        // *not* flagged because both drive the same value).
        let mut bank = WireBank::new();
        let mut fabric = Fabric::new();
        fabric.place(&incrementer(), &mut bank);
        fabric.place(&incrementer(), &mut bank);
        fabric.tick(&mut bank);
        assert_eq!(bank.read_named("N"), Some(1));
        assert_eq!(fabric.conflicts, 0);
    }

    /// A netlist that drives the constant `v` onto wire `W` every cycle.
    fn constant_driver(v: u64) -> Netlist {
        let mut n = Netlist::new(format!("drive{v}"));
        let c = n.constant(v, 8);
        let we = n.constant(1, 1);
        n.mark_output("W__out", c);
        n.mark_output("W__we", we);
        n
    }

    #[test]
    fn conflicting_drivers_counted() {
        let mut bank = WireBank::new();
        let mut fabric = Fabric::new();
        fabric.place(&constant_driver(5), &mut bank);
        fabric.place(&constant_driver(9), &mut bank);
        fabric.tick(&mut bank);
        assert_eq!(fabric.conflicts, 1);
    }

    #[test]
    fn conflicts_count_each_wire_once_in_any_placement_order() {
        for order in [[5, 9, 5], [5, 5, 9], [9, 5, 5]] {
            let mut bank = WireBank::new();
            let mut fabric = Fabric::new();
            for v in order {
                fabric.place(&constant_driver(v), &mut bank);
            }
            fabric.tick(&mut bank);
            assert_eq!(fabric.conflicts, 1, "placement order {order:?}");
            assert_eq!(
                bank.read_named("W"),
                Some(order[2]),
                "last-placed driver wins, order {order:?}"
            );
            fabric.tick(&mut bank);
            assert_eq!(fabric.conflicts, 2, "one conflict per tick, {order:?}");
        }
    }

    #[test]
    fn aggregate_tech_report() {
        let mut bank = WireBank::new();
        let mut fabric = Fabric::new();
        fabric.place(&incrementer(), &mut bank);
        fabric.place(&incrementer(), &mut bank);
        let single = incrementer().tech_report();
        let agg = fabric.tech_report();
        assert_eq!(agg.luts, 2 * single.luts);
        assert!(fabric.instance_names().count() == 2);
    }

    #[test]
    fn reg_observability() {
        let mut n = Netlist::new("regs");
        let r = n.reg("STATE", 4, 3);
        let cur = n.read_reg(r);
        n.set_reg_next(r, cur);
        let mut bank = WireBank::new();
        let mut fabric = Fabric::new();
        fabric.place(&n, &mut bank);
        fabric.tick(&mut bank);
        assert_eq!(fabric.reg_value("regs", "STATE"), Some(3));
        assert_eq!(fabric.reg_value("regs", "NOPE"), None);
        assert_eq!(fabric.reg_value("nope", "STATE"), None);
    }
}
