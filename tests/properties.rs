//! Property-based tests over the core invariants.

use cosma::comm::{CallerId, FifoChannel, NativeUnit};
use cosma::core::{Expr, FsmExec, MapEnv, ModuleBuilder, ModuleKind, PortDir, Stmt, Type, Value};
use cosma::isa::{disassemble, Instr, Reg};
use cosma::synth::{synthesize_hw, Encoding, Netlist, NodeId, Op, RegId};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// FIFO: never loses, duplicates or reorders messages.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn fifo_preserves_message_stream(
        ops in proptest::collection::vec(any::<bool>(), 1..200),
        values in proptest::collection::vec(-3000i64..3000, 1..200),
        cap in 1usize..16,
    ) {
        let mut fifo = FifoChannel::new("q", cap);
        let mut sent = vec![];
        let mut received = vec![];
        let mut vi = 0;
        for &is_put in &ops {
            if is_put {
                let v = values[vi % values.len()];
                vi += 1;
                if fifo.call(CallerId(0), "put", &[Value::Int(v)]).unwrap().done {
                    sent.push(v);
                }
            } else if let Some(Value::Int(v)) =
                fifo.call(CallerId(1), "get", &[]).unwrap().result
            {
                received.push(v);
            }
        }
        // Drain what remains.
        while let Some(Value::Int(v)) = fifo.call(CallerId(1), "get", &[]).unwrap().result {
            received.push(v);
        }
        prop_assert_eq!(sent, received);
    }
}

// ---------------------------------------------------------------------
// Assembler: encode/decode round trip over arbitrary instruction mixes.
// ---------------------------------------------------------------------

fn arb_instr() -> impl Strategy<Value = Instr> {
    let r = || (0u8..8).prop_map(Reg);
    prop_oneof![
        Just(Instr::Nop),
        (r(), any::<u16>()).prop_map(|(rd, i)| Instr::Ldi(rd, i)),
        (r(), r()).prop_map(|(rd, rs)| Instr::Mov(rd, rs)),
        (r(), r()).prop_map(|(rd, rs)| Instr::Add(rd, rs)),
        (r(), r()).prop_map(|(rd, rs)| Instr::Sub(rd, rs)),
        (r(), r()).prop_map(|(rd, rs)| Instr::Mul(rd, rs)),
        (r(), any::<u16>()).prop_map(|(rd, i)| Instr::Cmpi(rd, i)),
        (r(), any::<u16>()).prop_map(|(rd, a)| Instr::Ld(rd, a)),
        (any::<u16>(), r()).prop_map(|(a, rs)| Instr::St(a, rs)),
        (r(), any::<u16>()).prop_map(|(rd, p)| Instr::In(rd, p)),
        (any::<u16>(), r()).prop_map(|(p, rs)| Instr::Out(p, rs)),
        any::<u16>().prop_map(Instr::Jmp),
        any::<u16>().prop_map(Instr::Jz),
        any::<u16>().prop_map(Instr::Jc),
        r().prop_map(Instr::Push),
        r().prop_map(Instr::Pop),
        any::<u16>().prop_map(Instr::Call),
        Just(Instr::Ret),
    ]
}

proptest! {
    #[test]
    fn instruction_stream_round_trips(instrs in proptest::collection::vec(arb_instr(), 1..60)) {
        // Lay the instructions into memory and disassemble them back.
        let mut mem = vec![0u16; 4096];
        let mut addr = 0u16;
        let mut expect = vec![];
        for i in &instrs {
            let (w, imm) = i.encode();
            mem[addr as usize] = w;
            expect.push((addr, *i));
            addr += 1;
            if let Some(imm) = imm {
                mem[addr as usize] = imm;
                addr += 1;
            }
        }
        mem[addr as usize] = Instr::Halt.encode().0;
        expect.push((addr, Instr::Halt));
        let got = disassemble(&mem, 0, expect.len() + 4);
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------
// State encodings: bijective for every scheme and size.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn encodings_bijective(n in 1usize..40) {
        for enc in Encoding::ALL {
            if enc == Encoding::OneHot && n > 40 {
                continue;
            }
            let codes: Vec<u64> = (0..n).map(|i| enc.encode(i, n)).collect();
            let mut dedup = codes.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), n, "{} duplicates codes", enc);
            for (i, c) in codes.iter().enumerate() {
                prop_assert_eq!(enc.decode(*c, n), Some(i));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hardware synthesis: random straight-line datapaths match the
// interpreter on random inputs.
// ---------------------------------------------------------------------

/// A small generator of safe expressions over two input ports and a
/// variable (no division; shifts by constants only).
fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (-200i64..200).prop_map(Expr::int),
        Just(Expr::port(cosma::core::ids::PortId::new(0))),
        Just(Expr::port(cosma::core::ids::PortId::new(1))),
        Just(Expr::var(cosma::core::ids::VarId::new(0))),
    ];
    leaf.prop_recursive(depth, 24, 2, |inner| {
        (inner.clone(), inner, 0u8..8)
            .prop_map(|(a, b, op)| match op {
                0 => a.add(b),
                1 => a.sub(b),
                2 => a.mul(b),
                3 => Expr::Binary(cosma::core::BinOp::Min, Box::new(a), Box::new(b)),
                4 => Expr::Binary(cosma::core::BinOp::Max, Box::new(a), Box::new(b)),
                5 => Expr::Binary(cosma::core::BinOp::Xor, Box::new(a), Box::new(b)),
                6 => Expr::Binary(cosma::core::BinOp::And, Box::new(a), Box::new(b)),
                _ => Expr::Binary(cosma::core::BinOp::Or, Box::new(a), Box::new(b)),
            })
            .boxed()
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn random_datapaths_synthesize_equivalently(
        e in arb_expr(3),
        inputs in proptest::collection::vec((-500i64..500, -500i64..500), 1..12),
    ) {
        let mut b = ModuleBuilder::new("dp", ModuleKind::Hardware);
        let _x = b.port("X", PortDir::In, Type::INT16);
        let _y = b.port("Y", PortDir::In, Type::INT16);
        let acc = b.var("ACC", Type::INT16, Value::Int(0));
        let s = b.state("S");
        b.actions(s, vec![Stmt::assign(acc, e)]);
        b.transition(s, None, s);
        b.initial(s);
        let m = b.build().unwrap();

        let (nl, _) = synthesize_hw(&m, Encoding::Binary).unwrap();
        let mut sim = nl.simulator();
        let mut env = MapEnv::new();
        env.add_port(Type::INT16, Value::Int(0));
        env.add_port(Type::INT16, Value::Int(0));
        env.add_var(Type::INT16, Value::Int(0));
        let mut exec = FsmExec::new(m.fsm());
        let reg = nl.find_reg("ACC").unwrap();
        for (x, y) in inputs {
            env.set_port(cosma::core::ids::PortId::new(0), Value::Int(x));
            env.set_port(cosma::core::ids::PortId::new(1), Value::Int(y));
            exec.step(m.fsm(), &mut env).unwrap();
            sim.step(&[x as u64 & 0xFFFF, y as u64 & 0xFFFF]);
            let expect = env.var(acc).to_bus_word(16);
            prop_assert_eq!(sim.reg_value(reg), expect, "inputs ({}, {})", x, y);
        }
    }
}

// ---------------------------------------------------------------------
// Netlist evaluation: the event-driven step (only the nodes a changed
// input word or register reaches) leaves every node and register where
// evaluating the whole netlist for the same cycle puts them.
// ---------------------------------------------------------------------

/// Every binary operation, indexed by a random draw.
const NETLIST_OPS: [Op; 15] = [
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::Div,
    Op::Rem,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Shl,
    Op::Shr,
    Op::Eq,
    Op::Lt,
    Op::Le,
    Op::Min,
    Op::Max,
];

/// Builds a netlist from raw draws: one input per `inputs` width, one
/// register per `regs` `(width, init)`, and one node per `nodes` word
/// (its low bits pick the kind, higher bits the operands and width).
/// Every register gets a next-value node. Returns the netlist, every
/// node id it has and its registers.
fn random_netlist(
    inputs: &[u32],
    reg_defs: &[(u32, u64)],
    nodes: &[u64],
) -> (Netlist, Vec<NodeId>, Vec<RegId>) {
    let mut n = Netlist::new("random");
    let mut ids = vec![];
    for (i, &w) in inputs.iter().enumerate() {
        ids.push(n.input(format!("I{i}"), w).1);
    }
    let regs: Vec<RegId> = reg_defs
        .iter()
        .enumerate()
        .map(|(i, &(w, init))| n.reg(format!("R{i}"), w, init))
        .collect();
    for &r in &regs {
        ids.push(n.read_reg(r));
    }
    for &word in nodes {
        let pick = |shift: u32| ids[((word >> shift) % ids.len() as u64) as usize];
        let (a, b, c) = (pick(8), pick(20), pick(32));
        let width = ((word >> 44) % 16) as u32 + 1;
        let id = match word % 8 {
            0 => n.constant(word >> 48, width),
            1 => n.not(a),
            2 => n.neg(a),
            3 | 4 => n.bin(NETLIST_OPS[((word >> 52) % 15) as usize], a, b),
            5 => {
                let sel = n.resize(a, 1);
                ids.push(sel);
                n.mux(sel, b, c)
            }
            6 => n.resize(a, width),
            _ => n.read_reg(regs[((word >> 8) % regs.len() as u64) as usize]),
        };
        ids.push(id);
    }
    for (i, &r) in regs.iter().enumerate() {
        let src = ids[(nodes.get(i).copied().unwrap_or(0) as usize >> 3) % ids.len()];
        let next = n.resize(src, reg_defs[i].0);
        n.set_reg_next(r, next);
        ids.push(next);
    }
    (n, ids, regs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn incremental_netlist_matches_full_evaluation(
        inputs in proptest::collection::vec(1u32..17, 1..5),
        regs in proptest::collection::vec((1u32..17, any::<u64>()), 1..5),
        nodes in proptest::collection::vec(any::<u64>(), 4..48),
        steps in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u32..16), 1..40),
    ) {
        let (nl, ids, regs) = random_netlist(&inputs, &regs, &nodes);
        let mut sim = nl.simulator();
        let mut words = vec![0u64; inputs.len()];
        for (step, &(sel, val, kind)) in steps.iter().enumerate() {
            let mut len = words.len();
            match kind {
                // Half the steps repeat the last inputs: partial or idle.
                0..=7 => {}
                8..=13 => {
                    let i = sel as usize % words.len();
                    words[i] = if sel & 64 == 0 { val % 4 } else { val };
                }
                14 => sim.set_reg(regs[sel as usize % regs.len()], val),
                // A short input slice: the missing words read 0.
                _ => len = sel as usize % (words.len() + 1),
            }
            let before: Vec<u64> = regs.iter().map(|&r| sim.reg_value(r)).collect();
            sim.step(&words[..len]);

            let mut full = nl.simulator();
            for (&r, &v) in regs.iter().zip(&before) {
                full.set_reg(r, v);
            }
            full.step(&words[..len]);
            for &id in &ids {
                prop_assert_eq!(
                    sim.node_value(id),
                    full.node_value(id),
                    "node {} at step {}",
                    id.index(),
                    step
                );
            }
            for &r in &regs {
                prop_assert_eq!(
                    sim.reg_value(r),
                    full.reg_value(r),
                    "register {} at step {}",
                    r.index(),
                    step
                );
            }
        }
        prop_assert_eq!(sim.cycles(), steps.len() as u64);
    }
}

// ---------------------------------------------------------------------
// Motor plant: position always equals executed step sum; backlog drains.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn motor_position_is_step_integral(
        cmds in proptest::collection::vec(-50i64..50, 1..60),
        speed in 1i64..10,
    ) {
        let mut m = cosma::motor::MotorModel::new(speed);
        let mut executed = 0i64;
        for c in &cmds {
            m.command_pulses(*c);
            let s = m.tick();
            prop_assert!(s.abs() <= speed);
            executed += s;
            prop_assert_eq!(m.position(), executed);
        }
        // Drain: eventually the backlog empties and position equals the
        // total commanded sum.
        let total: i64 = cmds.iter().sum();
        for _ in 0..10_000 {
            if !m.is_moving() {
                break;
            }
            m.tick();
        }
        prop_assert!(!m.is_moving());
        prop_assert_eq!(m.position(), total);
    }
}

// ---------------------------------------------------------------------
// Value layer: bus-word round trips.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn int16_bus_round_trip(v in -32768i64..32767) {
        let w = Value::Int(v).to_bus_word(16);
        let back = Value::from_bus_word(&Type::INT16, w).unwrap();
        prop_assert_eq!(back, Value::Int(v));
    }
}

// ---------------------------------------------------------------------
// Handshake protocol: robust to ARBITRARY interleaving of producer,
// consumer and controller activations (the paper's speed-mismatch
// problem). No loss, duplication or reorder under random schedules.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn handshake_robust_to_any_schedule(
        schedule in proptest::collection::vec(0u8..3, 50..600),
    ) {
        use cosma::comm::{handshake_unit, FsmUnitRuntime, LocalWires};
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = cosma::comm::LocalWires::new(&spec);
        let _ = &wires as &LocalWires;
        let producer = CallerId(1);
        let consumer = CallerId(2);
        let mut next = 0i64;
        let mut sent: Vec<i64> = vec![];
        let mut received: Vec<i64> = vec![];
        for &who in &schedule {
            match who {
                0 => {
                    if unit
                        .call(producer, "put", &[Value::Int(next)], &mut wires)
                        .unwrap()
                        .done
                    {
                        sent.push(next);
                        next += 1;
                    }
                }
                1 => {
                    if let Some(Value::Int(v)) =
                        unit.call(consumer, "get", &[], &mut wires).unwrap().result
                    {
                        received.push(v);
                    }
                }
                _ => unit.step_controller(&mut wires).unwrap(),
            }
        }
        // Everything received was sent, in order, with no duplicates; at
        // most one message can still be in flight.
        prop_assert!(received.len() <= sent.len() + 1,
            "received {} vs sent {}", received.len(), sent.len());
        let n = received.len().min(sent.len());
        prop_assert_eq!(&received[..n], &sent[..n]);
        for (i, v) in received.iter().enumerate() {
            prop_assert_eq!(*v, i as i64, "stream must be dense and ordered");
        }
    }
}

// ---------------------------------------------------------------------
// Kernel determinism: the same design produces identical signal values
// regardless of when we slice the run into run_for chunks.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn kernel_run_slicing_is_transparent(
        chunks in proptest::collection::vec(1u64..40, 1..20),
    ) {
        use cosma::sim::{Simulator, FnProcess, Wait, Duration};
        fn build() -> (Simulator, cosma::sim::SignalId) {
            let mut sim = Simulator::new();
            let clk = sim.add_bit("CLK");
            sim.add_clock("gen", clk, Duration::from_ns(10));
            let q = sim.add_signal("Q", Type::INT16, Value::Int(0));
            sim.add_process(
                "ctr",
                FnProcess::new(move |ctx| {
                    if ctx.rose(clk) {
                        let v = ctx.read_int(q);
                        ctx.drive(q, Value::Int(v * 3 + 1));
                    }
                    Wait::Event(vec![clk])
                }),
            );
            (sim, q)
        }
        let total: u64 = chunks.iter().sum();
        let (mut a, qa) = build();
        a.run_for(Duration::from_ns(total)).unwrap();
        let (mut b, qb) = build();
        for c in &chunks {
            b.run_for(Duration::from_ns(*c)).unwrap();
        }
        prop_assert_eq!(a.value(qa), b.value(qb));
        prop_assert_eq!(a.now(), b.now());
    }
}

// ---------------------------------------------------------------------
// Kernel scheduling core: the production kernel (inverted sensitivity
// index + heap-based event queues) is observationally equivalent to the
// full-scan reference kernel on randomized clock/process mixes — same
// signal traces, same event counts, same delta counts.
// ---------------------------------------------------------------------

/// A randomized design: free-running clocks, edge counters, delta-cycle
/// inverter chains, timeout tickers, event-or-timeout waiters, clocked
/// (`Wait::Same`) processes, a batched comm link and wake subscribers
/// (`ProcCtx::wake_on`).
#[derive(Debug, Clone)]
struct KernelMix {
    /// Clock periods in ns (one clock signal each).
    clocks: Vec<u64>,
    /// Counters, each watching `clocks[i % clocks.len()]`.
    counters: Vec<usize>,
    /// An inverter chain of this depth rooted at clock 0 (delta cascades).
    chain: usize,
    /// `wait for` tickers with these periods in ns.
    tickers: Vec<u64>,
    /// `wait on .. for ..` waiters: (clock index, timeout ns).
    waiters: Vec<(usize, u64)>,
    /// Clocked processes registered through [`ClockedProcess`] — the
    /// `Wait::Same` steady-state path. Each entry picks a clock; parity
    /// picks the [`Edge`].
    clocked: Vec<usize>,
    /// Whether to thread a batched comm link (put/pump/get over kernel
    /// wire signals) through the design.
    batched: bool,
    /// Wake subscribers: (clock index, wait kind, timeout ns). Each arms
    /// one-shot subscriptions on a clock and on an earlier observed
    /// signal, folds the `(signal, tag)` wakes it receives — in order —
    /// into its own output, and returns `Forever`, a timeout, a rising
    /// wait or `Same` by kind.
    subscribers: Vec<(usize, u8, u64)>,
    /// Total run length in ns.
    run_ns: u64,
}

fn arb_kernel_mix() -> impl Strategy<Value = KernelMix> {
    (
        (
            proptest::collection::vec(1u64..40, 1..4),
            proptest::collection::vec(0usize..8, 0..6),
            0usize..6,
            proptest::collection::vec(1u64..60, 0..4),
            proptest::collection::vec((0usize..8, 1u64..80), 0..4),
            proptest::collection::vec(0usize..8, 0..5),
            any::<bool>(),
            1u64..1200,
        ),
        proptest::collection::vec((0usize..8, 0u8..4, 1u64..60), 0..4),
    )
        .prop_map(
            |(
                (clocks, counters, chain, tickers, waiters, clocked, batched, run_ns),
                subscribers,
            )| {
                KernelMix {
                    clocks,
                    counters,
                    chain,
                    tickers,
                    waiters,
                    clocked,
                    batched,
                    subscribers,
                    run_ns,
                }
            },
        )
}

/// Bridges a [`cosma::comm::WireStore`] onto kernel signals through a
/// running process context (mirrors the backplane's adapter).
struct SigWires<'a, 'b> {
    ctx: &'a mut cosma::sim::ProcCtx<'b>,
    map: &'a [cosma::sim::SignalId],
}

impl cosma::comm::WireStore for SigWires<'_, '_> {
    fn read_wire(&self, w: cosma::core::ids::PortId) -> Result<Value, cosma::core::EvalError> {
        Ok(self.ctx.read(self.map[w.index()]).clone())
    }
    fn write_wire(
        &mut self,
        w: cosma::core::ids::PortId,
        v: Value,
    ) -> Result<(), cosma::core::EvalError> {
        self.ctx.drive(self.map[w.index()], v);
        Ok(())
    }
}

/// Builds the mix on any kernel through closures over the shared
/// `Process`/`ProcCtx`/`Wait` vocabulary. `add_sig`/`add_proc` abstract
/// the two kernels' registration calls; returns the observable signals.
fn build_mix(
    mix: &KernelMix,
    mut add_sig: impl FnMut(&str, Type, Value) -> cosma::sim::SignalId,
    mut add_clock: impl FnMut(cosma::sim::SignalId, cosma::sim::Duration),
    mut add_proc: impl FnMut(Box<dyn cosma::sim::Process>),
) -> Vec<cosma::sim::SignalId> {
    use cosma::sim::{Duration, FnProcess, Wait};
    let mut observed = vec![];
    let clk_sigs: Vec<_> = (0..mix.clocks.len())
        .map(|i| {
            add_sig(
                &format!("CLK{i}"),
                Type::Bit,
                Value::Bit(cosma::core::Bit::Zero),
            )
        })
        .collect();
    for (i, &p) in mix.clocks.iter().enumerate() {
        add_clock(clk_sigs[i], Duration::from_ns(p));
    }
    observed.extend(clk_sigs.iter().copied());
    for (j, &ci) in mix.counters.iter().enumerate() {
        let clk = clk_sigs[ci % clk_sigs.len()];
        let q = add_sig(&format!("Q{j}"), Type::INT16, Value::Int(0));
        observed.push(q);
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                if ctx.rose(clk) {
                    let v = ctx.read_int(q);
                    ctx.drive(q, Value::Int(v + 1));
                }
                Wait::Event(vec![clk])
            },
        )));
    }
    let mut prev = clk_sigs[0];
    for k in 0..mix.chain {
        let out = add_sig(
            &format!("INV{k}"),
            Type::Bit,
            Value::Bit(cosma::core::Bit::Zero),
        );
        observed.push(out);
        let src = prev;
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                let v = ctx.read_bit(src);
                ctx.drive(out, Value::Bit(!v));
                Wait::Event(vec![src])
            },
        )));
        prev = out;
    }
    for (k, &p) in mix.tickers.iter().enumerate() {
        let t = add_sig(&format!("T{k}"), Type::INT16, Value::Int(0));
        observed.push(t);
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                let v = ctx.read_int(t);
                ctx.drive(t, Value::Int(v + 1));
                Wait::Timeout(Duration::from_ns(p))
            },
        )));
    }
    for (m, &(ci, tmo)) in mix.waiters.iter().enumerate() {
        let clk = clk_sigs[ci % clk_sigs.len()];
        let w = add_sig(&format!("W{m}"), Type::INT16, Value::Int(0));
        observed.push(w);
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                let v = ctx.read_int(w);
                ctx.drive(w, Value::Int(v + 1));
                Wait::EventOrTimeout(vec![clk], Duration::from_ns(tmo))
            },
        )));
    }
    // Clocked processes registered through the Wait::Same steady-state
    // path, on alternating rising/falling edges.
    for (j, &ci) in mix.clocked.iter().enumerate() {
        use cosma::sim::{ClockControl, ClockedProcess, Edge};
        let clk = clk_sigs[ci % clk_sigs.len()];
        let edge = if j % 2 == 0 {
            Edge::Rising
        } else {
            Edge::Falling
        };
        let q = add_sig(&format!("C{j}"), Type::INT16, Value::Int(0));
        observed.push(q);
        add_proc(Box::new(ClockedProcess::new(clk, edge, move |ctx| {
            let v = ctx.read_int(q);
            ctx.drive(q, Value::Int(v + 1));
            if v >= 500 {
                ClockControl::Halt
            } else {
                ClockControl::Continue
            }
        })));
    }
    // A batched comm link driven over kernel wire signals: a clocked
    // producer/pump/consumer in one deterministic process.
    if mix.batched {
        use cosma::comm::{BatchedLink, CallerId};
        use cosma::sim::{ClockControl, ClockedProcess, Edge};
        let link = BatchedLink::new("bus", Type::INT16, 4, 16);
        let wire_sigs: Vec<cosma::sim::SignalId> = link
            .spec()
            .wires()
            .iter()
            .map(|w| {
                add_sig(
                    &format!("bus.{}", w.name()),
                    w.ty().clone(),
                    w.init().clone(),
                )
            })
            .collect();
        observed.extend(wire_sigs.iter().copied());
        let sum = add_sig("bus.RECV_SUM", Type::INT16, Value::Int(0));
        observed.push(sum);
        let clk = clk_sigs[0];
        let mut link = link;
        let mut sent = 0i64;
        let mut acc = 0i64;
        add_proc(Box::new(ClockedProcess::new(
            clk,
            Edge::Rising,
            move |ctx| {
                let mut ws = SigWires {
                    ctx,
                    map: &wire_sigs,
                };
                if sent < 24
                    && link
                        .put(CallerId(1), Value::Int(sent), &mut ws)
                        .expect("put")
                        .done
                {
                    sent += 1;
                }
                link.pump(&mut ws, true).expect("pump");
                if let Some(v) = link.get(CallerId(2), &mut ws).expect("get").result {
                    acc = (acc + v.as_int().expect("int")) & 0x3FFF;
                    ctx.drive(sum, Value::Int(acc));
                }
                ClockControl::Continue
            },
        )));
    }
    // Wake subscribers: the order of the wakes they receive feeds their
    // output, so both kernels must fire subscriptions identically —
    // per evented signal in event order, then in arm order.
    for (k, &(ci, kind, tmo)) in mix.subscribers.iter().enumerate() {
        let clk = clk_sigs[ci % clk_sigs.len()];
        let other = observed[(ci * 7 + k) % observed.len()];
        let out = add_sig(&format!("S{k}"), Type::INT16, Value::Int(0));
        observed.push(out);
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                let mut acc = ctx.read_int(out);
                for &(sig, tag) in ctx.wakes() {
                    acc = (acc * 5 + sig.index() as i64 * 3 + i64::from(tag)) & 0x3FFF;
                }
                ctx.drive(out, Value::Int(acc));
                ctx.wake_on(clk, (acc % 4) as u32);
                if acc % 3 == 0 {
                    // Sometimes a second signal, and the clock twice.
                    ctx.wake_on(other, 9);
                    ctx.wake_on(clk, 11);
                }
                match kind {
                    0 => Wait::Forever,
                    1 => Wait::Timeout(Duration::from_ns(tmo)),
                    2 => Wait::Rising(vec![other]),
                    _ => Wait::Same,
                }
            },
        )));
    }
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn kernel_equivalent_to_full_scan_reference(mix in arb_kernel_mix()) {
        use cosma::sim::reference::RefSimulator;
        use cosma::sim::{Duration, Simulator};

        let mut fast = Simulator::new();
        let fast_sigs;
        {
            let sim = std::cell::RefCell::new(&mut fast);
            fast_sigs = build_mix(
                &mix,
                |n, ty, v| sim.borrow_mut().add_signal(n, ty, v),
                |s, p| { sim.borrow_mut().add_clock("clk", s, p); },
                |p| { sim.borrow_mut().add_process("p", p); },
            );
        }
        let mut oracle = RefSimulator::new();
        let oracle_sigs;
        {
            let sim = std::cell::RefCell::new(&mut oracle);
            oracle_sigs = build_mix(
                &mix,
                |n, ty, v| sim.borrow_mut().add_signal(n, ty, v),
                |s, p| { sim.borrow_mut().add_clock(s, p); },
                |p| { sim.borrow_mut().add_process(p); },
            );
        }
        fast.run_for(Duration::from_ns(mix.run_ns)).unwrap();
        oracle.run_for(Duration::from_ns(mix.run_ns)).unwrap();

        // Identical signal traces: settled value, event count and last
        // event instant for every observable signal.
        prop_assert_eq!(fast_sigs.len(), oracle_sigs.len());
        for (&f, &o) in fast_sigs.iter().zip(&oracle_sigs) {
            let fi = fast.signal_info(f);
            let oi = oracle.signal_info(o);
            prop_assert_eq!(&fi.value, &oi.value, "value of {}", fi.name);
            prop_assert_eq!(fi.event_count, oi.event_count, "event count of {}", fi.name);
            prop_assert_eq!(fi.last_event, oi.last_event, "last event of {}", fi.name);
        }
        // Identical schedule shape: same activations, events, deltas and
        // instants, and the same final time.
        let fs = fast.stats();
        let os = oracle.stats();
        prop_assert_eq!(fs.process_runs, os.process_runs);
        prop_assert_eq!(fs.events, os.events);
        prop_assert_eq!(fs.deltas, os.deltas);
        prop_assert_eq!(fs.instants, os.instants);
        prop_assert_eq!(fast.now(), oracle.now());
    }
}

// ---------------------------------------------------------------------
// Backplane scheduling: every scheduler configuration — the production
// path (unit shards + module driver), the legacy per-unit/per-module
// oracle, and both mixed combinations of their halves — is
// observationally equivalent: same module states, SUMs, traces AND
// activation counts, on randomized topologies over every link kind.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn backplane_schedulings_equivalent(
        units in 2usize..7,
        topo_sel in 0u8..5,
        link_sel in 0u8..3,
        values in 1usize..4,
        seed in any::<u64>(),
        shard_size in 1usize..6,
        park in any::<bool>(),
    ) {
        use cosma::comm::BusTiming;
        use cosma::cosim::scenario::{build_scenario, LinkKind, ScenarioSpec, Topology};
        use cosma::cosim::{ModuleScheduling, SchedulingConfig, UnitScheduling};
        use cosma::sim::Duration;

        let topology = match topo_sel {
            0 => Topology::Pipeline,
            1 => Topology::Star,
            2 => Topology::Ring,
            3 => Topology::Starved,
            _ => Topology::RandomDag { seed },
        };
        // All three link flavours face every scheduler: the classic
        // handshake, the batched fast path, and cycle-accurate payload
        // beats.
        let link = match link_sel {
            0 => LinkKind::Handshake,
            1 => LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::LengthOnly,
            },
            _ => LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::PayloadBeats,
            },
        };
        let mk = |scheduling| ScenarioSpec {
            units,
            topology,
            link,
            values_per_link: values,
            scheduling,
            ..ScenarioSpec::default()
        };
        let run = |name: &str, scheduling| -> Result<_, TestCaseError> {
            let mut s = build_scenario(&mk(scheduling))
                .unwrap_or_else(|e| panic!("{name} builds: {e}"));
            s.cosim
                .run_for(Duration::from_us(300))
                .unwrap_or_else(|e| panic!("{name} runs: {e}"));
            Ok(s)
        };
        let shd = |shard_size| ModuleScheduling::Sharded { shard_size };
        // The oracle: one process per unit and per module — the
        // semantics every other configuration must match.
        let baseline = run("per_unit", SchedulingConfig {
            units: UnitScheduling::PerUnit,
            modules: ModuleScheduling::PerModule,
            park_blocked: park,
        })?;
        // The production path, plus each of its halves paired with the
        // other half of the oracle.
        let variants = [
            ("sharded", SchedulingConfig {
                units: UnitScheduling::Sharded { shard_size },
                modules: shd(shard_size),
                park_blocked: park,
            }),
            ("per_unit_driver", SchedulingConfig {
                units: UnitScheduling::PerUnit,
                modules: shd(shard_size),
                park_blocked: park,
            }),
            ("sharded_units_per_module", SchedulingConfig {
                units: UnitScheduling::Sharded { shard_size },
                modules: ModuleScheduling::PerModule,
                park_blocked: park,
            }),
        ];
        for (name, cfg) in variants {
            let s = run(name, cfg)?;
            for (&a, &b) in s.modules.iter().zip(&baseline.modules) {
                prop_assert_eq!(
                    s.cosim.module_status(a),
                    baseline.cosim.module_status(b),
                    "{} vs per_unit: module status diverged under {:?}", name, topology
                );
            }
            let s_trace = s.cosim.trace_log();
            let baseline_trace = baseline.cosim.trace_log();
            prop_assert_eq!(
                s_trace.entries(),
                baseline_trace.entries(),
                "{} vs per_unit: traces diverged under {:?}/{:?}", name, topology, link
            );
            // All variants must have completed all traffic in budget.
            prop_assert!(s.is_complete(), "{} incomplete under {:?}", name, topology);
            s.verify().map_err(TestCaseError::fail)?;
            // With parking on, a Starved run must actually have parked
            // its blocked consumers.
            if park && matches!(topology, Topology::Starved) {
                let stats = s.cosim.shard_stats();
                prop_assert!(
                    stats.members_parked as usize >= units - 1,
                    "{}: starved consumers parked: {:?}", name, stats
                );
            }
        }
        baseline.verify().map_err(TestCaseError::fail)?;
    }
}

// ---------------------------------------------------------------------
// Bus timing: cycle-accurate payload beats are a pure *timing* model —
// delivered values, final module states and checksums are bit-identical
// to the length-only fast path on randomized topologies, while the
// PayloadBeats run's bus occupancy (UnitStats::payload_beats) scales
// linearly with batch length (exactly one beat per value).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn payload_beats_preserves_delivered_semantics(
        units in 2usize..7,
        topo_sel in 0u8..4,
        values in 1usize..4,
        max_batch in 2usize..6,
        seed in any::<u64>(),
    ) {
        use cosma::comm::BusTiming;
        use cosma::cosim::scenario::{build_scenario, LinkKind, ScenarioSpec, Topology};
        use cosma::sim::Duration;

        let topology = match topo_sel {
            0 => Topology::Pipeline,
            1 => Topology::Star,
            2 => Topology::Ring,
            _ => Topology::RandomDag { seed },
        };
        let run = |timing| {
            let mut s = build_scenario(&ScenarioSpec {
                units,
                topology,
                link: LinkKind::Batched { max_batch, capacity: 16, timing },
                values_per_link: values,
                ..ScenarioSpec::default()
            })
            .expect("scenario builds");
            let done = s
                .run_to_completion(Duration::from_us(2_000))
                .expect("scenario runs");
            prop_assert!(done, "{timing:?} completes under {topology:?}");
            Ok(s)
        };
        let fast = run(BusTiming::LengthOnly)?;
        let beats = run(BusTiming::PayloadBeats)?;
        // Identical delivered semantics: final states, errors and
        // checksums (activation counts and trace *times* legitimately
        // differ — payload beats add bus cycles).
        for (&a, &b) in beats.modules.iter().zip(&fast.modules) {
            let sa = beats.cosim.module_status(a);
            let sb = fast.cosim.module_status(b);
            prop_assert_eq!(&sa.state, &sb.state, "state diverged under {:?}", topology);
            prop_assert_eq!(&sa.error, &sb.error);
        }
        fast.verify().map_err(TestCaseError::fail)?;
        beats.verify().map_err(TestCaseError::fail)?;
        let seq = |s: &cosma::cosim::scenario::Scenario| -> Vec<(String, String, Vec<cosma::core::Value>)> {
            s.cosim
                .trace_log()
                .entries()
                .iter()
                .map(|e| (e.source.clone(), e.label.clone(), e.values.clone()))
                .collect()
        };
        prop_assert_eq!(seq(&beats), seq(&fast), "trace sequences diverged");
        // Beat linearity: every batched link paid exactly one DATA beat
        // per value under PayloadBeats, and none under LengthOnly.
        for (i, _) in beats.links.iter().enumerate() {
            let name = format!("link{i}");
            let b = beats.cosim.unit_stats(&name).expect("stats");
            let f = fast.cosim.unit_stats(&name).expect("stats");
            prop_assert_eq!(
                b.payload_beats, b.batched_values,
                "link{} beats must equal values carried", i
            );
            prop_assert_eq!(f.payload_beats, 0, "length-only streams nothing");
            prop_assert_eq!(
                b.batched_values, f.batched_values,
                "same traffic volume either way"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Mid-burst checkpoints: under burst-scheduled payload beats every DATA
// beat of an in-flight batch is a pre-scheduled future drive in the
// kernel's drive heap, so an arbitrary cut usually lands *inside* a
// burst. Snapshotting there and restoring must replay the remaining
// beats — and everything after them — bit-identically, across the
// schedulers.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn mid_burst_checkpoint_replays_bit_identically(
        units in 2usize..6,
        topo_sel in 0u8..4,
        values in 1usize..4,
        max_batch in 2usize..6,
        cut_ns in 2_000u64..120_000,
        sched_sel in 0u8..3,
        seed in any::<u64>(),
    ) {
        use cosma::comm::BusTiming;
        use cosma::cosim::scenario::{build_scenario, LinkKind, ScenarioSpec, Topology};
        use cosma::cosim::{ModuleScheduling, SchedulingConfig};
        use cosma::sim::Duration;

        let topology = match topo_sel {
            0 => Topology::Pipeline,
            1 => Topology::Star,
            2 => Topology::Ring,
            _ => Topology::RandomDag { seed },
        };
        let scheduling = match sched_sel {
            0 => SchedulingConfig::legacy(),
            1 => SchedulingConfig::sharded(),
            // Unit shards next to per-module processes: both halves'
            // scheduler state must round-trip through one snapshot.
            _ => SchedulingConfig {
                modules: ModuleScheduling::PerModule,
                ..SchedulingConfig::sharded()
            },
        };
        let mut s = build_scenario(&ScenarioSpec {
            units,
            topology,
            link: LinkKind::Batched {
                max_batch,
                capacity: 16,
                timing: BusTiming::PayloadBeats,
            },
            values_per_link: values,
            scheduling,
            ..ScenarioSpec::default()
        })
        .expect("scenario builds");
        // Run to an arbitrary cut point, then checkpoint. The cut is in
        // raw nanoseconds (not cycle-aligned) precisely so it can land
        // between the beats of a scheduled burst.
        s.cosim.run_for(Duration::from_ns(cut_ns)).expect("prefix runs");
        let snap = s.cosim.snapshot();
        s.cosim.run_for(Duration::from_us(400)).expect("tail runs");
        let want_trace = s.cosim.trace_log();
        let want_status: Vec<_> =
            s.modules.iter().map(|&m| s.cosim.module_status(m)).collect();
        // Restore twice: the second round proves restore itself leaves
        // no residue (a restored backplane is a valid checkpoint base).
        for round in 0..2 {
            s.cosim.restore(&snap).expect("restore");
            s.cosim.run_for(Duration::from_us(400)).expect("replay runs");
            prop_assert_eq!(
                s.cosim.trace_log(),
                want_trace.clone(),
                "round {}: replayed trace diverged under {:?}", round, topology
            );
            for (&m, want) in s.modules.iter().zip(&want_status) {
                prop_assert_eq!(
                    &s.cosim.module_status(m),
                    want,
                    "round {}: module status diverged under {:?}", round, topology
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Binary trace codec: encoding a live run's columnar trace log and
// decoding it back must reproduce the exact entry stream, whatever
// scheduler and link flavour produced it. The scenario modules emit an
// interned trace record per activation (`trace: true`), so the interner
// table, the varint-packed columns and the segment framing all carry
// real traffic.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn binary_trace_round_trips_across_schedulers(
        units in 2usize..6,
        topo_sel in 0u8..4,
        link_sel in 0u8..3,
        values in 1usize..4,
        sched_sel in 0u8..4,
        seed in any::<u64>(),
    ) {
        use cosma::comm::BusTiming;
        use cosma::cosim::scenario::{build_scenario, LinkKind, ScenarioSpec, Topology};
        use cosma::cosim::{tracebin, ModuleScheduling, SchedulingConfig, UnitScheduling};
        use cosma::sim::Duration;

        let topology = match topo_sel {
            0 => Topology::Pipeline,
            1 => Topology::Star,
            2 => Topology::Ring,
            _ => Topology::RandomDag { seed },
        };
        let link = match link_sel {
            0 => LinkKind::Handshake,
            1 => LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::LengthOnly,
            },
            _ => LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::PayloadBeats,
            },
        };
        let scheduling = match sched_sel {
            0 => SchedulingConfig::legacy(),
            1 => SchedulingConfig::sharded(),
            2 => SchedulingConfig {
                units: UnitScheduling::PerUnit,
                ..SchedulingConfig::sharded()
            },
            _ => SchedulingConfig {
                modules: ModuleScheduling::PerModule,
                ..SchedulingConfig::sharded()
            },
        };
        let mut s = build_scenario(&ScenarioSpec {
            units,
            topology,
            link,
            values_per_link: values,
            scheduling,
            trace: true,
            ..ScenarioSpec::default()
        })
        .expect("scenario builds");
        s.cosim.run_for(Duration::from_us(120)).expect("runs");
        let log = s.cosim.trace_log();
        prop_assert!(
            !log.entries().is_empty(),
            "traced modules must have recorded entries"
        );
        let mut buf: Vec<u8> = vec![];
        tracebin::write_log(&log, &mut buf).expect("encode");
        let back = tracebin::read_log(buf.as_slice()).expect("decode");
        prop_assert_eq!(
            back.entries(),
            log.entries(),
            "decoded entry stream diverged under {:?}/{:?}", topology, link
        );
    }
}

// ---------------------------------------------------------------------
// Timer wheel: the hierarchical wheel, the binary-heap oracle and the
// full-scan reference kernel are observationally equivalent on
// randomized schedules whose entries live across every wheel level —
// single delayed drives from nanoseconds to beyond the 141 ms horizon
// (overflow), burst trains whose strides walk entries over the
// 2^29/2^35/2^41 fs level boundaries, periodic tickers, and
// event-or-timeout waiters whose timers are cancelled by clock events
// (exercising O(1) wheel cancellation at every level).
// ---------------------------------------------------------------------

/// A randomized wheel-stressing design. Delay classes are chosen so the
/// wheel files entries at level 0 (< 537 ns), level 1 (< 34.4 us),
/// level 2 (< 2.2 ms), level 3 (< 141 ms) and the overflow list.
#[derive(Debug, Clone)]
struct WheelMix {
    /// Fast clock period in ns (events + canceller wakeups).
    clock_ns: u64,
    /// Looping burst trains: (start_ns, stride_ns, beats). A process
    /// re-issues its train whenever the previous one drains, so trains
    /// are in flight (and crossing level boundaries) for the whole run.
    trains: Vec<(u64, u64, usize)>,
    /// One-shot `drive_after` delays in ns, spanning all levels.
    drives: Vec<u64>,
    /// Event-or-timeout waiters: timeout in ns. Whenever the clock
    /// event arrives first the pending timer is cancelled.
    cancellers: Vec<u64>,
    /// Periodic `wait for` tickers in ns.
    tickers: Vec<u64>,
    /// Run length in ns.
    run_ns: u64,
}

/// A delay spanning the wheel's level structure: class picks the level,
/// `frac` the position inside it.
fn arb_level_delay() -> impl Strategy<Value = u64> {
    (0u8..5, 1u64..1000).prop_map(|(class, frac)| match class {
        0 => frac / 2 + 1,                 // level 0: 1..501 ns
        1 => 600 + frac * 33,              // level 1: 0.6..34 us
        2 => 40_000 + frac * 2_000,        // level 2: 40 us..2 ms
        3 => 3_000_000 + frac * 100_000,   // level 3: 3..103 ms
        _ => 150_000_000 + frac * 250_000, // overflow: > 141 ms horizon
    })
}

fn arb_wheel_mix() -> impl Strategy<Value = WheelMix> {
    (
        1_000u64..8_000,
        proptest::collection::vec((0u64..40_000, 100u64..30_000, 2usize..24), 0..4),
        proptest::collection::vec(arb_level_delay(), 1..8),
        proptest::collection::vec(arb_level_delay(), 0..4),
        proptest::collection::vec(2_000u64..60_000, 0..4),
        100_000u64..4_000_000,
    )
        .prop_map(
            |(clock_ns, trains, drives, cancellers, tickers, run_ns)| WheelMix {
                clock_ns,
                trains,
                drives,
                cancellers,
                tickers,
                run_ns,
            },
        )
}

/// Builds the wheel mix through the shared registration closures
/// (same trick as [`build_mix`]); returns the observable signals.
fn build_wheel_mix(
    mix: &WheelMix,
    mut add_sig: impl FnMut(&str, Type, Value) -> cosma::sim::SignalId,
    mut add_clock: impl FnMut(cosma::sim::SignalId, cosma::sim::Duration),
    mut add_proc: impl FnMut(Box<dyn cosma::sim::Process>),
) -> Vec<cosma::sim::SignalId> {
    use cosma::core::Bit;
    use cosma::sim::{Duration, FnProcess, Wait};
    let mut observed = vec![];
    let clk = add_sig("CLK", Type::Bit, Value::Bit(Bit::Zero));
    add_clock(clk, Duration::from_ns(mix.clock_ns));
    observed.push(clk);
    // Looping burst trains: one signal each, re-armed on drain.
    for (j, &(start, stride, beats)) in mix.trains.iter().enumerate() {
        let sig = add_sig(&format!("TR{j}"), Type::Bit, Value::Bit(Bit::Zero));
        observed.push(sig);
        let start = Duration::from_ns(start);
        let stride = Duration::from_ns(stride);
        let values: Vec<Value> = (0..beats)
            .map(|k| Value::Bit(if k % 2 == 0 { Bit::One } else { Bit::Zero }))
            .collect();
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                ctx.drive_train(sig, start + stride, stride, &values);
                Wait::Timeout(start + stride.times(values.len() as u64 + 1))
            },
        )));
    }
    // One-shot far drives: a single process scatters them at t=0 and
    // then sleeps forever. Distinct values so last-writer order shows.
    {
        let far = add_sig("FAR", Type::INT16, Value::Int(0));
        observed.push(far);
        let delays = mix.drives.clone();
        let mut fired = false;
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                if !fired {
                    fired = true;
                    for (i, &d) in delays.iter().enumerate() {
                        ctx.drive_after(far, Value::Int(i as i64 + 1), Duration::from_ns(d));
                    }
                }
                Wait::Forever
            },
        )));
    }
    // Cancellers: the clock edge usually lands before the timeout, so
    // every wakeup cancels a pending timer parked at a random level.
    for (m, &tmo) in mix.cancellers.iter().enumerate() {
        let c = add_sig(&format!("CAN{m}"), Type::INT16, Value::Int(0));
        observed.push(c);
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                let v = ctx.read_int(c);
                ctx.drive(c, Value::Int((v + 1) & 0x3FFF));
                Wait::EventOrTimeout(vec![clk], Duration::from_ns(tmo))
            },
        )));
    }
    for (k, &p) in mix.tickers.iter().enumerate() {
        let t = add_sig(&format!("TK{k}"), Type::INT16, Value::Int(0));
        observed.push(t);
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                let v = ctx.read_int(t);
                ctx.drive(t, Value::Int((v + 1) & 0x3FFF));
                Wait::Timeout(Duration::from_ns(p))
            },
        )));
    }
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn wheel_matches_heap_and_reference_across_levels(mix in arb_wheel_mix()) {
        use cosma::sim::reference::RefSimulator;
        use cosma::sim::{Duration, Simulator};

        let build_fast = |heap: bool| {
            let mut sim = Simulator::new();
            if heap {
                sim.use_heap_queues();
            }
            let sigs;
            {
                let cell = std::cell::RefCell::new(&mut sim);
                sigs = build_wheel_mix(
                    &mix,
                    |n, ty, v| cell.borrow_mut().add_signal(n, ty, v),
                    |s, p| { cell.borrow_mut().add_clock("clk", s, p); },
                    |p| { cell.borrow_mut().add_process("p", p); },
                );
            }
            (sim, sigs)
        };
        let (mut wheel, wheel_sigs) = build_fast(false);
        let (mut heap, heap_sigs) = build_fast(true);
        let mut oracle = RefSimulator::new();
        let oracle_sigs;
        {
            let cell = std::cell::RefCell::new(&mut oracle);
            oracle_sigs = build_wheel_mix(
                &mix,
                |n, ty, v| cell.borrow_mut().add_signal(n, ty, v),
                |s, p| { cell.borrow_mut().add_clock(s, p); },
                |p| { cell.borrow_mut().add_process(p); },
            );
        }
        wheel.run_for(Duration::from_ns(mix.run_ns)).unwrap();
        heap.run_for(Duration::from_ns(mix.run_ns)).unwrap();
        oracle.run_for(Duration::from_ns(mix.run_ns)).unwrap();

        for (&w, (&h, &o)) in wheel_sigs.iter().zip(heap_sigs.iter().zip(&oracle_sigs)) {
            let wi = wheel.signal_info(w);
            let hi = heap.signal_info(h);
            let oi = oracle.signal_info(o);
            prop_assert_eq!(&wi.value, &hi.value, "wheel vs heap: value of {}", wi.name);
            prop_assert_eq!(&wi.value, &oi.value, "wheel vs ref: value of {}", wi.name);
            prop_assert_eq!(wi.event_count, hi.event_count, "wheel vs heap: events of {}", wi.name);
            prop_assert_eq!(wi.event_count, oi.event_count, "wheel vs ref: events of {}", wi.name);
            prop_assert_eq!(wi.last_event, hi.last_event, "wheel vs heap: last event of {}", wi.name);
            prop_assert_eq!(wi.last_event, oi.last_event, "wheel vs ref: last event of {}", wi.name);
        }
        // Identical schedule shape across all three queue disciplines.
        let ws = wheel.stats();
        let hs = heap.stats();
        let os = oracle.stats();
        for (name, w, h, o) in [
            ("process_runs", ws.process_runs, hs.process_runs, os.process_runs),
            ("events", ws.events, hs.events, os.events),
            ("deltas", ws.deltas, hs.deltas, os.deltas),
            ("instants", ws.instants, hs.instants, os.instants),
        ] {
            prop_assert_eq!(w, h, "wheel vs heap: {}", name);
            prop_assert_eq!(w, o, "wheel vs ref: {}", name);
        }
        // Wakeup accounting is backend-independent (cancellation
        // bookkeeping differs: the wheel removes eagerly, the heap
        // skips stale entries lazily — but who woke and why must not).
        prop_assert_eq!(ws.timer_wakeups, hs.timer_wakeups);
        prop_assert_eq!(ws.event_wakeups, hs.event_wakeups);
        prop_assert_eq!(wheel.now(), heap.now());
        prop_assert_eq!(wheel.now(), oracle.now());
    }
}

// ---------------------------------------------------------------------
// Wheel snapshots: `save_state` canonicalizes the wheel into the
// `(at, seq)` contract, so a snapshot taken with live entries in EVERY
// wheel level (and the overflow list), cut in raw nanoseconds so it
// lands mid-train between scheduled beats, must restore into a fresh
// simulator — and rewind the original — bit-identically: same signal
// traces, same final time, same stats to the counter.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn wheel_state_round_trips_with_live_levels_and_mid_train_cuts(
        cut_ns in 60_000u64..1_200_000,
        stride_ns in 150u64..2_500,
        beats in 8usize..48,
        clock_ns in 400u64..3_000,
    ) {
        use cosma::core::Bit;
        use cosma::sim::{Duration, FnProcess, Simulator, Wait};

        // Every level stays populated: a re-seeding process refreshes
        // far drives at level-spanning delays every 50 us, a looping
        // train keeps beats in flight (the raw-ns cut lands between
        // them), and the clock cancels an EventOrTimeout timer parked
        // out at level 2 on every edge.
        let build = |heap: bool| {
            let mut sim = Simulator::new();
            if heap {
                sim.use_heap_queues();
            }
            let clk = sim.add_bit("CLK");
            sim.add_clock("gen", clk, Duration::from_ns(clock_ns));
            let tr = sim.add_bit("TR");
            let stride = Duration::from_ns(stride_ns);
            let values: Vec<Value> = (0..beats)
                .map(|k| Value::Bit(if k % 2 == 0 { Bit::One } else { Bit::Zero }))
                .collect();
            sim.add_process(
                "train",
                FnProcess::new(move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                    ctx.drive_train(tr, stride, stride, &values);
                    Wait::Timeout(stride.times(values.len() as u64 + 1))
                }),
            );
            let far = sim.add_signal("FAR", Type::INT16, Value::Int(0));
            sim.add_process(
                "seeder",
                FnProcess::new(move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                    // Stateless on purpose: `save_state` does not own
                    // closure state, so the round derives from sim time
                    // and survives restore/rewind bit-identically.
                    let round = (ctx.now().as_ns() / 50_000) as i64 + 1;
                    // Level 0 / 1 / 2 / 3 / overflow respectively.
                    for (i, d) in [200u64, 5_000, 600_000, 5_000_000, 250_000_000]
                        .into_iter()
                        .enumerate()
                    {
                        ctx.drive_after(
                            far,
                            Value::Int((round * 8 + i as i64) & 0x3FFF),
                            Duration::from_ns(d),
                        );
                    }
                    Wait::Timeout(Duration::from_us(50))
                }),
            );
            let can = sim.add_signal("CAN", Type::INT16, Value::Int(0));
            sim.add_process(
                "canceller",
                FnProcess::new(move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                    let v = ctx.read_int(can);
                    ctx.drive(can, Value::Int((v + 1) & 0x3FFF));
                    Wait::EventOrTimeout(vec![clk], Duration::from_ms(1))
                }),
            );
            (sim, vec![clk, tr, far, can])
        };

        let tail = Duration::from_ns(1_500_000);
        let (mut a, a_sigs) = build(false);
        a.run_until(cosma::sim::SimTime::from_ns(cut_ns)).unwrap();
        let snap = a.save_state();
        a.run_for(tail).unwrap();
        let want: Vec<_> = a_sigs.iter().map(|&s| a.signal_info(s)).collect();
        let want_now = a.now();
        let want_stats = a.stats();
        // The construction really does exercise the whole structure.
        prop_assert!(want_stats.bulk_inserts > 0, "trains must bulk-insert");
        prop_assert!(want_stats.wheel_cascades > 0, "levels must cascade");
        prop_assert!(want_stats.overflow_parked > 0, "horizon must overflow");
        prop_assert!(want_stats.timers_cancelled > 0, "cancellation must hit the wheel");

        // Restore into a FRESH simulator (structural twin, never run).
        let (mut b, b_sigs) = build(false);
        b.load_state(&snap).unwrap();
        b.run_for(tail).unwrap();
        for (&bs, w) in b_sigs.iter().zip(&want) {
            let bi = b.signal_info(bs);
            prop_assert_eq!(&bi.value, &w.value, "restored value of {}", w.name);
            prop_assert_eq!(bi.event_count, w.event_count, "restored events of {}", w.name);
            prop_assert_eq!(bi.last_event, w.last_event, "restored last event of {}", w.name);
        }
        prop_assert_eq!(b.now(), want_now);
        // Stats continue verbatim — except the wheel's own filing
        // telemetry: `load_state` re-files pending entries relative to
        // the restore-time cursor, so an entry the original run filed
        // high and cascaded down may be filed directly low after a
        // restore (fewer cascades, different slot peaks). Everything
        // observable (wakeups, events, deltas, cancellations) must
        // still match to the counter.
        let scrub = |mut s: cosma::sim::SimStats| {
            s.wheel_cascades = 0;
            s.wheel_slot_peak = 0;
            s.overflow_parked = 0;
            s
        };
        prop_assert_eq!(
            scrub(b.stats()),
            scrub(want_stats),
            "restored stats must continue verbatim"
        );

        // Rewind the original: restoring over a further-run simulator
        // must leave no residue either.
        a.load_state(&snap).unwrap();
        a.run_for(tail).unwrap();
        for (&s, w) in a_sigs.iter().zip(&want) {
            let ai = a.signal_info(s);
            prop_assert_eq!(&ai.value, &w.value, "rewound value of {}", w.name);
            prop_assert_eq!(ai.event_count, w.event_count, "rewound events of {}", w.name);
        }
        prop_assert_eq!(a.now(), want_now);
        prop_assert_eq!(scrub(a.stats()), scrub(want_stats));

        // And the canonical snapshot is backend-portable: a HEAP twin
        // restored from the wheel's snapshot replays the same tail (the
        // `(at, seq)` pop-order contract, end to end).
        let (mut h, h_sigs) = build(true);
        h.load_state(&snap).unwrap();
        h.run_for(tail).unwrap();
        for (&s, w) in h_sigs.iter().zip(&want) {
            let hi = h.signal_info(s);
            prop_assert_eq!(&hi.value, &w.value, "heap-restored value of {}", w.name);
            prop_assert_eq!(hi.event_count, w.event_count, "heap-restored events of {}", w.name);
        }
        prop_assert_eq!(h.now(), want_now);
    }
}

// ---------------------------------------------------------------------
// Partitioned co-simulation: cutting a scenario across coupled
// backplane partitions under the conservative orchestrator (lookahead
// windows, causality checks) is bit-identical — module statuses, SUMs,
// per-source trace streams — to the collapsed single-backplane oracle,
// across topologies, link kinds, clock-domain ratios, partition
// counts, boundary latencies and sync quanta.
// ---------------------------------------------------------------------

/// Runs `spec` partitioned (sync quanta of `quantum`) and through the
/// collapsed oracle, asserting bit-identical observables. Returns the
/// orchestrator stats so callers can gate on the sync machinery.
fn assert_partitioned_matches_collapsed(
    spec: &cosma::cosim::scenario::ScenarioSpec,
    pspec: &cosma::cosim::scenario::PartitionsSpec,
    total: cosma::sim::Duration,
    quantum: cosma::sim::Duration,
) -> cosma::cosim::OrchestratorStats {
    use cosma::cosim::scenario::{build_collapsed, build_partitioned};
    use cosma::cosim::TraceEntry;

    let mut mono = build_collapsed(spec, pspec).expect("collapsed oracle builds");
    mono.cosim.run_for(total).expect("collapsed oracle runs");
    let mut part = build_partitioned(spec, pspec).expect("partitioned builds");
    part.run_for(total, quantum).expect("partitioned runs");
    assert_eq!(part.modules.len(), mono.modules.len());
    for j in 0..part.modules.len() {
        assert_eq!(
            part.module_status(j),
            mono.cosim.module_status(mono.modules[j]),
            "module {j} status diverged under {spec:?} / {pspec:?} / quantum {quantum:?}"
        );
    }
    mono.verify()
        .unwrap_or_else(|e| panic!("collapsed oracle checksum: {e}"));
    part.verify()
        .unwrap_or_else(|e| panic!("partitioned checksum: {e}"));
    // Trace streams compared per source: cross-partition modules
    // interleave arbitrarily in a merged view, but each module's own
    // event stream (labels, payloads AND timestamps) must be
    // bit-identical to the oracle's.
    let want = mono.cosim.trace_log().entries();
    let got: Vec<TraceEntry> = part
        .parts
        .iter()
        .flat_map(|&p| part.orch.partition(p).cosim().trace_log().entries())
        .collect();
    let sources: std::collections::BTreeSet<&str> =
        want.iter().map(|e| e.source.as_str()).collect();
    for src in &sources {
        let by = |entries: &[TraceEntry]| -> Vec<TraceEntry> {
            entries
                .iter()
                .filter(|e| &e.source == src)
                .cloned()
                .collect()
        };
        assert_eq!(
            by(&got),
            by(&want),
            "trace stream of {src} diverged under {spec:?} / {pspec:?}"
        );
    }
    assert_eq!(
        got.len(),
        want.len(),
        "partitioned run recorded extra trace sources"
    );
    part.orch.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn partitioned_matches_monolithic(
        units in 3usize..7,
        topo_sel in 0u8..4,
        link_sel in 0u8..3,
        ratio_sel in 0u8..4,
        parts in 2usize..4,
        values in 1usize..4,
        quantum_us in 1u64..9,
        latency_sel in 0u8..4,
        seed in any::<u64>(),
    ) {
        use cosma::comm::BusTiming;
        use cosma::cosim::scenario::{
            DomainsSpec, LinkKind, PartitionsSpec, ScenarioSpec, Topology,
        };
        use cosma::sim::Duration;

        let topology = match topo_sel {
            0 => Topology::Pipeline,
            1 => Topology::Star,
            2 => Topology::Ring,
            _ => Topology::RandomDag { seed },
        };
        let link = match link_sel {
            0 => LinkKind::Handshake,
            1 => LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::LengthOnly,
            },
            _ => LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::PayloadBeats,
            },
        };
        // Clock-domain layouts: uniform, a distinct same-rate domain
        // (multi-domain machinery without rate skew), half rate and
        // quarter rate.
        let domains = match ratio_sel {
            0 => DomainsSpec::default(),
            1 => DomainsSpec { ratio: (1, 1), slow_links: 1 },
            2 => DomainsSpec { ratio: (2, 1), slow_links: 1 },
            _ => DomainsSpec { ratio: (4, 1), slow_links: 1 },
        };
        let spec = ScenarioSpec {
            units,
            topology,
            link,
            values_per_link: values,
            trace: true,
            domains,
            ..ScenarioSpec::default()
        };
        // Boundary latencies (the lookahead window): windows that do
        // not divide the quantum, partial last windows, and a window
        // longer than the smaller quanta.
        let latency = match latency_sel {
            0 => Duration::from_ns(70),
            1 => Duration::from_ns(2_500),
            2 => Duration::from_ns(333),
            _ => Duration::from_ns(200),
        };
        let pspec = PartitionsSpec {
            count: parts,
            latency,
        };
        let stats = assert_partitioned_matches_collapsed(
            &spec,
            &pspec,
            Duration::from_us(600),
            Duration::from_us(quantum_us),
        );
        prop_assert!(stats.quanta_committed > 0, "stats: {stats:?}");
    }
}

/// A cyclic cut with a sync quantum 20× the boundary latency — a ring
/// cut across two partitions, so traffic crosses the cut both ways
/// many times within one quantum — is bit-identical to the collapsed
/// oracle, synced in exactly 20 lookahead windows per quantum and
/// without a single rollback.
#[test]
fn partitioned_cyclic_cut_long_quantum_matches_oracle() {
    use cosma::comm::BusTiming;
    use cosma::cosim::scenario::{LinkKind, PartitionsSpec, ScenarioSpec, Topology};
    use cosma::sim::Duration;

    let spec = ScenarioSpec {
        units: 5,
        topology: Topology::Ring,
        link: LinkKind::Batched {
            max_batch: 4,
            capacity: 16,
            timing: BusTiming::LengthOnly,
        },
        values_per_link: 4,
        trace: true,
        ..ScenarioSpec::default()
    };
    let pspec = PartitionsSpec {
        count: 2,
        latency: Duration::from_ns(200),
    };
    let stats = assert_partitioned_matches_collapsed(
        &spec,
        &pspec,
        Duration::from_us(400),
        Duration::from_us(4),
    );
    assert_eq!(stats.rollbacks, 0, "stats: {stats:?}");
    assert_eq!(
        stats.rescan_rounds,
        20 * stats.quanta_committed,
        "a 4 us quantum over a 200 ns lookahead is 20 windows: {stats:?}"
    );
    assert!(stats.boundary_messages > 0, "stats: {stats:?}");
}

/// Multi-rate pinning: with tracing on (traced modules never park, so
/// activations count their domain's clock edges exactly), a module in
/// a 1:4 slow domain records exactly a quarter of the activations its
/// uniform-clock twin records over the same wall-clock run.
#[test]
fn multi_rate_slow_domain_quarters_activations() {
    use cosma::cosim::scenario::{build_scenario, DomainsSpec, ScenarioSpec};
    use cosma::sim::Duration;

    // Enough traffic that no module reaches END (and parks) inside the
    // window, and a window whose edge counts divide exactly: 4000 base
    // edges, 1000 quarter-rate edges.
    let total = Duration::from_ns(399_900);
    let base = ScenarioSpec {
        units: 4,
        values_per_link: 100_000,
        trace: true,
        ..ScenarioSpec::default()
    };
    let slow_spec = ScenarioSpec {
        domains: DomainsSpec {
            ratio: (4, 1),
            slow_links: 1,
        },
        ..base
    };
    let mut uniform = build_scenario(&base).expect("uniform scenario builds");
    uniform.cosim.run_for(total).expect("uniform run");
    let mut slow = build_scenario(&slow_spec).expect("multi-rate scenario builds");
    slow.cosim.run_for(total).expect("multi-rate run");

    // Link 0 and both modules touching it (producer 0, stage 1) land
    // in the quarter-rate domain; module 2 onward stay in the base
    // domain.
    let uni_acts = |j: usize| uniform.cosim.module_status(uniform.modules[j]).activations;
    let slow_acts = |j: usize| slow.cosim.module_status(slow.modules[j]).activations;
    assert_eq!(
        slow_acts(2),
        uni_acts(2),
        "base-domain stage keeps the uniform activation count"
    );
    assert_eq!(
        slow_acts(1) * 4,
        uni_acts(1),
        "quarter-rate module must record exactly 1/4 the activations \
         ({} vs {})",
        slow_acts(1),
        uni_acts(1)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn kernel_equivalence_survives_run_slicing(
        mix in arb_kernel_mix(),
        chunks in proptest::collection::vec(1u64..120, 1..8),
    ) {
        use cosma::sim::reference::RefSimulator;
        use cosma::sim::{Duration, Simulator};

        let mut fast = Simulator::new();
        let fast_sigs;
        {
            let sim = std::cell::RefCell::new(&mut fast);
            fast_sigs = build_mix(
                &mix,
                |n, ty, v| sim.borrow_mut().add_signal(n, ty, v),
                |s, p| { sim.borrow_mut().add_clock("clk", s, p); },
                |p| { sim.borrow_mut().add_process("p", p); },
            );
        }
        let mut oracle = RefSimulator::new();
        let oracle_sigs;
        {
            let sim = std::cell::RefCell::new(&mut oracle);
            oracle_sigs = build_mix(
                &mix,
                |n, ty, v| sim.borrow_mut().add_signal(n, ty, v),
                |s, p| { sim.borrow_mut().add_clock(s, p); },
                |p| { sim.borrow_mut().add_process(p); },
            );
        }
        // The production kernel runs in arbitrary slices, the oracle in
        // one shot over the same total span.
        for &c in &chunks {
            fast.run_for(Duration::from_ns(c)).unwrap();
        }
        let total: u64 = chunks.iter().sum();
        oracle.run_for(Duration::from_ns(total)).unwrap();
        for (&f, &o) in fast_sigs.iter().zip(&oracle_sigs) {
            let fi = fast.signal_info(f);
            let oi = oracle.signal_info(o);
            prop_assert_eq!(&fi.value, &oi.value, "value of {}", fi.name);
            prop_assert_eq!(fi.event_count, oi.event_count, "event count of {}", fi.name);
        }
        prop_assert_eq!(fast.now(), oracle.now());
    }
}

// ---------------------------------------------------------------------
// Resolved comm-unit state checkpoints: FSM runtimes and batched links
// keep sessions and counters by service position. Random put/get call
// sequences — mixed spellings, unknown services, wrong arities — with
// a capture/restore into a fresh unit in the middle must match an
// uninterrupted run: every outcome (typed errors included), `stats()`
// and `capture_state()`.
// ---------------------------------------------------------------------

/// Service spellings the call sequences draw from: canonical, upper-
/// and mixed-case, and unknown.
const CALL_SPELLINGS: [&str; 6] = ["put", "PUT", "Put", "get", "GET", "bogus"];

/// One step of a checkpointed call sequence: a service call (caller,
/// spelling index, argument count) followed, optionally, by a
/// background step.
fn arb_unit_op() -> impl Strategy<Value = (u64, usize, usize, bool)> {
    (
        1u64..3,
        0usize..CALL_SPELLINGS.len(),
        0usize..3,
        any::<bool>(),
    )
}

/// A checkpointable unit flavour under the call-sequence property.
trait CheckpointedUnit: Sized {
    type State: Clone + PartialEq + std::fmt::Debug;
    fn fresh() -> Self;
    fn wires(&self) -> cosma::comm::LocalWires;
    fn call(
        &mut self,
        caller: CallerId,
        service: &str,
        args: &[Value],
        wires: &mut cosma::comm::LocalWires,
    ) -> Result<cosma::core::ServiceOutcome, cosma::core::EvalError>;
    fn background(&mut self, wires: &mut cosma::comm::LocalWires);
    fn capture(&self) -> Self::State;
    fn restore(&mut self, state: &Self::State);
    fn stats(&self) -> cosma::comm::UnitStats;
}

impl CheckpointedUnit for cosma::comm::FsmUnitRuntime {
    type State = cosma::comm::FsmUnitState;
    fn fresh() -> Self {
        Self::new(cosma::comm::handshake_unit("hs", Type::INT16))
    }
    fn wires(&self) -> cosma::comm::LocalWires {
        cosma::comm::LocalWires::new(self.spec())
    }
    fn call(
        &mut self,
        caller: CallerId,
        service: &str,
        args: &[Value],
        wires: &mut cosma::comm::LocalWires,
    ) -> Result<cosma::core::ServiceOutcome, cosma::core::EvalError> {
        Self::call(self, caller, service, args, wires)
    }
    fn background(&mut self, wires: &mut cosma::comm::LocalWires) {
        self.step_controller(wires).unwrap();
    }
    fn capture(&self) -> Self::State {
        self.capture_state()
    }
    fn restore(&mut self, state: &Self::State) {
        self.restore_state(state).unwrap();
    }
    fn stats(&self) -> cosma::comm::UnitStats {
        Self::stats(self)
    }
}

impl CheckpointedUnit for cosma::comm::BatchedLink {
    type State = cosma::comm::BatchedLinkState;
    fn fresh() -> Self {
        Self::new("bus", Type::INT16, 4, 8)
    }
    fn wires(&self) -> cosma::comm::LocalWires {
        cosma::comm::LocalWires::new(self.spec())
    }
    fn call(
        &mut self,
        caller: CallerId,
        service: &str,
        args: &[Value],
        wires: &mut cosma::comm::LocalWires,
    ) -> Result<cosma::core::ServiceOutcome, cosma::core::EvalError> {
        Self::call(self, caller, service, args, wires)
    }
    fn background(&mut self, wires: &mut cosma::comm::LocalWires) {
        self.pump(wires, false).unwrap();
    }
    fn capture(&self) -> Self::State {
        self.capture_state()
    }
    fn restore(&mut self, state: &Self::State) {
        self.restore_state(state).unwrap();
    }
    fn stats(&self) -> cosma::comm::UnitStats {
        Self::stats(self)
    }
}

/// Runs `ops` on a fresh unit, moving its captured state into another
/// fresh unit after `split` ops (`None`: uninterrupted). Returns every
/// call outcome (typed errors included), the final stats and the final
/// capture.
fn run_checkpointed<U: CheckpointedUnit>(
    ops: &[(u64, usize, usize, bool)],
    split: Option<usize>,
) -> (Vec<String>, cosma::comm::UnitStats, U::State) {
    let mut unit = U::fresh();
    let mut wires = unit.wires();
    let mut log = vec![];
    for (k, &(caller, spelling, arity, background)) in ops.iter().enumerate() {
        if split == Some(k) {
            let snap = unit.capture();
            unit = U::fresh();
            unit.restore(&snap);
        }
        let args: Vec<Value> = (0..arity).map(|i| Value::Int((k + i) as i64)).collect();
        let out = unit.call(
            CallerId(caller),
            CALL_SPELLINGS[spelling],
            &args,
            &mut wires,
        );
        log.push(format!("{out:?}"));
        if background {
            unit.background(&mut wires);
        }
    }
    (log, unit.stats(), unit.capture())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn fsm_unit_checkpoint_matches_uninterrupted_run(
        ops in proptest::collection::vec(arb_unit_op(), 1..120),
        split in 0usize..120,
    ) {
        type U = cosma::comm::FsmUnitRuntime;
        let whole = run_checkpointed::<U>(&ops, None);
        let cut = run_checkpointed::<U>(&ops, Some(split % ops.len()));
        prop_assert_eq!(&cut.0, &whole.0);
        prop_assert_eq!(&cut.1, &whole.1);
        prop_assert_eq!(&cut.2, &whole.2);
        prop_assert!(
            whole.1.services.keys().all(|k| k == "put" || k == "get"),
            "stats rows are canonical: {:?}", whole.1
        );
    }

    #[test]
    fn batched_link_checkpoint_matches_uninterrupted_run(
        ops in proptest::collection::vec(arb_unit_op(), 1..120),
        split in 0usize..120,
    ) {
        type U = cosma::comm::BatchedLink;
        let whole = run_checkpointed::<U>(&ops, None);
        let cut = run_checkpointed::<U>(&ops, Some(split % ops.len()));
        prop_assert_eq!(&cut.0, &whole.0);
        prop_assert_eq!(&cut.1, &whole.1);
        prop_assert_eq!(&cut.2, &whole.2);
    }
}
