//! The four workloads. Each episode elaborates a fresh system from the
//! workload's generated inputs, runs it in fixed simulated quanta,
//! reads the layer counters through public getters and checks the
//! outputs. Why each workload exists is in `README.md` beside this file.

use crate::measure::{Fnv, Tracer};
use cosma_board::{Board, BoardConfig};
use cosma_cosim::scenario::{
    build_collapsed, build_partitioned, build_scenario, LinkKind, PartitionsSpec, Scenario,
    ScenarioSpec, Topology,
};
use cosma_cosim::{BusTiming, Cosim, CosimConfig, CosimModuleId, SchedulingConfig};
use cosma_motor::{
    build_cosim, core_module, distribution_module, motor_link_unit, position_module, shared_motor,
    swhw_link_unit, timer_module, MotorConfig, MotorPeripheral,
};
use cosma_sim::{Duration as SimDuration, SimTime};
use cosma_synth::{compile_sw, flatten_module, synthesize_hw, Encoding, IoMap};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Layer counters of one episode. They must repeat exactly across
/// episodes of one seed (the determinism gate).
pub type Counts = BTreeMap<&'static str, u64>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PipelineWave,
    DagDense,
    SplitRing,
    MotorCosynth,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "pipeline_wave" => Workload::PipelineWave,
            "dag_dense" => Workload::DagDense,
            "split_ring" => Workload::SplitRing,
            "motor_cosynth" => Workload::MotorCosynth,
            _ => return None,
        })
    }
}

/// What an output check compares against an oracle run: digests of the
/// module statuses, the module variables and the trace stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub statuses: u64,
    pub vars: u64,
    pub trace: u64,
}

impl Fingerprint {
    /// Names the first part that differs from `oracle`.
    pub fn diff(&self, oracle: &Fingerprint) -> Option<&'static str> {
        if self.statuses != oracle.statuses {
            Some("module statuses")
        } else if self.vars != oracle.vars {
            Some("module variables")
        } else if self.trace != oracle.trace {
            Some("trace digest")
        } else {
            None
        }
    }
}

/// One fresh, measured pass of a workload.
#[derive(Debug, Default)]
pub struct Episode {
    /// Host time from elaboration through kernel initialization at t=0
    /// (plus co-synthesis and board assembly on `motor_cosynth`).
    pub setup: Duration,
    /// Host µs of each backplane or orchestrator call that advanced one
    /// sync quantum.
    pub quanta_us: Vec<f64>,
    /// Simulated µs advanced by the backplane or orchestrator.
    pub sim_us: f64,
    /// Host time inside the backplane or orchestrator run calls.
    pub run: Duration,
    /// Simulated µs and host time of the board run (`motor_cosynth`),
    /// and the host µs of each of its `run_for_ns` calls.
    pub board_sim_us: f64,
    pub board_run: Duration,
    pub board_chunks_us: Vec<f64>,
    pub counts: Counts,
    /// Why the episode failed: a program error or a failed output check.
    pub failure: Option<String>,
    /// Compared against the oracle after the timed episodes.
    pub fingerprint: Option<Fingerprint>,
    /// Modules captured by the traced snapshot call.
    pub snapshot_modules: Option<u64>,
}

/// The oracle's verdict for a workload whose check needs one, with the
/// host time of its run.
pub struct Oracle {
    pub fingerprint: Fingerprint,
    pub run: Duration,
}

/// Links of `pipeline_wave`, the most any generated backplane here has.
const LINKS: usize = 1024;

/// `pipeline_wave`: one 1024-link batched length-only chain, run in
/// 2 µs quanta until every value arrives (about 200 quanta, so that
/// `sync_p90_us` has ten or more samples beyond it).
const WAVE_QUANTUM: SimDuration = SimDuration::from_us(2);
const WAVE_BUDGET_US: u64 = 2_000;

/// `dag_dense`: 128 payload-beat links in random pipelines, traced,
/// streaming for a fixed window in single-cycle quanta. Larger backplanes
/// outgrow the per-core cache: each activation costs more and the rate
/// follows the load other tenants put on the shared cache, varying more
/// than four times as much from run to run at 256 links; see `README.md`.
const DAG_LINKS: usize = 128;
const DAG_QUANTUM: SimDuration = SimDuration::from_ns(100);
const DAG_QUANTA: usize = 400;
/// Values per producer (tokens for the ring): enough that nothing drains
/// in a window.
const STREAM_VALUES: usize = 30_000;

/// `split_ring`: a 64-link ring cut in two partitions.
const RING_LINKS: usize = 64;
const RING_QUANTUM: SimDuration = SimDuration::from_us(2);
const RING_QUANTA: usize = 500;
const RING_LATENCY: SimDuration = SimDuration::from_ns(200);

/// `motor_cosynth`: the case study scaled to 40 segments of 100 counts.
const MOTOR_QUANTUM: SimDuration = SimDuration::from_us(20);
const MOTOR_BUDGET_QUANTA: usize = 1_000;
const BOARD_CHUNK_NS: u64 = 100_000;
const BOARD_BUDGET_CHUNKS: usize = 1_000;
const MOTOR_LABELS: [&str; 4] = ["send_pos", "motor_state", "pulse", "done"];

pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
}

impl Bench {
    fn spec(&self, scheduling: SchedulingConfig) -> ScenarioSpec {
        let batched = |timing| LinkKind::Batched {
            max_batch: 8,
            capacity: 32,
            timing,
        };
        let base = ScenarioSpec {
            scheduling,
            ..ScenarioSpec::default()
        };
        match self.workload {
            Workload::PipelineWave => ScenarioSpec {
                units: LINKS,
                topology: Topology::Pipeline,
                values_per_link: 4,
                link: batched(BusTiming::LengthOnly),
                trace: false,
                ..base
            },
            Workload::DagDense => ScenarioSpec {
                units: DAG_LINKS,
                topology: Topology::RandomDag { seed: self.seed },
                values_per_link: STREAM_VALUES,
                link: batched(BusTiming::PayloadBeats),
                trace: true,
                ..base
            },
            Workload::SplitRing => ScenarioSpec {
                units: RING_LINKS,
                topology: Topology::Ring,
                values_per_link: STREAM_VALUES,
                link: batched(BusTiming::LengthOnly),
                trace: false,
                ..base
            },
            Workload::MotorCosynth => {
                unreachable!("the motor workload is not a generated scenario")
            }
        }
    }

    fn partitions() -> PartitionsSpec {
        PartitionsSpec {
            count: 2,
            latency: RING_LATENCY,
        }
    }

    /// Runs one episode; errors from the program fail the episode.
    pub fn episode(&self, tr: &mut Tracer) -> Episode {
        let mut ep = Episode::default();
        let result = match self.workload {
            Workload::PipelineWave => self.pipeline_wave(tr, &mut ep),
            Workload::DagDense => self
                .dag_dense(tr, &mut ep, SchedulingConfig::default())
                .map(|_| ()),
            Workload::SplitRing => self.split_ring(tr, &mut ep),
            Workload::MotorCosynth => motor_cosynth(tr, &mut ep),
        };
        ep.failure = result.err();
        ep
    }

    /// Runs the reference the timed episodes are checked against, after
    /// them, so that it is neither timed nor in the peak RSS.
    pub fn oracle(&self, tr: &mut Tracer) -> Result<Option<Oracle>, String> {
        match self.workload {
            Workload::DagDense => {
                let mut ep = Episode::default();
                let fp = self.dag_dense(tr, &mut ep, SchedulingConfig::legacy())?;
                Ok(Some(Oracle {
                    fingerprint: fp,
                    run: ep.run,
                }))
            }
            Workload::SplitRing => {
                let mut s = tr
                    .span("oracle.build_collapsed", || {
                        build_collapsed(
                            &self.spec(SchedulingConfig::default()),
                            &Self::partitions(),
                        )
                    })
                    .map_err(err)?;
                let start = Instant::now();
                for _ in 0..RING_QUANTA {
                    tr.span("oracle.run_for", || s.cosim.run_for(RING_QUANTUM))
                        .map_err(err)?;
                }
                let run = start.elapsed();
                let fp = Fingerprint {
                    statuses: statuses_digest(s.modules.iter().map(|&m| s.cosim.module_status(m))),
                    vars: vars_digest(s.modules.len(), &RING_VARS, |j, v| {
                        s.cosim.module_var(s.modules[j], v)
                    }),
                    trace: 0,
                };
                Ok(Some(Oracle {
                    fingerprint: fp,
                    run,
                }))
            }
            Workload::PipelineWave | Workload::MotorCosynth => Ok(None),
        }
    }

    fn pipeline_wave(&self, tr: &mut Tracer, ep: &mut Episode) -> Result<(), String> {
        let start = Instant::now();
        let mut s = tr
            .span("build_scenario", || {
                build_scenario(&self.spec(SchedulingConfig::default()))
            })
            .map_err(err)?;
        init(tr, &mut s.cosim)?;
        ep.setup = start.elapsed();
        let budget = WAVE_BUDGET_US / (WAVE_QUANTUM.as_ns() / 1_000);
        for _ in 0..budget {
            run_quantum(tr, ep, &mut s.cosim, WAVE_QUANTUM)?;
            if s.is_complete() {
                break;
            }
        }
        ep.sim_us = sim_us(s.cosim.sim().now());
        s.verify()?;
        let log = tr.span("trace_log", || s.cosim.trace_log());
        ep.counts.insert("cosim.trace.entries", log.len() as u64);
        cosim_counts(&s.cosim, &s.modules, &link_names(&s.cosim), &mut ep.counts);
        snapshot_roundtrip(tr, ep, &mut s.cosim)
    }

    /// Shared by the timed episodes (default scheduling) and the legacy
    /// oracle; returns the output fingerprint.
    fn dag_dense(
        &self,
        tr: &mut Tracer,
        ep: &mut Episode,
        scheduling: SchedulingConfig,
    ) -> Result<Fingerprint, String> {
        let start = Instant::now();
        let mut s = tr
            .span("build_scenario", || build_scenario(&self.spec(scheduling)))
            .map_err(err)?;
        let spill = Rc::new(RefCell::new(Fnv::default()));
        s.cosim
            .trace_handle()
            .borrow_mut()
            .set_spill(Box::new(SpillDigest(Rc::clone(&spill))));
        init(tr, &mut s.cosim)?;
        ep.setup = start.elapsed();
        for _ in 0..DAG_QUANTA {
            run_quantum(tr, ep, &mut s.cosim, DAG_QUANTUM)?;
        }
        ep.sim_us = sim_us(s.cosim.sim().now());
        if s.modules
            .iter()
            .any(|&m| s.cosim.module_status(m).state == "END")
        {
            return Err("a dag_dense pipeline drained inside its window; it must stream".into());
        }
        let fp = dag_fingerprint(tr, ep, &s, &spill);
        ep.fingerprint = Some(fp);
        snapshot_roundtrip(tr, ep, &mut s.cosim)?;
        Ok(fp)
    }

    fn split_ring(&self, tr: &mut Tracer, ep: &mut Episode) -> Result<(), String> {
        let start = Instant::now();
        let mut s = tr
            .span("build_partitioned", || {
                build_partitioned(&self.spec(SchedulingConfig::default()), &Self::partitions())
            })
            .map_err(err)?;
        for &p in &s.parts {
            init(tr, s.orch.partition_mut(p).cosim_mut())?;
        }
        ep.setup = start.elapsed();
        for _ in 0..RING_QUANTA {
            let t = Instant::now();
            tr.span("orchestrator.run_for", || {
                s.run_for(RING_QUANTUM, RING_QUANTUM)
            })
            .map_err(err)?;
            record_quantum(ep, t.elapsed());
        }
        ep.sim_us = sim_us(s.orch.now());
        let n = s.modules.len();
        ep.fingerprint = Some(Fingerprint {
            statuses: statuses_digest((0..n).map(|j| s.module_status(j))),
            vars: vars_digest(n, &RING_VARS, |j, v| s.module_var(j, v)),
            trace: 0,
        });
        let stats = s.orch.stats();
        let c = &mut ep.counts;
        c.insert("cosim.partition.quanta_committed", stats.quanta_committed);
        c.insert("cosim.partition.rollbacks", stats.rollbacks);
        c.insert("cosim.partition.rescan_rounds", stats.rescan_rounds);
        c.insert("cosim.partition.boundary_messages", stats.boundary_messages);
        let mut entries = 0;
        for (i, &p) in s.parts.iter().enumerate() {
            let cosim = s.orch.partition(p).cosim();
            let mine: Vec<CosimModuleId> = s
                .modules
                .iter()
                .filter(|(q, _)| *q == p)
                .map(|&(_, m)| m)
                .collect();
            cosim_counts(cosim, &mine, &link_names(cosim), &mut ep.counts);
            entries += tr.span("trace_log", || cosim.trace_log()).len() as u64;
            if i == 0 {
                // The traced snapshot round trip measures one partition.
                let part = s.orch.partition_mut(p).cosim_mut();
                snapshot_roundtrip(tr, ep, part)?;
            }
        }
        ep.counts.insert("cosim.trace.entries", entries);
        Ok(())
    }
}

fn motor_cosynth(tr: &mut Tracer, ep: &mut Episode) -> Result<(), String> {
    let cfg = MotorConfig {
        segments: 40,
        segment_len: 100,
        ..MotorConfig::default()
    };

    // 1. Co-simulation.
    let start = Instant::now();
    let mut cs = tr
        .span("build_cosim", || build_cosim(&cfg, CosimConfig::default()))
        .map_err(err)?;
    init(tr, &mut cs.cosim)?;
    ep.setup = start.elapsed();
    let mut cosim_done = false;
    for _ in 0..MOTOR_BUDGET_QUANTA {
        run_quantum(tr, ep, &mut cs.cosim, MOTOR_QUANTUM)?;
        cosim_done = cs.cosim.module_status(cs.distribution).state == "Done";
        if cosim_done || !cs.cosim.pending_activity() {
            break;
        }
    }
    ep.sim_us = sim_us(cs.cosim.sim().now());

    // 2. Co-synthesis of the same description, and board assembly.
    let start = Instant::now();
    let mut units = HashMap::new();
    units.insert("swhw".to_string(), swhw_link_unit());
    units.insert("mlink".to_string(), motor_link_unit());
    let dist = tr
        .span("flatten_module", || {
            flatten_module(&distribution_module(&cfg), &units)
        })
        .map_err(err)?;
    let io = IoMap::for_module(0x300, &dist);
    let program = tr
        .span("compile_sw", || compile_sw(&dist, &io))
        .map_err(err)?;
    let done_state = dist
        .fsm()
        .find_state("Done")
        .ok_or("distribution has no Done state")?
        .raw() as u16;
    let mut netlists = vec![];
    let mut clbs = 0;
    for module in [position_module(&cfg), core_module(), timer_module(&cfg)] {
        let flat = tr
            .span("flatten_module", || flatten_module(&module, &units))
            .map_err(err)?;
        let (nl, report) = tr
            .span("synthesize_hw", || synthesize_hw(&flat, Encoding::Binary))
            .map_err(err)?;
        clbs += report.tech.clbs;
        netlists.push(nl);
    }
    let motor = shared_motor(cfg.motor_speed);
    let (mut board, cpu) = tr.span("board.assemble", || {
        let mut board = Board::new(BoardConfig::default());
        let cpu = board.add_cpu("distribution", &program).map_err(err)?;
        for nl in &netlists {
            board.place_netlist(nl);
        }
        board.attach(Box::new(MotorPeripheral::new(motor.clone(), "mlink")));
        Ok::<_, String>((board, cpu))
    })?;
    ep.setup += start.elapsed();

    // 3. The synthesized system on the board.
    let mut board_done = false;
    for _ in 0..BOARD_BUDGET_CHUNKS {
        let t = Instant::now();
        tr.span("board.run_for_ns", || board.run_for_ns(BOARD_CHUNK_NS))
            .map_err(err)?;
        let d = t.elapsed();
        ep.board_run += d;
        ep.board_chunks_us.push(d.as_secs_f64() * 1e6);
        board_done = board.cpu_mem(cpu, program.state_addr) == done_state;
        if board_done || !board.pending_activity() {
            break;
        }
    }
    ep.board_sim_us = board.now_fs() as f64 / 1e9;

    // 4. Coherence: both flows finish the trajectory with the same
    // event streams, label by label.
    let cosim_log = tr.span("trace_log", || cs.cosim.trace_log());
    let board_log = tr.span("board.trace_log", || board.trace_log());
    let check = (|| {
        if !cosim_done {
            return Err("co-simulation did not reach Done".to_string());
        }
        if !board_done {
            return Err("board did not reach Done".to_string());
        }
        let want = cfg.total_distance();
        let (a, b) = (cs.motor.borrow().position(), motor.borrow().position());
        if a != want || b != want {
            return Err(format!("motor at {a} (cosim) and {b} (board), want {want}"));
        }
        for label in MOTOR_LABELS {
            let cmp = cosim_log
                .filtered(|e| e.label == label)
                .compare(&board_log.filtered(|e| e.label == label));
            if !cmp.is_match() {
                return Err(format!("label {label} diverges: {cmp}"));
            }
        }
        Ok(())
    })();

    let c = &mut ep.counts;
    c.insert("cosim.trace.entries", cosim_log.len() as u64);
    c.insert("synth.clbs", clbs);
    c.insert("board.cpu_cycles", board.cpu_cycles(cpu));
    c.insert("board.fabric_ticks", board.fabric_ticks());
    let bus = board.bus_stats(cpu);
    c.insert("board.bus_reads", bus.reads);
    c.insert("board.bus_writes", bus.writes);
    let modules = [cs.distribution, cs.position, cs.core, cs.timer];
    cosim_counts(&cs.cosim, &modules, &link_names(&cs.cosim), &mut ep.counts);
    check?;
    snapshot_roundtrip(tr, ep, &mut cs.cosim)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn sim_us(t: SimTime) -> f64 {
    t.as_ns() as f64 / 1e3
}

/// Kernel initialization at t=0: elaboration runs every process once.
fn init(tr: &mut Tracer, cosim: &mut Cosim) -> Result<(), String> {
    tr.span("run_until", || cosim.run_until(SimTime::ZERO))
        .map_err(err)
}

fn run_quantum(
    tr: &mut Tracer,
    ep: &mut Episode,
    cosim: &mut Cosim,
    q: SimDuration,
) -> Result<(), String> {
    let t = Instant::now();
    tr.span("run_for", || cosim.run_for(q)).map_err(err)?;
    record_quantum(ep, t.elapsed());
    Ok(())
}

fn record_quantum(ep: &mut Episode, d: Duration) {
    ep.run += d;
    ep.quanta_us.push(d.as_secs_f64() * 1e6);
}

/// The names of the units this backplane has: generated links
/// (`link{i}`; a partitioned build gives both boundary halves the link's
/// name, a collapsed build names them `link{i}.bo` and `link{i}.bi`) or
/// the motor's two units.
fn link_names(cosim: &Cosim) -> Vec<String> {
    let generated =
        (0..LINKS).flat_map(|i| ["", ".bo", ".bi"].map(|half| format!("link{i}{half}")));
    let fixed = ["swhw", "mlink"].into_iter().map(str::to_string);
    generated
        .chain(fixed)
        .filter(|n| cosim.unit(n).is_some())
        .collect()
}

/// Adds one backplane's kernel, scheduler, FSM and comm counters.
fn cosim_counts(cosim: &Cosim, modules: &[CosimModuleId], units: &[String], c: &mut Counts) {
    let mut add = |k: &'static str, v: u64| *c.entry(k).or_insert(0) += v;
    add("comm.units", units.len() as u64);
    let sim = cosim.sim().stats();
    add("sim.events", sim.events);
    add("sim.process_runs", sim.process_runs);
    add("sim.deltas", sim.deltas);
    add("sim.event_wakeups", sim.event_wakeups);
    add("sim.timer_wakeups", sim.timer_wakeups);
    add("sim.bulk_entries", sim.bulk_entries);
    add("sim.wheel_cascades", sim.wheel_cascades);
    let sh = cosim.shard_stats();
    add("cosim.sched.modules_stepped", sh.modules_stepped);
    add("cosim.sched.units_stepped", sh.units_stepped);
    add("cosim.sched.units_skipped", sh.units_skipped);
    add("cosim.sched.watch_probes", sh.watch_probes);
    add("cosim.sched.wire_wakeups", sh.wire_wakeups);
    add("cosim.sched.members_parked", sh.members_parked);
    add("cosim.sched.members_resumed", sh.members_resumed);
    add("cosim.sched.commit_calls", sh.commit_calls);
    for &m in modules {
        add("core.exec.activations", cosim.module_status(m).activations);
    }
    for name in units {
        let Some(u) = cosim.unit_stats(name) else {
            continue;
        };
        add("comm.batches", u.batches);
        add("comm.batched_values", u.batched_values);
        add("comm.payload_beats", u.payload_beats);
        add("comm.controller_steps", u.controller_steps);
        add("comm.controller_skips", u.controller_skips);
        add(
            "comm.service_calls",
            u.services.values().map(|s| s.calls).sum(),
        );
        add(
            "comm.service_completions",
            u.services.values().map(|s| s.completions).sum(),
        );
    }
}

/// In a traced episode, times a snapshot of the finished backplane and
/// its restore onto the same backplane (after every check has run).
fn snapshot_roundtrip(tr: &mut Tracer, ep: &mut Episode, cosim: &mut Cosim) -> Result<(), String> {
    if !tr.is_on() {
        return Ok(());
    }
    let snap = tr.span("snapshot", || cosim.snapshot());
    ep.snapshot_modules = Some(snap.module_count() as u64);
    tr.span("restore", || cosim.restore(&snap)).map_err(err)
}

fn statuses_digest(statuses: impl Iterator<Item = cosma_cosim::ModuleStatus>) -> u64 {
    let mut h = Fnv::default();
    for s in statuses {
        let _ = write!(h, "{}|{}|{:?};", s.state, s.activations, s.error);
    }
    h.hash
}

/// Every variable the generated ring modules declare.
const RING_VARS: [&str; 5] = ["D", "I", "V", "CNT", "SUM"];

/// Digest of the named variables of `n` modules, in module order.
fn vars_digest(
    n: usize,
    names: &[&str],
    var: impl Fn(usize, &str) -> Option<cosma_core::Value>,
) -> u64 {
    let mut h = Fnv::default();
    for j in 0..n {
        for v in names {
            let _ = write!(h, "{:?};", var(j, v));
        }
    }
    h.hash
}

/// Statuses, SUMs and the trace digest (spilled bytes, then the
/// resident tail) of a `dag_dense` run.
fn dag_fingerprint(
    tr: &mut Tracer,
    ep: &mut Episode,
    s: &Scenario,
    spill: &Rc<RefCell<Fnv>>,
) -> Fingerprint {
    let log = tr.span("trace_log", || s.cosim.trace_log());
    let spilled = *spill.borrow();
    let mut h = spilled;
    for e in log.iter() {
        let _ = write!(h, "{}|{}|{}|{:?};", e.at, e.source, e.label, e.values);
    }
    let c = &mut ep.counts;
    c.insert("cosim.trace.entries", log.len() as u64 + log.spilled());
    c.insert("cosim.trace.spilled", log.spilled());
    c.insert("cosim.trace.spill_bytes", spilled.bytes);
    cosim_counts(&s.cosim, &s.modules, &link_names(&s.cosim), &mut ep.counts);
    Fingerprint {
        statuses: statuses_digest(s.modules.iter().map(|&m| s.cosim.module_status(m))),
        vars: vars_digest(s.modules.len(), &["SUM"], |j, v| {
            s.cosim.module_var(s.modules[j], v)
        }),
        trace: h.hash,
    }
}

/// The trace spill sink the benchmark owns: digests and counts the
/// spilled byte stream instead of storing it.
struct SpillDigest(Rc<RefCell<Fnv>>);

impl std::io::Write for SpillDigest {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().feed(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
