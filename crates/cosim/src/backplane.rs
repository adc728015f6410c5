//! The co-simulation backplane: modules, communication units and clocks
//! assembled over the discrete-event kernel.
//!
//! * Hardware modules activate on each rising edge of the HW clock;
//!   software modules on each rising edge of the SW activation clock.
//!   Every activation executes exactly one FSM transition — the paper's
//!   synchronization rule.
//! * FSM communication units live on kernel signals (one per wire).
//!   Service calls from modules step the caller's protocol session
//!   against those signals — the runtime equivalent of linking the SW
//!   *simulation* view (Fig. 3b).
//! * All stepping — module activations, unit controller steps, native
//!   steps, batched-link pumping — is owned by one *activation
//!   scheduler* ([`SchedulingConfig`]). The production path
//!   ([`SchedulingConfig::sharded`]) has two halves:
//!   - units are grouped into *shards* placed by hashed id, each shard
//!     one kernel process whose members carry per-member activation
//!     state;
//!   - modules belong to one *driver* process, which steps the cycle's
//!     set of clocked modules directly, in module-id order, with
//!     service calls applied to the units the moment they execute.
//!     Its module shards (also placed by hashed id) only split active
//!     from parked members for accounting.
//!
//!   A member that proves itself stable is **parked** — removed from
//!   its shard's active set and re-armed only by events on its *watch
//!   wires*. Its process arms one-shot kernel wake subscriptions
//!   ([`ProcCtx::wake_on`]) on those wires, tagged with the member, so
//!   a wire event wakes the process and names the member to re-arm:
//!   nothing rescans parked members or rebuilds a sensitivity list. A
//!   unit shard whose members are all parked goes dormant (drops its
//!   clock sensitivity entirely), so idle regions of the backplane
//!   cost nothing per clock edge.
//! * A module whose FSM is blocked on a pending service call parks on
//!   the bound unit's **completion wires** (the read-set of the blocked
//!   protocol): a consumer blocked on `get` against an empty link costs
//!   zero activations until the producer's `put` lands.
//! * The reference oracle ([`SchedulingConfig::legacy`]) runs one kernel
//!   process per unit ([`UnitScheduling::PerUnit`]) and per module
//!   ([`ModuleScheduling::PerModule`]), stepped on every clock edge
//!   with parking disabled ([`SchedulingConfig::park_blocked`]). The
//!   two halves can be mixed freely; every combination produces the
//!   same traces, statuses and activation counts.
//! * Batched bus links ([`Cosim::add_batched_unit`]) coalesce per-value
//!   transfers into one wire handshake per (adaptively sized) batch.

use crate::trace::{TraceLog, TraceName};
use cosma_comm::{
    BatchedLink, BatchedLinkState, BusTiming, CallerId, FsmUnitRuntime, FsmUnitState, NativeUnit,
    NativeUnitState, UnitStats, WireStore,
};
use cosma_core::comm::CommUnitSpec;
use cosma_core::ids::{BindingId, PortId, VarId};
use cosma_core::{
    Env, EvalError, FsmExec, Module, ModuleKind, ReadEnv, ServiceCall, ServiceOutcome, Type, Value,
};
use cosma_sim::{
    ClockControl, ClockRatio, Duration, Edge, FnProcess, ProcCtx, SignalId, SimError, SimState,
    SimTime, Simulator, Wait,
};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Caller identity used by boundary exporter/injector processes when
/// calling `get`/`put` on their half-link. Distinct from any module's
/// caller id (modules use small indices) so per-caller link accounting
/// never conflates a boundary with a real module.
pub(crate) const BOUNDARY_CALLER: CallerId = CallerId(u64::MAX);

/// How communication-unit bookkeeping (controller steps, native steps,
/// batched-link pumping) is scheduled on the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitScheduling {
    /// One clocked kernel process per unit, activated on every HW clock
    /// edge. The pre-sharding path, kept as an ablation baseline — per
    /// edge it costs one process wakeup per unit even when every unit is
    /// provably idle.
    PerUnit,
    /// Units grouped into shards by **hashed id** (so creation-order
    /// runs of hot units do not pile into one shard); each shard is one
    /// kernel process with an active/parked member split. Provably
    /// stable members are parked out of the active set and re-armed
    /// by a kernel wake subscription when one of their wires events,
    /// so idle units cost nothing per clock edge — even inside a shard
    /// kept awake by a hot member.
    Sharded {
        /// Target units per shard (shards are opened so the *average*
        /// fill is `shard_size`; hashed placement makes individual
        /// shards vary around it).
        shard_size: usize,
    },
}

impl Default for UnitScheduling {
    fn default() -> Self {
        UnitScheduling::Sharded {
            shard_size: DEFAULT_SHARD_SIZE,
        }
    }
}

/// How module activations are scheduled on the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleScheduling {
    /// One kernel process per module, activated on every rising edge of
    /// its kind's activation clock. The reference path of
    /// [`SchedulingConfig::legacy`]. (Parking still applies unless
    /// disabled: a blocked module's process swaps its clock sensitivity
    /// for its watch wires.)
    PerModule,
    /// One *driver* kernel process steps every module whose clock rose,
    /// in module-id order — the per-module path's order, so service
    /// calls apply immediately with identical results. Modules are
    /// spread over shards by **hashed id** (like unit placement). A
    /// parked member is re-armed by the driver's own wake
    /// subscriptions on its watch wires, so parked members cost
    /// nothing per clock edge.
    Sharded {
        /// Target modules per shard (shards are opened so the
        /// *average* fill is `shard_size`).
        shard_size: usize,
    },
}

impl Default for ModuleScheduling {
    fn default() -> Self {
        ModuleScheduling::Sharded {
            shard_size: DEFAULT_SHARD_SIZE,
        }
    }
}

/// The activation scheduler's configuration: how units and modules are
/// dispatched, and whether provably-stable FSMs are parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulingConfig {
    /// Unit dispatch (controller steps, native steps, batched pumping).
    pub units: UnitScheduling,
    /// Module dispatch (FSM activations).
    pub modules: ModuleScheduling,
    /// Whether to park provably-stable FSMs (default `true`). A module
    /// activation that changed nothing — same state, no effective
    /// variable writes or port drives, every service call pending *and*
    /// a provable no-op on the unit side — would repeat identically
    /// every cycle; with parking on, the module instead sleeps until an
    /// event on its ports or on the blocked services' completion wires.
    ///
    /// Parking is invisible to signal traces, trace logs, final states
    /// and `ModuleStatus.activations` *across scheduler paths* (sharded
    /// and per-module park identically). It does suppress the no-op
    /// activations themselves, so activation counts differ from a
    /// `park_blocked: false` run while a module is blocked.
    pub park_blocked: bool,
}

impl Default for SchedulingConfig {
    fn default() -> Self {
        SchedulingConfig::sharded()
    }
}

impl SchedulingConfig {
    /// The default (production) configuration: sharded units, the
    /// module driver with hashed shard placement, parking enabled.
    #[must_use]
    pub fn sharded() -> Self {
        SchedulingConfig {
            units: UnitScheduling::default(),
            modules: ModuleScheduling::default(),
            park_blocked: true,
        }
    }

    /// The reference oracle: one process per unit and per module,
    /// stepped on every clock edge, no parking — the most literal form
    /// of the paper's one-transition-per-activation rule.
    #[must_use]
    pub fn legacy() -> Self {
        SchedulingConfig {
            units: UnitScheduling::PerUnit,
            modules: ModuleScheduling::PerModule,
            park_blocked: false,
        }
    }

    /// Setup-time validation of the configuration's internal
    /// consistency.
    fn validate(&self) -> Result<(), CosimError> {
        if matches!(self.units, UnitScheduling::Sharded { shard_size: 0 })
            || matches!(self.modules, ModuleScheduling::Sharded { shard_size: 0 })
        {
            return Err(CosimError::Setup("shard size must be nonzero".to_string()));
        }
        Ok(())
    }
}

/// Default members per shard.
pub const DEFAULT_SHARD_SIZE: usize = 16;

/// Aggregate statistics of the activation scheduler.
///
/// Shard counters are zero under the per-unit/per-module paths; the
/// park/resume counters cover *both* paths (per-module processes park
/// too, by swapping their clock sensitivity for their watch wires).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards (unit shards + module shards).
    pub shards: usize,
    /// Shards currently dormant (no active member, no clock
    /// sensitivity).
    pub dormant_shards: usize,
    /// Total activations of the unit-shard processes and the module
    /// driver: clock edges their members step on, plus runs woken only
    /// by a fired wake subscription.
    pub shard_runs: u64,
    /// Unit-member step executions (controller steps, native steps,
    /// pumps).
    pub units_stepped: u64,
    /// Member steps avoided at a clock edge because the member was
    /// parked.
    pub units_skipped: u64,
    /// Wakeups of a dormant shard (no active member) that re-armed at
    /// least one parked member on a watch-wire event.
    pub wire_wakeups: u64,
    /// Fired wake subscriptions the unit shards examined: one per
    /// `(wire, member)` wake delivered to a shard process, whether or
    /// not the member was still parked. Parked members are never
    /// rescanned, so this is the whole cost of finding whom to re-arm.
    pub watch_probes: u64,
    /// Module activations executed through the scheduler (both paths).
    pub modules_stepped: u64,
    /// Park transitions: members (modules or units) removed from their
    /// scheduler's active set after proving themselves stable.
    pub members_parked: u64,
    /// Resume transitions: parked members re-armed by a watch-wire
    /// event.
    pub members_resumed: u64,
    /// Members currently parked (across shards and per-module
    /// processes).
    pub parked_now: usize,
    /// Always zero: service calls apply the moment a module executes
    /// them, so no call is ever deferred to a commit phase. Kept so
    /// existing readers of the field keep compiling.
    pub commit_calls: u64,
}

/// Park/resume accounting shared by every scheduler path.
#[derive(Debug, Default)]
struct ParkCounters {
    parked: Cell<u64>,
    resumed: Cell<u64>,
    parked_now: Cell<usize>,
    modules_stepped: Cell<u64>,
}

/// Clock-edge demand: how many clocked bodies (module activations, unit
/// controllers, native steps) currently need clock edges. Parked and
/// halted bodies count zero, so a *fully parked* backplane stops its
/// activation clock generators entirely — simulated time stops
/// advancing and [`Cosim::run_to_quiescence`] can return early on
/// deadlocked or finished systems. A parked body that is re-armed by a
/// wire event bumps the demand back up and *kicks* the generators awake
/// through the `CLK_KICK` signal.
#[derive(Debug)]
struct ClockDemand {
    demand: Cell<i64>,
    kick: SignalId,
}

impl ClockDemand {
    /// A new unparked clocked body exists. If the generators had gone
    /// idle (everything previously registered is parked or halted —
    /// possible when bodies are added after a run reached quiescence),
    /// kick them awake so the new body actually sees clock edges.
    fn register(&self, sim: &mut Simulator) {
        if self.demand.get() <= 0 {
            let next = match sim.value(self.kick) {
                Value::Bit(cosma_core::Bit::One) => cosma_core::Bit::Zero,
                _ => cosma_core::Bit::One,
            };
            sim.poke(self.kick, Value::Bit(next));
        }
        self.demand.set(self.demand.get() + 1);
    }

    /// `n` bodies parked (or halted): they need no clock edges until
    /// re-armed.
    fn park(&self, n: usize) {
        self.demand.set(self.demand.get() - n as i64);
    }

    /// `n` parked bodies were re-armed; restart the clock generators if
    /// they had gone idle. The kick is an ordinary signal toggle:
    /// generators parked on it wake through the sensitivity index.
    fn resume(&self, n: usize, ctx: &mut ProcCtx<'_>) {
        if n == 0 {
            return;
        }
        if self.demand.get() <= 0 {
            let next = match ctx.read(self.kick) {
                Value::Bit(cosma_core::Bit::One) => cosma_core::Bit::Zero,
                _ => cosma_core::Bit::One,
            };
            ctx.drive(self.kick, Value::Bit(next));
        }
        self.demand.set(self.demand.get() + n as i64);
    }
}

/// Clocking configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CosimConfig {
    /// Hardware cycle (default 100 ns — the paper's 10 MHz bus clock).
    pub hw_cycle: Duration,
    /// Software activation period (default equal to the hardware cycle,
    /// giving the paper's precise HW/SW synchronization).
    pub sw_cycle: Duration,
}

impl Default for CosimConfig {
    fn default() -> Self {
        let c = Duration::from_freq_hz(10_000_000);
        CosimConfig {
            hw_cycle: c,
            sw_cycle: c,
        }
    }
}

/// Identifies a clock domain of a backplane.
///
/// Every backplane starts with one *base* domain ([`DomainId::BASE`])
/// running at the configured [`CosimConfig`] rates; further domains are
/// created with [`Cosim::add_clock_domain`] at a rational period ratio
/// versus the base. Units and modules are placed into a domain with the
/// `*_in` constructors ([`Cosim::add_fsm_unit_in`],
/// [`Cosim::add_module_in`], ...); the domain decides which activation
/// clock pair drives them and which clock-demand ledger accounts for
/// their parking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainId(usize);

impl DomainId {
    /// The base clock domain every backplane is created with.
    pub const BASE: DomainId = DomainId(0);

    /// Index of this domain in the backplane's domain table.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

/// The message channel shared by the two halves of a boundary link
/// (partitioned co-simulation, [`crate::partition`]). The *out* half's
/// exporter appends latency-stamped `(arrival_time, value)` entries;
/// the *in* half's injector consumes the prefix whose arrival time has
/// been reached, tracked by `cursor`. Entries are appended in
/// nondecreasing arrival order (one exporter, constant latency), so the
/// injector never reorders. The orchestrator checks each window's new
/// entries for causality and drops the consumed prefix per quantum.
#[derive(Debug, Default)]
pub(crate) struct BoundaryQueue {
    /// Latency-stamped messages: `(arrival_time, value)`.
    pub(crate) entries: Vec<(SimTime, Value)>,
    /// Index of the first entry the injector has not yet delivered.
    pub(crate) cursor: usize,
}

/// One clock domain: its activation clock pair, its period ratio versus
/// the base domain, and its clock-demand ledger. All domains share the
/// global femtosecond time axis — a 4:1 domain's members simply see a
/// rising edge every fourth base period.
struct ClockDomainEntry {
    name: String,
    ratio: ClockRatio,
    hw_clk: SignalId,
    sw_clk: SignalId,
    demand: Rc<ClockDemand>,
}

/// Identifies a communication-unit instance in the backplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnitId(usize);

/// Identifies a module instance in the backplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CosimModuleId(usize);

/// Live status of a module, readable while the simulation runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModuleStatus {
    /// Current FSM state name. When the module halted on an evaluation
    /// error this is the state whose actions/guards errored.
    pub state: String,
    /// Activations performed.
    pub activations: u64,
    /// The evaluation error that halted this module, if any. Also
    /// surfaced globally through [`Cosim::run_for`]'s error result.
    pub error: Option<String>,
}

struct FsmUnitEntry {
    name: String,
    runtime: FsmUnitRuntime,
    wires: Vec<SignalId>,
    /// Completion wires by service position (the blocked protocol's
    /// read-set, mapped onto kernel signals): the wires whose events
    /// can unblock a pending caller, precomputed at registration.
    completion: Vec<Vec<SignalId>>,
}

struct BatchedUnitEntry {
    name: String,
    link: BatchedLink,
    wires: Vec<SignalId>,
    /// One HW clock cycle — the scheduling unit for the link's
    /// pre-scheduled payload bursts ([`WireStore::write_wire_after`]).
    cycle: Duration,
    /// Completion wires by service position (see
    /// [`FsmUnitEntry::completion`]).
    completion: Vec<Vec<SignalId>>,
}

struct NativeEntry {
    name: String,
    unit: Box<dyn NativeUnit>,
    /// Kernel mirror of the unit's queue occupancy
    /// ([`NativeUnit::occupancy`]), if the unit exposes one. Driven
    /// after every call and step, it makes native state changes
    /// wire-visible so blocked callers can *park* instead of polling.
    occ: Option<SignalId>,
    /// The occupancy value most recently *driven* onto the `OCC`
    /// signal. Drive decisions must compare against this, not the
    /// committed signal value: within one delta an earlier drive is
    /// still pending, and comparing against the stale committed value
    /// would skip the correcting drive — leaving the mirror wrong
    /// forever and losing a parked caller's wakeup.
    occ_driven: i64,
    /// Completion wires for blocked callers: `[occ]` when the unit is
    /// wire-visible, empty otherwise (callers must poll).
    completion: Vec<SignalId>,
}

struct Registry {
    fsm: Vec<FsmUnitEntry>,
    native: Vec<NativeEntry>,
    batched: Vec<BatchedUnitEntry>,
}

/// Mirrors a native unit's occupancy onto its `OCC` kernel signal after
/// a call or step may have changed it. Same-value drives are deduped by
/// the kernel (no event), so this is cheap for no-op calls.
fn sync_native_occ(entry: &mut NativeEntry, ctx: &mut ProcCtx<'_>) {
    if let (Some(sig), Some(occ)) = (entry.occ, entry.unit.occupancy()) {
        if entry.occ_driven != occ {
            entry.occ_driven = occ;
            ctx.drive(sig, Value::Int(occ));
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Handle {
    Fsm(usize),
    Native(usize),
    Batched(usize),
}

/// One service call site of a module, keyed by its `(binding,
/// service)` pair and resolved once, when the module is added: the
/// multi-view library's bind-time linking of an access procedure to
/// its communication unit. Activations index what was resolved.
struct CallSite {
    binding: BindingId,
    /// The service as the call spells it (the lookup key).
    service: Arc<str>,
    target: SiteTarget,
}

impl CallSite {
    /// Whether `call` goes through this site: same binding and service
    /// spelling. The call's `Arc` is normally the one the site was
    /// built from, so the pointer compare decides.
    fn matches(&self, call: &ServiceCall) -> bool {
        self.binding == call.binding
            && (Arc::ptr_eq(&self.service, &call.service) || self.service == call.service)
    }
}

/// What a call site resolved to.
enum SiteTarget {
    /// An FSM unit's service, by position in its spec.
    Fsm { unit: usize, service: usize },
    /// A batched link's service, by position (`put` 0, `get` 1).
    Batched { unit: usize, service: usize },
    /// A native unit. Its services are Rust code and take the name.
    Native { unit: usize },
    /// A call that cannot succeed (unknown service, wrong arity, no
    /// unit on the binding): every activation of it fails with this
    /// error, the one the unit's name-taking entry point reports.
    Failed(EvalError),
}

/// A module's trace names: its source and the labels of its trace
/// statements, each resolved against the trace log on first use and
/// by cached id after that ([`TraceLog::resolve`]).
struct ModuleTraceNames {
    source: TraceName,
    /// Keyed by the statement's label `Arc` (pointer identity).
    labels: Vec<(Arc<str>, TraceName)>,
}

impl ModuleTraceNames {
    /// The cached name of a trace statement's label, added on first
    /// sight.
    fn label(&mut self, label: &Arc<str>) -> &mut TraceName {
        let slot = match self.labels.iter().position(|(k, _)| Arc::ptr_eq(k, label)) {
            Some(slot) => slot,
            None => {
                self.labels
                    .push((Arc::clone(label), TraceName::new(Arc::clone(label))));
                self.labels.len() - 1
            }
        };
        &mut self.labels[slot].1
    }
}

/// Everything the backplane knows about one module instance. Owned by
/// the shared module table so both scheduler paths (per-module process,
/// module driver) step modules through the same code.
struct ModuleEntry {
    name: String,
    module: Module,
    exec: FsmExec,
    ports: Vec<SignalId>,
    vars: Vec<Value>,
    var_tys: Vec<Type>,
    /// Every call site of the module's FSM, resolved at add time.
    sites: Vec<CallSite>,
    trace_names: ModuleTraceNames,
    caller: CallerId,
    status: ModuleStatus,
}

/// One member of a unit shard: the unit's bookkeeping body and its
/// gating wires.
struct ShardMember {
    unit: Handle,
    /// The unit's kernel wires (a batched link's wake wires). Their
    /// monotone event counts decide whether inputs changed, and their
    /// events re-arm the member while parked.
    wires: Vec<SignalId>,
    /// Last observed event counts for `wires`.
    seen_events: Vec<u64>,
    /// Wake-subscription tag of `wires[0]`; wire `k` uses
    /// `first_tag + k` (an index into [`ShardState::armed`]).
    first_tag: u32,
    /// Whether the member is parked: out of the active set until a
    /// subscription on one of its wires fires.
    parked: bool,
}

/// Shared state of one unit shard process.
struct ShardState {
    /// The activation clock every member steps on (shards never mix
    /// clock domains).
    clk: SignalId,
    members: Vec<ShardMember>,
    /// Owning member of each subscription tag.
    tag_owner: Vec<u32>,
    /// Per tag: whether its wire holds a kernel wake subscription that
    /// has not fired yet. A unit's wires never change, so a
    /// subscription left armed by an earlier park stays a valid wake
    /// and is never armed twice.
    armed: Vec<bool>,
    /// Indices of members stepped at clock edges, ascending; every
    /// other member is parked.
    active: Vec<u32>,
    /// Whether the process currently waits on its clock's rising edge
    /// (false while dormant: no active member, no clock sensitivity).
    clocked: bool,
    /// Whether this shard's process already surrendered its members'
    /// clock demand after a backplane error. Lives here (not in the
    /// process closure) so snapshot/restore can carry it.
    halted: bool,
    runs: u64,
    units_stepped: u64,
    units_skipped: u64,
    wire_wakeups: u64,
    watch_probes: u64,
}

impl ShardState {
    fn new(clk: SignalId) -> Self {
        ShardState {
            clk,
            members: vec![],
            tag_owner: vec![],
            armed: vec![],
            active: vec![],
            clocked: false,
            halted: false,
            runs: 0,
            units_stepped: 0,
            units_skipped: 0,
            wire_wakeups: 0,
            watch_probes: 0,
        }
    }

    /// Adds an active member over `wires`, reserving one subscription
    /// tag per wire.
    fn push_member(&mut self, unit: Handle, wires: Vec<SignalId>) {
        let idx = self.members.len() as u32;
        let first_tag = self.armed.len() as u32;
        self.armed.resize(self.armed.len() + wires.len(), false);
        self.tag_owner.resize(self.armed.len(), idx);
        self.members.push(ShardMember {
            unit,
            seen_events: vec![0; wires.len()],
            wires,
            first_tag,
            parked: false,
        });
        self.active.push(idx);
    }
}

/// splitmix64: the hash spreading unit ids over shards.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Bridges a unit's wire table onto kernel signals through the running
/// process context.
struct CtxWires<'a, 'b> {
    ctx: &'a mut ProcCtx<'b>,
    map: &'a [SignalId],
    /// One clock cycle of the owning unit's clock, the unit of
    /// [`WireStore::write_wire_after`] scheduling. `Duration::ZERO` at
    /// call sites that never schedule timed writes (service dispatch,
    /// controller steps) — timed writes then report unsupported, which
    /// keeps a mis-plumbed site on the cycle-by-cycle fallback instead
    /// of silently collapsing a burst into one instant.
    cycle: Duration,
}

impl WireStore for CtxWires<'_, '_> {
    fn read_wire(&self, w: PortId) -> Result<Value, EvalError> {
        match self.map.get(w.index()) {
            Some(&sig) => Ok(self.ctx.read(sig).clone()),
            None => Err(EvalError::NoSuchPort(w)),
        }
    }
    fn write_wire(&mut self, w: PortId, v: Value) -> Result<(), EvalError> {
        match self.map.get(w.index()) {
            Some(&sig) => {
                self.ctx.drive(sig, v);
                Ok(())
            }
            None => Err(EvalError::NoSuchPort(w)),
        }
    }
    fn write_wire_after(&mut self, w: PortId, v: Value, cycles: u64) -> Result<bool, EvalError> {
        if self.cycle == Duration::ZERO {
            return Ok(false);
        }
        match self.map.get(w.index()) {
            Some(&sig) => {
                self.ctx.drive_after(sig, v, self.cycle.times(cycles));
                Ok(true)
            }
            None => Err(EvalError::NoSuchPort(w)),
        }
    }
    fn write_wire_train(
        &mut self,
        w: PortId,
        start_cycles: u64,
        stride_cycles: u64,
        values: &[Value],
    ) -> Result<bool, EvalError> {
        if self.cycle == Duration::ZERO {
            return Ok(false);
        }
        match self.map.get(w.index()) {
            Some(&sig) => {
                self.ctx.drive_train(
                    sig,
                    self.cycle.times(start_cycles),
                    self.cycle.times(stride_cycles),
                    values,
                );
                Ok(true)
            }
            None => Err(EvalError::NoSuchPort(w)),
        }
    }
}

/// Reusable arena for module activations through [`step_module`]: the
/// [`StepEffects`](cosma_core::StepEffects) call-count arena and a
/// pooled watch list. Each module-stepping process owns one, so a warm
/// activation allocates nothing for its bookkeeping.
#[derive(Default)]
struct ModuleScratch {
    /// Step-effects arena handed to
    /// [`FsmExec::step_with`](cosma_core::FsmExec::step_with);
    /// recycled (buffers kept) at the start of every activation.
    effects: cosma_core::StepEffects,
    /// Pooled completion-wire watch list lent to the activation's
    /// [`CosimEnv`]; returned cleared unless the module parks (the
    /// rare case, where the buffer leaves as the park wait list).
    watch: Vec<SignalId>,
}

/// The execution environment a module activation sees: ports are kernel
/// signals, variables are module-local, service calls go to the
/// registry. Alongside execution it accumulates the *stability
/// evidence* the scheduler needs for its park verdict.
struct CosimEnv<'a, 'b> {
    ctx: &'a mut ProcCtx<'b>,
    ports: &'a [SignalId],
    vars: &'a mut [Value],
    var_tys: &'a [Type],
    registry: &'a RefCell<Registry>,
    sites: &'a [CallSite],
    caller: CallerId,
    trace: &'a RefCell<TraceLog>,
    /// The module's name, for error messages.
    name: &'a str,
    trace_names: &'a mut ModuleTraceNames,
    /// Effective changes this activation: variable writes that changed
    /// a value, port drives that differ from the signal's current
    /// value, trace records, completed service calls. Zero means the
    /// activation was (conservatively) a no-op.
    changes: u32,
    /// Whether every pending service call this activation was a
    /// provable no-op on the unit side *with* non-empty completion
    /// wires — i.e. safe to wait on wires instead of polling.
    pending_stable: bool,
    /// Completion wires of the pending calls (what to watch if parked).
    pending_watch: Vec<SignalId>,
}

impl ReadEnv for CosimEnv<'_, '_> {
    fn read_var(&self, v: VarId) -> Result<Value, EvalError> {
        self.vars
            .get(v.index())
            .cloned()
            .ok_or(EvalError::NoSuchVar(v))
    }
    fn read_port(&self, p: PortId) -> Result<Value, EvalError> {
        match self.ports.get(p.index()) {
            Some(&sig) => Ok(self.ctx.read(sig).clone()),
            None => Err(EvalError::NoSuchPort(p)),
        }
    }
}

impl Env for CosimEnv<'_, '_> {
    fn write_var(&mut self, v: VarId, value: Value) -> Result<(), EvalError> {
        let ty = self.var_tys.get(v.index()).ok_or(EvalError::NoSuchVar(v))?;
        let slot = self
            .vars
            .get_mut(v.index())
            .ok_or(EvalError::NoSuchVar(v))?;
        let value = ty.clamp(value);
        if *slot != value {
            self.changes += 1;
            *slot = value;
        }
        Ok(())
    }
    fn drive_port(&mut self, p: PortId, value: Value) -> Result<(), EvalError> {
        match self.ports.get(p.index()) {
            Some(&sig) => {
                if self.ctx.read(sig) != &value {
                    self.changes += 1;
                }
                self.ctx.drive(sig, value);
                Ok(())
            }
            None => Err(EvalError::NoSuchPort(p)),
        }
    }
    fn call_service(
        &mut self,
        call: &ServiceCall,
        args: &[Value],
    ) -> Result<ServiceOutcome, EvalError> {
        let Some(site) = self.sites.iter().find(|site| site.matches(call)) else {
            return Err(unbound_call(self.name, call.binding));
        };
        let registry = self.registry;
        let mut reg = registry.borrow_mut();
        let reg = &mut *reg;
        let (out, stable, completion) = match &site.target {
            &SiteTarget::Fsm { unit, service } => {
                let FsmUnitEntry {
                    runtime,
                    wires,
                    completion,
                    ..
                } = &mut reg.fsm[unit];
                let mut ws = CtxWires {
                    ctx: self.ctx,
                    map: wires,
                    cycle: Duration::ZERO,
                };
                let out = runtime.call_resolved(self.caller, service, args, &mut ws)?;
                (out, runtime.last_call_stable(), &completion[service])
            }
            &SiteTarget::Batched { unit, service } => {
                let BatchedUnitEntry {
                    link,
                    wires,
                    completion,
                    ..
                } = &mut reg.batched[unit];
                let mut ws = CtxWires {
                    ctx: self.ctx,
                    map: wires,
                    cycle: Duration::ZERO,
                };
                let out = link.call_resolved(self.caller, service, args, &mut ws)?;
                (out, link.last_call_stable(), &completion[service])
            }
            &SiteTarget::Native { unit } => {
                let entry = &mut reg.native[unit];
                let out = entry
                    .unit
                    .call(self.caller, &call.service, args)
                    .map_err(|e| EvalError::Service(format!("native unit {}: {e}", entry.name)))?;
                sync_native_occ(entry, self.ctx);
                (out, entry.unit.last_call_stable(), &entry.completion)
            }
            SiteTarget::Failed(e) => return Err(e.clone()),
        };
        // A completed call is an effective change; a pending one is
        // parkable only if the unit proved it a no-op AND names
        // completion wires that can wake the caller.
        if out.done {
            self.changes += 1;
        } else if stable && !completion.is_empty() {
            self.pending_watch.extend_from_slice(completion);
        } else {
            self.pending_stable = false;
        }
        Ok(out)
    }
    fn trace(&mut self, label: &str, values: &[Value]) {
        self.changes += 1;
        let mut log = self.trace.borrow_mut();
        let source = log.resolve(&mut self.trace_names.source);
        let label = log.intern(label);
        log.record_ids(self.ctx.now().as_fs(), source, label, values);
    }
    fn trace_interned(&mut self, label: &Arc<str>, values: &[Value]) {
        self.changes += 1;
        let mut log = self.trace.borrow_mut();
        let source = log.resolve(&mut self.trace_names.source);
        let label = log.resolve(self.trace_names.label(label));
        log.record_ids(self.ctx.now().as_fs(), source, label, values);
    }
}

/// The error of a call through a binding no unit is attached to.
fn unbound_call(module: &str, binding: BindingId) -> EvalError {
    EvalError::Service(format!(
        "module {module} has no unit attached to binding {binding}"
    ))
}

/// Resolves every service call site of `module`, whose bindings map
/// to `handles`, against the registry: the bind-time half of a call.
/// Sites whose call cannot succeed resolve to the error the unit's
/// name-taking entry point reports for them.
fn resolve_call_sites(module: &Module, handles: &[Handle], reg: &Registry) -> Vec<CallSite> {
    let mut sites: Vec<CallSite> = Vec::new();
    module.fsm().for_each_stmt(&mut |stmt| {
        stmt.for_each_call(&mut |call| {
            if sites.iter().any(|site| site.matches(call)) {
                return;
            }
            let arity = call.args.len();
            let target = match handles.get(call.binding.index()) {
                None => Err(unbound_call(module.name(), call.binding)),
                Some(&Handle::Fsm(unit)) => reg.fsm[unit]
                    .runtime
                    .resolve(&call.service, arity)
                    .map(|service| SiteTarget::Fsm { unit, service }),
                Some(&Handle::Batched(unit)) => reg.batched[unit]
                    .link
                    .resolve(&call.service, arity)
                    .map(|service| SiteTarget::Batched { unit, service }),
                Some(&Handle::Native(unit)) => Ok(SiteTarget::Native { unit }),
            };
            sites.push(CallSite {
                binding: call.binding,
                service: Arc::clone(&call.service),
                target: target.unwrap_or_else(SiteTarget::Failed),
            });
        });
    });
    sites
}

/// Errors from backplane assembly and runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CosimError {
    /// Kernel-level error.
    Sim(SimError),
    /// A module or controller hit an evaluation error.
    Runtime(String),
    /// Assembly-time error (duplicate names, unresolved bindings...).
    Setup(String),
}

impl fmt::Display for CosimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CosimError::Sim(e) => write!(f, "{e}"),
            CosimError::Runtime(m) | CosimError::Setup(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CosimError {}

impl From<SimError> for CosimError {
    fn from(e: SimError) -> Self {
        CosimError::Sim(e)
    }
}

/// One module activation through the shared module table, with service
/// calls applied immediately. Returns `Ok(Some(watch))` when the
/// activation proved the module stable and it should be parked on
/// `watch` (possibly empty: a halted module that nothing can ever
/// re-arm), `Ok(None)` to stay clocked.
///
/// The execution environment is drawn from the caller's pooled
/// [`ModuleScratch`], recycled (capacity kept) across activations, so a
/// warm activation allocates nothing for its bookkeeping.
#[allow(clippy::too_many_arguments)]
fn step_module(
    modules: &RefCell<Vec<ModuleEntry>>,
    idx: usize,
    registry: &RefCell<Registry>,
    trace: &RefCell<TraceLog>,
    park: &ParkCounters,
    park_blocked: bool,
    ctx: &mut ProcCtx<'_>,
    scratch: &mut ModuleScratch,
) -> Result<Option<Vec<SignalId>>, String> {
    let mut modules = modules.borrow_mut();
    let ModuleEntry {
        name,
        module,
        exec,
        ports,
        vars,
        var_tys,
        sites,
        trace_names,
        caller,
        status,
    } = &mut modules[idx];
    let fsm = module.fsm();
    scratch.effects.recycle();
    let mut env = CosimEnv {
        ctx,
        ports,
        vars,
        var_tys,
        registry,
        sites,
        caller: *caller,
        trace,
        name,
        trace_names,
        changes: 0,
        pending_stable: true,
        pending_watch: std::mem::take(&mut scratch.watch),
    };
    let stepped = exec.step_with(fsm, &mut env, &mut scratch.effects);
    match stepped {
        Ok(meta) => {
            let changes = env.changes;
            let pending_stable = env.pending_stable;
            let mut watch = env.pending_watch;
            if meta.from != meta.to {
                // The state name only changes on a real transition —
                // skip the per-activation render for self-loops, and
                // reuse the status String's buffer when it does.
                status.state.clear();
                status.state.push_str(fsm.state(exec.current()).name());
            }
            status.activations += 1;
            park.modules_stepped.set(park.modules_stepped.get() + 1);
            // Park verdict: the activation must be a provable fixed
            // point. Same state (self-loops included), zero effective
            // changes, and every service call pending as a unit-side
            // no-op with completion wires to wait on. Re-running such
            // an activation with unchanged ports/wires is guaranteed
            // to repeat it identically, so the module may sleep until
            // one of its ports or completion wires events.
            let parkable = park_blocked
                && meta.from == meta.to
                && changes == 0
                && pending_stable
                && scratch.effects.pending.len() == scratch.effects.service_calls as usize;
            if parkable {
                watch.extend_from_slice(ports);
                watch.sort_unstable();
                watch.dedup();
                Ok(Some(watch))
            } else {
                watch.clear();
                scratch.watch = watch;
                Ok(None)
            }
        }
        Err(e) => {
            let mut watch = env.pending_watch;
            watch.clear();
            scratch.watch = watch;
            // Record the halting state and the error on the module
            // itself, not just in the backplane's global error slot.
            let msg = format!("module {name}: {e}");
            status.state.clear();
            status.state.push_str(fsm.state(exec.current()).name());
            status.error = Some(msg.clone());
            Err(msg)
        }
    }
}

/// The single owner of module and unit stepping: unit shard pools, the
/// module driver, hashed placement, park accounting. Unified here so
/// modules and units — the same FSM semantics in the paper's model —
/// share one activation-gating architecture.
struct ActivationScheduler {
    cfg: SchedulingConfig,
    /// Per-domain unit shard pool: shards never mix clock domains, so
    /// hashed placement runs inside the member's domain pool. Entry `d`
    /// indexes [`ActivationScheduler::unit_shards`] for domain `d`.
    unit_pools: Vec<PoolState>,
    /// Per-domain module shard pool of the driver. Entry `d` holds
    /// indices into [`DriverState::shards`].
    driver_pools: Vec<PoolState>,
    unit_shards: Vec<Rc<RefCell<ShardState>>>,
    /// The module driver ([`ModuleScheduling::Sharded`]): one kernel
    /// process stepping every clocked module, registered on first use.
    driver: Option<Rc<RefCell<DriverState>>>,
    /// Per-process state of the legacy one-process-per-module path
    /// ([`ModuleScheduling::PerModule`]), in module order. Shared with
    /// the process closures so snapshot/restore can reach it.
    per_module: Vec<Rc<RefCell<PerModuleProcState>>>,
    /// Per-unit `seen_events` gates of the legacy
    /// [`UnitScheduling::PerUnit`] path, in unit-registration order.
    /// Shared with the clocked closures so snapshot/restore can reach
    /// them.
    per_unit_seen: Vec<Rc<RefCell<Vec<u64>>>>,
    park: Rc<ParkCounters>,
}

/// One clock domain's shard pool: how many members were ever placed in
/// it (drives hashed shard assignment *within* the pool) and which
/// global shards belong to it.
#[derive(Debug, Default)]
struct PoolState {
    members: usize,
    shards: Vec<usize>,
}

impl PoolState {
    /// Picks the shard for the next member by hashing its pool index
    /// over the shards allowed so far (one more per `shard_size`
    /// members). Returns `None` when the hash lands past the open
    /// shards: the caller opens the next one, so shard count still
    /// tracks `members / shard_size` while creation-order runs are
    /// scattered.
    fn place(&mut self, shard_size: usize) -> Option<usize> {
        let k = self.members;
        self.members += 1;
        let allowed = k / shard_size.max(1) + 1;
        let hashed = (splitmix64(k as u64) % allowed as u64) as usize;
        self.shards.get(hashed).copied()
    }
}

/// The mutable scheduling state of one legacy per-module process —
/// everything its closure used to keep as captured locals, hoisted
/// behind an `Rc` so whole-backplane snapshots can capture and restore
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PerModuleProcState {
    /// Whether the process currently holds a clock-demand unit (true
    /// while unparked and not halted).
    counted: bool,
    parked: bool,
    watch: Vec<SignalId>,
    wait_dirty: bool,
}

/// One member of the module driver: a module, its activation clock,
/// and the wires that re-arm it while parked.
struct DriverMember {
    module: usize,
    clk: SignalId,
    /// The watch set of the member's latest park.
    watch: Vec<SignalId>,
    /// Whether the member is parked: out of the active set until a
    /// wire of `watch` events.
    parked: bool,
    /// Wires holding a kernel wake subscription for this member that
    /// has not fired yet, from this park or an earlier one. Watch sets
    /// vary between parks, so a park subscribes only the wires missing
    /// here, and a fired wire outside the current watch set is merely
    /// disarmed.
    armed: Vec<SignalId>,
}

/// One module shard of the driver (active/parked split, like
/// [`ShardState`], but stepped by the shared driver process). Parked
/// members are woken by the driver's own wake subscriptions, tagged
/// with the module id, so no process rescans a shard.
struct DriverShard {
    members: Vec<DriverMember>,
    /// Indices of members stepped at clock edges, ascending; every
    /// other member is parked.
    active: Vec<u32>,
    /// The clock-demand ledger of this shard's domain (shards never mix
    /// domains, so parking a member surrenders demand on exactly one
    /// domain's generators).
    demand: Rc<ClockDemand>,
}

/// Shared state of the module driver process.
#[derive(Default)]
struct DriverState {
    shards: Vec<DriverShard>,
    /// `(shard, member)` of every module, indexed by module id — the
    /// tag of the module's wake subscriptions.
    slots: Vec<(u32, u32)>,
    /// Whether the driver surrendered its members' clock demand after a
    /// backplane error (kept here so snapshot/restore can carry it).
    halted: bool,
    runs: u64,
    skipped: u64,
    wire_wakeups: u64,
    /// Pooled per-run scratch: the stepping set and the members to
    /// resume, taken at the start of each driver run and handed back
    /// (capacity kept) at the end, so the steady-state driver does not
    /// allocate.
    items: Vec<(usize, usize, u32)>,
    to_resume: Vec<(u32, u32)>,
}

impl DriverState {
    /// Surrenders every unparked member's clock demand after a
    /// backplane error (once).
    fn halt(&mut self) {
        if !self.halted {
            self.halted = true;
            for s in &self.shards {
                s.demand.park(s.active.len());
            }
        }
    }
}

/// The backplane resources a scheduler registration needs.
struct SchedCtx<'a> {
    sim: &'a mut Simulator,
    registry: &'a Rc<RefCell<Registry>>,
    modules: &'a Rc<RefCell<Vec<ModuleEntry>>>,
    error: &'a Rc<RefCell<Option<String>>>,
    trace: &'a Rc<RefCell<TraceLog>>,
    /// The target clock domain's demand ledger.
    demand: &'a Rc<ClockDemand>,
    /// The target domain's hardware activation clock.
    hw_clk: SignalId,
    /// Index of the target domain (selects the per-domain shard pools).
    domain: usize,
    /// Every domain's activation clocks, in domain order — the module
    /// driver's clock sensitivity.
    clocks: &'a [SignalId],
}

impl ActivationScheduler {
    fn new(cfg: SchedulingConfig) -> Self {
        ActivationScheduler {
            cfg,
            unit_pools: vec![PoolState::default()],
            driver_pools: vec![PoolState::default()],
            unit_shards: vec![],
            driver: None,
            per_module: vec![],
            per_unit_seen: vec![],
            park: Rc::new(ParkCounters::default()),
        }
    }

    /// Opens the shard pools of a freshly created clock domain
    /// ([`Cosim::add_clock_domain`]).
    fn add_domain_pool(&mut self) {
        self.unit_pools.push(PoolState::default());
        self.driver_pools.push(PoolState::default());
    }

    /// Places a unit member into a shard chosen by hashed id
    /// ([`PoolState::place`]). Placement runs inside the member's
    /// clock-domain pool: shards never mix domains, so every member of
    /// a shard shares one activation clock and one [`ClockDemand`]
    /// ledger.
    fn add_unit_member(&mut self, ctx: SchedCtx<'_>, handle: Handle, wires: Vec<SignalId>) {
        let shard_size = match self.cfg.units {
            UnitScheduling::Sharded { shard_size } => shard_size,
            UnitScheduling::PerUnit => unreachable!("shard members only exist when sharded"),
        };
        let domain = ctx.domain;
        ctx.demand.register(ctx.sim);
        let target = match self.unit_pools[domain].place(shard_size) {
            Some(gi) => gi,
            None => {
                let state = Rc::new(RefCell::new(ShardState::new(ctx.hw_clk)));
                let label = format!("unit_shard{}", self.unit_shards.len());
                Self::register_shard_process(ctx, Rc::clone(&state), Rc::clone(&self.park), label);
                self.unit_shards.push(state);
                let global = self.unit_shards.len() - 1;
                self.unit_pools[domain].shards.push(global);
                global
            }
        };
        self.unit_shards[target]
            .borrow_mut()
            .push_member(handle, wires);
    }

    /// Places a module into the driver: hashed placement spreads module
    /// ids over the domain's open shards exactly like unit placement
    /// (the driver steps in module-id order whatever the placement). The
    /// driver's single kernel process is registered on first use.
    fn add_driver_module(&mut self, mut ctx: SchedCtx<'_>, idx: usize, clk: SignalId) {
        let shard_size = match self.cfg.modules {
            ModuleScheduling::Sharded { shard_size } => shard_size,
            ModuleScheduling::PerModule => unreachable!("driver members only exist when sharded"),
        };
        ctx.demand.register(ctx.sim);
        let driver = match &self.driver {
            Some(d) => Rc::clone(d),
            None => {
                let state = Rc::new(RefCell::new(DriverState::default()));
                Self::register_driver_process(
                    &mut ctx,
                    Rc::clone(&state),
                    Rc::clone(&self.park),
                    self.cfg.park_blocked,
                );
                self.driver = Some(Rc::clone(&state));
                state
            }
        };
        let domain = ctx.domain;
        let mut st = driver.borrow_mut();
        let target = match self.driver_pools[domain].place(shard_size) {
            Some(gi) => gi,
            None => {
                st.shards.push(DriverShard {
                    members: vec![],
                    active: vec![],
                    demand: Rc::clone(ctx.demand),
                });
                let open = st.shards.len() - 1;
                self.driver_pools[domain].shards.push(open);
                open
            }
        };
        let shard = &mut st.shards[target];
        let mi = shard.members.len() as u32;
        shard.members.push(DriverMember {
            module: idx,
            clk,
            watch: vec![],
            parked: false,
            armed: vec![],
        });
        shard.active.push(mi);
        debug_assert_eq!(st.slots.len(), idx, "modules join the driver in id order");
        st.slots.push((target as u32, mi));
    }

    /// Registers the kernel process that owns every module shard: on
    /// each rising clock edge it collects the active members whose clock
    /// rose and steps them directly, in module-id order — the order of
    /// the per-module path — applying their service calls immediately.
    /// Members that prove themselves stable are parked on wake
    /// subscriptions over their watch wires, tagged with the module id.
    ///
    /// The driver's sensitivity is pinned to the activation clocks; a
    /// fired subscription runs it whatever the clocks do. It resumes
    /// the members those wakes name only *after* the run's stepping
    /// pass, so a module whose watch wire events in the delta its clock
    /// rises steps from the next edge (a per-module process would step
    /// on that edge; only a drive from outside the backplane can land a
    /// wire event in a clock-edge delta). When every clocked body is
    /// parked the clock generators themselves stop ([`ClockDemand`]),
    /// so a fully-parked backplane still costs nothing.
    fn register_driver_process(
        ctx: &mut SchedCtx<'_>,
        state: Rc<RefCell<DriverState>>,
        park: Rc<ParkCounters>,
        park_blocked: bool,
    ) {
        let registry = Rc::clone(ctx.registry);
        let modules = Rc::clone(ctx.modules);
        let error = Rc::clone(ctx.error);
        let trace = Rc::clone(ctx.trace);
        // Every domain's activation clocks: the driver owns module
        // shards of all domains, and each member still steps only on
        // rising edges of its own domain's clock.
        let clocks = ctx.clocks.to_vec();
        let mut registered = false;
        // Pooled execution env: pure scratch, owned by the process
        // closure so it never enters a snapshot.
        let mut scratch = ModuleScratch::default();
        ctx.sim.add_process(
            "module_phase_driver",
            FnProcess::new(move |pctx| {
                let wait = if registered {
                    Wait::Same
                } else {
                    registered = true;
                    // Members only ever step on a *rising* edge of their
                    // clock, so falling edges need not wake the driver
                    // at all — half the wake traffic gone.
                    Wait::Rising(clocks.clone())
                };
                let mut st = state.borrow_mut();
                let st = &mut *st;
                if error.borrow().is_some() {
                    st.halt();
                    return Wait::Forever;
                }
                st.runs += 1;
                // Disarm the fired subscriptions and note the parked
                // members they re-arm; those resume after stepping.
                let mut to_resume = std::mem::take(&mut st.to_resume);
                to_resume.clear();
                for &(sig, tag) in pctx.wakes() {
                    let (si, mi) = st.slots[tag as usize];
                    let member = &mut st.shards[si as usize].members[mi as usize];
                    if let Some(k) = member.armed.iter().position(|&w| w == sig) {
                        member.armed.swap_remove(k);
                    }
                    if member.parked && member.watch.contains(&sig) {
                        to_resume.push((si, mi));
                    }
                }
                // Collect this cycle's stepping set into the pooled
                // buffer (capacity kept across runs).
                let mut items = std::mem::take(&mut st.items);
                items.clear();
                let mut parked_skipped = 0u64;
                for (si, shard) in st.shards.iter().enumerate() {
                    let mut edge_seen = false;
                    for &ai in &shard.active {
                        let m = &shard.members[ai as usize];
                        if pctx.rose(m.clk) {
                            edge_seen = true;
                            items.push((m.module, si, ai));
                        }
                    }
                    if edge_seen {
                        parked_skipped += (shard.members.len() - shard.active.len()) as u64;
                    }
                }
                st.skipped += parked_skipped;
                items.sort_unstable_by_key(|&(mi, _, _)| mi);
                for &(mi, si, ai) in &items {
                    let watch = match step_module(
                        &modules,
                        mi,
                        &registry,
                        &trace,
                        &park,
                        park_blocked,
                        pctx,
                        &mut scratch,
                    ) {
                        Ok(Some(watch)) => watch,
                        Ok(None) => continue,
                        Err(msg) => {
                            *error.borrow_mut() = Some(msg);
                            st.halt();
                            return Wait::Forever;
                        }
                    };
                    // Park at once: the stepping set is already fixed,
                    // and the displaced watch buffer goes straight back
                    // to the scratch pool, so the next module's pending
                    // calls build their watch list in recycled capacity.
                    park.parked.set(park.parked.get() + 1);
                    park.parked_now.set(park.parked_now.get() + 1);
                    let shard = &mut st.shards[si];
                    shard.demand.park(1);
                    shard.active.retain(|&a| a != ai);
                    let member = &mut shard.members[ai as usize];
                    member.parked = true;
                    let mut displaced = std::mem::replace(&mut member.watch, watch);
                    if scratch.watch.capacity() < displaced.capacity() {
                        displaced.clear();
                        scratch.watch = displaced;
                    }
                    for &w in &member.watch {
                        if !member.armed.contains(&w) {
                            member.armed.push(w);
                            pctx.wake_on(w, member.module as u32);
                        }
                    }
                }
                st.items = items;
                // Shard by shard, like per-shard wakeups: a member named
                // by two wires resumes once.
                to_resume.sort_unstable();
                to_resume.dedup();
                for group in to_resume.chunk_by(|a, b| a.0 == b.0) {
                    let shard = &mut st.shards[group[0].0 as usize];
                    let was_dormant = shard.active.is_empty();
                    for &(_, mi) in group {
                        shard.members[mi as usize].parked = false;
                        let pos = shard.active.partition_point(|&a| a < mi);
                        shard.active.insert(pos, mi);
                    }
                    park.resumed.set(park.resumed.get() + group.len() as u64);
                    park.parked_now.set(park.parked_now.get() - group.len());
                    shard.demand.resume(group.len(), pctx);
                    if was_dormant {
                        st.wire_wakeups += 1;
                    }
                }
                st.to_resume = to_resume;
                wait
            }),
        );
    }

    /// Registers the kernel process driving one unit shard. Each run it
    /// resumes the parked members its fired wake subscriptions name,
    /// steps the active members if their clock rose (parking the ones
    /// that prove stable and subscribing their unarmed wires), and waits
    /// on the clock's rising edge — or on nothing at all once every
    /// member is parked, which is what makes a dormant shard free.
    fn register_shard_process(
        ctx: SchedCtx<'_>,
        state: Rc<RefCell<ShardState>>,
        park: Rc<ParkCounters>,
        label: String,
    ) {
        let registry = Rc::clone(ctx.registry);
        let error = Rc::clone(ctx.error);
        let demand = Rc::clone(ctx.demand);
        // The per-run park list: pure scratch, owned by the process
        // closure so it never enters a snapshot.
        let mut to_park: Vec<u32> = vec![];
        ctx.sim.add_process(
            label,
            FnProcess::new(move |pctx| {
                let mut st = state.borrow_mut();
                let st = &mut *st;
                if error.borrow().is_some() {
                    if !st.halted {
                        st.halted = true;
                        demand.park(st.active.len());
                    }
                    return Wait::Forever;
                }
                st.runs += 1;
                let was_dormant = st.active.is_empty();
                // Resume the members named by this delta's wire events,
                // before the stepping pass: a member re-armed on its
                // clock's edge steps in that edge.
                let mut resumed = 0usize;
                for &(_, tag) in pctx.wakes() {
                    st.watch_probes += 1;
                    st.armed[tag as usize] = false;
                    let mi = st.tag_owner[tag as usize];
                    let member = &mut st.members[mi as usize];
                    if member.parked {
                        member.parked = false;
                        let pos = st.active.partition_point(|&a| a < mi);
                        st.active.insert(pos, mi);
                        resumed += 1;
                    }
                }
                if resumed > 0 {
                    park.resumed.set(park.resumed.get() + resumed as u64);
                    park.parked_now.set(park.parked_now.get() - resumed);
                    demand.resume(resumed, pctx);
                    if was_dormant {
                        st.wire_wakeups += 1;
                    }
                }
                // Step active members if their clock rose.
                if !st.active.is_empty() && pctx.rose(st.clk) {
                    let ShardState {
                        members,
                        armed,
                        active,
                        halted,
                        units_stepped,
                        units_skipped,
                        ..
                    } = st;
                    to_park.clear();
                    for &ai in active.iter() {
                        let member = &mut members[ai as usize];
                        let changed = wires_changed(pctx, &member.wires, &mut member.seen_events);
                        *units_stepped += 1;
                        let mut reg = registry.borrow_mut();
                        match step_unit_member(&mut reg, member.unit, pctx, changed) {
                            Ok(true) => to_park.push(ai),
                            Ok(false) => {}
                            Err(msg) => {
                                *error.borrow_mut() = Some(msg);
                                if !*halted {
                                    *halted = true;
                                    demand.park(active.len());
                                }
                                return Wait::Forever;
                            }
                        }
                    }
                    *units_skipped += (members.len() - active.len()) as u64;
                    if !to_park.is_empty() {
                        demand.park(to_park.len());
                        active.retain(|a| !to_park.contains(a));
                        for &pi in &to_park {
                            let member = &mut members[pi as usize];
                            member.parked = true;
                            for (k, &w) in member.wires.iter().enumerate() {
                                let tag = member.first_tag + k as u32;
                                if !armed[tag as usize] {
                                    armed[tag as usize] = true;
                                    pctx.wake_on(w, tag);
                                }
                            }
                        }
                        park.parked.set(park.parked.get() + to_park.len() as u64);
                        park.parked_now.set(park.parked_now.get() + to_park.len());
                    }
                }
                let clocked = !st.active.is_empty();
                if clocked == st.clocked {
                    return Wait::Same;
                }
                st.clocked = clocked;
                if clocked {
                    // Members only step on rising edges, so falling
                    // edges never wake the shard.
                    let mut sens = pctx.wait_buf();
                    sens.push(st.clk);
                    Wait::Rising(sens)
                } else {
                    // Dormant: only the members' wake subscriptions can
                    // run the shard again.
                    Wait::Forever
                }
            }),
        );
    }

    /// Aggregate statistics across the unit shards, the module driver
    /// and the shared park counters.
    fn stats(&self) -> ShardStats {
        let mut s = ShardStats {
            shards: self.unit_shards.len(),
            modules_stepped: self.park.modules_stepped.get(),
            members_parked: self.park.parked.get(),
            members_resumed: self.park.resumed.get(),
            parked_now: self.park.parked_now.get(),
            ..ShardStats::default()
        };
        for shard in &self.unit_shards {
            let st = shard.borrow();
            if st.active.is_empty() && !st.members.is_empty() {
                s.dormant_shards += 1;
            }
            s.shard_runs += st.runs;
            s.units_stepped += st.units_stepped;
            s.units_skipped += st.units_skipped;
            s.wire_wakeups += st.wire_wakeups;
            s.watch_probes += st.watch_probes;
        }
        if let Some(driver) = &self.driver {
            let st = driver.borrow();
            s.shards += st.shards.len();
            for shard in &st.shards {
                if shard.active.is_empty() && !shard.members.is_empty() {
                    s.dormant_shards += 1;
                }
            }
            s.shard_runs += st.runs;
            s.units_skipped += st.skipped;
            s.wire_wakeups += st.wire_wakeups;
        }
        s
    }
}

/// One activation of a unit shard member at a rising clock edge.
/// Returns whether the member proved itself stable (parkable).
fn step_unit_member(
    reg: &mut Registry,
    handle: Handle,
    ctx: &mut ProcCtx<'_>,
    inputs_changed: bool,
) -> Result<bool, String> {
    match handle {
        Handle::Fsm(i) => {
            let FsmUnitEntry {
                name,
                runtime,
                wires,
                ..
            } = &mut reg.fsm[i];
            let mut ws = CtxWires {
                ctx,
                map: wires,
                cycle: Duration::ZERO,
            };
            runtime
                .step_controller_if_active(&mut ws, inputs_changed)
                .map_err(|e| format!("unit {name} controller: {e}"))?;
            Ok(runtime.controller_stable())
        }
        Handle::Native(i) => {
            let entry = &mut reg.native[i];
            entry.unit.step();
            sync_native_occ(entry, ctx);
            Ok(!entry.unit.needs_step())
        }
        Handle::Batched(i) => {
            let BatchedUnitEntry {
                name,
                link,
                wires,
                cycle,
                ..
            } = &mut reg.batched[i];
            let mut ws = CtxWires {
                ctx,
                map: wires,
                cycle: *cycle,
            };
            let active = link
                .pump(&mut ws, inputs_changed)
                .map_err(|e| format!("batched link {name}: {e}"))?;
            Ok(!active)
        }
    }
}

/// The co-simulation backplane.
///
/// # Examples
///
/// A software producer and a hardware consumer exchanging one value over
/// the library handshake unit:
///
/// ```
/// use cosma_cosim::{Cosim, CosimConfig};
/// use cosma_comm::handshake_unit;
/// use cosma_core::{ModuleBuilder, ModuleKind, Type, Value, Expr, Stmt, ServiceCall};
/// use cosma_sim::Duration;
///
/// let mut cosim = Cosim::new(CosimConfig::default());
/// let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
///
/// let mut p = ModuleBuilder::new("producer", ModuleKind::Software);
/// let done = p.var("D", Type::Bool, Value::Bool(false));
/// let b = p.binding("iface", "hs");
/// let s_put = p.state("PUT");
/// let s_end = p.state("END");
/// p.actions(s_put, vec![Stmt::Call(ServiceCall {
///     binding: b, service: "put".into(), args: vec![Expr::int(42)],
///     done: Some(done), result: None,
/// })]);
/// p.transition(s_put, Some(Expr::var(done)), s_end);
/// p.transition(s_end, None, s_end);
/// p.initial(s_put);
///
/// let mut c = ModuleBuilder::new("consumer", ModuleKind::Hardware);
/// let got = c.var("GOT", Type::INT16, Value::Int(0));
/// let cdone = c.var("D", Type::Bool, Value::Bool(false));
/// let cb = c.binding("iface", "hs");
/// let s_get = c.state("GET");
/// let s_end2 = c.state("END");
/// c.actions(s_get, vec![Stmt::Call(ServiceCall {
///     binding: cb, service: "get".into(), args: vec![],
///     done: Some(cdone), result: Some(got),
/// })]);
/// c.transition(s_get, Some(Expr::var(cdone)), s_end2);
/// c.transition(s_end2, None, s_end2);
/// c.initial(s_get);
///
/// let pm = cosim.add_module(&p.build()?, &[("iface", link)])?;
/// let cm = cosim.add_module(&c.build()?, &[("iface", link)])?;
/// cosim.run_for(Duration::from_us(10))?;
/// assert_eq!(cosim.module_status(cm).state, "END");
/// assert_eq!(cosim.module_var(cm, "GOT"), Some(Value::Int(42)));
/// # let _ = pm;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Cosim {
    sim: Simulator,
    registry: Rc<RefCell<Registry>>,
    handles: Vec<Handle>,
    unit_names: HashMap<String, UnitId>,
    error: Rc<RefCell<Option<String>>>,
    trace: Rc<RefCell<TraceLog>>,
    modules: Rc<RefCell<Vec<ModuleEntry>>>,
    sched: ActivationScheduler,
    /// The clocking configuration this backplane was built with, kept so
    /// [`Cosim::fork`] can construct an identical twin.
    config: CosimConfig,
    /// Construction log: one entry per `add_*` call, in call order.
    /// [`Cosim::fork`] replays the recipe onto a fresh backplane, which
    /// deterministically rebuilds identical structure — same signal and
    /// process ids, same hashed shard placement — before restoring the
    /// snapshot's state onto it.
    recipe: Vec<RecipeOp>,
    /// Clock domains, base domain first. Each carries its activation
    /// clock pair and its clock-edge demand ledger: the domain's
    /// generators idle whenever its demand reaches zero — on an empty
    /// backplane, after every body halted, **and while every body is
    /// parked** — so a deadlocked or finished system truly goes
    /// quiescent ([`Cosim::run_to_quiescence`]) instead of toggling its
    /// activation clocks forever. A parked body re-armed by a wire
    /// event bumps the demand back and kicks the generators awake.
    domains: Vec<ClockDomainEntry>,
    /// Every domain's activation clocks in domain order
    /// (`[hw0, sw0, hw1, sw1, ...]`) — the module driver's clock
    /// sensitivity.
    clock_list: Vec<SignalId>,
    /// Boundary half-links installed on this backplane (partitioned
    /// co-simulation). Boundary closures reach state the fork recipe
    /// cannot replay (queues shared with another backplane), so
    /// [`Cosim::fork`] is rejected while any exist.
    boundaries: usize,
}

impl fmt::Debug for Cosim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cosim")
            .field("modules", &self.modules.borrow().len())
            .field("units", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl Cosim {
    /// Creates a backplane with HW and SW activation clocks.
    #[must_use]
    pub fn new(config: CosimConfig) -> Self {
        let mut sim = Simulator::new();
        let hw_clk = sim.add_bit("HW_CLK");
        let sw_clk = sim.add_bit("SW_CLK");
        let kick = sim.add_bit("CLK_KICK");
        let demand = Rc::new(ClockDemand {
            demand: Cell::new(0),
            kick,
        });
        install_clock_generators(
            &mut sim,
            "",
            (hw_clk, config.hw_cycle),
            (sw_clk, config.sw_cycle),
            &demand,
        );
        Cosim {
            sim,
            registry: Rc::new(RefCell::new(Registry {
                fsm: vec![],
                native: vec![],
                batched: vec![],
            })),
            handles: vec![],
            unit_names: HashMap::new(),
            error: Rc::new(RefCell::new(None)),
            trace: Rc::new(RefCell::new(TraceLog::new())),
            modules: Rc::new(RefCell::new(vec![])),
            sched: ActivationScheduler::new(SchedulingConfig::sharded()),
            config,
            recipe: vec![],
            domains: vec![ClockDomainEntry {
                name: String::new(),
                ratio: ClockRatio::UNIT,
                hw_clk,
                sw_clk,
                demand,
            }],
            clock_list: vec![hw_clk, sw_clk],
            boundaries: 0,
        }
    }

    /// Creates a clock domain running at `num:den` times the base
    /// domain's *period* — `add_clock_domain("slow", 4, 1)` gives a
    /// domain whose members see one rising edge for every four base
    /// edges (a quarter-rate domain). All domains share the global
    /// femtosecond time axis; only the activation-clock periods differ.
    ///
    /// Domains must be created while the backplane is empty (before any
    /// unit or module), so the module driver's clock sensitivity and
    /// the per-domain shard pools are complete before placement starts.
    /// Shards never mix clock domains: every shard pool is split per
    /// domain, so a shard's members share one activation clock pair and
    /// one clock-demand ledger.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] when units or modules were already
    /// added, when either ratio component is zero, when the scaled
    /// period would truncate to zero, or when `name` is empty or already
    /// taken.
    pub fn add_clock_domain(
        &mut self,
        name: &str,
        num: u64,
        den: u64,
    ) -> Result<DomainId, CosimError> {
        if !self.handles.is_empty() || !self.modules.borrow().is_empty() {
            return Err(CosimError::Setup(
                "clock domains must be created before units or modules".to_string(),
            ));
        }
        let Some(ratio) = ClockRatio::try_new(num, den) else {
            return Err(CosimError::Setup(format!(
                "clock domain {name}: rate ratio components must be nonzero (got {num}:{den})"
            )));
        };
        let hw_cycle = ratio.scale(self.config.hw_cycle);
        let sw_cycle = ratio.scale(self.config.sw_cycle);
        if hw_cycle.halved() == Duration::ZERO || sw_cycle.halved() == Duration::ZERO {
            return Err(CosimError::Setup(format!(
                "clock domain {name}: ratio {ratio} scales the activation period to zero"
            )));
        }
        if name.is_empty() {
            return Err(CosimError::Setup(
                "clock domain name must be non-empty (the base domain is unnamed)".to_string(),
            ));
        }
        if self.domains.iter().any(|d| d.name == name) {
            return Err(CosimError::Setup(format!(
                "clock domain {name} already exists"
            )));
        }
        self.recipe.push(RecipeOp::ClockDomain {
            name: name.to_string(),
            num,
            den,
        });
        let hw_clk = self.sim.add_bit(format!("{name}.HW_CLK"));
        let sw_clk = self.sim.add_bit(format!("{name}.SW_CLK"));
        let kick = self.sim.add_bit(format!("{name}.CLK_KICK"));
        let demand = Rc::new(ClockDemand {
            demand: Cell::new(0),
            kick,
        });
        install_clock_generators(
            &mut self.sim,
            &format!("{name}."),
            (hw_clk, hw_cycle),
            (sw_clk, sw_cycle),
            &demand,
        );
        self.clock_list.push(hw_clk);
        self.clock_list.push(sw_clk);
        self.domains.push(ClockDomainEntry {
            name: name.to_string(),
            ratio,
            hw_clk,
            sw_clk,
            demand,
        });
        self.sched.add_domain_pool();
        Ok(DomainId(self.domains.len() - 1))
    }

    /// Looks up a clock domain by name (the base domain is unnamed —
    /// use [`DomainId::BASE`]).
    #[must_use]
    pub fn find_domain(&self, name: &str) -> Option<DomainId> {
        self.domains
            .iter()
            .position(|d| d.name == name)
            .map(DomainId)
    }

    /// Number of clock domains (at least one: the base domain).
    #[must_use]
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Period ratio of a domain versus the base domain.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this backplane.
    #[must_use]
    pub fn domain_ratio(&self, d: DomainId) -> ClockRatio {
        self.domains[d.0].ratio
    }

    /// Pins every clock domain's activation-clock generators awake by
    /// registering one permanent unit of clock demand per domain.
    ///
    /// A pinned backplane's clock edges stay on the exact
    /// `k · period/2` grid forever — the generators never idle, so a
    /// resumed body always waits for the next grid edge instead of
    /// seeing a kick-aligned edge at its resume instant. Partitioned
    /// runs require this: every partition (and the monolithic oracle it
    /// is compared against) must produce the same edge grid regardless
    /// of how the cut distributes demand. The price is that a pinned
    /// backplane never goes quiescent on its own
    /// ([`Cosim::run_to_quiescence`] will always hit its limit).
    pub fn pin_clock_domains(&mut self) {
        for d in &self.domains {
            d.demand.register(&mut self.sim);
        }
    }

    /// Selects the full scheduling configuration (unit dispatch, module
    /// dispatch, parking). Must be called before any unit or module is
    /// added.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] if units or modules were already
    /// added, or a shard size is zero.
    pub fn set_scheduling(&mut self, cfg: SchedulingConfig) -> Result<(), CosimError> {
        if !self.handles.is_empty() || !self.modules.borrow().is_empty() {
            return Err(CosimError::Setup(
                "scheduling must be chosen before adding units or modules".to_string(),
            ));
        }
        cfg.validate()?;
        self.sched.cfg = cfg;
        Ok(())
    }

    /// The active scheduling configuration.
    #[must_use]
    pub fn scheduling(&self) -> SchedulingConfig {
        self.sched.cfg
    }

    /// Aggregate activation-scheduler statistics (shard counters are
    /// zero under the per-unit/per-module paths; park counters cover
    /// both).
    #[must_use]
    pub fn shard_stats(&self) -> ShardStats {
        self.sched.stats()
    }

    fn sched_ctx(&mut self, domain: usize) -> (&mut ActivationScheduler, SchedCtx<'_>) {
        let d = &self.domains[domain];
        (
            &mut self.sched,
            SchedCtx {
                sim: &mut self.sim,
                registry: &self.registry,
                modules: &self.modules,
                error: &self.error,
                trace: &self.trace,
                demand: &d.demand,
                hw_clk: d.hw_clk,
                domain,
                clocks: &self.clock_list,
            },
        )
    }

    /// The underlying kernel (for signal pokes, VCD, stats).
    #[must_use]
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable kernel access.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The base domain's hardware clock signal.
    #[must_use]
    pub fn hw_clk(&self) -> SignalId {
        self.domains[0].hw_clk
    }

    /// The base domain's software activation clock signal.
    #[must_use]
    pub fn sw_clk(&self) -> SignalId {
        self.domains[0].sw_clk
    }

    /// A domain's hardware clock signal.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this backplane.
    #[must_use]
    pub fn domain_hw_clk(&self, d: DomainId) -> SignalId {
        self.domains[d.0].hw_clk
    }

    /// Instantiates an FSM communication unit: one kernel signal per wire
    /// (`<name>.<WIRE>`), plus a clocked controller process.
    pub fn add_fsm_unit(&mut self, name: &str, spec: Arc<CommUnitSpec>) -> UnitId {
        self.add_fsm_unit_in(DomainId::BASE, name, spec)
            .expect("the base domain always exists")
    }

    /// Checks that a caller-supplied domain id belongs to this
    /// backplane.
    fn check_domain(&self, domain: DomainId, what: &str) -> Result<(), CosimError> {
        if domain.0 >= self.domains.len() {
            return Err(CosimError::Setup(format!(
                "{what}: clock domain #{} does not exist (this backplane has {})",
                domain.0,
                self.domains.len()
            )));
        }
        Ok(())
    }

    /// [`Cosim::add_fsm_unit`] into an explicit clock domain: the
    /// unit's controller steps on that domain's HW clock.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] if the domain id does not belong
    /// to this backplane.
    pub fn add_fsm_unit_in(
        &mut self,
        domain: DomainId,
        name: &str,
        spec: Arc<CommUnitSpec>,
    ) -> Result<UnitId, CosimError> {
        self.check_domain(domain, name)?;
        self.recipe.push(RecipeOp::FsmUnit {
            name: name.to_string(),
            spec: Arc::clone(&spec),
            domain: domain.0,
        });
        let wires: Vec<SignalId> = spec
            .wires()
            .iter()
            .map(|w| {
                self.sim.add_signal(
                    format!("{name}.{}", w.name()),
                    w.ty().clone(),
                    w.init().clone(),
                )
            })
            .collect();
        let has_controller = spec.controller().is_some();
        let runtime = FsmUnitRuntime::new(spec);
        // Completion wires per service: the blocked protocol's read-set
        // mapped onto kernel signals (what a parked caller waits on).
        let completion: Vec<Vec<SignalId>> = runtime
            .spec()
            .services()
            .iter()
            .map(|svc| {
                runtime
                    .completion_signals(svc.name())
                    .iter()
                    .map(|p| wires[p.index()])
                    .collect()
            })
            .collect();
        let idx = {
            let mut reg = self.registry.borrow_mut();
            reg.fsm.push(FsmUnitEntry {
                name: name.to_string(),
                runtime,
                wires: wires.clone(),
                completion,
            });
            reg.fsm.len() - 1
        };
        if has_controller {
            match self.sched.cfg.units {
                UnitScheduling::Sharded { .. } => {
                    let (sched, ctx) = self.sched_ctx(domain.0);
                    sched.add_unit_member(ctx, Handle::Fsm(idx), wires);
                }
                UnitScheduling::PerUnit => {
                    let registry = Rc::clone(&self.registry);
                    let error = Rc::clone(&self.error);
                    let clk = self.domains[domain.0].hw_clk;
                    // The kernel's monotone per-signal event counts tell the
                    // controller whether any of its wires changed since its
                    // last activation; provably idle controllers are then
                    // skipped (see FsmUnitRuntime::step_controller_if_active).
                    let watched = wires;
                    // The gate state is shared with the scheduler so
                    // snapshots can capture and restore it.
                    let seen = Rc::new(RefCell::new(vec![0u64; watched.len()]));
                    self.sched.per_unit_seen.push(Rc::clone(&seen));
                    let demand = Rc::clone(&self.domains[domain.0].demand);
                    demand.register(&mut self.sim);
                    self.sim.add_clocked(
                        format!("{name}.controller"),
                        clk,
                        Edge::Rising,
                        move |ctx| {
                            if error.borrow().is_some() {
                                demand.park(1);
                                return ClockControl::Halt;
                            }
                            let inputs_changed =
                                wires_changed(ctx, &watched, &mut seen.borrow_mut());
                            let mut reg = registry.borrow_mut();
                            let FsmUnitEntry {
                                name,
                                runtime,
                                wires,
                                ..
                            } = &mut reg.fsm[idx];
                            let mut ws = CtxWires {
                                ctx,
                                map: wires,
                                cycle: Duration::ZERO,
                            };
                            if let Err(e) =
                                runtime.step_controller_if_active(&mut ws, inputs_changed)
                            {
                                *error.borrow_mut() = Some(format!("unit {name} controller: {e}"));
                                demand.park(1);
                                return ClockControl::Halt;
                            }
                            ClockControl::Continue
                        },
                    );
                }
            }
        }
        let id = UnitId(self.handles.len());
        self.handles.push(Handle::Fsm(idx));
        self.unit_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Installs a batched bus link ([`BatchedLink`]): producer `put`
    /// calls enqueue into a vec-backed payload queue, whole batches cross
    /// the unit's wire-level handshake in a *single* bus transaction, and
    /// consumer `get` calls pop delivered values. Modules bind to it like
    /// any other unit and call its `put`/`get` services. Batch size
    /// adapts to the observed queue depth, up to `max_batch`.
    ///
    /// `max_batch` bounds one bus transaction; `capacity` bounds total
    /// link occupancy (producer backpressure). The bus timing model is
    /// [`BusTiming::LengthOnly`]; use [`Cosim::add_batched_unit_with`]
    /// for cycle-accurate payload beats.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] if `max_batch` or `capacity` is
    /// zero, or `max_batch` exceeds `i16::MAX` (the INT16 `DATA` wire's
    /// largest representable batch length — the ceiling is never
    /// silently shrunk).
    pub fn add_batched_unit(
        &mut self,
        name: &str,
        data_ty: Type,
        max_batch: usize,
        capacity: usize,
    ) -> Result<UnitId, CosimError> {
        self.add_batched_unit_with(name, data_ty, max_batch, capacity, BusTiming::LengthOnly)
    }

    /// Installs a batched bus link with an explicit [`BusTiming`] model:
    /// [`BusTiming::LengthOnly`] for the co-simulation fast path,
    /// [`BusTiming::PayloadBeats`] for cycle-accurate bus occupancy
    /// (one wire word per value per cycle on `DATA` after the
    /// arbitration handshake) — the calibration side of
    /// [`crate::annotate_batch_latency`].
    ///
    /// # Errors
    ///
    /// Same as [`Cosim::add_batched_unit`].
    pub fn add_batched_unit_with(
        &mut self,
        name: &str,
        data_ty: Type,
        max_batch: usize,
        capacity: usize,
        timing: BusTiming,
    ) -> Result<UnitId, CosimError> {
        self.add_batched_unit_in_with(DomainId::BASE, name, data_ty, max_batch, capacity, timing)
    }

    /// [`Cosim::add_batched_unit_with`] into an explicit clock domain:
    /// the link pumps on that domain's HW clock, and its pre-scheduled
    /// payload beats ride the domain's (ratio-scaled) cycle — a 4:1
    /// domain's bus moves one word every fourth base period.
    ///
    /// # Errors
    ///
    /// Same as [`Cosim::add_batched_unit`], plus [`CosimError::Setup`]
    /// if the domain id does not belong to this backplane.
    pub fn add_batched_unit_in_with(
        &mut self,
        domain: DomainId,
        name: &str,
        data_ty: Type,
        max_batch: usize,
        capacity: usize,
        timing: BusTiming,
    ) -> Result<UnitId, CosimError> {
        self.check_domain(domain, name)?;
        let link = BatchedLink::try_new(name, data_ty.clone(), max_batch, capacity)
            .map_err(|e| CosimError::Setup(e.to_string()))?
            .with_timing(timing);
        self.recipe.push(RecipeOp::BatchedUnit {
            name: name.to_string(),
            data_ty,
            max_batch,
            capacity,
            timing,
            domain: domain.0,
        });
        let wires: Vec<SignalId> = link
            .spec()
            .wires()
            .iter()
            .map(|w| {
                self.sim.add_signal(
                    format!("{name}.{}", w.name()),
                    w.ty().clone(),
                    w.init().clone(),
                )
            })
            .collect();
        // By service position: `put` 0, `get` 1.
        let completion: Vec<Vec<SignalId>> = ["put", "get"]
            .iter()
            .map(|svc| {
                link.completion_signals(svc)
                    .iter()
                    .map(|p| wires[p.index()])
                    .collect()
            })
            .collect();
        // Activation gate and park watch: only the wires someone other
        // than the link's own pump can event (`PENDING`, raised by a
        // producer's `put`). Watching the full wire table would wake
        // the parked link — and re-arm its controller gate — once per
        // self-driven beat/handshake event for no behavioural gain.
        let wake: Vec<SignalId> = link
            .pump_wake_signals()
            .iter()
            .map(|p| wires[p.index()])
            .collect();
        let idx = {
            let mut reg = self.registry.borrow_mut();
            reg.batched.push(BatchedUnitEntry {
                name: name.to_string(),
                link,
                wires: wires.clone(),
                cycle: self.domains[domain.0].ratio.scale(self.config.hw_cycle),
                completion,
            });
            reg.batched.len() - 1
        };
        match self.sched.cfg.units {
            UnitScheduling::Sharded { .. } => {
                let (sched, ctx) = self.sched_ctx(domain.0);
                sched.add_unit_member(ctx, Handle::Batched(idx), wake);
            }
            UnitScheduling::PerUnit => {
                let registry = Rc::clone(&self.registry);
                let error = Rc::clone(&self.error);
                let clk = self.domains[domain.0].hw_clk;
                let watched = wake;
                let seen = Rc::new(RefCell::new(vec![0u64; watched.len()]));
                self.sched.per_unit_seen.push(Rc::clone(&seen));
                let demand = Rc::clone(&self.domains[domain.0].demand);
                demand.register(&mut self.sim);
                self.sim
                    .add_clocked(format!("{name}.pump"), clk, Edge::Rising, move |ctx| {
                        if error.borrow().is_some() {
                            demand.park(1);
                            return ClockControl::Halt;
                        }
                        let inputs_changed = wires_changed(ctx, &watched, &mut seen.borrow_mut());
                        let mut reg = registry.borrow_mut();
                        let BatchedUnitEntry {
                            name,
                            link,
                            wires,
                            cycle,
                            ..
                        } = &mut reg.batched[idx];
                        let mut ws = CtxWires {
                            ctx,
                            map: wires,
                            cycle: *cycle,
                        };
                        if let Err(e) = link.pump(&mut ws, inputs_changed) {
                            *error.borrow_mut() = Some(format!("batched link {name}: {e}"));
                            demand.park(1);
                            return ClockControl::Halt;
                        }
                        ClockControl::Continue
                    });
            }
        }
        let id = UnitId(self.handles.len());
        self.handles.push(Handle::Batched(idx));
        self.unit_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Installs the *sending* half of a boundary link: a regular batched
    /// unit whose delivered values are exported — stamped with
    /// `now + latency` — into the shared [`BoundaryQueue`] on every
    /// rising edge of the domain's HW clock. Producers in this
    /// partition `put` into it exactly as they would into a local
    /// [`BatchedLink`]; the matching *in* half
    /// ([`Cosim::add_boundary_in`]) on the other partition re-injects
    /// the values after the annotated latency.
    ///
    /// The exporter holds one permanent unit of clock demand (a
    /// boundary must keep observing its clock even when the rest of the
    /// partition is parked), and the backplane refuses [`Cosim::fork`]
    /// while boundary halves exist — their closures reach a queue the
    /// construction recipe cannot replay.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add_boundary_out(
        &mut self,
        domain: DomainId,
        name: &str,
        data_ty: Type,
        max_batch: usize,
        capacity: usize,
        timing: BusTiming,
        latency: Duration,
        queue: Rc<RefCell<BoundaryQueue>>,
    ) -> Result<UnitId, CosimError> {
        if latency == Duration::ZERO {
            return Err(CosimError::Setup(format!(
                "boundary link {name}: latency must be positive (zero-latency coupling \
                 would need same-instant cross-partition delivery, which leaves the \
                 conservative sync no lookahead window)"
            )));
        }
        let id =
            self.add_batched_unit_in_with(domain, name, data_ty, max_batch, capacity, timing)?;
        let Handle::Batched(idx) = self.handles[id.0] else {
            unreachable!("add_batched_unit_in_with returns a batched handle");
        };
        let registry = Rc::clone(&self.registry);
        let error = Rc::clone(&self.error);
        let demand = Rc::clone(&self.domains[domain.0].demand);
        demand.register(&mut self.sim);
        let clk = self.domains[domain.0].hw_clk;
        self.sim
            .add_clocked(format!("{name}.export"), clk, Edge::Rising, move |ctx| {
                if error.borrow().is_some() {
                    demand.park(1);
                    return ClockControl::Halt;
                }
                let now = ctx.now();
                let mut reg = registry.borrow_mut();
                let BatchedUnitEntry {
                    name,
                    link,
                    wires,
                    cycle,
                    ..
                } = &mut reg.batched[idx];
                loop {
                    let mut ws = CtxWires {
                        ctx,
                        map: wires,
                        cycle: *cycle,
                    };
                    match link.get(BOUNDARY_CALLER, &mut ws) {
                        Ok(out) if out.done => {
                            let v = out.result.expect("done get always carries a value");
                            queue.borrow_mut().entries.push((now + latency, v));
                        }
                        Ok(_) => break,
                        Err(e) => {
                            *error.borrow_mut() = Some(format!("boundary link {name}: {e}"));
                            demand.park(1);
                            return ClockControl::Halt;
                        }
                    }
                }
                ClockControl::Continue
            });
        self.boundaries += 1;
        Ok(id)
    }

    /// Installs the *receiving* half of a boundary link: a regular
    /// batched unit into which queue entries whose arrival time has
    /// been reached are injected (`put`) on every rising edge of the
    /// domain's HW clock. Consumers in this partition `get` from it
    /// exactly as from a local [`BatchedLink`]. A `put` rejected by
    /// backpressure leaves the cursor in place and retries next edge.
    ///
    /// Holds one permanent unit of clock demand, like
    /// [`Cosim::add_boundary_out`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add_boundary_in(
        &mut self,
        domain: DomainId,
        name: &str,
        data_ty: Type,
        max_batch: usize,
        capacity: usize,
        timing: BusTiming,
        queue: Rc<RefCell<BoundaryQueue>>,
    ) -> Result<UnitId, CosimError> {
        let id =
            self.add_batched_unit_in_with(domain, name, data_ty, max_batch, capacity, timing)?;
        let Handle::Batched(idx) = self.handles[id.0] else {
            unreachable!("add_batched_unit_in_with returns a batched handle");
        };
        let registry = Rc::clone(&self.registry);
        let error = Rc::clone(&self.error);
        let demand = Rc::clone(&self.domains[domain.0].demand);
        demand.register(&mut self.sim);
        let clk = self.domains[domain.0].hw_clk;
        self.sim
            .add_clocked(format!("{name}.inject"), clk, Edge::Rising, move |ctx| {
                if error.borrow().is_some() {
                    demand.park(1);
                    return ClockControl::Halt;
                }
                let now = ctx.now();
                let mut reg = registry.borrow_mut();
                let BatchedUnitEntry {
                    name,
                    link,
                    wires,
                    cycle,
                    ..
                } = &mut reg.batched[idx];
                loop {
                    let next = {
                        let q = queue.borrow();
                        q.entries.get(q.cursor).cloned()
                    };
                    let Some((t_arr, v)) = next else { break };
                    if t_arr > now {
                        break;
                    }
                    let mut ws = CtxWires {
                        ctx,
                        map: wires,
                        cycle: *cycle,
                    };
                    match link.put(BOUNDARY_CALLER, v, &mut ws) {
                        Ok(out) if out.done => queue.borrow_mut().cursor += 1,
                        Ok(_) => break,
                        Err(e) => {
                            *error.borrow_mut() = Some(format!("boundary link {name}: {e}"));
                            demand.park(1);
                            return ClockControl::Halt;
                        }
                    }
                }
                ClockControl::Continue
            });
        self.boundaries += 1;
        Ok(id)
    }

    /// Installs a native (platform) unit. Units with real background
    /// activity ([`NativeUnit::needs_step`]) are stepped once per HW
    /// cycle; purely call-driven units cost nothing per cycle under
    /// sharded scheduling.
    ///
    /// A unit exposing [`NativeUnit::occupancy`] gets a kernel `OCC`
    /// signal (`<name>.OCC`) mirroring its queue occupancy, driven after
    /// every call and step. That makes native state changes
    /// wire-visible: `completion_signals` become non-empty, so a caller
    /// blocked on the unit (e.g. `get` against an empty FIFO) *parks*
    /// on occupancy events instead of burning one no-op activation per
    /// clock edge.
    pub fn add_native_unit(&mut self, name: &str, unit: Box<dyn NativeUnit>) -> UnitId {
        self.add_native_unit_in(DomainId::BASE, name, unit)
            .expect("the base domain always exists")
    }

    /// [`Cosim::add_native_unit`] into an explicit clock domain: the
    /// unit's background steps run on that domain's HW clock.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] if the domain id does not belong
    /// to this backplane.
    pub fn add_native_unit_in(
        &mut self,
        domain: DomainId,
        name: &str,
        unit: Box<dyn NativeUnit>,
    ) -> Result<UnitId, CosimError> {
        self.check_domain(domain, name)?;
        self.recipe.push(RecipeOp::NativeUnit {
            name: name.to_string(),
            domain: domain.0,
        });
        let occ_init = unit.occupancy();
        let occ = occ_init.map(|v| {
            self.sim
                .add_signal(format!("{name}.OCC"), Type::INT16, Value::Int(v))
        });
        let completion: Vec<SignalId> = occ.into_iter().collect();
        let idx = {
            let mut reg = self.registry.borrow_mut();
            reg.native.push(NativeEntry {
                name: name.to_string(),
                unit,
                occ,
                occ_driven: occ_init.unwrap_or(0),
                completion: completion.clone(),
            });
            reg.native.len() - 1
        };
        match self.sched.cfg.units {
            UnitScheduling::Sharded { .. } => {
                let (sched, ctx) = self.sched_ctx(domain.0);
                sched.add_unit_member(ctx, Handle::Native(idx), completion);
            }
            UnitScheduling::PerUnit => {
                let registry = Rc::clone(&self.registry);
                let clk = self.domains[domain.0].hw_clk;
                let demand = Rc::clone(&self.domains[domain.0].demand);
                demand.register(&mut self.sim);
                self.sim
                    .add_clocked(format!("{name}.step"), clk, Edge::Rising, move |ctx| {
                        let mut reg = registry.borrow_mut();
                        let entry = &mut reg.native[idx];
                        entry.unit.step();
                        sync_native_occ(entry, ctx);
                        ClockControl::Continue
                    });
            }
        }
        let id = UnitId(self.handles.len());
        self.handles.push(Handle::Native(idx));
        self.unit_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks up a unit by instance name.
    #[must_use]
    pub fn unit(&self, name: &str) -> Option<UnitId> {
        self.unit_names.get(name).copied()
    }

    /// Adds a module whose ports get fresh kernel signals named
    /// `<module>.<PORT>`. `bindings` maps binding names to unit ids.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] if a binding name is unknown or left
    /// unbound.
    pub fn add_module(
        &mut self,
        module: &Module,
        bindings: &[(&str, UnitId)],
    ) -> Result<CosimModuleId, CosimError> {
        self.add_module_in(DomainId::BASE, module, bindings)
    }

    /// [`Cosim::add_module`] into an explicit clock domain: the module
    /// activates on that domain's HW or SW clock (by
    /// [`ModuleKind`]), so a 4:1 domain's module performs one FSM
    /// transition for every four base-domain activations.
    ///
    /// # Errors
    ///
    /// Same as [`Cosim::add_module`], plus [`CosimError::Setup`] if the
    /// domain id does not belong to this backplane.
    pub fn add_module_in(
        &mut self,
        domain: DomainId,
        module: &Module,
        bindings: &[(&str, UnitId)],
    ) -> Result<CosimModuleId, CosimError> {
        self.check_domain(domain, module.name())?;
        let ports: Vec<SignalId> = module
            .ports()
            .iter()
            .map(|p| {
                self.sim.add_signal(
                    format!("{}.{}", module.name(), p.name()),
                    p.ty().clone(),
                    p.ty().default_value(),
                )
            })
            .collect();
        let id = self.install_module(domain, module, bindings, ports)?;
        // Ports recorded as `None`: the fork replays by creating fresh
        // port signals, which — replayed in call order — get the same
        // ids the originals got.
        self.recipe.push(RecipeOp::Module {
            module: module.clone(),
            bindings: bindings
                .iter()
                .map(|(n, u)| ((*n).to_string(), *u))
                .collect(),
            ports: None,
            domain: domain.0,
        });
        Ok(id)
    }

    /// Adds a module with an explicit port→signal map (used to share nets
    /// between the processes of one VHDL entity). `ports[i]` carries the
    /// signal for the module's `PortId(i)`.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] on arity mismatch or unresolved
    /// bindings.
    pub fn add_module_with_ports(
        &mut self,
        module: &Module,
        bindings: &[(&str, UnitId)],
        ports: Vec<SignalId>,
    ) -> Result<CosimModuleId, CosimError> {
        let id = self.install_module(DomainId::BASE, module, bindings, ports.clone())?;
        self.recipe.push(RecipeOp::Module {
            module: module.clone(),
            bindings: bindings
                .iter()
                .map(|(n, u)| ((*n).to_string(), *u))
                .collect(),
            ports: Some(ports),
            domain: 0,
        });
        Ok(id)
    }

    /// Shared installation body behind [`Cosim::add_module`] and
    /// [`Cosim::add_module_with_ports`], which differ only in port-signal
    /// provenance and in what they record on the fork recipe.
    fn install_module(
        &mut self,
        domain: DomainId,
        module: &Module,
        bindings: &[(&str, UnitId)],
        ports: Vec<SignalId>,
    ) -> Result<CosimModuleId, CosimError> {
        if ports.len() != module.ports().len() {
            return Err(CosimError::Setup(format!(
                "module {}: {} signals provided for {} ports",
                module.name(),
                ports.len(),
                module.ports().len()
            )));
        }
        let mut handle_by_binding: Vec<Option<Handle>> = vec![None; module.bindings().len()];
        for (bname, uid) in bindings {
            let Some(bid) = module.binding_id(bname) else {
                return Err(CosimError::Setup(format!(
                    "module {} has no binding named {bname}",
                    module.name()
                )));
            };
            handle_by_binding[bid.index()] = Some(self.handles[uid.0]);
        }
        let mut resolved = Vec::with_capacity(handle_by_binding.len());
        for (i, h) in handle_by_binding.into_iter().enumerate() {
            match h {
                Some(h) => resolved.push(h),
                None => {
                    return Err(CosimError::Setup(format!(
                        "module {}: binding {} left unbound",
                        module.name(),
                        module.bindings()[i].name()
                    )))
                }
            }
        }

        let sites = resolve_call_sites(module, &resolved, &self.registry.borrow());
        let idx = self.modules.borrow().len();
        let caller = CallerId(idx as u64);
        let clk = match module.kind() {
            ModuleKind::Hardware => self.domains[domain.0].hw_clk,
            ModuleKind::Software => self.domains[domain.0].sw_clk,
        };
        let exec = FsmExec::new(module.fsm());
        let status = ModuleStatus {
            state: module
                .fsm()
                .state(module.fsm().initial())
                .name()
                .to_string(),
            activations: 0,
            error: None,
        };
        self.modules.borrow_mut().push(ModuleEntry {
            name: module.name().to_string(),
            module: module.clone(),
            exec,
            ports,
            vars: module.vars().iter().map(|v| v.init().clone()).collect(),
            var_tys: module.vars().iter().map(|v| v.ty().clone()).collect(),
            sites,
            trace_names: ModuleTraceNames {
                source: TraceName::new(module.name()),
                labels: Vec::new(),
            },
            caller,
            status,
        });
        match self.sched.cfg.modules {
            ModuleScheduling::Sharded { .. } => {
                let (sched, ctx) = self.sched_ctx(domain.0);
                sched.add_driver_module(ctx, idx, clk);
            }
            ModuleScheduling::PerModule => {
                let demand = Rc::clone(&self.domains[domain.0].demand);
                self.register_per_module_process(idx, clk, demand);
            }
        }
        Ok(CosimModuleId(idx))
    }

    /// Registers the classic one-process-per-module path. The process
    /// steps its module on every rising clock edge; when the module
    /// proves stable it *parks* — swapping its clock sensitivity for
    /// the module's watch wires — unless parking is disabled.
    fn register_per_module_process(&mut self, idx: usize, clk: SignalId, demand: Rc<ClockDemand>) {
        let modules = Rc::clone(&self.modules);
        let registry = Rc::clone(&self.registry);
        let error = Rc::clone(&self.error);
        let trace = Rc::clone(&self.trace);
        let park = Rc::clone(&self.sched.park);
        let park_blocked = self.sched.cfg.park_blocked;
        let name = modules.borrow()[idx].name.clone();
        demand.register(&mut self.sim);
        // The scheduling state lives behind an Rc shared with the
        // activation scheduler, so whole-backplane snapshots can
        // capture and restore it.
        let pstate = Rc::new(RefCell::new(PerModuleProcState {
            counted: true,
            parked: false,
            watch: vec![],
            wait_dirty: true,
        }));
        self.sched.per_module.push(Rc::clone(&pstate));
        // Pooled execution env for this module's activations: pure
        // scratch, owned by the process closure so it never enters a
        // snapshot.
        let mut scratch = ModuleScratch::default();
        self.sim.add_process(
            name,
            FnProcess::new(move |ctx| {
                let mut ps = pstate.borrow_mut();
                let ps = &mut *ps;
                if error.borrow().is_some() {
                    if ps.counted {
                        ps.counted = false;
                        demand.park(1);
                    }
                    return Wait::Forever;
                }
                if ps.parked {
                    if ps.watch.iter().any(|&w| ctx.event(w)) {
                        ps.parked = false;
                        ps.wait_dirty = true;
                        park.resumed.set(park.resumed.get() + 1);
                        park.parked_now.set(park.parked_now.get() - 1);
                        demand.resume(1, ctx);
                        ps.counted = true;
                    } else if !ps.wait_dirty {
                        return Wait::Same;
                    }
                }
                if !ps.parked && ctx.rose(clk) {
                    match step_module(
                        &modules,
                        idx,
                        &registry,
                        &trace,
                        &park,
                        park_blocked,
                        ctx,
                        &mut scratch,
                    ) {
                        Ok(Some(w)) => {
                            ps.parked = true;
                            // Hand the displaced buffer back to the
                            // scratch pool so the next park's watch
                            // list builds in recycled capacity.
                            let mut displaced = std::mem::replace(&mut ps.watch, w);
                            if scratch.watch.capacity() < displaced.capacity() {
                                displaced.clear();
                                scratch.watch = displaced;
                            }
                            ps.wait_dirty = true;
                            park.parked.set(park.parked.get() + 1);
                            park.parked_now.set(park.parked_now.get() + 1);
                            demand.park(1);
                            ps.counted = false;
                        }
                        Ok(None) => {}
                        Err(msg) => {
                            *error.borrow_mut() = Some(msg);
                            if ps.counted {
                                ps.counted = false;
                                demand.park(1);
                            }
                            return Wait::Forever;
                        }
                    }
                }
                if !ps.wait_dirty {
                    return Wait::Same;
                }
                ps.wait_dirty = false;
                if ps.parked {
                    if ps.watch.is_empty() {
                        // A provably-halted module: nothing can ever
                        // re-arm it.
                        Wait::Forever
                    } else {
                        let mut sens = ctx.wait_buf();
                        sens.extend_from_slice(&ps.watch);
                        Wait::Event(sens)
                    }
                } else {
                    let mut sens = ctx.wait_buf();
                    sens.push(clk);
                    Wait::Event(sens)
                }
            }),
        );
    }

    /// Assembles a validated [`cosma_core::System`]: every unit instance
    /// and module is added, with bindings resolved as declared.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] on assembly problems.
    pub fn add_system(
        &mut self,
        sys: &cosma_core::System,
    ) -> Result<Vec<CosimModuleId>, CosimError> {
        let unit_ids: Vec<UnitId> = sys
            .units()
            .iter()
            .map(|u| self.add_fsm_unit(u.name(), u.spec().clone()))
            .collect();
        let mut module_ids = vec![];
        for (mi, module) in sys.modules().iter().enumerate() {
            let mut binds: Vec<(&str, UnitId)> = vec![];
            for (bi, b) in module.bindings().iter().enumerate() {
                let Some(ui) = sys.unit_index_for(mi, cosma_core::ids::BindingId::new(bi as u32))
                else {
                    return Err(CosimError::Setup(format!(
                        "system {}: module {} binding {} unbound",
                        sys.name(),
                        module.name(),
                        b.name()
                    )));
                };
                binds.push((b.name(), unit_ids[ui]));
            }
            module_ids.push(self.add_module(module, &binds)?);
        }
        Ok(module_ids)
    }

    /// Runs the co-simulation for a span.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Runtime`] if any module or controller hit an
    /// evaluation error, or [`CosimError::Sim`] on kernel errors.
    pub fn run_for(&mut self, d: Duration) -> Result<(), CosimError> {
        self.sim.run_for(d)?;
        if let Some(msg) = self.error.borrow().clone() {
            return Err(CosimError::Runtime(msg));
        }
        Ok(())
    }

    /// Runs until an absolute deadline.
    ///
    /// # Errors
    ///
    /// Same as [`Cosim::run_for`].
    pub fn run_until(&mut self, t: SimTime) -> Result<(), CosimError> {
        self.sim.run_until(t)?;
        if let Some(msg) = self.error.borrow().clone() {
            return Err(CosimError::Runtime(msg));
        }
        Ok(())
    }

    /// Whether any kernel activity is still scheduled
    /// ([`Simulator::pending_activity`]). Once false, further runs can
    /// never change a signal: the backplane is quiescent for good (all
    /// processes halted or waiting forever).
    #[must_use]
    pub fn pending_activity(&self) -> bool {
        self.sim.pending_activity()
    }

    /// Run-to-quiescence: advances until `limit` or until the kernel has
    /// nothing scheduled, whichever comes first. Returns `true` when
    /// quiescence was reached — the final state is then the system's
    /// forever state, and harness loops (e.g.
    /// `run_to_completion`-style chunked polling) can stop early.
    ///
    /// The activation clock generators park once every
    /// backplane-registered clocked body (module, unit controller,
    /// native step) has halted, so an empty or fully-halted backplane
    /// really does quiesce. Processes registered directly through
    /// [`Cosim::sim_mut`] are not counted: they see clock edges only
    /// while at least one backplane body keeps the clocks alive.
    ///
    /// # Errors
    ///
    /// Same as [`Cosim::run_for`].
    pub fn run_to_quiescence(&mut self, limit: SimTime) -> Result<bool, CosimError> {
        self.run_until(limit)?;
        Ok(!self.sim.pending_activity())
    }

    /// Live status of a module.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this backplane.
    #[must_use]
    pub fn module_status(&self, id: CosimModuleId) -> ModuleStatus {
        self.modules.borrow()[id.0].status.clone()
    }

    /// Finds a module id by name.
    #[must_use]
    pub fn find_module(&self, name: &str) -> Option<CosimModuleId> {
        self.modules
            .borrow()
            .iter()
            .position(|e| e.name == name)
            .map(CosimModuleId)
    }

    /// Current value of a module variable, by name. `None` when the
    /// module has no such variable, or when `id` does not belong to
    /// this backplane.
    #[must_use]
    pub fn module_var(&self, id: CosimModuleId, var: &str) -> Option<Value> {
        let modules = self.modules.borrow();
        let e = modules.get(id.0)?;
        let vid = e.module.var_id(var)?;
        e.vars.get(vid.index()).cloned()
    }

    /// Statistics of a unit instance.
    #[must_use]
    pub fn unit_stats(&self, name: &str) -> Option<UnitStats> {
        let id = self.unit_names.get(name)?;
        let reg = self.registry.borrow();
        match self.handles[id.0] {
            Handle::Fsm(i) => Some(reg.fsm[i].runtime.stats()),
            Handle::Native(i) => Some(reg.native[i].unit.stats()),
            Handle::Batched(i) => Some(reg.batched[i].link.stats()),
        }
    }

    /// Snapshot of the trace log.
    #[must_use]
    pub fn trace_log(&self) -> TraceLog {
        self.trace.borrow().clone()
    }

    /// Appends an external event to the trace log (used by testbench
    /// processes).
    pub fn trace_handle(&self) -> Rc<RefCell<TraceLog>> {
        Rc::clone(&self.trace)
    }
}

/// Installs one clock domain's demand-gated activation-clock generator
/// pair. Like `Simulator::add_clock`, but each generator idles while no
/// clocked body of its domain demands edges (all halted OR all parked)
/// and is re-armed through the domain's kick signal when a parked body
/// resumes.
///
/// Edges stay per-run *process* drives on purpose: a pre-scheduled
/// timed-drive train would make clock events visible in delta 0 of
/// their instant (a process drive lands in delta 1), merging
/// same-instant clock/completion interactions that the scheduler
/// variants resolve through different wake paths — which breaks their
/// delta-level equivalence.
fn install_clock_generators(
    sim: &mut Simulator,
    prefix: &str,
    hw: (SignalId, Duration),
    sw: (SignalId, Duration),
    demand: &Rc<ClockDemand>,
) {
    for (name, clk, period) in [
        (format!("{prefix}hw_clkgen"), hw.0, hw.1),
        (format!("{prefix}sw_clkgen"), sw.0, sw.1),
    ] {
        let demand = Rc::clone(demand);
        let half = period.halved();
        sim.add_process(
            name,
            FnProcess::new(move |ctx| {
                if demand.demand.get() <= 0 {
                    let mut sens = ctx.wait_buf();
                    sens.push(demand.kick);
                    return Wait::Event(sens);
                }
                let next = match ctx.read(clk) {
                    cosma_core::Value::Bit(cosma_core::Bit::One) => cosma_core::Bit::Zero,
                    _ => cosma_core::Bit::One,
                };
                ctx.drive(clk, cosma_core::Value::Bit(next));
                Wait::Timeout(half)
            }),
        );
    }
}

/// Diffs a wire set's monotone kernel event counts against the last
/// observation (updating it in place); `true` when any wire changed
/// since the previous call. This is the activation gate shared by the
/// per-unit clocked processes and the shard scheduler.
fn wires_changed(ctx: &ProcCtx<'_>, watched: &[SignalId], seen: &mut [u64]) -> bool {
    let mut changed = false;
    for (sig, last) in watched.iter().zip(seen.iter_mut()) {
        let n = ctx.event_count(*sig);
        changed |= n != *last;
        *last = n;
    }
    changed
}

/// One construction step of a backplane, recorded by the `add_*`
/// methods so [`Cosim::fork`] can replay it onto a fresh backplane.
/// Replay is deterministic: ids (signals, processes, units, modules)
/// and hashed shard placement depend only on call order, so the twin's
/// structure is bit-identical to the original's.
enum RecipeOp {
    /// [`Cosim::add_clock_domain`] — domains precede every unit and
    /// module, so replay rebuilds the same clock/kick signals and
    /// generator processes before placement starts.
    ClockDomain { name: String, num: u64, den: u64 },
    /// [`Cosim::add_fsm_unit`] — the spec is immutable and shared by
    /// `Arc`, so recording (and replaying) it is a refcount bump.
    FsmUnit {
        name: String,
        spec: Arc<CommUnitSpec>,
        domain: usize,
    },
    /// [`Cosim::add_batched_unit_with`] (and therefore also
    /// [`Cosim::add_batched_unit`], which delegates with
    /// [`BusTiming::LengthOnly`]).
    BatchedUnit {
        name: String,
        data_ty: Type,
        max_batch: usize,
        capacity: usize,
        timing: BusTiming,
        domain: usize,
    },
    /// [`Cosim::add_native_unit`]. The boxed unit itself cannot be
    /// cloned; replay asks the *original* unit for a structural twin
    /// via [`NativeUnit::fork_fresh`] and restores state on top.
    NativeUnit { name: String, domain: usize },
    /// [`Cosim::add_module`] (`ports: None` — replay creates fresh
    /// port signals) or [`Cosim::add_module_with_ports`]
    /// (`ports: Some` — replay reuses the recorded signal ids, which
    /// resolve identically on the twin).
    Module {
        module: Module,
        bindings: Vec<(String, UnitId)>,
        ports: Option<Vec<SignalId>>,
        domain: usize,
    },
}

/// Captured state of one unit shard ([`ShardState`] minus its immutable
/// member bodies).
#[derive(Clone)]
struct ShardSnap {
    /// Per-member wire event-count gates and park flags, in member
    /// order.
    members: Vec<(Vec<u64>, bool)>,
    armed: Vec<bool>,
    active: Vec<u32>,
    clocked: bool,
    halted: bool,
    runs: u64,
    units_stepped: u64,
    units_skipped: u64,
    wire_wakeups: u64,
    watch_probes: u64,
}

fn snap_shard(st: &ShardState) -> ShardSnap {
    ShardSnap {
        members: st
            .members
            .iter()
            .map(|m| (m.seen_events.clone(), m.parked))
            .collect(),
        armed: st.armed.clone(),
        active: st.active.clone(),
        clocked: st.clocked,
        halted: st.halted,
        runs: st.runs,
        units_stepped: st.units_stepped,
        units_skipped: st.units_skipped,
        wire_wakeups: st.wire_wakeups,
        watch_probes: st.watch_probes,
    }
}

fn apply_shard(st: &mut ShardState, snap: &ShardSnap) {
    for (m, (seen, parked)) in st.members.iter_mut().zip(&snap.members) {
        m.seen_events.clone_from(seen);
        m.parked = *parked;
    }
    st.armed.clone_from(&snap.armed);
    st.active.clone_from(&snap.active);
    st.clocked = snap.clocked;
    st.halted = snap.halted;
    st.runs = snap.runs;
    st.units_stepped = snap.units_stepped;
    st.units_skipped = snap.units_skipped;
    st.wire_wakeups = snap.wire_wakeups;
    st.watch_probes = snap.watch_probes;
}

/// Captured state of one module driver shard.
#[derive(Clone)]
struct DriverShardSnap {
    /// Per-member park watch set, park flag and armed wires, in member
    /// order.
    members: Vec<(Vec<SignalId>, bool, Vec<SignalId>)>,
    active: Vec<u32>,
}

/// Captured state of the module driver ([`DriverState`] minus its
/// per-cycle scratch, which is rebuilt each cycle).
#[derive(Clone)]
struct DriverSnap {
    shards: Vec<DriverShardSnap>,
    halted: bool,
    runs: u64,
    skipped: u64,
    wire_wakeups: u64,
}

/// Captured park/resume accounting.
#[derive(Clone)]
struct ParkSnap {
    parked: u64,
    resumed: u64,
    parked_now: usize,
    modules_stepped: u64,
}

/// Captured execution state of one module.
#[derive(Clone)]
struct ModuleSnap {
    exec: FsmExec,
    vars: Vec<Value>,
    status: ModuleStatus,
}

/// A whole-backplane checkpoint: everything that changes as the
/// co-simulation runs, captured by [`Cosim::snapshot`].
///
/// Covers the kernel ([`cosma_sim::SimState`]: signal values, pending
/// drives, timers, process schedule state, stats), every communication
/// unit (FSM controller + protocol sessions, batched-link queues and
/// adaptive batch target, native unit internals), every module (FSM
/// state, variables, status), the activation scheduler (shard
/// active/parked splits, watch sets, event-count gates, module driver
/// state), park/demand accounting, the global error latch, and the
/// trace log.
///
/// **Stats are captured and restored verbatim** — a restored run's
/// counters continue from the snapshot's values, so its *deltas* match
/// the uninterrupted run's deltas exactly.
///
/// Not covered: VCD recording (a running waveform dump is an output
/// stream, not simulation state) and processes registered directly on
/// the kernel through [`Cosim::sim_mut`] — their closure-captured
/// state is invisible to the backplane. Kernel-level schedule state of
/// such processes *is* captured, and [`Cosim::restore`] rejects a
/// snapshot whose process table does not match the target's.
#[derive(Clone)]
pub struct Snapshot {
    sim: SimState,
    fsm: Vec<FsmUnitState>,
    batched: Vec<BatchedLinkState>,
    /// Native unit states, paired with the entry's `occ_driven` mirror.
    /// `None` when the unit does not implement
    /// [`NativeUnit::save_state`] — detected at restore/fork time so
    /// `snapshot()` itself stays infallible.
    native: Vec<(Option<NativeUnitState>, i64)>,
    modules: Vec<ModuleSnap>,
    unit_shards: Vec<ShardSnap>,
    driver: Option<DriverSnap>,
    per_module: Vec<PerModuleProcState>,
    per_unit_seen: Vec<Vec<u64>>,
    park: ParkSnap,
    /// Per-domain clock-edge demand, in domain order.
    demand: Vec<i64>,
    error: Option<String>,
    trace: TraceLog,
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("at", &self.sim.now())
            .field("signals", &self.sim.signal_count())
            .field("processes", &self.sim.process_count())
            .field("fsm_units", &self.fsm.len())
            .field("batched_units", &self.batched.len())
            .field("native_units", &self.native.len())
            .field("modules", &self.modules.len())
            .field("trace_entries", &self.trace.len())
            .finish_non_exhaustive()
    }
}

impl Snapshot {
    /// Simulation time at which the snapshot was taken.
    #[must_use]
    pub fn at(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of module instances captured.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }
}

/// Checkpoint / restore / fork.
///
/// The state-ownership contract behind these: the kernel owns signal
/// values and the event schedule ([`Simulator::save_state`]); each
/// communication unit owns its protocol state
/// (`FsmUnitRuntime::capture_state`, `BatchedLink::capture_state`,
/// [`NativeUnit::save_state`]); the backplane owns module execution
/// state and *all* scheduler state. Scheduler state that process
/// closures would naturally capture as locals (park flags, event-count
/// gates, elaboration latches) is deliberately hoisted into shared
/// cells owned by the backplane's activation scheduler, so a snapshot
/// reaches every bit that influences future behaviour — the
/// precondition for bit-identical replay.
impl Cosim {
    /// Captures the complete mutable state of the backplane.
    ///
    /// The snapshot is a plain value: clone it, keep several, restore
    /// them in any order. Capturing is non-destructive and the
    /// backplane can continue running afterwards.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let reg = self.registry.borrow();
        Snapshot {
            sim: self.sim.save_state(),
            fsm: reg.fsm.iter().map(|e| e.runtime.capture_state()).collect(),
            batched: reg.batched.iter().map(|e| e.link.capture_state()).collect(),
            native: reg
                .native
                .iter()
                .map(|e| (e.unit.save_state(), e.occ_driven))
                .collect(),
            modules: self
                .modules
                .borrow()
                .iter()
                .map(|e| ModuleSnap {
                    exec: e.exec.clone(),
                    vars: e.vars.clone(),
                    status: e.status.clone(),
                })
                .collect(),
            unit_shards: self
                .sched
                .unit_shards
                .iter()
                .map(|s| snap_shard(&s.borrow()))
                .collect(),
            driver: self.sched.driver.as_ref().map(|d| {
                let st = d.borrow();
                DriverSnap {
                    shards: st
                        .shards
                        .iter()
                        .map(|sh| DriverShardSnap {
                            members: sh
                                .members
                                .iter()
                                .map(|m| (m.watch.clone(), m.parked, m.armed.clone()))
                                .collect(),
                            active: sh.active.clone(),
                        })
                        .collect(),
                    halted: st.halted,
                    runs: st.runs,
                    skipped: st.skipped,
                    wire_wakeups: st.wire_wakeups,
                }
            }),
            per_module: self
                .sched
                .per_module
                .iter()
                .map(|p| p.borrow().clone())
                .collect(),
            per_unit_seen: self
                .sched
                .per_unit_seen
                .iter()
                .map(|p| p.borrow().clone())
                .collect(),
            park: ParkSnap {
                parked: self.sched.park.parked.get(),
                resumed: self.sched.park.resumed.get(),
                parked_now: self.sched.park.parked_now.get(),
                modules_stepped: self.sched.park.modules_stepped.get(),
            },
            demand: self.domains.iter().map(|d| d.demand.demand.get()).collect(),
            error: self.error.borrow().clone(),
            trace: self.trace.borrow().clone(),
        }
    }

    /// Structural compatibility check between this backplane and a
    /// snapshot, run *before* any state is mutated.
    fn check_snapshot_shape(&self, snap: &Snapshot) -> Result<(), CosimError> {
        fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), CosimError> {
            if ok {
                Ok(())
            } else {
                Err(CosimError::Setup(msg()))
            }
        }
        let reg = self.registry.borrow();
        ensure(reg.fsm.len() == snap.fsm.len(), || {
            format!(
                "snapshot has {} FSM units, backplane has {}",
                snap.fsm.len(),
                reg.fsm.len()
            )
        })?;
        ensure(reg.batched.len() == snap.batched.len(), || {
            format!(
                "snapshot has {} batched units, backplane has {}",
                snap.batched.len(),
                reg.batched.len()
            )
        })?;
        ensure(reg.native.len() == snap.native.len(), || {
            format!(
                "snapshot has {} native units, backplane has {}",
                snap.native.len(),
                reg.native.len()
            )
        })?;
        for (entry, (st, _)) in reg.native.iter().zip(&snap.native) {
            ensure(st.is_some(), || {
                format!(
                    "native unit {} was captured without state (no save_state support)",
                    entry.name
                )
            })?;
        }
        ensure(self.modules.borrow().len() == snap.modules.len(), || {
            format!(
                "snapshot has {} modules, backplane has {}",
                snap.modules.len(),
                self.modules.borrow().len()
            )
        })?;
        let shards = &self.sched.unit_shards;
        ensure(shards.len() == snap.unit_shards.len(), || {
            format!(
                "snapshot has {} unit shards, backplane has {}",
                snap.unit_shards.len(),
                shards.len()
            )
        })?;
        for (i, (sh, sn)) in shards.iter().zip(&snap.unit_shards).enumerate() {
            ensure(sh.borrow().members.len() == sn.members.len(), || {
                format!("unit shard {i} member count differs from snapshot")
            })?;
        }
        ensure(self.sched.driver.is_some() == snap.driver.is_some(), || {
            "module driver presence differs from snapshot".to_string()
        })?;
        if let (Some(d), Some(ds)) = (&self.sched.driver, &snap.driver) {
            let st = d.borrow();
            ensure(st.shards.len() == ds.shards.len(), || {
                format!(
                    "snapshot has {} driver shards, backplane has {}",
                    ds.shards.len(),
                    st.shards.len()
                )
            })?;
            for (i, (sh, sn)) in st.shards.iter().zip(&ds.shards).enumerate() {
                ensure(sh.members.len() == sn.members.len(), || {
                    format!("driver shard {i} member count differs from snapshot")
                })?;
            }
        }
        ensure(self.domains.len() == snap.demand.len(), || {
            format!(
                "snapshot has {} clock domains, backplane has {}",
                snap.demand.len(),
                self.domains.len()
            )
        })?;
        ensure(self.sched.per_module.len() == snap.per_module.len(), || {
            "per-module process count differs from snapshot".to_string()
        })?;
        ensure(
            self.sched.per_unit_seen.len() == snap.per_unit_seen.len(),
            || "per-unit gate count differs from snapshot".to_string(),
        )?;
        for (i, (p, sn)) in self
            .sched
            .per_unit_seen
            .iter()
            .zip(&snap.per_unit_seen)
            .enumerate()
        {
            ensure(p.borrow().len() == sn.len(), || {
                format!("per-unit gate {i} wire count differs from snapshot")
            })?;
        }
        Ok(())
    }

    /// Restores the backplane to a previously captured [`Snapshot`].
    ///
    /// The snapshot must come from this backplane or a structurally
    /// identical one (same construction sequence — e.g. a
    /// [`Cosim::fork`] sibling). Restoring rewinds *everything*
    /// [`Cosim::snapshot`] captures; a subsequent run replays the
    /// original execution bit-identically — same traces, same module
    /// states, same stat deltas.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] when the snapshot's structure does
    /// not match this backplane (unit/module/shard counts, driver
    /// shape, native units without state support), or
    /// [`CosimError::Sim`] when the kernel rejects the snapshot
    /// (signal/process table mismatch — e.g. processes added through
    /// [`Cosim::sim_mut`] after the snapshot was taken). All structural
    /// checks run before any mutation, so on these errors the
    /// backplane is left untouched. A failure *after* them (a unit
    /// rejecting state it once produced) cannot happen between
    /// structurally identical backplanes but would leave the state
    /// partially applied; the error is surfaced either way.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), CosimError> {
        self.check_snapshot_shape(snap)?;
        // The kernel validates its own table (names and counts) and is
        // untouched on mismatch — it is the last fallible gate before
        // mutation starts.
        self.sim.load_state(&snap.sim)?;
        {
            let mut reg = self.registry.borrow_mut();
            for (e, st) in reg.fsm.iter_mut().zip(&snap.fsm) {
                e.runtime
                    .restore_state(st)
                    .map_err(|err| CosimError::Setup(format!("unit {}: {err}", e.name)))?;
            }
            for (e, st) in reg.batched.iter_mut().zip(&snap.batched) {
                e.link
                    .restore_state(st)
                    .map_err(|err| CosimError::Setup(format!("batched link {}: {err}", e.name)))?;
            }
            for (e, (st, occ_driven)) in reg.native.iter_mut().zip(&snap.native) {
                let st = st.as_ref().expect("checked by check_snapshot_shape");
                e.unit
                    .load_state(st)
                    .map_err(|err| CosimError::Setup(format!("native unit {}: {err}", e.name)))?;
                e.occ_driven = *occ_driven;
            }
        }
        {
            let mut modules = self.modules.borrow_mut();
            for (e, ms) in modules.iter_mut().zip(&snap.modules) {
                e.exec = ms.exec.clone();
                e.vars.clone_from(&ms.vars);
                e.status = ms.status.clone();
            }
        }
        for (sh, sn) in self.sched.unit_shards.iter().zip(&snap.unit_shards) {
            apply_shard(&mut sh.borrow_mut(), sn);
        }
        if let (Some(d), Some(ds)) = (&self.sched.driver, &snap.driver) {
            let mut st = d.borrow_mut();
            for (sh, sn) in st.shards.iter_mut().zip(&ds.shards) {
                for (m, (watch, parked, armed)) in sh.members.iter_mut().zip(&sn.members) {
                    m.watch.clone_from(watch);
                    m.parked = *parked;
                    m.armed.clone_from(armed);
                }
                sh.active.clone_from(&sn.active);
            }
            st.halted = ds.halted;
            st.runs = ds.runs;
            st.skipped = ds.skipped;
            st.wire_wakeups = ds.wire_wakeups;
        }
        for (p, sn) in self.sched.per_module.iter().zip(&snap.per_module) {
            *p.borrow_mut() = sn.clone();
        }
        for (p, sn) in self.sched.per_unit_seen.iter().zip(&snap.per_unit_seen) {
            p.borrow_mut().clone_from(sn);
        }
        self.sched.park.parked.set(snap.park.parked);
        self.sched.park.resumed.set(snap.park.resumed);
        self.sched.park.parked_now.set(snap.park.parked_now);
        self.sched
            .park
            .modules_stepped
            .set(snap.park.modules_stepped);
        for (d, v) in self.domains.iter().zip(&snap.demand) {
            d.demand.demand.set(*v);
        }
        *self.error.borrow_mut() = snap.error.clone();
        *self.trace.borrow_mut() = snap.trace.clone();
        Ok(())
    }

    /// Forks an independent backplane resuming from `snap`.
    ///
    /// Construction is replayed from the recorded recipe — immutable
    /// specs ([`CommUnitSpec`], [`Module`] internals) are shared by
    /// refcount, everything mutable is rebuilt — and the snapshot is
    /// then restored onto the twin. The fork and the original share no
    /// mutable state: running one never affects the other, and both
    /// replay bit-identically from the snapshot point.
    ///
    /// `snap` may come from this backplane or any fork sibling. The
    /// original is not modified (`&self`).
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] when a native unit does not
    /// support forking ([`NativeUnit::fork_fresh`]), when processes
    /// were registered directly through [`Cosim::sim_mut`] (the recipe
    /// cannot replay them, so the kernel table mismatches), or any
    /// error [`Cosim::restore`] reports.
    pub fn fork(&self, snap: &Snapshot) -> Result<Cosim, CosimError> {
        if self.boundaries > 0 {
            return Err(CosimError::Setup(
                "forking is unsupported while boundary links are installed: boundary \
                 processes reach queues shared with another backplane, which the \
                 construction recipe cannot replay"
                    .to_string(),
            ));
        }
        let mut twin = Cosim::new(self.config);
        twin.set_scheduling(self.sched.cfg)?;
        let reg = self.registry.borrow();
        let mut native_i = 0;
        for op in &self.recipe {
            match op {
                RecipeOp::ClockDomain { name, num, den } => {
                    twin.add_clock_domain(name, *num, *den)?;
                }
                RecipeOp::FsmUnit { name, spec, domain } => {
                    twin.add_fsm_unit_in(DomainId(*domain), name, Arc::clone(spec))?;
                }
                RecipeOp::BatchedUnit {
                    name,
                    data_ty,
                    max_batch,
                    capacity,
                    timing,
                    domain,
                } => {
                    twin.add_batched_unit_in_with(
                        DomainId(*domain),
                        name,
                        data_ty.clone(),
                        *max_batch,
                        *capacity,
                        *timing,
                    )?;
                }
                RecipeOp::NativeUnit { name, domain } => {
                    let entry = &reg.native[native_i];
                    native_i += 1;
                    let fresh = entry.unit.fork_fresh().ok_or_else(|| {
                        CosimError::Setup(format!(
                            "native unit {} does not support forking",
                            entry.name
                        ))
                    })?;
                    twin.add_native_unit_in(DomainId(*domain), name, fresh)?;
                }
                RecipeOp::Module {
                    module,
                    bindings,
                    ports,
                    domain,
                } => {
                    let binds: Vec<(&str, UnitId)> =
                        bindings.iter().map(|(n, u)| (n.as_str(), *u)).collect();
                    match ports {
                        None => twin.add_module_in(DomainId(*domain), module, &binds)?,
                        Some(p) => twin.add_module_with_ports(module, &binds, p.clone())?,
                    };
                }
            }
        }
        drop(reg);
        twin.restore(snap)?;
        Ok(twin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma_comm::{handshake_unit, FifoChannel};
    use cosma_core::{Expr, ModuleBuilder, Stmt};

    fn producer(values: &[i64]) -> Module {
        let mut p = ModuleBuilder::new("producer", ModuleKind::Software);
        let done = p.var("D", Type::Bool, Value::Bool(false));
        let idx = p.var("I", Type::INT16, Value::Int(0));
        let b = p.binding("iface", "hs");
        let put = p.state("PUT");
        let end = p.state("END");
        // Send values[I] until I == len; the helper requires an
        // arithmetic progression so the argument is base + I * step.
        let step = if values.len() > 1 {
            values[1] - values[0]
        } else {
            0
        };
        let arg = Expr::int(values[0]).add(Expr::var(idx).mul(Expr::int(step)));
        p.actions(
            put,
            vec![Stmt::Call(ServiceCall {
                binding: b,
                service: "put".into(),
                args: vec![arg],
                done: Some(done),
                result: None,
            })],
        );
        p.transition_with(
            put,
            Some(Expr::var(done).and(Expr::var(idx).ge(Expr::int(values.len() as i64 - 1)))),
            vec![],
            end,
        );
        p.transition_with(
            put,
            Some(Expr::var(done)),
            vec![Stmt::assign(idx, Expr::var(idx).add(Expr::int(1)))],
            put,
        );
        p.transition(end, None, end);
        p.initial(put);
        p.build().unwrap()
    }

    fn consumer(n: usize) -> Module {
        consumer_spelled(n, "get")
    }

    /// [`consumer`] calling the get service under the given spelling.
    fn consumer_spelled(n: usize, get_service: &str) -> Module {
        let mut c = ModuleBuilder::new("consumer", ModuleKind::Hardware);
        let done = c.var("D", Type::Bool, Value::Bool(false));
        let got = c.var("GOT", Type::INT16, Value::Int(0));
        let sum = c.var("SUM", Type::INT16, Value::Int(0));
        let count = c.var("N", Type::INT16, Value::Int(0));
        let b = c.binding("iface", "hs");
        let get = c.state("GET");
        let end = c.state("END");
        c.actions(
            get,
            vec![Stmt::Call(ServiceCall {
                binding: b,
                service: get_service.into(),
                args: vec![],
                done: Some(done),
                result: Some(got),
            })],
        );
        c.transition_with(
            get,
            Some(Expr::var(done).and(Expr::var(count).ge(Expr::int(n as i64 - 1)))),
            vec![
                Stmt::assign(sum, Expr::var(sum).add(Expr::var(got))),
                Stmt::Trace("recv".into(), vec![Expr::var(got)]),
            ],
            end,
        );
        c.transition_with(
            get,
            Some(Expr::var(done)),
            vec![
                Stmt::assign(sum, Expr::var(sum).add(Expr::var(got))),
                Stmt::assign(count, Expr::var(count).add(Expr::int(1))),
                Stmt::Trace("recv".into(), vec![Expr::var(got)]),
            ],
            get,
        );
        c.transition(end, None, end);
        c.initial(get);
        c.build().unwrap()
    }

    #[test]
    fn sw_to_hw_exchange_over_handshake() {
        let mut cosim = Cosim::new(CosimConfig::default());
        let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        let p = producer(&[10, 20, 30]);
        let c = consumer(3);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
        cosim.run_for(Duration::from_us(50)).unwrap();
        assert_eq!(cosim.module_status(cid).state, "END");
        assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(60)));
        // Trace captured all three receptions in order.
        let log = cosim.trace_log();
        let recvs: Vec<i64> = log
            .with_label("recv")
            .map(|e| e.values[0].as_int().unwrap())
            .collect();
        assert_eq!(recvs, vec![10, 20, 30]);
        // Stats flowed through.
        let stats = cosim.unit_stats("link").unwrap();
        assert_eq!(stats.services["put"].completions, 3);
        assert_eq!(stats.services["get"].completions, 3);
        assert!(stats.controller_steps > 0);
    }

    #[test]
    fn idle_controllers_are_gated_per_unit() {
        // Under the legacy per-unit scheduling: after the 3-value
        // exchange completes, the link's wires stop changing and its
        // controller self-loops without writes — from then on the
        // backplane skips its activations entirely.
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.set_scheduling(SchedulingConfig::legacy()).unwrap();
        let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        let p = producer(&[10, 20, 30]);
        let c = consumer(3);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
        cosim.run_for(Duration::from_us(200)).unwrap();
        assert_eq!(cosim.module_status(cid).state, "END");
        assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(60)));
        let stats = cosim.unit_stats("link").unwrap();
        assert_eq!(stats.services["put"].completions, 3);
        assert!(
            stats.controller_steps > 0,
            "the exchange required real steps"
        );
        assert!(
            stats.controller_skips > stats.controller_steps,
            "a long idle tail must be dominated by skipped activations \
             (steps {}, skips {})",
            stats.controller_steps,
            stats.controller_skips
        );
    }

    #[test]
    fn idle_shards_go_dormant() {
        // Under sharded scheduling the idle tail is even cheaper: once
        // the link's controller proves itself stable its shard drops
        // clock sensitivity, and the END-parked modules park their
        // shard too. Controller steps stall AND the shard processes
        // stop being woken.
        let mut cosim = Cosim::new(CosimConfig::default());
        let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        let p = producer(&[10, 20, 30]);
        let c = consumer(3);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
        cosim.run_for(Duration::from_us(20)).unwrap();
        assert_eq!(cosim.module_status(cid).state, "END");
        assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(60)));
        let steps_after_exchange = cosim.unit_stats("link").unwrap().controller_steps;
        assert!(steps_after_exchange > 0, "the exchange required steps");
        let shard_runs_after_exchange = cosim.shard_stats().shard_runs;

        // A long idle tail: ~2000 further HW cycles.
        cosim.run_for(Duration::from_us(200)).unwrap();
        let stats = cosim.unit_stats("link").unwrap();
        assert_eq!(
            stats.controller_steps, steps_after_exchange,
            "idle controller never steps again"
        );
        let shard = cosim.shard_stats();
        assert_eq!(shard.shards, 2, "one unit shard, one module shard");
        assert_eq!(shard.dormant_shards, 2, "both parked themselves");
        assert_eq!(
            shard.shard_runs, shard_runs_after_exchange,
            "a dormant shard is not even woken by clock edges"
        );
        assert_eq!(shard.parked_now, 3, "link + both END modules parked");
    }

    #[test]
    fn batched_unit_in_backplane() {
        // A producer/consumer pair over a batched bus link: values are
        // queued per activation but cross the bus in whole batches — far
        // fewer wire handshakes than values.
        let mut cosim = Cosim::new(CosimConfig::default());
        let link = cosim.add_batched_unit("bus", Type::INT16, 16, 64).unwrap();
        let p = producer(&[10, 20, 30, 40]);
        let c = consumer(4);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
        cosim.run_for(Duration::from_us(50)).unwrap();
        assert_eq!(cosim.module_status(cid).state, "END");
        assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(100)));
        let stats = cosim.unit_stats("bus").unwrap();
        assert_eq!(stats.services["put"].completions, 4);
        assert_eq!(stats.services["get"].completions, 4);
        assert_eq!(stats.batched_values, 4);
        assert!(
            stats.batches < 4,
            "4 values must need fewer than 4 bus transactions (got {})",
            stats.batches
        );
        assert!(stats.max_batch_len >= 2);
        assert_eq!(
            stats.batch_len_hist.iter().sum::<u64>(),
            stats.batches,
            "histogram accounts for every bus transaction"
        );
    }

    #[test]
    fn batched_unit_agrees_across_schedulings() {
        // The same batched topology under the legacy and sharded paths
        // delivers identical values, states, traces and activations.
        fn run(scheduling: SchedulingConfig) -> (Option<Value>, ModuleStatus, Vec<i64>) {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(scheduling).unwrap();
            let link = cosim.add_batched_unit("bus", Type::INT16, 4, 32).unwrap();
            let p = producer(&[5, 6, 7]);
            let c = consumer(3);
            cosim.add_module(&p, &[("iface", link)]).unwrap();
            let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
            cosim.run_for(Duration::from_us(40)).unwrap();
            let recvs = cosim
                .trace_log()
                .with_label("recv")
                .map(|e| e.values[0].as_int().unwrap())
                .collect();
            (
                cosim.module_var(cid, "SUM"),
                cosim.module_status(cid),
                recvs,
            )
        }
        let sharded = run(SchedulingConfig::sharded());
        let per_unit = run(SchedulingConfig {
            park_blocked: true,
            ..SchedulingConfig::legacy()
        });
        assert_eq!(sharded, per_unit);
        assert_eq!(sharded.0, Some(Value::Int(18)));
        assert_eq!(sharded.1.state, "END");
        assert_eq!(sharded.2, vec![5, 6, 7]);
    }

    #[test]
    fn scheduling_locked_after_first_unit() {
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        let err = cosim
            .set_scheduling(SchedulingConfig::legacy())
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)));
    }

    #[test]
    fn scheduling_locked_after_first_module() {
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        let err = cosim
            .set_scheduling(SchedulingConfig::legacy())
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)));
    }

    #[test]
    fn bad_batched_config_rejected() {
        let mut cosim = Cosim::new(CosimConfig::default());
        assert!(matches!(
            cosim.add_batched_unit("b", Type::INT16, 0, 4),
            Err(CosimError::Setup(_))
        ));
        assert!(matches!(
            cosim.add_batched_unit("b", Type::INT16, 4, 0),
            Err(CosimError::Setup(_))
        ));
        // A batch ceiling the INT16 DATA wire cannot carry is a typed
        // setup error, never a silent clamp.
        let err = cosim
            .add_batched_unit("b", Type::INT16, i16::MAX as usize + 1, 4)
            .unwrap_err();
        assert!(
            err.to_string().contains("exceeds"),
            "overflow error is descriptive: {err}"
        );
    }

    #[test]
    fn batched_star_matches_parked_legacy() {
        // A batched star whose early cycles step many modules at once:
        // the driver's module-id order must reproduce the per-module
        // oracle's statuses (parking kept on both sides, so activation
        // counts compare too).
        use crate::scenario::{build_scenario, LinkKind, ScenarioSpec, Topology};
        fn run(scheduling: SchedulingConfig) -> (Vec<ModuleStatus>, ShardStats) {
            let mut s = build_scenario(&ScenarioSpec {
                units: 72,
                topology: Topology::Star,
                values_per_link: 4,
                link: LinkKind::Batched {
                    max_batch: 8,
                    capacity: 32,
                    timing: BusTiming::LengthOnly,
                },
                config: CosimConfig::default(),
                scheduling,
                trace: false,
                domains: Default::default(),
            })
            .expect("scenario builds");
            s.cosim.run_for(Duration::from_us(400)).expect("runs");
            s.verify().expect("all traffic arrived");
            let statuses = s
                .modules
                .iter()
                .map(|&m| s.cosim.module_status(m))
                .collect();
            (statuses, s.cosim.shard_stats())
        }
        let sharded = run(SchedulingConfig::sharded());
        let legacy = run(SchedulingConfig {
            park_blocked: true,
            ..SchedulingConfig::legacy()
        });
        assert_eq!(sharded.0, legacy.0, "module statuses identical");
        assert_eq!(sharded.1.modules_stepped, legacy.1.modules_stepped);
        assert_eq!(sharded.1.commit_calls, 0, "calls apply immediately");
    }

    #[test]
    fn payload_beats_batched_unit_matches_length_only_in_backplane() {
        // The timing knob end to end: a PayloadBeats link delivers the
        // same values/states as LengthOnly, pays one DATA beat per
        // value in UnitStats, and takes longer doing it.
        fn run(timing: BusTiming) -> (Option<Value>, String, UnitStats, u64) {
            let mut cosim = Cosim::new(CosimConfig::default());
            let link = cosim
                .add_batched_unit_with("bus", Type::INT16, 8, 64, timing)
                .unwrap();
            let p = producer(&[10, 20, 30, 40]);
            let c = consumer(4);
            cosim.add_module(&p, &[("iface", link)]).unwrap();
            let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
            cosim.run_for(Duration::from_us(50)).unwrap();
            let last_recv = cosim
                .trace_log()
                .with_label("recv")
                .last()
                .map(|e| e.at)
                .unwrap_or(0);
            (
                cosim.module_var(cid, "SUM"),
                cosim.module_status(cid).state,
                cosim.unit_stats("bus").unwrap(),
                last_recv,
            )
        }
        let (fast_sum, fast_state, fast_stats, fast_done) = run(BusTiming::LengthOnly);
        let (beat_sum, beat_state, beat_stats, beat_done) = run(BusTiming::PayloadBeats);
        assert_eq!(fast_sum, beat_sum);
        assert_eq!(fast_sum, Some(Value::Int(100)));
        assert_eq!(fast_state, "END");
        assert_eq!(beat_state, "END");
        assert_eq!(fast_stats.payload_beats, 0, "fast path streams nothing");
        assert_eq!(
            beat_stats.payload_beats, beat_stats.batched_values,
            "one beat per value: occupancy linear in batch length"
        );
        assert_eq!(beat_stats.batched_values, 4);
        assert!(
            beat_done >= fast_done,
            "payload beats never finish earlier ({beat_done} vs {fast_done})"
        );
    }

    #[test]
    fn batch_latency_back_annotation_end_to_end() {
        // A LengthOnly reference run re-timed from a PayloadBeats
        // calibration run: the derived scale folds the per-batch
        // payload latency into the hw cycle, and the per-link report
        // carries the calibration run's beat occupancy.
        use crate::annotate::annotate_batch_latency;
        fn run(timing: BusTiming) -> (TraceLog, UnitStats) {
            let mut cosim = Cosim::new(CosimConfig::default());
            let link = cosim
                .add_batched_unit_with("bus", Type::INT16, 8, 64, timing)
                .unwrap();
            let p = producer(&[1, 2, 3, 4, 5, 6]);
            let c = consumer(6);
            cosim.add_module(&p, &[("iface", link)]).unwrap();
            cosim.add_module(&c, &[("iface", link)]).unwrap();
            cosim.run_for(Duration::from_us(100)).unwrap();
            (cosim.trace_log(), cosim.unit_stats("bus").unwrap())
        }
        let (reference, _) = run(BusTiming::LengthOnly);
        let (calibration, cal_stats) = run(BusTiming::PayloadBeats);
        let nominal = CosimConfig::default().hw_cycle;
        let ann = annotate_batch_latency(
            &reference,
            &calibration,
            &["recv"],
            &[crate::annotate::LinkCalibration {
                link: "bus",
                stats: &cal_stats,
                labels: &["recv"],
                nominal_hw_cycle: nominal,
            }],
            nominal,
        )
        .expect("recv label spans both runs");
        assert!(
            ann.scale >= 1.0,
            "payload beats never make the bus faster (scale {})",
            ann.scale
        );
        assert!(ann.annotated_hw_cycle >= nominal);
        let link = ann.link("bus").expect("bus link reported");
        assert_eq!(link.beats, cal_stats.payload_beats);
        assert!(
            (link.beats_per_batch - link.values as f64 / link.batches as f64).abs() < 1e-9,
            "beats per batch == mean batch length (one beat per value)"
        );
    }

    #[test]
    fn many_idle_units_fill_multiple_dormant_shards() {
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim
            .set_scheduling(SchedulingConfig {
                units: UnitScheduling::Sharded { shard_size: 8 },
                ..SchedulingConfig::sharded()
            })
            .unwrap();
        for k in 0..20 {
            cosim.add_fsm_unit(&format!("quiet{k}"), handshake_unit("hs", Type::INT16));
        }
        // One live module keeps the clocks running (it halt-parks, but
        // stays counted as a live clocked body).
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        cosim.run_for(Duration::from_us(100)).unwrap();
        let shard = cosim.shard_stats();
        // Hashed placement opens 2-3 unit shards for 20 units at shard
        // size 8, plus one module shard.
        assert!(
            (3..=4).contains(&shard.shards),
            "expected 2-3 unit shards + 1 module shard, got {}",
            shard.shards
        );
        assert_eq!(shard.dormant_shards, shard.shards, "all idle, all parked");
        // Dormant shards were woken at most a handful of times while the
        // clock toggled ~2000 times.
        assert!(
            shard.shard_runs < 40,
            "idle shards must not track the clock (runs {})",
            shard.shard_runs
        );
    }

    #[test]
    fn quiescence_reached_after_last_timer_cancelled() {
        // Regression: a lazily-cancelled timer (dead heap entry) must not
        // stall run_to_quiescence. A testbench process holds the only
        // live timer; an event wake cancels it and the process parks.
        let mut cosim = Cosim::new(CosimConfig::default());
        let kick = cosim.sim_mut().add_bit("KICK");
        let mut woken = false;
        cosim.sim_mut().add_process(
            "waiter",
            FnProcess::new(move |ctx| {
                if ctx.event(kick) {
                    woken = true;
                }
                if woken {
                    Wait::Forever
                } else {
                    Wait::EventOrTimeout(vec![kick], Duration::from_us(500))
                }
            }),
        );
        cosim.run_until(SimTime::ZERO).unwrap();
        assert!(cosim.pending_activity(), "the 500us timer is live");
        cosim.sim_mut().poke(kick, Value::Bit(cosma_core::Bit::One));
        let quiesced = cosim.run_to_quiescence(SimTime::from_ns(10_000)).unwrap();
        assert!(
            quiesced,
            "dead timer entry at 500us must not report phantom pending work"
        );
        assert!(!cosim.pending_activity());
        assert_eq!(
            cosim.sim().now(),
            SimTime::from_ns(10_000),
            "run advanced to the limit, not to the dead deadline"
        );
    }

    #[test]
    fn empty_backplane_quiesces_immediately() {
        // No clocked bodies: the activation clock generators park at
        // elaboration, so the kernel truly runs dry.
        let mut cosim = Cosim::new(CosimConfig::default());
        let quiesced = cosim.run_to_quiescence(SimTime::from_ns(1000)).unwrap();
        assert!(quiesced, "nothing is clocked, so nothing is pending");
        assert!(!cosim.pending_activity());
    }

    #[test]
    fn fully_parked_backplane_quiesces() {
        // Quiescence for fully-parked backplanes: a bare self-loop
        // module proves itself stable on its first activation and
        // parks with no wakeable watch wire — as final as a halt. The
        // activation clock generators then stop, so the kernel truly
        // runs dry instead of toggling clocks forever.
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let mut cosim = Cosim::new(CosimConfig::default());
        let id = cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        assert!(cosim.pending_activity(), "elaboration is owed");
        let quiesced = cosim.run_to_quiescence(SimTime::from_ns(1000)).unwrap();
        assert!(quiesced, "everything parked: nothing can ever change");
        assert!(!cosim.pending_activity());
        assert_eq!(cosim.module_status(id).state, "S");
        assert_eq!(cosim.shard_stats().parked_now, 1);
    }

    #[test]
    fn unparked_backplane_never_quiesces_but_reports_it() {
        // With parking disabled the same self-loop module re-activates
        // every cycle forever — the clocks must keep running and
        // run_to_quiescence must say so.
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim
            .set_scheduling(SchedulingConfig {
                park_blocked: false,
                ..SchedulingConfig::sharded()
            })
            .unwrap();
        cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        let quiesced = cosim.run_to_quiescence(SimTime::from_ns(1000)).unwrap();
        assert!(
            !quiesced,
            "an unparked module keeps the activation clocks running"
        );
        assert!(
            cosim.pending_activity(),
            "activation clocks keep timers armed"
        );
        assert_eq!(cosim.sim().now(), SimTime::from_ns(1000));
    }

    #[test]
    fn native_unit_in_backplane() {
        let mut cosim = Cosim::new(CosimConfig::default());
        let link = cosim.add_native_unit("fifo", Box::new(FifoChannel::new("fifo", 8)));
        let p = producer(&[5, 6]);
        let c = consumer(2);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
        cosim.run_for(Duration::from_us(20)).unwrap();
        assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(11)));
    }

    #[test]
    fn restored_trace_matches_uninterrupted_run_despite_cached_ids() {
        // Modules cache their trace ids against the log they recorded
        // into. Restoring swaps in the snapshot's log, interner
        // included, so those ids must re-resolve: here the target's
        // cached ids are deliberately swapped (an external record
        // interned the consumers' label before their source name), and
        // the snapshots are taken before the first trace record and
        // mid-run. The continued trace must equal an
        // uninterrupted run's, entry for entry and byte for byte in the
        // spill stream (both sinks attached at the snapshot time).
        #[derive(Clone, Default)]
        struct Sink(Rc<RefCell<Vec<u8>>>);
        impl std::io::Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let spill = |cosim: &Cosim| {
            let sink = Sink::default();
            cosim
                .trace_handle()
                .borrow_mut()
                .set_spill(Box::new(sink.clone()));
            sink
        };
        // Four producer/consumer pairs; consumers trace each value
        // received, so the first record comes a few cycles in.
        let build = || {
            let mut cosim = Cosim::new(CosimConfig::default());
            let values: Vec<i64> = (0..5_000).collect();
            for k in 0..4 {
                let link =
                    cosim.add_fsm_unit(&format!("link{k}"), handshake_unit("hs", Type::INT16));
                cosim
                    .add_module(&producer(&values), &[("iface", link)])
                    .unwrap();
                cosim
                    .add_module(&consumer(values.len()), &[("iface", link)])
                    .unwrap();
            }
            cosim
        };
        const END_US: u64 = 400;
        for t0_us in [0, 77] {
            let mut reference = build();
            reference.run_for(Duration::from_us(t0_us)).unwrap();
            let want_bytes = spill(&reference);
            reference
                .run_for(Duration::from_us(END_US - t0_us))
                .unwrap();

            let mut source = build();
            source.run_for(Duration::from_us(t0_us)).unwrap();
            assert_eq!(
                source.trace_log().is_empty(),
                t0_us == 0,
                "the early snapshot precedes the first trace record"
            );
            let snap = source.snapshot();

            let mut target = build();
            target
                .trace_handle()
                .borrow_mut()
                .record(0, "recv", "consumer", [Value::Int(0)]);
            target.run_for(Duration::from_us(130)).unwrap();
            target.restore(&snap).unwrap();
            let got_bytes = spill(&target);
            target.run_for(Duration::from_us(END_US - t0_us)).unwrap();

            let want = reference.trace_log();
            let got = target.trace_log();
            assert!(
                want.spilled() > 0,
                "the run must spill segments (t0 {t0_us} us)"
            );
            let cmp = got.compare(&want);
            assert!(cmp.is_match(), "t0 {t0_us} us: {cmp}");
            assert_eq!(got, want, "t0 {t0_us} us: sources and timestamps too");
            assert_eq!(
                *got_bytes.0.borrow(),
                *want_bytes.0.borrow(),
                "t0 {t0_us} us: identical spilled bytes"
            );
        }
    }

    #[test]
    fn native_unit_snapshot_restore_and_fork() {
        // The scenario-level replay property covers FSM and batched
        // links; this pins the same contract for a native (platform)
        // unit: fifo contents, counters and stats all travel with the
        // snapshot, for both in-place restore and a forked twin.
        let mut cosim = Cosim::new(CosimConfig::default());
        let link = cosim.add_native_unit("fifo", Box::new(FifoChannel::new("fifo", 8)));
        let p = producer(&[5, 6, 7, 8]);
        let c = consumer(4);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();

        // Stop mid-exchange so the fifo queue is live in the snapshot.
        cosim.run_for(Duration::from_ns(150)).unwrap();
        let snap = cosim.snapshot();
        let mid_sum = cosim.module_var(cid, "SUM");
        let mid_stats = cosim.unit_stats("fifo").unwrap();

        cosim.run_for(Duration::from_us(20)).unwrap();
        let end_sum = cosim.module_var(cid, "SUM");
        let end_state = cosim.module_status(cid).state.clone();
        let end_trace = cosim.trace_log();
        let end_stats = cosim.unit_stats("fifo").unwrap();
        assert_eq!(end_sum, Some(Value::Int(26)));
        assert_eq!(end_state, "END");
        assert_ne!(mid_sum, end_sum, "the checkpoint really is mid-run");

        // A forked twin starts at the snapshot instant and replays the
        // tail bit-identically — including the unit's statistics.
        let mut twin = cosim.fork(&snap).unwrap();
        assert_eq!(twin.sim().now(), snap.at());
        assert_eq!(twin.module_var(cid, "SUM"), mid_sum);
        assert_eq!(twin.unit_stats("fifo").unwrap(), mid_stats);
        twin.run_for(Duration::from_us(20)).unwrap();
        assert_eq!(twin.module_var(cid, "SUM"), end_sum);
        assert_eq!(twin.module_status(cid).state, end_state);
        assert_eq!(twin.trace_log(), end_trace);
        assert_eq!(twin.unit_stats("fifo").unwrap(), end_stats);

        // The original rewinds in place and replays the same tail.
        cosim.restore(&snap).unwrap();
        assert_eq!(cosim.module_var(cid, "SUM"), mid_sum);
        cosim.run_for(Duration::from_us(20)).unwrap();
        assert_eq!(cosim.module_var(cid, "SUM"), end_sum);
        assert_eq!(cosim.trace_log(), end_trace);
        assert_eq!(cosim.unit_stats("fifo").unwrap(), end_stats);
    }

    #[test]
    fn uncheckpointable_native_unit_fails_restore_cleanly() {
        // A native unit that keeps the default save_state (None) still
        // snapshots — the hole is detected at restore/fork time, with a
        // named error instead of a silently skipped unit.
        #[derive(Debug)]
        struct Opaque(cosma_comm::UnitStats);
        impl NativeUnit for Opaque {
            fn name(&self) -> &str {
                "opaque"
            }
            fn services(&self) -> Vec<cosma_comm::NativeServiceDesc> {
                vec![]
            }
            fn call(
                &mut self,
                _caller: cosma_comm::CallerId,
                service: &str,
                _args: &[Value],
            ) -> Result<cosma_core::ServiceOutcome, cosma_core::EvalError> {
                Err(cosma_core::EvalError::Service(format!(
                    "opaque has no service {service}"
                )))
            }
            fn stats(&self) -> cosma_comm::UnitStats {
                self.0.clone()
            }
        }

        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.add_native_unit("opaque", Box::new(Opaque(cosma_comm::UnitStats::default())));
        cosim.run_for(Duration::from_ns(300)).unwrap();
        let before = cosim.sim().now();
        let snap = cosim.snapshot();
        let err = cosim.restore(&snap).unwrap_err();
        assert!(err.to_string().contains("opaque"), "names the unit: {err}");
        assert!(err.to_string().contains("save_state"));
        assert_eq!(cosim.sim().now(), before, "refused restore is a no-op");
        let err = cosim.fork(&snap).unwrap_err();
        assert!(err.to_string().contains("opaque"));
        // The backplane itself keeps running fine.
        cosim.run_for(Duration::from_ns(300)).unwrap();
    }

    #[test]
    fn one_activation_per_sw_cycle() {
        // A 3-state chain takes exactly 3 SW cycles to reach END.
        let mut b = ModuleBuilder::new("chain", ModuleKind::Software);
        let s1 = b.state("S1");
        let s2 = b.state("S2");
        let s3 = b.state("S3");
        b.transition(s1, None, s2);
        b.transition(s2, None, s3);
        b.transition(s3, None, s3);
        b.initial(s1);
        let m = b.build().unwrap();
        let mut cosim = Cosim::new(CosimConfig {
            hw_cycle: Duration::from_ns(100),
            sw_cycle: Duration::from_ns(100),
        });
        let id = cosim.add_module(&m, &[]).unwrap();
        // Edges at 0, 100, 200: exactly 3 activations by t=250.
        cosim.run_for(Duration::from_ns(250)).unwrap();
        let st = cosim.module_status(id);
        assert_eq!(st.activations, 3);
        assert_eq!(st.state, "S3");
    }

    #[test]
    fn sw_slower_than_hw() {
        // Parking disabled: these bare self-loops would otherwise park
        // after proving stable, and the activation-rate comparison is
        // the whole point here.
        let mut b = ModuleBuilder::new("swm", ModuleKind::Software);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let sw = b.build().unwrap();
        let mut b = ModuleBuilder::new("hwm", ModuleKind::Hardware);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let hw = b.build().unwrap();
        let mut cosim = Cosim::new(CosimConfig {
            hw_cycle: Duration::from_ns(100),
            sw_cycle: Duration::from_ns(400),
        });
        cosim
            .set_scheduling(SchedulingConfig {
                park_blocked: false,
                ..SchedulingConfig::sharded()
            })
            .unwrap();
        let swid = cosim.add_module(&sw, &[]).unwrap();
        let hwid = cosim.add_module(&hw, &[]).unwrap();
        cosim.run_for(Duration::from_us(4)).unwrap();
        let sw_act = cosim.module_status(swid).activations;
        let hw_act = cosim.module_status(hwid).activations;
        assert!(hw_act >= 3 * sw_act, "hw {hw_act} vs sw {sw_act}");
    }

    #[test]
    fn runtime_errors_surface() {
        let mut b = ModuleBuilder::new("crash", ModuleKind::Software);
        let x = b.var("X", Type::INT16, Value::Int(1));
        let s = b.state("S");
        b.actions(s, vec![Stmt::assign(x, Expr::var(x).div(Expr::int(0)))]);
        b.transition(s, None, s);
        b.initial(s);
        let m = b.build().unwrap();
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.add_module(&m, &[]).unwrap();
        let err = cosim.run_for(Duration::from_us(1)).unwrap_err();
        assert!(matches!(err, CosimError::Runtime(_)));
        assert!(err.to_string().contains("crash"));
    }

    #[test]
    fn module_error_recorded_in_status() {
        // Regression: a module halting on an evaluation error must
        // record the halting state and the error on its own status, not
        // just in the backplane's global error slot — and under both
        // scheduler paths.
        for cfg in [SchedulingConfig::sharded(), SchedulingConfig::legacy()] {
            let mut b = ModuleBuilder::new("crash", ModuleKind::Software);
            let x = b.var("X", Type::INT16, Value::Int(1));
            let ok = b.state("OK");
            let boom = b.state("BOOM");
            b.transition(ok, None, boom);
            b.actions(boom, vec![Stmt::assign(x, Expr::var(x).div(Expr::int(0)))]);
            b.transition(boom, None, ok);
            b.initial(ok);
            let m = b.build().unwrap();
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let id = cosim.add_module(&m, &[]).unwrap();
            let err = cosim.run_for(Duration::from_us(1)).unwrap_err();
            let st = cosim.module_status(id);
            assert_eq!(st.state, "BOOM", "halting state recorded ({cfg:?})");
            let msg = st.error.expect("per-module error recorded");
            assert!(msg.contains("crash"), "error names the module: {msg}");
            assert_eq!(msg, err.to_string(), "same error surfaced globally");
            assert_eq!(st.activations, 1, "halting activation not counted");
        }
    }

    /// A producer that counts `delay` activations before it puts
    /// `value` once.
    fn delayed_producer(delay: i64, value: i64) -> Module {
        let mut p = ModuleBuilder::new("latecomer", ModuleKind::Software);
        let done = p.var("D", Type::Bool, Value::Bool(false));
        let cnt = p.var("C", Type::INT16, Value::Int(0));
        let b = p.binding("iface", "hs");
        let wait = p.state("WAIT");
        let put = p.state("PUT");
        let end = p.state("END");
        p.actions(
            wait,
            vec![Stmt::assign(cnt, Expr::var(cnt).add(Expr::int(1)))],
        );
        p.transition(wait, Some(Expr::var(cnt).ge(Expr::int(delay))), put);
        p.transition(wait, None, wait);
        p.actions(
            put,
            vec![Stmt::Call(ServiceCall {
                binding: b,
                service: "put".into(),
                args: vec![Expr::int(value)],
                done: Some(done),
                result: None,
            })],
        );
        p.transition(put, Some(Expr::var(done)), end);
        p.transition(end, None, end);
        p.initial(wait);
        p.build().unwrap()
    }

    #[test]
    fn blocked_consumer_parks_until_first_put() {
        // The headline regression: a consumer blocked on `get` against
        // an empty link records ZERO activations from the moment it
        // proves stable until the producer's first `put` lands.
        for cfg in [
            SchedulingConfig::sharded(),
            SchedulingConfig {
                units: UnitScheduling::PerUnit,
                ..SchedulingConfig::sharded()
            },
            SchedulingConfig {
                park_blocked: true,
                ..SchedulingConfig::legacy()
            },
        ] {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
            // Producer counts ~400 cycles before its first put.
            let p = delayed_producer(400, 77);
            let c = consumer(1);
            cosim.add_module(&p, &[("iface", link)]).unwrap();
            let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
            // 10us = ~100 HW cycles: producer still counting.
            cosim.run_for(Duration::from_us(10)).unwrap();
            let blocked_at = cosim.module_status(cid).activations;
            assert!(
                blocked_at <= 3,
                "consumer proves stable within a couple of steps, got {blocked_at} ({cfg:?})"
            );
            let parked = cosim.shard_stats();
            assert!(parked.members_parked >= 1, "consumer parked ({cfg:?})");
            assert!(parked.parked_now >= 1);
            // Another ~100 cycles of empty link: ZERO further activations.
            cosim.run_for(Duration::from_us(10)).unwrap();
            assert_eq!(
                cosim.module_status(cid).activations,
                blocked_at,
                "parked consumer costs zero activations while blocked ({cfg:?})"
            );
            // The put lands around cycle 400; the wire events re-arm the
            // consumer and the exchange completes.
            cosim.run_for(Duration::from_us(40)).unwrap();
            let st = cosim.module_status(cid);
            assert_eq!(st.state, "END", "{cfg:?}");
            assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(77)));
            let stats = cosim.shard_stats();
            assert!(
                stats.members_resumed >= 1,
                "completion wires resumed the parked consumer ({cfg:?})"
            );
            assert!(
                st.activations > blocked_at,
                "real work resumed after the put ({cfg:?})"
            );
        }
    }

    #[test]
    fn caller_spelling_does_not_change_parking() {
        // A VHDL-style caller spells the service "GET" against a unit
        // that declares "get". The call site resolves to the canonical
        // service when the module is added, completion wires included,
        // so the blocked caller parks after one activation exactly like
        // the canonical spelling, and the runs end identically.
        let run = |spelling: &str| {
            let mut cosim = Cosim::new(CosimConfig::default());
            let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
            cosim
                .add_module(&delayed_producer(1_000, 77), &[("iface", link)])
                .unwrap();
            let cid = cosim
                .add_module(&consumer_spelled(1, spelling), &[("iface", link)])
                .unwrap();
            // 50 us = ~500 cycles, all before the put at cycle 1000.
            cosim.run_for(Duration::from_us(50)).unwrap();
            let blocked = cosim.module_status(cid).activations;
            cosim.run_for(Duration::from_us(70)).unwrap();
            let st = cosim.module_status(cid);
            assert_eq!(st.state, "END", "{spelling}");
            let vars: Vec<_> = ["D", "GOT", "SUM", "N"]
                .iter()
                .map(|v| cosim.module_var(cid, v))
                .collect();
            (blocked, cosim.trace_log(), vars, cosim.unit_stats("link"))
        };
        let canonical = run("get");
        let upper = run("GET");
        assert_eq!(
            canonical.0, 1,
            "canonical caller parks after one activation"
        );
        assert_eq!(upper.0, 1, "upper-cased caller parks after one activation");
        assert_eq!(upper.1, canonical.1, "identical traces");
        assert!(upper.1.compare(&canonical.1).is_match());
        assert_eq!(upper.2, canonical.2, "identical variables");
        assert_eq!(upper.3, canonical.3, "one canonical stats row");
    }

    #[test]
    fn parking_agrees_across_module_schedulings() {
        // Sharded modules and per-module processes park identically:
        // same states, same SUMs, same ACTIVATION COUNTS, same traces.
        fn run(cfg: SchedulingConfig) -> (Vec<ModuleStatus>, Vec<Option<Value>>, usize) {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
            let p = producer(&[3, 4, 5]);
            let c = consumer(3);
            let pid = cosim.add_module(&p, &[("iface", link)]).unwrap();
            let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
            cosim.run_for(Duration::from_us(60)).unwrap();
            (
                vec![cosim.module_status(pid), cosim.module_status(cid)],
                vec![cosim.module_var(cid, "SUM")],
                cosim.trace_log().entries().len(),
            )
        }
        let sharded = run(SchedulingConfig::sharded());
        let per_unit = run(SchedulingConfig {
            units: UnitScheduling::PerUnit,
            ..SchedulingConfig::sharded()
        });
        let per_module = run(SchedulingConfig {
            modules: ModuleScheduling::PerModule,
            ..SchedulingConfig::sharded()
        });
        assert_eq!(sharded, per_module);
        assert_eq!(sharded, per_unit);
        assert_eq!(sharded.1[0], Some(Value::Int(12)));
    }

    #[test]
    fn unbound_binding_rejected() {
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        b.binding("iface", "hs");
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let m = b.build().unwrap();
        let mut cosim = Cosim::new(CosimConfig::default());
        let err = cosim.add_module(&m, &[]).unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)));
    }

    #[test]
    fn add_system_end_to_end() {
        use cosma_core::SystemBuilder;
        let mut sysb = SystemBuilder::new("demo");
        let pm = sysb.module(producer(&[1, 2]));
        let cm = sysb.module(consumer(2));
        let u = sysb.unit("link", handshake_unit("hs", Type::INT16));
        sysb.bind(pm, "iface", u).unwrap();
        sysb.bind(cm, "iface", u).unwrap();
        let sys = sysb.build().unwrap();

        let mut cosim = Cosim::new(CosimConfig::default());
        let ids = cosim.add_system(&sys).unwrap();
        cosim.run_for(Duration::from_us(40)).unwrap();
        assert_eq!(cosim.module_var(ids[1], "SUM"), Some(Value::Int(3)));
    }

    #[test]
    fn module_port_signals_created() {
        let mut b = ModuleBuilder::new("pm", ModuleKind::Hardware);
        let port = b.port("LED", cosma_core::PortDir::Out, Type::Bit);
        let s = b.state("S");
        b.actions(s, vec![Stmt::drive(port, Expr::bit(cosma_core::Bit::One))]);
        b.transition(s, None, s);
        b.initial(s);
        let m = b.build().unwrap();
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.add_module(&m, &[]).unwrap();
        cosim.run_for(Duration::from_us(1)).unwrap();
        let sig = cosim.sim().find_signal("pm.LED").expect("signal exists");
        assert_eq!(cosim.sim().value(sig), &Value::Bit(cosma_core::Bit::One));
    }

    #[test]
    fn blocked_native_caller_parks_and_resumes_on_enqueue() {
        // Wire-visible native units: the FIFO's queue occupancy is
        // mirrored onto a kernel OCC signal, so a consumer blocked on
        // `get` against the empty FIFO parks — ZERO activations while
        // blocked — and resumes when the producer's enqueue lands.
        fn delayed_producer(delay: i64, value: i64) -> Module {
            let mut p = ModuleBuilder::new("latecomer", ModuleKind::Software);
            let done = p.var("D", Type::Bool, Value::Bool(false));
            let cnt = p.var("C", Type::INT16, Value::Int(0));
            let b = p.binding("iface", "fifo");
            let wait = p.state("WAIT");
            let put = p.state("PUT");
            let end = p.state("END");
            p.actions(
                wait,
                vec![Stmt::assign(cnt, Expr::var(cnt).add(Expr::int(1)))],
            );
            p.transition(wait, Some(Expr::var(cnt).ge(Expr::int(delay))), put);
            p.transition(wait, None, wait);
            p.actions(
                put,
                vec![Stmt::Call(ServiceCall {
                    binding: b,
                    service: "put".into(),
                    args: vec![Expr::int(value)],
                    done: Some(done),
                    result: None,
                })],
            );
            p.transition(put, Some(Expr::var(done)), end);
            p.transition(end, None, end);
            p.initial(wait);
            p.build().unwrap()
        }
        let parked_legacy = SchedulingConfig {
            park_blocked: true,
            ..SchedulingConfig::legacy()
        };
        for cfg in [SchedulingConfig::sharded(), parked_legacy] {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let link = cosim.add_native_unit("fifo", Box::new(FifoChannel::new("fifo", 8)));
            assert!(
                cosim.sim().find_signal("fifo.OCC").is_some(),
                "occupancy mirrored onto a kernel signal"
            );
            let p = delayed_producer(400, 55);
            let c = consumer(1);
            cosim.add_module(&p, &[("iface", link)]).unwrap();
            let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
            // ~100 HW cycles: producer still counting, consumer blocked.
            cosim.run_for(Duration::from_us(10)).unwrap();
            let blocked_at = cosim.module_status(cid).activations;
            assert!(
                blocked_at <= 3,
                "consumer proves stable within a couple of steps, got {blocked_at} ({cfg:?})"
            );
            assert!(cosim.shard_stats().members_parked >= 1, "{cfg:?}");
            // Another ~100 cycles: ZERO further activations while blocked.
            cosim.run_for(Duration::from_us(10)).unwrap();
            assert_eq!(
                cosim.module_status(cid).activations,
                blocked_at,
                "parked native caller costs zero activations while blocked ({cfg:?})"
            );
            // The enqueue lands around cycle 400; the OCC event re-arms
            // the consumer and the exchange completes.
            cosim.run_for(Duration::from_us(40)).unwrap();
            let st = cosim.module_status(cid);
            assert_eq!(st.state, "END", "{cfg:?}");
            assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(55)));
            assert!(
                cosim.shard_stats().members_resumed >= 1,
                "OCC event resumed the parked consumer ({cfg:?})"
            );
        }
    }

    #[test]
    fn native_occ_mirror_survives_same_delta_churn() {
        // Regression: the OCC drive decision must compare against the
        // last *driven* value, not the committed signal value. With a
        // put and a get landing in the same delta (occupancy 0 -> 1 ->
        // 0), the committed-value comparison skipped the correcting
        // drive, left OCC stuck at 1 with an empty queue, and a later
        // put back to occupancy 1 then produced no event — so a parked
        // consumer never resumed.
        fn one_shot_producer(name: &str, value: i64) -> Module {
            let mut p = ModuleBuilder::new(name, ModuleKind::Software);
            let done = p.var("D", Type::Bool, Value::Bool(false));
            let b = p.binding("iface", "fifo");
            let put = p.state("PUT");
            let end = p.state("END");
            p.actions(
                put,
                vec![Stmt::Call(ServiceCall {
                    binding: b,
                    service: "put".into(),
                    args: vec![Expr::int(value)],
                    done: Some(done),
                    result: None,
                })],
            );
            p.transition(put, Some(Expr::var(done)), end);
            p.transition(end, None, end);
            p.initial(put);
            p.build().unwrap()
        }
        fn delayed_producer(name: &str, delay: i64, value: i64) -> Module {
            let mut p = ModuleBuilder::new(name, ModuleKind::Software);
            let done = p.var("D", Type::Bool, Value::Bool(false));
            let cnt = p.var("C", Type::INT16, Value::Int(0));
            let b = p.binding("iface", "fifo");
            let wait = p.state("WAIT");
            let put = p.state("PUT");
            let end = p.state("END");
            p.actions(
                wait,
                vec![Stmt::assign(cnt, Expr::var(cnt).add(Expr::int(1)))],
            );
            p.transition(wait, Some(Expr::var(cnt).ge(Expr::int(delay))), put);
            p.transition(wait, None, wait);
            p.actions(
                put,
                vec![Stmt::Call(ServiceCall {
                    binding: b,
                    service: "put".into(),
                    args: vec![Expr::int(value)],
                    done: Some(done),
                    result: None,
                })],
            );
            p.transition(put, Some(Expr::var(done)), end);
            p.transition(end, None, end);
            p.initial(put);
            p.build().unwrap()
        }
        let parked_legacy = SchedulingConfig {
            park_blocked: true,
            ..SchedulingConfig::legacy()
        };
        for cfg in [SchedulingConfig::sharded(), parked_legacy] {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let link = cosim.add_native_unit("fifo", Box::new(FifoChannel::new("fifo", 8)));
            // Same-cycle put+get: occupancy goes 0 -> 1 -> 0 inside one
            // delta (producer before consumer in creation order).
            let p0 = one_shot_producer("p0", 7);
            let c0 = consumer(1);
            cosim.add_module(&p0, &[("iface", link)]).unwrap();
            let c0id = cosim.add_module(&c0, &[("iface", link)]).unwrap();
            // A second consumer blocks on the now-empty queue and parks
            // on OCC.
            let c1 = consumer(1);
            let c1id = cosim.add_module(&c1, &[("iface", link)]).unwrap();
            // A late producer re-raises occupancy to exactly 1 — the
            // stale mirror would produce no event here.
            let p1 = delayed_producer("p1", 300, 9);
            cosim.add_module(&p1, &[("iface", link)]).unwrap();
            cosim.run_for(Duration::from_us(100)).unwrap();
            assert_eq!(
                cosim.module_var(c0id, "SUM"),
                Some(Value::Int(7)),
                "{cfg:?}"
            );
            let st = cosim.module_status(c1id);
            assert_eq!(st.state, "END", "parked consumer resumed ({cfg:?})");
            assert_eq!(
                cosim.module_var(c1id, "SUM"),
                Some(Value::Int(9)),
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn bodies_added_after_quiescence_get_clock_edges() {
        // Regression: registering a clocked body while the generators
        // are idle (everything parked after run_to_quiescence) must
        // kick them awake — otherwise the new body never activates.
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        let quiesced = cosim.run_to_quiescence(SimTime::from_ns(1000)).unwrap();
        assert!(quiesced, "self-looper parks, clocks stop");
        // Add a spinner whose activations are observable.
        let mut b = ModuleBuilder::new("late", ModuleKind::Software);
        let n = b.var("N", Type::INT16, Value::Int(0));
        let s = b.state("S");
        b.actions(s, vec![Stmt::assign(n, Expr::var(n).add(Expr::int(1)))]);
        b.transition(s, None, s);
        b.initial(s);
        let id = cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        cosim.run_for(Duration::from_us(2)).unwrap();
        let st = cosim.module_status(id);
        assert!(
            st.activations > 0,
            "late-added module must see clock edges (got {})",
            st.activations
        );
    }

    #[test]
    fn malformed_call_is_typed_module_error_not_panic() {
        // De-panicked call-application path: a module calling a service
        // its unit does not offer (or with a payload of the wrong kind)
        // halts with a typed error in ModuleStatus — identically under
        // the module driver and the per-module oracle.
        fn bad_caller(service: &str, args: Vec<Expr>) -> Module {
            let mut b = ModuleBuilder::new("badcall", ModuleKind::Software);
            let done = b.var("D", Type::Bool, Value::Bool(false));
            let bind = b.binding("iface", "bus");
            let s = b.state("S");
            b.actions(
                s,
                vec![Stmt::Call(ServiceCall {
                    binding: bind,
                    service: service.into(),
                    args,
                    done: Some(done),
                    result: None,
                })],
            );
            b.transition(s, None, s);
            b.initial(s);
            b.build().unwrap()
        }
        for cfg in [SchedulingConfig::sharded(), SchedulingConfig::legacy()] {
            for (service, args) in [
                ("bogus", vec![]),
                ("put", vec![]),
                ("put", vec![Expr::bool(true)]),
            ] {
                let mut cosim = Cosim::new(CosimConfig::default());
                cosim.set_scheduling(cfg).unwrap();
                let link = cosim.add_batched_unit("bus", Type::INT16, 4, 16).unwrap();
                let m = bad_caller(service, args.clone());
                let id = cosim.add_module(&m, &[("iface", link)]).unwrap();
                let err = cosim.run_for(Duration::from_us(1)).unwrap_err();
                assert!(matches!(err, CosimError::Runtime(_)), "{cfg:?}/{service}");
                let st = cosim.module_status(id);
                let msg = st.error.expect("typed error recorded on the module");
                assert_eq!(msg, err.to_string(), "{cfg:?}/{service}/{args:?}");
            }
        }
    }

    #[test]
    fn wire_event_in_clock_edge_delta_keeps_both_resume_orders() {
        // A testbench raises the link's PENDING wire in delta 1 of the
        // 500 ns instant, so its event lands in delta 2 — the delta both
        // activation clocks rise in. By then PENDING is the park wire of
        // two members: the link itself (a unit-shard member) and the
        // consumer blocked on `get` (a module-driver member). A unit
        // shard resumes its member before stepping, so the link pumps
        // (and clears PENDING) on that very edge; the driver resumes
        // after its stepping pass, so the consumer re-checks on the next
        // edge. Either way final states, traces and the wire history
        // match the oracle.
        fn late_producer(delay: i64, value: i64) -> Module {
            let mut p = ModuleBuilder::new("late", ModuleKind::Software);
            let done = p.var("D", Type::Bool, Value::Bool(false));
            let k = p.var("K", Type::INT16, Value::Int(0));
            let b = p.binding("iface", "hs");
            let wait = p.state("WAIT");
            let put = p.state("PUT");
            let end = p.state("END");
            p.actions(wait, vec![Stmt::assign(k, Expr::var(k).add(Expr::int(1)))]);
            p.transition(wait, Some(Expr::var(k).ge(Expr::int(delay))), put);
            p.transition(wait, None, wait);
            p.actions(
                put,
                vec![Stmt::Call(ServiceCall {
                    binding: b,
                    service: "put".into(),
                    args: vec![Expr::int(value)],
                    done: Some(done),
                    result: None,
                })],
            );
            p.transition(put, Some(Expr::var(done)), end);
            p.transition(end, None, end);
            p.initial(wait);
            p.build().unwrap()
        }
        #[derive(Debug, PartialEq)]
        struct Outcome {
            statuses: Vec<ModuleStatus>,
            got: Option<Value>,
            trace: Vec<crate::trace::TraceEntry>,
            /// PENDING's final value, event count and last event.
            pending: (Value, u64, Option<SimTime>),
            modules_stepped: u64,
        }
        let end = SimTime::from_ns(3000);
        let build = |cfg: SchedulingConfig| {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let link = cosim.add_batched_unit("l", Type::INT16, 4, 8).unwrap();
            cosim
                .add_module(&late_producer(12, 42), &[("iface", link)])
                .unwrap();
            let cid = cosim.add_module(&consumer(1), &[("iface", link)]).unwrap();
            let pending = cosim.sim().find_signal("l.PENDING").unwrap();
            // Stateless, so a restored backplane replays it exactly.
            cosim.sim_mut().add_process(
                "testbench",
                FnProcess::new(move |ctx| {
                    if ctx.now() == SimTime::from_ns(500) {
                        ctx.drive(pending, Value::Bit(cosma_core::Bit::One));
                    }
                    Wait::Timeout(Duration::from_ns(100))
                }),
            );
            (cosim, cid, pending)
        };
        let outcome = |cosim: &Cosim, cid: CosimModuleId, pending: SignalId| {
            let info = cosim.sim().signal_info(pending);
            Outcome {
                statuses: (0..2)
                    .map(|i| cosim.module_status(CosimModuleId(i)))
                    .collect(),
                got: cosim.module_var(cid, "GOT"),
                trace: cosim.trace_log().entries(),
                pending: (info.value, info.event_count, info.last_event),
                modules_stepped: cosim.shard_stats().modules_stepped,
            }
        };
        // Also returns, across the corner, the consumer's activations
        // and PENDING's events.
        let run = |cfg: SchedulingConfig| {
            let (mut cosim, cid, pending) = build(cfg);
            cosim.run_until(SimTime::from_ns(450)).unwrap();
            let acts = cosim.module_status(cid).activations;
            let events = cosim.sim().signal_info(pending).event_count;
            cosim.run_until(SimTime::from_ns(550)).unwrap();
            let corner = (
                cosim.module_status(cid).activations - acts,
                cosim.sim().signal_info(pending).event_count - events,
            );
            cosim.run_until(end).unwrap();
            (outcome(&cosim, cid, pending), corner, cosim)
        };
        let (sharded, sharded_corner, cosim) = run(SchedulingConfig::sharded());
        let (parked_legacy, legacy_corner, _) = run(SchedulingConfig {
            park_blocked: true,
            ..SchedulingConfig::legacy()
        });
        assert_eq!(sharded.got, Some(Value::Int(42)));
        assert_eq!(sharded.statuses[1].state, "END");
        assert!(cosim.shard_stats().members_resumed >= 1);
        // Both raise and clear PENDING within the corner instant: the
        // link pumps on the corner edge. The per-module process steps
        // the consumer on that edge too; the driver re-checks it one
        // edge later.
        assert_eq!((sharded_corner, legacy_corner), ((0, 2), (1, 2)));
        // Activation counts differ with the resume order (and with
        // parking itself against the unparked oracle); the rest agrees.
        let observed = |o: &Outcome| {
            let states: Vec<_> = o
                .statuses
                .iter()
                .map(|s| (s.state.clone(), s.error.clone()))
                .collect();
            (states, o.got.clone(), o.trace.clone(), o.pending.clone())
        };
        for oracle in [parked_legacy, run(SchedulingConfig::legacy()).0] {
            assert_eq!(observed(&sharded), observed(&oracle));
        }

        // Checkpoint while both members are parked on PENDING (their
        // wake subscriptions armed in the kernel), then replay the
        // corner from the restored state.
        let (mut cosim, cid, pending) = build(SchedulingConfig::sharded());
        cosim.run_until(SimTime::from_ns(450)).unwrap();
        assert!(
            cosim.shard_stats().parked_now >= 2,
            "link and consumer parked"
        );
        let snap = cosim.snapshot();
        cosim.run_until(end).unwrap();
        let straight = outcome(&cosim, cid, pending);
        assert_eq!(straight, sharded);
        cosim.restore(&snap).unwrap();
        cosim.run_until(end).unwrap();
        assert_eq!(outcome(&cosim, cid, pending), straight);
    }

    #[test]
    fn module_var_of_foreign_module_is_none() {
        let mut big = Cosim::new(CosimConfig::default());
        let link = big.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        big.add_module(&producer(&[1]), &[("iface", link)]).unwrap();
        let foreign = big.add_module(&consumer(1), &[("iface", link)]).unwrap();
        let mut small = Cosim::new(CosimConfig::default());
        let link = small.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        let own = small.add_module(&consumer(1), &[("iface", link)]).unwrap();
        assert_eq!(small.module_var(own, "SUM"), Some(Value::Int(0)));
        assert_eq!(small.module_var(own, "NOPE"), None);
        assert_eq!(small.module_var(foreign, "SUM"), None);
    }

    #[test]
    fn driver_places_modules_by_hashed_id() {
        // Modules spread over several driver shards under hashed
        // placement, and still step in module-id order: the exchange
        // completes exactly as under the per-module path.
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim
            .set_scheduling(SchedulingConfig {
                modules: ModuleScheduling::Sharded { shard_size: 2 },
                ..SchedulingConfig::sharded()
            })
            .unwrap();
        let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        let p = producer(&[1, 2, 3]);
        let c = consumer(3);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        for k in 0..6 {
            let mut b = ModuleBuilder::new(format!("idle{k}"), ModuleKind::Software);
            let s = b.state("S");
            b.transition(s, None, s);
            b.initial(s);
            cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        }
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
        cosim.run_for(Duration::from_us(50)).unwrap();
        assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(6)));
        let st = cosim.shard_stats();
        assert_eq!(st.commit_calls, 0, "calls apply immediately: {st:?}");
        assert!(
            st.modules_stepped > 0,
            "modules stepped through the driver: {st:?}"
        );
        assert!(
            cosim.sched.driver.as_ref().unwrap().borrow().shards.len() >= 2,
            "8 modules at shard size 2 open several driver shards"
        );
    }

    #[test]
    fn invalid_scheduling_configs_rejected() {
        let mut cosim = Cosim::new(CosimConfig::default());
        assert!(matches!(
            cosim.set_scheduling(SchedulingConfig {
                units: UnitScheduling::Sharded { shard_size: 0 },
                ..SchedulingConfig::sharded()
            }),
            Err(CosimError::Setup(_))
        ));
        assert!(matches!(
            cosim.set_scheduling(SchedulingConfig {
                modules: ModuleScheduling::Sharded { shard_size: 0 },
                ..SchedulingConfig::sharded()
            }),
            Err(CosimError::Setup(_))
        ));
        // Every combination of the two halves is a valid configuration.
        for units in [UnitScheduling::PerUnit, UnitScheduling::default()] {
            for modules in [ModuleScheduling::PerModule, ModuleScheduling::default()] {
                for park_blocked in [false, true] {
                    let cfg = SchedulingConfig {
                        units,
                        modules,
                        park_blocked,
                    };
                    cosim.set_scheduling(cfg).unwrap();
                    assert_eq!(cosim.scheduling(), cfg);
                }
            }
        }
    }

    #[test]
    fn invalid_clock_domain_configs_rejected() {
        // Zero ratio components.
        let mut cosim = Cosim::new(CosimConfig::default());
        assert!(matches!(
            cosim.add_clock_domain("z", 0, 1),
            Err(CosimError::Setup(_))
        ));
        assert!(matches!(
            cosim.add_clock_domain("z", 1, 0),
            Err(CosimError::Setup(_))
        ));
        // A ratio that scales the activation period to zero.
        assert!(matches!(
            cosim.add_clock_domain("z", 1, u64::MAX),
            Err(CosimError::Setup(_))
        ));
        // Empty and duplicate names.
        assert!(matches!(
            cosim.add_clock_domain("", 2, 1),
            Err(CosimError::Setup(_))
        ));
        cosim.add_clock_domain("slow", 2, 1).unwrap();
        assert!(matches!(
            cosim.add_clock_domain("slow", 4, 1),
            Err(CosimError::Setup(_))
        ));
        // Domains must precede units and modules.
        cosim.add_fsm_unit("u0", handshake_unit("hs", Type::INT16));
        assert!(matches!(
            cosim.add_clock_domain("late", 2, 1),
            Err(CosimError::Setup(_))
        ));
    }

    #[test]
    fn hashed_unit_placement_is_deterministic() {
        // Two identical builds place units into identical shards.
        fn shard_sizes() -> Vec<usize> {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim
                .set_scheduling(SchedulingConfig {
                    units: UnitScheduling::Sharded { shard_size: 4 },
                    ..SchedulingConfig::sharded()
                })
                .unwrap();
            for k in 0..17 {
                cosim.add_fsm_unit(&format!("u{k}"), handshake_unit("hs", Type::INT16));
            }
            cosim
                .sched
                .unit_shards
                .iter()
                .map(|s| s.borrow().members.len())
                .collect()
        }
        let a = shard_sizes();
        let b = shard_sizes();
        assert_eq!(a, b, "hashed placement is deterministic");
        assert_eq!(a.iter().sum::<usize>(), 17, "every unit placed");
        assert!(a.len() >= 2, "17 units at shard size 4 open several shards");
    }
}
