//! # cosma-cosim — the co-simulation backplane
//!
//! Joint simulation of hardware and software over the discrete-event
//! kernel, following the paper's model:
//!
//! * the same module descriptions used for co-synthesis run here
//!   unchanged (coherence by construction),
//! * software modules are activated once per SW cycle and execute exactly
//!   one transition (precise HW/SW synchronization),
//! * all inter-module interaction goes through communication units whose
//!   wires are kernel signals,
//! * module and unit stepping share one activation-gating architecture
//!   ([`SchedulingConfig`]) with one production path and one reference
//!   oracle. The production path ([`SchedulingConfig::sharded`]) runs
//!   units in hashed shards and steps every clocked module from one
//!   driver process in module-id order, with service calls applied the
//!   moment they execute; provably-stable FSMs are *parked* on their
//!   completion wires, so blocked or finished parts of the backplane
//!   cost nothing per clock edge. The oracle
//!   ([`SchedulingConfig::legacy`]) runs one process per unit and per
//!   module, stepped on every clock edge. Both produce the same traces
//!   and final states,
//! * every `Stmt::Trace` lands in a [`TraceLog`] that can be compared
//!   event-for-event against a co-synthesis (board-level) run,
//! * the whole backplane checkpoints into a [`Snapshot`]
//!   ([`Cosim::snapshot`] / [`Cosim::restore`] / [`Cosim::fork`]) with
//!   bit-identical deterministic replay: every layer owns and captures
//!   its mutable state (kernel schedule, unit internals, module
//!   executors, scheduler gating), and the backplane externalizes all
//!   of its process-closure state to make that possible.

#![warn(missing_docs)]

mod annotate;
mod backplane;
pub mod partition;
pub mod scenario;
mod trace;
pub mod tracebin;

pub use annotate::{
    annotate_batch_latency, back_annotate, timing_error, BackAnnotation, BatchAnnotation,
    BatchLinkTiming, LabelTiming, LinkCalibration,
};
pub use backplane::{
    Cosim, CosimConfig, CosimError, CosimModuleId, DomainId, ModuleScheduling, ModuleStatus,
    SchedulingConfig, ShardStats, Snapshot, UnitId, UnitScheduling, DEFAULT_SHARD_SIZE,
};
pub use cosma_comm::BusTiming;
pub use cosma_sim::ClockRatio;
pub use partition::{BoundarySpec, Orchestrator, OrchestratorStats, Partition, PartitionId};
pub use trace::{TraceComparison, TraceEntry, TraceEntryRef, TraceLog};
