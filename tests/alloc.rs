//! Steady-state allocation regression gate (behind the test-only
//! `count-allocs` feature): a counting global allocator pins *warm*
//! rings on the default scheduler ([`SchedulingConfig::sharded`]) to
//! **zero** heap allocations per cycle.
//!
//! The trace-heavy scenario is chosen to cross every pooled hot path
//! at once:
//!
//! * trace-heavy (`ScenarioSpec::trace`): every module records a trace
//!   entry per activation, so nothing parks and the columnar log's
//!   segment pool and spill recycling are exercised each cycle;
//! * the module driver steps the whole ring every cycle, so its pooled
//!   stepping set, the per-activation effects arena and the batched
//!   links' call path run on every edge.
//!
//! The untraced churn ring covers the other half: members park and
//! resume every few cycles through the kernel's one-shot wake
//! subscriptions.
//!
//! The board gate places the motor controller's three synthesized
//! netlists on a [`Fabric`] and pins warm fabric ticks (bank sampling,
//! event-driven netlist evaluation, the two-phase write commit) to zero
//! allocations as well.
//!
//! Run with: `cargo test --features count-allocs --test alloc`
#![cfg(feature = "count-allocs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cosma::board::{Fabric, WireBank};
use cosma::cosim::scenario::{build_scenario, DomainsSpec, LinkKind, ScenarioSpec, Topology};
use cosma::cosim::{BusTiming, SchedulingConfig};
use cosma::motor::{
    core_module, motor_link_unit, position_module, swhw_link_unit, timer_module, MotorConfig,
};
use cosma::sim::Duration;
use cosma::synth::{flatten_module, synthesize_hw, Encoding};
use std::collections::HashMap;

/// Counts every heap acquisition (alloc, zeroed alloc, realloc) while
/// delegating to the system allocator. Deallocations are not counted:
/// the gate is about *acquiring* memory in the steady state.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The counting allocator is process-global, so gate tests must not
/// overlap: each takes this lock for its warm-up + window.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn warm_trace_heavy_cycles_do_not_allocate() {
    let _serial = GATE.lock().unwrap();
    // A Ring keeps every module stepping for the whole run: the driver
    // circulates values_per_link tokens (far more than the run needs),
    // the relays forward forever, and tracing keeps everyone unparked.
    let spec = ScenarioSpec {
        units: 8,
        topology: Topology::Ring,
        values_per_link: 1_000_000,
        link: LinkKind::Batched {
            max_batch: 8,
            capacity: 32,
            timing: BusTiming::LengthOnly,
        },
        scheduling: SchedulingConfig::sharded(),
        trace: true,
        ..ScenarioSpec::default()
    };
    let mut s = build_scenario(&spec).expect("scenario builds");
    // Spill the trace log so recording runs in bounded memory: full
    // segments are encoded to the sink and their shells recycled, so a
    // warm log never grows.
    s.cosim
        .trace_handle()
        .borrow_mut()
        .set_spill(Box::new(std::io::sink()));
    // Warm-up: grow every pool to its working set — effects arenas,
    // the driver's stepping set, kernel queues, trace segments,
    // interner.
    s.cosim
        .run_for(Duration::from_us(60))
        .expect("warm-up runs");
    assert!(
        s.cosim.trace_handle().borrow().spilled() > 0,
        "warm-up must already spill trace segments (trace-heavy regime)"
    );
    let before = allocs();
    s.cosim.run_for(Duration::from_us(60)).expect("window runs");
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "warm steady-state cycles must not allocate, saw {grew} allocations"
    );
}

#[test]
fn warm_streaming_payload_beats_do_not_allocate() {
    let _serial = GATE.lock().unwrap();
    // A Ring of batched PayloadBeats links: every transaction that wins
    // arbitration burst-schedules its remaining DATA/B_VALID beats as a
    // drive train, so the warm window continuously exercises the timer
    // wheel's bulk-insert shells, slot-vector recycling and the
    // `take_due` compaction swap alongside the streaming link pumps.
    // The warm-up is long enough for every level-0 and level-1 slot the
    // traffic touches to have been occupied (and its vector retained)
    // at least once.
    let spec = ScenarioSpec {
        units: 8,
        topology: Topology::Ring,
        values_per_link: 1_000_000,
        link: LinkKind::Batched {
            max_batch: 8,
            capacity: 32,
            timing: BusTiming::PayloadBeats,
        },
        scheduling: SchedulingConfig::sharded(),
        trace: false,
        ..ScenarioSpec::default()
    };
    let mut s = build_scenario(&spec).expect("scenario builds");
    s.cosim
        .run_for(Duration::from_us(100))
        .expect("warm-up runs");
    let stats = s.cosim.sim().stats();
    assert!(
        stats.bulk_inserts > 0,
        "payload-beat bursts must bulk-insert into the wheel: {stats:?}"
    );
    let before = allocs();
    s.cosim.run_for(Duration::from_us(60)).expect("window runs");
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "warm streaming payload-beat cycles must not allocate, saw {grew} allocations"
    );
}

#[test]
fn warm_multi_rate_ring_cycles_do_not_allocate() {
    let _serial = GATE.lock().unwrap();
    // A multi-rate Ring: the first link and the modules touching it run
    // in a quarter-rate clock domain, so the warm window exercises the
    // per-domain clock generators, the domain-keyed shard park/demand
    // accounting, and cross-rate link pumps — none of which may
    // allocate once the pools are warm.
    let spec = ScenarioSpec {
        units: 8,
        topology: Topology::Ring,
        values_per_link: 1_000_000,
        link: LinkKind::Batched {
            max_batch: 8,
            capacity: 32,
            timing: BusTiming::LengthOnly,
        },
        scheduling: SchedulingConfig::sharded(),
        trace: true,
        domains: DomainsSpec {
            ratio: (4, 1),
            slow_links: 1,
        },
        ..ScenarioSpec::default()
    };
    let mut s = build_scenario(&spec).expect("scenario builds");
    s.cosim
        .trace_handle()
        .borrow_mut()
        .set_spill(Box::new(std::io::sink()));
    assert!(s.cosim.domain_count() > 1, "second clock domain installed");
    s.cosim
        .run_for(Duration::from_us(100))
        .expect("warm-up runs");
    let before = allocs();
    s.cosim.run_for(Duration::from_us(60)).expect("window runs");
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "warm multi-rate ring cycles must not allocate, saw {grew} allocations"
    );
}

#[test]
fn warm_park_resume_churn_does_not_allocate() {
    let _serial = GATE.lock().unwrap();
    // An untraced length-only Ring: relays block on `get` between
    // tokens, so modules and link pumps park and resume all the time.
    // The warm window crosses the wake-subscription path end to end —
    // arming on park, the kernel's per-signal subscription lists and
    // per-process wake inboxes, the unit shards' and the module
    // driver's draining and their armed-wire bookkeeping — and none of
    // it may allocate once its buffers are warm.
    let spec = ScenarioSpec {
        units: 8,
        topology: Topology::Ring,
        values_per_link: 1_000_000,
        link: LinkKind::Batched {
            max_batch: 8,
            capacity: 32,
            timing: BusTiming::LengthOnly,
        },
        scheduling: SchedulingConfig::sharded(),
        trace: false,
        ..ScenarioSpec::default()
    };
    let mut s = build_scenario(&spec).expect("scenario builds");
    s.cosim
        .run_for(Duration::from_us(100))
        .expect("warm-up runs");
    let warm = s.cosim.shard_stats();
    let before = allocs();
    s.cosim.run_for(Duration::from_us(60)).expect("window runs");
    let grew = allocs() - before;
    let after = s.cosim.shard_stats();
    assert!(
        after.members_resumed > warm.members_resumed,
        "the window must resume parked members: {warm:?} -> {after:?}"
    );
    assert_eq!(
        grew, 0,
        "warm park/resume churn must not allocate, saw {grew} allocations"
    );
}

#[test]
fn warm_fabric_ticks_do_not_allocate() {
    let _serial = GATE.lock().unwrap();
    // The motor's Speed Control units synthesized and placed as the
    // board assembly does, with the bank's other side (the CPU's
    // mailbox posts and the motor's handshake and sampled position)
    // written between ticks so the netlists keep re-evaluating.
    let cfg = MotorConfig::default();
    let mut units = HashMap::new();
    units.insert("swhw".to_string(), swhw_link_unit());
    units.insert("mlink".to_string(), motor_link_unit());
    let mut bank = WireBank::new();
    let mut fabric = Fabric::new();
    for module in [position_module(&cfg), core_module(), timer_module(&cfg)] {
        let flat = flatten_module(&module, &units).expect("module flattens");
        let (nl, _) = synthesize_hw(&flat, Encoding::Binary).expect("module synthesizes");
        fabric.place(&nl, &mut bank);
    }
    let slot = |name: &str| bank.index(name).expect("placed netlists use the wire");
    let (pos_reg, pos_full) = (slot("swhw_POS_REG"), slot("swhw_POS_FULL"));
    let (strobe, ack) = (slot("mlink_PULSE_STROBE"), slot("mlink_PULSE_ACK"));
    let sampled = slot("mlink_SAMPLED_POS");
    let tick = |fabric: &mut Fabric, bank: &mut WireBank, k: u64| {
        if k % 64 == 0 {
            bank.write(pos_reg, (k / 64) * 25);
            bank.write(pos_full, 1);
        }
        // The motor acknowledges every strobe and creeps forward.
        bank.write(ack, bank.read(strobe));
        bank.write(sampled, (k / 16) & 0xFFFF);
        fabric.tick(bank);
    };
    for k in 0..5_000 {
        tick(&mut fabric, &mut bank, k);
    }
    let strobes = bank.write_count(strobe);
    let before = allocs();
    for k in 5_000..10_000 {
        tick(&mut fabric, &mut bank, k);
    }
    let grew = allocs() - before;
    assert!(
        bank.write_count(strobe) > strobes,
        "the netlists must keep driving the motor handshake in the window"
    );
    assert_eq!(fabric.ticks(), 10_000);
    assert_eq!(
        grew, 0,
        "warm fabric ticks must not allocate, saw {grew} allocations"
    );
}
