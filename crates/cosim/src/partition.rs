//! Partitioned co-simulation: several backplane instances coupled
//! through latency-annotated boundary links and synchronized
//! conservatively.
//!
//! A [`Partition`] wraps one [`Cosim`] backplane. Cross-partition
//! traffic travels through [`BoundarySpec`]-described boundary links —
//! a pair of batched half-units sharing one latency-stamped message
//! queue across the cut. The [`Orchestrator`] advances all partitions
//! in *lookahead windows* no longer than the smallest boundary latency,
//! running every partition to the window end before any partition
//! enters the next window.
//!
//! That schedule is exact without speculation because a boundary has no
//! back-pressure across the cut. The *out* half's exporter drains its
//! link into an unbounded queue stamped `now + latency`; the *in* half
//! injects only entries whose arrival time has been reached; nothing
//! flows from consumer to producer. So every entry a partition can
//! inject by a window end `w1` was exported at or before
//! `w1 - lookahead <= w0`, i.e. by a window that has already run to
//! completion. After every window the orchestrator checks that claim on
//! the entries the window appended (all must arrive after `w1`) and
//! reports a violation as [`CosimError::Runtime`].
//!
//! The result is bit-identical to running the same coupled structure
//! (including the boundary half-units) in a single backplane — the
//! property-test oracle.

use crate::backplane::{BoundaryQueue, Cosim, CosimError, DomainId, UnitId};
use cosma_comm::BusTiming;
use cosma_core::Type;
use cosma_sim::{Duration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Identifies a partition registered with an [`Orchestrator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionId(usize);

impl PartitionId {
    /// Index of this partition in the orchestrator's table.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

/// One end's description of a boundary link. Both ends must describe
/// the link identically — [`Orchestrator::add_boundary`] rejects
/// disagreeing ends with [`CosimError::Setup`], since a link whose
/// halves disagree on capacity or timing would silently desynchronize
/// the partitioned run from its monolithic oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundarySpec {
    /// Element type carried by the link.
    pub data_ty: Type,
    /// Maximum batch size of the underlying batched link.
    pub max_batch: usize,
    /// Capacity (element queue depth) of each half.
    pub capacity: usize,
    /// Bus timing of each half.
    pub timing: BusTiming,
    /// Transport latency across the cut. Must be strictly positive:
    /// the smallest boundary latency is the orchestrator's lookahead
    /// window.
    pub latency: Duration,
}

/// Cumulative synchronization statistics of an [`Orchestrator`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrchestratorStats {
    /// Quanta fully committed.
    pub quanta_committed: u64,
    /// Partition re-runs. Always 0: the conservative sync never rolls
    /// back.
    pub rollbacks: u64,
    /// Values transported across all boundary links.
    pub boundary_messages: u64,
    /// Causality checks executed, one per lookahead window.
    pub rescan_rounds: u64,
}

/// One partition: a backplane coupled to others through boundary
/// links.
#[derive(Debug)]
pub struct Partition {
    cosim: Cosim,
}

impl Partition {
    /// The wrapped backplane.
    #[must_use]
    pub fn cosim(&self) -> &Cosim {
        &self.cosim
    }

    /// The wrapped backplane, mutably.
    pub fn cosim_mut(&mut self) -> &mut Cosim {
        &mut self.cosim
    }
}

/// The orchestrator's end of one boundary link.
struct Boundary {
    name: String,
    queue: Rc<RefCell<BoundaryQueue>>,
    /// Queue entries that already passed the causality check.
    checked: usize,
}

/// Couples partitions and advances them in conservatively-synchronized
/// lookahead windows. See the [module docs](self) for the
/// synchronization contract.
pub struct Orchestrator {
    partitions: Vec<Partition>,
    boundaries: Vec<Boundary>,
    /// The smallest boundary latency; `None` without boundaries.
    lookahead: Option<Duration>,
    stats: OrchestratorStats,
    now: SimTime,
    started: bool,
}

impl Default for Orchestrator {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orchestrator")
            .field("partitions", &self.partitions.len())
            .field("boundaries", &self.boundaries.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Orchestrator {
    /// An orchestrator with no partitions.
    #[must_use]
    pub fn new() -> Self {
        Orchestrator {
            partitions: vec![],
            boundaries: vec![],
            lookahead: None,
            stats: OrchestratorStats::default(),
            now: SimTime::ZERO,
            started: false,
        }
    }

    /// Registers a backplane as a partition. The backplane's clock
    /// domains are *pinned* ([`Cosim::pin_clock_domains`]) so every
    /// partition produces the same activation-edge grid regardless of
    /// how the cut distributes clock demand — the property that makes
    /// partitioned runs bit-identical to the monolithic oracle.
    pub fn add_partition(&mut self, mut cosim: Cosim) -> PartitionId {
        cosim.pin_clock_domains();
        self.partitions.push(Partition { cosim });
        PartitionId(self.partitions.len() - 1)
    }

    /// Installs a boundary link: the *out* half (producers `put` into
    /// it) on `from` in `from_domain`, the *in* half (consumers `get`
    /// from it) on `to` in `to_domain`. Each side passes its own
    /// [`BoundarySpec`]; both ends must agree.
    ///
    /// Returns the unit ids of the two halves (`out`, `in`) — bind
    /// producer modules to the first on `from`, consumer modules to
    /// the second on `to`. The smallest latency over all boundaries is
    /// the orchestrator's lookahead window.
    ///
    /// # Errors
    ///
    /// [`CosimError::Setup`] when the two specs disagree, the latency
    /// is zero, a partition id is stale, the quantum loop already
    /// started, or the halves collide with existing unit names.
    #[allow(clippy::too_many_arguments)]
    pub fn add_boundary(
        &mut self,
        name: &str,
        from: PartitionId,
        from_domain: DomainId,
        from_spec: &BoundarySpec,
        to: PartitionId,
        to_domain: DomainId,
        to_spec: &BoundarySpec,
    ) -> Result<(UnitId, UnitId), CosimError> {
        if self.started {
            return Err(CosimError::Setup(format!(
                "boundary link {name}: boundaries must be installed before the first quantum"
            )));
        }
        if from_spec != to_spec {
            return Err(CosimError::Setup(format!(
                "boundary link {name}: the two ends disagree on the link contract \
                 ({from_spec:?} vs {to_spec:?}); both partitions must describe the \
                 boundary identically"
            )));
        }
        if from.0 >= self.partitions.len() || to.0 >= self.partitions.len() {
            return Err(CosimError::Setup(format!(
                "boundary link {name}: unknown partition id (this orchestrator has {})",
                self.partitions.len()
            )));
        }
        let queue = Rc::new(RefCell::new(BoundaryQueue::default()));
        let spec = from_spec;
        let out_id = self.partitions[from.0].cosim.add_boundary_out(
            from_domain,
            name,
            spec.data_ty.clone(),
            spec.max_batch,
            spec.capacity,
            spec.timing,
            spec.latency,
            Rc::clone(&queue),
        )?;
        let in_id = self.partitions[to.0].cosim.add_boundary_in(
            to_domain,
            name,
            spec.data_ty.clone(),
            spec.max_batch,
            spec.capacity,
            spec.timing,
            Rc::clone(&queue),
        )?;
        self.boundaries.push(Boundary {
            name: name.to_string(),
            queue,
            checked: 0,
        });
        self.lookahead = Some(self.lookahead.map_or(spec.latency, |l| l.min(spec.latency)));
        Ok((out_id, in_id))
    }

    /// A registered partition.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this orchestrator.
    #[must_use]
    pub fn partition(&self, p: PartitionId) -> &Partition {
        &self.partitions[p.0]
    }

    /// A registered partition, mutably. Mutating simulation state
    /// mid-quantum voids the bit-identical guarantee; use between
    /// quanta (e.g. to inspect traces or poke test stimuli).
    pub fn partition_mut(&mut self, p: PartitionId) -> &mut Partition {
        &mut self.partitions[p.0]
    }

    /// Number of registered partitions.
    #[must_use]
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Cumulative synchronization statistics.
    #[must_use]
    pub fn stats(&self) -> OrchestratorStats {
        self.stats
    }

    /// Global simulated time reached by the committed quanta.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances every partition by `total`, in sync quanta of
    /// `quantum` (the final quantum is clipped to the remainder).
    ///
    /// # Errors
    ///
    /// [`CosimError::Setup`] when `quantum` is zero; any error a
    /// partition run produces; and [`CosimError::Runtime`] if a
    /// window's causality check fails.
    pub fn run_for(&mut self, total: Duration, quantum: Duration) -> Result<(), CosimError> {
        if quantum == Duration::ZERO {
            return Err(CosimError::Setup(
                "sync quantum must be positive".to_string(),
            ));
        }
        let deadline = self.now.saturating_add(total);
        while self.now < deadline {
            let t1 = self.now.saturating_add(quantum).min(deadline);
            self.run_quantum(t1)?;
        }
        Ok(())
    }

    /// Runs one conservative quantum `(now, t1]` as a sequence of
    /// lookahead windows `(w0, w1]`, `w1 = min(w0 + lookahead, t1)`:
    /// every partition, in partition order, runs to `w1` before any
    /// enters the next window, and each window ends with a causality
    /// check of the entries it appended. Then commits the quantum by
    /// dropping every queue's consumed prefix.
    fn run_quantum(&mut self, t1: SimTime) -> Result<(), CosimError> {
        if !self.started {
            self.started = true;
            // Windows are open at their start, so the start instant is
            // settled on its own first: an entry exported there arrives
            // one latency later, which may be exactly the first window
            // end.
            for p in &mut self.partitions {
                p.cosim.run_until(self.now)?;
            }
            self.check_causality(self.now)?;
        }
        let mut w0 = self.now;
        while w0 < t1 {
            let w1 = self.lookahead.map_or(t1, |l| w0.saturating_add(l).min(t1));
            for p in &mut self.partitions {
                p.cosim.run_until(w1)?;
            }
            self.stats.rescan_rounds += 1;
            self.check_causality(w1)?;
            w0 = w1;
        }
        // Commit: drop the consumed prefix of every queue so memory
        // stays bounded.
        for b in &mut self.boundaries {
            let mut q = b.queue.borrow_mut();
            let consumed = q.cursor;
            q.entries.drain(..consumed);
            q.cursor = 0;
            b.checked = q.entries.len();
        }
        self.stats.quanta_committed += 1;
        self.now = t1;
        Ok(())
    }

    /// Checks and counts the entries every boundary queue gained since
    /// its last check, all partitions having run to `w1`.
    fn check_causality(&mut self, w1: SimTime) -> Result<(), CosimError> {
        for b in &mut self.boundaries {
            let q = b.queue.borrow();
            check_window(&b.name, &q, b.checked, w1)?;
            self.stats.boundary_messages += (q.entries.len() - b.checked) as u64;
            b.checked = q.entries.len();
        }
        Ok(())
    }
}

/// The causality check of one boundary queue after a window ending at
/// `w1`: every entry from index `from` on was appended during the
/// window and must arrive after `w1`, or a partition that already ran
/// past its arrival time could have missed it.
fn check_window(name: &str, q: &BoundaryQueue, from: usize, w1: SimTime) -> Result<(), CosimError> {
    match q.entries[from..].iter().find(|(t_arr, _)| *t_arr <= w1) {
        Some((t_arr, _)) => Err(CosimError::Runtime(format!(
            "boundary link {name}: an entry arriving at {t_arr} was exported in the \
             window ending at {w1}; the lookahead window exceeds the link latency"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backplane::CosimConfig;
    use cosma_core::Value;

    fn spec() -> BoundarySpec {
        BoundarySpec {
            data_ty: Type::INT16,
            max_batch: 4,
            capacity: 16,
            timing: BusTiming::LengthOnly,
            latency: Duration::from_ns(200),
        }
    }

    fn two_partitions() -> (Orchestrator, PartitionId, PartitionId) {
        let mut orch = Orchestrator::new();
        let a = orch.add_partition(Cosim::new(CosimConfig::default()));
        let b = orch.add_partition(Cosim::new(CosimConfig::default()));
        (orch, a, b)
    }

    #[test]
    fn boundary_ends_must_agree() {
        let (mut orch, a, b) = two_partitions();
        let disagree = BoundarySpec {
            capacity: 8,
            ..spec()
        };
        let err = orch
            .add_boundary(
                "cut",
                a,
                DomainId::BASE,
                &spec(),
                b,
                DomainId::BASE,
                &disagree,
            )
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)), "{err}");
        assert!(err.to_string().contains("disagree"), "{err}");
    }

    #[test]
    fn boundary_latency_must_be_positive() {
        let (mut orch, a, b) = two_partitions();
        let zero = BoundarySpec {
            latency: Duration::ZERO,
            ..spec()
        };
        let err = orch
            .add_boundary("cut", a, DomainId::BASE, &zero, b, DomainId::BASE, &zero)
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)), "{err}");
        assert!(err.to_string().contains("latency"), "{err}");
    }

    #[test]
    fn boundary_rejects_foreign_partition_id() {
        let (mut orch, a, _) = two_partitions();
        let stale = PartitionId(7);
        let err = orch
            .add_boundary(
                "cut",
                a,
                DomainId::BASE,
                &spec(),
                stale,
                DomainId::BASE,
                &spec(),
            )
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)), "{err}");
    }

    #[test]
    fn boundaries_frozen_after_first_quantum() {
        let (mut orch, a, b) = two_partitions();
        orch.run_for(Duration::from_us(1), Duration::from_us(1))
            .unwrap();
        let err = orch
            .add_boundary(
                "cut",
                a,
                DomainId::BASE,
                &spec(),
                b,
                DomainId::BASE,
                &spec(),
            )
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)), "{err}");
    }

    #[test]
    fn windows_follow_the_smallest_boundary_latency() {
        let (mut orch, a, b) = two_partitions();
        let slow = BoundarySpec {
            latency: Duration::from_ns(500),
            ..spec()
        };
        orch.add_boundary(
            "fast",
            a,
            DomainId::BASE,
            &spec(),
            b,
            DomainId::BASE,
            &spec(),
        )
        .unwrap();
        orch.add_boundary("slow", b, DomainId::BASE, &slow, a, DomainId::BASE, &slow)
            .unwrap();
        orch.run_for(Duration::from_us(2), Duration::from_us(1))
            .unwrap();
        let stats = orch.stats();
        assert_eq!(stats.quanta_committed, 2, "{stats:?}");
        assert_eq!(
            stats.rescan_rounds, 10,
            "1 us quanta in 200 ns windows: {stats:?}"
        );
        assert_eq!(stats.rollbacks, 0, "{stats:?}");
    }

    #[test]
    fn no_boundaries_means_one_window_per_quantum() {
        let (mut orch, _, _) = two_partitions();
        orch.run_for(Duration::from_us(3), Duration::from_us(1))
            .unwrap();
        let stats = orch.stats();
        assert_eq!(stats.quanta_committed, 3, "{stats:?}");
        assert_eq!(stats.rescan_rounds, 3, "{stats:?}");
    }

    #[test]
    fn causality_check_rejects_an_entry_arriving_inside_the_window() {
        let w1 = SimTime::from_ns(400);
        let q = BoundaryQueue {
            entries: vec![
                (SimTime::from_ns(300), Value::Int(1)),
                (SimTime::from_ns(350), Value::Int(2)),
                (SimTime::from_ns(600), Value::Int(3)),
            ],
            cursor: 0,
        };
        // Only the entries appended during the window are checked.
        check_window("cut", &q, 2, w1).unwrap();
        let err = check_window("cut", &q, 1, w1).unwrap_err();
        assert!(matches!(err, CosimError::Runtime(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("cut"), "{msg}");
        assert!(msg.contains("350ns") && msg.contains("400ns"), "{msg}");
    }

    #[test]
    fn sync_quantum_must_be_positive() {
        let (mut orch, _, _) = two_partitions();
        let err = orch
            .run_for(Duration::from_us(1), Duration::ZERO)
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)), "{err}");
    }
}
