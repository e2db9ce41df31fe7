//! Deterministic fault injection: the chaos communicator.
//!
//! [`ChaosComm`] wraps any [`Communicator`] and perturbs its point-to-point
//! traffic according to a [`FaultPlan`] — a deterministic, seedable schedule
//! of faults aimed at `(world rank, pipeline step)` coordinates:
//!
//! * **Drop** — the scheduled send silently vanishes; the receiver's
//!   `try_recv_timeout` expires and the recovery layer retries.
//! * **Delay** — the send is withheld for a fixed number of milliseconds
//!   (must stay under the driver's receive deadline to be benign).
//! * **Duplicate** — the message is sent twice; relaxed tag matching at the
//!   endpoint leaves the second copy unconsumed.
//! * **Kill** — the rank "crashes" at the start of step `k`: its pending
//!   sends stop reaching the wire and every receive it posts fails with
//!   [`CommError::PeerDead`]. The thread itself stays alive so it can act
//!   as the *replacement process* during recovery (`fault_revive`).
//!
//! Faults only strike while the rank's current phase is `Skew` or `Shift` —
//! the systolic pipeline the paper's algorithms spend their communication
//! in — so collectives (broadcast, reduce, recovery agreement) always run
//! clean. Every event fires at most once per execution: a retried pipeline
//! does not re-lose the same message, which models transient faults and
//! one-time crashes rather than a persistently broken link.
//!
//! Chaos executions run with *relaxed* tag matching on the fabric
//! ([`run_ranks_chaos`]), so messages abandoned by an aborted attempt are
//! skipped by tag instead of tripping the strict-mode protocol assertion.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::communicator::{CommData, Communicator};
use crate::error::CommError;
use crate::stats::{CommStats, Phase};
use crate::thread_comm::{launch_recorded, run_ranks_owned, Lenses, Recorded, ThreadComm};
use nbody_metrics::{Counter, MetricsRecorder};
use nbody_timeline::{EventKind, TimelineRecorder};
use nbody_trace::Tracer;
use nbody_wireprobe::{FaultNote, ProbeKind, ProbeRecorder};

/// What a scheduled fault does to the traffic it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The targeted send never reaches the wire.
    Drop,
    /// The targeted send is withheld for [`FaultEvent::delay_ms`].
    Delay,
    /// The targeted send is transmitted twice.
    Duplicate,
    /// The rank crashes at the start of the targeted step.
    Kill,
}

impl FaultKind {
    /// Spec-grammar name (`kill:1@2` etc.).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "dup",
            FaultKind::Kill => "kill",
        }
    }

    /// The wire-probe event kind this fault is recorded as.
    pub fn probe_kind(self) -> ProbeKind {
        match self {
            FaultKind::Drop => ProbeKind::FaultDrop,
            FaultKind::Delay => ProbeKind::FaultDelay,
            FaultKind::Duplicate => ProbeKind::FaultDup,
            FaultKind::Kill => ProbeKind::FaultKill,
        }
    }
}

/// One scheduled fault: `kind` strikes world rank `rank` at pipeline step
/// `step` (step 0 is the skew, steps ≥ 1 the shift loop — drivers announce
/// them via [`Communicator::fault_step`]). Fires at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// World rank the fault strikes.
    pub rank: usize,
    /// Pipeline step the fault is aimed at (0 = skew).
    pub step: usize,
    /// What happens.
    pub kind: FaultKind,
    /// Withholding time for [`FaultKind::Delay`] events (ignored otherwise).
    pub delay_ms: u64,
}

/// A deterministic schedule of faults, applied identically on every run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled events, in no particular order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan that injects nothing (the fault-free baseline).
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Convenience: a single kill of `rank` at step `step`.
    pub fn kill(rank: usize, step: usize) -> FaultPlan {
        FaultPlan {
            events: vec![FaultEvent {
                rank,
                step,
                kind: FaultKind::Kill,
                delay_ms: 0,
            }],
        }
    }

    /// True when the plan contains at least one [`FaultKind::Kill`].
    pub fn has_kills(&self) -> bool {
        self.events.iter().any(|e| e.kind == FaultKind::Kill)
    }

    /// Parse a comma-separated spec: `kind:rank@step` with kinds
    /// `kill | drop | dup | delay`; `delay` takes a trailing
    /// `:milliseconds` (default 5). Examples: `kill:1@2`,
    /// `drop:0@1,dup:3@2,delay:2@3:8`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut events = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind_str, rest) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault `{entry}`: expected kind:rank@step"))?;
            let kind = match kind_str {
                "kill" => FaultKind::Kill,
                "drop" => FaultKind::Drop,
                "dup" => FaultKind::Duplicate,
                "delay" => FaultKind::Delay,
                other => {
                    return Err(format!(
                        "fault `{entry}`: unknown kind `{other}` (want kill|drop|dup|delay)"
                    ))
                }
            };
            let (coord, ms) = match (kind, rest.split_once(':')) {
                (FaultKind::Delay, Some((coord, ms_str))) => {
                    let ms = ms_str
                        .parse::<u64>()
                        .map_err(|_| format!("fault `{entry}`: bad delay milliseconds"))?;
                    (coord, ms)
                }
                (FaultKind::Delay, None) => (rest, 5),
                (_, Some(_)) => {
                    return Err(format!("fault `{entry}`: only delay takes a :ms suffix"))
                }
                (_, None) => (rest, 0),
            };
            let (rank_str, step_str) = coord
                .split_once('@')
                .ok_or_else(|| format!("fault `{entry}`: expected rank@step"))?;
            let rank = rank_str
                .parse::<usize>()
                .map_err(|_| format!("fault `{entry}`: bad rank"))?;
            let step = step_str
                .parse::<usize>()
                .map_err(|_| format!("fault `{entry}`: bad step"))?;
            events.push(FaultEvent {
                rank,
                step,
                kind,
                delay_ms: ms,
            });
        }
        Ok(FaultPlan { events })
    }

    /// The plan's events as conformance-checker fault notes, so a
    /// [`check_conformance`](nbody_wireprobe::check_conformance) pass can
    /// attribute discrepancies to scheduled injections even when the
    /// corresponding probe events were evicted from a saturated ring.
    pub fn probe_notes(&self) -> Vec<FaultNote> {
        self.events
            .iter()
            .map(|e| FaultNote {
                kind: e.kind.probe_kind(),
                rank: e.rank as u32,
                step: Some(e.step as u64),
            })
            .collect()
    }

    /// Render the plan back into the [`parse`](FaultPlan::parse) grammar.
    pub fn spec(&self) -> String {
        self.events
            .iter()
            .map(|e| match e.kind {
                FaultKind::Delay => {
                    format!("delay:{}@{}:{}", e.rank, e.step, e.delay_ms)
                }
                k => format!("{}:{}@{}", k.label(), e.rank, e.step),
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Deterministically generate `n_events` faults from `seed`, drawing
    /// ranks from `0..p`, steps from `0..=max_step`, and kinds from
    /// `kinds`. Delay events get 1–9 ms withholding times — small enough
    /// to stay far below any sane receive deadline.
    pub fn seeded(
        seed: u64,
        p: usize,
        max_step: usize,
        n_events: usize,
        kinds: &[FaultKind],
    ) -> FaultPlan {
        assert!(p > 0 && !kinds.is_empty(), "seeded plan needs ranks and kinds");
        let mut rng = StdRng::seed_from_u64(seed);
        let events = (0..n_events)
            .map(|_| {
                let kind = kinds[rng.gen_range(0..kinds.len())];
                FaultEvent {
                    rank: rng.gen_range(0..p),
                    step: rng.gen_range(0..max_step + 1),
                    kind,
                    delay_ms: if kind == FaultKind::Delay {
                        rng.gen_range(1..10)
                    } else {
                        0
                    },
                }
            })
            .collect();
        FaultPlan { events }
    }
}

/// Per-rank injection state, shared by every communicator derived from the
/// rank's world handle (so faults aim at world coordinates regardless of
/// which split the traffic flows through).
struct ChaosState {
    world_rank: usize,
    events: Vec<FaultEvent>,
    fired: Vec<Cell<bool>>,
    dead: Cell<bool>,
    step: Cell<usize>,
    phase: Cell<Phase>,
    injected_total: Counter,
    injected_drop: Counter,
    injected_delay: Counter,
    injected_dup: Counter,
    injected_kill: Counter,
    timeline: TimelineRecorder,
    wire: ProbeRecorder,
}

impl ChaosState {
    /// Consume the next unfired point-to-point event aimed at the current
    /// `(rank, step)` coordinate, if the rank is inside an injectable
    /// phase window.
    fn take_p2p_event(&self) -> Option<FaultEvent> {
        if !matches!(self.phase.get(), Phase::Skew | Phase::Shift) {
            return None;
        }
        let step = self.step.get();
        for (e, fired) in self.events.iter().zip(&self.fired) {
            if !fired.get()
                && e.kind != FaultKind::Kill
                && e.rank == self.world_rank
                && e.step == step
            {
                fired.set(true);
                self.injected_total.inc();
                match e.kind {
                    FaultKind::Drop => self.injected_drop.inc(),
                    FaultKind::Delay => self.injected_delay.inc(),
                    FaultKind::Duplicate => self.injected_dup.inc(),
                    FaultKind::Kill => unreachable!(),
                }
                self.timeline.event(
                    EventKind::FaultInjected,
                    Some(step as u64),
                    e.kind.label(),
                );
                return Some(*e);
            }
        }
        None
    }

    /// Consume an unfired kill aimed at `(rank, step)`.
    fn take_kill(&self, step: usize) -> bool {
        for (e, fired) in self.events.iter().zip(&self.fired) {
            if !fired.get()
                && e.kind == FaultKind::Kill
                && e.rank == self.world_rank
                && e.step == step
            {
                fired.set(true);
                self.injected_total.inc();
                self.injected_kill.inc();
                self.timeline.event(
                    EventKind::FaultInjected,
                    Some(step as u64),
                    FaultKind::Kill.label(),
                );
                // A kill suppresses unknown future traffic; record it with
                // the rank as its own peer and no payload.
                self.wire.fault(
                    ProbeKind::FaultKill,
                    self.world_rank as u32,
                    0,
                    self.phase.get(),
                    0,
                    0,
                    step as u64,
                );
                return true;
            }
        }
        false
    }
}

/// A fault-injecting wrapper around any transport; see the module docs.
///
/// Splits share the wrapper's injection state, so a grid built from a
/// chaos world keeps aiming faults at world-rank coordinates.
pub struct ChaosComm<C: Communicator> {
    inner: C,
    state: Rc<ChaosState>,
}

impl<C: Communicator> ChaosComm<C> {
    /// Wrap `inner` (a *world* communicator: its rank is used as the fault
    /// plan's world-rank coordinate) with the events of `plan`.
    pub fn new(inner: C, plan: &FaultPlan) -> ChaosComm<C> {
        let world_rank = inner.rank();
        let events: Vec<FaultEvent> = plan
            .events
            .iter()
            .copied()
            .filter(|e| e.rank == world_rank)
            .collect();
        let rec = inner.metrics();
        let state = ChaosState {
            world_rank,
            fired: vec![Cell::new(false); events.len()],
            events,
            dead: Cell::new(false),
            step: Cell::new(0),
            phase: Cell::new(Phase::Other),
            injected_total: rec.counter("fault_injected_total", None),
            injected_drop: rec.counter("fault_injected_drop", None),
            injected_delay: rec.counter("fault_injected_delay", None),
            injected_dup: rec.counter("fault_injected_duplicate", None),
            injected_kill: rec.counter("fault_injected_kill", None),
            timeline: inner.timeline(),
            wire: inner.wire(),
        };
        ChaosComm {
            inner,
            state: Rc::new(state),
        }
    }

    /// Whether this rank is currently "crashed" by a fired kill event.
    pub fn is_dead(&self) -> bool {
        self.state.dead.get()
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Communicator> Communicator for ChaosComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn set_phase(&self, phase: Phase) {
        self.state.phase.set(phase);
        self.inner.set_phase(phase);
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn tracer(&self) -> Tracer {
        self.inner.tracer()
    }

    fn metrics(&self) -> MetricsRecorder {
        self.inner.metrics()
    }

    fn timeline(&self) -> TimelineRecorder {
        self.inner.timeline()
    }

    fn wire(&self) -> ProbeRecorder {
        self.state.wire.clone()
    }

    fn send<T: CommData>(&self, dst: usize, tag: u64, data: &[T]) {
        // Injections land in the probe stream as first-class events so a
        // conformance pass can attribute the resulting traffic anomalies
        // to the fault plan instead of flagging them as protocol bugs.
        let probe_fault = |kind: FaultKind| {
            self.state.wire.fault(
                kind.probe_kind(),
                dst as u32,
                tag,
                self.state.phase.get(),
                data.len() as u64,
                std::mem::size_of_val(data) as u64,
                self.state.step.get() as u64,
            );
        };
        if self.state.dead.get() {
            // A crashed rank's messages never reach the wire.
            probe_fault(FaultKind::Kill);
            return;
        }
        match self.state.take_p2p_event() {
            Some(e) if e.kind == FaultKind::Drop => probe_fault(FaultKind::Drop),
            Some(e) if e.kind == FaultKind::Delay => {
                probe_fault(FaultKind::Delay);
                std::thread::sleep(Duration::from_millis(e.delay_ms));
                self.inner.send(dst, tag, data);
            }
            Some(e) if e.kind == FaultKind::Duplicate => {
                probe_fault(FaultKind::Duplicate);
                self.inner.send(dst, tag, data);
                self.inner.send(dst, tag, data);
            }
            _ => self.inner.send(dst, tag, data),
        }
    }

    fn recv<T: CommData>(&self, src: usize, tag: u64) -> Vec<T> {
        self.inner.recv(src, tag)
    }

    fn try_recv_timeout<T: CommData>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<T>, CommError> {
        if self.state.dead.get() {
            return Err(CommError::PeerDead {
                rank: self.state.world_rank,
            });
        }
        self.inner.try_recv_timeout(src, tag, timeout)
    }

    fn fault_step(&self, step: usize) -> Result<(), CommError> {
        self.state.step.set(step);
        if self.state.dead.get() || self.state.take_kill(step) {
            self.state.dead.set(true);
            return Err(CommError::PeerDead {
                rank: self.state.world_rank,
            });
        }
        Ok(())
    }

    fn fault_revive(&self) {
        self.state.dead.set(false);
    }

    fn bcast<T: CommData>(&self, root: usize, buf: &mut Vec<T>) {
        self.inner.bcast(root, buf);
    }

    fn reduce<T: CommData>(&self, root: usize, buf: &mut Vec<T>, combine: fn(&mut T, &T)) {
        self.inner.reduce(root, buf, combine);
    }

    fn gather<T: CommData>(&self, root: usize, data: &[T]) -> Option<Vec<Vec<T>>> {
        self.inner.gather(root, data)
    }

    fn barrier(&self) {
        self.inner.barrier();
    }

    fn split(&self, color: usize, key: usize) -> ChaosComm<C> {
        ChaosComm {
            inner: self.inner.split(color, key),
            state: Rc::clone(&self.state),
        }
    }
}

/// [`run_ranks`](crate::run_ranks) under fault injection: each rank's world
/// communicator is wrapped in a [`ChaosComm`] carrying its slice of `plan`,
/// and the fabric runs with relaxed tag matching so aborted protocol
/// attempts leave stale messages unconsumed instead of panicking.
pub fn run_ranks_chaos<R, F>(p: usize, plan: &FaultPlan, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ChaosComm<ThreadComm>) -> R + Sync,
{
    run_ranks_owned(p, None, true, true, false, |comm| {
        let mut chaos = ChaosComm::new(comm, plan);
        f(&mut chaos)
    })
    .into_iter()
    .map(|(r, ..)| r)
    .collect()
}

/// [`run_ranks_chaos`] with the recorders `lenses` selects, merged at
/// join like [`run_ranks_recorded`](crate::run_ranks_recorded). With wire
/// probes on, every rank's probe ring records protocol sends/recvs *and*
/// the chaos wrapper's injected faults as first-class events, so the
/// merged [`WireLog`](crate::WireLog) carries everything a conformance pass
/// needs to attribute discrepancies to the [`FaultPlan`].
pub fn run_ranks_chaos_recorded<R, F>(
    p: usize,
    plan: &FaultPlan,
    lenses: Lenses,
    f: F,
) -> Recorded<R>
where
    R: Send,
    F: Fn(&mut ChaosComm<ThreadComm>) -> R + Sync,
{
    launch_recorded(p, true, lenses, |comm| f(&mut ChaosComm::new(comm, plan)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORD: Lenses = Lenses {
        record: true,
        wire: false,
    };
    const ALL: Lenses = Lenses {
        record: true,
        wire: true,
    };

    #[test]
    fn plan_parse_roundtrips() {
        let plan = FaultPlan::parse("kill:1@2, drop:0@1,dup:3@2,delay:2@3:8").unwrap();
        assert_eq!(plan.events.len(), 4);
        assert_eq!(
            plan.events[0],
            FaultEvent { rank: 1, step: 2, kind: FaultKind::Kill, delay_ms: 0 }
        );
        assert_eq!(
            plan.events[3],
            FaultEvent { rank: 2, step: 3, kind: FaultKind::Delay, delay_ms: 8 }
        );
        assert!(plan.has_kills());
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::empty());
        assert!(!FaultPlan::empty().has_kills());
    }

    #[test]
    fn plan_parse_rejects_malformed_specs() {
        for bad in [
            "boom:1@2",
            "kill:1",
            "kill:x@2",
            "kill:1@y",
            "drop:1@2:5",
            "kill",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let kinds = [FaultKind::Delay, FaultKind::Duplicate];
        let a = FaultPlan::seeded(7, 8, 4, 6, &kinds);
        let b = FaultPlan::seeded(7, 8, 4, 6, &kinds);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 6);
        for e in &a.events {
            assert!(e.rank < 8);
            assert!(e.step <= 4);
            assert!(matches!(e.kind, FaultKind::Delay | FaultKind::Duplicate));
            if e.kind == FaultKind::Delay {
                assert!((1..10).contains(&e.delay_ms));
            }
        }
        // Different seeds diverge (overwhelmingly likely over 6 events).
        assert_ne!(a, FaultPlan::seeded(8, 8, 4, 6, &kinds));
        assert!(!a.has_kills());
    }

    #[test]
    fn empty_plan_is_transparent() {
        let plan = FaultPlan::empty();
        let out = run_ranks_chaos(4, &plan, |comm| {
            comm.set_phase(Phase::Shift);
            comm.fault_step(1).unwrap();
            let p = comm.size();
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let token = comm.sendrecv(right, left, 1, &[comm.rank() as u64]);
            assert!(!comm.is_dead());
            token[0]
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn duplicate_and_delay_are_benign_under_relaxed_matching() {
        let plan = FaultPlan::parse("dup:0@1,delay:1@1:2").unwrap();
        let out = run_ranks_chaos(2, &plan, |comm| {
            comm.set_phase(Phase::Shift);
            comm.fault_step(1).unwrap();
            let other = 1 - comm.rank();
            // Each rank sends one tagged message; the duplicate's second
            // copy must be skipped by tag matching on later receives.
            comm.send(other, 10, &[comm.rank() as u64]);
            let got = comm.recv::<u64>(other, 10);
            comm.send(other, 11, &[got[0] + 100]);
            comm.recv::<u64>(other, 11)
        });
        assert_eq!(out[0], vec![100]);
        assert_eq!(out[1], vec![101]);
    }

    #[test]
    fn kill_fires_once_and_revives() {
        let plan = FaultPlan::kill(1, 2);
        let out = run_ranks_chaos(2, &plan, |comm| {
            comm.set_phase(Phase::Shift);
            let mut log = Vec::new();
            log.push(comm.fault_step(1).is_ok());
            log.push(comm.fault_step(2).is_ok()); // rank 1 dies here
            log.push(comm.fault_step(3).is_ok()); // stays dead
            comm.fault_revive();
            log.push(comm.fault_step(3).is_ok()); // revived; event spent
            log
        });
        assert_eq!(out[0], vec![true, true, true, true]);
        assert_eq!(out[1], vec![true, false, false, true]);
    }

    #[test]
    fn dead_rank_sends_vanish_and_recvs_fail_fast() {
        let plan = FaultPlan::kill(0, 1);
        let out = run_ranks_chaos(2, &plan, |comm| {
            comm.set_phase(Phase::Shift);
            let dead = comm.fault_step(1).is_err();
            if comm.rank() == 0 {
                assert!(dead);
                // These sends go nowhere.
                comm.send(1, 5, &[1u8]);
                let err = comm
                    .try_recv_timeout::<u8>(1, 6, Duration::from_millis(10))
                    .unwrap_err();
                assert!(matches!(err, CommError::PeerDead { rank: 0 }));
                0
            } else {
                assert!(!dead);
                let err = comm
                    .try_recv_timeout::<u8>(0, 5, Duration::from_millis(50))
                    .unwrap_err();
                assert!(matches!(err, CommError::Timeout { .. }), "{err}");
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn drop_loses_exactly_one_message() {
        let plan = FaultPlan::parse("drop:0@1").unwrap();
        let out = run_ranks_chaos(2, &plan, |comm| {
            comm.set_phase(Phase::Shift);
            comm.fault_step(1).unwrap();
            if comm.rank() == 0 {
                comm.send(1, 21, &[7u8]); // dropped
                comm.send(1, 22, &[8u8]); // delivered (event is one-shot)
                0u8
            } else {
                let missing = comm.try_recv_timeout::<u8>(0, 21, Duration::from_millis(50));
                assert!(matches!(missing, Err(CommError::Timeout { .. })));
                comm.recv::<u8>(0, 22)[0]
            }
        });
        assert_eq!(out, vec![0, 8]);
    }

    #[test]
    fn faults_outside_pipeline_phases_do_not_fire() {
        // Same coordinates, but the rank never enters Skew/Shift: the drop
        // must not trigger on Reassign-phase traffic.
        let plan = FaultPlan::parse("drop:0@1").unwrap();
        let out = run_ranks_chaos(2, &plan, |comm| {
            comm.set_phase(Phase::Reassign);
            comm.fault_step(1).unwrap();
            if comm.rank() == 0 {
                comm.send(1, 9, &[42u8]);
                0
            } else {
                comm.recv::<u8>(0, 9)[0]
            }
        });
        assert_eq!(out[1], 42);
    }

    #[test]
    fn injection_metrics_are_recorded() {
        let plan = FaultPlan::parse("drop:0@1,kill:1@1").unwrap();
        let Recorded {
            metrics, timeline, ..
        } = run_ranks_chaos_recorded(2, &plan, RECORD, |comm| {
            comm.set_phase(Phase::Shift);
            let _ = comm.fault_step(1);
            if comm.rank() == 0 {
                comm.send(1, 1, &[1u8]);
            }
            comm.fault_revive();
        });
        assert_eq!(metrics.sum_counter("fault_injected_total", None), 2);
        assert_eq!(metrics.sum_counter("fault_injected_drop", None), 1);
        assert_eq!(metrics.sum_counter("fault_injected_kill", None), 1);
        // Each injection also lands in the rank's flight ring.
        let fault_events: Vec<_> = timeline
            .ranks
            .iter()
            .flat_map(|r| &r.events)
            .filter(|e| e.kind == EventKind::FaultInjected)
            .collect();
        assert_eq!(fault_events.len(), 2);
        let drop_ev = fault_events.iter().find(|e| e.detail == "drop").unwrap();
        assert_eq!(drop_ev.step, Some(1));
        assert!(fault_events.iter().any(|e| e.detail == "kill"));
    }

    #[test]
    fn injected_faults_are_first_class_probe_events() {
        use nbody_wireprobe::{FaultNote, ProbeKind};
        let plan = FaultPlan::parse("drop:0@1,dup:1@1").unwrap();
        let Recorded { wire, .. } = run_ranks_chaos_recorded(2, &plan, ALL, |comm| {
            comm.set_phase(Phase::Shift);
            comm.fault_step(1).unwrap();
            if comm.rank() == 0 {
                comm.send(1, 30, &[0u64]); // dropped by the plan
                let _ = comm.recv::<u64>(1, 30); // first duplicate copy
            } else {
                comm.send(0, 30, &[1u64]); // duplicated by the plan
                let missing = comm.try_recv_timeout::<u64>(0, 30, Duration::from_millis(50));
                assert!(matches!(missing, Err(CommError::Timeout { .. })));
            }
            comm.barrier();
        });
        let r0: Vec<_> = wire.ranks[0].events.iter().collect();
        let r1: Vec<_> = wire.ranks[1].events.iter().collect();
        // Rank 0's send was dropped: a FaultDrop event carrying the doomed
        // message's coordinates replaces the Send event...
        let drop = r0.iter().find(|e| e.kind == ProbeKind::FaultDrop).unwrap();
        assert_eq!(drop.tag, 30);
        assert_eq!(drop.count, 1);
        assert_eq!(drop.step, Some(1));
        assert!(
            !r0.iter().any(|e| e.kind == ProbeKind::Send && e.tag == 30),
            "the dropped message never reached the wire: {r0:?}"
        );
        // ...while rank 1's duplicate is announced and then sent twice.
        let dup = r1.iter().find(|e| e.kind == ProbeKind::FaultDup).unwrap();
        assert_eq!(dup.step, Some(1));
        assert_eq!(
            r1.iter()
                .filter(|e| e.kind == ProbeKind::Send && e.tag == 30)
                .count(),
            2
        );
        // The log alone reconstructs the fault plan for attribution.
        let notes = FaultNote::from_log(&wire);
        assert_eq!(notes.len(), 2);
        assert!(notes.contains(&FaultNote {
            kind: ProbeKind::FaultDrop,
            rank: 0,
            step: Some(1)
        }));
        // And the plan itself maps to the same note vocabulary.
        let planned = plan.probe_notes();
        assert!(planned.contains(&FaultNote {
            kind: ProbeKind::FaultDup,
            rank: 1,
            step: Some(1)
        }));
    }

    #[test]
    fn dead_rank_suppressed_sends_are_probed_as_kills() {
        use nbody_wireprobe::ProbeKind;
        let plan = FaultPlan::kill(0, 1);
        let Recorded { wire, .. } = run_ranks_chaos_recorded(2, &plan, ALL, |comm| {
            comm.set_phase(Phase::Shift);
            let dead = comm.fault_step(1).is_err();
            if comm.rank() == 0 {
                assert!(dead);
                comm.send(1, 5, &[1u8, 2, 3]); // goes nowhere
            }
        });
        let kills: Vec<_> = wire.ranks[0]
            .events
            .iter()
            .filter(|e| e.kind == ProbeKind::FaultKill)
            .collect();
        // One event for the kill itself, one per suppressed send.
        assert_eq!(kills.len(), 2, "{kills:?}");
        assert!(kills.iter().any(|e| e.tag == 5 && e.count == 3));
        assert!(
            !wire.ranks[0].events.iter().any(|e| e.kind == ProbeKind::Send),
            "a dead rank's traffic never hits the wire"
        );
    }

    #[test]
    fn split_shares_chaos_state() {
        // A kill observed through the world handle is visible on a split.
        let plan = FaultPlan::kill(1, 1);
        let out = run_ranks_chaos(2, &plan, |comm| {
            let sub = comm.split(0, comm.rank());
            comm.set_phase(Phase::Shift);
            let died = sub.fault_step(1).is_err();
            (died, comm.is_dead())
        });
        assert_eq!(out[0], (false, false));
        assert_eq!(out[1], (true, true));
    }
}
