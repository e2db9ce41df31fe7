//! A message-passing runtime whose ranks are OS threads.
//!
//! This is the reproduction's stand-in for MPI on a cluster: the algorithms
//! in `ca-nbody` execute unmodified against [`ThreadComm`], exchanging the
//! same messages they would exchange across nodes. Payloads move between
//! threads by pointer (no serialization), so even modest laptops can run
//! correctness sweeps over dozens of ranks.
//!
//! Design notes:
//!
//! * Every *global* rank owns one unbounded MPSC inbox; all communicators a
//!   rank belongs to share it. Envelopes carry `(communicator id, source,
//!   tag)` and receivers demultiplex into per-`(comm, source)` FIFO queues —
//!   MPI-style matching specialized to our deterministic protocols.
//! * Sends are buffered and never block, so ring shifts cannot deadlock.
//! * `split` derives new communicators without global locks on the data
//!   path; communicator identity is agreed through a registry keyed by
//!   `(parent id, split sequence, color)`, which every member computes
//!   identically.
//! * Receives have a generous timeout; a deadlocked protocol panics with a
//!   diagnostic instead of hanging the test suite.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::comm_metrics::CommMetrics;
use crate::communicator::{CommData, Communicator};
use crate::error::CommError;
use crate::stats::{CommStats, Phase};
use nbody_metrics::{MetricsRecorder, MetricsSnapshot, RankMetrics};
use nbody_timeline::{RankTimeline, RunTimeline, TimelineRecorder};
use nbody_trace::{ExecutionTrace, Span, Tracer};
use nbody_wireprobe::{ProbeRecorder, RankWireLog, WireLog};

/// Parse an `NBODY_RECV_TIMEOUT_SECS` value: a positive integer number of
/// seconds, or `None` when the variable is unset (→ the 60 s default).
/// Malformed or zero values are an error — a typo'd timeout silently
/// becoming 60 s is exactly the kind of misconfiguration that shows up as
/// an unexplained hang or a premature deadlock diagnosis much later.
fn parse_recv_timeout(raw: Option<&str>) -> Result<u64, String> {
    match raw {
        None => Ok(60),
        Some(s) => match s.trim().parse::<u64>() {
            Ok(0) => Err(format!(
                "NBODY_RECV_TIMEOUT_SECS must be a positive number of seconds, got '{s}'"
            )),
            Ok(secs) => Ok(secs),
            Err(e) => Err(format!(
                "NBODY_RECV_TIMEOUT_SECS must be a positive number of seconds, got '{s}': {e}"
            )),
        },
    }
}

/// Parse a positive-integer environment override (`NBODY_CHECKPOINT_EVERY`,
/// `NBODY_RETRY_TIMEOUT_MS`, `NBODY_RETRY_BUDGET_MS`): unset is fine, zero
/// or malformed is an error — a typo'd cadence silently becoming the
/// default is the misconfiguration fail-fast validation exists to catch.
fn parse_positive_int(name: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    match raw {
        None => Ok(None),
        Some(s) => match s.trim().parse::<u64>() {
            Ok(0) => Err(format!("{name} must be a positive integer, got '{s}'")),
            Ok(v) => Ok(Some(v)),
            Err(e) => Err(format!("{name} must be a positive integer, got '{s}': {e}")),
        },
    }
}

/// Parse a non-negative count override (`NBODY_RETRY_MAX`; 0 legitimately
/// disables retries).
fn parse_count(name: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    match raw {
        None => Ok(None),
        Some(s) => s.trim().parse::<u64>().map(Some).map_err(|e| {
            format!("{name} must be a non-negative integer, got '{s}': {e}")
        }),
    }
}

/// Parse a float override constrained to `[lo, hi)` — `NBODY_RETRY_BACKOFF`
/// needs `>= 1.0`, `NBODY_RETRY_JITTER` needs `[0, 1)`.
fn parse_float_in(name: &str, raw: Option<&str>, lo: f64, hi: f64) -> Result<Option<f64>, String> {
    match raw {
        None => Ok(None),
        Some(s) => match s.trim().parse::<f64>() {
            Ok(v) if v.is_finite() && v >= lo && v < hi => Ok(Some(v)),
            Ok(v) => Err(format!("{name} must be in [{lo}, {hi}), got {v}")),
            Err(e) => Err(format!("{name} must be a number in [{lo}, {hi}), got '{s}': {e}")),
        },
    }
}

/// Validate process-level runtime configuration read from the
/// environment. Called implicitly at the start of every distributed
/// execution; front-ends can call it explicitly to turn a malformed
/// `NBODY_RECV_TIMEOUT_SECS`, `NBODY_CHECKPOINT_EVERY`, or retry-policy
/// override (`NBODY_RETRY_TIMEOUT_MS`, `NBODY_RETRY_MAX`,
/// `NBODY_RETRY_BACKOFF`, `NBODY_RETRY_JITTER`, `NBODY_RETRY_BUDGET_MS`)
/// into a clean startup error instead of a panic inside the rank spawner
/// or a silently ignored knob.
pub fn validate_env() -> Result<(), String> {
    let var = |name: &str| std::env::var(name).ok();
    parse_recv_timeout(var("NBODY_RECV_TIMEOUT_SECS").as_deref())?;
    parse_positive_int(
        "NBODY_CHECKPOINT_EVERY",
        var("NBODY_CHECKPOINT_EVERY").as_deref(),
    )?;
    parse_positive_int(
        "NBODY_RETRY_TIMEOUT_MS",
        var("NBODY_RETRY_TIMEOUT_MS").as_deref(),
    )?;
    parse_positive_int(
        "NBODY_RETRY_BUDGET_MS",
        var("NBODY_RETRY_BUDGET_MS").as_deref(),
    )?;
    parse_count("NBODY_RETRY_MAX", var("NBODY_RETRY_MAX").as_deref())?;
    parse_float_in(
        "NBODY_RETRY_BACKOFF",
        var("NBODY_RETRY_BACKOFF").as_deref(),
        1.0,
        f64::INFINITY,
    )?;
    parse_float_in(
        "NBODY_RETRY_JITTER",
        var("NBODY_RETRY_JITTER").as_deref(),
        0.0,
        1.0,
    )?;
    Ok(())
}

/// How long a blocking receive may wait before the runtime declares a
/// deadlock. Overridable via `NBODY_RECV_TIMEOUT_SECS` so long-running test
/// suites can fail fast with a diagnostic instead of hitting the harness
/// timeout (read once per process). A malformed value is a startup error,
/// not a silent fallback to the default.
fn recv_timeout() -> Duration {
    static SECS: OnceLock<u64> = OnceLock::new();
    let secs = *SECS.get_or_init(|| {
        let raw = std::env::var("NBODY_RECV_TIMEOUT_SECS").ok();
        parse_recv_timeout(raw.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    });
    Duration::from_secs(secs)
}

/// Tag space reserved for internal collective plumbing.
const INTERNAL_TAG_BASE: u64 = 1 << 48;

struct Envelope {
    comm: u64,
    src_global: usize,
    tag: u64,
    payload: Box<dyn Any + Send>,
}

/// Shared transport state: one inbox sender per global rank plus the
/// communicator-identity registry.
pub(crate) struct Fabric {
    senders: Vec<Sender<Envelope>>,
    registry: Mutex<HashMap<(u64, u64, usize), u64>>,
    next_comm: AtomicU64,
    /// Relaxed matching: receives match on `(comm, src, tag)` instead of
    /// `(comm, src)`-then-assert-tag. Only chaos executions enable this —
    /// it lets a retried protocol leave stale or duplicated messages of a
    /// previous attempt unconsumed instead of tripping the tag assertion.
    relaxed: bool,
}

impl Fabric {
    fn comm_id_for(&self, parent: u64, seq: u64, color: usize) -> u64 {
        let mut reg = self.registry.lock();
        *reg.entry((parent, seq, color))
            .or_insert_with(|| self.next_comm.fetch_add(1, Ordering::Relaxed))
    }
}

/// Per-thread receive state: the inbox plus reorder buffers.
struct Endpoint {
    rx: Receiver<Envelope>,
    pending: HashMap<(u64, usize), VecDeque<Envelope>>,
}

impl Endpoint {
    /// Pull envelopes off the inbox until one matching `(comm, src)` — and,
    /// when `want_tag` is set (relaxed mode), the tag — is available,
    /// buffering everything else. Returns [`CommError::Timeout`] instead of
    /// panicking when nothing matching arrives within `timeout`.
    fn try_recv_matching(
        &mut self,
        comm: u64,
        src_global: usize,
        want_tag: Option<u64>,
        timeout: Duration,
        stats: &mut CommStats,
        tracer: &Tracer,
    ) -> Result<Envelope, CommError> {
        let tag_ok = |env: &Envelope| match want_tag {
            Some(t) => env.tag == t,
            None => true,
        };
        let peer = Some(src_global as u32);
        let key = (comm, src_global);
        if let Some(queue) = self.pending.get_mut(&key) {
            if let Some(pos) = queue.iter().position(&tag_ok) {
                // In strict mode `pos` is always 0 (plain FIFO pop); in
                // relaxed mode messages of other tags stay queued.
                return Ok(queue.remove(pos).expect("position came from this queue"));
            }
        }
        let start = Instant::now();
        loop {
            let remaining = match timeout.checked_sub(start.elapsed()) {
                Some(r) => r,
                None => {
                    stats.record_blocked(start.elapsed().as_secs_f64());
                    tracer.record_blocked(start, peer);
                    return Err(CommError::Timeout {
                        src: src_global,
                        tag: want_tag.unwrap_or(0),
                        waited: start.elapsed(),
                    });
                }
            };
            let env = match self.rx.recv_timeout(remaining) {
                Ok(env) => env,
                Err(_) => {
                    stats.record_blocked(start.elapsed().as_secs_f64());
                    tracer.record_blocked(start, peer);
                    return Err(CommError::Timeout {
                        src: src_global,
                        tag: want_tag.unwrap_or(0),
                        waited: start.elapsed(),
                    });
                }
            };
            if env.comm == comm && env.src_global == src_global && tag_ok(&env) {
                stats.record_blocked(start.elapsed().as_secs_f64());
                tracer.record_blocked(start, peer);
                return Ok(env);
            }
            self.pending
                .entry((env.comm, env.src_global))
                .or_default()
                .push_back(env);
        }
    }
}

/// A communicator whose ranks are threads of the current process.
///
/// Construct the world communicator with [`run_ranks`]; derive grids with
/// [`Communicator::split`]. The handle is deliberately `!Send`: it belongs
/// to its rank's thread.
pub struct ThreadComm {
    fabric: Arc<Fabric>,
    endpoint: Rc<RefCell<Endpoint>>,
    stats: Rc<RefCell<CommStats>>,
    tracer: Tracer,
    recorder: MetricsRecorder,
    timeline: TimelineRecorder,
    wire: ProbeRecorder,
    metrics: Rc<CommMetrics>,
    comm_id: u64,
    /// Global ranks of the members, indexed by local rank.
    members: Rc<Vec<usize>>,
    my_local: usize,
    split_seq: Cell<u64>,
    coll_seq: Cell<u64>,
}

impl ThreadComm {
    fn global_of(&self, local: usize) -> usize {
        self.members[local]
    }

    fn my_global(&self) -> usize {
        self.members[self.my_local]
    }

    fn try_send_raw<T: CommData>(
        &self,
        dst_local: usize,
        tag: u64,
        data: Vec<T>,
        count_stats: bool,
    ) -> Result<(), CommError> {
        if dst_local >= self.size() {
            return Err(CommError::InvalidRank {
                rank: dst_local,
                size: self.size(),
            });
        }
        let bytes = data.len() * std::mem::size_of::<T>();
        let phase = {
            let mut stats = self.stats.borrow_mut();
            if count_stats {
                stats.record_send(data.len(), bytes);
            } else {
                stats.record_collective_message();
            }
            stats.current_phase()
        };
        self.metrics.on_send(phase, data.len(), bytes, count_stats);
        // Probe only protocol point-to-point traffic: collectives manage
        // their own internal messages and are accounted at the collective
        // level, mirroring the schedule's per-message predictions.
        if count_stats {
            self.wire.send(
                self.global_of(dst_local) as u32,
                self.comm_id,
                tag,
                phase,
                data.len() as u64,
                bytes as u64,
            );
        }
        let env = Envelope {
            comm: self.comm_id,
            src_global: self.my_global(),
            tag,
            payload: Box::new(data),
        };
        self.fabric.senders[self.global_of(dst_local)]
            .send(env)
            .map_err(|_| CommError::FabricClosed)
    }

    fn send_raw<T: CommData>(&self, dst_local: usize, tag: u64, data: Vec<T>, count_stats: bool) {
        self.try_send_raw(dst_local, tag, data, count_stats)
            .unwrap_or_else(|e| {
                panic!("rank {} of comm {}: {e}", self.my_local, self.comm_id)
            });
    }

    fn try_recv_raw<T: CommData>(
        &self,
        src_local: usize,
        tag: u64,
        timeout: Duration,
        count_stats: bool,
    ) -> Result<Vec<T>, CommError> {
        if src_local >= self.size() {
            return Err(CommError::InvalidRank {
                rank: src_local,
                size: self.size(),
            });
        }
        let src_global = self.global_of(src_local);
        // Strict mode matches (comm, src) in FIFO order and then checks the
        // tag (a mismatch is a protocol violation); relaxed mode also keys
        // the match on the tag, so stale-attempt messages are skipped.
        let want_tag = if self.fabric.relaxed { Some(tag) } else { None };
        let env = {
            let mut stats = self.stats.borrow_mut();
            self.endpoint.borrow_mut().try_recv_matching(
                self.comm_id,
                src_global,
                want_tag,
                timeout,
                &mut stats,
                &self.tracer,
            )?
        };
        if env.tag != tag {
            return Err(CommError::TagMismatch {
                src: src_local,
                expected: tag,
                got: env.tag,
            });
        }
        let data = env
            .payload
            .downcast::<Vec<T>>()
            .map(|b| *b)
            .map_err(|_| CommError::TypeMismatch { src: src_local, tag })?;
        // Mirror of the send-side accounting: point-to-point receives are
        // counted so per-rank ingress (the recv half of the heat-map) is
        // observable; collective-internal receives are already attributed
        // by `record_collective` on each member.
        if count_stats {
            let bytes = data.len() * std::mem::size_of::<T>();
            let phase = self.stats.borrow().current_phase();
            self.metrics.on_recv(phase, data.len(), bytes);
            self.wire.recv(
                src_global as u32,
                self.comm_id,
                tag,
                phase,
                data.len() as u64,
                bytes as u64,
            );
        }
        Ok(data)
    }

    fn recv_raw<T: CommData>(&self, src_local: usize, tag: u64, count_stats: bool) -> Vec<T> {
        self.try_recv_raw(src_local, tag, recv_timeout(), count_stats)
            .unwrap_or_else(|e| {
                panic!("rank {} of comm {}: {e}", self.my_local, self.comm_id)
            })
    }

    /// Attribute a collective's payload to stats and metrics.
    fn record_collective<T>(&self, elements: usize) {
        let bytes = elements * std::mem::size_of::<T>();
        let phase = {
            let mut stats = self.stats.borrow_mut();
            stats.record_collective(elements, bytes);
            stats.current_phase()
        };
        self.metrics.on_collective(phase, elements, bytes);
    }

    /// Reserve a fresh internal tag for one collective operation. All ranks
    /// call collectives in identical order, so the sequence agrees globally.
    fn next_internal_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        INTERNAL_TAG_BASE + seq
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.my_local
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn set_phase(&self, phase: Phase) {
        self.stats.borrow_mut().set_phase(phase);
        self.tracer.phase_change(phase);
    }

    fn stats(&self) -> CommStats {
        self.stats.borrow().clone()
    }

    fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    fn metrics(&self) -> MetricsRecorder {
        self.recorder.clone()
    }

    fn timeline(&self) -> TimelineRecorder {
        self.timeline.clone()
    }

    fn wire(&self) -> ProbeRecorder {
        self.wire.clone()
    }

    fn send<T: CommData>(&self, dst: usize, tag: u64, data: &[T]) {
        self.send_raw(dst, tag, data.to_vec(), true);
    }

    fn recv<T: CommData>(&self, src: usize, tag: u64) -> Vec<T> {
        self.recv_raw(src, tag, true)
    }

    fn try_send<T: CommData>(&self, dst: usize, tag: u64, data: &[T]) -> Result<(), CommError> {
        self.try_send_raw(dst, tag, data.to_vec(), true)
    }

    fn try_recv_timeout<T: CommData>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<T>, CommError> {
        self.try_recv_raw(src, tag, timeout, true)
    }

    fn bcast<T: CommData>(&self, root: usize, buf: &mut Vec<T>) {
        let size = self.size();
        assert!(root < size, "bcast root {root} out of range");
        if size == 1 {
            return;
        }
        let tag = self.next_internal_tag();
        // Binomial tree rooted at `root` (MPICH-style).
        let vrank = (self.my_local + size - root) % size;
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask != 0 {
                let src = (vrank - mask + root) % size;
                *buf = self.recv_raw::<T>(src, tag, false);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < size {
                let dst = (vrank + mask + root) % size;
                self.send_raw(dst, tag, buf.clone(), false);
            }
            mask >>= 1;
        }
        // Recorded after completion so every member logs the payload size
        // (non-roots don't know it on entry).
        self.record_collective::<T>(buf.len());
    }

    fn reduce<T: CommData>(&self, root: usize, buf: &mut Vec<T>, combine: fn(&mut T, &T)) {
        let size = self.size();
        assert!(root < size, "reduce root {root} out of range");
        if size == 1 {
            return;
        }
        self.record_collective::<T>(buf.len());
        let tag = self.next_internal_tag();
        // Binomial tree reduction mirroring the broadcast: contributions from
        // higher virtual ranks are folded into lower ones, ending at vrank 0
        // (= `root`). Combination order is deterministic.
        let vrank = (self.my_local + size - root) % size;
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask == 0 {
                let partner = vrank | mask;
                if partner < size {
                    let src = (partner + root) % size;
                    let incoming = self.recv_raw::<T>(src, tag, false);
                    assert_eq!(
                        incoming.len(),
                        buf.len(),
                        "reduce buffers must agree in length"
                    );
                    for (acc, x) in buf.iter_mut().zip(&incoming) {
                        combine(acc, x);
                    }
                }
            } else {
                let dst = (vrank - mask + root) % size;
                self.send_raw(dst, tag, buf.clone(), false);
                break;
            }
            mask <<= 1;
        }
    }

    fn gather<T: CommData>(&self, root: usize, data: &[T]) -> Option<Vec<Vec<T>>> {
        let size = self.size();
        assert!(root < size, "gather root {root} out of range");
        if size == 1 {
            return Some(vec![data.to_vec()]);
        }
        self.record_collective::<T>(data.len());
        let tag = self.next_internal_tag();
        if self.my_local == root {
            let mut out = Vec::with_capacity(size);
            for r in 0..size {
                if r == root {
                    out.push(data.to_vec());
                } else {
                    out.push(self.recv_raw::<T>(r, tag, false));
                }
            }
            Some(out)
        } else {
            self.send_raw(root, tag, data.to_vec(), false);
            None
        }
    }

    fn barrier(&self) {
        let size = self.size();
        if size == 1 {
            return;
        }
        self.record_collective::<u8>(0);
        let tag = self.next_internal_tag();
        // Dissemination barrier: log2(size) rounds of shifted token passing.
        let mut step = 1usize;
        while step < size {
            let dst = (self.my_local + step) % size;
            let src = (self.my_local + size - step) % size;
            self.send_raw::<u8>(dst, tag + step as u64, Vec::new(), false);
            let _ = self.recv_raw::<u8>(src, tag + step as u64, false);
            step <<= 1;
        }
    }

    fn split(&self, color: usize, key: usize) -> ThreadComm {
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);
        // Exchange (color, key, global rank) so every member can compute the
        // membership of its new communicator.
        let triples = self.allgather(&[(color, key, self.my_global())]);
        let mut mine: Vec<(usize, usize, usize)> = triples
            .into_iter()
            .flatten()
            .filter(|&(c, _, _)| c == color)
            .collect();
        mine.sort_by_key(|&(_, k, g)| (k, g));
        let members: Vec<usize> = mine.iter().map(|&(_, _, g)| g).collect();
        let my_local = members
            .iter()
            .position(|&g| g == self.my_global())
            .expect("rank missing from its own split");
        let comm_id = self.fabric.comm_id_for(self.comm_id, seq, color);
        ThreadComm {
            fabric: Arc::clone(&self.fabric),
            endpoint: Rc::clone(&self.endpoint),
            stats: Rc::clone(&self.stats),
            tracer: self.tracer.clone(),
            recorder: self.recorder.clone(),
            timeline: self.timeline.clone(),
            wire: self.wire.clone(),
            metrics: Rc::clone(&self.metrics),
            comm_id,
            members: Rc::new(members),
            my_local,
            split_seq: Cell::new(0),
            coll_seq: Cell::new(0),
        }
    }
}

/// Spawn `p` rank threads, run `f` on each with its world communicator, and
/// return the per-rank results in rank order.
///
/// This is the entry point of every distributed execution in the
/// reproduction — the analogue of `mpirun -np p`. Span recording is off
/// (every rank's tracer is the no-op handle); use [`run_ranks_recorded`] to
/// capture wall-clock timelines.
pub fn run_ranks<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ThreadComm) -> R + Sync,
{
    run_ranks_owned(p, None, false, true, false, |mut comm| f(&mut comm))
        .into_iter()
        .map(|(r, ..)| r)
        .collect()
}

/// [`run_ranks`] with the always-on flight recorder disabled. The only
/// intended users are the `timeline_overhead` and `wireprobe_overhead`
/// benches, which need a recording-free baseline to price the recorders
/// against; everything else should keep the crash forensics on.
pub fn run_ranks_silent<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ThreadComm) -> R + Sync,
{
    run_ranks_owned(p, None, false, false, false, |mut comm| f(&mut comm))
        .into_iter()
        .map(|(r, ..)| r)
        .collect()
}

/// The opt-in recorders of a launch; the flight ring is always on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lenses {
    /// Per-rank wall-clock span tracing against an epoch shared by every
    /// rank, live metrics ([`MetricsRecorder`]) and a step-sampling
    /// [`TimelineRecorder`].
    pub record: bool,
    /// Per-message wire probes: every rank's [`ProbeRecorder`] stamps each
    /// point-to-point send/recv against a shared epoch of its own, so
    /// cross-rank send→recv latencies are comparable even when `record` is
    /// off.
    pub wire: bool,
}

/// What a recorded launch hands back: the per-rank results in rank order
/// and every rank's recorders merged. A lens left off contributes an empty
/// artifact (no spans, no metric shards, flight-ring-only timelines, no
/// wire events).
#[derive(Debug)]
pub struct Recorded<R> {
    /// The closure's result on each rank, in rank order.
    pub results: Vec<R>,
    /// Every rank's spans.
    pub trace: ExecutionTrace,
    /// Every rank's metrics shard.
    pub metrics: MetricsSnapshot,
    /// Every rank's step samples and flight-ring events.
    pub timeline: RunTimeline,
    /// Every rank's wire-probe ring.
    pub wire: WireLog,
}

/// [`run_ranks`] with the recorders `lenses` selects, merged at join.
pub fn run_ranks_recorded<R, F>(p: usize, lenses: Lenses, f: F) -> Recorded<R>
where
    R: Send,
    F: Fn(&mut ThreadComm) -> R + Sync,
{
    launch_recorded(p, false, lenses, |mut comm| f(&mut comm))
}

/// Shared body of the recorded launchers: spawn with the recorders
/// `lenses` selects (`relaxed` picks the fabric's tag-matching mode) and
/// merge every rank's artifacts.
pub(crate) fn launch_recorded<R, F>(p: usize, relaxed: bool, lenses: Lenses, f: F) -> Recorded<R>
where
    R: Send,
    F: Fn(ThreadComm) -> R + Sync,
{
    let epoch = lenses.record.then(Instant::now);
    let out = run_ranks_owned(p, epoch, relaxed, true, lenses.wire, f);
    let mut results = Vec::with_capacity(p);
    let mut buffers = Vec::with_capacity(p);
    let mut shards = Vec::with_capacity(p);
    let mut timelines = Vec::with_capacity(p);
    let mut wires = Vec::with_capacity(p);
    for (r, spans, metrics, timeline, wire) in out {
        results.push(r);
        buffers.push(spans);
        shards.push(metrics);
        timelines.extend(timeline);
        wires.extend(wire);
    }
    Recorded {
        results,
        trace: ExecutionTrace::from_rank_buffers(buffers),
        metrics: MetricsSnapshot::from_shards(shards),
        timeline: RunTimeline::from_ranks(timelines),
        wire: WireLog::from_ranks(wires),
    }
}

/// Per-rank artifacts a joined rank thread hands back: the closure's
/// result plus the rank's trace spans, metrics shard, timeline, and wire
/// probe log.
pub(crate) type RankOutput<R> = (
    R,
    Vec<Span>,
    Option<RankMetrics>,
    Option<RankTimeline>,
    Option<RankWireLog>,
);

/// Shared body of every launcher: spawn `p` rank threads, hand each its
/// world [`ThreadComm`] (owned, so wrappers like `ChaosComm` can absorb
/// it), and join. `relaxed` selects the fabric's tag-matching mode;
/// `flight` controls the always-on flight recorder (off only for overhead
/// benchmarking baselines); `probe` turns on the per-message wire probe
/// ring (timestamped against its own shared epoch so cross-rank send→recv
/// latencies are comparable even in untraced runs).
pub(crate) fn run_ranks_owned<R, F>(
    p: usize,
    epoch: Option<Instant>,
    relaxed: bool,
    flight: bool,
    probe: bool,
    f: F,
) -> Vec<RankOutput<R>>
where
    R: Send,
    F: Fn(ThreadComm) -> R + Sync,
{
    assert!(p > 0, "need at least one rank");
    // Surface a malformed NBODY_RECV_TIMEOUT_SECS here, before any rank
    // thread exists — a startup error instead of a mid-protocol panic.
    let _ = recv_timeout();
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let fabric = Arc::new(Fabric {
        senders,
        registry: Mutex::new(HashMap::new()),
        next_comm: AtomicU64::new(1),
        relaxed,
    });
    // One epoch shared by every rank's probe ring: send and recv stamps
    // from different threads must be subtractable.
    let probe_epoch = probe.then(Instant::now);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (rank, rx) in receivers.into_iter().enumerate() {
            let fabric = Arc::clone(&fabric);
            let f = &f;
            let handle = std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .spawn_scoped(scope, move || {
                    let endpoint = Endpoint {
                        rx,
                        pending: HashMap::new(),
                    };
                    let tracer = match epoch {
                        Some(epoch) => Tracer::for_rank(rank, epoch),
                        None => Tracer::disabled(),
                    };
                    let recorder = match epoch {
                        Some(_) => MetricsRecorder::for_rank(rank),
                        None => MetricsRecorder::disabled(),
                    };
                    let timeline = if flight {
                        TimelineRecorder::for_rank(rank as u32, epoch)
                    } else {
                        TimelineRecorder::disabled()
                    };
                    let wire = match probe_epoch {
                        Some(pe) => ProbeRecorder::for_rank(rank as u32, pe),
                        None => ProbeRecorder::disabled(),
                    };
                    let comm = ThreadComm {
                        fabric,
                        endpoint: Rc::new(RefCell::new(endpoint)),
                        stats: Rc::new(RefCell::new(CommStats::new())),
                        tracer: tracer.clone(),
                        recorder: recorder.clone(),
                        timeline: timeline.clone(),
                        wire: wire.clone(),
                        metrics: Rc::new(CommMetrics::new(&recorder)),
                        comm_id: 0,
                        members: Rc::new((0..p).collect()),
                        my_local: rank,
                        split_seq: Cell::new(0),
                        coll_seq: Cell::new(0),
                    };
                    let result = f(comm);
                    (
                        result,
                        tracer.finish(),
                        recorder.finish(),
                        timeline.finish(),
                        wire.finish(),
                    )
                })
                .expect("failed to spawn rank thread");
            handles.push(handle);
        }
        handles
            .into_iter()
            .map(|h| {
                // Propagate the original payload so callers (and tests) see
                // the real panic message instead of "Any { .. }".
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communicator::sum_combine;

    const RECORD: Lenses = Lenses {
        record: true,
        wire: false,
    };
    const WIRE: Lenses = Lenses {
        record: false,
        wire: true,
    };

    #[test]
    fn world_ranks_and_sizes() {
        let out = run_ranks(4, |comm| (comm.rank(), comm.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let out = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[10u64, 20, 30]);
                comm.recv::<u64>(1, 8)
            } else {
                let got = comm.recv::<u64>(0, 7);
                comm.send(0, 8, &[got.iter().sum::<u64>()]);
                got
            }
        });
        assert_eq!(out[0], vec![60]);
        assert_eq!(out[1], vec![10, 20, 30]);
    }

    #[test]
    fn fifo_order_per_pair() {
        let out = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..50u64 {
                    comm.send(1, i, &[i]);
                }
                Vec::new()
            } else {
                (0..50u64).map(|i| comm.recv::<u64>(0, i)[0]).collect()
            }
        });
        assert_eq!(out[1], (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn ring_shift_does_not_deadlock() {
        let p = 8;
        let out = run_ranks(p, |comm| {
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let mut token = vec![comm.rank() as u64];
            for _ in 0..p {
                token = comm.sendrecv(right, left, 1, &token);
            }
            token[0]
        });
        // After p shifts each token returns home.
        assert_eq!(out, (0..p as u64).collect::<Vec<_>>());
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..5 {
            let out = run_ranks(5, move |comm| {
                let mut buf = if comm.rank() == root {
                    vec![42u32, 43, 44]
                } else {
                    Vec::new()
                };
                comm.bcast(root, &mut buf);
                buf
            });
            for r in out {
                assert_eq!(r, vec![42, 43, 44]);
            }
        }
    }

    #[test]
    fn reduce_sums_elementwise() {
        let p = 6;
        for root in [0, 3, 5] {
            let out = run_ranks(p, move |comm| {
                let mut buf = vec![comm.rank() as u64, 1];
                comm.reduce(root, &mut buf, sum_combine);
                (comm.rank(), buf)
            });
            let (_, buf) = &out[root];
            assert_eq!(*buf, vec![15, 6], "root {root}");
        }
    }

    #[test]
    fn allreduce_everywhere() {
        let out = run_ranks(4, |comm| {
            let mut buf = vec![1u64 << comm.rank()];
            comm.allreduce(&mut buf, sum_combine);
            buf[0]
        });
        assert_eq!(out, vec![15, 15, 15, 15]);
    }

    #[test]
    fn gather_in_rank_order() {
        let out = run_ranks(4, |comm| {
            comm.gather(2, &[comm.rank() as u8, 0xFF])
        });
        assert!(out[0].is_none() && out[1].is_none() && out[3].is_none());
        assert_eq!(
            out[2],
            Some(vec![vec![0, 0xFF], vec![1, 0xFF], vec![2, 0xFF], vec![3, 0xFF]])
        );
    }

    #[test]
    fn allgather_everywhere() {
        let out = run_ranks(3, |comm| comm.allgather(&[comm.rank() as u16 * 10]));
        for r in out {
            assert_eq!(r, vec![vec![0], vec![10], vec![20]]);
        }
    }

    #[test]
    fn barrier_completes() {
        // Not a timing assertion — just that no rank hangs or panics.
        let out = run_ranks(7, |comm| {
            for _ in 0..10 {
                comm.barrier();
            }
            true
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn split_forms_grid() {
        // 6 ranks -> 3 teams of 2 (color = rank % 3), then rows (color = rank / 3).
        let out = run_ranks(6, |comm| {
            let col = comm.split(comm.rank() % 3, comm.rank());
            let row = comm.split(comm.rank() / 3, comm.rank());
            // Column collective: sum of global ranks in my column.
            let mut csum = vec![comm.rank() as u64];
            col.allreduce(&mut csum, sum_combine);
            // Row collective: sum of global ranks in my row.
            let mut rsum = vec![comm.rank() as u64];
            row.allreduce(&mut rsum, sum_combine);
            (col.rank(), col.size(), csum[0], row.rank(), row.size(), rsum[0])
        });
        for (g, &(crank, csize, csum, rrank, rsize, rsum)) in out.iter().enumerate() {
            assert_eq!(csize, 2);
            assert_eq!(rsize, 3);
            assert_eq!(crank, g / 3);
            assert_eq!(rrank, g % 3);
            assert_eq!(csum as usize, (g % 3) + (g % 3 + 3));
            let row_base = (g / 3) * 3;
            assert_eq!(rsum as usize, row_base * 3 + 3);
        }
    }

    #[test]
    fn split_key_reorders_ranks() {
        // Reverse ordering via key.
        let out = run_ranks(4, |comm| {
            let rev = comm.split(0, 100 - comm.rank());
            rev.rank()
        });
        assert_eq!(out, vec![3, 2, 1, 0]);
    }

    #[test]
    fn nested_splits_are_isolated() {
        // Messages on a child communicator don't leak into the parent.
        let out = run_ranks(4, |comm| {
            let pair = comm.split(comm.rank() / 2, comm.rank());
            if pair.rank() == 0 {
                pair.send(1, 5, &[comm.rank() as u64]);
                0
            } else {
                pair.recv::<u64>(0, 5)[0]
            }
        });
        assert_eq!(out, vec![0, 0, 0, 2]);
    }

    #[test]
    fn stats_shared_across_split() {
        let out = run_ranks(2, |comm| {
            comm.set_phase(Phase::Shift);
            let sub = comm.split(0, comm.rank());
            if sub.rank() == 0 {
                sub.send(1, 1, &[1u8, 2, 3]);
            } else {
                let _ = sub.recv::<u8>(0, 1);
            }
            comm.stats()
        });
        // Rank 0 sent one 3-element message, attributed to Shift even though
        // it went through the sub-communicator.
        assert_eq!(out[0].phase(Phase::Shift).messages, 1);
        assert_eq!(out[0].phase(Phase::Shift).elements, 3);
        assert_eq!(out[1].phase(Phase::Shift).messages, 0);
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        let out = run_ranks(1, |comm| {
            let mut buf = vec![9u8];
            comm.bcast(0, &mut buf);
            comm.reduce(0, &mut buf, sum_combine);
            comm.allreduce(&mut buf, sum_combine);
            comm.barrier();
            let g = comm.gather(0, &buf);
            let ag = comm.allgather(&buf);
            (buf, g, ag)
        });
        assert_eq!(out[0].0, vec![9]);
        assert_eq!(out[0].1, Some(vec![vec![9]]));
        assert_eq!(out[0].2, vec![vec![9]]);
    }

    #[test]
    fn blocked_time_is_recorded_on_real_waits() {
        // Receiver posts its recv ~50 ms before the sender sends: both the
        // stats counter and the trace must capture the wait.
        let Recorded {
            results: out,
            trace,
            ..
        } = run_ranks_recorded(2, RECORD, |comm| {
            comm.set_phase(Phase::Shift);
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(50));
                comm.send(1, 1, &[1u8]);
                0.0
            } else {
                let _ = comm.recv::<u8>(0, 1);
                comm.stats().phase(Phase::Shift).blocked_secs
            }
        });
        assert!(
            out[1] > 0.04,
            "receiver should have blocked ~50 ms, stats say {}s",
            out[1]
        );
        let blocked: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| {
                s.rank == 1
                    && matches!(
                        s.kind,
                        nbody_trace::SpanKind::Blocked {
                            phase: Phase::Shift,
                            ..
                        }
                    )
            })
            .collect();
        assert_eq!(blocked.len(), 1, "one blocked interval: {blocked:?}");
        assert!(blocked[0].secs() > 0.04);
        // The wait is attributed to the late sender: global rank 0.
        match blocked[0].kind {
            nbody_trace::SpanKind::Blocked { peer, .. } => assert_eq!(peer, Some(0)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn traced_run_returns_same_results_as_untraced() {
        let body = |comm: &mut ThreadComm| {
            let mut buf = vec![1u64 << comm.rank()];
            comm.allreduce(&mut buf, sum_combine);
            buf[0]
        };
        let plain = run_ranks(4, body);
        let Recorded {
            results: traced,
            trace,
            metrics,
            timeline,
            ..
        } = run_ranks_recorded(4, RECORD, body);
        assert_eq!(plain, traced);
        assert_eq!(trace.ranks, 4);
        assert!(!trace.spans.is_empty());
        assert_eq!(metrics.ranks.len(), 4);
        assert_eq!(timeline.ranks.len(), 4);
        assert!(!timeline.is_postmortem());
        // Silent runs (bench baseline) still compute the same results.
        assert_eq!(run_ranks_silent(4, body), plain);
    }

    #[test]
    fn ranks_carry_a_live_timeline_recorder() {
        let Recorded {
            results: enabled,
            timeline,
            ..
        } = run_ranks_recorded(2, RECORD, |comm| {
            let tl = comm.timeline();
            tl.step_mark(comm.rank() as u64);
            let sub = comm.split(0, comm.rank());
            // The recorder follows the rank across splits.
            sub.timeline().event(
                nbody_timeline::EventKind::Checkpoint,
                Some(0),
                "via split",
            );
            (tl.is_enabled(), tl.wants_samples())
        });
        assert_eq!(enabled, vec![(true, true), (true, true)]);
        for (rank, rt) in timeline.ranks.iter().enumerate() {
            assert_eq!(rt.rank as usize, rank);
            assert_eq!(rt.events.len(), 2, "step mark + split event: {rt:?}");
        }
        // Plain runs keep the flight ring on (always-on crash forensics)
        // but skip step sampling.
        let modes = run_ranks(2, |comm| {
            (comm.timeline().is_enabled(), comm.timeline().wants_samples())
        });
        assert_eq!(modes, vec![(true, false), (true, false)]);
    }

    #[test]
    fn sendrecv_default_shifts_a_ring() {
        // Direct coverage of the `Communicator::sendrecv` default: a full
        // ring rotation where every rank simultaneously sends right and
        // receives from the left must not deadlock and must deliver the
        // left neighbour's payload, element-exact.
        let p = 5;
        let out = run_ranks(p, |comm| {
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let payload: Vec<u64> = (0..=comm.rank() as u64).collect();
            comm.sendrecv(right, left, 42, &payload)
        });
        for (rank, got) in out.iter().enumerate() {
            let left = (rank + p - 1) % p;
            let want: Vec<u64> = (0..=left as u64).collect();
            assert_eq!(got, &want, "rank {rank} must hold rank {left}'s data");
        }
    }

    #[test]
    fn sendrecv_default_handles_self_exchange_and_distinct_peers() {
        let out = run_ranks(3, |comm| {
            // Exchange with oneself: the send must be buffered so the
            // following recv can complete (dst == src == rank).
            let me = comm.rank();
            let echoed = comm.sendrecv(me, me, 7, &[me as u32]);
            // Then an asymmetric pattern: everyone forwards to rank 0.
            if me == 0 {
                let mut sum = echoed[0];
                for src in 1..comm.size() {
                    sum += comm.recv::<u32>(src, 8)[0];
                }
                sum
            } else {
                comm.send(0, 8, &[me as u32 * 10]);
                echoed[0]
            }
        });
        assert_eq!(out, vec![30, 1, 2]);
    }

    #[test]
    fn probed_run_collects_wire_events() {
        use nbody_trace::Phase;
        use nbody_wireprobe::{match_events, ProbeKind};
        let Recorded {
            results: enabled,
            wire,
            ..
        } = run_ranks_recorded(2, WIRE, |comm| {
            comm.set_phase(Phase::Shift);
            if comm.rank() == 0 {
                comm.send(1, 5, &[1u64, 2, 3]);
            } else {
                let _ = comm.recv::<u64>(0, 5);
            }
            comm.wire().is_enabled()
        });
        assert_eq!(enabled, vec![true, true]);
        assert_eq!(wire.ranks.len(), 2);
        let send = &wire.ranks[0].events[0];
        assert_eq!(send.kind, ProbeKind::Send);
        assert_eq!((send.src, send.dst), (0, 1));
        assert_eq!(send.tag, 5);
        assert_eq!(send.phase, Phase::Shift);
        assert_eq!(send.count, 3);
        assert_eq!(send.bytes, 24);
        let recv = &wire.ranks[1].events[0];
        assert_eq!(recv.kind, ProbeKind::Recv);
        assert_eq!((recv.src, recv.dst), (0, 1));
        // The shared epoch makes cross-rank stamps subtractable.
        assert!(recv.t_secs >= send.t_secs);
        let report = match_events(&wire);
        assert_eq!(report.matched, 1);
        assert_eq!(report.channels.len(), 1);
        assert_eq!(report.channels[0].latency.count, 1);
        // Probes are strictly opt-in: every other entry point runs dark.
        let dark = run_ranks(2, |comm| comm.wire().is_enabled());
        assert_eq!(dark, vec![false, false]);
    }

    #[test]
    fn wire_probes_follow_splits_and_skip_collectives() {
        use nbody_trace::Phase;
        use nbody_wireprobe::ProbeKind;
        let Recorded { wire, .. } = run_ranks_recorded(4, WIRE, |comm| {
            comm.set_phase(Phase::Skew);
            // Point-to-point on a derived communicator: probed, with
            // global ranks and the split's comm id.
            let sub = comm.split(comm.rank() % 2, comm.rank());
            if sub.rank() == 0 {
                sub.send(1, 9, &[1u8, 2]);
            } else {
                let _ = sub.recv::<u8>(0, 9);
            }
            // Collectives manage their own internal traffic: not probed.
            comm.set_phase(Phase::Reduce);
            let mut buf = vec![comm.rank() as u64];
            comm.allreduce(&mut buf, sum_combine);
        });
        let events: Vec<_> = wire.ranks.iter().flat_map(|r| &r.events).collect();
        assert!(
            events.iter().all(|e| e.phase == Phase::Skew),
            "only the explicit p2p traffic is probed: {events:?}"
        );
        assert_eq!(events.len(), 4, "2 sends + 2 recvs across both splits");
        let send01 = events
            .iter()
            .find(|e| e.kind == ProbeKind::Send && e.src == 0)
            .unwrap();
        assert_eq!(send01.dst, 2, "global ranks: color-0 split is {{0, 2}}");
        assert_ne!(send01.comm, 0, "split traffic carries the derived comm id");
    }

    #[test]
    fn recv_timeout_env_values_parse_strictly() {
        assert_eq!(parse_recv_timeout(None), Ok(60));
        assert_eq!(parse_recv_timeout(Some("20")), Ok(20));
        assert_eq!(parse_recv_timeout(Some(" 5 ")), Ok(5));
        assert!(parse_recv_timeout(Some("0")).is_err());
        assert!(parse_recv_timeout(Some("-3")).is_err());
        assert!(parse_recv_timeout(Some("banana")).is_err());
        assert!(parse_recv_timeout(Some("")).is_err());
        assert!(parse_recv_timeout(Some("1.5")).is_err());
        let msg = parse_recv_timeout(Some("banana")).unwrap_err();
        assert!(
            msg.contains("NBODY_RECV_TIMEOUT_SECS") && msg.contains("banana"),
            "diagnostic names the variable and the bad value: {msg}"
        );
    }

    #[test]
    fn durability_env_overrides_parse_strictly() {
        // Cadence and millisecond overrides: positive integers only.
        assert_eq!(parse_positive_int("NBODY_CHECKPOINT_EVERY", None), Ok(None));
        assert_eq!(
            parse_positive_int("NBODY_CHECKPOINT_EVERY", Some(" 4 ")),
            Ok(Some(4))
        );
        assert!(parse_positive_int("NBODY_CHECKPOINT_EVERY", Some("0")).is_err());
        assert!(parse_positive_int("NBODY_RETRY_TIMEOUT_MS", Some("fast")).is_err());
        assert!(parse_positive_int("NBODY_RETRY_BUDGET_MS", Some("-1")).is_err());
        // Retry count: zero is a legitimate "no retries".
        assert_eq!(parse_count("NBODY_RETRY_MAX", Some("0")), Ok(Some(0)));
        assert!(parse_count("NBODY_RETRY_MAX", Some("-1")).is_err());
        // Backoff ≥ 1, jitter in [0, 1).
        assert_eq!(
            parse_float_in("NBODY_RETRY_BACKOFF", Some("1.5"), 1.0, f64::INFINITY),
            Ok(Some(1.5))
        );
        assert!(parse_float_in("NBODY_RETRY_BACKOFF", Some("0.5"), 1.0, f64::INFINITY).is_err());
        assert!(parse_float_in("NBODY_RETRY_BACKOFF", Some("inf"), 1.0, f64::INFINITY).is_err());
        assert_eq!(
            parse_float_in("NBODY_RETRY_JITTER", Some("0"), 0.0, 1.0),
            Ok(Some(0.0))
        );
        assert!(parse_float_in("NBODY_RETRY_JITTER", Some("1.0"), 0.0, 1.0).is_err());
        let msg = parse_positive_int("NBODY_CHECKPOINT_EVERY", Some("banana")).unwrap_err();
        assert!(
            msg.contains("NBODY_CHECKPOINT_EVERY") && msg.contains("banana"),
            "diagnostic names the variable and the bad value: {msg}"
        );
    }

    #[test]
    fn traced_run_collects_live_metrics() {
        use nbody_trace::Phase;
        let Recorded { metrics, .. } = run_ranks_recorded(2, RECORD, |comm| {
            comm.set_phase(Phase::Shift);
            if comm.rank() == 0 {
                comm.send(1, 1, &[7u64, 8, 9]);
            } else {
                let _ = comm.recv::<u64>(0, 1);
            }
            comm.set_phase(Phase::Reduce);
            let mut buf = vec![comm.rank() as u64];
            comm.allreduce(&mut buf, sum_combine);
        });
        let r0 = &metrics.ranks[0];
        assert_eq!(r0.counter("comm_send_messages", Some(Phase::Shift)), 1);
        assert_eq!(r0.counter("comm_send_elements", Some(Phase::Shift)), 3);
        assert_eq!(r0.counter("comm_send_bytes", Some(Phase::Shift)), 24);
        // The receive side mirrors it on rank 1.
        let r1 = &metrics.ranks[1];
        assert_eq!(r1.counter("comm_recv_messages", Some(Phase::Shift)), 1);
        assert_eq!(r1.counter("comm_recv_bytes", Some(Phase::Shift)), 24);
        // allreduce = reduce + bcast: both payloads attributed to Reduce.
        assert_eq!(
            metrics.sum_counter("comm_collective_elements", Some(Phase::Reduce)),
            4
        );
        // The tree messages of the collectives hit the wire somewhere.
        assert!(metrics.sum_counter("comm_collective_messages", Some(Phase::Reduce)) > 0);
        // Message sizes were observed.
        let h = r0
            .histogram("comm_message_size_bytes", Some(Phase::Shift))
            .unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum, 24);
        // Untraced runs collect nothing.
        let empty = run_ranks(2, |comm| comm.metrics().is_enabled());
        assert_eq!(empty, vec![false, false]);
    }

    #[test]
    fn split_communicators_share_the_metrics_shard() {
        use nbody_trace::Phase;
        let Recorded { metrics, .. } = run_ranks_recorded(2, RECORD, |comm| {
            comm.set_phase(Phase::Skew);
            let sub = comm.split(0, comm.rank());
            if sub.rank() == 0 {
                sub.send(1, 1, &[1u8, 2, 3, 4]);
            } else {
                let _ = sub.recv::<u8>(0, 1);
            }
        });
        // Traffic on the derived communicator lands on the rank's shard.
        assert_eq!(
            metrics.ranks[0].counter("comm_send_bytes", Some(Phase::Skew)),
            4
        );
    }

    #[test]
    fn phase_windows_follow_split_communicators() {
        // set_phase on a *derived* communicator must land on the rank's one
        // timeline — the converse of `stats_shared_across_split`.
        let Recorded { trace, .. } = run_ranks_recorded(4, RECORD, |comm| {
            let sub = comm.split(comm.rank() % 2, comm.rank());
            sub.set_phase(Phase::Reduce);
            let mut buf = vec![comm.rank() as u64];
            // Operate on the WORLD communicator while the phase was set via
            // the sub-communicator.
            comm.allreduce(&mut buf, sum_combine);
            sub.set_phase(Phase::Other);
            buf[0]
        });
        for rank in 0..4u32 {
            assert!(
                trace.spans.iter().any(|s| {
                    s.rank == rank && s.kind == nbody_trace::SpanKind::Phase(Phase::Reduce)
                }),
                "rank {rank} has no Reduce window despite set_phase via split"
            );
        }
        // Per-rank phase windows tile the timeline: sums equal each rank's
        // traced extent.
        for rank in 0..4u32 {
            let windows: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| {
                    s.rank == rank && matches!(s.kind, nbody_trace::SpanKind::Phase(_))
                })
                .collect();
            let sum: f64 = windows.iter().map(|s| s.secs()).sum();
            let lo = windows.iter().map(|s| s.start).fold(f64::MAX, f64::min);
            let hi = windows.iter().map(|s| s.end).fold(0.0, f64::max);
            assert!(
                (sum - (hi - lo)).abs() < 1e-9,
                "rank {rank}: windows sum {sum} != extent {}",
                hi - lo
            );
        }
    }

    #[test]
    #[should_panic]
    fn tag_mismatch_panics() {
        run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0u8]);
            } else {
                let _ = comm.recv::<u8>(0, 2); // wrong tag
            }
        });
    }

    #[test]
    fn large_rank_count_smoke() {
        let p = 64;
        let out = run_ranks(p, |comm| {
            let mut buf = vec![1u64];
            comm.allreduce(&mut buf, sum_combine);
            buf[0]
        });
        assert!(out.iter().all(|&x| x == p as u64));
    }
}

#[cfg(test)]
mod alltoallv_tests {
    use super::*;
    use crate::communicator::Communicator;

    #[test]
    fn alltoallv_routes_buckets_by_rank() {
        let p = 5;
        let out = run_ranks(p, |comm| {
            // Rank r sends [r*10 + dst; dst+1] to each dst.
            let buckets: Vec<Vec<u64>> = (0..p)
                .map(|dst| vec![(comm.rank() * 10 + dst) as u64; dst + 1])
                .collect();
            comm.alltoallv(buckets)
        });
        for (me, received) in out.iter().enumerate() {
            assert_eq!(received.len(), p);
            for (src, bucket) in received.iter().enumerate() {
                assert_eq!(bucket.len(), me + 1, "me={me} src={src}");
                assert!(bucket.iter().all(|&x| x == (src * 10 + me) as u64));
            }
        }
    }

    #[test]
    fn alltoallv_empty_buckets_ok() {
        let out = run_ranks(4, |comm| {
            let buckets: Vec<Vec<u8>> = vec![Vec::new(); 4];
            comm.alltoallv(buckets)
        });
        for received in out {
            assert!(received.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn alltoallv_single_rank_is_identity() {
        let out = run_ranks(1, |comm| comm.alltoallv(vec![vec![1u8, 2, 3]]));
        assert_eq!(out[0], vec![vec![1, 2, 3]]);
    }

    #[test]
    fn alltoallv_on_split_communicators() {
        // Two independent pairs: traffic must not leak across colors.
        let out = run_ranks(4, |comm| {
            let pair = comm.split(comm.rank() / 2, comm.rank());
            let buckets = vec![vec![comm.rank() as u64], vec![comm.rank() as u64 + 100]];
            pair.alltoallv(buckets)
        });
        // Rank r's bucket[0] (its global rank) goes to the pair's local 0;
        // bucket[1] (rank+100) to local 1.
        assert_eq!(out[0], vec![vec![0], vec![1]]);
        assert_eq!(out[1], vec![vec![100], vec![101]]);
        assert_eq!(out[2], vec![vec![2], vec![3]]);
        assert_eq!(out[3], vec![vec![102], vec![103]]);
    }
}
