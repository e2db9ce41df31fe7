//! The communicator abstraction.
//!
//! This is the MPI-like surface the distributed algorithms are written
//! against: ranked point-to-point messages, tree collectives, and
//! `split`-style sub-communicators (used to form the paper's `p/c x c`
//! processor grid: one sub-communicator per *team* column and one per
//! *row*). The concrete transport in this crate is [`ThreadComm`], which
//! runs each rank as an OS thread on one machine — the substitution for the
//! MPI clusters the paper ran on (see DESIGN.md).
//!
//! [`ThreadComm`]: crate::thread_comm::ThreadComm

use std::time::Duration;

use crate::error::CommError;
use crate::stats::{CommStats, Phase};
use nbody_metrics::MetricsRecorder;
use nbody_timeline::TimelineRecorder;
use nbody_trace::Tracer;
use nbody_wireprobe::ProbeRecorder;

/// Marker for data that can travel between ranks. Blanket-implemented for
/// every cloneable `Send` type; messages are moved between threads without
/// serialization.
pub trait CommData: Clone + Send + 'static {}
impl<T: Clone + Send + 'static> CommData for T {}

/// An MPI-like communicator: a set of ranks that can exchange messages and
/// perform collectives. Ranks are local to the communicator (`0..size()`).
///
/// Semantics guaranteed by implementations:
///
/// * Point-to-point messages between a fixed (sender, receiver) pair are
///   delivered in FIFO order within one communicator.
/// * Sends are buffered (non-blocking): a ring of simultaneous
///   `send` + `recv` pairs cannot deadlock.
/// * Collectives must be entered by every rank of the communicator in the
///   same program order.
/// * `tag` values are a correctness check: receiving a message whose tag
///   differs from the expected one is a protocol violation and panics.
pub trait Communicator: Sized {
    /// This process's rank within the communicator, in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Attribute subsequent operations to `phase` (see [`CommStats`]).
    fn set_phase(&self, phase: Phase);

    /// Snapshot of this rank's accumulated statistics. Statistics are shared
    /// across communicators derived from the same rank (phase attribution
    /// follows the rank, not the communicator).
    fn stats(&self) -> CommStats;

    /// This rank's wall-clock span recorder. Like
    /// [`stats`](Communicator::stats), the tracer follows the rank: communicators
    /// derived by `split` share it. Disabled (a no-op handle) unless the
    /// execution was started with tracing on.
    fn tracer(&self) -> Tracer {
        Tracer::disabled()
    }

    /// This rank's metrics recorder (counters, gauges, histograms). Like
    /// the tracer, it follows the rank across `split`s, and is disabled
    /// unless the execution was started with metrics on — algorithms can
    /// record against it unconditionally.
    fn metrics(&self) -> MetricsRecorder {
        MetricsRecorder::disabled()
    }

    /// This rank's timeline recorder (step-sample series + flight-event
    /// ring). Follows the rank across `split`s like the tracer; disabled
    /// by default so plain transports stay telemetry-free.
    fn timeline(&self) -> TimelineRecorder {
        TimelineRecorder::disabled()
    }

    /// This rank's wire probe: a bounded ring of per-message transport
    /// events (send/recv/fault) for latency attribution and schedule
    /// conformance checking. Follows the rank across `split`s; disabled by
    /// default so backends without probing support conform for free.
    fn wire(&self) -> ProbeRecorder {
        ProbeRecorder::disabled()
    }

    /// Buffered send of `data` to local rank `dst`.
    fn send<T: CommData>(&self, dst: usize, tag: u64, data: &[T]);

    /// Blocking receive from local rank `src`. The next message from `src`
    /// on this communicator must carry `tag`.
    fn recv<T: CommData>(&self, src: usize, tag: u64) -> Vec<T>;

    /// Fallible send: like [`send`](Communicator::send) but reporting
    /// transport failures as [`CommError`] instead of panicking. The
    /// default delegates to the panicking path (transports without a
    /// failure model never return `Err`).
    fn try_send<T: CommData>(&self, dst: usize, tag: u64, data: &[T]) -> Result<(), CommError> {
        self.send(dst, tag, data);
        Ok(())
    }

    /// Fallible, deadline-bounded receive: like [`recv`](Communicator::recv)
    /// but returning [`CommError::Timeout`] when no matching message
    /// arrives within `timeout` — the failure-detection primitive of the
    /// recovery layer. The default delegates to the blocking path and
    /// cannot time out; transports with real failure detection override it.
    fn try_recv_timeout<T: CommData>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<T>, CommError> {
        let _ = timeout;
        Ok(self.recv(src, tag))
    }

    /// Fault-injection hook: drivers announce each pipeline step `s`
    /// (1-based; the skew is step 0) before communicating in it. A chaos
    /// wrapper uses this to aim scheduled faults; on the rank a kill event
    /// just felled it returns [`CommError::PeerDead`]. The default is a
    /// no-op — plain transports never fail here.
    fn fault_step(&self, step: usize) -> Result<(), CommError> {
        let _ = step;
        Ok(())
    }

    /// Fault-injection hook: clear a fired kill before a recovery retry
    /// (models the replacement process coming back up). No-op by default.
    fn fault_revive(&self) {}

    /// Combined shift step: send `data` to `dst` while receiving from `src`.
    /// Deadlock-free for arbitrary permutations because sends are buffered.
    fn sendrecv<T: CommData>(&self, dst: usize, src: usize, tag: u64, data: &[T]) -> Vec<T> {
        self.send(dst, tag, data);
        self.recv(src, tag)
    }

    /// Broadcast `buf` from `root` to all ranks (binomial tree). On entry,
    /// only `root`'s buffer contents matter; on exit every rank holds a copy.
    fn bcast<T: CommData>(&self, root: usize, buf: &mut Vec<T>);

    /// Element-wise tree reduction to `root`. Every rank contributes `buf`
    /// (all the same length); on `root`, `buf` ends up holding the combined
    /// result; other ranks' buffers are left in an unspecified combined
    /// state and should not be used. `combine` must be associative.
    fn reduce<T: CommData>(&self, root: usize, buf: &mut Vec<T>, combine: fn(&mut T, &T));

    /// [`reduce`](Communicator::reduce) followed by a broadcast, leaving the
    /// combined result on every rank.
    fn allreduce<T: CommData>(&self, buf: &mut Vec<T>, combine: fn(&mut T, &T)) {
        self.reduce(0, buf, combine);
        self.bcast(0, buf);
    }

    /// Gather each rank's `data` to `root`; returns `Some(concatenation)` in
    /// rank order on the root, `None` elsewhere.
    fn gather<T: CommData>(&self, root: usize, data: &[T]) -> Option<Vec<Vec<T>>>;

    /// Gather to rank 0 and broadcast: every rank gets every rank's data.
    fn allgather<T: CommData>(&self, data: &[T]) -> Vec<Vec<T>> {
        let mut parts = self.gather(0, data).unwrap_or_default();
        let mut lens: Vec<usize> = if self.rank() == 0 {
            parts.iter().map(Vec::len).collect()
        } else {
            Vec::new()
        };
        self.bcast(0, &mut lens);
        let mut flat: Vec<T> = if self.rank() == 0 {
            parts.drain(..).flatten().collect()
        } else {
            Vec::new()
        };
        self.bcast(0, &mut flat);
        let mut out = Vec::with_capacity(lens.len());
        let mut it = flat.into_iter();
        for len in lens {
            out.push(it.by_ref().take(len).collect());
        }
        out
    }

    /// Personalized all-to-all with variable counts: `buckets[r]` is sent
    /// to rank `r`; returns the per-source buckets received (index =
    /// source rank; `out[rank()]` is this rank's own bucket, moved, not
    /// copied). The workhorse of spatial re-assignment.
    fn alltoallv<T: CommData>(&self, mut buckets: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let p = self.size();
        let me = self.rank();
        assert_eq!(buckets.len(), p, "one bucket per rank");
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        out[me] = std::mem::take(&mut buckets[me]);
        // Deterministic rotation: round r exchanges with me +/- r.
        const TAG_A2A: u64 = 0x6000;
        for offset in 1..p {
            let dst = (me + offset) % p;
            self.send(dst, TAG_A2A + offset as u64, &buckets[dst]);
        }
        for offset in 1..p {
            let src = (me + p - offset) % p;
            out[src] = self.recv(src, TAG_A2A + offset as u64);
        }
        out
    }

    /// Block until every rank of the communicator has arrived.
    fn barrier(&self);

    /// Partition the communicator: ranks passing the same `color` form a new
    /// communicator, ordered by `(key, old rank)`. Must be called by every
    /// rank (collective).
    fn split(&self, color: usize, key: usize) -> Self;
}

/// Element-wise sum, the combine function used for force reductions.
pub fn sum_combine<T: std::ops::AddAssign + Copy>(acc: &mut T, x: &T) {
    *acc += *x;
}
