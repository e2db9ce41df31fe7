//! Benchmark-side span recording.
//!
//! [`TracedComm`] wraps a rank's communicator and records one span per
//! trait call, tagged with the phase the algorithm last passed to
//! `set_phase`. [`RankLog`] also holds the layer spans the reassembled
//! timestep records around its calls into the library. Spans stay in
//! memory until the run ends; nothing inside the library is instrumented.

use std::cell::{Cell, RefCell};
use std::ops::Deref;
use std::rc::Rc;
use std::time::{Duration, Instant};

use nbody_comm::{
    CommData, CommError, CommStats, Communicator, MetricsRecorder, Phase, ProbeRecorder,
    TimelineRecorder, Tracer,
};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole timestep.
    Step,
    /// `GridComms::new`: the world splits into columns and rows.
    Split,
    /// `id_block_subset` / `spatial_subset_2d`: the initial distribution.
    Distribute,
    /// `Integrator::pre_force` + `reset_forces`, or `Integrator::post_force`.
    Integrate,
    /// `ca_all_pairs_forces` / `ca_cutoff_forces`.
    Force,
    /// `reassign_particles`.
    Reassign,
    /// One communicator call, attributed to the phase set before it.
    Comm(&'static str, Phase),
}

impl Layer {
    fn label(&self) -> String {
        match self {
            Layer::Step => "step".into(),
            Layer::Split => "split".into(),
            Layer::Distribute => "distribute".into(),
            Layer::Integrate => "integrate".into(),
            Layer::Force => "force".into(),
            Layer::Reassign => "reassign".into(),
            Layer::Comm(op, phase) => format!("comm.{op}.{phase:?}"),
        }
    }
}

/// One recorded interval, in nanoseconds since the run's shared epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// Timestep the span belongs to (`None` during set-up).
    pub step: Option<u32>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }

    fn within(&self, outer: &Span) -> bool {
        self.start >= outer.start && self.end <= outer.end
    }
}

/// One rank's span store, shared by its world wrapper and every
/// communicator split from it (like the library's own recorders, it
/// follows the rank).
pub struct RankLog {
    epoch: Instant,
    phase: Cell<Phase>,
    step: Cell<Option<u32>>,
    spans: RefCell<Vec<Span>>,
}

impl RankLog {
    pub fn new(epoch: Instant) -> Rc<RankLog> {
        Rc::new(RankLog {
            epoch,
            phase: Cell::new(Phase::Other),
            step: Cell::new(None),
            spans: RefCell::new(Vec::new()),
        })
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Attribute the spans that follow to timestep `step`.
    pub fn set_step(&self, step: Option<u32>) {
        self.step.set(step);
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.borrow_mut().push(Span {
            layer,
            step: self.step.get(),
            start,
            end,
        });
        out
    }

    fn comm<R>(&self, op: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(Layer::Comm(op, self.phase.get()), f)
    }

    pub fn into_spans(self: Rc<Self>) -> Vec<Span> {
        Rc::try_unwrap(self)
            .ok()
            .expect("every communicator of the rank is dropped before its spans are read")
            .spans
            .into_inner()
    }
}

/// The world communicator is borrowed from the runtime; split
/// communicators are owned.
enum Handle<'a, C> {
    World(&'a C),
    Split(C),
}

impl<C> Deref for Handle<'_, C> {
    type Target = C;
    fn deref(&self) -> &C {
        match self {
            Handle::World(c) => c,
            Handle::Split(c) => c,
        }
    }
}

/// A communicator that delegates every trait method to the wrapped one and
/// records a span around each call.
pub struct TracedComm<'a, C> {
    inner: Handle<'a, C>,
    log: Rc<RankLog>,
}

impl<'a, C: Communicator> TracedComm<'a, C> {
    pub fn world(inner: &'a C, log: Rc<RankLog>) -> Self {
        TracedComm {
            inner: Handle::World(inner),
            log,
        }
    }
}

impl<C: Communicator> Communicator for TracedComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn set_phase(&self, phase: Phase) {
        self.log.phase.set(phase);
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
        self.inner.wire()
    }

    fn send<T: CommData>(&self, dst: usize, tag: u64, data: &[T]) {
        self.log.comm("send", || self.inner.send(dst, tag, data))
    }

    fn recv<T: CommData>(&self, src: usize, tag: u64) -> Vec<T> {
        self.log.comm("recv", || self.inner.recv(src, tag))
    }

    fn try_send<T: CommData>(&self, dst: usize, tag: u64, data: &[T]) -> Result<(), CommError> {
        self.log
            .comm("try_send", || self.inner.try_send(dst, tag, data))
    }

    fn try_recv_timeout<T: CommData>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<T>, CommError> {
        self.log.comm("try_recv", || {
            self.inner.try_recv_timeout(src, tag, timeout)
        })
    }

    fn fault_step(&self, step: usize) -> Result<(), CommError> {
        self.inner.fault_step(step)
    }

    fn fault_revive(&self) {
        self.inner.fault_revive()
    }

    fn sendrecv<T: CommData>(&self, dst: usize, src: usize, tag: u64, data: &[T]) -> Vec<T> {
        self.log
            .comm("sendrecv", || self.inner.sendrecv(dst, src, tag, data))
    }

    fn bcast<T: CommData>(&self, root: usize, buf: &mut Vec<T>) {
        self.log.comm("bcast", || self.inner.bcast(root, buf))
    }

    fn reduce<T: CommData>(&self, root: usize, buf: &mut Vec<T>, combine: fn(&mut T, &T)) {
        self.log
            .comm("reduce", || self.inner.reduce(root, buf, combine))
    }

    fn allreduce<T: CommData>(&self, buf: &mut Vec<T>, combine: fn(&mut T, &T)) {
        self.log
            .comm("allreduce", || self.inner.allreduce(buf, combine))
    }

    fn gather<T: CommData>(&self, root: usize, data: &[T]) -> Option<Vec<Vec<T>>> {
        self.log.comm("gather", || self.inner.gather(root, data))
    }

    fn allgather<T: CommData>(&self, data: &[T]) -> Vec<Vec<T>> {
        self.log.comm("allgather", || self.inner.allgather(data))
    }

    fn alltoallv<T: CommData>(&self, buckets: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.log.comm("alltoallv", || self.inner.alltoallv(buckets))
    }

    fn barrier(&self) {
        self.log.comm("barrier", || self.inner.barrier())
    }

    fn split(&self, color: usize, key: usize) -> Self {
        let inner = self.log.comm("split", || self.inner.split(color, key));
        TracedComm {
            inner: Handle::Split(inner),
            log: Rc::clone(&self.log),
        }
    }
}

/// Per-step layer times of one rank, each summed over the run and divided
/// by the step count.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankSplit {
    pub step: f64,
    pub force: f64,
    /// Force span minus the communicator spans inside it.
    pub kernel_self: f64,
    pub integrate: f64,
    pub reassign: f64,
    /// Step span minus the integrate, force and reassign spans.
    pub unattributed: f64,
    pub shift: f64,
    pub skew: f64,
    pub bcast: f64,
    pub reduce: f64,
    pub comm_reassign: f64,
    /// Set-up spans (not per step).
    pub split: f64,
    pub distribute: f64,
}

/// Split one rank's spans into per-step layer times, checking that the
/// layer spans tile the rank's own step spans: each lies inside its step,
/// none overlaps another, and communicator spans sit inside a layer.
/// The check uses this rank's timestamps only.
pub fn split_rank(spans: &[Span], steps: usize) -> Result<RankSplit, String> {
    let mut out = RankSplit::default();
    let mut step_spans = vec![None; steps];
    for s in spans.iter().filter(|s| s.layer == Layer::Step) {
        let i = s.step.ok_or("step span without a step")? as usize;
        if i >= steps || step_spans[i].replace(*s).is_some() {
            return Err(format!("unexpected step span for step {i}"));
        }
    }
    let mut layers: Vec<Vec<Span>> = vec![Vec::new(); steps];
    for s in spans {
        match s.layer {
            Layer::Step => {}
            Layer::Split => out.split += s.secs(),
            Layer::Distribute => out.distribute += s.secs(),
            Layer::Comm(..) if s.step.is_none() => {}
            _ => {
                let i = s.step.ok_or("layer span outside a step")? as usize;
                layers[i].push(*s);
            }
        }
    }
    for (i, (step, mut inside)) in step_spans.into_iter().zip(layers).enumerate() {
        let step = step.ok_or(format!("step {i} has no step span"))?;
        inside.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
        out.step += step.secs();
        let mut attributed = 0.0;
        // The enclosing layer span of the communicator calls that follow.
        let mut open: Option<Span> = None;
        let mut last_end = step.start;
        for s in &inside {
            if !s.within(&step) {
                return Err(format!("{} span leaves step {i}", s.layer.label()));
            }
            match s.layer {
                Layer::Comm(_, phase) => {
                    let parent = open
                        .filter(|o| s.within(o))
                        .ok_or(format!("communicator call outside a layer in step {i}"))?;
                    let t = s.secs();
                    match phase {
                        Phase::Shift => out.shift += t,
                        Phase::Skew => out.skew += t,
                        Phase::Broadcast => out.bcast += t,
                        Phase::Reduce => out.reduce += t,
                        Phase::Reassign => out.comm_reassign += t,
                        _ => {}
                    }
                    if parent.layer == Layer::Force {
                        out.kernel_self -= t;
                    }
                }
                layer => {
                    if s.start < last_end {
                        return Err(format!(
                            "{} span overlaps another in step {i}",
                            s.layer.label()
                        ));
                    }
                    last_end = s.end;
                    open = Some(*s);
                    let t = s.secs();
                    attributed += t;
                    match layer {
                        Layer::Integrate => out.integrate += t,
                        Layer::Force => {
                            out.force += t;
                            out.kernel_self += t;
                        }
                        Layer::Reassign => out.reassign += t,
                        _ => return Err(format!("{} span inside step {i}", s.layer.label())),
                    }
                }
            }
        }
        out.unattributed += step.secs() - attributed;
    }
    let per_step = 1.0 / steps.max(1) as f64;
    for v in [
        &mut out.step,
        &mut out.force,
        &mut out.kernel_self,
        &mut out.integrate,
        &mut out.reassign,
        &mut out.unattributed,
        &mut out.shift,
        &mut out.skew,
        &mut out.bcast,
        &mut out.reduce,
        &mut out.comm_reassign,
    ] {
        *v *= per_step;
    }
    Ok(out)
}

/// Write every rank's spans as CSV (`rank,step,layer,start_ns,end_ns`).
pub fn write_csv(path: &std::path::Path, ranks: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "rank,step,layer,start_ns,end_ns")?;
    for (rank, spans) in ranks.iter().enumerate() {
        for s in spans {
            let step = s.step.map_or(String::new(), |v| v.to_string());
            writeln!(w, "{rank},{step},{},{},{}", s.layer.label(), s.start, s.end)?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, step: u32, start: u64, end: u64) -> Span {
        Span {
            layer,
            step: Some(step),
            start,
            end,
        }
    }

    #[test]
    fn split_attributes_comm_to_its_phase_and_kernel_self_excludes_it() {
        let spans = vec![
            span(Layer::Step, 0, 0, 100),
            span(Layer::Integrate, 0, 1, 10),
            span(Layer::Force, 0, 10, 80),
            span(Layer::Comm("sendrecv", Phase::Shift), 0, 12, 30),
            span(Layer::Comm("reduce", Phase::Reduce), 0, 70, 79),
            span(Layer::Integrate, 0, 80, 90),
        ];
        let s = split_rank(&spans, 1).unwrap();
        let ns = |v: f64| (v * 1e9).round() as i64;
        assert_eq!(ns(s.step), 100);
        assert_eq!(ns(s.force), 70);
        assert_eq!(ns(s.kernel_self), 70 - 18 - 9);
        assert_eq!(ns(s.shift), 18);
        assert_eq!(ns(s.reduce), 9);
        assert_eq!(ns(s.integrate), 19);
        assert_eq!(ns(s.unattributed), 100 - 89);
    }

    #[test]
    fn split_rejects_spans_that_do_not_tile_the_step() {
        let leaking = vec![span(Layer::Step, 0, 0, 100), span(Layer::Force, 0, 10, 120)];
        assert!(split_rank(&leaking, 1).is_err());
        let overlapping = vec![
            span(Layer::Step, 0, 0, 100),
            span(Layer::Integrate, 0, 0, 20),
            span(Layer::Force, 0, 10, 90),
        ];
        assert!(split_rank(&overlapping, 1).is_err());
        let stray_comm = vec![
            span(Layer::Step, 0, 0, 100),
            span(Layer::Comm("send", Phase::Shift), 0, 10, 20),
        ];
        assert!(split_rank(&stray_comm, 1).is_err());
    }
}
