//! The end-to-end simulation driver.
//!
//! Runs multi-timestep N-body simulations with any of the paper's
//! decompositions on the threaded message-passing runtime, handling the
//! integrator split, force evaluation, boundary conditions, and (for the
//! cutoff methods) per-step spatial re-assignment. The serial path uses the
//! identical integrator/force code, so distributed trajectories can be
//! validated against it step-for-step.

use nbody_comm::{
    run_ranks_chaos_recorded, run_ranks_recorded, CommStats, Communicator, EventKind,
    ExecutionTrace, FaultPlan, Lenses, MetricsSnapshot, Phase, RunTimeline, WireLog,
};
use nbody_durable::{write_atomic, CheckpointBundle, ColumnBlock};
use nbody_physics::particle::reset_forces;
use nbody_physics::{Boundary, Domain, ForceLaw, Integrator, Particle};
use nbody_simhealth::{scan_forces, scan_state, HealthConfig, HealthReport, Invariants};

use crate::allpairs::{ca_all_pairs_forces, ca_all_pairs_forces_ft};
use crate::baselines::{
    force_decomposition_forces, naive_allgather_forces, particle_ring_forces,
};
use crate::cutoff::{ca_cutoff_forces, ca_cutoff_forces_ft, validate_cutoff};
use crate::dist::id_block_subset;
use crate::grid::{GridComms, GridError, ProcGrid};
use crate::midpoint::midpoint_forces;
use crate::probe::StepProbe;
use crate::reassign::reassign_particles;
use crate::recovery::{FaultError, HealthMonitor, RecoveryReport, RetryPolicy};
use crate::spatial::spatial_halo_forces;
use crate::window::AnyWindow;

/// Which parallel decomposition evaluates forces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Algorithm 1 with replication factor `c` (id-block distribution).
    CaAllPairs {
        /// Replication factor.
        c: usize,
    },
    /// Plimpton's particle decomposition (ring pipeline).
    ParticleRing,
    /// Half-ring particle decomposition exploiting Newton's third law —
    /// the symmetry optimization the paper declines (§III.C); requires a
    /// symmetric force law.
    ParticleRingSymmetric,
    /// The allgather-based naive variant (`tree` bars of Fig. 2c/2d).
    NaiveAllgather,
    /// Plimpton's force decomposition (`p` must be a perfect square).
    ForceDecomposition,
    /// Algorithm 2 with replication factor `c` (1D spatial decomposition;
    /// the force law must have a cutoff).
    Ca1dCutoff {
        /// Replication factor.
        c: usize,
    },
    /// The Fig. 5 2D generalization (2D spatial decomposition; cutoff law).
    Ca2dCutoff {
        /// Replication factor.
        c: usize,
    },
    /// Halo-exchange spatial baseline on 1D slabs (cutoff law, `c = 1`).
    SpatialHalo1d,
    /// Halo-exchange spatial baseline on a 2D grid (cutoff law, `c = 1`).
    SpatialHalo2d,
    /// The midpoint method (§II.D neutral-territory family) on 1D slabs
    /// (cutoff law, `c = 1`, half-span import region).
    Midpoint1d,
    /// The midpoint method on a 2D grid.
    Midpoint2d,
}

impl Method {
    /// The replication factor the method uses (1 for non-replicating ones).
    pub fn replication(&self) -> usize {
        match *self {
            Method::CaAllPairs { c } | Method::Ca1dCutoff { c } | Method::Ca2dCutoff { c } => c,
            _ => 1,
        }
    }

    /// Whether the method needs a force law with a finite cutoff.
    pub fn needs_cutoff(&self) -> bool {
        matches!(
            self,
            Method::Ca1dCutoff { .. }
                | Method::Ca2dCutoff { .. }
                | Method::SpatialHalo1d
                | Method::SpatialHalo2d
                | Method::Midpoint1d
                | Method::Midpoint2d
        )
    }
}

/// Simulation parameters shared by serial and distributed runs.
#[derive(Debug, Clone)]
pub struct SimConfig<F, I> {
    /// Pairwise force law.
    pub law: F,
    /// Time integrator.
    pub integrator: I,
    /// Simulation domain.
    pub domain: Domain,
    /// Boundary condition.
    pub boundary: Boundary,
    /// Timestep.
    pub dt: f64,
    /// Number of timesteps.
    pub steps: usize,
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Final particles, gathered from all owners and sorted by id.
    pub particles: Vec<Particle>,
    /// Per-world-rank communication statistics.
    pub stats: Vec<CommStats>,
    /// Worst per-evaluation attempt count across all ranks and timesteps
    /// (1 = no fault ever fired; always 1 without a recovery context).
    pub max_attempts: usize,
    /// Whether any evaluation recovered from a detected fault.
    pub recovered: bool,
    /// Times the world shrank onto the survivors (degraded mode; 0 on a
    /// run that never lost a whole team column).
    pub shrinks: usize,
    /// Particles dropped with dead columns across all shrinks.
    pub lost_particles: usize,
    /// Ranks still computing when the run finished (`p` if never shrunk).
    pub final_ranks: usize,
    /// The globally agreed verdict of the numerical-health monitors, on a
    /// run that had them on (identical on every rank up to floating-point
    /// reduction order).
    pub health: Option<HealthReport>,
}

/// The result of a fault-tolerant run, by the name
/// [`run_distributed_health`] returns it under: the same type as
/// [`RunResult`].
pub type ChaosRunResult = RunResult;

/// Durable checkpointing configuration for fault-tolerant runs.
///
/// Leaders' blocks are gathered to rank 0 on the cadence and persisted as
/// one atomic `nbody-checkpoint/v1` bundle (see the `nbody-durable`
/// crate), so a killed process can restart from the last completed bundle
/// with `run --resume`.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory receiving `ckpt-<step>.json` bundles.
    pub dir: std::path::PathBuf,
    /// Cadence in completed global steps (must be ≥ 1).
    pub every: usize,
    /// Global steps already completed before this run (the resume offset);
    /// bundles are stamped with `base_step + local step + 1`.
    pub base_step: u64,
    /// Run-config fingerprint stamped into every bundle and checked on
    /// resume ([`nbody_durable::RunFingerprint::digest`]).
    pub fingerprint: String,
    /// Initial-condition seed recorded in the bundle.
    pub seed: u64,
    /// Kill the process (exit 137, the SIGKILL code) right after the
    /// bundle for this global step hits the disk — the crash hook behind
    /// `run --crash-at-step`, exercising the resume path end to end.
    pub crash_at: Option<u64>,
}

/// The recovery context of a fault-tolerant CA run.
#[derive(Debug, Clone, Copy)]
pub struct Recovery<'a> {
    /// Faults to inject (an empty plan injects none).
    pub plan: &'a FaultPlan,
    /// Retry policy of every force evaluation.
    pub policy: &'a RetryPolicy,
    /// Durable checkpoint sink, persisted on its cadence.
    pub ckpt: Option<&'a CheckpointConfig>,
    /// Numerical-health monitors, checked on their cadence.
    pub health: Option<&'a HealthConfig>,
}

/// How [`run`] runs: which lenses record and whether the run is fault
/// tolerant. The default is a plain run with only the flight ring on.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Record per-rank wall-clock spans (every communication phase window,
    /// blocked wait, and driver section `step` / `integrate` / `force` /
    /// `reassign` per timestep) against a shared epoch, the live metrics
    /// (per-rank communication counters, message-size histograms, memory
    /// high-water marks), and the per-step timeline (each rank samples its
    /// communication and compute deltas at every timestep boundary).
    pub record: bool,
    /// Record wire probes: every point-to-point protocol message (send or
    /// recv, rank pair, tag, phase, payload size, timestamp) and, under a
    /// fault plan, every injected fault, for latency attribution and
    /// schedule conformance checking.
    pub wire: bool,
    /// Run fault tolerant (CA methods only). Such a run always records:
    /// its fault and recovery counters live in the metrics shard.
    pub recovery: Option<Recovery<'a>>,
}

/// Everything one [`run`] produces. Each recorder's artifact is `Some`
/// when its lens was on, and survives a failed run: on an agreed
/// [`FaultError`] the timeline is a postmortem bundle
/// ([`RunTimeline::is_postmortem`]) carrying each rank's final flight-ring
/// events and the failure reason, and the wire log holds what actually
/// crossed the wire.
#[derive(Debug)]
pub struct RunOutput {
    /// The gathered final state, or the agreed verdict of a fault-tolerant
    /// run that failed (a run without recovery never fails).
    pub result: Result<RunResult, FaultError>,
    /// Every rank's spans, merged.
    pub trace: Option<ExecutionTrace>,
    /// The live metrics snapshot (including the `fault_*`,
    /// `recovery_bytes_total` and `checkpoint_*` counters).
    pub metrics: Option<MetricsSnapshot>,
    /// The per-step timeline and flight-ring events.
    pub timeline: Option<RunTimeline>,
    /// The merged wire-probe log.
    pub wire: Option<WireLog>,
}

/// Run the serial reference simulation on a copy of `initial`.
pub fn run_serial<F: ForceLaw, I: Integrator>(
    cfg: &SimConfig<F, I>,
    initial: &[Particle],
) -> Vec<Particle> {
    let mut particles = initial.to_vec();
    for _ in 0..cfg.steps {
        nbody_physics::reference::step(
            &mut particles,
            &cfg.law,
            &cfg.integrator,
            cfg.dt,
            &cfg.domain,
            cfg.boundary,
        );
    }
    particles
}

/// Run a distributed simulation of `initial` on `p` rank threads with the
/// given method, recording what `opts` asks for.
///
/// Panics on invalid configurations (replication not dividing `p`, cutoff
/// methods without a cutoff law, `c` exceeding the interaction window).
///
/// With a recovery context the run uses the fault-tolerant force drivers
/// (the CA methods only: [`Method::CaAllPairs`], [`Method::Ca1dCutoff`],
/// [`Method::Ca2dCutoff`]) under the context's fault plan. It completes
/// with forces bit-identical to the fault-free run whenever replica
/// recovery is possible. When whole team columns die (all `c` replicas),
/// the survivors agree to drop the lost blocks and continue on a shrunken
/// world ([`RunResult::shrinks`]); only a terminal [`FaultError`] —
/// retries exhausted, or nothing surviving anywhere — fails the run, and
/// every rank returns the same agreed verdict.
///
/// With a checkpoint sink, on its cadence the leaders' blocks are gathered
/// and persisted as an atomic versioned bundle, so the run can be killed
/// at any point and resumed from the last completed checkpoint
/// (`run --resume`). With the numerical-health monitors, every checked
/// step the ranks' partial kinetic/momentum/potential sums are reduced
/// once world-wide into the timeline's energy/momentum series, non-finite
/// sentinels scan forces and integrated state (aborting into a postmortem
/// with the blamed rank/particle/field on first trigger), and every
/// recovery attempt cross-checks replica state fingerprints down each
/// column (a diverged replica is re-seeded from its column majority and
/// counted in [`HealthReport::fingerprint_mismatches`]).
pub fn run<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    opts: &RunOptions<'_>,
    initial: &[Particle],
) -> RunOutput
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    validate_run(cfg, method);
    let lenses = Lenses {
        record: opts.record || opts.recovery.is_some(),
        wire: opts.wire,
    };
    let rec = match opts.recovery {
        None => run_ranks_recorded(p, lenses, |world| {
            let (owned, stats) = run_rank(cfg, method, world, initial);
            Ok((owned, stats, RecoveryReport::default(), None))
        }),
        Some(rc) => run_ranks_chaos_recorded(p, rc.plan, lenses, |world| {
            run_rank_ca(cfg, method, world, initial, Some(rc))
        }),
    };
    RunOutput {
        result: join_ranks(rec.results, initial.len()),
        trace: lenses.record.then_some(rec.trace),
        metrics: lenses.record.then_some(rec.metrics),
        timeline: lenses.record.then_some(rec.timeline),
        wire: lenses.wire.then_some(rec.wire),
    }
}

/// [`run`] with no lens and no recovery: the gathered final state and
/// per-rank stats.
pub fn run_distributed<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    initial: &[Particle],
) -> RunResult
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    let out = run(cfg, method, p, &RunOptions::default(), initial);
    out.result.expect("a run without recovery cannot fail")
}

/// [`run`] with every lens on and no recovery, returning each artifact.
pub fn run_distributed_wired<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    initial: &[Particle],
) -> (RunResult, ExecutionTrace, MetricsSnapshot, RunTimeline, WireLog)
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    let opts = RunOptions {
        record: true,
        wire: true,
        recovery: None,
    };
    let out = run(cfg, method, p, &opts, initial);
    let on = "every lens is on";
    (
        out.result.expect("a run without recovery cannot fail"),
        out.trace.expect(on),
        out.metrics.expect(on),
        out.timeline.expect(on),
        out.wire.expect(on),
    )
}

/// [`run`] under `plan` with the numerical-health monitors on and no
/// checkpoint sink, returning the agreed [`HealthReport`] on success and
/// the timeline (a postmortem bundle on failure) either way.
pub fn run_distributed_health<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    health: &HealthConfig,
    initial: &[Particle],
) -> (Result<(ChaosRunResult, HealthReport), FaultError>, RunTimeline)
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    let recovery = Recovery {
        plan,
        policy,
        ckpt: None,
        health: Some(health),
    };
    let opts = RunOptions {
        recovery: Some(recovery),
        ..RunOptions::default()
    };
    let out = run(cfg, method, p, &opts, initial);
    let res = out.result.map(|r| {
        let hr = r.health.expect("health runs always produce a report");
        (r, hr)
    });
    (res, out.timeline.expect("fault-tolerant runs always record"))
}

/// Per-rank outcome of a run: the rank's final block, stats, recovery
/// report and health report, or the agreed fault verdict.
type RankOutcome =
    Result<(Vec<Particle>, CommStats, RecoveryReport, Option<HealthReport>), FaultError>;

/// Merge the per-rank outcomes into one [`RunResult`], accounting for
/// blocks dropped by agreed shrinks: the gathered survivors plus the lost
/// particles must tile the initial set exactly (sorted, unique ids),
/// anything else is a protocol bug.
fn join_ranks(out: Vec<RankOutcome>, n: usize) -> Result<RunResult, FaultError> {
    let p = out.len();
    let mut particles = Vec::with_capacity(n);
    let mut stats = Vec::with_capacity(p);
    let mut max_attempts = 1;
    let mut recovered = false;
    let mut shrinks = 0;
    let mut lost_particles = 0;
    let mut final_ranks = p;
    let mut health: Option<HealthReport> = None;
    for r in out {
        let (mut ps, st, rep, hr) = r?;
        particles.append(&mut ps);
        stats.push(st);
        max_attempts = max_attempts.max(rep.attempts);
        recovered |= rep.recovered;
        // Survivors carry the cumulative loss; ranks that left early hold
        // a prefix of it, so the max is the total.
        shrinks = shrinks.max(rep.shrinks);
        lost_particles = lost_particles.max(rep.lost_particles);
        if rep.survivor_ranks > 0 {
            final_ranks = final_ranks.min(rep.survivor_ranks);
        }
        if let Some(hr) = hr {
            // The reduced invariants are agreed on every surviving rank; a
            // rank that left the world early (shrink) holds a prefix. Keep
            // the longest view and fold the counters with max so nobody's
            // tally is truncated.
            let merged = health.get_or_insert(hr);
            if hr.steps_checked > merged.steps_checked {
                let kept = *merged;
                *merged = hr;
                merged.sentinel_events = merged.sentinel_events.max(kept.sentinel_events);
                merged.fingerprint_mismatches =
                    merged.fingerprint_mismatches.max(kept.fingerprint_mismatches);
            } else {
                merged.sentinel_events = merged.sentinel_events.max(hr.sentinel_events);
                merged.fingerprint_mismatches =
                    merged.fingerprint_mismatches.max(hr.fingerprint_mismatches);
                merged.max_rel_energy_drift =
                    merged.max_rel_energy_drift.max(hr.max_rel_energy_drift);
                merged.max_momentum_norm = merged.max_momentum_norm.max(hr.max_momentum_norm);
            }
        }
    }
    particles.sort_by_key(|q| q.id);
    assert_eq!(
        particles.len() + lost_particles,
        n,
        "particles lost or duplicated in distributed run beyond the agreed shrinks"
    );
    assert!(
        particles.windows(2).all(|w| w[0].id < w[1].id),
        "duplicate particle ids in distributed run"
    );
    Ok(RunResult {
        particles,
        stats,
        max_attempts,
        recovered,
        shrinks,
        lost_particles,
        final_ranks,
        health,
    })
}

/// Execute an agreed shrink: split the survivors off into a new world,
/// re-assemble the surviving particle set from the restored pre-force
/// checkpoints, and account for the drop. Collective over `cur` — every
/// rank calls it with the same agreed `dead_teams`. Returns `None` on
/// ranks whose team died (they leave the computation), and the survivor
/// world together with the globally shared surviving state elsewhere.
#[allow(clippy::too_many_arguments)]
fn shrink_world<C: Communicator>(
    cur: &C,
    grid: &ProcGrid,
    dead_teams: &[usize],
    was_leader: bool,
    st: &[Particle],
    live_n: &mut usize,
    agg: &mut RecoveryReport,
    step: usize,
) -> Option<(C, Vec<Particle>)> {
    let my_team = grid.team_of(cur.rank());
    let survivor = !dead_teams.contains(&my_team);
    let tl = cur.timeline();
    cur.set_phase(Phase::Recovery);
    // The split is collective and includes the ranks about to leave;
    // keying on the old rank keeps the survivors' relative order.
    let next = cur.split(usize::from(survivor), cur.rank());
    agg.shrinks += 1;
    if !survivor {
        tl.event(
            EventKind::WorldShrunk,
            Some(step as u64),
            &format!("team {my_team} lost every replica; rank leaves the world"),
        );
        return None;
    }
    // The recovery loop left the restored pre-force checkpoint on every
    // surviving-column rank, so the old leaders' copies are exactly one
    // copy of each live block.
    let contrib = if was_leader { st.to_vec() } else { Vec::new() };
    let mut full: Vec<Particle> = match next.gather(0, &contrib) {
        Some(parts) => {
            let mut all: Vec<Particle> = parts.into_iter().flatten().collect();
            all.sort_by_key(|q| q.id);
            all
        }
        None => Vec::new(),
    };
    next.bcast(0, &mut full);
    let lost = *live_n - full.len();
    *live_n = full.len();
    agg.lost_particles += lost;
    agg.survivor_ranks = next.size();
    let rec = cur.metrics();
    rec.counter("world_shrunk_total", None).inc();
    rec.counter("shrink_lost_particles_total", None)
        .add(lost as u64);
    tl.event(
        EventKind::WorldShrunk,
        Some(step as u64),
        &format!(
            "teams {dead_teams:?} lost ({lost} particles dropped); {} survivors continue",
            next.size()
        ),
    );
    Some((next, full))
}

/// Persist the leaders' blocks as one durable bundle: gathered to the
/// current world's rank 0, written atomically (temp file + rename), and
/// recorded in the flight ring and the `checkpoint_*` counters.
/// Collective over `cur`. When the crash hook matches, rank 0 exits the
/// process with the SIGKILL code right after the bundle is durable.
fn persist_checkpoint<C: Communicator>(
    cur: &C,
    grid: &ProcGrid,
    is_leader: bool,
    st: &[Particle],
    ck: &CheckpointConfig,
    global_step: u64,
) {
    cur.set_phase(Phase::Recovery);
    let contrib = if is_leader { st.to_vec() } else { Vec::new() };
    let gathered = cur.gather(0, &contrib);
    if cur.rank() != 0 {
        return;
    }
    let blocks: Vec<ColumnBlock> = gathered
        .expect("rank 0 is the gather root")
        .into_iter()
        .enumerate()
        .filter(|(r, _)| grid.row_of(*r) == 0)
        .map(|(r, particles)| ColumnBlock {
            team: grid.team_of(r),
            particles,
        })
        .collect();
    let bundle = CheckpointBundle {
        fingerprint: ck.fingerprint.clone(),
        step: global_step,
        seed: ck.seed,
        blocks,
    };
    let tl = cur.timeline();
    match write_atomic(&ck.dir, &bundle) {
        Ok((path, bytes)) => {
            tl.event(
                EventKind::CheckpointPersisted,
                Some(global_step),
                &format!("{} ({bytes} bytes)", path.display()),
            );
            let rec = cur.metrics();
            rec.counter("checkpoint_persisted_total", None).inc();
            rec.counter("checkpoint_bytes_total", None).add(bytes);
        }
        Err(e) => {
            // A failed write never takes the run down: the previous
            // bundle is still intact (atomic rename), so durability
            // degrades by one cadence interval and the run continues.
            tl.event(
                EventKind::CheckpointPersisted,
                Some(global_step),
                &format!("write failed: {e}"),
            );
            rec_failed_checkpoint(cur);
        }
    }
    if ck.crash_at == Some(global_step) {
        std::process::exit(137);
    }
}

fn rec_failed_checkpoint<C: Communicator>(cur: &C) {
    cur.metrics().counter("checkpoint_failed_total", None).inc();
}

/// Post-reduction sentinel pass: apply the seeded NaN injection (fire
/// once, on the target rank/step) and scan the freshly reduced force
/// accumulators on leaders. Returns the local blame `(rank, detail)`.
fn health_scan_forces<C: Communicator>(
    world: &C,
    hcfg: &HealthConfig,
    nan_fired: &mut bool,
    is_leader: bool,
    st: &mut [Particle],
    step: usize,
) -> Option<(usize, String)> {
    let rank = world.rank();
    if let Some((r, s)) = hcfg.injection.nan {
        if r == rank && s == step as u64 && !*nan_fired {
            *nan_fired = true;
            if let Some(q) = st.first_mut() {
                q.force.x = f64::NAN;
            }
        }
    }
    if !is_leader {
        return None;
    }
    scan_forces(st).map(|b| (rank, b.detail(rank, step as u64, "force")))
}

/// Post-integration sentinel pass over positions/velocities/masses.
fn health_scan_state<C: Communicator>(
    world: &C,
    is_leader: bool,
    st: &[Particle],
    step: usize,
) -> Option<(usize, String)> {
    if !is_leader {
        return None;
    }
    let rank = world.rank();
    scan_state(st).map(|b| (rank, b.detail(rank, step as u64, "integrate")))
}

/// The once-per-checked-step world reduction of the health monitors: one
/// sum-allreduce carries every rank's invariant partials plus its sentinel
/// flag, so the invariants and the abort decision cost a single
/// collective. Folds the agreed result into the rank's report and returns
/// `(total energy, momentum norm)`; an agreed sentinel aborts every rank
/// with the same [`FaultError::NumericalFault`]. Collective over `cur`
/// (the current, possibly shrunken, world). Attributed to
/// [`Phase::Recovery`] — health traffic is outside the paper's cost model,
/// like recovery traffic.
fn health_reduce<C: Communicator>(
    cur: &C,
    blame: Option<(usize, String)>,
    inv: Invariants,
    pe_partial: f64,
    step: usize,
    report: &mut HealthReport,
) -> Result<(f64, f64), FaultError> {
    cur.set_phase(Phase::Recovery);
    let mut buf = vec![
        inv.kinetic,
        inv.momentum_x,
        inv.momentum_y,
        pe_partial,
        if blame.is_some() { 1.0 } else { 0.0 },
        blame.as_ref().map_or(0.0, |(r, _)| (*r + 1) as f64),
    ];
    cur.allreduce(&mut buf, |a, b| *a += *b);
    let nonfinite = buf[4] as u64;
    if nonfinite > 0 {
        report.sentinel_events += nonfinite;
        let tl = cur.timeline();
        let (rank, detail) = match blame {
            Some((rank, detail)) => {
                // The catching rank writes the blamed flight event and
                // turns the timeline into a postmortem bundle.
                tl.event(EventKind::NonFinite, Some(step as u64), &detail);
                tl.mark_failure(&detail);
                (rank, detail)
            }
            None => (
                // Exact when one rank is blamed (the common case); with
                // several simultaneous blames the sum is only a hint and
                // the per-rank flight events carry the truth.
                (buf[5] as usize).saturating_sub(1),
                "non-finite state detected (see the blamed rank's flight events)".to_string(),
            ),
        };
        return Err(FaultError::NumericalFault {
            rank,
            step: step as u64,
            detail,
        });
    }
    // The CA schedules evaluate every ordered pair exactly once globally,
    // so the summed kernel harvest counts each unordered pair twice.
    let energy = buf[0] + buf[3] / 2.0;
    let momentum = (buf[1] * buf[1] + buf[2] * buf[2]).sqrt();
    report.record(energy, momentum);
    Ok((energy, momentum))
}

/// The per-method parts of the CA timestep loop on one processor grid.
struct CaLayout {
    grid: ProcGrid,
    /// The cutoff methods' window over the spatial team grid; `None` for
    /// all-pairs, which distributes id blocks and never re-assigns.
    window: Option<AnyWindow>,
}

impl CaLayout {
    /// The layout of CA `method` on `p` ranks with replication `c`.
    fn new<F: ForceLaw, I>(
        cfg: &SimConfig<F, I>,
        method: Method,
        p: usize,
        c: usize,
    ) -> Result<CaLayout, GridError> {
        let two_d = match method {
            Method::CaAllPairs { .. } => {
                let grid = ProcGrid::new_all_pairs(p, c)?;
                return Ok(CaLayout { grid, window: None });
            }
            Method::Ca1dCutoff { .. } => false,
            Method::Ca2dCutoff { .. } => true,
            _ => panic!(
                "{method:?} has no fault-tolerant driver; chaos runs support the CA methods \
                 (ca, ca-cutoff-1d, ca-cutoff-2d)"
            ),
        };
        let grid = ProcGrid::new(p, c)?;
        let r_c = cfg
            .law
            .cutoff()
            .expect("validated: cutoff methods have a cutoff law");
        let window = AnyWindow::from_cutoff(&cfg.domain, grid.teams(), two_d, cfg.boundary, r_c);
        Ok(CaLayout {
            grid,
            window: Some(window),
        })
    }

    /// The layout of `method` on the `p` survivors of a shrink: the largest
    /// replication up to the current one whose grid is valid and, for the
    /// cutoff methods, still fits inside the window (`c ≤ W`). `None` when
    /// no replication qualifies — an agreed verdict, since every survivor
    /// runs the same deterministic search. (`c = 1` always qualifies for
    /// all-pairs: every rank is its own team.)
    fn shrink<F: ForceLaw, I>(
        &self,
        cfg: &SimConfig<F, I>,
        method: Method,
        p: usize,
    ) -> Option<CaLayout> {
        (1..=self.grid.c()).rev().find_map(|c| {
            let next = CaLayout::new(cfg, method, p, c).ok()?;
            let fits = next
                .window
                .is_none_or(|w| validate_cutoff(&w, next.grid.teams(), c).is_ok());
            fits.then_some(next)
        })
    }

    /// This rank's block of `all`: its team's share on leaders, empty on
    /// the other rows.
    fn distribute<C: Communicator>(
        &self,
        gc: &GridComms<C>,
        all: &[Particle],
        domain: &Domain,
    ) -> Vec<Particle> {
        match &self.window {
            _ if !gc.is_leader() => Vec::new(),
            None => id_block_subset(all, self.grid.teams(), gc.team()),
            Some(w) => w.subset(all, domain, gc.team()),
        }
    }

    /// One force evaluation: the plain driver without `ft`, the
    /// fault-tolerant one under `ft = (policy, epoch, health)` with it.
    /// The plain driver cannot fail and harvests no potential.
    fn forces<C: Communicator, F: ForceLaw, I>(
        &self,
        gc: &GridComms<C>,
        st: &mut Vec<Particle>,
        cfg: &SimConfig<F, I>,
        ft: Option<(&RetryPolicy, u64, Option<&HealthMonitor>)>,
    ) -> Result<(RecoveryReport, f64), FaultError> {
        let (law, domain, boundary) = (&cfg.law, &cfg.domain, cfg.boundary);
        let Some((policy, epoch, health)) = ft else {
            match &self.window {
                None => ca_all_pairs_forces(gc, st, law, domain, boundary),
                Some(w) => ca_cutoff_forces(gc, w, st, law, domain, boundary),
            }
            return Ok((RecoveryReport::default(), 0.0));
        };
        match &self.window {
            None => ca_all_pairs_forces_ft(gc, st, law, domain, boundary, policy, epoch, health),
            Some(w) => ca_cutoff_forces_ft(gc, w, st, law, domain, boundary, policy, epoch, health),
        }
    }
}

/// Per-rank body of every CA run (all-pairs and both cutoff methods).
///
/// Without a recovery context this is the plain timestep loop: integrate,
/// plain force evaluation, integrate, re-assign (cutoff methods), with no
/// checkpoint copy and no recovery traffic. With one, every force
/// evaluation is fault-tolerant (tag epoch = timestep index), an agreed
/// loss of whole columns shrinks the world onto the survivors, and the
/// health monitors and the durable checkpoint sink run on their cadences.
fn run_rank_ca<F, I, C>(
    cfg: &SimConfig<F, I>,
    method: Method,
    world: &mut C,
    initial: &[Particle],
    rc: Option<Recovery<'_>>,
) -> RankOutcome
where
    F: ForceLaw,
    I: Integrator,
    C: Communicator,
{
    let domain = &cfg.domain;
    let tr = world.tracer();
    let mut probe = StepProbe::new(world);
    let mut agg = RecoveryReport {
        attempts: 1,
        ..RecoveryReport::default()
    };
    let ckpt = rc.and_then(|r| r.ckpt);
    let health = rc.and_then(|r| r.health);
    // Per-rank numerical-health state. The monitor's injection identities
    // key off the *launch* world rank, which every rank keeps across
    // shrinks, so a seeded fault lands on the intended rank regardless of
    // how the grid has contracted by then.
    let hm = health.map(|h| HealthMonitor::new(h.fingerprint, h.injection.corrupt));
    let mut nan_fired = false;
    let mut hreport = HealthReport::default();
    if let Some(ck) = ckpt {
        assert!(ck.every >= 1, "checkpoint cadence must be >= 1");
        if ck.base_step > 0 {
            world.timeline().event(
                EventKind::Resume,
                Some(ck.base_step),
                &format!("resumed from checkpoint at global step {}", ck.base_step),
            );
        }
    }
    // Particles still alive across shrinks (the loss accounting base).
    let mut live_n = initial.len();
    // After a shrink the run continues on an owned survivor world; the
    // borrowed launch world stays behind only for rank-local telemetry
    // (stats and recorders are shared across splits).
    let mut shrunk: Option<C> = None;
    let mut layout = CaLayout::new(cfg, method, world.size(), method.replication())
        .unwrap_or_else(|e| panic!("invalid {method:?} grid: {e}"));
    let mut gc = GridComms::new(world, layout.grid);
    let mut st = layout.distribute(&gc, initial, domain);
    for step in 0..cfg.steps {
        let _step_g = tr.driver_span("step", step);
        if gc.is_leader() {
            let _g = tr.driver_span("integrate", step);
            cfg.integrator.pre_force(&mut st, cfg.dt);
            reset_forces(&mut st);
        }
        // A ColumnsLost verdict shrinks the world onto the survivors and
        // re-runs this step's evaluation there.
        let (rep, pe_partial) = loop {
            let ft = rc.map(|r| (r.policy, step as u64, hm.as_ref()));
            let r = {
                let _g = tr.driver_span("force", step);
                layout.forces(&gc, &mut st, cfg, ft)
            };
            let dead_teams = match r {
                Ok(done) => break done,
                Err(FaultError::ColumnsLost { dead_teams, .. }) => dead_teams,
                Err(e) => return Err(e),
            };
            let cur: &C = shrunk.as_ref().unwrap_or(world);
            let Some((next, full)) = shrink_world(
                cur,
                &layout.grid,
                &dead_teams,
                gc.is_leader(),
                &st,
                &mut live_n,
                &mut agg,
                step,
            ) else {
                return Ok((Vec::new(), world.stats(), agg, health.map(|_| hreport)));
            };
            layout = layout
                .shrink(cfg, method, next.size())
                .ok_or(FaultError::Unrecoverable {
                    rank: world.rank(),
                    c: layout.grid.c(),
                })?;
            gc = GridComms::new(&next, layout.grid);
            shrunk = Some(next);
            st = layout.distribute(&gc, &full, domain);
        };
        agg.attempts = agg.attempts.max(rep.attempts);
        agg.recovered |= rep.recovered;
        hreport.fingerprint_mismatches += rep.fingerprint_mismatches as u64;
        let checked = health.is_some_and(|h| h.checks_step(step as u64));
        let mut blame = None;
        if let Some(h) = health.filter(|_| checked) {
            blame = health_scan_forces(world, h, &mut nan_fired, gc.is_leader(), &mut st, step);
        }
        if gc.is_leader() {
            {
                let _g = tr.driver_span("integrate", step);
                cfg.integrator
                    .post_force(&mut st, cfg.dt, domain, cfg.boundary);
            }
            // Keep the spatial decomposition valid for the next step.
            if let Some(w) = &layout.window {
                let _g = tr.driver_span("reassign", step);
                reassign_particles(&gc.row, &mut st, |q| w.owner(domain, q.pos));
            }
        } else {
            st.clear();
        }
        let mut sampled = (0.0, 0.0);
        if checked {
            if blame.is_none() {
                blame = health_scan_state(world, gc.is_leader(), &st, step);
            }
            let inv = if gc.is_leader() {
                Invariants::partial(&st)
            } else {
                Invariants::default()
            };
            let cur: &C = shrunk.as_ref().unwrap_or(world);
            sampled = health_reduce(cur, blame, inv, pe_partial, step, &mut hreport)?;
        }
        if let Some(ck) = ckpt {
            let done = ck.base_step + step as u64 + 1;
            if done.is_multiple_of(ck.every as u64) || ck.crash_at == Some(done) {
                let cur: &C = shrunk.as_ref().unwrap_or(world);
                persist_checkpoint(cur, &layout.grid, gc.is_leader(), &st, ck, done);
            }
        }
        probe.sample_with(world, step, st.len(), sampled.0, sampled.1);
    }
    world.set_phase(Phase::Other);
    let owned = if gc.is_leader() { st } else { Vec::new() };
    Ok((owned, world.stats(), agg, health.map(|_| hreport)))
}

fn validate_run<F: ForceLaw, I>(cfg: &SimConfig<F, I>, method: Method) {
    if method.needs_cutoff() {
        assert!(
            cfg.law.cutoff().is_some(),
            "{method:?} requires a force law with a cutoff radius"
        );
    }
}

/// Per-rank body of a distributed run.
fn run_rank<F, I, C>(
    cfg: &SimConfig<F, I>,
    method: Method,
    world: &mut C,
    initial: &[Particle],
) -> (Vec<Particle>, CommStats)
where
    F: ForceLaw,
    I: Integrator,
    C: Communicator,
{
    let p = world.size();
    let domain = &cfg.domain;
    let tr = world.tracer();
    match method {
        Method::CaAllPairs { .. } | Method::Ca1dCutoff { .. } | Method::Ca2dCutoff { .. } => {
            let (owned, stats, ..) = run_rank_ca(cfg, method, world, initial, None)
                .expect("a plain CA run has no fault path");
            (owned, stats)
        }
        Method::ParticleRing | Method::ParticleRingSymmetric | Method::NaiveAllgather => {
            let mut probe = StepProbe::new(world);
            let mut my = id_block_subset(initial, p, world.rank());
            for step in 0..cfg.steps {
                let _step_g = tr.driver_span("step", step);
                {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator.pre_force(&mut my, cfg.dt);
                    reset_forces(&mut my);
                }
                {
                    let _g = tr.driver_span("force", step);
                    match method {
                        Method::ParticleRing => {
                            particle_ring_forces(world, &mut my, &cfg.law, domain, cfg.boundary)
                        }
                        Method::ParticleRingSymmetric => {
                            crate::baselines::particle_ring_symmetric_forces(
                                world, &mut my, &cfg.law, domain, cfg.boundary,
                            )
                        }
                        _ => {
                            naive_allgather_forces(world, &mut my, &cfg.law, domain, cfg.boundary)
                        }
                    }
                }
                let _g = tr.driver_span("integrate", step);
                cfg.integrator
                    .post_force(&mut my, cfg.dt, domain, cfg.boundary);
                probe.sample(world, step, my.len());
            }
            (my, world.stats())
        }
        Method::ForceDecomposition => {
            let mut probe = StepProbe::new(world);
            let q = (p as f64).sqrt().round() as usize;
            assert_eq!(q * q, p, "force decomposition needs square p");
            let (i, j) = (world.rank() / q, world.rank() % q);
            let mut st = if i == j {
                id_block_subset(initial, q, i)
            } else {
                Vec::new()
            };
            for step in 0..cfg.steps {
                let _step_g = tr.driver_span("step", step);
                if i == j {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator.pre_force(&mut st, cfg.dt);
                    reset_forces(&mut st);
                }
                {
                    let _g = tr.driver_span("force", step);
                    force_decomposition_forces(world, &mut st, &cfg.law, domain, cfg.boundary);
                }
                if i == j {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator
                        .post_force(&mut st, cfg.dt, domain, cfg.boundary);
                }
                probe.sample(world, step, st.len());
            }
            (st, world.stats())
        }
        Method::Midpoint1d | Method::Midpoint2d | Method::SpatialHalo1d | Method::SpatialHalo2d => {
            let mut probe = StepProbe::new(world);
            let midpoint = matches!(method, Method::Midpoint1d | Method::Midpoint2d);
            let two_d = matches!(method, Method::Midpoint2d | Method::SpatialHalo2d);
            let r_c = cfg.law.cutoff().unwrap();
            // The midpoint method imports a half-span region.
            let span = if midpoint { r_c / 2.0 } else { r_c };
            let window = AnyWindow::from_cutoff(domain, p, two_d, cfg.boundary, span);
            let owner = |pos| window.owner(domain, pos);
            let mut my = window.subset(initial, domain, world.rank());
            for step in 0..cfg.steps {
                let _step_g = tr.driver_span("step", step);
                {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator.pre_force(&mut my, cfg.dt);
                    reset_forces(&mut my);
                }
                {
                    let _g = tr.driver_span("force", step);
                    let (law, boundary) = (&cfg.law, cfg.boundary);
                    if midpoint {
                        midpoint_forces(world, &window, &mut my, law, domain, boundary, owner);
                    } else {
                        spatial_halo_forces(world, &window, &mut my, law, domain, boundary);
                    }
                }
                {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator
                        .post_force(&mut my, cfg.dt, domain, cfg.boundary);
                }
                let _g = tr.driver_span("reassign", step);
                reassign_particles(world, &mut my, |q| owner(q.pos));
                probe.sample(world, step, my.len());
            }
            (my, world.stats())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_physics::{init, Cutoff, RepulsiveInverseSquare, SemiImplicitEuler, Vec2};

    fn assert_trajectories_match(got: &[Particle], want: &[Particle], tol: f64, label: &str) {
        assert_eq!(got.len(), want.len(), "{label}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.id, w.id, "{label}");
            let dp = (g.pos - w.pos).norm();
            let dv = (g.vel - w.vel).norm();
            assert!(
                dp <= tol && dv <= tol,
                "{label}: id={} dp={dp} dv={dv}\n got {:?}\nwant {:?}",
                g.id,
                g,
                w
            );
        }
    }

    fn all_pairs_cfg(steps: usize) -> SimConfig<RepulsiveInverseSquare, SemiImplicitEuler> {
        SimConfig {
            law: RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.01,
            steps,
        }
    }

    #[test]
    fn multi_step_trajectory_matches_serial_all_methods() {
        let cfg = all_pairs_cfg(5);
        let initial = init::uniform(24, &cfg.domain, 42);
        let want = run_serial(&cfg, &initial);
        for (method, p) in [
            (Method::CaAllPairs { c: 1 }, 4),
            (Method::CaAllPairs { c: 2 }, 8),
            (Method::CaAllPairs { c: 2 }, 16),
            (Method::ParticleRing, 6),
            (Method::NaiveAllgather, 4),
            (Method::ForceDecomposition, 9),
        ] {
            let got = run_distributed(&cfg, method, p, &initial);
            assert_trajectories_match(
                &got.particles,
                &want,
                1e-9,
                &format!("{method:?} p={p}"),
            );
        }
    }

    #[test]
    fn multi_step_cutoff_trajectories_match_serial() {
        let law = Cutoff::new(
            RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            0.25,
        );
        let cfg = SimConfig {
            law,
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.01,
            steps: 4,
        };
        let initial = init::uniform(40, &cfg.domain, 7);
        let want = run_serial(&cfg, &initial);
        for (method, p) in [
            (Method::Ca1dCutoff { c: 1 }, 4),
            (Method::Ca1dCutoff { c: 2 }, 8),
            (Method::Ca2dCutoff { c: 1 }, 4),
            (Method::Ca2dCutoff { c: 2 }, 8),
            (Method::SpatialHalo1d, 4),
            (Method::SpatialHalo2d, 4),
        ] {
            let got = run_distributed(&cfg, method, p, &initial);
            assert_trajectories_match(
                &got.particles,
                &want,
                1e-9,
                &format!("{method:?} p={p}"),
            );
        }
    }

    #[test]
    fn verlet_trajectories_match_serial() {
        use nbody_physics::VelocityVerlet;
        let cfg = SimConfig {
            law: RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            integrator: VelocityVerlet,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.01,
            steps: 6,
        };
        let initial = init::uniform(20, &cfg.domain, 11);
        let want = run_serial(&cfg, &initial);
        let got = run_distributed(&cfg, Method::CaAllPairs { c: 2 }, 8, &initial);
        assert_trajectories_match(&got.particles, &want, 1e-9, "verlet ca");
    }

    #[test]
    fn momentum_conserved_in_distributed_run() {
        let cfg = all_pairs_cfg(10);
        let mut initial = init::uniform(16, &cfg.domain, 5);
        init::thermalize(&mut initial, 0.01, 6);
        let got = run_distributed(&cfg, Method::CaAllPairs { c: 2 }, 4, &initial);
        // Reflective walls flip momentum, so only check finiteness + bounds.
        for q in &got.particles {
            assert!(q.pos.is_finite() && q.vel.is_finite());
            assert!(cfg.domain.contains(q.pos) || q.pos.x <= 1.0);
        }
    }

    #[test]
    fn reassignment_preserves_particle_count_over_long_run() {
        let law = Cutoff::new(
            RepulsiveInverseSquare {
                strength: 5e-3,
                softening: 1e-3,
            },
            0.3,
        );
        let cfg = SimConfig {
            law,
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.02,
            steps: 15,
        };
        let mut initial = init::uniform(32, &cfg.domain, 9);
        init::thermalize(&mut initial, 0.05, 10);
        let got = run_distributed(&cfg, Method::Ca1dCutoff { c: 2 }, 8, &initial);
        assert_eq!(got.particles.len(), 32);
        let want = run_serial(&cfg, &initial);
        assert_trajectories_match(&got.particles, &want, 1e-8, "long cutoff run");
    }

    #[test]
    fn stats_capture_reassign_phase() {
        let law = Cutoff::new(RepulsiveInverseSquare::default(), 0.3);
        let cfg = SimConfig {
            law,
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.01,
            steps: 2,
        };
        let initial = init::uniform(24, &cfg.domain, 3);
        let got = run_distributed(&cfg, Method::Ca1dCutoff { c: 2 }, 8, &initial);
        let leaders_with_reassign = got
            .stats
            .iter()
            .filter(|s| s.phase(Phase::Reassign).messages > 0)
            .count();
        assert_eq!(leaders_with_reassign, 4, "only the 4 leaders re-assign");
    }

    #[test]
    #[should_panic(expected = "requires a force law with a cutoff")]
    fn cutoff_method_rejects_all_pairs_law() {
        let cfg = all_pairs_cfg(1);
        let initial = vec![Particle::at(0, Vec2::new(0.5, 0.5))];
        run_distributed(&cfg, Method::Ca1dCutoff { c: 1 }, 2, &initial);
    }

    #[test]
    fn traced_run_matches_untraced_and_phase_sums_tile_wall() {
        let law = Cutoff::new(
            RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            0.25,
        );
        let cfg = SimConfig {
            law,
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.01,
            steps: 3,
        };
        // Big enough that thread-spawn slack (ranks open their timelines
        // slightly after the shared epoch) is well under the 10% margin.
        let initial = init::uniform(600, &cfg.domain, 13);
        let plain = run_distributed(&cfg, Method::Ca1dCutoff { c: 2 }, 8, &initial);
        let record = RunOptions {
            record: true,
            ..RunOptions::default()
        };
        let out = run(&cfg, Method::Ca1dCutoff { c: 2 }, 8, &record, &initial);
        let (traced, trace, metrics) = (
            out.result.unwrap(),
            out.trace.unwrap(),
            out.metrics.unwrap(),
        );
        assert_eq!(
            plain.particles, traced.particles,
            "tracing must not perturb physics"
        );

        // Live metrics ride along: every rank shipped shift messages, and
        // the leaders recorded their particle memory high-water marks.
        assert_eq!(metrics.ranks.len(), 8);
        assert!(metrics.sum_counter("comm_send_messages", Some(Phase::Shift)) > 0);
        assert!(metrics.max_gauge("mem_particles_hwm", None) > 0);

        assert_eq!(trace.ranks, 8);
        // Phase windows tile each rank's timeline, so a rank's phase
        // seconds sum to the time between its own first and last
        // timestamps. Each rank is judged against its own clock readings:
        // a rank thread the scheduler starts late or parks cannot skew
        // another rank's check.
        for rank in 0..trace.ranks as u32 {
            let own: Vec<&nbody_trace::Span> =
                trace.spans.iter().filter(|s| s.rank == rank).collect();
            let first = own.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
            let last = own.iter().map(|s| s.end).fold(f64::NEG_INFINITY, f64::max);
            let wall = last - first;
            assert!(wall > 0.0, "rank {rank} recorded no time");
            let sum: f64 = own
                .iter()
                .filter(|s| matches!(s.kind, nbody_trace::SpanKind::Phase(_)))
                .map(|s| s.secs())
                .sum();
            assert!(
                (sum - wall).abs() <= 0.10 * wall,
                "rank {rank}: phase sum {sum} vs own wall {wall}"
            );
        }
        // The cutoff method exercises shift, reduce, broadcast, and
        // reassign windows.
        let present = trace.phases_present();
        for want in [Phase::Shift, Phase::Reduce, Phase::Broadcast, Phase::Reassign] {
            assert!(present.contains(&want), "missing {want:?} in {present:?}");
        }
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let cfg = all_pairs_cfg(6);
        let initial = init::uniform(16, &cfg.domain, 9);
        let dir = std::env::temp_dir().join(format!("nbody-ckpt-sim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ck = CheckpointConfig {
            dir: dir.clone(),
            every: 2,
            base_step: 0,
            fingerprint: "test-fp".into(),
            seed: 9,
            crash_at: None,
        };
        let recovery = Recovery {
            plan: &FaultPlan::empty(),
            policy: &RetryPolicy::default(),
            ckpt: Some(&ck),
            health: None,
        };
        let opts = RunOptions {
            recovery: Some(recovery),
            ..RunOptions::default()
        };
        let out = run(&cfg, Method::CaAllPairs { c: 2 }, 4, &opts, &initial);
        let full = out.result.expect("fault-free durable run");
        // Persisting must not perturb the physics.
        let plain = run_distributed(&cfg, Method::CaAllPairs { c: 2 }, 4, &initial);
        assert_eq!(full.particles, plain.particles);
        assert_eq!(
            out.metrics
                .unwrap()
                .sum_counter("checkpoint_persisted_total", None),
            3,
            "cadence 2 over 6 steps lands bundles at steps 2, 4, 6"
        );
        let latest = nbody_durable::load_latest(&dir).unwrap();
        assert_eq!(latest.step, 6);
        // Resume from the mid-run bundle: restoring its bit-exact state
        // and running the remaining steps reproduces the full trajectory.
        let bundle =
            nbody_durable::load_path(&nbody_durable::checkpoint_path(&dir, 4)).unwrap();
        bundle.validate_fingerprint("test-fp").unwrap();
        let restored = bundle.all_particles();
        let tail = all_pairs_cfg(2);
        let resumed = run_distributed(&tail, Method::CaAllPairs { c: 2 }, 4, &restored).particles;
        assert_eq!(
            resumed, full.particles,
            "resume from step 4 must land bit-identical to the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_run_reports_driver_sections_per_step() {
        let cfg = all_pairs_cfg(4);
        let initial = init::uniform(24, &cfg.domain, 42);
        let record = RunOptions {
            record: true,
            ..RunOptions::default()
        };
        let trace = run(&cfg, Method::CaAllPairs { c: 2 }, 8, &record, &initial)
            .trace
            .unwrap();
        let reports = trace.step_reports();
        assert_eq!(reports.len(), 4, "one report per timestep");
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.step as usize, i);
            let names: Vec<&str> = r.parts.iter().map(|(n, _)| n.as_str()).collect();
            assert!(names.contains(&"step"), "{names:?}");
            assert!(names.contains(&"force"), "{names:?}");
            assert!(names.contains(&"integrate"), "{names:?}");
            // The step section dominates its parts on every rank.
            let step_max = r.parts.iter().find(|(n, _)| n == "step").unwrap().1.max;
            let force_max = r.parts.iter().find(|(n, _)| n == "force").unwrap().1.max;
            assert!(step_max >= force_max);
        }
    }
}
