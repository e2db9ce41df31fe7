//! The traced run: each rank's timestep reassembled from the same public
//! calls `sim::run_rank` makes, with spans around each call, and the exact
//! counts that repeat from run to run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use ca_nbody::cutoff::{ca_cutoff_forces, validate_cutoff};
use ca_nbody::dist::{id_block_subset, spatial_subset_2d, team_grid_dims, team_of_xy};
use ca_nbody::kernel::block_interactions;
use ca_nbody::reassign::reassign_particles;
use ca_nbody::sim::SimConfig;
use ca_nbody::window::{Window, Window2d};
use ca_nbody::{ca_all_pairs_forces, GridComms, ProcGrid};
use nbody_comm::{run_ranks, CommStats, Communicator, Phase, ThreadComm, ALL_PHASES};
use nbody_model::costs;
use nbody_physics::particle::reset_forces;
use nbody_physics::{ForceLaw, Integrator, Particle, SemiImplicitEuler};

use crate::spans::{Layer, RankLog, Span, TracedComm};
use crate::workload::{panic_text, Kind, Workload, P};

/// What one rank of the reassembled loop hands back.
pub struct RankOut {
    pub particles: Vec<Particle>,
    pub stats: CommStats,
    pub spans: Vec<Span>,
    /// Leaders only: this team's block size at each step's force call.
    pub block_sizes: Vec<usize>,
    pub team: usize,
    pub is_leader: bool,
    /// Particles this leader handed to another team, over the run.
    pub migrated: u64,
}

/// One completed traced call.
pub struct TracedRun {
    pub particles: Vec<Particle>,
    pub secs: f64,
    pub ranks: Vec<RankOut>,
}

impl TracedRun {
    pub fn stats(&self) -> Vec<CommStats> {
        self.ranks.iter().map(|r| r.stats.clone()).collect()
    }
}

/// Run the reassembled loop on [`P`] rank threads.
pub fn traced_call<F: ForceLaw + Sync>(
    w: &Workload,
    cfg: &SimConfig<F, SemiImplicitEuler>,
    initial: &[Particle],
) -> Result<TracedRun, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let epoch = Instant::now();
        let ranks = run_ranks(P, |world| traced_rank(w, cfg, world, initial, epoch));
        let secs = epoch.elapsed().as_secs_f64();
        let mut particles: Vec<Particle> = ranks
            .iter()
            .flat_map(|r| r.particles.iter().copied())
            .collect();
        particles.sort_by_key(|q| q.id);
        TracedRun {
            particles,
            secs,
            ranks,
        }
    }));
    let run = outcome.map_err(|panic| format!("traced run panicked: {}", panic_text(&panic)))?;
    if run.particles.len() != w.n {
        return Err(format!(
            "traced run gathered {} particles, expected {}",
            run.particles.len(),
            w.n
        ));
    }
    Ok(run)
}

fn traced_rank<F: ForceLaw>(
    w: &Workload,
    cfg: &SimConfig<F, SemiImplicitEuler>,
    world: &mut ThreadComm,
    initial: &[Particle],
    epoch: Instant,
) -> RankOut {
    let log = RankLog::new(epoch);
    let mut out = {
        let world = TracedComm::world(&*world, Rc::clone(&log));
        match w.kind {
            Kind::AllPairs | Kind::Guarded => all_pairs_rank(w, cfg, &world, initial, &log),
            Kind::Cutoff2d => cutoff2d_rank(w, cfg, &world, initial, &log),
        }
    };
    out.spans = log.into_spans();
    out
}

/// The `Method::CaAllPairs` arm of `run_rank`.
fn all_pairs_rank<F: ForceLaw, C: Communicator>(
    w: &Workload,
    cfg: &SimConfig<F, SemiImplicitEuler>,
    world: &C,
    initial: &[Particle],
    log: &RankLog,
) -> RankOut {
    let grid = ProcGrid::new_all_pairs(world.size(), w.c).expect("invalid all-pairs grid");
    let gc = log.span(Layer::Split, || GridComms::new(world, grid));
    let mut st = log.span(Layer::Distribute, || {
        if gc.is_leader() {
            id_block_subset(initial, grid.teams(), gc.team())
        } else {
            Vec::new()
        }
    });
    let mut block_sizes = Vec::new();
    for step in 0..cfg.steps {
        log.set_step(Some(step as u32));
        log.span(Layer::Step, || {
            if gc.is_leader() {
                log.span(Layer::Integrate, || {
                    cfg.integrator.pre_force(&mut st, cfg.dt);
                    reset_forces(&mut st);
                });
                block_sizes.push(st.len());
            }
            log.span(Layer::Force, || {
                ca_all_pairs_forces(&gc, &mut st, &cfg.law, &cfg.domain, cfg.boundary)
            });
            if gc.is_leader() {
                log.span(Layer::Integrate, || {
                    cfg.integrator
                        .post_force(&mut st, cfg.dt, &cfg.domain, cfg.boundary)
                });
            } else {
                st.clear();
            }
        });
    }
    log.set_step(None);
    RankOut {
        particles: if gc.is_leader() { st } else { Vec::new() },
        stats: world.stats(),
        spans: Vec::new(),
        block_sizes,
        team: gc.team(),
        is_leader: gc.is_leader(),
        migrated: 0,
    }
}

/// The `Method::Ca2dCutoff` arm of `run_rank` for the reflective
/// (non-periodic) box.
fn cutoff2d_rank<F: ForceLaw, C: Communicator>(
    w: &Workload,
    cfg: &SimConfig<F, SemiImplicitEuler>,
    world: &C,
    initial: &[Particle],
    log: &RankLog,
) -> RankOut {
    let domain = &cfg.domain;
    let grid = ProcGrid::new(world.size(), w.c).expect("invalid cutoff grid");
    let gc = log.span(Layer::Split, || GridComms::new(world, grid));
    let teams = grid.teams();
    let r_c = cfg
        .law
        .cutoff()
        .expect("the cutoff workload has a cutoff law");
    let (tx, ty) = team_grid_dims(teams);
    let mut st = log.span(Layer::Distribute, || {
        if gc.is_leader() {
            spatial_subset_2d(initial, domain, tx, ty, gc.team())
        } else {
            Vec::new()
        }
    });
    let mut block_sizes = Vec::new();
    let mut migrated = 0u64;
    for step in 0..cfg.steps {
        log.set_step(Some(step as u32));
        log.span(Layer::Step, || {
            if gc.is_leader() {
                log.span(Layer::Integrate, || {
                    cfg.integrator.pre_force(&mut st, cfg.dt);
                    reset_forces(&mut st);
                });
                block_sizes.push(st.len());
            }
            log.span(Layer::Force, || {
                let window = Window2d::from_cutoff(domain, tx, ty, r_c);
                validate_cutoff(&window, teams, w.c).expect("invalid 2D cutoff config");
                ca_cutoff_forces(&gc, &window, &mut st, &cfg.law, domain, cfg.boundary);
            });
            if gc.is_leader() {
                log.span(Layer::Integrate, || {
                    cfg.integrator
                        .post_force(&mut st, cfg.dt, domain, cfg.boundary)
                });
                let team_of = |q: &Particle| team_of_xy(domain, tx, ty, q.pos.x, q.pos.y);
                migrated += st.iter().filter(|q| team_of(q) != gc.team()).count() as u64;
                log.span(Layer::Reassign, || {
                    reassign_particles(&gc.row, &mut st, team_of)
                });
            } else {
                st.clear();
            }
        });
    }
    log.set_step(None);
    world.set_phase(Phase::Other);
    RankOut {
        particles: if gc.is_leader() { st } else { Vec::new() },
        stats: world.stats(),
        spans: Vec::new(),
        block_sizes,
        team: gc.team(),
        is_leader: gc.is_leader(),
        migrated,
    }
}

/// Force evaluations per step over the run, from each team's block size
/// at each force call and `kernel::block_interactions`: every team's block
/// meets every block of its window (all teams, for all-pairs) once.
pub fn interactions_per_step<F: ForceLaw>(
    w: &Workload,
    cfg: &SimConfig<F, SemiImplicitEuler>,
    run: &TracedRun,
) -> f64 {
    let teams = P / w.c;
    let mut sizes = vec![vec![0usize; teams]; cfg.steps];
    for r in run.ranks.iter().filter(|r| r.is_leader) {
        for (step, &len) in r.block_sizes.iter().enumerate() {
            sizes[step][r.team] = len;
        }
    }
    let sources: Vec<Vec<usize>> = match w.kind {
        Kind::Cutoff2d => {
            let (tx, ty) = team_grid_dims(teams);
            let r_c = cfg
                .law
                .cutoff()
                .expect("the cutoff workload has a cutoff law");
            let window = Window2d::from_cutoff(&cfg.domain, tx, ty, r_c);
            (0..teams)
                .map(|t| {
                    (0..window.len())
                        .filter_map(|j| window.apply_back(t, j))
                        .collect()
                })
                .collect()
        }
        _ => (0..teams).map(|_| (0..teams).collect()).collect(),
    };
    let total: u64 = sizes
        .iter()
        .map(|s| {
            (0..teams)
                .flat_map(|t| sources[t].iter().map(move |&b| (t, b)))
                .map(|(t, b)| block_interactions(s[t], s[b], t == b))
                .sum::<u64>()
        })
        .sum();
    total as f64 / cfg.steps.max(1) as f64
}

/// The counts of a run's statistics that must repeat exactly: every
/// per-phase counter except the blocked wall time, per rank.
pub fn exact_counts(stats: &[CommStats]) -> Vec<[u64; 7]> {
    stats
        .iter()
        .flat_map(|s| {
            ALL_PHASES.iter().map(move |&ph| {
                let c = s.phase(ph);
                [
                    c.messages,
                    c.elements,
                    c.bytes,
                    c.collectives,
                    c.collective_elements,
                    c.collective_bytes,
                    c.collective_messages,
                ]
            })
        })
        .collect()
}

/// Point-to-point plus in-collective messages, elements and bytes of one
/// rank in the given phases.
pub fn traffic(s: &CommStats, phases: &[Phase]) -> (u64, u64, u64) {
    phases.iter().fold((0, 0, 0), |(m, e, b), &ph| {
        let c = s.phase(ph);
        (
            m + c.messages + c.collective_messages,
            e + c.elements + c.collective_elements,
            b + c.bytes + c.collective_bytes,
        )
    })
}

/// Per-step traffic of a run: `(messages, bytes)` summed over ranks and
/// the largest per-rank element count, each with the zero-step call's
/// set-up traffic taken off and divided by `steps`.
pub fn traffic_per_step(
    full: &[CommStats],
    setup: &[CommStats],
    phases: &[Phase],
    steps: usize,
) -> (f64, f64, f64) {
    let per = |v: u64| v as f64 / steps.max(1) as f64;
    let (mut msgs, mut bytes, mut max_elems) = (0, 0, 0);
    for (f, s) in full.iter().zip(setup) {
        let (fm, fe, fb) = traffic(f, phases);
        let (sm, se, sb) = traffic(s, phases);
        msgs += fm - sm;
        bytes += fb - sb;
        max_elems = max_elems.max(fe - se);
    }
    (per(msgs), per(bytes), per(max_elems))
}

/// The per-step counts that must repeat exactly from run to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCounts {
    /// `comm.messages_per_step`: all ranks, all phases.
    pub messages: f64,
    /// `comm.bytes_per_step`: all ranks, all phases.
    pub bytes: f64,
    /// `comm.words_over_eq5`: the busiest rank's elements per step over the
    /// W of Eq. 5 (`nbody_model::costs::ca_all_pairs`).
    pub words_over_eq5: f64,
    /// `kernel.interactions_per_step`.
    pub interactions: f64,
}

/// Counts of a run of `cfg.steps` steps, from its statistics, the
/// zero-step call's statistics and a traced run on the same inputs.
pub fn step_counts<F: ForceLaw>(
    w: &Workload,
    cfg: &SimConfig<F, SemiImplicitEuler>,
    full: &[CommStats],
    setup: &[CommStats],
    traced: &TracedRun,
) -> StepCounts {
    let (messages, bytes, elements) = traffic_per_step(full, setup, &ALL_PHASES, cfg.steps);
    let eq5 = costs::ca_all_pairs(w.n as u64, P as u64, w.c as u64).words;
    StepCounts {
        messages,
        bytes,
        words_over_eq5: elements / eq5,
        interactions: interactions_per_step(w, cfg, traced),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::split_rank;
    use crate::workload::{base_law, bit_identical, by_name, call, cutoff_law};

    /// Steps per run in these tests: the counts are per step, so a short
    /// run exercises the same schedule.
    const STEPS: usize = 2;

    fn counts<F: ForceLaw + Sync + Clone>(w: &Workload, law: F, seed: u64) -> StepCounts {
        let cfg = w.config(law.clone(), STEPS);
        let initial = w.inputs(seed);
        let full = call(w, &cfg, false, &initial).unwrap();
        let zero = call(w, &w.config(law, 0), false, &initial).unwrap();
        let traced = traced_call(w, &cfg, &initial).unwrap();
        step_counts(w, &cfg, &full.stats, &zero.stats, &traced)
    }

    fn check_repeats(name: &str) {
        let w = by_name(name).unwrap();
        let measure = |seed| match w.kind {
            Kind::Cutoff2d => counts(w, cutoff_law(), seed),
            _ => counts(w, base_law(), seed),
        };
        let first = measure(1);
        assert!(first.messages > 0.0 && first.bytes > 0.0 && first.interactions > 0.0);
        assert_eq!(first, measure(1), "{name}: counts differ between runs");
        if w.kind != Kind::Cutoff2d {
            assert_eq!(first, measure(2), "{name}: counts differ between seeds");
        }
    }

    #[test]
    fn counts_repeat_allpairs_n4096_c2() {
        check_repeats("allpairs_n4096_c2");
    }

    #[test]
    fn counts_repeat_allpairs_n512_c1() {
        check_repeats("allpairs_n512_c1");
    }

    #[test]
    fn counts_repeat_cutoff2d_n4096() {
        check_repeats("cutoff2d_n4096");
    }

    #[test]
    fn counts_repeat_guarded_n2048() {
        check_repeats("guarded_n2048");
    }

    #[test]
    fn all_pairs_interactions_are_every_ordered_pair() {
        let w = by_name("allpairs_n512_c1").unwrap();
        let c = counts(w, base_law(), 3);
        assert_eq!(c.interactions, (w.n * (w.n - 1)) as f64);
    }

    /// The reassembled loop runs the same program as `run_distributed`,
    /// and every rank's layer spans tile its own step spans.
    #[test]
    fn traced_loop_matches_run_distributed_and_tiles_each_rank() {
        for name in ["allpairs_n512_c1", "cutoff2d_n4096"] {
            let w = by_name(name).unwrap();
            let initial = w.inputs(5);
            let (plain, traced) = match w.kind {
                Kind::Cutoff2d => {
                    let cfg = w.config(cutoff_law(), STEPS);
                    (
                        call(w, &cfg, false, &initial),
                        traced_call(w, &cfg, &initial),
                    )
                }
                _ => {
                    let cfg = w.config(base_law(), STEPS);
                    (
                        call(w, &cfg, false, &initial),
                        traced_call(w, &cfg, &initial),
                    )
                }
            };
            let (plain, traced) = (plain.unwrap(), traced.unwrap());
            assert!(bit_identical(&plain.particles, &traced.particles), "{name}");
            for (rank, r) in traced.ranks.iter().enumerate() {
                let split = split_rank(&r.spans, STEPS)
                    .unwrap_or_else(|e| panic!("{name} rank {rank}: {e}"));
                assert!(
                    split.force > 0.0 && split.step >= split.force,
                    "{name} rank {rank}"
                );
            }
        }
    }
}
