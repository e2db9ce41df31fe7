//! The benchmark's workloads and the untraced calls that time them.
//!
//! Every workload runs `SemiImplicitEuler` at `dt = 0.005` in a reflective
//! unit box with the CLI's default `RepulsiveInverseSquare` law, on
//! [`P`] rank threads. Inputs come from `init::uniform` + `init::thermalize`
//! seeded from the benchmark's `--seed`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ca_nbody::recovery::RetryPolicy;
use ca_nbody::sim::{
    run_distributed, run_distributed_health, run_distributed_wired, Method, SimConfig,
};
use nbody_comm::{CommStats, FaultPlan};
use nbody_physics::{
    init, Boundary, Cutoff, Domain, ForceLaw, Particle, RepulsiveInverseSquare, SemiImplicitEuler,
};
use nbody_simhealth::HealthConfig;

/// Rank threads: the smallest grid with `c² | p` for `c = 2`.
pub const P: usize = 4;
pub const DT: f64 = 0.005;
/// Cutoff radius of the 2D cutoff workload.
pub const R_C: f64 = 0.1;
/// Largest position deviation from the serial reference the first timed
/// run may show (the bound `verify` uses).
pub const SERIAL_TOLERANCE: f64 = 1e-9;

/// Which algorithm and driver a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Algorithm 1 through `run_distributed`.
    AllPairs,
    /// The Fig. 5 2D cutoff algorithm through `run_distributed`.
    Cutoff2d,
    /// Algorithm 1 through the fault-tolerant `run_distributed_health`
    /// driver, empty fault plan, health checks every step.
    Guarded,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub n: usize,
    pub c: usize,
    /// Timesteps per timed call.
    pub steps: usize,
    pub temperature: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "allpairs_n4096_c2",
        kind: Kind::AllPairs,
        n: 4096,
        c: 2,
        steps: 8,
        temperature: 1e-4,
    },
    Workload {
        name: "allpairs_n512_c1",
        kind: Kind::AllPairs,
        n: 512,
        c: 1,
        steps: 24,
        temperature: 1e-4,
    },
    Workload {
        name: "cutoff2d_n4096",
        kind: Kind::Cutoff2d,
        n: 4096,
        c: 1,
        steps: 12,
        temperature: 1e-2,
    },
    Workload {
        name: "guarded_n2048",
        kind: Kind::Guarded,
        n: 2048,
        c: 2,
        steps: 16,
        temperature: 1e-4,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The force law of the CLI defaults: all-pairs workloads use it bare, the
/// cutoff workload behind a `Cutoff` at [`R_C`].
pub fn base_law() -> RepulsiveInverseSquare {
    RepulsiveInverseSquare {
        strength: 1e-3,
        softening: 1e-3,
    }
}

pub fn cutoff_law() -> Cutoff<RepulsiveInverseSquare> {
    Cutoff::new(base_law(), R_C)
}

impl Workload {
    pub fn method(&self) -> Method {
        match self.kind {
            Kind::AllPairs | Kind::Guarded => Method::CaAllPairs { c: self.c },
            Kind::Cutoff2d => Method::Ca2dCutoff { c: self.c },
        }
    }

    pub fn config<F: ForceLaw>(&self, law: F, steps: usize) -> SimConfig<F, SemiImplicitEuler> {
        SimConfig {
            law,
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: DT,
            steps,
        }
    }

    /// The workload's initial particles; the same seed gives the same ones.
    pub fn inputs(&self, seed: u64) -> Vec<Particle> {
        let mut ps = init::uniform(self.n, &Domain::unit(), seed);
        init::thermalize(&mut ps, self.temperature, seed ^ 0x9e37_79b9_7f4a_7c15);
        ps
    }
}

/// One completed untraced call.
pub struct Call {
    pub particles: Vec<Particle>,
    pub stats: Vec<CommStats>,
    pub secs: f64,
    /// `ChaosRunResult::max_attempts` of a guarded call.
    pub attempts: usize,
}

/// Time one call of the workload's driver (`run_distributed`, or
/// `run_distributed_health` when `guarded`). A panic, an `Err`, or a
/// guarded run with sentinel events, fingerprint mismatches or retries is
/// an error.
pub fn call<F: ForceLaw + Sync>(
    w: &Workload,
    cfg: &SimConfig<F, SemiImplicitEuler>,
    guarded: bool,
    initial: &[Particle],
) -> Result<Call, String> {
    let method = w.method();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if guarded {
            let (plan, policy, health) = (
                FaultPlan::empty(),
                RetryPolicy::default(),
                HealthConfig::enabled(),
            );
            let t = Instant::now();
            let (res, _timeline) =
                run_distributed_health(cfg, method, P, &plan, &policy, &health, initial);
            let secs = t.elapsed().as_secs_f64();
            let (run, report) = res.map_err(|e| format!("guarded run failed: {e:?}"))?;
            if report.sentinel_events != 0 || report.fingerprint_mismatches != 0 {
                return Err(format!(
                    "guarded run reported {} sentinel events and {} fingerprint mismatches",
                    report.sentinel_events, report.fingerprint_mismatches
                ));
            }
            if run.max_attempts != 1 {
                return Err(format!(
                    "guarded run retried: max_attempts {}",
                    run.max_attempts
                ));
            }
            Ok(Call {
                particles: run.particles,
                stats: run.stats,
                secs,
                attempts: run.max_attempts,
            })
        } else {
            let t = Instant::now();
            let run = run_distributed(cfg, method, P, initial);
            let secs = t.elapsed().as_secs_f64();
            Ok(Call {
                particles: run.particles,
                stats: run.stats,
                secs,
                attempts: 1,
            })
        }
    }));
    outcome.unwrap_or_else(|panic| Err(format!("run panicked: {}", panic_text(&panic))))
}

pub fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Largest coordinate difference between two id-sorted particle sets, or
/// an error if their ids differ.
pub fn max_position_deviation(a: &[Particle], b: &[Particle]) -> Result<f64, String> {
    if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.id != y.id) {
        return Err("particle sets differ in ids".into());
    }
    Ok(a.iter()
        .zip(b)
        .map(|(x, y)| (x.pos.x - y.pos.x).abs().max((x.pos.y - y.pos.y).abs()))
        .fold(0.0, f64::max))
}

/// Whether two particle sets are bit-identical in every field.
pub fn bit_identical(a: &[Particle], b: &[Particle]) -> bool {
    let bits = |q: &Particle| {
        [
            q.pos.x, q.pos.y, q.vel.x, q.vel.y, q.force.x, q.force.y, q.mass,
        ]
        .map(f64::to_bits)
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && bits(x) == bits(y))
}

/// Time one `run_distributed_wired` call (wire probes and every recorder
/// on), for the price of the wire lens over the plain driver.
pub fn call_wired<F: ForceLaw + Sync>(
    w: &Workload,
    cfg: &SimConfig<F, SemiImplicitEuler>,
    initial: &[Particle],
) -> Result<Call, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let (run, ..) = run_distributed_wired(cfg, w.method(), P, initial);
        let secs = t.elapsed().as_secs_f64();
        Call {
            particles: run.particles,
            stats: run.stats,
            secs,
            attempts: 1,
        }
    }));
    outcome.map_err(|panic| format!("wired run panicked: {}", panic_text(&panic)))
}
