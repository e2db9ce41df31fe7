//! The block kernel's vector path against its scalar loop.
//!
//! `accumulate_block` evaluates inverse-square laws several targets at a
//! time on CPUs that support it. [`Opaque`] hides a law's inverse-square
//! form, which sends the same call down the scalar loop through the public
//! API, so the two paths can be compared bit for bit on every force and on
//! the returned evaluation count. On CPUs without the vector path both
//! sides run the scalar loop and the comparison holds trivially.

use ca_nbody::kernel::{accumulate_block, block_interactions};
use nbody_physics::{
    init, Boundary, Counting, Cutoff, Domain, ForceLaw, Gravity, LennardJones, Particle,
    RepulsiveInverseSquare, ShiftedForce, Vec2, Yukawa,
};
use proptest::prelude::*;

/// Forwards `force` but not `inverse_square`: the scalar loop's view of a
/// law.
struct Opaque<F>(F);

impl<F: ForceLaw> ForceLaw for Opaque<F> {
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        self.0.force(target, source, disp)
    }
}

/// Run the kernel under `law` and under `Opaque(law)` on copies of
/// `targets`; both the forces (by bit pattern) and the counts must match.
fn assert_paths_agree<F: ForceLaw>(
    law: F,
    targets: &[Particle],
    sources: &[Particle],
    boundary: Boundary,
) -> Result<(), TestCaseError> {
    let domain = Domain::unit();
    let mut lanes = targets.to_vec();
    let mut scalar = targets.to_vec();
    let n_lanes = accumulate_block(&mut lanes, sources, &law, &domain, boundary);
    let n_scalar = accumulate_block(&mut scalar, sources, &Opaque(law), &domain, boundary);
    prop_assert_eq!(n_lanes, n_scalar);
    for (i, (a, b)) in lanes.iter().zip(&scalar).enumerate() {
        prop_assert_eq!(
            (a.force.x.to_bits(), a.force.y.to_bits()),
            (b.force.x.to_bits(), b.force.y.to_bits()),
            "target {} of {}: {:?} vs scalar {:?}",
            i,
            targets.len(),
            a.force,
            b.force
        );
    }
    Ok(())
}

/// `n` particles with masses in `[0.5, 2)` and ids from `first_id`. With
/// `coincide`, every third particle sits on its predecessor and every
/// fifth a subnormal-squared distance from it, so `|d|²` is exactly zero
/// for a nonzero displacement.
fn block(n: usize, first_id: u64, seed: u64, coincide: bool) -> Vec<Particle> {
    let mut ps = init::uniform(n, &Domain::unit(), seed);
    for i in 0..n {
        let frac = (ps[i].pos.x * 1e6).fract();
        ps[i] = ps[i].with_mass(0.5 + 1.5 * frac);
        ps[i].id += first_id;
        if coincide && i > 0 {
            if i % 3 == 0 {
                ps[i].pos = ps[i - 1].pos;
            } else if i % 5 == 0 {
                ps[i].pos = ps[i - 1].pos + Vec2::new(1e-170, -1e-170);
            }
        }
    }
    ps
}

/// Starting accumulators: `+0`, `-0`, or nonzero values.
fn set_accumulators(ps: &mut [Particle], mode: u8, seed: u64) {
    for (i, p) in ps.iter_mut().enumerate() {
        p.force = match mode {
            0 => Vec2::zero(),
            1 => Vec2::new(-0.0, -0.0),
            _ => Vec2::new((seed + i as u64) as f64 * 1e-3 - 0.5, -1.25e-2 * i as f64),
        };
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn vector_path_is_bit_identical_to_scalar_loop(
        nt in 0usize..14,
        ns in 0usize..14,
        gravity in any::<bool>(),
        reflective in any::<bool>(),
        self_block in any::<bool>(),
        soft in 0u8..3,
        coincide in any::<bool>(),
        acc_mode in 0u8..3,
        id_shift in 0u64..8,
        seed in 0u64..10_000,
    ) {
        let boundary = if reflective { Boundary::Reflective } else { Boundary::Open };
        let softening = [0.0, 1e-6, 0.05][soft as usize];
        let mut targets = block(nt, 0, seed, coincide);
        // Block-to-itself calls hit same-id pairs on the diagonal; the
        // shifted ids of a distinct block overlap some target ids too.
        let sources = if self_block {
            targets.clone()
        } else {
            block(ns, id_shift, seed ^ 0x5eed, coincide)
        };
        set_accumulators(&mut targets, acc_mode, seed);
        if gravity {
            let law = Gravity { g: 1e-3, softening };
            assert_paths_agree(law, &targets, &sources, boundary)?;
        } else {
            let law = RepulsiveInverseSquare { strength: 1e-4, softening };
            assert_paths_agree(law, &targets, &sources, boundary)?;
        }
    }
}

/// The edge cases the proptest samples, pinned: `r2 == 0` (coincident,
/// unsoftened), `|d| == 0` with `r2 > 0` (coincident, softened, and an
/// underflowing displacement), same-id pairs, and `-0` accumulators, each
/// on a full group of four targets plus a remainder.
#[test]
fn vector_path_edge_cases_are_bit_identical() {
    let here = Vec2::new(0.25, 0.5);
    let mut targets: Vec<Particle> = (0..6).map(|id| Particle::at(id, here)).collect();
    targets[1].pos = here + Vec2::new(1e-170, 0.0);
    targets[2].pos = Vec2::new(0.75, 0.5);
    targets[4].pos = Vec2::new(0.5, 0.125);
    for t in &mut targets {
        t.force = Vec2::new(-0.0, -0.0);
    }
    let mut sources = targets.clone();
    sources.push(Particle::at(9, here).with_mass(2.0));
    for softening in [0.0, 1e-6] {
        for boundary in [Boundary::Open, Boundary::Reflective] {
            let rep = RepulsiveInverseSquare {
                strength: 1.0,
                softening,
            };
            let grav = Gravity { g: 1.0, softening };
            assert_paths_agree(rep, &targets, &sources, boundary).unwrap();
            assert_paths_agree(grav, &targets, &sources, boundary).unwrap();
        }
    }
    // The count is exact: every ordered pair minus the six same-id ones.
    let mut t = targets.clone();
    let law = Gravity {
        g: 1.0,
        softening: 0.0,
    };
    let evals = accumulate_block(&mut t, &sources, &law, &Domain::unit(), Boundary::Open);
    assert_eq!(evals, block_interactions(6, 7, false) - 6);
    // Coincident unsoftened pairs exert no force rather than NaN or inf.
    assert!(t.iter().all(|p| p.force.is_finite()));
}

/// Only the two bare inverse-square laws expose the form; every wrapper
/// and every other law keeps the scalar loop.
#[test]
fn only_bare_inverse_square_laws_expose_the_form() {
    let rep = RepulsiveInverseSquare::default();
    let grav = Gravity::default();
    let r = rep.inverse_square().expect("repulsive law has the form");
    assert_eq!(
        (r.k, r.softening, r.repulsive),
        (rep.strength, rep.softening, true)
    );
    let g = grav.inverse_square().expect("gravity has the form");
    assert_eq!(
        (g.k, g.softening, g.repulsive),
        (grav.g, grav.softening, false)
    );

    assert_eq!(Cutoff::new(rep, 0.1).inverse_square(), None);
    assert_eq!(Cutoff::new(grav, 0.1).inverse_square(), None);
    assert_eq!(ShiftedForce::new(rep, 0.1).inverse_square(), None);
    assert_eq!(ShiftedForce::new(grav, 0.1).inverse_square(), None);
    assert_eq!(Yukawa::default().inverse_square(), None);
    assert_eq!(LennardJones::default().inverse_square(), None);
    assert_eq!(Counting.inverse_square(), None);
}
