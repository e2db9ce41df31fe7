//! The block-on-block force kernel shared by every distributed algorithm,
//! and its compute accounting.
//!
//! Besides the kernel itself, this module defines the FLOP/byte bookkeeping
//! the roofline audit consumes: [`ComputeStats`] is the plain-data record of
//! one (or many summed) kernel invocations, and [`ComputeMeter`] times kernel
//! calls and publishes their totals through the `nbody-metrics` registry as
//! the `compute_*` counters.

use std::time::Instant;

use nbody_metrics::{Counter, MetricsRecorder};
use nbody_physics::{Boundary, Domain, ForceLaw, Particle};

/// Accumulate the forces exerted by every particle in `sources` on every
/// particle in `targets`. Self-interactions (matching ids) are skipped, so
/// it is safe to pass a block to itself.
///
/// Returns the exact number of force evaluations performed — all ordered
/// cross pairs minus the skipped same-id pairs. This count is the unit of
/// "computation" in the paper's cost model (`F = n²` total for all-pairs,
/// `F = nk` with a cutoff) and the basis of the FLOP accounting.
///
/// Laws with an [`inverse_square`](ForceLaw::inverse_square) form under a
/// non-periodic boundary run four targets at a time on AVX2 CPUs; every
/// target still sums its sources in slice order with the scalar law's
/// exact operations, so the forces are bit-identical to the scalar loop.
pub fn accumulate_block<F: ForceLaw>(
    targets: &mut [Particle],
    sources: &[Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) -> u64 {
    let (done, skipped) = accumulate_lanes(targets, sources, law, boundary);
    let (skipped, _) =
        scalar_loop::<false, F>(targets, done, sources, law, domain, boundary, skipped);
    evaluations(targets.len(), sources.len(), skipped)
}

/// [`accumulate_block`], additionally adding the summed pair potential of
/// every evaluated interaction to `potential` when one is given — the
/// health monitors' potential-energy partial. Because the CA schedules
/// evaluate every *ordered* pair exactly once globally, the world-reduced
/// sum of these partials counts each unordered pair twice; the driver
/// halves it. Harvesting calls stay on the scalar loop: the lane path has
/// no potential accumulator.
pub(crate) fn accumulate_block_harvest<F: ForceLaw>(
    targets: &mut [Particle],
    sources: &[Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    potential: Option<&mut f64>,
) -> u64 {
    let Some(potential) = potential else {
        return accumulate_block(targets, sources, law, domain, boundary);
    };
    let (skipped, pe) = scalar_loop::<true, F>(targets, 0, sources, law, domain, boundary, 0);
    *potential += pe;
    evaluations(targets.len(), sources.len(), skipped)
}

/// The scalar kernel loop: every target from index `from` on sums its
/// sources in slice order, skipping same-id pairs. With `HARVEST` it also
/// sums the pair potential of every evaluated interaction; without it the
/// potential code compiles away, so plain (health-off) calls pay nothing
/// for it. Returns `skipped` plus the pairs it skipped, and the harvested
/// potential. (Taking the start index and running count, rather than a
/// sub-slice, keeps the plain instantiation's machine code identical to
/// the loop it replaced.)
fn scalar_loop<const HARVEST: bool, F: ForceLaw>(
    targets: &mut [Particle],
    from: usize,
    sources: &[Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    mut skipped: u64,
) -> (u64, f64) {
    let mut potential = 0.0f64;
    for t in targets[from..].iter_mut() {
        let mut acc = t.force;
        for s in sources {
            if t.id == s.id {
                skipped += 1;
                continue;
            }
            let disp = boundary.displacement(domain, t.pos, s.pos);
            acc += law.force(t, s, disp);
            if HARVEST {
                potential += law.potential(t, s, disp);
            }
        }
        t.force = acc;
    }
    (skipped, potential)
}

/// Force evaluations of a `targets` x `sources` call that skipped
/// `skipped` same-id pairs.
fn evaluations(targets: usize, sources: usize, skipped: u64) -> u64 {
    (targets as u64)
        .saturating_mul(sources as u64)
        .saturating_sub(skipped)
}

/// The vector path of [`accumulate_block`]: accumulates a prefix of
/// `targets` and returns its length with the same-id pairs it skipped.
/// `(0, 0)` when the law, boundary, or CPU does not qualify.
#[cfg(target_arch = "x86_64")]
fn accumulate_lanes<F: ForceLaw>(
    targets: &mut [Particle],
    sources: &[Particle],
    law: &F,
    boundary: Boundary,
) -> (usize, u64) {
    match law.inverse_square() {
        Some(form) if boundary != Boundary::Periodic && is_x86_feature_detected!("avx2") => {
            let done = targets.len() - targets.len() % avx2::LANES;
            // SAFETY: AVX2 support was detected at runtime just above.
            let skipped = unsafe { avx2::accumulate(&mut targets[..done], sources, form) };
            (done, skipped)
        }
        _ => (0, 0),
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn accumulate_lanes<F: ForceLaw>(
    _targets: &mut [Particle],
    _sources: &[Particle],
    _law: &F,
    _boundary: Boundary,
) -> (usize, u64) {
    (0, 0)
}

/// The inverse-square law across four targets per AVX2 register. Each lane
/// replays the scalar law's operations one by one — separate multiplies
/// and adds (no FMA), IEEE divides and square roots, and blends in place
/// of its branches — so it rounds exactly as the scalar loop does.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use nbody_physics::{InverseSquare, Particle};

    /// Targets per register.
    pub(super) const LANES: usize = 4;

    /// Accumulate the force of every source on every target, four targets
    /// at a time; any remainder past the last full group of four is left
    /// untouched. Returns the number of skipped same-id pairs.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate(
        targets: &mut [Particle],
        sources: &[Particle],
        form: InverseSquare,
    ) -> u64 {
        let zero = _mm256_setzero_pd();
        // Flipping the sign bit is exact: `(-u)·mag` for a repulsive law.
        let sign = _mm256_set1_pd(if form.repulsive { -0.0 } else { 0.0 });
        let eps2 = _mm256_set1_pd(form.softening * form.softening);
        let k = _mm256_set1_pd(form.k);
        let mut skipped = _mm256_setzero_si256();
        for t in targets.chunks_exact_mut(LANES) {
            let lane =
                |f: fn(&Particle) -> f64| _mm256_set_pd(f(&t[3]), f(&t[2]), f(&t[1]), f(&t[0]));
            let tx = lane(|p| p.pos.x);
            let ty = lane(|p| p.pos.y);
            let ktm = _mm256_mul_pd(k, lane(|p| p.mass));
            let mut fx = lane(|p| p.force.x);
            let mut fy = lane(|p| p.force.y);
            let tid = _mm256_set_epi64x(
                t[3].id as i64,
                t[2].id as i64,
                t[1].id as i64,
                t[0].id as i64,
            );
            for s in sources {
                let dx = _mm256_sub_pd(_mm256_set1_pd(s.pos.x), tx);
                let dy = _mm256_sub_pd(_mm256_set1_pd(s.pos.y), ty);
                let nsq = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
                let r2 = _mm256_add_pd(nsq, eps2);
                let mag = _mm256_div_pd(_mm256_mul_pd(ktm, _mm256_set1_pd(s.mass)), r2);
                let n = _mm256_sqrt_pd(nsq);
                // `Vec2::normalized`: the zero vector has no direction.
                let n_zero = _mm256_cmp_pd::<_CMP_EQ_OQ>(n, zero);
                let ux = _mm256_blendv_pd(_mm256_div_pd(dx, n), zero, n_zero);
                let uy = _mm256_blendv_pd(_mm256_div_pd(dy, n), zero, n_zero);
                let ux = _mm256_xor_pd(ux, sign);
                let uy = _mm256_xor_pd(uy, sign);
                // The law returns `+0` outright when `r2 == 0`.
                let r2_zero = _mm256_cmp_pd::<_CMP_EQ_OQ>(r2, zero);
                let px = _mm256_blendv_pd(_mm256_mul_pd(ux, mag), zero, r2_zero);
                let py = _mm256_blendv_pd(_mm256_mul_pd(uy, mag), zero, r2_zero);
                // Same-id pairs are skipped, not added as `+0`: that would
                // turn a `-0` accumulator into `+0`.
                let same = _mm256_cmpeq_epi64(tid, _mm256_set1_epi64x(s.id as i64));
                let keep = _mm256_castsi256_pd(same);
                fx = _mm256_blendv_pd(_mm256_add_pd(fx, px), fx, keep);
                fy = _mm256_blendv_pd(_mm256_add_pd(fy, py), fy, keep);
                // `same` lanes are all ones, i.e. -1: subtracting counts them.
                skipped = _mm256_sub_epi64(skipped, same);
            }
            // SAFETY: `__m256d` and `[f64; 4]` have the same size, and every
            // bit pattern is a valid `f64`.
            let (fx, fy) = unsafe {
                (
                    std::mem::transmute::<__m256d, [f64; LANES]>(fx),
                    std::mem::transmute::<__m256d, [f64; LANES]>(fy),
                )
            };
            for (p, (x, y)) in t.iter_mut().zip(fx.into_iter().zip(fy)) {
                p.force.x = x;
                p.force.y = y;
            }
        }
        // SAFETY: `__m256i` and `[u64; 4]` have the same size, and every bit
        // pattern is a valid `u64`.
        let skipped = unsafe { std::mem::transmute::<__m256i, [u64; LANES]>(skipped) };
        skipped.iter().sum()
    }
}

/// Number of force evaluations `accumulate_block` performs for the given
/// block sizes (used by schedule generators to cost compute ops): all
/// ordered cross pairs, minus the skipped self-pairs when the blocks are
/// the same block.
///
/// Saturating: at `u64`-boundary block sizes the product clamps to
/// `u64::MAX` instead of wrapping, so FLOP totals derived from this count
/// degrade to a floor rather than silently becoming tiny.
pub fn block_interactions(targets: usize, sources: usize, same_block: bool) -> u64 {
    let total = (targets as u64).saturating_mul(sources as u64);
    if same_block {
        total.saturating_sub(targets as u64)
    } else {
        total
    }
}

/// Sum the force accumulators of `src` into `dst` element-wise: the combine
/// function of the team reduction (Algorithm 1, line 9). Positions,
/// velocities, ids are untouched — copies of the same subset agree on them.
pub fn combine_forces(dst: &mut Particle, src: &Particle) {
    debug_assert_eq!(dst.id, src.id, "reducing mismatched particles");
    dst.force += src.force;
}

/// Compute accounting for one or more kernel invocations: the raw numbers
/// the roofline model needs (FLOPs over time for achieved GFLOP/s, FLOPs
/// over bytes for arithmetic intensity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComputeStats {
    /// Force evaluations performed.
    pub interactions: u64,
    /// Floating-point operations, `interactions` times the law's
    /// per-evaluation constant.
    pub flops: u64,
    /// Compulsory memory traffic: targets are read and written, sources
    /// read, at the in-memory particle size.
    pub bytes: u64,
    /// Wall-clock nanoseconds spent inside the kernel.
    pub nanos: u64,
}

impl ComputeStats {
    /// The stats of one kernel call over `targets` x `sources` particles
    /// that performed `evals` force evaluations in `nanos` ns.
    pub fn for_block(
        evals: u64,
        flops_per_interaction: u64,
        targets: usize,
        sources: usize,
        nanos: u64,
    ) -> ComputeStats {
        let particle = std::mem::size_of::<Particle>() as u64;
        ComputeStats {
            interactions: evals,
            flops: evals.saturating_mul(flops_per_interaction),
            bytes: (2 * targets as u64 + sources as u64).saturating_mul(particle),
            nanos,
        }
    }

    /// Fold another record into this one.
    pub fn merge(&mut self, other: &ComputeStats) {
        self.interactions = self.interactions.saturating_add(other.interactions);
        self.flops = self.flops.saturating_add(other.flops);
        self.bytes = self.bytes.saturating_add(other.bytes);
        self.nanos = self.nanos.saturating_add(other.nanos);
    }

    /// Achieved GFLOP/s (FLOPs per nanosecond), 0 when nothing was timed.
    pub fn gflops(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            self.flops as f64 / self.nanos as f64
        }
    }

    /// Arithmetic intensity in FLOPs per byte, 0 when nothing moved.
    pub fn intensity(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.flops as f64 / self.bytes as f64
        }
    }
}

/// Times kernel calls and records their [`ComputeStats`] into the metrics
/// registry as the `compute_interactions` / `compute_flops` /
/// `compute_bytes` / `compute_nanos` counters (no phase label: the kernel
/// always runs under the drivers' `Phase::Other`). Cheap to construct per
/// force evaluation; a no-op when the recorder is disabled.
pub struct ComputeMeter {
    flops_per_interaction: u64,
    interactions: Counter,
    flops: Counter,
    bytes: Counter,
    nanos: Counter,
}

impl ComputeMeter {
    /// A meter recording into `rec` for a law with the given
    /// per-evaluation FLOP constant.
    pub fn new(rec: &MetricsRecorder, flops_per_interaction: u64) -> ComputeMeter {
        ComputeMeter {
            flops_per_interaction,
            interactions: rec.counter("compute_interactions", None),
            flops: rec.counter("compute_flops", None),
            bytes: rec.counter("compute_bytes", None),
            nanos: rec.counter("compute_nanos", None),
        }
    }

    /// Time `run` (a kernel call returning its evaluation count) over a
    /// `targets` x `sources` block pair and record the resulting stats.
    pub fn time(
        &self,
        targets: usize,
        sources: usize,
        run: impl FnOnce() -> u64,
    ) -> ComputeStats {
        let start = Instant::now();
        let evals = run();
        let nanos = start.elapsed().as_nanos() as u64;
        self.record(evals, targets, sources, nanos)
    }

    /// Record an already-timed kernel call.
    pub fn record(
        &self,
        evals: u64,
        targets: usize,
        sources: usize,
        nanos: u64,
    ) -> ComputeStats {
        let stats =
            ComputeStats::for_block(evals, self.flops_per_interaction, targets, sources, nanos);
        self.interactions.add(stats.interactions);
        self.flops.add(stats.flops);
        self.bytes.add(stats.bytes);
        self.nanos.add(stats.nanos);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_physics::{init, reference, Counting, Vec2};

    #[test]
    fn kernel_matches_reference_for_full_population() {
        let domain = Domain::unit();
        let mut a = init::uniform(30, &domain, 1);
        let mut b = a.clone();

        // Kernel applied block-to-itself == reference all-pairs.
        let sources = a.clone();
        let evals = accumulate_block(&mut a, &sources, &Counting, &domain, Boundary::Open);
        reference::accumulate_forces(&mut b, &Counting, &domain, Boundary::Open);
        assert_eq!(a, b);
        assert_eq!(evals, block_interactions(30, 30, true));
    }

    #[test]
    fn potential_variant_matches_plain_kernel_and_pair_sum() {
        use nbody_physics::Gravity;
        let domain = Domain::unit();
        let law = Gravity { g: 1e-3, softening: 0.05 };
        let mut a = init::uniform(24, &domain, 5);
        let mut b = a.clone();
        let sources = a.clone();

        let evals_plain = accumulate_block(&mut a, &sources, &law, &domain, Boundary::Open);
        let mut pe = 0.0;
        let evals = accumulate_block_harvest(
            &mut b,
            &sources,
            &law,
            &domain,
            Boundary::Open,
            Some(&mut pe),
        );
        assert_eq!(a, b, "forces must be bit-identical to the plain kernel");
        assert_eq!(evals, evals_plain);

        // Block-on-itself evaluates each unordered pair twice, so the
        // harvested sum is exactly twice the once-per-pair diagnostic.
        let reference = nbody_physics::diagnostics::total_potential_energy(
            &sources,
            &law,
            &domain,
            Boundary::Open,
        );
        assert!(
            (pe - 2.0 * reference).abs() <= 1e-12 * reference.abs().max(1.0),
            "harvested {pe} vs 2x reference {reference}"
        );
    }

    #[test]
    fn self_pairs_skipped_by_id_not_index() {
        let domain = Domain::unit();
        let mut targets = vec![nbody_physics::Particle::at(7, Vec2::new(0.5, 0.5))];
        let sources = vec![
            nbody_physics::Particle::at(7, Vec2::new(0.5, 0.5)), // same id: skip
            nbody_physics::Particle::at(8, Vec2::new(0.6, 0.5)),
        ];
        let evals = accumulate_block(&mut targets, &sources, &Counting, &domain, Boundary::Open);
        assert_eq!(targets[0].force.x, 1.0);
        assert_eq!(evals, 1, "the same-id pair is not counted");
    }

    #[test]
    fn interaction_counts() {
        assert_eq!(block_interactions(4, 5, false), 20);
        assert_eq!(block_interactions(4, 4, true), 12);
        assert_eq!(block_interactions(0, 9, false), 0);
        assert_eq!(block_interactions(1, 1, true), 0);
    }

    #[test]
    fn interaction_counts_saturate_at_u64_boundaries() {
        // 2^33 * 2^33 = 2^66 overflows u64: clamp to the ceiling instead
        // of wrapping to a tiny value.
        let huge = 1usize << 33;
        assert_eq!(block_interactions(huge, huge, false), u64::MAX);
        // The self-pair subtraction still applies to the clamped product.
        assert_eq!(
            block_interactions(huge, huge, true),
            u64::MAX - huge as u64
        );
        // Exactly at the boundary: 2^32 * 2^32 = 2^64 saturates ...
        let edge = 1usize << 32;
        assert_eq!(block_interactions(edge, edge, false), u64::MAX);
        // ... while one source fewer fits exactly.
        assert_eq!(
            block_interactions(edge, edge - 1, false),
            (edge as u64) * (edge as u64 - 1)
        );
        // A degenerate same-block call with zero sources must not
        // underflow past zero.
        assert_eq!(block_interactions(5, 0, true), 0);
    }

    #[test]
    fn combine_forces_sums_only_forces() {
        let mut a = nbody_physics::Particle::at(3, Vec2::new(0.1, 0.2));
        a.force = Vec2::new(1.0, 2.0);
        let mut b = a;
        b.force = Vec2::new(0.5, -1.0);
        combine_forces(&mut a, &b);
        assert_eq!(a.force, Vec2::new(1.5, 1.0));
        assert_eq!(a.pos, Vec2::new(0.1, 0.2));
    }

    #[test]
    fn compute_stats_arithmetic() {
        let s = ComputeStats::for_block(100, 20, 10, 10, 2_000);
        assert_eq!(s.interactions, 100);
        assert_eq!(s.flops, 2_000);
        let particle = std::mem::size_of::<Particle>() as u64;
        assert_eq!(s.bytes, 30 * particle);
        assert_eq!(s.gflops(), 1.0, "2000 FLOPs in 2000 ns is 1 GFLOP/s");
        assert!((s.intensity() - 2_000.0 / (30.0 * particle as f64)).abs() < 1e-12);

        let mut total = s;
        total.merge(&s);
        assert_eq!(total.interactions, 200);
        assert_eq!(total.flops, 4_000);

        // Saturating end to end: a clamped interaction count cannot wrap
        // when multiplied by the FLOP constant.
        let sat = ComputeStats::for_block(u64::MAX, 20, 1, 1, 1);
        assert_eq!(sat.flops, u64::MAX);
        assert_eq!(ComputeStats::default().gflops(), 0.0);
        assert_eq!(ComputeStats::default().intensity(), 0.0);
    }

    #[test]
    fn compute_meter_records_counters() {
        let rec = MetricsRecorder::for_rank(2);
        let meter = ComputeMeter::new(&rec, 20);
        let domain = Domain::unit();
        let mut block = init::uniform(16, &domain, 3);
        let sources = block.clone();
        let stats = meter.time(block.len(), sources.len(), || {
            accumulate_block(&mut block, &sources, &Counting, &domain, Boundary::Open)
        });
        assert_eq!(stats.interactions, 16 * 15);
        let m = rec.finish().unwrap();
        assert_eq!(m.counter("compute_interactions", None), 16 * 15);
        assert_eq!(m.counter("compute_flops", None), 16 * 15 * 20);
        assert!(m.counter("compute_nanos", None) > 0);
        assert!(m.counter("compute_bytes", None) > 0);
    }

    #[test]
    fn compute_meter_disabled_is_noop() {
        let rec = MetricsRecorder::disabled();
        let meter = ComputeMeter::new(&rec, 20);
        let stats = meter.record(10, 2, 5, 100);
        // The stats are still returned for the caller ...
        assert_eq!(stats.interactions, 10);
        // ... but nothing is recorded.
        assert!(rec.finish().is_none());
    }
}
