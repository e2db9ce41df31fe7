//! Microbenchmarks that resolve short operations: calls are batched until
//! one sample lasts at least [`MIN_SAMPLE`], and the per-call time is the
//! batch time over the batch size.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ca_nbody::kernel::{accumulate_block, block_interactions};
use nbody_comm::{run_ranks, Communicator};
use nbody_physics::{Boundary, Domain, ForceLaw, Particle};

/// Shortest batch the harness times.
pub const MIN_SAMPLE: Duration = Duration::from_millis(1);
/// Batches per measurement; the median is reported.
pub const SAMPLES: usize = 15;

/// Calls per loop trip of the timed loop; the loop's own cost is spread
/// over them.
const GROUP: u64 = 4;

/// Median seconds per call of `f`, from [`SAMPLES`] batches of at least
/// [`MIN_SAMPLE`] each.
pub fn per_call_secs<F: FnMut()>(mut f: F) -> f64 {
    // Generic, not `dyn`, so the call inlines into the timed loop.
    fn run<F: FnMut()>(f: &mut F, trips: u64) -> Duration {
        let t = Instant::now();
        for _ in 0..trips {
            for _ in 0..GROUP {
                f();
            }
            // Keeps the loop itself from being deleted around an empty `f`.
            black_box(());
        }
        t.elapsed()
    }
    let mut trips = 1u64;
    loop {
        let took = run(&mut f, trips);
        if took >= MIN_SAMPLE {
            break;
        }
        // Aim past the minimum so a noisy short batch does not stall here.
        let scale = (2.0 * MIN_SAMPLE.as_secs_f64() / took.as_secs_f64().max(1e-9)).min(1e3);
        trips = (trips as f64 * scale).ceil() as u64;
    }
    let calls = (trips * GROUP) as f64;
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| run(&mut f, trips).as_secs_f64() / calls)
        .collect();
    crate::stats::median(&mut samples)
}

/// Nanoseconds per interaction of `accumulate_block` on one target block
/// and one distinct source block.
pub fn kernel_ns_per_interaction<F: ForceLaw>(
    targets: &[Particle],
    sources: &[Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) -> f64 {
    let mut t = targets.to_vec();
    let count = block_interactions(t.len(), sources.len(), false);
    let per_call = per_call_secs(|| {
        black_box(accumulate_block(
            black_box(&mut t),
            black_box(sources),
            law,
            domain,
            boundary,
        ));
    });
    per_call * 1e9 / count as f64
}

/// Microseconds per ring `sendrecv` of `payload` on `p` ranks: each
/// rank sends to its successor and receives from its predecessor. Every
/// sample is the slowest rank's batch; rank 0 sizes the batches.
pub fn sendrecv_us(p: usize, payload: &[Particle]) -> f64 {
    const TAG: u64 = 0x5be0;
    let per_rank = run_ranks(p, |world| {
        let (me, size) = (world.rank(), world.size());
        let (next, prev) = ((me + 1) % size, (me + size - 1) % size);
        let mut buf = payload.to_vec();
        let mut batch_of = |batch: usize| {
            world.barrier();
            let t = Instant::now();
            for _ in 0..batch {
                buf = world.sendrecv(next, prev, TAG, black_box(&buf));
            }
            t.elapsed()
        };
        let mut batch = 1usize;
        loop {
            let mut done = vec![u8::from(batch_of(batch) >= MIN_SAMPLE)];
            world.bcast(0, &mut done);
            if done[0] == 1 {
                break;
            }
            batch *= 2;
        }
        (0..SAMPLES)
            .map(|_| batch_of(batch).as_secs_f64() / batch as f64)
            .collect::<Vec<f64>>()
    });
    let mut slowest: Vec<f64> = (0..SAMPLES)
        .map(|i| per_rank.iter().map(|r| r[i]).fold(0.0, f64::max))
        .collect();
    crate::stats::median(&mut slowest) * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The harness must resolve far below the ~5 ns an interaction costs:
    /// an empty closure reads well under 1 ns per call. Timing resolution
    /// is a property of optimized code, so this runs under `--release`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "run with `cargo test --release`")]
    fn empty_closure_reads_well_under_a_nanosecond() {
        let ns = per_call_secs(|| {}) * 1e9;
        assert!(ns < 0.5, "empty closure reads {ns} ns per call");
    }

    #[test]
    fn per_call_time_grows_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..black_box(n) {
                    x = x.wrapping_add(black_box(i));
                }
                black_box(x);
            }
        };
        let small = per_call_secs(spin(100));
        let large = per_call_secs(spin(10_000));
        assert!(large > 20.0 * small, "{small} s vs {large} s");
    }
}
