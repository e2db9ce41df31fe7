//! Machine calibration: the measured ceilings of the roofline model.
//!
//! Two seedable microbenchmarks, deliberately matched to the force
//! kernel's character:
//!
//! * **Multiply-add peak** — independent chains of a separate multiply
//!   and add (`a = a·x + y`), four `f64` lanes wide under the
//!   same runtime AVX2 dispatch the force kernel uses (scalar chains
//!   elsewhere). The kernel is built without FMA contraction, so this is
//!   the instruction mix it can reach; no fused `mul_add`, which compiles
//!   to a library call without the `fma` target feature.
//! * **Stream bandwidth** — a large out-of-cache buffer copy, counting
//!   read + write traffic, the classic STREAM-style bound for the
//!   memory-bound side of the roofline.
//!
//! Both are deterministic given the seed (initial values derive from a
//! splitmix64 stream, repeats take the best time) and parameterized so CI
//! can run a quick variant. Results persist as JSON via
//! [`MachineCalibration::to_json`] so gates compare against a *recorded*
//! calibration rather than re-measuring on noisy shared runners.

use std::hint::black_box;
use std::time::Instant;

use nbody_trace::Json;

/// Independent multiply-add chains; enough to hide the multiply and add
/// latencies on any contemporary core without spilling registers.
const CHAINS: usize = 8;

/// `f64` lanes per chain: one AVX2 register, the force kernel's width.
const LANES: usize = 4;

/// Parameters of one calibration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// Seed for the deterministic initial values.
    pub seed: u64,
    /// Iterations of the multiply-add loop (each iteration advances every
    /// chain by one multiply and one add on each lane, i.e.
    /// `2 * CHAINS * LANES` FLOPs).
    pub madd_iters: u64,
    /// Size of each streaming buffer in MiB (two are allocated).
    pub stream_mib: usize,
    /// Timed repeats; the best (fastest) repeat is kept.
    pub repeats: usize,
}

impl CalibrationConfig {
    /// A fast calibration (~tens of milliseconds), fit for tests and for
    /// ad-hoc audits on a developer machine.
    pub fn quick() -> CalibrationConfig {
        CalibrationConfig {
            seed: 42,
            madd_iters: 2_000_000,
            stream_mib: 8,
            repeats: 3,
        }
    }

    /// The full calibration used to produce the checked-in
    /// `bench_results/machine_calibration.json`.
    pub fn full() -> CalibrationConfig {
        CalibrationConfig {
            seed: 42,
            madd_iters: 32_000_000,
            stream_mib: 64,
            repeats: 5,
        }
    }
}

impl Default for CalibrationConfig {
    fn default() -> CalibrationConfig {
        CalibrationConfig::quick()
    }
}

/// The measured machine ceilings plus the provenance needed to reproduce
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineCalibration {
    /// Multiply-add peak in GFLOP/s (FLOPs per nanosecond).
    pub peak_gflops: f64,
    /// Streaming memory bandwidth in GB/s (bytes per nanosecond).
    pub mem_bw_gbytes: f64,
    /// Seed the measurement ran with.
    pub seed: u64,
    /// Multiply-add iterations of the measurement.
    pub madd_iters: u64,
    /// Bytes of one streaming buffer.
    pub stream_bytes: u64,
}

impl MachineCalibration {
    /// Run both microbenchmarks.
    pub fn measure(cfg: &CalibrationConfig) -> MachineCalibration {
        MachineCalibration {
            peak_gflops: madd_peak_gflops(cfg),
            mem_bw_gbytes: stream_bandwidth_gbytes(cfg),
            seed: cfg.seed,
            madd_iters: cfg.madd_iters,
            stream_bytes: (cfg.stream_mib as u64) << 20,
        }
    }

    /// Serialize for `bench_results/machine_calibration.json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("peak_gflops".to_string(), Json::Num(self.peak_gflops)),
            ("mem_bw_gbytes".to_string(), Json::Num(self.mem_bw_gbytes)),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("madd_iters".to_string(), Json::Num(self.madd_iters as f64)),
            (
                "stream_bytes".to_string(),
                Json::Num(self.stream_bytes as f64),
            ),
        ])
    }

    /// Parse a serialized calibration; both ceilings must be positive
    /// finite numbers.
    pub fn from_json(doc: &Json) -> Result<MachineCalibration, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("calibration: missing or non-numeric {key:?}"))
        };
        let peak_gflops = num("peak_gflops")?;
        let mem_bw_gbytes = num("mem_bw_gbytes")?;
        if !(peak_gflops.is_finite() && peak_gflops > 0.0) {
            return Err(format!("calibration: invalid peak_gflops {peak_gflops}"));
        }
        if !(mem_bw_gbytes.is_finite() && mem_bw_gbytes > 0.0) {
            return Err(format!("calibration: invalid mem_bw_gbytes {mem_bw_gbytes}"));
        }
        Ok(MachineCalibration {
            peak_gflops,
            mem_bw_gbytes,
            seed: num("seed").unwrap_or(0.0) as u64,
            madd_iters: num("madd_iters").unwrap_or(0.0) as u64,
            stream_bytes: num("stream_bytes").unwrap_or(0.0) as u64,
        })
    }
}

/// The splitmix64 stream: the deterministic seed expansion behind both
/// microbenchmarks (no dependency on the `rand` stand-in needed).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic f64 in `[1, 2)` from the stream.
fn unit_f64(state: &mut u64) -> f64 {
    1.0 + (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn madd_peak_gflops(cfg: &CalibrationConfig) -> f64 {
    let mut state = cfg.seed;
    let mut best_nanos = u64::MAX;
    for _ in 0..cfg.repeats.max(1) {
        let mut acc = [[0.0f64; LANES]; CHAINS];
        for a in acc.iter_mut().flatten() {
            *a = unit_f64(&mut state);
        }
        let start = Instant::now();
        let acc = madd_chains(acc, cfg.madd_iters);
        let nanos = start.elapsed().as_nanos() as u64;
        black_box(acc);
        best_nanos = best_nanos.min(nanos.max(1));
    }
    // One multiply + one add per lane per chain per iteration.
    let flops = cfg.madd_iters * (CHAINS * LANES) as u64 * 2;
    flops as f64 / best_nanos as f64
}

/// Advance every chain `iters` times by `a = a·x + y`. `x` slightly below
/// 1 and a small positive `y` keep every value converging toward
/// `y/(1-x) ~ 1`: no overflow, no denormals, and the compiler cannot fold
/// the loop because the values are data-dependent.
fn madd_chains(mut acc: [[f64; LANES]; CHAINS], iters: u64) -> [[f64; LANES]; CHAINS] {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was detected at runtime just above.
        return unsafe { avx2::madd_chains(acc, iters) };
    }
    let (x, y) = (black_box(MADD_X), black_box(MADD_Y));
    for _ in 0..iters {
        for a in acc.iter_mut().flatten() {
            *a = *a * x + y;
        }
    }
    acc
}

const MADD_X: f64 = 0.999_999_9;
const MADD_Y: f64 = 1e-7;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;
    use std::hint::black_box;

    use super::{CHAINS, LANES, MADD_X, MADD_Y};

    /// [`super::madd_chains`] with one AVX2 register per chain: a separate
    /// `vmulpd` and `vaddpd` per step, as in the force kernel.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn madd_chains(
        acc: [[f64; LANES]; CHAINS],
        iters: u64,
    ) -> [[f64; LANES]; CHAINS] {
        let x = _mm256_set1_pd(black_box(MADD_X));
        let y = _mm256_set1_pd(black_box(MADD_Y));
        // SAFETY: `[f64; 4]` and `__m256d` have the same size, and every
        // bit pattern is valid for both.
        let mut v =
            unsafe { std::mem::transmute::<[[f64; LANES]; CHAINS], [__m256d; CHAINS]>(acc) };
        for _ in 0..iters {
            for a in &mut v {
                *a = _mm256_add_pd(_mm256_mul_pd(*a, x), y);
            }
        }
        // SAFETY: as above.
        unsafe { std::mem::transmute::<[__m256d; CHAINS], [[f64; LANES]; CHAINS]>(v) }
    }
}

fn stream_bandwidth_gbytes(cfg: &CalibrationConfig) -> f64 {
    let words = ((cfg.stream_mib.max(1)) << 20) / std::mem::size_of::<u64>();
    let mut state = cfg.seed ^ 0x5eed;
    let src: Vec<u64> = (0..words).map(|_| splitmix64(&mut state)).collect();
    let mut dst = vec![0u64; words];
    let mut best_nanos = u64::MAX;
    for _ in 0..cfg.repeats.max(1) {
        let start = Instant::now();
        dst.copy_from_slice(&src);
        let nanos = start.elapsed().as_nanos() as u64;
        black_box(&mut dst);
        best_nanos = best_nanos.min(nanos.max(1));
    }
    // A copy reads and writes every byte once.
    let bytes = (words * std::mem::size_of::<u64>()) as u64 * 2;
    bytes as f64 / best_nanos as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CalibrationConfig {
        CalibrationConfig {
            seed: 7,
            madd_iters: 50_000,
            stream_mib: 1,
            repeats: 2,
        }
    }

    #[test]
    fn measure_produces_positive_ceilings() {
        let cal = MachineCalibration::measure(&tiny());
        assert!(cal.peak_gflops > 0.0, "{cal:?}");
        assert!(cal.mem_bw_gbytes > 0.0, "{cal:?}");
        assert_eq!(cal.seed, 7);
        assert_eq!(cal.stream_bytes, 1 << 20);
    }

    #[test]
    fn json_round_trip() {
        let cal = MachineCalibration {
            peak_gflops: 3.5,
            mem_bw_gbytes: 12.25,
            seed: 42,
            madd_iters: 1000,
            stream_bytes: 1 << 20,
        };
        let doc = Json::parse(&cal.to_json().to_string()).unwrap();
        let back = MachineCalibration::from_json(&doc).unwrap();
        assert_eq!(back, cal);
    }

    #[test]
    fn invalid_calibrations_rejected() {
        for text in [
            "{}",
            r#"{"peak_gflops": 0, "mem_bw_gbytes": 1}"#,
            r#"{"peak_gflops": 1, "mem_bw_gbytes": -3}"#,
            r#"{"peak_gflops": "fast", "mem_bw_gbytes": 1}"#,
        ] {
            let doc = Json::parse(text).unwrap();
            assert!(MachineCalibration::from_json(&doc).is_err(), "{text}");
        }
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 1u64;
        let mut b = 1u64;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        let va = unit_f64(&mut a);
        let vb = unit_f64(&mut b);
        assert_eq!(va, vb);
        assert!((1.0..2.0).contains(&va));
    }
}
