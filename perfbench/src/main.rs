//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload's `run_distributed*` call with tracing
//! off and prints the end-to-end metrics; `--trace 1` runs the traced,
//! reassembled timestep beside the public drivers and prints the per-layer
//! metrics. Both check the outputs against the serial reference and print,
//! as the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. The process exits non-zero when a check fails.

mod env;
mod layers;
mod micro;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ca_nbody::dist::{id_block_subset, spatial_subset_2d, team_grid_dims};
use ca_nbody::sim::{run_serial, SimConfig};
use nbody_comm::Phase;
use nbody_physics::{Domain, ForceLaw, Particle, SemiImplicitEuler};

use crate::layers::{
    exact_counts, interactions_per_step, step_counts, traced_call, traffic_per_step, StepCounts,
};
use crate::spans::{split_rank, RankSplit};
use crate::stats::median;
use crate::workload::{
    base_law, bit_identical, by_name, call, call_wired, cutoff_law, max_position_deviation, Call,
    Kind, Workload, P, SERIAL_TOLERANCE, WORKLOADS,
};

/// Zero-step calls timed for `setup_s` before the timed calls; one more
/// follows each timed call. The median is reported.
const WARMUP_SETUP_CALLS: usize = 5;
/// Fewest zero-step calls behind `setup_s`.
const MIN_SETUP_CALLS: usize = 41;
/// Fewest timed calls (untraced) or rounds (traced) whatever `--seconds`.
const MIN_RUNS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(by_name(&value).ok_or(format!(
                    "unknown workload {value:?}; one of {}",
                    names.join(", ")
                ))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Failure accounting: every distributed call is one attempt; a panic, an
/// `Err` or a failed check makes it a failure. Nothing is retried.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("check failed: {e}");
                None
            }
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The first checked call must match the serial reference within
/// [`SERIAL_TOLERANCE`]; every later one must be bit-identical to it.
#[derive(Default)]
struct SameResult {
    first: Option<Vec<Particle>>,
}

impl SameResult {
    fn check(&mut self, particles: &[Particle], serial: &[Particle]) -> Result<(), String> {
        match &self.first {
            None => {
                let dev = max_position_deviation(particles, serial)?;
                if dev > SERIAL_TOLERANCE {
                    return Err(format!(
                        "first run deviates from the serial reference by {dev:e} (bound {SERIAL_TOLERANCE:e})"
                    ));
                }
                self.first = Some(particles.to_vec());
                Ok(())
            }
            Some(first) if bit_identical(first, particles) => Ok(()),
            Some(_) => Err("run is not bit-identical to the first run".into()),
        }
    }
}

fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        median(&mut v.to_vec())
    }
}

/// The highest of p99 and p90 that leaves at least ten samples beyond it.
fn tail(samples: &[f64]) -> String {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    for q in [0.99, 0.9] {
        let k = ((q * v.len() as f64).ceil() as usize).max(1) - 1;
        if v.len() - 1 - k >= 10 {
            return format!("p{} {:e} s", (q * 100.0).round(), v[k]);
        }
    }
    "no tail percentile: fewer than ten samples beyond p90".into()
}

/// `--trace 0`: time the workload's public driver with tracing off.
fn end_to_end<F: ForceLaw + Sync + Clone>(
    w: &Workload,
    law: F,
    args: &Args,
    tally: &mut Tally,
) -> Vec<Metric> {
    let guarded = w.kind == Kind::Guarded;
    let initial = w.inputs(args.seed);
    let cfg = w.config(law.clone(), w.steps);
    let serial = run_serial(&cfg, &initial);

    // Set-up: the same call with zero steps. A few run before the timed
    // calls, warming up thread spawning and the allocator; the rest are
    // interleaved with the timed calls, so both medians see the same
    // stretch of machine time.
    let cfg0 = w.config(law, 0);
    let mut unchanged = initial.clone();
    unchanged.sort_by_key(|q| q.id);
    let mut setup = Vec::new();
    let mut setup_call = |tally: &mut Tally| {
        let outcome = call(w, &cfg0, guarded, &initial).and_then(|c| {
            if bit_identical(&c.particles, &unchanged) {
                Ok(c.secs)
            } else {
                Err("a zero-step run changed the particles".into())
            }
        });
        setup.extend(tally.record(outcome));
    };
    for _ in 0..WARMUP_SETUP_CALLS {
        setup_call(tally);
    }

    let mut step = Vec::new();
    let mut same = SameResult::default();
    let start = Instant::now();
    let mut calls = 0;
    while calls < MIN_RUNS || start.elapsed() < args.seconds {
        calls += 1;
        let outcome = call(w, &cfg, guarded, &initial)
            .and_then(|c| same.check(&c.particles, &serial).map(|()| c.secs));
        step.extend(tally.record(outcome).map(|s| s / w.steps as f64));
        setup_call(tally);
    }
    for _ in WARMUP_SETUP_CALLS + calls..MIN_SETUP_CALLS {
        setup_call(tally);
    }
    println!(
        "# step_s is the median of {} calls of {} steps ({}); setup_s of {} zero-step calls ({})",
        step.len(),
        w.steps,
        tail(&step),
        setup.len(),
        tail(&setup)
    );
    vec![
        metric("step_s", med(&step), "s"),
        metric("setup_s", med(&setup), "s"),
        metric("peak_rss_mb", env::peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
    ]
}

/// The blocks the kernel microbenchmark times: a team's block against its
/// neighbour's, as the workload's first shift step pairs them.
fn kernel_blocks(
    w: &Workload,
    domain: &Domain,
    initial: &[Particle],
) -> (Vec<Particle>, Vec<Particle>) {
    let teams = P / w.c;
    match w.kind {
        Kind::Cutoff2d => {
            let (tx, ty) = team_grid_dims(teams);
            (
                spatial_subset_2d(initial, domain, tx, ty, 0),
                spatial_subset_2d(initial, domain, tx, ty, 1),
            )
        }
        _ => (
            id_block_subset(initial, teams, 0),
            id_block_subset(initial, teams, 1),
        ),
    }
}

/// Where the traced run's spans are written: under the build directory,
/// which the repository ignores.
fn span_file(w: &Workload, seed: u64) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    root.join("perfbench-spans")
        .join(format!("{}-seed{seed}.csv", w.name))
}

/// `--trace 1`: the per-layer split. Each round runs the plain driver, the
/// traced reassembled loop, the wired driver and the guarded driver on the
/// same inputs, so ratios between them share conditions.
fn per_layer<F: ForceLaw + Sync + Clone>(
    w: &Workload,
    law: F,
    args: &Args,
    tally: &mut Tally,
) -> Vec<Metric> {
    let initial = w.inputs(args.seed);
    let cfg: SimConfig<F, SemiImplicitEuler> = w.config(law.clone(), w.steps);
    let cfg0 = w.config(law, 0);
    let steps = w.steps as f64;

    let t = Instant::now();
    let serial = run_serial(&cfg, &initial);
    let serial_step = t.elapsed().as_secs_f64() / steps;

    let (targets, sources) = kernel_blocks(w, &cfg.domain, &initial);
    let kernel_ns =
        micro::kernel_ns_per_interaction(&targets, &sources, &cfg.law, &cfg.domain, cfg.boundary);
    let sendrecv_us = micro::sendrecv_us(P, &sources);
    let empty_ns = micro::per_call_secs(|| {}) * 1e9;
    println!("# harness floor: an empty closure reads {empty_ns:.3} ns per call");

    let plain0 = tally.record(call(w, &cfg0, false, &initial));
    let guarded0 = tally.record(call(w, &cfg0, true, &initial));

    let (mut plain, mut traced, mut wired, mut guarded) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut same_plain, mut same_guarded) = (SameResult::default(), SameResult::default());
    let mut counts: Option<Vec<[u64; 7]>> = None;
    let mut first_plain: Option<Call> = None;
    let mut first_guarded: Option<Call> = None;
    let mut splits: Vec<Vec<RankSplit>> = Vec::new();
    let mut first_traced = None;
    let mut repeat_counts: Option<(f64, u64)> = None;
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_RUNS || start.elapsed() < args.seconds {
        rounds += 1;
        let outcome = call(w, &cfg, false, &initial).and_then(|c| {
            same_plain.check(&c.particles, &serial)?;
            let now = exact_counts(&c.stats);
            if counts.as_ref().is_some_and(|first| *first != now) {
                return Err("plain run counts differ from the first run's".into());
            }
            counts = Some(now);
            Ok(c)
        });
        if let Some(c) = tally.record(outcome) {
            plain.push(c.secs);
            first_plain.get_or_insert(c);
        }

        let outcome = traced_call(w, &cfg, &initial).and_then(|r| {
            match &same_plain.first {
                Some(p) if bit_identical(p, &r.particles) => {}
                Some(_) => return Err("traced run is not bit-identical to run_distributed".into()),
                None => return Err("no plain run to compare the traced run with".into()),
            }
            if counts.as_ref() != Some(&exact_counts(&r.stats())) {
                return Err("traced run counts differ from run_distributed's".into());
            }
            let split = r
                .ranks
                .iter()
                .enumerate()
                .map(|(rank, o)| {
                    split_rank(&o.spans, w.steps).map_err(|e| format!("rank {rank}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let repeat = (
                interactions_per_step(w, &cfg, &r),
                r.ranks.iter().map(|o| o.migrated).sum::<u64>(),
            );
            match repeat_counts {
                Some(first) if first != repeat => {
                    Err("traced run counts differ between runs".into())
                }
                _ => {
                    repeat_counts = Some(repeat);
                    Ok((r, split))
                }
            }
        });
        if let Some((r, split)) = tally.record(outcome) {
            traced.push(r.secs);
            splits.push(split);
            first_traced.get_or_insert(r);
        }

        let outcome = call_wired(w, &cfg, &initial).and_then(|c| match &same_plain.first {
            Some(p) if bit_identical(p, &c.particles) => Ok(c.secs),
            _ => Err("wired run is not bit-identical to run_distributed".into()),
        });
        wired.extend(tally.record(outcome));

        let outcome = call(w, &cfg, true, &initial)
            .and_then(|c| same_guarded.check(&c.particles, &serial).map(|()| c));
        if let Some(c) = tally.record(outcome) {
            guarded.push(c.secs);
            first_guarded.get_or_insert(c);
        }
    }
    println!(
        "# {} rounds; medians of {} plain, {} traced, {} wired and {} guarded calls",
        rounds,
        plain.len(),
        traced.len(),
        wired.len(),
        guarded.len()
    );

    if let Some(r) = &first_traced {
        let ranks: Vec<_> = r.ranks.iter().map(|o| o.spans.clone()).collect();
        let path = span_file(w, args.seed);
        match spans::write_csv(&path, &ranks) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    // Per-layer times: per rank, per step; the slowest rank; median over runs.
    let layer = |f: &dyn Fn(&RankSplit) -> f64| {
        let per_run: Vec<f64> = splits
            .iter()
            .map(|ranks| ranks.iter().map(f).fold(f64::NAN, f64::max))
            .collect();
        med(&per_run)
    };
    let imbalance: Vec<f64> = splits
        .iter()
        .map(|ranks| {
            let selfs: Vec<f64> = ranks.iter().map(|s| s.kernel_self).collect();
            let mean = selfs.iter().sum::<f64>() / selfs.len() as f64;
            selfs.iter().copied().fold(f64::NAN, f64::max) / mean
        })
        .collect();

    let counts = match (&first_plain, &plain0, &first_traced) {
        (Some(full), Some(zero), Some(traced)) => {
            step_counts(w, &cfg, &full.stats, &zero.stats, traced)
        }
        _ => StepCounts {
            messages: f64::NAN,
            bytes: f64::NAN,
            words_over_eq5: f64::NAN,
            interactions: f64::NAN,
        },
    };
    let (rec_messages, rec_bytes, _) = match (&first_guarded, &guarded0) {
        (Some(full), Some(zero)) => {
            traffic_per_step(&full.stats, &zero.stats, &[Phase::Recovery], w.steps)
        }
        _ => (f64::NAN, f64::NAN, f64::NAN),
    };
    let migrated = repeat_counts.map_or(f64::NAN, |(_, m)| m as f64);
    let plain_med = med(&plain);

    vec![
        metric("kernel.ns_per_interaction", kernel_ns, "ns"),
        metric("kernel.interactions_per_step", counts.interactions, "count"),
        metric("kernel.self_s", layer(&|s| s.kernel_self), "s"),
        metric("force.s", layer(&|s| s.force), "s"),
        metric("force.imbalance", med(&imbalance), "ratio"),
        metric("comm.shift_s", layer(&|s| s.shift), "s"),
        metric("comm.skew_s", layer(&|s| s.skew), "s"),
        metric("comm.bcast_s", layer(&|s| s.bcast), "s"),
        metric("comm.reduce_s", layer(&|s| s.reduce), "s"),
        metric("comm.reassign_s", layer(&|s| s.comm_reassign), "s"),
        metric("comm.messages_per_step", counts.messages, "count"),
        metric("comm.bytes_per_step", counts.bytes, "bytes"),
        metric("comm.words_over_eq5", counts.words_over_eq5, "ratio"),
        metric("comm.sendrecv_us", sendrecv_us, "us"),
        metric("integrate.s", layer(&|s| s.integrate), "s"),
        metric("reassign.s", layer(&|s| s.reassign), "s"),
        metric("reassign.migrated_per_step", migrated / steps, "count"),
        metric("setup.split_s", layer(&|s| s.split), "s"),
        metric("setup.distribute_s", layer(&|s| s.distribute), "s"),
        metric("sim.unattributed_s", layer(&|s| s.unattributed), "s"),
        metric("trace.overhead", med(&traced) / plain_med, "ratio"),
        metric("serial.step_s", serial_step, "s"),
        metric("lens.wired_over_plain", med(&wired) / plain_med, "ratio"),
        metric("guard.over_plain", med(&guarded) / plain_med, "ratio"),
        metric("recovery.messages_per_step", rec_messages, "count"),
        metric("recovery.bytes_per_step", rec_bytes, "bytes"),
        metric(
            "recovery.attempts",
            first_guarded.map_or(f64::NAN, |c| c.attempts as f64),
            "count",
        ),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "# perfbench workload={} n={} p={P} c={} steps={} seed={} trace={}",
        w.name,
        w.n,
        w.c,
        w.steps,
        args.seed,
        u8::from(args.trace)
    );
    println!("# env {}", env::record(P));
    let mut tally = Tally::default();
    let metrics = match (w.kind, args.trace) {
        (Kind::Cutoff2d, false) => end_to_end(w, cutoff_law(), &args, &mut tally),
        (Kind::Cutoff2d, true) => per_layer(w, cutoff_law(), &args, &mut tally),
        (_, false) => end_to_end(w, base_law(), &args, &mut tally),
        (_, true) => per_layer(w, base_law(), &args, &mut tally),
    };
    let mut correct = tally.failed == 0;
    for m in &metrics {
        if !m.value.is_finite() {
            eprintln!("check failed: metric {} could not be measured", m.name);
            correct = false;
        }
        println!("{:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<28} {:>16} ratio ({} failed of {} attempted)",
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
