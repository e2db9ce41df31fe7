//! `ca-nbody` — command-line front end of the reproduction.
//!
//! ```text
//! ca-nbody run      [n=1024] [p=8] [c=2] [steps=20] [dt=0.005] [method=ca]
//!                   [law=repulsive|gravity|lj] [cutoff=0.25] [boundary=reflective]
//!                   [--trace=out.json] [--metrics=out.json|out.prom] [--profile]
//!                   [--record-timeline=out.json] [--wire-probe=out.json]
//!                   [--serve-metrics=ADDR] [serve-metrics-hold-ms=2000]
//!                   [--faults=SPEC] [fault-timeout-ms=1000] [max-retries=3]
//!                   [retry-backoff=2.0] [retry-jitter=0.1] [retry-budget-ms=60000]
//!                   [peer-dead-timeout-ms=MS] [retry-seed=S]
//!                   [--checkpoint-dir=D] [checkpoint-every=1] [--resume=D]
//!                   [--crash-at-step=S]
//! ca-nbody verify   [same options]            distributed-vs-serial check
//! ca-nbody report   <trace-file>              per-phase/per-step breakdown tables
//! ca-nbody audit    [n=4096] [p=16] [steps=1] [c=N] [cutoff=0] [--wire]
//!                   [--baseline=F] [--out=F.csv|F.json]
//!                   [--calibration=F] [--roofline-baseline=F] [--roofline-out=F.csv|F.json]
//! ca-nbody calibrate [--out=bench_results/machine_calibration.json] [seed=42] [--full]
//! ca-nbody chaos    [n=192] [p=8] [c=2] [steps=1] [method=ca] [seed=42]
//!                   [fault-timeout-ms=250] [--kills=N] [--baseline=F]
//!                   [--metrics=F] [--postmortem=DIR]
//! ca-nbody soak     [n=96] [p=6] [c=2] [steps=2] [method=ca] [seed=42]
//!                   [seconds=30] [events=3] [fault-timeout-ms=250]
//!                   [--postmortem=DIR]   time-boxed randomized chaos
//! ca-nbody scale    [machine=hopper] [n=32768] [--metrics=F]
//!                   strong-scaling table (simulated)
//! ca-nbody autotune [machine=hopper] [p=1536] [n=12288] [cutoff=0]
//! ca-nbody analyze  [trace-file] [--metrics=F] [--timeline=F] [--wire=F]
//!                   [--drift-window=16] [--drift-nsigma=6] [c=1] [--csv=F] [--json=F]
//! ca-nbody conformance <wire-log.json> [n=1024] [p=8] [c=2] [steps=20]
//!                   [method=ca] [law=repulsive] [cutoff=0.25]
//!                   [boundary=reflective] [--faults=SPEC]
//! ca-nbody postmortem <bundle.json>           render a flight-recorder dump
//! ca-nbody regress  <trace-file> [--metrics=F] [n=0] [c=1] [kernel=allpairs]
//!                   [tolerance=1.5] [--history=bench_results/history] [--record]
//! ```
//!
//! Options take `key=value`, `--key=value`, or `--key value` form.
//!
//! `--trace` records per-rank wall-clock spans and writes them in a format
//! chosen by extension: `.json` Chrome `trace_event` (open in Perfetto or
//! `chrome://tracing`), `.jsonl` JSON-lines, `.csv` the shared event
//! schema. `--metrics` writes the live metrics snapshot (per-rank
//! communication counters, message-size histograms, memory high-water
//! marks) as JSON, or in Prometheus text format for a `.prom` path.
//! `--profile` prints the per-phase breakdown after the run.
//!
//! `audit` runs real instrumented executions across replication factors
//! and compares the measured per-step communication against the paper's
//! lower bounds (Eq. 2/3) and predicted costs (Eq. 5/§IV.B), failing if
//! any constant factor exceeds the ceilings (`--baseline` overrides the
//! defaults from a JSON file). It also reports the *compute* side: the
//! kernel's live `compute_*` counters joined with a machine calibration
//! (`--calibration`, default `bench_results/machine_calibration.json`,
//! else a quick in-process calibration) become per-rank roofline points —
//! achieved GFLOP/s, arithmetic intensity, %-of-roofline — written with
//! `--roofline-out` and gated by `--roofline-baseline` (fails if the best
//! rank falls below the recorded floor minus its tolerance).
//!
//! `calibrate` measures the machine ceilings the roofline uses
//! (multiply-add peak, stream bandwidth) with seedable microbenchmarks and
//! writes them as JSON (`--full` for the long, checked-in variant).
//!
//! `--serve-metrics=<addr>` starts a dependency-free HTTP endpoint
//! serving the Prometheus exposition of the run's metrics at
//! `http://<addr>/metrics` (empty until the run finishes, then held for
//! `serve-metrics-hold-ms` so scrapers can collect the final snapshot).
//!
//! `--record-timeline=<path>` writes the run's per-step time series
//! (bytes, blocked time, FLOPs, particles per rank) plus the always-on
//! flight-recorder event ring as one `nbody-timeline/v1` JSON bundle.
//! When a fault-injected run dies, the same path receives a *postmortem*
//! bundle carrying the failure reason and the events leading up to it.
//! `postmortem <bundle>` renders such a dump as text; `analyze
//! --timeline=<bundle>` runs the online drift detector over the recorded
//! series and prints the flagged windows next to the straggler table.
//! When `--serve-metrics` is active the timeline is also published at
//! `/timeseries` (JSON) and `/dashboard` (self-contained HTML).
//!
//! `--wire-probe=<path>` turns on message-level wire probes: every rank
//! records each point-to-point protocol message (send/recv, rank pair,
//! tag, phase, payload size, timestamp against a shared epoch) into a
//! bounded ring, merged after the run into one `nbody-wireprobe/v1` JSON
//! log. `analyze --wire=<log>` renders the per-channel latency table
//! (send→recv histograms, queue depths, drop accounting) derived from the
//! matched probe pairs. `conformance <log>` replays the CA schedule for
//! the given run parameters, diffs the predicted message multiset against
//! the observed traffic, and classifies every discrepancy (missing,
//! unexpected, wrong-size, out-of-order) — consulting `--faults` so
//! injected drops/dups/kills are attributed to the fault plan instead of
//! flagged as violations; it exits non-zero on a FAIL verdict (an
//! unexplained discrepancy with intact probe rings). `audit --wire` adds
//! a per-phase observed-vs-predicted message-count section from the same
//! machinery. When `--serve-metrics` is active the wire log is published
//! at `/wire` and the dashboard grows a channel-latency panel.
//!
//! `--faults` injects a deterministic fault schedule (spec grammar
//! `kind:rank@step` with kinds `kill | drop | dup | delay`, comma-
//! separated) and switches `run`/`verify` to the fault-tolerant CA
//! drivers. Retries follow an adaptive [`RetryPolicy`]: exponential
//! backoff (`retry-backoff`) with deterministic seeded jitter
//! (`retry-jitter`, `retry-seed`), a separate post-crash deadline
//! (`peer-dead-timeout-ms`), and a total per-evaluation wall-clock
//! budget (`retry-budget-ms`). When every replica of a column dies the
//! run *shrinks*: survivors agree on the dead teams, re-decompose onto
//! the remaining ranks, and finish in degraded mode (the summary
//! reports `shrinks`, `lost_particles`, `final_ranks`).
//!
//! `--checkpoint-dir` makes the run persist a durable
//! `nbody-checkpoint/v1` bundle (atomic temp-file + rename) every
//! `checkpoint-every` completed steps; `--resume=<dir>` restores the
//! newest bundle — rejecting it unless its run-config fingerprint
//! matches the flags — and continues mid-run. `--crash-at-step=<s>`
//! kills the process (exit 137) right after that step's bundle hits the
//! disk, exercising the resume path end to end. The cadence default can
//! also come from `NBODY_CHECKPOINT_EVERY`; retry-policy defaults from
//! `NBODY_RETRY_TIMEOUT_MS`, `NBODY_RETRY_MAX`, `NBODY_RETRY_BACKOFF`,
//! `NBODY_RETRY_JITTER`, `NBODY_RETRY_BUDGET_MS` (all validated at
//! startup; malformed values exit 2).
//!
//! `chaos` sweeps kill schedules over every rank and pipeline
//! step, asserting recovered forces stay bit-identical to the fault-free
//! run and gating recovery overhead against `--baseline` ceilings; with
//! `--kills=N` it adds multi-fault schedules, and it always exercises
//! the two degraded tiers (a double kill inside one column at `c >= 2`
//! and a `c = 1` kill), asserting both shrink onto the survivors and
//! match a recomposed reference run. `soak` runs randomized seeded
//! fault plans until a wall-clock budget expires — the CI chaos-soak
//! entry point.
//!
//! `analyze` diagnoses a recorded trace: the per-timestep cross-rank
//! critical path (which rank gated the step, how its time split into
//! compute/comm/blocked, and which late sender it waited on), per-phase
//! load-imbalance factors, straggler rankings, and traffic/wait heat-maps
//! on the `p/c × c` grid when `--metrics` is given. `regress` distills the
//! same trace into a `RunSummary`, compares its wall time against the
//! median of matching entries in the append-only history store
//! (`bench_results/history/<kernel>.jsonl`), exits non-zero past the
//! tolerance, and with `--record` appends the live summary — the CI
//! performance gate.
//!
//! `run`, `scale`, `audit`, `chaos`, and `regress` end with a single-line
//! JSON summary on stdout for scripted consumption.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use ca_nbody::autotune::{autotune_all_pairs, autotune_cutoff_1d};
use ca_nbody::cutoff::validate_cutoff;
use ca_nbody::schedule::{count_ops, AllPairsParams};
use ca_nbody::recovery::{FaultError, RetryPolicy};
use ca_nbody::{
    expected_schedule, run, run_distributed, run_serial, CheckpointConfig, Method, ProcGrid,
    Recovery, RunOptions, RunResult, SimConfig, Window, Window1d, WireScheduleSpec,
};
use nbody_durable::{load_latest, RunFingerprint};
use nbody_analyze::{
    analyze, check_regression, parse_history, render_conformance, render_csv, render_drift,
    render_health, render_json, render_regression, render_table, render_wire, RunSummary, Verdict,
};
use nbody_simhealth::{HealthBaseline, HealthConfig, HealthInjection, HealthSummary};
use nbody_comm::{
    check_conformance, match_events, validate_env, FaultKind, FaultNote, FaultPlan, RunTimeline,
    WireLog,
};
use nbody_timeline::DriftConfig;
use nbody_metrics::{
    audit, audit_csv, audit_json, audit_table, ceilings_from_json, wire_phase_counts,
    wire_phase_table, AuditAlgorithm, AuditConfig, AuditInput, FactorCeilings, MetricsSnapshot,
};
use nbody_netsim::{hopper, intrepid, simulate, Machine};
use nbody_perfmon::{
    roofline, roofline_csv, roofline_json, roofline_table, CalibrationConfig, MachineCalibration,
    MetricsServer, RooflineGate, RooflineReport,
};
use nbody_physics::{
    diagnostics, init, Boundary, Cutoff, Domain, ForceLaw, Gravity, InverseSquare, LennardJones,
    Particle, RepulsiveInverseSquare, SemiImplicitEuler, Vec2, PARTICLE_WIRE_BYTES,
};
use nbody_trace::{ExecutionTrace, Json, ALL_PHASES};

fn main() -> ExitCode {
    // A malformed NBODY_RECV_TIMEOUT_SECS is a startup error, not a silent
    // fallback discovered mid-run inside a worker thread.
    if let Err(e) = validate_env() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    // `key=value`, `--key=value`, and `--key value` populate the option
    // map; a `--flag` with no value is a boolean switch; anything else is
    // positional.
    let mut opts: HashMap<String, String> = HashMap::new();
    let mut positional: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        let a = &args[i];
        let body = a.strip_prefix("--").unwrap_or(a);
        if let Some((k, v)) = body.split_once('=') {
            opts.insert(k.to_string(), v.to_string());
        } else if a.starts_with("--") {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") && !v.contains('=') => {
                    opts.insert(body.to_string(), v.clone());
                    i += 1;
                }
                _ => {
                    opts.insert(body.to_string(), "true".to_string());
                }
            }
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }

    match cmd.as_str() {
        "run" => run_cmd(&opts, false),
        "verify" => run_cmd(&opts, true),
        "report" => report_cmd(&positional),
        "audit" => audit_cmd(&opts),
        "calibrate" => calibrate_cmd(&opts),
        "chaos" => chaos_cmd(&opts),
        "soak" => soak_cmd(&opts),
        "scale" => scale_cmd(&opts),
        "autotune" => autotune_cmd(&opts),
        "analyze" => analyze_cmd(&opts, &positional),
        "health" => health_cmd(&positional),
        "conformance" => conformance_cmd(&opts, &positional),
        "postmortem" => postmortem_cmd(&positional),
        "regress" => regress_cmd(&opts, &positional),
        _ => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: ca-nbody <run|verify|report|audit|calibrate|chaos|soak|scale|autotune|analyze|\
         health|conformance|postmortem|regress> \
         [key=value ...] \
         [--trace=F] [--metrics=F] [--record-timeline=F] [--wire-probe=F] [--profile] \
         [--faults=SPEC] [--checkpoint-dir=D] [--resume=D] \
         [--health] [--health-every=K] [--health-baseline=F] \
         [--inject-nan=RANK@STEP] [--corrupt-replica=RANK@STEP]\n\
         see `src/main.rs` header or README.md for the option list"
    );
}

fn get<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str, default: T) -> T {
    opts.get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// [`get`] with the environment variable `var` overriding `default`.
fn flag_or_env<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    var: &str,
    default: T,
) -> T {
    let env = std::env::var(var).ok().and_then(|v| v.trim().parse().ok());
    get(opts, key, env.unwrap_or(default))
}

/// A force law selected at runtime; delegates to the concrete laws.
enum AnyLaw {
    Repulsive(RepulsiveInverseSquare),
    Gravity(Gravity),
    Lj(Cutoff<LennardJones>),
    RepulsiveCutoff(Cutoff<RepulsiveInverseSquare>),
    GravityCutoff(Cutoff<Gravity>),
}

impl ForceLaw for AnyLaw {
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        match self {
            AnyLaw::Repulsive(l) => l.force(target, source, disp),
            AnyLaw::Gravity(l) => l.force(target, source, disp),
            AnyLaw::Lj(l) => l.force(target, source, disp),
            AnyLaw::RepulsiveCutoff(l) => l.force(target, source, disp),
            AnyLaw::GravityCutoff(l) => l.force(target, source, disp),
        }
    }

    fn potential(&self, target: &Particle, source: &Particle, disp: Vec2) -> f64 {
        match self {
            AnyLaw::Repulsive(l) => l.potential(target, source, disp),
            AnyLaw::Gravity(l) => l.potential(target, source, disp),
            AnyLaw::Lj(l) => l.potential(target, source, disp),
            AnyLaw::RepulsiveCutoff(l) => l.potential(target, source, disp),
            AnyLaw::GravityCutoff(l) => l.potential(target, source, disp),
        }
    }

    fn cutoff(&self) -> Option<f64> {
        match self {
            AnyLaw::Repulsive(_) | AnyLaw::Gravity(_) => None,
            AnyLaw::Lj(l) => l.cutoff(),
            AnyLaw::RepulsiveCutoff(l) => l.cutoff(),
            AnyLaw::GravityCutoff(l) => l.cutoff(),
        }
    }

    fn is_symmetric(&self) -> bool {
        true
    }

    // Only the bare laws: a cutoff variant forwarding its inner form would
    // let the kernel drop the cutoff.
    fn inverse_square(&self) -> Option<InverseSquare> {
        match self {
            AnyLaw::Repulsive(l) => l.inverse_square(),
            AnyLaw::Gravity(l) => l.inverse_square(),
            AnyLaw::Lj(_) | AnyLaw::RepulsiveCutoff(_) | AnyLaw::GravityCutoff(_) => None,
        }
    }

    fn flops_per_interaction(&self) -> u64 {
        match self {
            AnyLaw::Repulsive(l) => l.flops_per_interaction(),
            AnyLaw::Gravity(l) => l.flops_per_interaction(),
            AnyLaw::Lj(l) => l.flops_per_interaction(),
            AnyLaw::RepulsiveCutoff(l) => l.flops_per_interaction(),
            AnyLaw::GravityCutoff(l) => l.flops_per_interaction(),
        }
    }
}

fn run_cmd(opts: &HashMap<String, String>, verify: bool) -> ExitCode {
    let n: usize = get(opts, "n", 1024);
    let p: usize = get(opts, "p", 8);
    let c: usize = get(opts, "c", 2);
    let steps: usize = get(opts, "steps", 20);
    let dt: f64 = get(opts, "dt", 0.005);
    let default_cutoff = if opts.get("law").map(String::as_str) == Some("lj") {
        2.5
    } else {
        0.25
    };
    let cutoff: f64 = get(opts, "cutoff", default_cutoff);
    let method_name = opts.get("method").map(String::as_str).unwrap_or("ca");
    let law_name = opts.get("law").map(String::as_str).unwrap_or("repulsive");
    let seed: u64 = get(opts, "seed", 42);
    let (boundary, boundary_name) = match opts.get("boundary").map(String::as_str) {
        Some("periodic") => (Boundary::Periodic, "periodic"),
        Some("open") => (Boundary::Open, "open"),
        _ => (Boundary::Reflective, "reflective"),
    };

    let method = match method_name {
        "ca" => Method::CaAllPairs { c },
        "ring" => Method::ParticleRing,
        "ring-symmetric" => Method::ParticleRingSymmetric,
        "allgather" => Method::NaiveAllgather,
        "force-decomp" => Method::ForceDecomposition,
        "ca-cutoff-1d" => Method::Ca1dCutoff { c },
        "ca-cutoff-2d" => Method::Ca2dCutoff { c },
        "halo-1d" => Method::SpatialHalo1d,
        "halo-2d" => Method::SpatialHalo2d,
        "midpoint-1d" => Method::Midpoint1d,
        "midpoint-2d" => Method::Midpoint2d,
        other => {
            eprintln!("unknown method '{other}'");
            return ExitCode::FAILURE;
        }
    };
    let law = match (law_name, method.needs_cutoff()) {
        ("repulsive", false) => AnyLaw::Repulsive(RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        }),
        ("repulsive", true) => AnyLaw::RepulsiveCutoff(Cutoff::new(
            RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            cutoff,
        )),
        ("gravity", false) => AnyLaw::Gravity(Gravity {
            g: 1e-3,
            softening: 0.02,
        }),
        ("gravity", true) => AnyLaw::GravityCutoff(Cutoff::new(
            Gravity {
                g: 1e-3,
                softening: 0.02,
            },
            cutoff,
        )),
        ("lj", _) => AnyLaw::Lj(Cutoff::new(LennardJones::default(), cutoff)),
        (other, _) => {
            eprintln!("unknown law '{other}'");
            return ExitCode::FAILURE;
        }
    };

    // LJ needs a domain scaled to sigma (lattice spacing ~1.2 sigma) and a
    // lattice start; the other laws use the paper's unit box.
    let domain = if law_name == "lj" {
        Domain::square((n as f64).sqrt() * 1.2)
    } else {
        Domain::unit()
    };
    let mut cfg = SimConfig {
        law,
        integrator: SemiImplicitEuler,
        domain,
        boundary,
        dt,
        steps,
    };
    let mut initial = if law_name == "lj" {
        init::lattice(n, &cfg.domain)
    } else {
        init::uniform(n, &cfg.domain, seed)
    };
    init::thermalize(&mut initial, get(opts, "temperature", 1e-4), 7);

    let trace_path = opts.get("trace").cloned();
    let metrics_path = opts.get("metrics").cloned();
    let timeline_path = opts.get("record-timeline").cloned();
    let wire_path = opts.get("wire-probe").cloned();
    let profile = opts.get("profile").is_some_and(|v| v != "false");
    let serve_addr = opts.get("serve-metrics").cloned();
    let tracing = trace_path.is_some()
        || profile
        || metrics_path.is_some()
        || serve_addr.is_some()
        || timeline_path.is_some()
        || wire_path.is_some();

    // The endpoint comes up before the run (serving an empty snapshot) so
    // scrapers can connect while the simulation is in flight; the final
    // snapshot is published after the run and held for a grace period.
    let server = match &serve_addr {
        Some(addr) => match MetricsServer::start(addr.as_str()) {
            Ok(s) => {
                println!("  serving metrics on http://{}/metrics", s.local_addr());
                Some(s)
            }
            Err(e) => {
                eprintln!("cannot serve metrics on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let faults = match opts.get("faults") {
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("invalid --faults spec: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // Numerical-health monitors: --health turns them on; the injection
    // flags (seeded non-finite / replica corruption) imply them, since an
    // injection without its monitor would be an unobserved fault.
    let health_cfg: Option<HealthConfig> = {
        let on = opts.get("health").is_some_and(|v| v != "false")
            || opts.contains_key("health-every")
            || opts.contains_key("inject-nan")
            || opts.contains_key("corrupt-replica");
        if on {
            let mut h = HealthConfig::enabled();
            h.every = get(opts, "health-every", 1u64).max(1);
            if let Some(spec) = opts.get("inject-nan") {
                match HealthInjection::parse_target(spec) {
                    Ok(t) => h.injection.nan = Some(t),
                    Err(e) => {
                        eprintln!("invalid --inject-nan target: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if let Some(spec) = opts.get("corrupt-replica") {
                match HealthInjection::parse_target(spec) {
                    Ok(t) => h.injection.corrupt = Some(t),
                    Err(e) => {
                        eprintln!("invalid --corrupt-replica target: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Some(h)
        } else {
            None
        }
    };

    // The fault-tolerant lenses run the CA recovery loop, which only the
    // CA methods have.
    let resume_dir = opts.get("resume").cloned();
    let ckpt_dir = opts.get("checkpoint-dir").cloned().or_else(|| resume_dir.clone());
    let fault_tolerant = faults.is_some() || ckpt_dir.is_some() || health_cfg.is_some();
    if fault_tolerant
        && !matches!(
            method,
            Method::CaAllPairs { .. } | Method::Ca1dCutoff { .. } | Method::Ca2dCutoff { .. }
        )
    {
        eprintln!(
            "each of --faults/--checkpoint-dir/--resume/--health requires a CA method \
             (ca, ca-cutoff-1d, ca-cutoff-2d)"
        );
        return ExitCode::FAILURE;
    }
    // The health monitors and the checkpoint sink share one recovery
    // loop, but that combination is untested, so it is rejected.
    if health_cfg.is_some() && ckpt_dir.is_some() {
        eprintln!("--health cannot be combined with --checkpoint-dir/--resume");
        return ExitCode::FAILURE;
    }

    // The adaptive retry policy: CLI flags beat env overrides beat
    // `RetryPolicy::default()` (env values were validated by
    // `validate_env` at startup).
    let defaults = RetryPolicy::default();
    let millis = |d: Duration| d.as_millis() as u64;
    let timeout_ms = flag_or_env(
        opts,
        "fault-timeout-ms",
        "NBODY_RETRY_TIMEOUT_MS",
        millis(defaults.base_timeout),
    );
    let policy = RetryPolicy {
        base_timeout: Duration::from_millis(timeout_ms),
        peer_dead_timeout: Duration::from_millis(get(opts, "peer-dead-timeout-ms", timeout_ms)),
        backoff: flag_or_env(
            opts,
            "retry-backoff",
            "NBODY_RETRY_BACKOFF",
            defaults.backoff,
        ),
        jitter: flag_or_env(opts, "retry-jitter", "NBODY_RETRY_JITTER", defaults.jitter),
        max_retries: flag_or_env(opts, "max-retries", "NBODY_RETRY_MAX", defaults.max_retries),
        budget: Duration::from_millis(flag_or_env(
            opts,
            "retry-budget-ms",
            "NBODY_RETRY_BUDGET_MS",
            millis(defaults.budget),
        )),
        seed: get(opts, "retry-seed", seed),
    };

    // Durable checkpointing: --checkpoint-dir turns on the cadence sink,
    // --resume restores the newest bundle from a directory (and keeps
    // checkpointing into it unless --checkpoint-dir redirects).
    let mut base_step: u64 = 0;
    let mut resumed_from: Option<u64> = None;
    let ckpt: Option<CheckpointConfig> = if let Some(dir) = &ckpt_dir {
        let every: usize = flag_or_env(opts, "checkpoint-every", "NBODY_CHECKPOINT_EVERY", 1);
        if every == 0 {
            eprintln!("checkpoint-every must be a positive step count");
            return ExitCode::FAILURE;
        }
        let crash_at: Option<u64> = match opts.get("crash-at-step") {
            Some(v) => match v.trim().parse() {
                Ok(s) => Some(s),
                Err(_) => {
                    eprintln!("--crash-at-step must be an integer step, got '{v}'");
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        // The fingerprint is derived from the *total* run configuration,
        // so a resumed continuation stamps (and checks) the same digest
        // the original run did.
        let fingerprint = RunFingerprint {
            n,
            p,
            c: method.replication(),
            method: method_name.to_string(),
            law: law_name.to_string(),
            boundary: boundary_name.to_string(),
            dt,
            steps,
            seed,
            cutoff: if method.needs_cutoff() { cutoff } else { 0.0 },
            domain: [cfg.domain.min.x, cfg.domain.min.y, cfg.domain.max.x, cfg.domain.max.y],
        }
        .digest();
        if let Some(dir) = &resume_dir {
            let bundle = match load_latest(std::path::Path::new(dir)) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot resume from {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = bundle.validate_fingerprint(&fingerprint) {
                eprintln!("resume rejected: {e}");
                return ExitCode::FAILURE;
            }
            if bundle.step as usize > steps {
                eprintln!(
                    "resume rejected: checkpoint is at step {} but the run has only {steps}",
                    bundle.step
                );
                return ExitCode::FAILURE;
            }
            base_step = bundle.step;
            resumed_from = Some(bundle.step);
            initial = bundle.all_particles();
            cfg.steps = steps - base_step as usize;
            println!(
                "  resumed from {dir} at step {base_step} ({} particles, {} steps left)",
                initial.len(),
                cfg.steps
            );
        }
        Some(CheckpointConfig {
            dir: std::path::PathBuf::from(dir),
            every,
            base_step,
            fingerprint,
            seed,
            crash_at,
        })
    } else {
        None
    };

    println!("{method:?} on {p} ranks: n={n}, steps={steps}, dt={dt}, law={law_name}");
    let plan = faults.clone().unwrap_or_else(FaultPlan::empty);
    let recovery = fault_tolerant.then_some(Recovery {
        plan: &plan,
        policy: &policy,
        ckpt: ckpt.as_ref(),
        health: health_cfg.as_ref(),
    });
    let run_opts = RunOptions {
        record: tracing,
        wire: wire_path.is_some(),
        recovery,
    };
    let start = std::time::Instant::now();
    let out = run(&cfg, method, p, &run_opts, &initial);
    let (trace, timeline, wire) = (out.trace, out.timeline, out.wire);
    let metrics = out.metrics.unwrap_or_else(MetricsSnapshot::empty);
    let result = match out.result {
        Ok(result) => result,
        Err(e) => {
            if health_cfg.is_some() && faults.is_none() {
                eprintln!("health-instrumented run failed: {e}");
            } else {
                eprintln!("fault-injected run failed: {e}");
            }
            // The flight recorder was on the whole time: dump the
            // postmortem bundle so the failure can be diagnosed.
            if let (Some(path), Some(timeline)) = (&timeline_path, timeline) {
                let bundle = if timeline.is_postmortem() {
                    timeline
                } else {
                    timeline.with_failure(&e.to_string())
                };
                match std::fs::write(path, bundle.to_json()) {
                    Ok(()) => eprintln!("postmortem bundle written to {path}"),
                    Err(we) => eprintln!("cannot write postmortem to {path}: {we}"),
                }
            }
            // The wire log survives the failure too: what actually
            // crossed the wire is exactly what a postmortem needs.
            if let (Some(path), Some(w)) = (&wire_path, &wire) {
                match std::fs::write(path, w.to_json()) {
                    Ok(()) => eprintln!("wire-probe log written to {path}"),
                    Err(we) => eprintln!("cannot write wire log to {path}: {we}"),
                }
            }
            return ExitCode::FAILURE;
        }
    };
    if let Some(plan) = &faults {
        println!(
            "  faults [{}]: max attempts {}, recovered: {}",
            plan.spec(),
            result.max_attempts,
            result.recovered
        );
    }
    if result.shrinks > 0 {
        println!(
            "  degraded: world shrank {}x onto {} ranks, {} particles lost",
            result.shrinks, result.final_ranks, result.lost_particles
        );
    }
    let health_report = result.health;
    if let Some(hr) = &health_report {
        println!(
            "  health: {} steps checked, max |ΔE/E₀| {:.3e}, max |p| {:.3e}, \
             {} sentinel event(s), {} fingerprint mismatch(es)",
            hr.steps_checked,
            hr.max_rel_energy_drift,
            hr.max_momentum_norm,
            hr.sentinel_events,
            hr.fingerprint_mismatches
        );
    }
    let elapsed = start.elapsed();
    let kinetic = diagnostics::total_kinetic_energy(&result.particles);
    println!(
        "  done in {elapsed:.2?}; kinetic energy {kinetic:.4e}; rank-0 messages {}",
        result.stats[0].total_messages()
    );

    if let (Some(path), Some(trace)) = (&trace_path, &trace) {
        let body = if path.ends_with(".jsonl") {
            trace.to_jsonl()
        } else if path.ends_with(".csv") {
            trace.to_events_csv()
        } else {
            trace.to_chrome_json()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  trace written to {path} ({} spans)", trace.spans.len());
    }
    if let Some(path) = &metrics_path {
        let body = if path.ends_with(".prom") {
            metrics.to_prometheus()
        } else {
            metrics.to_json().to_string()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  metrics written to {path} ({} ranks)", metrics.ranks.len());
    }
    if let (Some(path), Some(tl)) = (&timeline_path, &timeline) {
        if let Err(e) = std::fs::write(path, tl.to_json()) {
            eprintln!("cannot write timeline to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "  timeline written to {path} ({} ranks, {} step samples)",
            tl.ranks.len(),
            tl.ranks.iter().map(|r| r.samples.len()).sum::<usize>()
        );
    }
    if let (Some(path), Some(w)) = (&wire_path, &wire) {
        if let Err(e) = std::fs::write(path, w.to_json()) {
            eprintln!("cannot write wire log to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "  wire probes written to {path} ({} events, {} evicted)",
            w.total_events(),
            w.total_dropped()
        );
    }
    if profile {
        if let Some(trace) = &trace {
            print_breakdown(trace);
        }
    }
    if let Some(server) = &server {
        server.publish(&metrics);
        if let Some(tl) = &timeline {
            server.publish_timeline(tl);
            println!(
                "  dashboard live at http://{}/dashboard",
                server.local_addr()
            );
        }
        if let Some(w) = &wire {
            server.publish_wire(w);
            println!("  wire log live at http://{}/wire", server.local_addr());
        }
        println!(
            "  metrics published at http://{}/metrics ({} ranks)",
            server.local_addr(),
            metrics.ranks.len()
        );
    }

    let mut max_err = None;
    let degraded = result.shrinks > 0 || result.lost_particles > 0;
    if verify && degraded {
        // A shrunken run dropped the dead columns' particles mid-flight;
        // the full-world serial trajectory is no longer the reference.
        println!("  degraded run: serial verification skipped");
    }
    if verify && !degraded {
        let serial = run_serial(&cfg, &initial);
        let err = result
            .particles
            .iter()
            .zip(&serial)
            .map(|(a, b)| (a.pos - b.pos).norm())
            .fold(0.0, f64::max);
        max_err = Some(err);
        println!("  max deviation vs serial: {err:.3e}");
        if err > 1e-9 {
            eprintln!("VERIFY FAILED");
            return ExitCode::FAILURE;
        }
        println!("  VERIFY OK");
    }

    // Machine-readable one-line summary, always the last stdout line.
    let mut summary = vec![
        ("cmd".to_string(), Json::Str(if verify { "verify" } else { "run" }.into())),
        ("method".to_string(), Json::Str(method_name.into())),
        ("law".to_string(), Json::Str(law_name.into())),
        ("n".to_string(), Json::Num(n as f64)),
        ("p".to_string(), Json::Num(p as f64)),
        ("c".to_string(), Json::Num(method.replication() as f64)),
        ("steps".to_string(), Json::Num(steps as f64)),
        ("elapsed_secs".to_string(), Json::Num(elapsed.as_secs_f64())),
        ("kinetic_energy".to_string(), Json::Num(kinetic)),
        (
            "rank0_messages".to_string(),
            Json::Num(result.stats[0].total_messages() as f64),
        ),
    ];
    if let Some(trace) = &trace {
        summary.push(("trace_spans".to_string(), Json::Num(trace.spans.len() as f64)));
        summary.push((
            "trace_wall_secs".to_string(),
            Json::Num(trace.wall_secs()),
        ));
        // Post-run diagnosis: per-phase imbalance factors and the
        // critical-path split of the makespan (what actually gated the
        // run, not the mean across ranks).
        let a = analyze(trace, Some(&metrics), method.replication());
        let (crit_compute, crit_comm, crit_blocked) = a.critical_split();
        summary.push((
            "critical_compute_secs".to_string(),
            Json::Num(crit_compute),
        ));
        summary.push(("critical_comm_secs".to_string(), Json::Num(crit_comm)));
        summary.push((
            "critical_blocked_secs".to_string(),
            Json::Num(crit_blocked),
        ));
        summary.push((
            "imbalance".to_string(),
            Json::Obj(
                a.imbalance
                    .iter()
                    .map(|i| (i.phase.label().to_string(), Json::Num(i.factor)))
                    .collect(),
            ),
        ));
    }
    if let Some(path) = &trace_path {
        summary.push(("trace_path".to_string(), Json::Str(path.clone())));
    }
    if let (Some(path), Some(tl)) = (&timeline_path, &timeline) {
        summary.push(("timeline_path".to_string(), Json::Str(path.clone())));
        summary.push((
            "timeline_samples".to_string(),
            Json::Num(tl.ranks.iter().map(|r| r.samples.len()).sum::<usize>() as f64),
        ));
        summary.push((
            "drift_windows".to_string(),
            Json::Num(tl.drift(&DriftConfig::default()).len() as f64),
        ));
    }
    if let Some(path) = &metrics_path {
        summary.push(("metrics_path".to_string(), Json::Str(path.clone())));
        let total_sends: u64 = ALL_PHASES
            .iter()
            .map(|ph| metrics.sum_counter("comm_send_messages", Some(*ph)))
            .sum();
        summary.push((
            "total_send_messages".to_string(),
            Json::Num(total_sends as f64),
        ));
    }
    if let (Some(path), Some(w)) = (&wire_path, &wire) {
        summary.push(("wire_probe_path".to_string(), Json::Str(path.clone())));
        summary.push((
            "wire_events".to_string(),
            Json::Num(w.total_events() as f64),
        ));
        summary.push((
            "wire_dropped_events".to_string(),
            Json::Num(w.total_dropped() as f64),
        ));
    }
    if let Some(err) = max_err {
        summary.push(("max_deviation".to_string(), Json::Num(err)));
        summary.push(("verify_ok".to_string(), Json::Bool(true)));
    }
    if let Some(server) = &server {
        summary.push((
            "metrics_endpoint".to_string(),
            Json::Str(format!("http://{}/metrics", server.local_addr())),
        ));
        summary.push((
            "compute_flops".to_string(),
            Json::Num(metrics.sum_counter("compute_flops", None) as f64),
        ));
    }
    if fault_tolerant {
        let r = &result;
        summary.push(("max_attempts".to_string(), Json::Num(r.max_attempts as f64)));
        summary.push(("recovered".to_string(), Json::Bool(r.recovered)));
        summary.push(("shrinks".to_string(), Json::Num(r.shrinks as f64)));
        summary.push((
            "lost_particles".to_string(),
            Json::Num(r.lost_particles as f64),
        ));
        summary.push(("final_ranks".to_string(), Json::Num(r.final_ranks as f64)));
        if let Some(plan) = &faults {
            summary.push(("faults".to_string(), Json::Str(plan.spec())));
            for key in [
                "fault_injected_total",
                "fault_detected_total",
                "fault_retries_total",
                "recovery_bytes_total",
            ] {
                summary.push((
                    key.to_string(),
                    Json::Num(metrics.sum_counter(key, None) as f64),
                ));
            }
        }
    }
    let mut health_violations: Vec<String> = Vec::new();
    if let Some(hr) = &health_report {
        summary.push((
            "health_steps_checked".to_string(),
            Json::Num(hr.steps_checked as f64),
        ));
        summary.push((
            "health_sentinel_events".to_string(),
            Json::Num(hr.sentinel_events as f64),
        ));
        summary.push((
            "health_fingerprint_mismatches".to_string(),
            Json::Num(hr.fingerprint_mismatches as f64),
        ));
        summary.push(("energy0".to_string(), Json::Num(hr.energy_first)));
        summary.push(("energy_final".to_string(), Json::Num(hr.energy_last)));
        summary.push((
            "energy_drift_rel".to_string(),
            Json::Num(hr.max_rel_energy_drift),
        ));
        summary.push((
            "momentum_norm_max".to_string(),
            Json::Num(hr.max_momentum_norm),
        ));
        // The CI gate: drift and event counts against the versioned
        // baseline. An explicitly named baseline must exist; the default
        // one is optional (monitors still ran, the gate is just skipped).
        let explicit = opts.get("health-baseline").cloned();
        let base_path = explicit
            .clone()
            .unwrap_or_else(|| "bench_results/health_baseline.json".to_string());
        match std::fs::read_to_string(&base_path) {
            Ok(body) => match HealthBaseline::parse(&body) {
                Ok(base) => {
                    health_violations = base.gate(hr);
                    summary.push((
                        "health_gate".to_string(),
                        Json::Str(if health_violations.is_empty() { "pass" } else { "fail" }.into()),
                    ));
                }
                Err(e) => {
                    eprintln!("invalid health baseline {base_path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                if explicit.is_some() {
                    eprintln!("cannot read health baseline {base_path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(ck) = &ckpt {
        summary.push((
            "checkpoint_dir".to_string(),
            Json::Str(ck.dir.display().to_string()),
        ));
        summary.push(("checkpoint_every".to_string(), Json::Num(ck.every as f64)));
        for key in ["checkpoint_persisted_total", "checkpoint_bytes_total"] {
            summary.push((
                key.to_string(),
                Json::Num(metrics.sum_counter(key, None) as f64),
            ));
        }
    }
    if let Some(step) = resumed_from {
        summary.push(("resumed_from_step".to_string(), Json::Num(step as f64)));
    }
    println!("{}", Json::Obj(summary));
    if let Some(server) = server {
        // Hold the endpoint open so an external scraper launched against
        // the printed address can still collect the final snapshot.
        let hold_ms: u64 = get(opts, "serve-metrics-hold-ms", 2000);
        std::thread::sleep(std::time::Duration::from_millis(hold_ms));
        server.shutdown();
    }
    if !health_violations.is_empty() {
        for v in &health_violations {
            eprintln!("HEALTH GATE: {v}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Print the paper-style per-phase table and the per-step driver-section
/// table of a trace (`--profile` and the `report` subcommand).
fn print_breakdown(trace: &ExecutionTrace) {
    let b = trace.phase_breakdown();
    println!(
        "per-phase wall-clock across {} ranks (seconds per rank):",
        b.ranks
    );
    println!(
        "  {:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "phase", "mean", "p50", "p95", "max", "blocked", "share"
    );
    for (phase, d) in &b.phases {
        if d.max == 0.0 {
            continue;
        }
        let blocked = b
            .blocked
            .iter()
            .find(|(p, _)| p == phase)
            .map_or(0.0, |(_, s)| *s);
        println!(
            "  {:<10} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>6.1}%",
            phase.label(),
            d.mean,
            d.p50,
            d.p95,
            d.max,
            blocked,
            100.0 * d.mean / b.wall_secs.max(f64::MIN_POSITIVE),
        );
    }
    println!(
        "  phase sum {:.6} s of {:.6} s wall ({:.1}%)",
        b.phase_sum_secs(),
        b.wall_secs,
        100.0 * b.phase_sum_secs() / b.wall_secs.max(f64::MIN_POSITIVE),
    );

    let reports = trace.step_reports();
    if reports.is_empty() {
        return;
    }
    println!("per-step driver sections (seconds, mean / max across ranks):");
    for r in &reports {
        print!("  step {:>3}:", r.step);
        for (name, d) in &r.parts {
            print!(" {name} {:.6}/{:.6}", d.mean, d.max);
        }
        println!();
    }
}

fn report_cmd(positional: &[String]) -> ExitCode {
    let Some(path) = positional.first() else {
        eprintln!("usage: ca-nbody report <trace.json|trace.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match ExecutionTrace::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{path}: {} spans over {} ranks, {:.6} s wall",
        trace.spans.len(),
        trace.ranks,
        trace.wall_secs()
    );
    print_breakdown(&trace);
    ExitCode::SUCCESS
}

/// Run real instrumented executions across replication factors and audit
/// the measured communication against the paper's bounds and predictions.
fn audit_cmd(opts: &HashMap<String, String>) -> ExitCode {
    let n: usize = get(opts, "n", 4096);
    let p: usize = get(opts, "p", 16);
    let steps: usize = get(opts, "steps", 1);
    let seed: u64 = get(opts, "seed", 42);
    let cutoff_frac: f64 = get(opts, "cutoff", 0.0);
    if n == 0 || p == 0 || steps == 0 {
        eprintln!("audit: n, p, and steps must be positive");
        return ExitCode::FAILURE;
    }

    let mut ceilings = FactorCeilings::default();
    if let Some(path) = opts.get("baseline") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        ceilings = match ceilings_from_json(&doc) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
    }

    let domain = Domain::unit();
    // A c is auditable if its processor grid is valid (and, with a cutoff,
    // the replication fits inside the interaction window).
    let usable = |c: usize| -> Result<(), String> {
        if cutoff_frac > 0.0 {
            let grid = ProcGrid::new(p, c).map_err(|e| e.to_string())?;
            let window = Window1d::from_cutoff(&domain, grid.teams(), cutoff_frac);
            validate_cutoff(&window, grid.teams(), c).map_err(|e| e.to_string())
        } else {
            ProcGrid::new_all_pairs(p, c)
                .map(|_| ())
                .map_err(|e| e.to_string())
        }
    };
    let cs: Vec<usize> = match opts.get("c") {
        Some(v) => {
            let Ok(c) = v.parse::<usize>() else {
                eprintln!("audit: invalid replication factor '{v}'");
                return ExitCode::FAILURE;
            };
            if let Err(e) = usable(c) {
                eprintln!("audit: c={c} is not usable with p={p}: {e}");
                return ExitCode::FAILURE;
            }
            vec![c]
        }
        // Default sweep: every c = 1..√p the grid supports.
        None => ProcGrid::valid_all_pairs_factors(p)
            .into_iter()
            .filter(|&c| usable(c).is_ok())
            .collect(),
    };
    if cs.is_empty() {
        eprintln!("audit: no usable replication factors for p={p}");
        return ExitCode::FAILURE;
    }

    let (algorithm, algo_name) = if cutoff_frac > 0.0 {
        (
            AuditAlgorithm::Cutoff1d {
                rc_over_l: cutoff_frac,
            },
            "cutoff-1d",
        )
    } else {
        (AuditAlgorithm::AllPairs, "all-pairs")
    };
    println!(
        "optimality audit: {algo_name} n={n} p={p} steps={steps}, c in {cs:?} \
         (ceilings: latency {:.1}, bandwidth {:.1})",
        ceilings.latency, ceilings.bandwidth
    );

    let wire_on = opts.get("wire").is_some_and(|v| v != "false");
    let mut reports = Vec::new();
    let mut rooflines: Vec<RooflineReport> = Vec::new();
    let mut wire_sections: Vec<(usize, String)> = Vec::new();
    let mut wire_predicted = 0u64;
    let mut wire_observed = 0u64;
    let calibration = match load_calibration(opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for &c in &cs {
        let base_law = RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        };
        let (law, method) = if cutoff_frac > 0.0 {
            (
                AnyLaw::RepulsiveCutoff(Cutoff::new(base_law, cutoff_frac)),
                Method::Ca1dCutoff { c },
            )
        } else {
            (AnyLaw::Repulsive(base_law), Method::CaAllPairs { c })
        };
        let cfg = SimConfig {
            law,
            integrator: SemiImplicitEuler,
            domain,
            boundary: Boundary::Reflective,
            dt: 0.001,
            steps,
        };
        let initial = init::uniform(n, &cfg.domain, seed);
        // With --wire the same audited run also records message-level
        // probes, so the table can compare observed traffic against the
        // schedule's per-phase predictions.
        let audited = RunOptions {
            record: true,
            wire: wire_on,
            recovery: None,
        };
        let out = run(&cfg, method, p, &audited, &initial);
        let metrics = out.metrics.expect("audited runs record");
        if let Some(log) = &out.wire {
            let spec = WireScheduleSpec {
                method,
                n,
                p,
                steps,
                domain,
                boundary: Boundary::Reflective,
                cutoff: (cutoff_frac > 0.0).then_some(cutoff_frac),
            };
            match expected_schedule(&spec) {
                Ok(expected) => {
                    let rows = wire_phase_counts(&expected, log);
                    wire_predicted += rows.iter().map(|r| r.predicted).sum::<u64>();
                    wire_observed += rows.iter().map(|r| r.observed).sum::<u64>();
                    wire_sections.push((c, wire_phase_table(&rows)));
                }
                Err(e) => {
                    eprintln!("audit: cannot derive wire schedule for c={c}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        // The same instrumented run feeds both sides of the audit: its
        // comm counters go to the optimality check, its compute counters
        // to the roofline.
        rooflines.push(roofline(
            &format!("{algo_name} c={c}"),
            &metrics,
            &calibration,
        ));
        let input = AuditInput::from_snapshot(&metrics);
        let acfg = AuditConfig {
            n: n as u64,
            p: p as u64,
            c: c as u64,
            steps: steps as u64,
            algorithm,
            ceilings,
        };
        reports.push(audit(&acfg, &input));
    }
    print!("{}", audit_table(&reports));
    for (c, table) in &wire_sections {
        println!("c={c}:");
        print!("{table}");
    }

    if let Some(path) = opts.get("out") {
        let body = if path.ends_with(".csv") {
            audit_csv(&reports)
        } else {
            audit_json(&reports).to_string()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write audit report to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("audit report written to {path}");
    }

    print!("{}", roofline_table(&rooflines));
    if let Some(path) = opts.get("roofline-out") {
        let body = if path.ends_with(".csv") {
            roofline_csv(&rooflines)
        } else {
            roofline_json(&rooflines).to_string()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write roofline report to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("roofline report written to {path}");
    }

    let roofline_best = rooflines
        .iter()
        .map(RooflineReport::best_pct)
        .fold(0.0, f64::max);
    let mut roofline_pass = true;
    if let Some(path) = opts.get("roofline-baseline") {
        let gate = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}")))
            .and_then(|doc| RooflineGate::from_json(&doc));
        let gate = match gate {
            Ok(g) => g,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        match gate.check(&rooflines) {
            Ok(best) => println!(
                "roofline gate: best rank {best:.2}% of roofline >= floor \
                 {:.2}% - {:.2}%",
                gate.min_pct, gate.tolerance_pct
            ),
            Err(e) => {
                eprintln!("{e}");
                roofline_pass = false;
            }
        }
    }

    let rows = reports
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("c".to_string(), Json::Num(r.config.c as f64)),
                ("s_factor".to_string(), Json::Num(r.s_factor)),
                ("w_factor".to_string(), Json::Num(r.w_factor)),
                (
                    "shift_words".to_string(),
                    Json::Num(r.shift_words() as f64),
                ),
                ("pass".to_string(), Json::Bool(r.pass)),
            ])
        })
        .collect();
    let mut summary = vec![
        ("cmd".to_string(), Json::Str("audit".into())),
        ("algorithm".to_string(), Json::Str(algo_name.into())),
        ("n".to_string(), Json::Num(n as f64)),
        ("p".to_string(), Json::Num(p as f64)),
        ("steps".to_string(), Json::Num(steps as f64)),
        ("rows".to_string(), Json::Arr(rows)),
        ("roofline_best_pct".to_string(), Json::Num(roofline_best)),
        ("roofline_pass".to_string(), Json::Bool(roofline_pass)),
        (
            "pass".to_string(),
            Json::Bool(reports.iter().all(|r| r.pass) && roofline_pass),
        ),
    ];
    if wire_on {
        summary.push((
            "wire_predicted_msgs".to_string(),
            Json::Num(wire_predicted as f64),
        ));
        summary.push((
            "wire_observed_msgs".to_string(),
            Json::Num(wire_observed as f64),
        ));
    }
    let summary = Json::Obj(summary);
    println!("{summary}");
    if !reports.iter().all(|r| r.pass) {
        eprintln!("AUDIT FAILED: a constant factor exceeded its ceiling");
        ExitCode::FAILURE
    } else if !roofline_pass {
        eprintln!("AUDIT FAILED: compute efficiency fell below the roofline baseline");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Resolve the machine calibration the roofline uses: an explicit
/// `--calibration` path, else the checked-in default if present, else a
/// quick in-process measurement.
fn load_calibration(opts: &HashMap<String, String>) -> Result<MachineCalibration, String> {
    const DEFAULT_PATH: &str = "bench_results/machine_calibration.json";
    let explicit = opts.get("calibration").map(String::as_str);
    let path = explicit.unwrap_or(DEFAULT_PATH);
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
            let cal = MachineCalibration::from_json(&doc)?;
            println!(
                "calibration from {path}: peak {:.2} GFLOP/s, bandwidth {:.2} GB/s",
                cal.peak_gflops, cal.mem_bw_gbytes
            );
            Ok(cal)
        }
        Err(e) if explicit.is_some() => Err(format!("cannot read {path}: {e}")),
        Err(_) => {
            // No recorded calibration: measure a quick one so the audit
            // still renders a roofline (noisier than the recorded file).
            let cal = MachineCalibration::measure(&CalibrationConfig::quick());
            println!(
                "no {DEFAULT_PATH}; quick live calibration: peak {:.2} GFLOP/s, \
                 bandwidth {:.2} GB/s",
                cal.peak_gflops, cal.mem_bw_gbytes
            );
            Ok(cal)
        }
    }
}

/// `calibrate`: run the machine microbenchmarks and persist the ceilings.
fn calibrate_cmd(opts: &HashMap<String, String>) -> ExitCode {
    let full = opts.get("full").is_some_and(|v| v != "false");
    let mut cfg = if full {
        CalibrationConfig::full()
    } else {
        CalibrationConfig::quick()
    };
    cfg.seed = get(opts, "seed", cfg.seed);
    println!(
        "calibrating ({}): {} multiply-add iters, {} MiB stream, best of {}",
        if full { "full" } else { "quick" },
        cfg.madd_iters,
        cfg.stream_mib,
        cfg.repeats
    );
    let start = std::time::Instant::now();
    let cal = MachineCalibration::measure(&cfg);
    let elapsed = start.elapsed();
    println!(
        "  multiply-add peak {:.3} GFLOP/s, stream bandwidth {:.3} GB/s ({elapsed:.2?})",
        cal.peak_gflops, cal.mem_bw_gbytes
    );
    if let Some(path) = opts.get("out") {
        if let Some(dir) = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty())
        {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(path, cal.to_json().to_string()) {
            eprintln!("cannot write calibration to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  calibration written to {path}");
    }
    let summary = Json::Obj(vec![
        ("cmd".to_string(), Json::Str("calibrate".into())),
        ("full".to_string(), Json::Bool(full)),
        ("seed".to_string(), Json::Num(cfg.seed as f64)),
        ("peak_gflops".to_string(), Json::Num(cal.peak_gflops)),
        ("mem_bw_gbytes".to_string(), Json::Num(cal.mem_bw_gbytes)),
        ("elapsed_secs".to_string(), Json::Num(elapsed.as_secs_f64())),
    ]);
    println!("{summary}");
    ExitCode::SUCCESS
}

/// `chaos`: sweep deterministic fault schedules over a small execution.
///
/// Five passes, all against the same fault-free baseline trajectory:
/// benign seeded schedules (delays + duplicates) that must not even
/// trigger recovery; a kill of every rank at every pipeline step, which
/// must recover **bit-identically** whenever `c >= 2`; a multi-fault
/// pass (`--kills=N`) killing N ranks in distinct columns at once, which
/// must also recover bit-identically; a double kill inside one column,
/// which must *shrink* the world onto the survivors and match a
/// recomposed reference run on the survivor set; and a `c = 1` kill,
/// which must do the same instead of failing. Recovery overhead (worst
/// attempt count, resync bytes per kill relative to one replicated
/// block) is gated against ceilings, by default or from
/// `--baseline=<json>`.
/// Validate a degraded (shrunken) chaos run: the survivors must account
/// for every particle, occupy the expected rank count, and reproduce —
/// bit for bit — a clean recomposed run on the survivor set at the same
/// shrunken grid the degraded run re-derived.
#[allow(clippy::too_many_arguments)]
fn check_shrunk(
    label: &str,
    res: &RunResult,
    cfg: &SimConfig<AnyLaw, SemiImplicitEuler>,
    method: Method,
    initial: &[Particle],
    n: usize,
    expect_ranks: usize,
    r_c: f64,
    failures: &mut Vec<String>,
) {
    if res.shrinks == 0 {
        failures.push(format!("{label}: expected a world shrink, got none"));
        return;
    }
    if res.final_ranks != expect_ranks {
        failures.push(format!(
            "{label}: expected {expect_ranks} surviving ranks, got {}",
            res.final_ranks
        ));
    }
    if res.particles.len() + res.lost_particles != n {
        failures.push(format!(
            "{label}: survivors ({}) + lost ({}) do not cover all {n} particles",
            res.particles.len(),
            res.lost_particles
        ));
        return;
    }
    if res.lost_particles == 0 {
        failures.push(format!("{label}: a dead column should have lost its particles"));
        return;
    }
    // `res.particles` is sorted by id, so the survivor subset of the
    // initial condition falls out of a binary search.
    let ids: Vec<u64> = res.particles.iter().map(|q| q.id).collect();
    let survivors: Vec<Particle> = initial
        .iter()
        .filter(|q| ids.binary_search(&q.id).is_ok())
        .cloned()
        .collect();
    let p2 = res.final_ranks;
    // Mirror the driver's choice: the largest replication the survivor
    // count still supports.
    let reference = match method {
        Method::CaAllPairs { c } => (1..=c)
            .rev()
            .find(|&cc| ProcGrid::new_all_pairs(p2, cc).is_ok())
            .map(|c2| run_distributed(cfg, Method::CaAllPairs { c: c2 }, p2, &survivors).particles),
        Method::Ca1dCutoff { c } => (1..=c)
            .rev()
            .find(|&cc| {
                p2.is_multiple_of(cc)
                    && ProcGrid::new(p2, cc).is_ok()
                    && validate_cutoff(
                        &Window1d::from_cutoff(&cfg.domain, p2 / cc, r_c),
                        p2 / cc,
                        cc,
                    )
                    .is_ok()
            })
            .map(|c2| run_distributed(cfg, Method::Ca1dCutoff { c: c2 }, p2, &survivors).particles),
        _ => None,
    };
    match reference {
        Some(reference) if res.particles == reference => {}
        Some(_) => failures.push(format!(
            "{label}: degraded trajectory diverged from the recomposed survivor reference"
        )),
        None => failures.push(format!(
            "{label}: no valid shrunken grid exists for the reference run"
        )),
    }
}

/// The fault-tolerant runs of a chaos or soak campaign: counted, their
/// metrics summed rank-wise (fault counters sum, memory HWMs take the max),
/// and the flight-recorder bundle of each run that dies dumped into the
/// `--postmortem` directory, one JSON file per failed schedule.
struct Campaign<'a> {
    cfg: &'a SimConfig<AnyLaw, SemiImplicitEuler>,
    p: usize,
    policy: RetryPolicy,
    initial: &'a [Particle],
    runs: usize,
    metrics: MetricsSnapshot,
    postmortem_dir: Option<String>,
    bundles: Vec<String>,
}

impl Campaign<'_> {
    /// Run `method` under `plan`; a run that dies leaves its postmortem
    /// bundle as `name`.
    fn run(
        &mut self,
        method: Method,
        plan: &FaultPlan,
        name: &str,
    ) -> Result<(RunResult, MetricsSnapshot), FaultError> {
        self.runs += 1;
        let recovery = Recovery {
            plan,
            policy: &self.policy,
            ckpt: None,
            health: None,
        };
        let opts = RunOptions {
            recovery: Some(recovery),
            ..RunOptions::default()
        };
        let out = run(self.cfg, method, self.p, &opts, self.initial);
        let recorded = "fault-tolerant runs always record";
        let (metrics, timeline) = (out.metrics.expect(recorded), out.timeline.expect(recorded));
        match out.result {
            Ok(res) => {
                self.metrics.absorb(&metrics);
                Ok((res, metrics))
            }
            Err(e) => {
                self.dump_postmortem(name, &timeline.with_failure(&e.to_string()));
                Err(e)
            }
        }
    }

    fn dump_postmortem(&mut self, name: &str, tl: &RunTimeline) {
        let Some(dir) = &self.postmortem_dir else { return };
        let write = std::fs::create_dir_all(dir).and_then(|()| {
            let path = format!("{dir}/{name}.json");
            std::fs::write(&path, tl.to_json()).map(|()| path)
        });
        match write {
            Ok(path) => {
                println!("  postmortem bundle written to {path}");
                self.bundles.push(name.to_string());
            }
            Err(e) => eprintln!("  cannot write postmortem {name} to {dir}: {e}"),
        }
    }
}

fn chaos_cmd(opts: &HashMap<String, String>) -> ExitCode {
    let n: usize = get(opts, "n", 192);
    let p: usize = get(opts, "p", 8);
    let c: usize = get(opts, "c", 2);
    let steps: usize = get(opts, "steps", 1);
    let seed: u64 = get(opts, "seed", 42);
    let timeout_ms: u64 = get(opts, "fault-timeout-ms", 250);
    let method_name = opts.get("method").map(String::as_str).unwrap_or("ca");
    if c < 2 {
        eprintln!("chaos: the kill sweep needs a surviving replica; pass c >= 2");
        return ExitCode::FAILURE;
    }

    let mut attempts_ceiling = 2.0f64;
    let mut bytes_factor_ceiling = 2.5f64;
    if let Some(path) = opts.get("baseline") {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()));
        let doc = match parsed {
            Ok(d) => d,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("missing or invalid {key:?}"))
        };
        match (field("max_attempts_ceiling"), field("recovery_bytes_factor_ceiling")) {
            (Ok(a), Ok(b)) => {
                attempts_ceiling = a;
                bytes_factor_ceiling = b;
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("cannot parse baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let domain = Domain::unit();
    let base_law = RepulsiveInverseSquare {
        strength: 1e-3,
        softening: 1e-3,
    };
    let (method, law, pipeline_steps) = match method_name {
        "ca" => {
            let grid = match ProcGrid::new_all_pairs(p, c) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("chaos: {e}");
                    return ExitCode::FAILURE;
                }
            };
            (
                Method::CaAllPairs { c },
                AnyLaw::Repulsive(base_law),
                grid.all_pairs_steps(),
            )
        }
        "ca-cutoff-1d" => {
            let grid = match ProcGrid::new(p, c) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("chaos: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let cutoff: f64 = get(opts, "cutoff", 0.25);
            let window = Window1d::from_cutoff(&domain, grid.teams(), cutoff);
            if let Err(e) = validate_cutoff(&window, grid.teams(), c) {
                eprintln!("chaos: {e}");
                return ExitCode::FAILURE;
            }
            (
                Method::Ca1dCutoff { c },
                AnyLaw::RepulsiveCutoff(Cutoff::new(base_law, cutoff)),
                ca_nbody::cutoff::row_steps(window.len(), c, 0),
            )
        }
        other => {
            eprintln!("chaos: unsupported method '{other}' (use ca or ca-cutoff-1d)");
            return ExitCode::FAILURE;
        }
    };

    let cfg = SimConfig {
        law,
        integrator: SemiImplicitEuler,
        domain,
        boundary: Boundary::Reflective,
        dt: 0.005,
        steps,
    };
    let initial = init::uniform(n, &cfg.domain, seed);
    // The sweep asserts exact attempt counts, so it pins the fully
    // deterministic fixed-deadline policy (no backoff, no jitter).
    let policy = RetryPolicy::fixed(timeout_ms, 3);
    println!(
        "chaos sweep: {method_name} n={n} p={p} c={c} steps={steps}, \
         kill schedule 0..={pipeline_steps} x {p} ranks, timeout {timeout_ms} ms"
    );
    let start = std::time::Instant::now();
    let want = run_distributed(&cfg, method, p, &initial).particles;

    let mut failures: Vec<String> = Vec::new();
    // With --metrics the whole sweep's summed counters answer "what did
    // the entire chaos campaign cost".
    let metrics_path = opts.get("metrics").cloned();
    let mut campaign = Campaign {
        cfg: &cfg,
        p,
        policy,
        initial: &initial,
        runs: 0,
        metrics: MetricsSnapshot::empty(),
        postmortem_dir: opts.get("postmortem").cloned(),
        bundles: Vec::new(),
    };

    // Benign schedules: delays and duplicates must be absorbed without
    // even triggering recovery.
    for salt in 0..2u64 {
        let plan = FaultPlan::seeded(
            seed.wrapping_add(salt),
            p,
            pipeline_steps,
            4,
            &[FaultKind::Delay, FaultKind::Duplicate],
        );
        match campaign.run(method, &plan, &format!("benign_{salt}")) {
            Ok((res, _)) => {
                if res.particles != want {
                    failures.push(format!("benign [{}]: forces diverged", plan.spec()));
                }
                if res.recovered {
                    failures.push(format!("benign [{}]: spurious recovery", plan.spec()));
                }
            }
            Err(e) => failures.push(format!("benign [{}]: {e}", plan.spec())),
        }
    }

    // The kill sweep: every rank, every pipeline step (0 = skew).
    let nominal_block_bytes = ((n * c / p) * std::mem::size_of::<Particle>()) as f64;
    let mut kills_fired = 0usize;
    let mut worst_attempts = 1usize;
    let mut worst_bytes_factor = 0.0f64;
    for step in 0..=pipeline_steps {
        for rank in 0..p {
            let plan = FaultPlan::kill(rank, step);
            match campaign.run(method, &plan, &format!("kill_{rank}_at_{step}")) {
                Ok((res, metrics)) => {
                    if res.particles != want {
                        failures.push(format!(
                            "kill:{rank}@{step}: forces diverged from fault-free run"
                        ));
                    }
                    // In the cutoff pipeline short rows never reach high
                    // steps, so some scheduled kills legitimately don't fire.
                    if metrics.sum_counter("fault_injected_kill", None) > 0 {
                        kills_fired += 1;
                        if !res.recovered {
                            failures.push(format!("kill:{rank}@{step}: fired but not recovered"));
                        }
                        worst_attempts = worst_attempts.max(res.max_attempts);
                        let bytes = metrics.sum_counter("recovery_bytes_total", None) as f64;
                        worst_bytes_factor = worst_bytes_factor.max(bytes / nominal_block_bytes);
                    }
                }
                Err(e) => failures.push(format!("kill:{rank}@{step}: {e}")),
            }
        }
    }
    if kills_fired == 0 {
        failures.push("no scheduled kill ever fired".to_string());
    }

    // Multi-fault mode: N simultaneous kills spread across *distinct*
    // columns, so every dead rank still has a live replica — recovery
    // must stay bit-identical, with no shrink.
    let kills: usize = get(opts, "kills", 1);
    let teams = p / c;
    if kills >= 2 {
        let picked: Vec<usize> = (0..kills.min(teams)).map(|t| (t % c) * teams + t).collect();
        let spec = picked
            .iter()
            .map(|r| format!("kill:{r}@0"))
            .collect::<Vec<_>>()
            .join(",");
        let plan = FaultPlan::parse(&spec).expect("generated kill spec parses");
        match campaign.run(method, &plan, "multi_kill") {
            Ok((res, metrics)) => {
                if res.particles != want {
                    failures
                        .push(format!("multi-kill [{spec}]: forces diverged from fault-free run"));
                }
                let fired = metrics.sum_counter("fault_injected_kill", None);
                if fired > 0 && !res.recovered {
                    failures.push(format!("multi-kill [{spec}]: fired but not recovered"));
                }
                if res.shrinks != 0 {
                    failures.push(format!("multi-kill [{spec}]: unexpected world shrink"));
                }
                worst_attempts = worst_attempts.max(res.max_attempts);
            }
            Err(e) => failures.push(format!("multi-kill [{spec}]: {e}")),
        }
    }

    let r_c: f64 = get(opts, "cutoff", 0.25);
    let mut shrinks_observed = 0usize;

    // The second availability tier: kill *every* replica of one column,
    // so replica recovery is impossible and the world must shrink onto
    // the survivors, then finish the run matching a recomposed clean run
    // on the survivor set.
    {
        let victim = 1 % teams;
        let spec = (0..c)
            .map(|row| format!("kill:{}@0", row * teams + victim))
            .collect::<Vec<_>>()
            .join(",");
        let plan = FaultPlan::parse(&spec).expect("generated kill spec parses");
        match campaign.run(method, &plan, "double_kill_same_column") {
            Ok((res, _)) => {
                shrinks_observed += res.shrinks;
                check_shrunk(
                    &format!("double-kill [{spec}]"),
                    &res,
                    &cfg,
                    method,
                    &initial,
                    n,
                    p - c,
                    r_c,
                    &mut failures,
                );
            }
            Err(e) => failures.push(format!("double-kill [{spec}]: {e}")),
        }
    }

    // Without replication a single kill leaves no replica at all: the
    // same degraded tier — survivors must agree, shrink to p-1 ranks,
    // and complete instead of failing or deadlocking.
    let m1 = match method {
        Method::CaAllPairs { .. } => Method::CaAllPairs { c: 1 },
        Method::Ca1dCutoff { .. } => Method::Ca1dCutoff { c: 1 },
        _ => unreachable!("chaos supports only CA methods"),
    };
    match campaign.run(m1, &FaultPlan::kill(p / 2, 0), "c1_kill") {
        Ok((res, _)) => {
            shrinks_observed += res.shrinks;
            check_shrunk(
                "c=1 kill",
                &res,
                &cfg,
                m1,
                &initial,
                n,
                p - 1,
                r_c,
                &mut failures,
            );
        }
        Err(e) => failures.push(format!("c=1 kill failed instead of shrinking: {e}")),
    }

    // Total loss: every rank killed in the same step leaves nothing to
    // shrink onto. This is the one fault the degraded tiers cannot absorb
    // — it must fail cleanly (no deadlock, no bogus result) and leave a
    // flight-recorder postmortem for the artifact upload.
    {
        let spec = (0..p)
            .map(|r| format!("kill:{r}@0"))
            .collect::<Vec<_>>()
            .join(",");
        let plan = FaultPlan::parse(&spec).expect("generated kill spec parses");
        match campaign.run(method, &plan, "total_loss_unrecoverable") {
            Ok(_) => {
                failures.push("total loss must be unrecoverable, but the run succeeded".into())
            }
            Err(e) => println!("  total-loss kill failed as required: {e}"),
        }
    }
    let Campaign {
        runs,
        metrics: sweep_metrics,
        postmortem_dir,
        bundles: postmortem_bundles,
        ..
    } = campaign;

    let elapsed = start.elapsed();
    let attempts_ok = (worst_attempts as f64) <= attempts_ceiling;
    let bytes_ok = worst_bytes_factor <= bytes_factor_ceiling;
    if !attempts_ok {
        failures.push(format!(
            "worst attempt count {worst_attempts} exceeds ceiling {attempts_ceiling}"
        ));
    }
    if !bytes_ok {
        failures.push(format!(
            "recovery bytes factor {worst_bytes_factor:.2} exceeds ceiling {bytes_factor_ceiling}"
        ));
    }
    println!(
        "  {runs} runs in {elapsed:.2?}: {kills_fired} kills fired, worst attempts \
         {worst_attempts} (ceiling {attempts_ceiling}), resync bytes/kill \
         {worst_bytes_factor:.2}x block (ceiling {bytes_factor_ceiling})"
    );
    for f in &failures {
        eprintln!("  CHAOS FAILURE: {f}");
    }

    if let Some(path) = &metrics_path {
        let body = if path.ends_with(".prom") {
            sweep_metrics.to_prometheus()
        } else {
            sweep_metrics.to_json().to_string()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "  sweep metrics written to {path} ({} ranks)",
            sweep_metrics.ranks.len()
        );
    }

    let pass = failures.is_empty();
    let mut summary = vec![
        ("cmd".to_string(), Json::Str("chaos".into())),
        ("method".to_string(), Json::Str(method_name.into())),
        ("n".to_string(), Json::Num(n as f64)),
        ("p".to_string(), Json::Num(p as f64)),
        ("c".to_string(), Json::Num(c as f64)),
        ("steps".to_string(), Json::Num(steps as f64)),
        ("runs".to_string(), Json::Num(runs as f64)),
        ("kills_fired".to_string(), Json::Num(kills_fired as f64)),
        ("kills".to_string(), Json::Num(kills as f64)),
        ("shrinks".to_string(), Json::Num(shrinks_observed as f64)),
        ("max_attempts".to_string(), Json::Num(worst_attempts as f64)),
        (
            "recovery_bytes_factor".to_string(),
            Json::Num(worst_bytes_factor),
        ),
        ("elapsed_secs".to_string(), Json::Num(elapsed.as_secs_f64())),
        ("failures".to_string(), Json::Num(failures.len() as f64)),
        ("pass".to_string(), Json::Bool(pass)),
    ];
    if let Some(path) = &metrics_path {
        summary.push(("metrics_path".to_string(), Json::Str(path.clone())));
        summary.push((
            "sweep_compute_flops".to_string(),
            Json::Num(sweep_metrics.sum_counter("compute_flops", None) as f64),
        ));
    }
    if let Some(dir) = &postmortem_dir {
        summary.push(("postmortem_dir".to_string(), Json::Str(dir.clone())));
        summary.push((
            "postmortem_bundles".to_string(),
            Json::Arr(
                postmortem_bundles
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ));
    }
    println!("{}", Json::Obj(summary));
    if pass {
        ExitCode::SUCCESS
    } else {
        eprintln!("CHAOS FAILED: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

/// `soak`: time-boxed randomized chaos. Seeded fault plans (kills,
/// drops, duplicates, delays) are generated from a deterministically
/// advancing seed and run until the wall-clock budget (`seconds`)
/// expires. Every run must terminate cleanly: bit-identical recovery
/// when no column fully died, or a survivor-consistent shrink when one
/// did (single-shrink runs are additionally checked against a
/// recomposed clean run on the survivor set). Failing runs dump
/// flight-recorder postmortems into `--postmortem=DIR` — the CI
/// chaos-soak job uploads that directory on failure.
fn soak_cmd(opts: &HashMap<String, String>) -> ExitCode {
    let n: usize = get(opts, "n", 96);
    let p: usize = get(opts, "p", 8);
    let c: usize = get(opts, "c", 2);
    let steps: usize = get(opts, "steps", 2);
    let seed: u64 = get(opts, "seed", 42);
    let seconds: f64 = get(opts, "seconds", 30.0);
    let events: usize = get(opts, "events", 3);
    let timeout_ms: u64 = get(opts, "fault-timeout-ms", 250);
    let r_c: f64 = get(opts, "cutoff", 0.25);
    let method_name = opts.get("method").map(String::as_str).unwrap_or("ca");

    let domain = Domain::unit();
    let base_law = RepulsiveInverseSquare {
        strength: 1e-3,
        softening: 1e-3,
    };
    let (method, law, pipeline_steps) = match method_name {
        "ca" => {
            let grid = match ProcGrid::new_all_pairs(p, c) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("soak: {e}");
                    return ExitCode::FAILURE;
                }
            };
            (
                Method::CaAllPairs { c },
                AnyLaw::Repulsive(base_law),
                grid.all_pairs_steps(),
            )
        }
        "ca-cutoff-1d" => {
            let grid = match ProcGrid::new(p, c) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("soak: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let window = Window1d::from_cutoff(&domain, grid.teams(), r_c);
            if let Err(e) = validate_cutoff(&window, grid.teams(), c) {
                eprintln!("soak: {e}");
                return ExitCode::FAILURE;
            }
            (
                Method::Ca1dCutoff { c },
                AnyLaw::RepulsiveCutoff(Cutoff::new(base_law, r_c)),
                ca_nbody::cutoff::row_steps(window.len(), c, 0),
            )
        }
        other => {
            eprintln!("soak: unsupported method '{other}' (use ca or ca-cutoff-1d)");
            return ExitCode::FAILURE;
        }
    };
    let cfg = SimConfig {
        law,
        integrator: SemiImplicitEuler,
        domain,
        boundary: Boundary::Reflective,
        dt: 0.005,
        steps,
    };
    let initial = init::uniform(n, &cfg.domain, seed);
    // Unlike the deterministic `chaos` sweep, the soak exercises the
    // adaptive policy: exponential backoff with seeded jitter.
    let policy = RetryPolicy {
        budget: Duration::from_secs(30),
        seed,
        ..RetryPolicy::with_timeout_ms(timeout_ms)
    };
    let want = run_distributed(&cfg, method, p, &initial).particles;
    println!(
        "chaos soak: {method_name} n={n} p={p} c={c} steps={steps}, \
         {seconds:.0}s budget, {events} events/plan, base seed {seed}"
    );

    let start = std::time::Instant::now();
    let mut campaign = Campaign {
        cfg: &cfg,
        p,
        policy,
        initial: &initial,
        runs: 0,
        metrics: MetricsSnapshot::empty(),
        postmortem_dir: opts.get("postmortem").cloned(),
        bundles: Vec::new(),
    };
    let mut shrinks = 0usize;
    let mut recoveries = 0usize;
    let mut failures: Vec<String> = Vec::new();
    loop {
        let plan_seed = seed.wrapping_add(campaign.runs as u64);
        let plan = FaultPlan::seeded(
            plan_seed,
            p,
            pipeline_steps,
            events,
            &[
                FaultKind::Kill,
                FaultKind::Drop,
                FaultKind::Duplicate,
                FaultKind::Delay,
            ],
        );
        match campaign.run(method, &plan, &format!("soak_seed_{plan_seed}")) {
            Ok((res, _)) => {
                if res.recovered {
                    recoveries += 1;
                }
                shrinks += res.shrinks;
                if res.shrinks == 0 {
                    if res.particles != want {
                        failures.push(format!(
                            "seed {plan_seed} [{}]: diverged from fault-free run without a shrink",
                            plan.spec()
                        ));
                    }
                } else if res.shrinks == 1 {
                    check_shrunk(
                        &format!("seed {plan_seed} [{}]", plan.spec()),
                        &res,
                        &cfg,
                        method,
                        &initial,
                        n,
                        res.final_ranks,
                        r_c,
                        &mut failures,
                    );
                } else if res.particles.len() + res.lost_particles != n {
                    failures.push(format!(
                        "seed {plan_seed} [{}]: survivors + lost do not cover all particles",
                        plan.spec()
                    ));
                }
            }
            Err(e) => failures.push(format!("seed {plan_seed} [{}]: {e}", plan.spec())),
        }
        // Enough evidence to diagnose — don't burn the rest of the budget.
        if failures.len() >= 5 || start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let Campaign {
        runs,
        postmortem_dir,
        bundles: postmortem_bundles,
        ..
    } = campaign;

    let elapsed = start.elapsed();
    let pass = failures.is_empty();
    println!(
        "  {runs} seeded runs in {elapsed:.2?}: {recoveries} recoveries, {shrinks} shrinks, \
         {} failure(s)",
        failures.len()
    );
    for f in &failures {
        eprintln!("  SOAK FAILURE: {f}");
    }
    let mut summary = vec![
        ("cmd".to_string(), Json::Str("soak".into())),
        ("method".to_string(), Json::Str(method_name.into())),
        ("n".to_string(), Json::Num(n as f64)),
        ("p".to_string(), Json::Num(p as f64)),
        ("c".to_string(), Json::Num(c as f64)),
        ("steps".to_string(), Json::Num(steps as f64)),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("runs".to_string(), Json::Num(runs as f64)),
        ("recoveries".to_string(), Json::Num(recoveries as f64)),
        ("shrinks".to_string(), Json::Num(shrinks as f64)),
        ("elapsed_secs".to_string(), Json::Num(elapsed.as_secs_f64())),
        ("failures".to_string(), Json::Num(failures.len() as f64)),
        ("pass".to_string(), Json::Bool(pass)),
    ];
    if let Some(dir) = &postmortem_dir {
        summary.push(("postmortem_dir".to_string(), Json::Str(dir.clone())));
        summary.push((
            "postmortem_bundles".to_string(),
            Json::Arr(
                postmortem_bundles
                    .iter()
                    .map(|b| Json::Str(b.clone()))
                    .collect(),
            ),
        ));
    }
    println!("{}", Json::Obj(summary));
    if pass {
        ExitCode::SUCCESS
    } else {
        eprintln!("SOAK FAILED: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

fn machine_by_name(opts: &HashMap<String, String>) -> Machine {
    match opts.get("machine").map(String::as_str) {
        Some("intrepid") => intrepid(),
        _ => hopper(),
    }
}

fn scale_cmd(opts: &HashMap<String, String>) -> ExitCode {
    let machine = machine_by_name(opts);
    let n: usize = get(opts, "n", 32_768);
    println!("strong scaling of {n} particles on {} (simulated)", machine.name);
    let cs = [1usize, 2, 4, 8, 16];
    print!("{:>8}", "cores");
    for c in cs {
        print!(" {:>9}", format!("c={c}"));
    }
    println!();
    let mut rows = Vec::new();
    for p in [256usize, 512, 1024, 2048, 4096] {
        print!("{:>8}", p);
        let mut effs = Vec::new();
        let mut msgs = Vec::new();
        let mut words = Vec::new();
        let mut imbs = Vec::new();
        let mut crit_comm = Vec::new();
        for c in cs {
            if c * c <= p && p % (c * c) == 0 {
                let params = AllPairsParams::new(p, c, n);
                let rep = simulate(&machine, p, |r| params.program(r));
                let compute: f64 = rep.per_rank.iter().map(|b| b.compute).sum();
                let eff = compute / (p as f64 * rep.makespan);
                print!(" {:>9.3}", eff);
                effs.push(Json::Num(eff));
                // Load imbalance (critical rank total vs mean total) and
                // the critical rank's communication share of its time.
                let mean = rep.mean();
                let crit = rep.critical();
                imbs.push(Json::Num(if mean.total() > 0.0 {
                    crit.total() / mean.total()
                } else {
                    1.0
                }));
                crit_comm.push(Json::Num(if crit.total() > 0.0 {
                    crit.comm_total() / crit.total()
                } else {
                    0.0
                }));
                // Per-rank traffic totals (max over ranks): messages count
                // point-to-point sends plus collectives, words count
                // particles at the paper's 52-byte wire size.
                let (mut max_msgs, mut max_words) = (0u64, 0u64);
                for r in 0..p {
                    let k = count_ops(params.program(r));
                    let m = k.sends.iter().sum::<u64>() + k.collectives.iter().sum::<u64>();
                    let w = k.send_bytes.iter().sum::<u64>() / PARTICLE_WIRE_BYTES as u64;
                    max_msgs = max_msgs.max(m);
                    max_words = max_words.max(w);
                }
                msgs.push(Json::Num(max_msgs as f64));
                words.push(Json::Num(max_words as f64));
            } else {
                print!(" {:>9}", "-");
                effs.push(Json::Null);
                msgs.push(Json::Null);
                words.push(Json::Null);
                imbs.push(Json::Null);
                crit_comm.push(Json::Null);
            }
        }
        println!();
        rows.push(Json::Obj(vec![
            ("p".to_string(), Json::Num(p as f64)),
            ("efficiency".to_string(), Json::Arr(effs)),
            ("messages_per_rank".to_string(), Json::Arr(msgs)),
            ("words_per_rank".to_string(), Json::Arr(words)),
            ("imbalance".to_string(), Json::Arr(imbs)),
            ("critical_comm_frac".to_string(), Json::Arr(crit_comm)),
        ]));
    }
    // With --metrics, one simulated configuration is distilled into a real
    // MetricsSnapshot (comm counters from the schedule's operation counts,
    // compute counters from the DES compute times), so the downstream
    // lenses — audit, roofline, analyze — work on predicted executions too.
    let metrics_path = opts.get("metrics").cloned();
    let mut metrics_info: Option<(usize, usize)> = None;
    if let Some(path) = &metrics_path {
        let mp: usize = get(opts, "metrics-p", 256);
        let Some(c) = cs
            .iter()
            .rev()
            .copied()
            .find(|&c| c * c <= mp && mp.is_multiple_of(c * c))
        else {
            eprintln!("scale: no usable replication factor for metrics-p={mp}");
            return ExitCode::FAILURE;
        };
        let params = AllPairsParams::new(mp, c, n);
        let rep = simulate(&machine, mp, |r| params.program(r));
        // One kernel call touches its own block (read + write) and a
        // visiting block (read): interactions * 3*block_bytes / block^2.
        let block = (n * c / mp).max(1) as u64;
        let particle_bytes = std::mem::size_of::<Particle>() as u64;
        // The synthesized kernel is the default repulsive law.
        let flops_per_interaction = RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        }
        .flops_per_interaction();
        let shards = (0..mp)
            .map(|r| {
                let rec = nbody_metrics::MetricsRecorder::for_rank(r);
                let k = count_ops(params.program(r));
                for (i, ph) in ALL_PHASES.iter().enumerate() {
                    if k.sends[i] > 0 {
                        rec.counter("comm_send_messages", Some(*ph)).add(k.sends[i]);
                        rec.counter("comm_send_bytes", Some(*ph)).add(k.send_bytes[i]);
                        rec.counter("comm_send_elements", Some(*ph))
                            .add(k.send_bytes[i] / PARTICLE_WIRE_BYTES as u64);
                    }
                    if k.collectives[i] > 0 {
                        rec.counter("comm_collective_messages", Some(*ph))
                            .add(k.collectives[i]);
                    }
                }
                rec.counter("compute_interactions", None).add(k.interactions);
                rec.counter("compute_flops", None)
                    .add(k.interactions.saturating_mul(flops_per_interaction));
                rec.counter("compute_bytes", None)
                    .add(k.interactions.saturating_mul(3 * particle_bytes) / block);
                let nanos = (rep.per_rank[r].compute * 1e9) as u64;
                rec.counter("compute_nanos", None).add(nanos.max(1));
                rec.finish()
            })
            .collect();
        let snap = MetricsSnapshot::from_shards(shards);
        let body = if path.ends_with(".prom") {
            snap.to_prometheus()
        } else {
            snap.to_json().to_string()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("simulated metrics for p={mp} c={c} written to {path}");
        metrics_info = Some((mp, c));
    }

    let mut summary = vec![
        ("cmd".to_string(), Json::Str("scale".into())),
        ("machine".to_string(), Json::Str(machine.name.to_string())),
        ("n".to_string(), Json::Num(n as f64)),
        (
            "c_values".to_string(),
            Json::Arr(cs.iter().map(|&c| Json::Num(c as f64)).collect()),
        ),
        ("rows".to_string(), Json::Arr(rows)),
    ];
    if let (Some(path), Some((mp, c))) = (&metrics_path, metrics_info) {
        summary.push(("metrics_path".to_string(), Json::Str(path.clone())));
        summary.push(("metrics_p".to_string(), Json::Num(mp as f64)));
        summary.push(("metrics_c".to_string(), Json::Num(c as f64)));
    }
    println!("{}", Json::Obj(summary));
    ExitCode::SUCCESS
}

fn autotune_cmd(opts: &HashMap<String, String>) -> ExitCode {
    let machine = machine_by_name(opts);
    let p: usize = get(opts, "p", 1536);
    let n: usize = get(opts, "n", 12_288);
    let cutoff: f64 = get(opts, "cutoff", 0.0);
    let tune = if cutoff > 0.0 {
        autotune_cutoff_1d(&machine, p, n, cutoff)
    } else {
        autotune_all_pairs(&machine, p, n)
    };
    println!(
        "autotune on {} (p={p}, n={n}{}):",
        machine.name,
        if cutoff > 0.0 {
            format!(", rc={cutoff}l")
        } else {
            String::new()
        }
    );
    for k in &tune.candidates {
        let marker = if k.c == tune.best_c { "  <-- best" } else { "" };
        println!("  c={:<4} {:.3} ms{marker}", k.c, k.predicted_secs * 1e3);
    }
    ExitCode::SUCCESS
}

fn load_trace(path: &str) -> Result<ExecutionTrace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ExecutionTrace::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn load_metrics(path: &str) -> Result<MetricsSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".prom") {
        MetricsSnapshot::parse_prometheus(&text)
    } else {
        Json::parse(&text).and_then(|doc| MetricsSnapshot::from_json(&doc))
    }
    .map_err(|e| format!("cannot parse {path}: {e}"))
}

fn load_timeline(path: &str) -> Result<RunTimeline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    RunTimeline::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn load_wire(path: &str) -> Result<WireLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    WireLog::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The revision recorded into history entries: `NBODY_GIT_REV` when set
/// (CI passes it explicitly), else `git rev-parse`, else `unknown`.
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("NBODY_GIT_REV") {
        if !rev.trim().is_empty() {
            return rev.trim().to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// `analyze`: post-run diagnosis of a recorded trace — per-step critical
/// path, per-phase imbalance, straggler rankings, grid heat-maps.
fn analyze_cmd(opts: &HashMap<String, String>, positional: &[String]) -> ExitCode {
    let timeline = match opts.get("timeline") {
        Some(tp) => match load_timeline(tp) {
            Ok(tl) => Some(tl),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let wire = match opts.get("wire") {
        Some(wp) => match load_wire(wp) {
            Ok(log) => Some(log),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // The defaults (16-sample window, 6 sigma) are alarm-tuned: they fire
    // on step functions and stay quiet otherwise. Exploratory analysis of
    // slow ramps (e.g. a gravitational collapse) wants a wider window and
    // a tighter threshold.
    let drift_cfg = DriftConfig {
        window: get(opts, "drift-window", DriftConfig::default().window),
        nsigma: get(opts, "drift-nsigma", DriftConfig::default().nsigma),
        ..DriftConfig::default()
    };
    let Some(path) = positional.first() else {
        // Timeline- or wire-only invocation: a recorded bundle or probe
        // log is diagnosable on its own (neither needs a trace).
        if timeline.is_some() || wire.is_some() {
            if let Some(tl) = &timeline {
                print!("{}", render_drift(tl, &drift_cfg));
                println!();
                print!("{}", render_health(tl));
            }
            if let Some(log) = &wire {
                if timeline.is_some() {
                    println!();
                }
                print!("{}", render_wire(&match_events(log)));
            }
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "usage: ca-nbody analyze <trace.json|trace.jsonl> [--metrics=F] [--timeline=F] \
             [--wire=F] [--drift-window=16] [--drift-nsigma=6] [c=1] [--csv=F] [--json=F]"
        );
        return ExitCode::FAILURE;
    };
    let trace = match load_trace(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = match opts.get("metrics") {
        Some(mp) => match load_metrics(mp) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let c: usize = get(opts, "c", 1);
    let a = analyze(&trace, metrics.as_ref(), c);
    print!("{}", render_table(&a));
    if let Some(tl) = &timeline {
        println!();
        print!("{}", render_drift(tl, &drift_cfg));
        println!();
        print!("{}", render_health(tl));
    }
    if let Some(log) = &wire {
        println!();
        print!("{}", render_wire(&match_events(log)));
    }
    if let Some(out) = opts.get("csv") {
        if let Err(e) = std::fs::write(out, render_csv(&a)) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("critical-path CSV written to {out}");
    }
    if let Some(out) = opts.get("json") {
        if let Err(e) = std::fs::write(out, render_json(&a).to_string()) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("analysis JSON written to {out}");
    }
    ExitCode::SUCCESS
}

/// `health`: render the numerical-health section of a recorded timeline
/// bundle (energy drift, momentum, sentinel and fingerprint-mismatch
/// events with blame) and exit non-zero when the bundle is unhealthy —
/// the scriptable end of the health lens.
fn health_cmd(positional: &[String]) -> ExitCode {
    let Some(path) = positional.first() else {
        eprintln!("usage: ca-nbody health <timeline.json>");
        return ExitCode::FAILURE;
    };
    let tl = match load_timeline(path) {
        Ok(tl) => tl,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let s = HealthSummary::from_timeline(&tl);
    print!("{}", s.render());
    println!("{}", s.to_json());
    if s.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `conformance`: diff a recorded wire-probe log against the message
/// multiset the CA schedule predicts for the run's parameters, attributing
/// discrepancies to the fault plan (if any) and exiting non-zero on a FAIL
/// verdict — an unexplained discrepancy with intact probe rings.
fn conformance_cmd(opts: &HashMap<String, String>, positional: &[String]) -> ExitCode {
    let Some(path) = positional.first() else {
        eprintln!(
            "usage: ca-nbody conformance <wire-log.json> [n=1024] [p=8] [c=2] [steps=20] \
             [method=ca] [law=repulsive] [cutoff=0.25] [boundary=reflective] [--faults=SPEC]"
        );
        return ExitCode::FAILURE;
    };
    let log = match load_wire(path) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    // The same parameter grammar and defaults as `run`, so the flags that
    // produced the log reproduce its schedule.
    let n: usize = get(opts, "n", 1024);
    let p: usize = get(opts, "p", 8);
    let c: usize = get(opts, "c", 2);
    let steps: usize = get(opts, "steps", 20);
    let law_name = opts.get("law").map(String::as_str).unwrap_or("repulsive");
    let default_cutoff = if law_name == "lj" { 2.5 } else { 0.25 };
    let cutoff: f64 = get(opts, "cutoff", default_cutoff);
    let method = match opts.get("method").map(String::as_str).unwrap_or("ca") {
        "ca" => Method::CaAllPairs { c },
        "ca-cutoff-1d" => Method::Ca1dCutoff { c },
        "ca-cutoff-2d" => Method::Ca2dCutoff { c },
        other => {
            eprintln!(
                "conformance: method '{other}' has no communication-schedule twin \
                 (supported: ca, ca-cutoff-1d, ca-cutoff-2d)"
            );
            return ExitCode::FAILURE;
        }
    };
    let boundary = match opts.get("boundary").map(String::as_str) {
        Some("periodic") => Boundary::Periodic,
        Some("open") => Boundary::Open,
        _ => Boundary::Reflective,
    };
    let domain = if law_name == "lj" {
        Domain::square((n as f64).sqrt() * 1.2)
    } else {
        Domain::unit()
    };
    let spec = WireScheduleSpec {
        method,
        n,
        p,
        steps,
        domain,
        boundary,
        cutoff: method.needs_cutoff().then_some(cutoff),
    };
    let expected = match expected_schedule(&spec) {
        Ok(exp) => exp,
        Err(e) => {
            eprintln!("conformance: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Faults to attribute discrepancies to: the events the chaos backend
    // recorded into the log itself, plus the plan the caller passed (kept
    // separate in case the log predates fault probes or rings overflowed).
    let mut faults = FaultNote::from_log(&log);
    if let Some(spec_str) = opts.get("faults") {
        match FaultPlan::parse(spec_str) {
            Ok(plan) => {
                for note in plan.probe_notes() {
                    if !faults.contains(&note) {
                        faults.push(note);
                    }
                }
            }
            Err(e) => {
                eprintln!("invalid --faults spec: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = check_conformance(&expected, &log, &faults);
    print!("{}", render_conformance(&report));

    let summary = Json::Obj(vec![
        ("cmd".to_string(), Json::Str("conformance".into())),
        ("wire_log".to_string(), Json::Str(path.clone())),
        ("detail".to_string(), Json::Str(report.detail.clone())),
        (
            "expected_msgs".to_string(),
            Json::Num(report.expected_msgs as f64),
        ),
        (
            "observed_msgs".to_string(),
            Json::Num(report.observed_msgs as f64),
        ),
        ("channels".to_string(), Json::Num(report.channels as f64)),
        (
            "violations".to_string(),
            Json::Num(report.violations.len() as f64),
        ),
        ("explained".to_string(), Json::Num(report.explained() as f64)),
        (
            "unexplained".to_string(),
            Json::Num(report.unexplained() as f64),
        ),
        ("saturated".to_string(), Json::Bool(report.saturated)),
        ("verdict".to_string(), Json::Str(report.verdict().into())),
    ]);
    println!("{summary}");
    if report.verdict() == "FAIL" {
        eprintln!("CONFORMANCE FAILED: observed traffic deviates from the CA schedule");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `postmortem`: render a flight-recorder dump (a failed run's timeline
/// bundle) as a human-readable per-rank account of what happened.
fn postmortem_cmd(positional: &[String]) -> ExitCode {
    let Some(path) = positional.first() else {
        eprintln!("usage: ca-nbody postmortem <bundle.json>");
        return ExitCode::FAILURE;
    };
    let tl = match load_timeline(path) {
        Ok(tl) => tl,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match &tl.failure {
        Some(reason) => println!("{path}: FAILED — {reason}"),
        None => println!("{path}: healthy run (no failure recorded)"),
    }
    println!("{} ranks recorded\n", tl.ranks.len());
    for r in &tl.ranks {
        let steps = match (r.samples.first(), r.samples.last()) {
            (Some(a), Some(b)) => format!(
                "{} samples over steps {}..={} (stride {})",
                r.samples.len(),
                a.step,
                b.step,
                r.stride
            ),
            _ => "no step samples".to_string(),
        };
        println!("rank {:<4} {steps}", r.rank);
        if let Some(last) = r.samples.last() {
            println!(
                "          last sample: {} particles, {} send bytes, {:.6} s blocked",
                last.particles, last.send_bytes, last.blocked_secs
            );
        }
        if let Some(f) = &r.failure {
            println!("          failure: {f}");
        }
        if r.dropped_events > 0 {
            println!(
                "          ({} earlier events evicted from the flight ring)",
                r.dropped_events
            );
        }
        for e in &r.events {
            let step = e.step.map_or(String::new(), |s| format!(" step {s}"));
            println!(
                "  {:>10.4}s  {:<16}{step}  {}",
                e.t_secs,
                e.kind.label(),
                e.detail
            );
        }
    }
    ExitCode::SUCCESS
}

/// `regress`: gate a traced run against the cross-run history store.
fn regress_cmd(opts: &HashMap<String, String>, positional: &[String]) -> ExitCode {
    let Some(path) = positional.first() else {
        eprintln!(
            "usage: ca-nbody regress <trace.json|trace.jsonl> [--metrics=F] [n=0] [c=1] \
             [kernel=allpairs] [tolerance=1.5] [--history=bench_results/history] [--record]"
        );
        return ExitCode::FAILURE;
    };
    let trace = match load_trace(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = match opts.get("metrics") {
        Some(mp) => match load_metrics(mp) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let n: u64 = get(opts, "n", 0);
    let c: u64 = get(opts, "c", 1);
    let kernel = opts
        .get("kernel")
        .cloned()
        .unwrap_or_else(|| "allpairs".to_string());
    let tolerance: f64 = get(opts, "tolerance", 1.5);
    if !(tolerance.is_finite() && tolerance > 0.0) {
        eprintln!("regress: tolerance must be a positive number");
        return ExitCode::FAILURE;
    }
    let history_dir = opts
        .get("history")
        .cloned()
        .unwrap_or_else(|| "bench_results/history".to_string());

    let a = analyze(&trace, metrics.as_ref(), c as usize);
    let live = RunSummary::from_analysis(
        &a,
        n,
        c,
        &kernel,
        &git_rev(),
        a.steps.len() as u64,
        unix_now(),
    );

    let store = format!("{history_dir}/{kernel}.jsonl");
    let history = match std::fs::read_to_string(&store) {
        Ok(text) => match parse_history(&text) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("cannot parse {store}: {e}");
                return ExitCode::FAILURE;
            }
        },
        // A missing store is not an error: the first run seeds it.
        Err(_) => Vec::new(),
    };
    let r = check_regression(&live, &history, tolerance);
    print!("{}", render_regression(&r));

    if opts.get("record").is_some_and(|v| v != "false") {
        let append = std::fs::create_dir_all(&history_dir)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                use std::io::Write;
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&store)
                    .and_then(|mut f| writeln!(f, "{}", live.to_json_line()))
                    .map_err(|e| e.to_string())
            });
        match append {
            Ok(()) => println!("recorded to {store}"),
            Err(e) => {
                eprintln!("cannot record to {store}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let verdict = match r.verdict {
        Verdict::Pass => "pass",
        Verdict::Regression => "regression",
        Verdict::NoHistory => "no-history",
    };
    let summary = Json::Obj(vec![
        ("cmd".to_string(), Json::Str("regress".into())),
        ("kernel".to_string(), Json::Str(kernel)),
        ("n".to_string(), Json::Num(n as f64)),
        ("p".to_string(), Json::Num(live.p as f64)),
        ("c".to_string(), Json::Num(c as f64)),
        ("live_wall_secs".to_string(), Json::Num(r.live_wall_secs)),
        (
            "median_wall_secs".to_string(),
            Json::Num(r.median_wall_secs),
        ),
        ("ratio".to_string(), Json::Num(r.ratio)),
        ("tolerance".to_string(), Json::Num(r.tolerance)),
        ("matched".to_string(), Json::Num(r.matched as f64)),
        ("verdict".to_string(), Json::Str(verdict.into())),
    ]);
    println!("{summary}");
    if r.verdict == Verdict::Regression {
        eprintln!("REGRESSION: wall time exceeded tolerance over history median");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_law_forwards_inverse_square_for_bare_laws_only() {
        let rep = RepulsiveInverseSquare::default();
        let grav = Gravity::default();
        let rep_form = rep.inverse_square();
        let grav_form = grav.inverse_square();
        assert!(rep_form.is_some() && grav_form.is_some());
        assert_eq!(AnyLaw::Repulsive(rep).inverse_square(), rep_form);
        assert_eq!(AnyLaw::Gravity(grav).inverse_square(), grav_form);
        for law in [
            AnyLaw::Lj(Cutoff::new(LennardJones::default(), 0.1)),
            AnyLaw::RepulsiveCutoff(Cutoff::new(rep, 0.1)),
            AnyLaw::GravityCutoff(Cutoff::new(grav, 0.1)),
        ] {
            assert_eq!(law.inverse_square(), None);
        }
    }
}
