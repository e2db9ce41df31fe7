//! Overhead of the wire-probe message observability layer.
//!
//! The wireprobe design claims probes are strictly pay-per-use: every
//! entry point except the `*_probed` ones hands ranks a disabled
//! [`ProbeRecorder`], whose probe calls are a single `Option` check, so a
//! probes-off run must stay within noise of the plain baseline. Three
//! comparisons keep that honest:
//!
//! * a full CA all-pairs evaluation through `run_ranks` (probes off, the
//!   default every caller gets) vs. `run_ranks_recorded` with only the
//!   wire lens on (every
//!   point-to-point send/recv stamped into the per-rank ring) — the delta
//!   is the whole per-message probe cost a `--wire-probe` run pays, and
//!   the probes-off side must be indistinguishable from the historical
//!   baseline (the CI `regress` gate checks the end-to-end version of the
//!   same claim against the recorded unprobed history);
//! * the recorder hot path priced directly: one stamped send+recv pair
//!   per round on an enabled ring (clock read, ring push, eviction check)
//!   vs. the same calls on a disabled handle (the no-op every unprobed
//!   run executes).

use std::time::Instant;

use ca_nbody::dist::id_block_subset;
use ca_nbody::{ca_all_pairs_forces, GridComms, ProcGrid};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nbody_comm::{run_ranks, run_ranks_recorded, Communicator, Lenses, Phase, ProbeRecorder};
use nbody_physics::{init, Boundary, Domain, Particle, RepulsiveInverseSquare};

const P: usize = 4;
const C: usize = 2;
const N: usize = 128;

fn law() -> RepulsiveInverseSquare {
    RepulsiveInverseSquare {
        strength: 1e-3,
        softening: 1e-3,
    }
}

fn eval<C2: Communicator>(world: &C2, grid: ProcGrid, initial: &[Particle]) -> usize {
    let domain = Domain::unit();
    let gc = GridComms::new(world, grid);
    let mut st: Vec<Particle> = if gc.is_leader() {
        id_block_subset(initial, grid.teams(), gc.team())
    } else {
        Vec::new()
    };
    ca_all_pairs_forces(&gc, &mut st, &law(), &domain, Boundary::Reflective);
    st.len()
}

fn bench_eval_probes_off(c: &mut Criterion) {
    let grid = ProcGrid::new_all_pairs(P, C).unwrap();
    let initial = init::uniform(N, &Domain::unit(), 42);
    c.bench_function("allpairs_eval_wire_probes_off", |b| {
        b.iter(|| black_box(run_ranks(P, |world| eval(world, grid, &initial))))
    });
}

fn bench_eval_probes_on(c: &mut Criterion) {
    let grid = ProcGrid::new_all_pairs(P, C).unwrap();
    let initial = init::uniform(N, &Domain::unit(), 42);
    c.bench_function("allpairs_eval_wire_probes_on", |b| {
        let wire = Lenses {
            record: false,
            wire: true,
        };
        b.iter(|| {
            black_box(run_ranks_recorded(P, wire, |world| {
                eval(world, grid, &initial)
            }))
        })
    });
}

const RECORD_ROUNDS: u64 = 10_000;

fn bench_probe_hot_path(c: &mut Criterion) {
    c.bench_function("probe_ring_send_recv_stamp", |b| {
        b.iter(|| {
            let probe = ProbeRecorder::for_rank(0, Instant::now());
            for i in 0..RECORD_ROUNDS {
                probe.send(1, 0, i, Phase::Shift, 16, 16 * 52);
                probe.recv(1, 0, i, Phase::Shift, 16, 16 * 52);
            }
            black_box(probe.finish())
        })
    });
}

fn bench_probe_disabled_noop(c: &mut Criterion) {
    c.bench_function("probe_disabled_send_recv_noop", |b| {
        b.iter(|| {
            let probe = ProbeRecorder::disabled();
            for i in 0..RECORD_ROUNDS {
                probe.send(1, 0, i, Phase::Shift, 16, 16 * 52);
                probe.recv(1, 0, i, Phase::Shift, 16, 16 * 52);
            }
            black_box(probe.finish())
        })
    });
}

criterion_group!(
    benches,
    bench_eval_probes_off,
    bench_eval_probes_on,
    bench_probe_hot_path,
    bench_probe_disabled_noop
);
criterion_main!(benches);
