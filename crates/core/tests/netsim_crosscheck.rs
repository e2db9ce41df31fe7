//! Live metrics ≡ simulated event trace: the counters the instrumented
//! communicators record during a real threaded execution must agree
//! *exactly* — per rank, per phase — with the message and byte flows the
//! discrete-event simulator derives from the same algorithm's schedule.
//! This closes the loop between measured and simulated communication: the
//! optimality audit can trust either source.

use ca_nbody::dist::{id_block_subset, spatial_subset_1d};
use ca_nbody::schedule::{AllPairsParams, CutoffParams};
use ca_nbody::{ca_all_pairs_forces, ca_cutoff_forces, GridComms, ProcGrid, Window1d};
use nbody_comm::{
    run_ranks_recorded, CommStats, Communicator, Lenses, MetricsSnapshot, Phase, Recorded,
};
use nbody_netsim::{hopper, simulate_traced, Trace, TraceKind};
use nbody_physics::particle::PARTICLE_WIRE_BYTES;
use nbody_physics::{init, Boundary, Counting, Cutoff, Domain, Particle};

const RECORD: Lenses = Lenses {
    record: true,
    wire: false,
};

/// Force phases both sides attribute traffic to.
const PHASES: [Phase; 4] = [Phase::Broadcast, Phase::Skew, Phase::Shift, Phase::Reduce];

/// Assert exact per-rank per-phase agreement between a live execution's
/// counters and a simulated trace's events.
fn assert_exact_agreement(
    p: usize,
    stats: &[CommStats],
    metrics: &MetricsSnapshot,
    sim: &Trace,
    label: &str,
) {
    assert!(!sim.truncated, "{label}: trace cap too small");
    assert_eq!(metrics.ranks.len(), p, "{label}");
    for (rank, rm) in metrics.ranks.iter().enumerate() {
        for phase in PHASES {
            let (mut des_sends, mut des_bytes, mut des_colls) = (0u64, 0u64, 0u64);
            for e in sim.events.iter().filter(|e| e.rank == rank as u32) {
                match e.kind {
                    TraceKind::Send { bytes, phase: ph, .. } if ph == phase => {
                        des_sends += 1;
                        des_bytes += bytes;
                    }
                    TraceKind::Collective { phase: ph, .. } if ph == phase => des_colls += 1,
                    _ => {}
                }
            }
            let live_msgs = rm.counter("comm_send_messages", Some(phase));
            let live_elems = rm.counter("comm_send_elements", Some(phase));
            let live_bytes = rm.counter("comm_send_bytes", Some(phase));
            assert_eq!(
                live_msgs, des_sends,
                "{label}: rank {rank} {phase:?}: live messages vs simulated sends"
            );
            // The DES accounts bandwidth at the paper's 52-byte wire size;
            // the live counter records in-memory bytes. Both must derive
            // from the same element count.
            assert_eq!(
                live_elems * PARTICLE_WIRE_BYTES as u64,
                des_bytes,
                "{label}: rank {rank} {phase:?}: wire bytes"
            );
            assert_eq!(
                live_bytes,
                live_elems * std::mem::size_of::<Particle>() as u64,
                "{label}: rank {rank} {phase:?}: live bytes"
            );
            assert_eq!(
                stats[rank].phase(phase).collectives,
                des_colls,
                "{label}: rank {rank} {phase:?}: collective ops"
            );
            // Every message on the wire — point-to-point or a collective
            // tree constituent — lands in the size histogram exactly once.
            let tree_msgs = rm.counter("comm_collective_messages", Some(phase));
            let hist_count = rm
                .histogram("comm_message_size_bytes", Some(phase))
                .map_or(0, |h| h.count());
            assert_eq!(
                hist_count,
                live_msgs + tree_msgs,
                "{label}: rank {rank} {phase:?}: histogram observations"
            );
        }
    }
}

#[test]
fn all_pairs_live_counters_agree_exactly_with_simulated_trace() {
    let domain = Domain::unit();
    for (p, c, n) in [(4, 1, 16), (8, 2, 24), (16, 4, 33), (9, 3, 21)] {
        let grid = ProcGrid::new_all_pairs(p, c).unwrap();
        let Recorded {
            results: stats,
            metrics,
            ..
        } = run_ranks_recorded(p, RECORD, |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(n, &domain, 5);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_all_pairs_forces(&gc, &mut st, &Counting, &domain, Boundary::Open);
            world.stats()
        });
        let params = AllPairsParams::new(p, c, n);
        let (_, sim) = simulate_traced(&hopper(), p, |r| params.program(r), 1_000_000);
        assert_exact_agreement(p, &stats, &metrics, &sim, &format!("all-pairs p={p} c={c} n={n}"));
    }
}

#[test]
fn cutoff_1d_live_counters_agree_exactly_with_simulated_trace() {
    let domain = Domain::unit();
    let n = 64;
    for (p, c, r_c) in [(4, 1, 0.2), (8, 2, 0.2), (12, 3, 0.3), (16, 2, 0.15)] {
        let grid = ProcGrid::new(p, c).unwrap();
        let window = Window1d::from_cutoff(&domain, grid.teams(), r_c);
        let law = Cutoff::new(Counting, r_c);
        let all = init::uniform_1d(n, &domain, 77);
        let block_sizes: Vec<usize> = (0..grid.teams())
            .map(|t| spatial_subset_1d(&all, &domain, grid.teams(), t).len())
            .collect();

        let all_ref = &all;
        let Recorded {
            results: stats,
            metrics,
            ..
        } = run_ranks_recorded(p, RECORD, |world| {
            let gc = GridComms::new(world, grid);
            let mut st = if gc.is_leader() {
                spatial_subset_1d(all_ref, &domain, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, Boundary::Open);
            world.stats()
        });
        let params = CutoffParams::new(grid, window, block_sizes);
        let (_, sim) = simulate_traced(&hopper(), p, |r| params.program(r), 1_000_000);
        assert_exact_agreement(p, &stats, &metrics, &sim, &format!("cutoff1d p={p} c={c} rc={r_c}"));
    }
}
