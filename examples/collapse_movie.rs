//! An ASCII "movie" of a gravitational collapse, sampled from a
//! distributed run — a trajectory run in chunks of `run_distributed`
//! calls, each chunk's final state one frame — and the density
//! diagnostics.
//!
//! Run with: `cargo run --release --example collapse_movie`

use ca_nbody::{run_distributed, Method, SimConfig};
use nbody_physics::{diagnostics, init, Boundary, Domain, Gravity, Particle, SemiImplicitEuler};

const W: usize = 48;
const H: usize = 18;

fn render(frame: &[Particle], domain: &Domain) -> String {
    let mut cells = vec![0u32; W * H];
    for p in frame {
        let x = ((p.pos.x - domain.min.x) / domain.length_x() * W as f64) as usize;
        let y = ((p.pos.y - domain.min.y) / domain.length_y() * H as f64) as usize;
        cells[y.min(H - 1) * W + x.min(W - 1)] += 1;
    }
    let glyphs = [' ', '.', ':', 'o', 'O', '@'];
    let mut out = String::new();
    for row in cells.chunks(W).rev() {
        out.push('|');
        for &c in row {
            out.push(glyphs[(c as usize).min(glyphs.len() - 1)]);
        }
        out.push_str("|\n");
    }
    out
}

fn main() {
    let domain = Domain::square(12.0);
    let cfg = SimConfig {
        law: Gravity {
            g: 2e-3,
            softening: 0.08,
        },
        integrator: SemiImplicitEuler,
        domain,
        boundary: Boundary::Open,
        dt: 0.02,
        steps: 120,
    };
    // Two clusters on a collision course.
    let mut initial = init::gaussian_clusters(400, &domain, 2, 0.8, 2013);
    init::thermalize(&mut initial, 1e-5, 3);

    println!("two-cluster gravitational collapse — 8 ranks, CA all-pairs c = 2\n");
    // A single-phase integrator carries nothing across steps, so the
    // chunked trajectory is the unchunked one.
    let chunk = SimConfig { steps: 30, ..cfg };
    let mut frames: Vec<Vec<Particle>> = Vec::new();
    let mut state = initial.clone();
    for _ in 0..cfg.steps / chunk.steps {
        state = run_distributed(&chunk, Method::CaAllPairs { c: 2 }, 8, &state).particles;
        frames.push(state.clone());
    }
    println!("t = 0:");
    print!("{}", render(&initial, &domain));
    for (i, frame) in frames.iter().enumerate() {
        let r = mean_radius(frame);
        println!(
            "\nt = {:.1} (mean radius about the center of mass: {r:.2}):",
            (i + 1) as f64 * 30.0 * cfg.dt
        );
        print!("{}", render(frame, &domain));
    }
    let r0 = mean_radius(&initial);
    let r1 = mean_radius(frames.last().unwrap());
    println!("\nmean radius {r0:.2} -> {r1:.2}: the clusters merge under gravity.");
    assert!(r1 < r0);
}

fn mean_radius(ps: &[Particle]) -> f64 {
    let com = diagnostics::center_of_mass(ps);
    ps.iter().map(|p| p.pos.distance(com)).sum::<f64>() / ps.len() as f64
}
