//! Periodic interaction windows — an extension beyond the paper.
//!
//! The paper's experiments use a non-periodic domain (its §IV.D load
//! imbalance comes precisely from boundary teams), but molecular-dynamics
//! production runs are usually periodic. Under periodic boundaries the
//! team ring wraps, every window offset is always valid, buffers never
//! fall off an edge (so no home-route re-injection is needed), and the
//! load is perfectly balanced for uniform densities — the cleanest setting
//! for Algorithm 2.
//!
//! A periodic window of size `W ≤ teams` enumerates offsets
//! `0, 1, …, ⌈(W-1)/2⌉·…` wrapped as `O[j] = j` for `j ≤ (W-1)/2` and
//! `j − W` otherwise, so for `W = teams` the window degenerates into an
//! all-pairs traversal covering every team exactly once.

use nbody_physics::Domain;

use crate::window::Window;

/// A 1D window on a periodic ring of teams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window1dPeriodic {
    teams: usize,
    w: usize,
}

impl Window1dPeriodic {
    /// Window spanning `m` teams on each side of the owner (size
    /// `min(2m+1, teams)` — at most one visit per team).
    pub fn new(teams: usize, m: usize) -> Self {
        assert!(teams > 0);
        Window1dPeriodic {
            teams,
            w: (2 * m + 1).min(teams),
        }
    }

    /// Derive the span from a cutoff radius (minimum-image distances): the
    /// same `floor(r_c/w) + 1` slab bound as the non-periodic window.
    pub fn from_cutoff(domain: &Domain, teams: usize, r_c: f64) -> Self {
        assert!(r_c > 0.0);
        let slab = domain.length_x() / teams as f64;
        let m = (r_c / slab).floor() as usize + 1;
        Window1dPeriodic::new(teams, m)
    }

    #[inline]
    fn offset(&self, j: usize) -> i64 {
        debug_assert!(j < self.w);
        if j <= (self.w - 1) / 2 {
            j as i64
        } else {
            j as i64 - self.w as i64
        }
    }

    #[inline]
    fn wrap(&self, t: i64) -> usize {
        t.rem_euclid(self.teams as i64) as usize
    }
}

impl Window for Window1dPeriodic {
    fn len(&self) -> usize {
        self.w
    }

    fn teams(&self) -> usize {
        self.teams
    }

    fn apply(&self, team: usize, j: usize) -> Option<usize> {
        Some(self.wrap(team as i64 + self.offset(j)))
    }

    fn apply_back(&self, team: usize, j: usize) -> Option<usize> {
        Some(self.wrap(team as i64 - self.offset(j)))
    }

    fn is_periodic(&self) -> bool {
        true
    }
}

/// A 2D window on a periodic torus of `tx × ty` teams (row-major ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window2dPeriodic {
    tx: usize,
    ty: usize,
    wx: usize,
    wy: usize,
}

impl Window2dPeriodic {
    /// Window spanning `mx`/`my` cells per direction, each axis capped at
    /// one visit per team row/column.
    pub fn new(tx: usize, ty: usize, mx: usize, my: usize) -> Self {
        assert!(tx > 0 && ty > 0);
        Window2dPeriodic {
            tx,
            ty,
            wx: (2 * mx + 1).min(tx),
            wy: (2 * my + 1).min(ty),
        }
    }

    /// Derive spans from a cutoff radius (minimum image per axis).
    pub fn from_cutoff(domain: &Domain, tx: usize, ty: usize, r_c: f64) -> Self {
        assert!(r_c > 0.0);
        let cx = domain.length_x() / tx as f64;
        let cy = domain.length_y() / ty as f64;
        Window2dPeriodic::new(
            tx,
            ty,
            (r_c / cx).floor() as usize + 1,
            (r_c / cy).floor() as usize + 1,
        )
    }

    /// Grid dimensions `(tx, ty)`.
    pub(crate) fn dims(&self) -> (usize, usize) {
        (self.tx, self.ty)
    }

    #[inline]
    fn axis_offset(j: usize, w: usize) -> i64 {
        if j <= (w - 1) / 2 {
            j as i64
        } else {
            j as i64 - w as i64
        }
    }

    #[inline]
    fn offset2(&self, j: usize) -> (i64, i64) {
        (
            Self::axis_offset(j % self.wx, self.wx),
            Self::axis_offset(j / self.wx, self.wy),
        )
    }

    #[inline]
    fn wrap2(&self, cx: i64, cy: i64) -> usize {
        let x = cx.rem_euclid(self.tx as i64) as usize;
        let y = cy.rem_euclid(self.ty as i64) as usize;
        y * self.tx + x
    }
}

impl Window for Window2dPeriodic {
    fn len(&self) -> usize {
        self.wx * self.wy
    }

    fn teams(&self) -> usize {
        self.tx * self.ty
    }

    fn apply(&self, team: usize, j: usize) -> Option<usize> {
        let (ox, oy) = self.offset2(j);
        Some(self.wrap2((team % self.tx) as i64 + ox, (team / self.tx) as i64 + oy))
    }

    fn apply_back(&self, team: usize, j: usize) -> Option<usize> {
        let (ox, oy) = self.offset2(j);
        Some(self.wrap2((team % self.tx) as i64 - ox, (team / self.tx) as i64 - oy))
    }

    fn is_periodic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn periodic_1d_never_clips() {
        let w = Window1dPeriodic::new(8, 2);
        assert_eq!(w.len(), 5);
        assert!(w.is_periodic());
        for t in 0..8 {
            for j in 0..w.len() {
                assert!(w.apply(t, j).is_some());
                assert!(w.apply_back(t, j).is_some());
            }
        }
        // Wrap-around: team 7 + offset 1 = team 0.
        assert_eq!(w.apply(7, 1), Some(0));
        assert_eq!(w.apply(0, 4), Some(7)); // offset -1
    }

    #[test]
    fn periodic_1d_offsets_distinct() {
        for (teams, m) in [(8usize, 2usize), (8, 3), (8, 10), (7, 3), (9, 4), (6, 5)] {
            let w = Window1dPeriodic::new(teams, m);
            assert!(w.len() <= teams);
            for t in 0..teams {
                let hits: Vec<usize> = (0..w.len()).map(|j| w.apply(t, j).unwrap()).collect();
                let set: HashSet<usize> = hits.iter().copied().collect();
                assert_eq!(set.len(), hits.len(), "teams={teams} m={m}: {hits:?}");
            }
        }
    }

    #[test]
    fn periodic_1d_full_window_covers_all_teams() {
        // Even team count: the window [-W/2, W/2-1] must reach every team.
        for teams in [4usize, 5, 6, 8] {
            let w = Window1dPeriodic::new(teams, teams); // clamped to W=teams
            assert_eq!(w.len(), teams);
            let covered: HashSet<usize> = (0..w.len()).map(|j| w.apply(0, j).unwrap()).collect();
            assert_eq!(covered.len(), teams, "teams={teams}");
        }
    }

    #[test]
    fn periodic_1d_apply_back_inverts() {
        let w = Window1dPeriodic::new(9, 3);
        for t in 0..9 {
            for j in 0..w.len() {
                let u = w.apply(t, j).unwrap();
                assert_eq!(w.apply_back(u, j), Some(t));
            }
        }
    }

    #[test]
    fn periodic_2d_wraps_both_axes() {
        let w = Window2dPeriodic::new(4, 3, 1, 1);
        assert_eq!(w.len(), 9);
        assert_eq!(w.teams(), 12);
        for t in 0..12 {
            let hits: HashSet<usize> = (0..9).map(|j| w.apply(t, j).unwrap()).collect();
            assert_eq!(hits.len(), 9, "team {t}: full 3x3 neighborhood via wrap");
        }
        // Corner team 0 = (0,0): offset (-1,-1) reaches (3,2) = team 11.
        let j = (w.wx - 1) + w.wx * (w.wy - 1);
        assert_eq!(w.apply(0, j), Some(11));
    }

    #[test]
    fn periodic_2d_apply_back_inverts() {
        let w = Window2dPeriodic::new(5, 4, 2, 1);
        for t in 0..w.teams() {
            for j in 0..w.len() {
                let u = w.apply(t, j).unwrap();
                assert_eq!(w.apply_back(u, j), Some(t), "t={t} j={j}");
            }
        }
    }

    #[test]
    fn from_cutoff_covers_minimum_image_pairs() {
        let d = Domain::unit();
        // rc = 0.3 on 8 slabs (width 0.125): m = 3, W = 7.
        let w = Window1dPeriodic::from_cutoff(&d, 8, 0.3);
        assert_eq!(w.len(), 7);
        // Wrap pairs: team 0 and team 7 are adjacent under min image.
        let reachable: HashSet<usize> = (0..w.len()).map(|j| w.apply_back(0, j).unwrap()).collect();
        assert!(reachable.contains(&7) && reachable.contains(&5));
    }
}
