//! Additional temporal processes beyond the paper's sinusoid: per-node
//! random walks (strong temporal, weak spatial correlation) and
//! regime-switching workloads (calm drift alternating with turbulence).
//!
//! Neither appears in the paper's evaluation; they exist to probe the
//! protocols outside the sinusoidal comfort zone — the random walk for
//! filter-based validation (every node moves every round, but slowly), the
//! regime switcher as the natural stress test for the adaptive HBC↔IQ
//! meta-protocol.

use crate::rng::Rng;
use crate::{Dataset, Value};
use wsn_net::Point;

/// Per-node bounded random walks.
#[derive(Debug, Clone)]
pub struct RandomWalkDataset {
    range_min: Value,
    range_max: Value,
    /// Maximum per-round step per node (uniform in `[-step, step]`).
    step: Value,
    state: Vec<Value>,
    rng: Rng,
    last_round: Option<u32>,
}

impl RandomWalkDataset {
    /// Creates walks for `n` sensors over `[range_min, range_max]`,
    /// starting at uniformly random positions.
    ///
    /// # Panics
    /// Panics on an empty range, zero nodes or a non-positive step.
    pub fn new(n: usize, range_min: Value, range_max: Value, step: Value, rng: &mut Rng) -> Self {
        assert!(n > 0, "need at least one sensor");
        assert!(range_min <= range_max, "empty range");
        assert!(step >= 1, "step must be positive");
        let state = (0..n)
            .map(|_| rng.range_i64(range_min, range_max))
            .collect();
        RandomWalkDataset {
            range_min,
            range_max,
            step,
            state,
            rng: rng.fork(),
            last_round: None,
        }
    }
}

impl Dataset for RandomWalkDataset {
    fn sensor_count(&self) -> usize {
        self.state.len()
    }
    fn range_min(&self) -> Value {
        self.range_min
    }
    fn range_max(&self) -> Value {
        self.range_max
    }
    fn sample_round(&mut self, t: u32, out: &mut [Value]) {
        assert_eq!(out.len(), self.state.len());
        // Walks are stateful: advance only when a new round is requested
        // (re-sampling the same round must be idempotent).
        if self.last_round != Some(t) {
            if self.last_round.is_some() || t > 0 {
                for v in &mut self.state {
                    let delta = self.rng.range_i64(-self.step, self.step);
                    *v = v
                        .saturating_add(delta)
                        .clamp(self.range_min, self.range_max);
                }
            }
            self.last_round = Some(t);
        }
        out.copy_from_slice(&self.state);
    }
}

/// Spatial waypoint mobility: each point walks toward a private random
/// waypoint inside the deployment rectangle, drawing a fresh waypoint on
/// arrival — the classic random-waypoint model, made deterministic by the
/// owned [`Rng`] stream. The dynamics layer advances the walk once per
/// mobility epoch and re-derives the disk graph from [`positions`].
///
/// [`positions`]: WaypointWalk::positions
#[derive(Debug, Clone)]
pub struct WaypointWalk {
    pos: Vec<Point>,
    target: Vec<Point>,
    width: f64,
    height: f64,
    /// Euclidean meters traveled per advance.
    step: f64,
    rng: Rng,
}

impl WaypointWalk {
    /// Creates a walk over `start` positions inside the
    /// `[0, width] × [0, height]` rectangle, moving `step` meters per
    /// [`WaypointWalk::advance`]. Initial waypoints are drawn immediately
    /// (one x/y pair per point, in index order).
    ///
    /// # Panics
    /// Panics on an empty start set, a non-positive area or a negative
    /// step (`step == 0` is a legal frozen walk).
    pub fn new(start: Vec<Point>, width: f64, height: f64, step: f64, rng: &mut Rng) -> Self {
        assert!(!start.is_empty(), "need at least one mobile point");
        assert!(
            width > 0.0 && height > 0.0,
            "deployment area must be positive"
        );
        assert!(step >= 0.0, "step must be non-negative");
        let mut rng = rng.fork();
        let target = (0..start.len())
            .map(|_| Point::new(rng.range_f64(0.0, width), rng.range_f64(0.0, height)))
            .collect();
        WaypointWalk {
            pos: start,
            target,
            width,
            height,
            step,
            rng,
        }
    }

    /// Current positions, in index order.
    pub fn positions(&self) -> &[Point] {
        &self.pos
    }

    /// Draws a fresh uniform position for point `i` (deterministic join
    /// placement: churned-in nodes re-enter the field somewhere new, from
    /// the same stream that drives the waypoints).
    pub fn replace(&mut self, i: usize) {
        let p = Point::new(
            self.rng.range_f64(0.0, self.width),
            self.rng.range_f64(0.0, self.height),
        );
        self.pos[i] = p;
        self.target[i] = Point::new(
            self.rng.range_f64(0.0, self.width),
            self.rng.range_f64(0.0, self.height),
        );
    }

    /// Moves every point `step` meters toward its waypoint (or onto it,
    /// if closer than `step`), redrawing the waypoint on arrival.
    pub fn advance(&mut self) {
        for i in 0..self.pos.len() {
            let (p, t) = (self.pos[i], self.target[i]);
            let d = p.dist(&t);
            if d <= self.step {
                self.pos[i] = t;
                self.target[i] = Point::new(
                    self.rng.range_f64(0.0, self.width),
                    self.rng.range_f64(0.0, self.height),
                );
            } else if self.step > 0.0 {
                let f = self.step / d;
                self.pos[i] = Point::new(p.x + (t.x - p.x) * f, p.y + (t.y - p.y) * f);
            }
        }
    }
}

/// Alternating calm/turbulent regimes.
#[derive(Debug, Clone)]
pub struct RegimeDataset {
    range_min: Value,
    range_max: Value,
    /// Rounds per regime phase.
    phase_len: u32,
    /// Per-round drift during calm phases.
    drift: Value,
    base: Vec<Value>,
    rng: Rng,
}

impl RegimeDataset {
    /// Creates the workload: calm phases drift all values by `drift` per
    /// round; turbulent phases draw every measurement uniformly anew.
    pub fn new(
        n: usize,
        range_min: Value,
        range_max: Value,
        phase_len: u32,
        drift: Value,
        rng: &mut Rng,
    ) -> Self {
        assert!(n > 0 && range_min <= range_max && phase_len >= 1);
        let span = range_max - range_min;
        let base = (0..n)
            .map(|_| range_min + span / 4 + rng.range_i64(0, (span / 4).max(1)))
            .collect();
        RegimeDataset {
            range_min,
            range_max,
            phase_len,
            drift,
            base,
            rng: rng.fork(),
        }
    }

    /// True iff round `t` falls into a turbulent phase.
    pub fn is_turbulent(&self, t: u32) -> bool {
        (t / self.phase_len) % 2 == 1
    }
}

impl Dataset for RegimeDataset {
    fn sensor_count(&self) -> usize {
        self.base.len()
    }
    fn range_min(&self) -> Value {
        self.range_min
    }
    fn range_max(&self) -> Value {
        self.range_max
    }
    fn sample_round(&mut self, t: u32, out: &mut [Value]) {
        assert_eq!(out.len(), self.base.len());
        if self.is_turbulent(t) {
            for o in out.iter_mut() {
                *o = self.rng.range_i64(self.range_min, self.range_max);
            }
        } else {
            let shift = ((t % self.phase_len) as Value).saturating_mul(self.drift);
            for (o, &b) in out.iter_mut().zip(&self.base) {
                *o = b
                    .saturating_add(shift)
                    .clamp(self.range_min, self.range_max);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_stays_in_range_and_moves_slowly() {
        let mut rng = Rng::seed_from_u64(1);
        let mut ds = RandomWalkDataset::new(50, 0, 1023, 5, &mut rng);
        let mut prev = vec![0; 50];
        ds.sample_round(0, &mut prev);
        let mut cur = vec![0; 50];
        for t in 1..100 {
            ds.sample_round(t, &mut cur);
            for (i, (&p, &c)) in prev.iter().zip(&cur).enumerate() {
                assert!((0..=1023).contains(&c), "node {i} out of range");
                assert!((p - c).abs() <= 5, "node {i} jumped {p} -> {c}");
            }
            prev.copy_from_slice(&cur);
        }
    }

    #[test]
    fn walk_resampling_same_round_is_idempotent() {
        let mut rng = Rng::seed_from_u64(2);
        let mut ds = RandomWalkDataset::new(10, 0, 100, 3, &mut rng);
        let mut a = vec![0; 10];
        let mut b = vec![0; 10];
        ds.sample_round(4, &mut a);
        ds.sample_round(4, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn waypoint_walk_stays_in_the_rectangle_and_bounds_speed() {
        let mut rng = Rng::seed_from_u64(9);
        let start: Vec<Point> = (0..20)
            .map(|_| Point::new(rng.range_f64(0.0, 200.0), rng.range_f64(0.0, 150.0)))
            .collect();
        let mut walk = WaypointWalk::new(start.clone(), 200.0, 150.0, 7.5, &mut rng);
        let mut prev = start;
        for _ in 0..200 {
            walk.advance();
            for (i, (&p, &c)) in prev.iter().zip(walk.positions()).enumerate() {
                assert!((0.0..=200.0).contains(&c.x), "node {i} x {}", c.x);
                assert!((0.0..=150.0).contains(&c.y), "node {i} y {}", c.y);
                assert!(p.dist(&c) <= 7.5 + 1e-9, "node {i} moved too far");
            }
            prev = walk.positions().to_vec();
        }
    }

    #[test]
    fn waypoint_walk_is_deterministic_for_seed() {
        let make = || {
            let mut rng = Rng::seed_from_u64(17);
            let start = vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)];
            WaypointWalk::new(start, 100.0, 100.0, 2.0, &mut rng)
        };
        let (mut a, mut b) = (make(), make());
        for _ in 0..100 {
            a.advance();
            b.advance();
            for (pa, pb) in a.positions().iter().zip(b.positions()) {
                assert_eq!(pa.x.to_bits(), pb.x.to_bits());
                assert_eq!(pa.y.to_bits(), pb.y.to_bits());
            }
        }
    }

    #[test]
    fn zero_step_walk_is_frozen() {
        let mut rng = Rng::seed_from_u64(3);
        let start = vec![Point::new(5.0, 5.0)];
        let mut walk = WaypointWalk::new(start, 10.0, 10.0, 0.0, &mut rng);
        for _ in 0..10 {
            walk.advance();
        }
        assert_eq!(walk.positions()[0].x, 5.0);
        assert_eq!(walk.positions()[0].y, 5.0);
    }

    #[test]
    fn replace_redraws_inside_the_rectangle() {
        let mut rng = Rng::seed_from_u64(4);
        let start = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let mut walk = WaypointWalk::new(start, 50.0, 50.0, 1.0, &mut rng);
        walk.replace(1);
        let p = walk.positions()[1];
        assert!((0.0..=50.0).contains(&p.x) && (0.0..=50.0).contains(&p.y));
    }

    #[test]
    fn extreme_steps_and_drifts_saturate_into_the_range() {
        let mut rng = Rng::seed_from_u64(5);
        let mut out = vec![0; 6];
        let mut walk = RandomWalkDataset::new(6, 0, 63, i64::MAX, &mut rng);
        for t in 0..50 {
            walk.sample_round(t, &mut out);
            assert!(out.iter().all(|v| (0..=63).contains(v)), "walk {out:?}");
        }
        for drift in [i64::MAX, i64::MIN] {
            let mut regime = RegimeDataset::new(6, 0, 63, 5, drift, &mut rng);
            for t in 0..50 {
                regime.sample_round(t, &mut out);
                assert!(out.iter().all(|v| (0..=63).contains(v)), "regime {out:?}");
            }
        }
    }

    #[test]
    fn regimes_alternate() {
        let mut rng = Rng::seed_from_u64(3);
        let ds = RegimeDataset::new(10, 0, 1000, 25, 3, &mut rng);
        assert!(!ds.is_turbulent(0));
        assert!(!ds.is_turbulent(24));
        assert!(ds.is_turbulent(25));
        assert!(ds.is_turbulent(49));
        assert!(!ds.is_turbulent(50));
    }

    #[test]
    fn calm_phase_is_a_clean_drift() {
        let mut rng = Rng::seed_from_u64(4);
        let mut ds = RegimeDataset::new(20, 0, 10_000, 50, 4, &mut rng);
        let mut a = vec![0; 20];
        let mut b = vec![0; 20];
        ds.sample_round(3, &mut a);
        ds.sample_round(4, &mut b);
        for (&x, &y) in a.iter().zip(&b) {
            assert_eq!(y - x, 4, "calm drift must be uniform");
        }
    }

    #[test]
    fn turbulent_phase_is_wild_but_in_range() {
        let mut rng = Rng::seed_from_u64(5);
        let mut ds = RegimeDataset::new(100, 0, 1000, 10, 2, &mut rng);
        let mut out = vec![0; 100];
        ds.sample_round(15, &mut out);
        assert!(out.iter().all(|&v| (0..=1000).contains(&v)));
        // With 100 uniform draws, values should spread widely.
        let spread = out.iter().max().unwrap() - out.iter().min().unwrap();
        assert!(spread > 500, "spread {spread}");
    }
}
