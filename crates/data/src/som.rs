//! Self-organizing map placement (§5.1.3).
//!
//! The pressure dataset carries no coordinates, so the paper assigns each
//! trace a position with a SOM: 1-D feature vectors (the first measurement
//! of each node) are mapped onto a 2-D neuron grid, which produces a
//! placement where neighboring nodes measure similar values — i.e. a
//! spatially correlated deployment.
//!
//! This is a classical Kohonen SOM: per-sample best-matching-unit search,
//! Gaussian neighborhood updates, exponentially decaying radius and
//! learning rate.

use crate::rng::Rng;
use crate::Value;

/// A trained 2-D SOM over scalar features.
#[derive(Debug, Clone)]
pub struct SelfOrganizingMap {
    /// Grid side length (the map has `side × side` neurons).
    side: usize,
    /// Neuron weights, row-major.
    weights: Vec<f64>,
}

impl SelfOrganizingMap {
    /// Trains a `side × side` map on the given scalar features.
    ///
    /// # Panics
    /// Panics if `side == 0` or `features` is empty.
    pub fn train(side: usize, features: &[f64], epochs: usize, rng: &mut Rng) -> Self {
        assert!(side > 0, "need at least one neuron");
        assert!(!features.is_empty(), "need features to train on");

        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &f in features {
            lo = lo.min(f);
            hi = hi.max(f);
        }
        if hi <= lo {
            hi = lo + 1.0;
        }

        // Initialize with a diagonal gradient so the map starts ordered.
        let mut weights = vec![0.0; side * side];
        for r in 0..side {
            for c in 0..side {
                let t = (r + c) as f64 / (2 * side - 2).max(1) as f64;
                weights[r * side + c] = lo + t * (hi - lo);
            }
        }

        let mut som = SelfOrganizingMap { side, weights };
        let total_steps = (epochs * features.len()).max(1);
        let radius0 = side as f64 / 2.0;
        let mut order: Vec<usize> = (0..features.len()).collect();
        let mut step = 0usize;
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let x = features[i];
                let frac = step as f64 / total_steps as f64;
                let lr = 0.3 * (0.01f64).powf(frac);
                let radius = (radius0 * (1.0 / radius0.max(1.0)).powf(frac)).max(0.5);
                let (br, bc) = som.best_matching_unit(x);
                let reach = radius.ceil() as isize;
                let denom = 2.0 * radius * radius;
                for dr in -reach..=reach {
                    for dc in -reach..=reach {
                        let r = br as isize + dr;
                        let c = bc as isize + dc;
                        if r < 0 || c < 0 || r >= side as isize || c >= side as isize {
                            continue;
                        }
                        let d2 = (dr * dr + dc * dc) as f64;
                        let h = (-d2 / denom).exp();
                        let w = &mut som.weights[r as usize * side + c as usize];
                        *w += lr * h * (x - *w);
                    }
                }
                step += 1;
            }
        }
        som
    }

    /// Weight of neuron `(row, col)`.
    pub fn weight(&self, row: usize, col: usize) -> f64 {
        self.weights[row * self.side + col]
    }

    /// The neuron whose weight is closest to `x`.
    pub fn best_matching_unit(&self, x: f64) -> (usize, usize) {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, &w) in self.weights.iter().enumerate() {
            let d = (w - x).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        (best / self.side, best % self.side)
    }

    /// Maps each feature to its BMU cell center in a `width × height` area,
    /// jittered within the cell so co-mapped nodes don't coincide.
    pub fn place(
        &self,
        features: &[f64],
        width: f64,
        height: f64,
        rng: &mut Rng,
    ) -> Vec<(f64, f64)> {
        let cell_w = width / self.side as f64;
        let cell_h = height / self.side as f64;
        features
            .iter()
            .map(|&x| {
                let (r, c) = self.best_matching_unit(x);
                (
                    (c as f64 + rng.next_f64()) * cell_w,
                    (r as f64 + rng.next_f64()) * cell_h,
                )
            })
            .collect()
    }
}

/// End-to-end placement for trace datasets: trains a SOM on the first
/// measurements and returns sensor positions in the area. The grid side is
/// `ceil(sqrt(n))` so the map has about one neuron per node (§5.1.3).
pub fn som_placement(
    first_measurements: &[Value],
    width: f64,
    height: f64,
    rng: &mut Rng,
) -> Vec<(f64, f64)> {
    let features: Vec<f64> = first_measurements.iter().map(|&v| v as f64).collect();
    let side = (features.len() as f64).sqrt().ceil() as usize;
    let som = SelfOrganizingMap::train(side.max(2), &features, 10, rng);
    som.place(&features, width, height, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trained_map_is_roughly_monotone() {
        let mut rng = Rng::seed_from_u64(1);
        let features: Vec<f64> = (0..400).map(|_| rng.range_f64(0.0, 100.0)).collect();
        let som = SelfOrganizingMap::train(10, &features, 10, &mut rng);
        // A well-ordered 1-D-feature SOM has smooth weights: adjacent
        // neurons differ far less than the global range.
        let mut max_adjacent = 0.0f64;
        for r in 0..10 {
            for c in 0..9 {
                max_adjacent = max_adjacent.max((som.weight(r, c) - som.weight(r, c + 1)).abs());
            }
        }
        assert!(max_adjacent < 50.0, "max adjacent jump {max_adjacent}");
    }

    #[test]
    fn placement_correlates_value_and_space() {
        let mut rng = Rng::seed_from_u64(2);
        let features: Vec<Value> = (0..300).map(|_| rng.range_i64(9900, 10200)).collect();
        let pos = som_placement(&features, 200.0, 200.0, &mut rng);
        assert_eq!(pos.len(), 300);
        // Compare mean |Δvalue| of spatial near-pairs vs far-pairs.
        let mut near = (0.0, 0);
        let mut far = (0.0, 0);
        for i in 0..300 {
            for j in (i + 1)..300 {
                let dx = pos[i].0 - pos[j].0;
                let dy = pos[i].1 - pos[j].1;
                let d = (dx * dx + dy * dy).sqrt();
                let dv = (features[i] - features[j]).abs() as f64;
                if d < 20.0 {
                    near = (near.0 + dv, near.1 + 1);
                } else if d > 100.0 {
                    far = (far.0 + dv, far.1 + 1);
                }
            }
        }
        let near_mean = near.0 / near.1.max(1) as f64;
        let far_mean = far.0 / far.1.max(1) as f64;
        assert!(
            near_mean < far_mean,
            "near {near_mean} should be < far {far_mean}"
        );
    }

    #[test]
    fn positions_stay_in_area() {
        let mut rng = Rng::seed_from_u64(3);
        let features: Vec<Value> = (0..100).map(|_| rng.range_i64(0, 1000)).collect();
        let pos = som_placement(&features, 150.0, 80.0, &mut rng);
        for &(x, y) in &pos {
            assert!((0.0..=150.0).contains(&x));
            assert!((0.0..=80.0).contains(&y));
        }
    }

    #[test]
    fn bmu_finds_closest_weight() {
        let som = SelfOrganizingMap {
            side: 2,
            weights: vec![0.0, 10.0, 20.0, 30.0],
        };
        assert_eq!(som.best_matching_unit(1.0), (0, 0));
        assert_eq!(som.best_matching_unit(29.0), (1, 1));
        assert_eq!(som.best_matching_unit(11.0), (0, 1));
    }

    #[test]
    fn constant_features_dont_crash() {
        let mut rng = Rng::seed_from_u64(4);
        let features = vec![42.0; 50];
        let som = SelfOrganizingMap::train(5, &features, 3, &mut rng);
        let pos = som.place(&features, 100.0, 100.0, &mut rng);
        assert_eq!(pos.len(), 50);
    }
}
