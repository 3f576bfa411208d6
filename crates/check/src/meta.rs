//! Protocol-level metamorphic runs.
//!
//! The oracle-level metamorphic properties (rotation invariance, affine
//! equivariance of order statistics — `cqp_core::rank`) say what the
//! *answer function* must do. This module checks that the *distributed
//! protocols* inherit those properties: we rebuild exactly the world the
//! runner would build for run 0 of a scenario, feed each round's
//! measurements through a value transform, and return the answer stream.
//! On reliable links a protocol that is exact must therefore be invariant
//! under any node-permutation of the values and equivariant under
//! `v ↦ a·v + b` with `a > 0` (the query range is mapped alongside).

use std::panic::{catch_unwind, AssertUnwindSafe};

use cqp_core::protocol::QueryConfig;
use wsn_sim::{AlgorithmKind, Scenario, SimulationConfig, Value, World};

/// The answer stream of `kind` on run 0 of `scenario`, with every round's
/// measurement vector transformed by `v_i ↦ a·v_{(i+rot) mod n} + b`
/// before the protocol sees it (`a = 1, b = 0, rot = 0` is the identity).
///
/// Only meaningful for reliable worlds: those install no loss or failure
/// model, and the world is built unaudited and static (duty cycles and
/// drift never change a reliable world's answers), so the protocol
/// consumes no link randomness and the stream is a pure function of
/// `(scenario, kind, a, b, rot)`.
///
/// Returns `Err` with the panic payload if the protocol panics.
pub fn answers(
    scenario: &Scenario,
    kind: AlgorithmKind,
    a: Value,
    b: Value,
    rot: usize,
) -> Result<Vec<Value>, String> {
    assert!(a > 0, "metamorphic affine maps need a positive slope");
    let cfg = SimulationConfig {
        audit: false,
        dynamics: None,
        ..scenario.to_config()
    };
    catch_unwind(AssertUnwindSafe(|| {
        let mut world = World::new(&cfg, 0);
        let n = world.sensor_count();
        let query = world.query(cfg.phi);
        let query = QueryConfig {
            range_min: a * query.range_min + b,
            range_max: a * query.range_max + b,
            ..query
        };
        let mut alg = kind.build(query, &cfg.sizes);
        let mut transformed = vec![0 as Value; n];
        let mut out = Vec::with_capacity(cfg.rounds as usize);
        for t in 0..cfg.rounds {
            world.begin_round(t);
            let raw = world.values();
            for i in 0..n {
                transformed[i] = a * raw[(i + rot) % n] + b;
            }
            out.push(alg.round(world.net_mut(), &transformed));
        }
        out
    }))
    .map_err(|e| crate::invariants::panic_text(&e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_sim::DataSource;

    fn reliable() -> Scenario {
        Scenario {
            seed: 11,
            nodes: 12,
            range_milli: 3000,
            rounds: 6,
            runs: 1,
            phi_milli: 500,
            loss_milli: 0,
            retries: 0,
            recovery: 0,
            failure_milli: 0,
            eps_milli: 100,
            capacity: 0,
            queries: 1,
            mobility_milli: 0,
            churn_milli: 0,
            drift_milli: 0,
            duty_milli: 0,
            source: DataSource::Sinusoid {
                period: 16,
                noise_permille: 200,
            },
        }
    }

    #[test]
    fn identity_stream_is_reproducible() {
        let s = reliable();
        let a = answers(&s, AlgorithmKind::Iq, 1, 0, 0).unwrap();
        let b = answers(&s, AlgorithmKind::Iq, 1, 0, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn rotation_and_affine_hold_for_one_protocol() {
        let s = reliable();
        for kind in [AlgorithmKind::Pos, AlgorithmKind::Hbc] {
            let id = answers(&s, kind, 1, 0, 0).unwrap();
            let rot = answers(&s, kind, 1, 0, 5).unwrap();
            assert_eq!(id, rot, "{} rotation", kind.name());
            let aff = answers(&s, kind, 3, 1000, 0).unwrap();
            let mapped: Vec<Value> = id.iter().map(|&v| 3 * v + 1000).collect();
            assert_eq!(aff, mapped, "{} affine", kind.name());
        }
    }
}
