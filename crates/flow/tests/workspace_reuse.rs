//! Scratch-reuse invariants on the production min-cost path.
//!
//! The warm-start machinery rests on one contract: a solve that *reuses*
//! scratch (a long-lived backend, the shared [`FlowWorkspace`]) must return
//! exactly what a from-scratch solve returns.  These tests drive repeated
//! [`TransportInstance::solve_min_cost_with_backend`] calls — the call the
//! scheduling layer's System-(2) arena makes at every event — through
//! capacity schedules (growing, shrinking, zeroing) and compare every step
//! against a fresh `solve_min_cost`.

use stretch_flow::{BackendKind, FlowWorkspace, MinCostBackend, TransportInstance};

const DEMANDS: [f64; 3] = [2.0, 3.0, 1.5];
const ROUTES: [(usize, usize); 6] = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)];
const COSTS: [f64; 6] = [1.0, 4.0, 2.0, 1.0, 0.5, 3.0];

/// Capacity schedules covering the warm-start regimes: monotone growth,
/// shrink below the previous solve's flow, zeroed bins (route
/// admissibility flips), an infeasible step and repeats (idempotence).
const SCHEDULES: [[f64; 3]; 7] = [
    [3.0, 2.5, 4.0],
    [4.0, 4.0, 4.0], // growth: previous flow still fits
    [4.0, 4.0, 4.0], // repeat: nothing to re-route
    [2.0, 2.0, 2.5], // shrink below the previous flow
    [0.0, 6.0, 6.0], // bin knocked out entirely
    [1.0, 1.0, 1.0], // infeasible
    [3.0, 2.5, 4.0], // back to the start
];

/// The transportation instance under bin capacities `caps`.
fn instance(caps: &[f64]) -> TransportInstance {
    let mut t = TransportInstance::new(DEMANDS.len(), caps.len());
    for (j, &d) in DEMANDS.iter().enumerate() {
        t.set_demand(j, d);
    }
    for (b, &c) in caps.iter().enumerate() {
        t.set_capacity(b, c);
    }
    for (&(j, b), &c) in ROUTES.iter().zip(&COSTS) {
        t.add_route(j, b, c);
    }
    t
}

/// The oracle: the instance solved from scratch (fresh network, fresh
/// workspace, fresh reference backend).
fn reference_solve(caps: &[f64]) -> Option<(f64, Vec<f64>)> {
    let s = instance(caps).solve_min_cost()?;
    let shipped: Vec<f64> = (0..DEMANDS.len()).map(|j| s.shipped_from(j)).collect();
    Some((s.cost, shipped))
}

fn run_schedule_with_shared_state(kind: BackendKind) {
    let mut backend = kind.instantiate();
    let mut workspace = FlowWorkspace::new();
    for (step, caps) in SCHEDULES.iter().enumerate() {
        let shared = instance(caps).solve_min_cost_with_backend(backend.as_mut(), &mut workspace);
        let fresh = reference_solve(caps);
        match (&shared, &fresh) {
            (Some(r), Some((cost, shipped))) => {
                assert!(
                    (r.cost - cost).abs() < 1e-6 * (1.0 + cost.abs()),
                    "{} step {step}: shared-scratch cost {} vs fresh {}",
                    kind.name(),
                    r.cost,
                    cost
                );
                for (j, &expected) in shipped.iter().enumerate() {
                    let got = r.shipped_from(j);
                    assert!(
                        (got - expected).abs() < 1e-6,
                        "{} step {step}: job {j} ships {got} vs fresh {expected}",
                        kind.name(),
                    );
                }
            }
            (None, None) => {}
            _ => panic!(
                "{} step {step} (caps {caps:?}): feasibility mismatch, shared={:?} fresh={:?}",
                kind.name(),
                shared.as_ref().map(|r| r.cost),
                fresh.as_ref().map(|(c, _)| *c),
            ),
        }
    }
}

#[test]
fn primal_dual_reuse_matches_fresh_solves() {
    run_schedule_with_shared_state(BackendKind::PrimalDual);
}

#[test]
fn network_simplex_reuse_matches_fresh_solves() {
    run_schedule_with_shared_state(BackendKind::NetworkSimplex);
}

#[test]
fn one_workspace_shared_across_backends_stays_consistent() {
    // A single FlowWorkspace threaded alternately through both backends
    // (the differential harness shares a workspace the same way) must not
    // leak state between them.
    let caps = [3.0, 2.5, 4.0];
    let (expected_cost, _) = reference_solve(&caps).expect("feasible");
    let mut workspace = FlowWorkspace::new();
    let mut backends: Vec<Box<dyn MinCostBackend + Send>> =
        BackendKind::ALL.iter().map(|k| k.instantiate()).collect();
    for round in 0..3 {
        for backend in backends.iter_mut() {
            let r = instance(&caps)
                .solve_min_cost_with_backend(backend.as_mut(), &mut workspace)
                .expect("feasible");
            assert!(
                (r.cost - expected_cost).abs() < 1e-6 * (1.0 + expected_cost),
                "round {round}, {}: cost {} vs {expected_cost}",
                backend.name(),
                r.cost
            );
        }
    }
}
