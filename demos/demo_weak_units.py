"""Tour of the tent-function approximate unit and its certified estimates.

The model places interlocking tent functions on a grid: consecutive tents
overlap, tents two or more apart multiply to exactly zero, and the partial
sums form an increasing sequence of positive contractions with exact plateau
interlocking.  On top of this the script runs the power-gap calculus, the
corner-witness search, the quasi-unitary tail bound, and the sandwich probe,
and closes with the tensor-slice identity.

Run: python3 demos/demo_weak_units.py
"""

import numpy as np

from corona_lab import (
    BlockStructure,
    TorusElement,
    build_tent_unit,
    constant_one,
    epsilon_witness,
    hyp_check,
    power_gap,
    projection_unit,
    quasi_unitary_residual,
    slice_identity_check,
    tensor_unit,
    weak_sandwich,
)


def main():
    unit = build_tent_unit(16, 0.25)
    inv = unit.check_invariants(tol=0.0)
    print(f"tent model: {unit.count} tents on {unit.dim} grid points")
    print(f"  interlock defect {inv['interlock']}, far products {inv['far_products']} (exact)")

    print("\npower gap ||r^(k+1) - r^k|| on a full ramp (analytic k^k/(k+1)^(k+1)):")
    for k in (1, 2, 4, 8):
        print(f"  k={k}: {power_gap(None, k, continuous_range=(0, 1)):.10f}")

    out = epsilon_witness(unit, 2, 9, 0.1)
    n = out["norms"]
    print(
        f"\nwitness for the (2, 9) corner at eps=0.1: k={n['k']}, "
        f"norm={n['norm_a']:.6f}, corner={n['corner']:.6f}, defect={n['defect']:.6f}"
    )

    phases = np.cumsum(1.0 / (np.arange(unit.count) + 1.0) ** 2)
    alpha = TorusElement(phases)
    print("\nquasi-unitary tail for slowly varying phases:")
    for N in (2, 6, 12):
        rep = quasi_unitary_residual(alpha, unit, N)
        print(f"  N={N}: tail {rep['tail_norm']:.6f} <= 3*eps_N = {rep['bound']:.6f}")

    rep = weak_sandwich(alpha, unit, [1, 6, 12], eps_probe=0.05, seed=0)
    print(
        f"\nsandwich probe: delta={rep['delta']:.6f}, achieved={rep['achieved']:.6f}, "
        f"sampled<= {rep['sampled_max']:.6f}"
    )

    print(f"\nhypothesis check (weak form): {hyp_check(unit, 'HypWeak', eps=0.1)['holds']}")
    print(f"hypothesis check (projection form, tents): {hyp_check(unit, 'HypA')['holds']}")

    # tensor with an increasing family of projections and slice back down
    proj = projection_unit(BlockStructure((2, 1, 2)))
    qs = []
    for k in range(1, proj.count + 1):
        q = np.zeros((3, 3))
        q[: min(k, 3), : min(k, 3)] = np.eye(min(k, 3))
        qs.append(q)
    s = tensor_unit(proj, qs)
    v = np.zeros(3)
    v[0] = 1.0
    rng = np.random.default_rng(1)
    a = rng.standard_normal((proj.dim, proj.dim)) + 1j * rng.standard_normal(
        (proj.dim, proj.dim)
    )
    rep = slice_identity_check(proj, s, v, a, 0, 2, k=2)
    print(f"tensor slice identity holds: {rep['holds']}")

    print(f"\nconstant phases give zero tail: "
          f"{quasi_unitary_residual(constant_one(unit.count), unit, 0)['tail_norm']}")


if __name__ == "__main__":
    main()
