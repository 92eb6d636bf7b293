"""Tour of the tent-function approximate unit and its certified estimates.

The model places interlocking tent functions on a grid: consecutive tents
overlap, tents two or more apart multiply to exactly zero, and the partial
sums form an increasing sequence of positive contractions with exact plateau
interlocking.  On top of this the script runs the power-gap calculus, the
corner-witness search, the quasi-unitary tail bound, and the sandwich probe,
and closes with the stable case: a projection unit tensored with coordinate
projections of growing rank.  Every claim the script prints is asserted.

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
    tensor_unit,
    weak_sandwich,
)


def main():
    unit = build_tent_unit(16, 0.25)
    inv = unit.check_invariants(tol=0.0)
    print(f"tent model: {unit.count} tents on {unit.dim} grid points")
    print(f"  interlock defect {inv['interlock']}, far products {inv['far_products']} (exact)")
    assert inv["ok"]

    print("\npower gap ||r^(k+1) - r^k|| on a full ramp (analytic k^k/(k+1)^(k+1)):")
    for k in (1, 2, 4, 8):
        gap = power_gap(None, k, continuous_range=(0, 1))
        print(f"  k={k}: {gap:.10f}")
        assert abs(gap - k**k / (k + 1) ** (k + 1)) <= 1e-15

    out = epsilon_witness(unit, 2, 9, 0.1)
    n = out["norms"]
    print(
        f"\nwitness for the (2, 9) corner at eps=0.1: k={n['k']}, "
        f"norm={n['norm_a']:.6f}, corner={n['corner']:.6f}, defect={n['defect']:.6f}"
    )
    assert abs(n["norm_a"] - 1.0) <= 1e-9 and n["corner"] >= 0.9 and n["defect"] < 0.1

    phases = np.cumsum(1.0 / (np.arange(unit.count) + 1.0) ** 2)
    alpha = TorusElement(phases)
    print("\nquasi-unitary tail for slowly varying phases:")
    for N in (2, 6, 12):
        rep = quasi_unitary_residual(alpha, unit, N)
        print(f"  N={N}: tail {rep['tail_norm']:.6f} <= 3*eps_N = {rep['bound']:.6f}")
        assert rep["tail_norm"] <= rep["bound"]

    rep = weak_sandwich(alpha, unit, [1, 6, 12], eps_probe=0.05, seed=0)
    print(
        f"\nsandwich probe: delta={rep['delta']:.6f}, achieved={rep['achieved']:.6f}, "
        f"sampled<= {rep['sampled_max']:.6f}"
    )
    assert rep["achieved"] >= rep["delta"] - rep["lower_slack"] - 1e-9
    assert rep["sampled_max"] <= 2 * rep["delta"] + 1e-9

    weak = hyp_check(unit, "HypWeak", eps=0.1)["holds"]
    strong = hyp_check(unit, "HypA")["holds"]
    print(f"\nhypothesis check (weak form): {weak}")
    print(f"hypothesis check (projection form, tents): {strong}")
    assert weak and not strong

    # the stable case: tensor with the projections q_n onto the first n
    # coordinates of C^3, each given by its diagonal
    proj = projection_unit(BlockStructure((2, 1, 2)))
    qs = [np.arange(3) < n for n in range(1, proj.count + 1)]
    s = tensor_unit(proj, qs)
    stable = hyp_check(s, "HypA")["holds"]
    print(f"\nstable unit: {s.count} projections on {s.dim} coordinates, HypA holds: {stable}")
    rep = quasi_unitary_residual(alpha, s, 0)
    print(f"  quasi-unitary tail {rep['tail_norm']} <= 3*eps_N = {rep['bound']:.6f}")
    assert stable and rep["tail_norm"] <= rep["bound"]

    tail = quasi_unitary_residual(constant_one(unit.count), unit, 0)["tail_norm"]
    print(f"\nconstant phases give zero tail: {tail}")
    assert tail == 0.0


if __name__ == "__main__":
    main()
