"""Stratify a dense matrix into a near-block-diagonal part plus a small tail.

Given a block structure, a sparse set of cut points is chosen inductively so
that the corner norms past each cut decay like 2^{-j}.  The matrix then splits
exactly into an even double-block-diagonal part, odd off-diagonal strips, and
a residual whose certified tail norms satisfy the 2^{-i+4} bound.  Finally a
diagonal torus unitary is conjugated through the decomposition and the exact
Schur-coefficient identity for the commutator is verified.  Every claim the
script prints is asserted.

Run: python3 demos/demo_stratification.py
"""

import numpy as np

from corona_lab import (
    BlockStructure,
    TorusElement,
    ad_sandwich,
    dd_check,
    op_norm,
    stratify,
)


def main():
    rng = np.random.default_rng(0)
    dim = 192
    blocks = BlockStructure((1,) * dim)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m /= np.linalg.norm(m, 2)

    w = stratify(m, blocks)
    print(f"matrix: {dim}x{dim}, operator norm 1")
    print(f"chosen cut points: {w.X.enumeration.tolist()}")
    residual = w.reconstruction_residual(m)
    dd_exact = dd_check(w.m_e + w.m_o, w.X, blocks)
    print(f"reconstruction residual: {residual:.1e}")
    print(f"forbidden corners of m_e + m_o exactly zero: {dd_exact}")
    assert residual <= 1e-12 and dd_exact
    print("residual tails against 2^(-i+4):")
    for i, b in enumerate(w.tail_bounds):
        print(f"  i={i}: {b:.6f} <= {2.0 ** (-i + 4):.6f}")
    assert w.tail_bound_ok()

    # conjugation by the diagonal torus unitary u = diag(d): the commutator
    # u m u* - m is the Schur product of (d_k conj(d_l) - 1) with m
    alpha = TorusElement(rng.uniform(0, 2 * np.pi, dim))
    d = blocks.expand(alpha.values(np.arange(blocks.num_blocks)))
    u = np.diag(d)
    comm = u @ m @ u.conj().T - m
    schur = (d[:, None] * d.conj()[None, :] - 1.0) * m
    schur_residual = op_norm(comm - schur)
    print(f"\nSchur identity residual: {schur_residual:.1e}")
    assert schur_residual <= 1e-12

    I = [3, 40, 90, 150]
    rep = ad_sandwich(alpha, blocks, I, samples=25, seed=1)
    print(f"\nsandwich on I={I}:")
    print(f"  pseudometric distance delta = {rep['delta']:.6f}")
    print(f"  matrix-unit lower witness   = {rep['lower_witness']:.6f}")
    print(f"  sampled conjugation norms  <= {rep['sampled_max']:.6f} <= 2*delta")
    assert rep["lower_witness"] >= rep["delta"] - 1e-9
    assert rep["sampled_max"] <= 2 * rep["delta"] + 1e-9


if __name__ == "__main__":
    main()
