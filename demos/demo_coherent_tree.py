"""Build a small coherent binary tree and walk through its certificates.

A chain of nested sparse sets is constructed over a finite horizon, then a
binary tree of torus-valued sequences grows over it: every node stays close to
its ancestors (coherence, measured by the interval profile of the difference),
while the two children of any node are driven apart by a scheduled witness
that achieves the maximal diameter 2 on at least one certified block
(divergence).  The z-variant additionally bounds every consecutive jump of
every node.  Every claim the script prints is asserted.

Run: python3 demos/demo_coherent_tree.py
"""

import numpy as np

from corona_lab import build_tree, generate_chain, min_sufficient_horizon
from corona_lab.tree import DIVERGENCE_TOL


def main():
    depth, horizon, schedule = 3, 20_000, [32, 36, 40]
    print(f"chain: depth={depth} horizon={horizon} schedule={schedule}")
    need = min_sufficient_horizon(depth, schedule)
    print(f"  minimal sufficient horizon: {need}")
    assert need <= horizon
    chain = generate_chain(depth, horizon, schedule)
    for t, lvl in enumerate(chain.levels):
        print(f"  level {t}: {len(lvl)} points, last={lvl.last}")

    tree = build_tree(chain, z_variant=True, eps=0.1, j0=10)
    print(f"\ntree: {len(tree.nodes)} nodes, {len(tree.certificates)} certificates")

    coh = [c for c in tree.certificates if c["kind"] == "coherence"]
    worst = max(coh, key=lambda c: c["tail_max"])
    print(f"coherence: {len(coh)} ancestor/descendant pairs checked")
    print(
        f"  worst tail beyond j0={worst['j0']}: "
        f"{worst['tail_max']:.6f} (allowed {tree.eps})"
        f" at {worst['s']!r} < {worst['t']!r}"
    )
    assert all(c["holds"] for c in coh)
    assert worst["tail_max"] <= tree.eps

    div = [c for c in tree.certificates if c["kind"] == "divergence"]
    print(f"divergence: {len(div)} sibling pairs")
    for c in div[:3]:
        b = c["blocks"][0]
        print(
            f"  {c['s0']!r} vs {c['s1']!r}: block {b['block']} "
            f"(m={b['m']}) reaches diameter {b['delta']:.12f}"
        )
    assert all(
        c["blocks"] and all(b["delta"] >= 2.0 - DIVERGENCE_TOL for b in c["blocks"])
        for c in div
    )

    jump = [c for c in tree.certificates if c["kind"] == "jump_bound"]
    mj = max(c["max_jump"] for c in jump)
    bound = jump[0]["bound"]
    print(f"jump bounds: max consecutive jump {mj:.6f} <= declared {bound:.6f}")
    print(f"  (declared bound = 2 sin(pi/2m) with m = {min(schedule)})")
    assert mj <= bound + 1e-12 and all(c["holds"] for c in jump)
    print("\nall certificates hold")


if __name__ == "__main__":
    main()
