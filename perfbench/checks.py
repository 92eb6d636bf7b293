"""Checks of corona-lab outputs, computed apart from the program.

Each check returns a list of ``(kind, message)`` failures; an empty list
means the output passed.  The checks use their own numerics: a sort-based
circle diameter instead of the program's pairwise one, and spectral norms
through ``eigvalsh`` of a Gram matrix instead of ``op_norm``.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

#: a divergence certificate must reach the maximal diameter 2 up to this
DIVERGENCE_TOL = 1e-9
#: a reported tail_max / max_jump must match the recomputed one this closely
REPORT_TOL = 1e-9
#: relative slack for "a certified upper bound is >= the true norm"
NORM_TOL = 1e-13

# failure kinds
WRONG = "wrong"
#: a reported norm bound lies below the true norm
BELOW_NORM = "below_norm"


def enumeration(elements) -> np.ndarray:
    """Increasing enumeration of {0} ∪ X for the elements of a sparse set."""
    el = np.asarray(elements, dtype=np.int64)
    return el if el[0] == 0 else np.concatenate([[0], el])


def circle_diameters(phases, starts, ends) -> np.ndarray:
    """Diameter of {exp(i*phases[k]) : s <= k < e} for every window [s, e).

    Sort-based: the point farthest from exp(i*t) is a circular neighbour of
    the antipode t + pi in the window's sorted phases, so each member looks
    at two candidates.
    """
    phases = np.asarray(phases, dtype=float)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(ends, dtype=np.int64) - starts
    out = np.zeros(starts.size)
    wide = np.nonzero(lengths >= 2)[0]
    if wide.size == 0:
        return out
    size = lengths[wide]
    first = np.cumsum(size) - size
    win = np.repeat(np.arange(wide.size), size)
    member = np.repeat(starts[wide] - first, size) + np.arange(win.size)
    theta = np.mod(phases[member], TWO_PI)
    # windows are kept apart in one sorted array by an offset of 8 > 2*pi
    key = theta + 8.0 * win
    order = np.argsort(key, kind="stable")
    antipode = np.mod(theta + np.pi, TWO_PI) + 8.0 * win
    local = np.searchsorted(key[order], antipode) - first[win]
    lo = first[win] + np.mod(local - 1, size[win])
    hi = first[win] + np.mod(local, size[win])
    z = np.exp(1j * theta)
    zs = z[order]
    far = np.maximum(np.abs(zs[lo] - z), np.abs(zs[hi] - z))
    out[wide] = np.maximum.reduceat(far, first)
    return out


def check_tree(doc: dict, args: dict, min_m: int, rng, samples: int = 4) -> list:
    """Check a ``corona-lab tree`` document against the ``args`` it was built
    with (depth, eps, j0, z_variant).

    Node count; one divergence certificate per inner node, whose Δ over each
    listed block, the diameter of γ = α_s1·conj(α_s0), reaches 2; ``samples``
    coherence certificates drawn with ``rng``, recomputed from the node
    phases; and, for the z-variant, every node's largest jump against
    2·sin(π/(2·min_m)).
    """
    fails = []
    depth, nodes = args["depth"], doc["nodes"]
    if len(nodes) != 2 ** (depth + 1) - 1:
        fails.append((WRONG, f"{len(nodes)} nodes, expected {2 ** (depth + 1) - 1}"))
        return fails
    if (doc["eps"], doc["j0"], doc["z_variant"]) != (args["eps"], args["j0"], args["z_variant"]):
        fails.append((WRONG, f"document echoes eps, j0, z_variant {doc['eps']}, {doc['j0']}, "
                             f"{doc['z_variant']}"))
    phases = {label: np.asarray(n["phases"], dtype=float) for label, n in nodes.items()}
    levels = [enumeration(lv["elements"]) for lv in doc["levels"]]
    certs = doc["certificates"]

    divergence = [c for c in certs if c["kind"] == "divergence"]
    parents = sorted(c["s0"][:-1] for c in divergence
                     if c["s1"] == c["s0"][:-1] + "1" and c["level"] == len(c["s0"]) - 1)
    if parents != sorted(label for label in nodes if len(label) < depth):
        fails.append((WRONG, "divergence certificates do not match the inner nodes"))
    for c in divergence:
        pts = levels[c["level"] + 1]
        gamma = phases[c["s1"]] - phases[c["s0"]]
        if not c["blocks"]:
            fails.append((WRONG, f"divergence {c['s0']}/{c['s1']} has no block"))
        for b in c["blocks"]:
            lo, hi = pts[b["block"]], pts[b["block"] + 1]
            d = circle_diameters(gamma, [lo], [hi])[0]
            if d < 2.0 - DIVERGENCE_TOL:
                fails.append((WRONG, f"divergence {c['s0']}/{c['s1']} block {b['block']}: {d}"))

    coherence = [c for c in certs if c["kind"] == "coherence"]
    pairs = sorted((c["s"], c["t"]) for c in coherence)
    if pairs != sorted((t[:cut], t) for t in nodes for cut in range(len(t))):
        fails.append((WRONG, "coherence certificates do not match the ancestor pairs"))
    eps, j0 = args["eps"], args["j0"]
    picks = rng.choice(len(coherence), size=min(samples, len(coherence)), replace=False)
    for k in picks:
        c = coherence[k]
        pts = levels[len(c["s"])]
        d = circle_diameters(phases[c["s"]] - phases[c["t"]], pts[:-2], pts[2:])
        tail = float(d[j0:].max()) if d.size > j0 else 0.0
        if tail > eps or abs(tail - c["tail_max"]) > REPORT_TOL or not c["holds"]:
            fails.append(
                (WRONG, f"coherence {c['s']!r}<{c['t']!r}: tail {tail} vs reported "
                 f"{c['tail_max']}, eps {eps}")
            )

    if args["z_variant"]:
        bound = 2.0 * np.sin(np.pi / (2.0 * min_m))
        jumps = {c["node"]: c for c in certs if c["kind"] == "jump_bound"}
        if set(jumps) != set(nodes):
            fails.append((WRONG, "jump-bound certificates do not cover every node"))
        for label, c in jumps.items():
            v = np.exp(1j * phases[label])
            jump = float(np.abs(np.diff(v)).max()) if v.size > 1 else 0.0
            if jump > bound + 1e-12 or abs(jump - c["max_jump"]) > REPORT_TOL:
                fails.append((WRONG, f"jump bound at {label!r}: {jump} vs bound {bound}"))
    return fails


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value, from ``eigvalsh`` of the smaller Gram matrix."""
    if a.size == 0:
        return 0.0
    g = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
    return float(np.sqrt(max(np.linalg.eigvalsh(g)[-1], 0.0)))


def check_stratify(m, sizes, X_elements, m_e, m_o, a, tail_bounds) -> list:
    """Check a stratification of ``m`` over blocks of the given sizes.

    m = m_e + m_o + a exactly; the corners of m_e + m_o between X-intervals
    at distance >= 2 are zero; X follows the selection rule n(0) = 0,
    n(1) = 1, n(j+1) minimal with both corner norms <= 2^-j; and every tail
    bound is >= the true norm of its tail of ``a``.
    """
    fails = []
    sizes = np.asarray(sizes, dtype=np.int64)
    nb = sizes.size
    off = np.concatenate([[0], np.cumsum(sizes)])
    if not np.array_equal(m_e + m_o + a, m):
        fails.append((WRONG, "m != m_e + m_o + a"))

    pts = enumeration(X_elements)
    if pts[1] != 1 or pts[-1] != nb or np.any(np.diff(pts) <= 0):
        fails.append((WRONG, f"X = {pts.tolist()} is not a selection ending at {nb}"))
        return fails

    blk = np.repeat(np.arange(nb), sizes)
    iv = np.searchsorted(pts, blk, side="right") - 1
    forbidden = np.abs(iv[:, None] - iv[None, :]) >= 2
    if np.any((m_e + m_o)[forbidden] != 0):
        fails.append((WRONG, "nonzero entry in a corner forbidden by X"))

    def corners(row_block, cut_block):
        row, cut = off[row_block], off[cut_block]
        return max(spectral_norm(m[row:, :cut]), spectral_norm(m[:cut, row:]))

    for j in range(1, pts.size - 1):
        prev, nxt, bound = int(pts[j]), int(pts[j + 1]), 2.0 ** (-j)
        at = corners(nxt, prev)
        if at > bound * (1.0 + NORM_TOL):
            fails.append((BELOW_NORM, f"level {j}: corner norm {at} > {bound} at n={nxt}"))
        # corner norms do not grow with the row, so one step back suffices
        if nxt - 1 > prev:
            before = corners(nxt - 1, prev)
            if before <= bound * (1.0 - NORM_TOL):
                fails.append((WRONG, f"level {j}: n={nxt - 1} already qualifies"))

    if len(tail_bounds) != pts.size:
        fails.append((WRONG, f"{len(tail_bounds)} tail bounds for {pts.size} points"))
        return fails
    for i, (n_i, b) in enumerate(zip(pts, tail_bounds)):
        true = spectral_norm(a[off[min(int(n_i), nb)]:, :])
        if b < true * (1.0 - NORM_TOL):
            fails.append((BELOW_NORM, f"tail bound {i}: {b!r} < norm {true!r}"))
    return fails


def check_limits(doc: dict, expected: dict) -> list:
    """Compare a ``corona-lab limits`` document with answers known by
    construction; ``expected`` holds the fields to match."""
    fails = []
    for key, want in expected.items():
        got = doc
        for part in key.split("."):
            got = got.get(part) if isinstance(got, dict) else None
        if got != want:
            fails.append((WRONG, f"{key}: {got!r}, expected {want!r}"))
    return fails


def check_verify(rc: int, doc: dict) -> list:
    """``corona-lab verify`` must exit 0 and report ok with no failures."""
    if rc != 0 or doc.get("ok") is not True or doc.get("failures"):
        return [(WRONG, f"verify exit {rc}, failures {doc.get('failures')!r}")]
    return []
