"""Exact inverse limits of towers of finitely generated abelian groups.

Everything here is integer arithmetic: groups are presented by relation
matrices, bonds by integer matrices, and lim / lim^1 are decided through
Smith and Hermite normal forms.  The centerpiece is a short exact sequence of
towers whose left term has nonvanishing lim^1 while the middle term is
flasque, so the six-term sequence picks up a defect that the script reports
with explicit evidence (a strictly descending chain of image lattices).

A periodic tail decides its tower: its image chain is walked until it
repeats (lim^1 = 0) or passes a bound set by the tail level's free rank and
torsion order (lim^1 nonzero).  lim is printed as "exact" or as "a
truncation" when only the tail level itself can be given.  Every value the
script prints is asserted against the answer known by construction.

Run: python3 demos/demo_derived_limits.py
"""

from corona_lab import (
    AbGroupPresentation,
    Tower,
    build_paper_model,
    constant_tower,
    flasque_check,
    free_group,
    lim1_tower,
    lim_tower,
    six_term_check,
)


def show_tower(name, t, lim, lim1, flasque):
    """Print lim, lim^1 and flasqueness, and assert the expected values."""
    rep = lim_tower(t)
    l1 = lim1_tower(t)
    inv = rep["truncated_lim"].invariants()
    kind = "exact" if rep["stabilized"] else "a truncation"
    print(f"{name}: lim invariants {inv} ({kind})")
    print(f"  lim^1 verdict: {l1['verdict']} ({l1['reason']})")
    print(f"  flasque: {flasque_check(t)}")
    assert (inv, rep["stabilized"], l1["verdict"], flasque_check(t)) == (lim, True, lim1, flasque)


def main():
    z = free_group(1)
    show_tower("constant tower Z <- Z <- ...", constant_tower(z, 6), (1, ()), "Zero", True)

    doubling = Tower(
        levels=(z,) * 6, bonds=(((2,),),) * 5, tail_level=z, tail_bond=((2,),)
    )
    show_tower("\ndoubling tower Z <-2- Z <-2- ...", doubling, (0, ()), "Nonzero", False)
    chain = lim1_tower(doubling)["evidence"]["tail_image_chain"]
    print(f"  descending image lattices (evidence): {chain}")
    assert chain == (((1,),), ((2,),), ((4,),))

    # Z/8 + Z, doubling: the Z/8 images shrink three times, then stop
    g = AbGroupPresentation(rank=2, relations=((8,), (0,)))
    bond = ((2, 0), (0, 1))
    show_tower(
        "\nZ/8 + Z <-diag(2,1)- Z/8 + Z <- ...",
        Tower(levels=(g,) * 3, bonds=(bond,) * 2, tail_level=g, tail_bond=bond),
        (1, ()),
        "Zero",
        False,
    )

    ses = build_paper_model(8)
    rep = six_term_check(ses)
    print("\nshort exact sequence of towers (depth 8):")
    print(f"  lim F = {rep['lim_F']}   lim T = {rep['lim_T']}")
    print(f"  lim^1 T = {rep['lim1_T']}   lim^1 F = {rep['lim1_F']}")
    print(f"  six-term case: {rep['case']}")
    print(f"  middle tower flasque: {flasque_check(ses.T)}")
    quotients = [g.invariants() for g in ses.G.levels[:5]]
    print("  quotient levels: " + ", ".join(map(str, quotients)) + ", ...")
    assert (rep["lim_F"], rep["lim_T"]) == ((0, ()), (1, ()))
    assert (rep["lim1_T"], rep["lim1_F"], rep["case"]) == ("Zero", "Nonzero", "diagonal_defect")
    assert flasque_check(ses.T)
    assert quotients == [(0, ())] + [(0, (2**n,)) for n in range(1, 5)]
    print(
        "  reading: the quotient tower has a thread the middle tower cannot "
        "lift compatibly, and lim^1 of the left tower records the obstruction."
    )


if __name__ == "__main__":
    main()
