from fractions import Fraction

import pytest

from branchkit.errors import DomainError
from branchkit.lattice import (
    coroot_pairing,
    format_weight,
    inner,
    parse_weight,
    weight,
    wadd,
    wneg,
    wscale,
    wsub,
)
from branchkit.quaternionic import (
    admissible_system,
    branching_table,
    check_table_dominance,
    decompose_parameter,
    quaternionic_context,
)
from branchkit.rootsystems import PositiveSystem, chambers


def g2_lambda(a, b, ctx):
    """a fw1 + b beta is dominant regular integral for a, b >= 1."""
    return wadd(wscale(a, ctx.fw1), wscale(b, ctx.beta))


def test_su21_data(g2):
    # fundamental weights of the embedded su(2,1) system
    assert coroot_pairing(g2.form, g2.fw1, g2.alpha) == 0
    assert wadd(g2.fw1, g2.fw2) == g2.beta
    b_minus_a = wsub(g2.beta, g2.alpha)
    assert coroot_pairing(g2.form, g2.fw2, b_minus_a) == 0
    assert {g2.alpha, g2.beta, b_minus_a} <= set(g2.h_roots)


def test_decompose_parameter_span_cases(g2):
    lam1, lam2 = decompose_parameter(g2, wscale(3, g2.beta))
    assert lam1 == wscale(3, g2.beta) and lam2 == weight([0, 0, 0])
    a1 = weight([1, -1, 0])  # orthogonal to beta
    lam1, lam2 = decompose_parameter(g2, a1)
    assert lam1 == weight([0, 0, 0]) and lam2 == a1


def test_decompose_parameter_reconstructs(g2):
    lam = g2_lambda(2, 3, g2)
    lam1, lam2 = decompose_parameter(g2, lam)
    assert wadd(lam1, lam2) == lam
    assert inner(g2.form, lam2, g2.beta) == 0
    assert coroot_pairing(g2.form, lam, g2.beta) == coroot_pairing(g2.form, lam1, g2.beta)


def test_trivial_k2_rep_gives_unit_multiplicities(g2):
    # smallest parameter: the k2 factor carries the trivial representation,
    # so with d = 2 every multiplicity is 1 on the shifted lattice
    lam = g2_lambda(1, 1, g2)
    table = branching_table(g2, lam, cutoff=4)
    assert set(table.entries.values()) == {1}
    lam1, _ = decompose_parameter(g2, lam)
    base = wadd(lam1, wscale(Fraction(1, 2), g2.beta))
    for p in range(3):
        for q in range(3):
            mu = wadd(base, wadd(wscale(p, g2.fw1), wscale(q, g2.fw2)))
            assert table.entries[mu] == 1


def test_frozen_g2_table_corner():
    ctx = quaternionic_context("g2_2")
    lam = g2_lambda(1, 1, ctx)
    assert lam == weight([-1, -2, 3])
    table = branching_table(ctx, lam, cutoff=2)
    # corner entry computed by hand from the projection arithmetic
    assert table.entries[weight([-2, -2, 4])] == 1
    assert table.pairing_bound == coroot_pairing(ctx.form, lam, ctx.beta) + 1 + 2


def test_every_key_su21_dominant(g2, su22):
    for ctx, lam in [
        (g2, g2_lambda(2, 1, g2)),
        (su22, weight([4, 2, 0, -3])),
    ]:
        table = branching_table(ctx, lam, cutoff=6)
        assert check_table_dominance(ctx, table) == []
        b_minus_a = wsub(ctx.beta, ctx.alpha)
        for mu in table.entries:
            assert inner(ctx.form, mu, ctx.alpha) > 0
            assert inner(ctx.form, mu, b_minus_a) > 0
            assert inner(ctx.form, mu, ctx.beta) > 0


def test_dominance_detector_flags_synthetic_violation(g2):
    from branchkit.quaternionic import BranchingTable

    lam = g2_lambda(1, 1, g2)
    bad_mu = wneg(g2.beta)
    fake = BranchingTable({bad_mu: 1}, Fraction(10), "g2_2", lam)
    violations = check_table_dominance(g2, fake)
    assert violations == [bad_mu]


def test_monotone_completeness(g2):
    lam = g2_lambda(2, 2, g2)
    small = branching_table(g2, lam, cutoff=3)
    large = branching_table(g2, lam, cutoff=7)
    for mu, m in small.entries.items():
        assert large.entries[mu] == m
    for mu, m in large.entries.items():
        if coroot_pairing(g2.form, mu, g2.beta) <= small.pairing_bound:
            assert small.entries[mu] == m


def test_support_shape(su22):
    lam = weight([4, 2, 0, -3])
    table = branching_table(su22, lam, cutoff=5)
    lam1, lam2 = decompose_parameter(su22, lam)
    offset = wscale(Fraction(su22.d - 1, 2), su22.beta)
    from branchkit.lattice import rational_solve

    for mu in table.entries:
        rest = wsub(mu, wadd(lam1, offset))
        sol = rational_solve([su22.fw1, su22.fw2, su22.w_line], rest)
        assert sol is not None


def test_non_dominant_parameter_rejected(g2):
    # dominant for the compact system but not for the small system
    lam = wsub(wscale(4, g2.fw1), g2.beta)
    with pytest.raises(DomainError) as err:
        branching_table(g2, lam, cutoff=2)
    assert "not admissible" in str(err.value)


def test_half_integral_parameters_supported(su23):
    # integrality only requires integral coroot pairings; the coordinates
    # themselves may be half-integral on a-type realizations after shifts
    lam = weight(["9/2", "5/2", "1/2", "-1/2", "-7/2"])
    table = branching_table(su23, lam, cutoff=4)
    assert table.entries
    assert check_table_dominance(su23, table) == []


def _flip(ctx, gamma):
    """The small system with the sign of the positive root gamma flipped."""
    i = ctx.rd.positive.index(gamma)
    return PositiveSystem(ctx.rd, tuple(-s if j == i else s for j, s in enumerate(ctx.psi.signs)))


def test_prop_admissibility_dichotomy(g2):
    systems = chambers(g2.rd)
    outcomes = {admissible_system(g2, s) for s in systems}
    assert outcomes == {True, False}
    assert admissible_system(g2, g2.psi) is True
    # flipping one noncompact root of the small system breaks admissibility
    flipped = _flip(g2, g2.alpha)
    assert admissible_system(g2, flipped) is False


def test_admissible_system_rejects_su21_itself():
    # d = 1: the subgroup is the whole group, so no chamber is decided, as the
    # closed form and the oracle decide nothing there either
    ctx = quaternionic_context("su2_n:1")
    systems = chambers(ctx.rd)
    assert len(systems) == 3
    for sigma in systems:
        with pytest.raises(DomainError, match="su2_n:1 has d = 1"):
            admissible_system(ctx, sigma)


def test_admissible_system_requires_compact_part(g2):
    with pytest.raises(DomainError):
        admissible_system(g2, _flip(g2, g2.beta))  # beta is compact


def test_exceptional_closed_form_binomial_lattice():
    # the largest form never enumerates a Weyl group for the closed form;
    # at the half-sum parameter the compact-factor representation is trivial
    # and the table is the pure double-binomial lattice
    from math import comb

    ctx = quaternionic_context("e8_m24")
    table = branching_table(ctx, ctx.psi.rho, cutoff=2)
    d = ctx.d
    assert d == 28
    assert sorted(set(table.entries.values())) == sorted(
        {comb(p + d - 2, d - 2) * comb(q + d - 2, d - 2) for p in range(3) for q in range(3 - p)}
    )


def test_branching_table_sorted_output(g2):
    lam = g2_lambda(1, 2, g2)
    table = branching_table(g2, lam, cutoff=3)
    mus = [mu for mu, _ in table.sorted_entries()]
    assert mus == sorted(mus)
    text = [format_weight(mu) for mu in mus]
    assert all(parse_weight(t) == mu for t, mu in zip(text, mus))
