"""The closed tables keyed by points of the context's table chart against
the Fraction tables they replaced (``oracle_reference``): the same entries,
the same bound, the same printed rows, and points that are read exactly or
not at all.  Both families state their closed form as a fibre and a
Heaviside multiset, and one builder makes, bounds and checks both."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchkit.cli import _entries_json
from branchkit.errors import InternalError
from branchkit.lattice import (
    coroot_pairing,
    format_weight,
    inner,
    rational_solve,
    wadd,
    wscale,
    wsub,
)
from branchkit.quaternionic import (
    BranchingTable,
    QuaternionicContext,
    _branching_table,
    branching_table,
    check_table_dominance,
    decompose_parameter,
    quaternionic_context,
)
from branchkit.rootsystems import simple_elements
from branchkit.specialcases import sp1q_branching_table, sp1q_context
from oracle_reference import reference_branching_table, reference_sp1q_table

# the quaternionic forms of the benchmark's closed-table workload
QUAT_FORMS = ("g2_2", "su2_n:3", "so4_n:5", "f4_4", "e6_2", "e7_m5", "e8_m24")


def fundamental_weights(form, simple):
    """w_i in the span of the simple roots with <w_i, a_j-check> = delta_ij."""
    n = len(simple)
    columns = [tuple(coroot_pairing(form, a, b) for b in simple) for a in simple]
    out = []
    for i in range(n):
        x = rational_solve(columns, tuple(Fraction(i == j) for j in range(n)))
        w = wscale(0, simple[0])
        for c, a in zip(x, simple):
            w = wadd(w, wscale(c, a))
        out.append(w)
    return out


def _quat(label):
    ctx = quaternionic_context(label)
    return ctx, ctx.psi.rho, fundamental_weights(ctx.form, simple_elements(ctx.psi.chosen, ctx.form))


def _sp1q(q):
    ctx = sp1q_context(q)
    return ctx, ctx.sigma.rho, fundamental_weights(ctx.form, ctx.rd.simple)


def _parameter(rho, fundamentals, scale, coeffs):
    """scale rho plus a nonnegative combination of fundamental weights:
    regular, integral and dominant."""
    lam = wscale(scale, rho)
    for c, w in zip(coeffs, fundamentals):
        lam = wadd(lam, wscale(c, w))
    return lam


def _draw(rng, ctx, rho, fundamentals):
    """A seeded parameter whose compact-factor representation has dimension
    at most 16, redrawn from the same stream until it does.  The dimension
    is the product of (lam2, g) / (rho_k2, g) over the positive k2 roots g,
    every factor at least 1."""
    k2 = ctx.k2_factor
    while True:
        lam = _parameter(rho, fundamentals, 1, [rng.choice((0, 0, 1, 2)) for _ in fundamentals])
        lam2 = decompose_parameter(ctx, lam)[1]
        dim = 1
        for g in k2.positive:
            dim *= inner(ctx.form, lam2, g) / inner(ctx.form, k2.rho, g)
            if dim > 16:
                break
        else:
            return lam


def _rows(table):
    return [(format_weight(mu), str(m)) for mu, m in table.sorted_entries()]


def _check_quat(ctx, lam, cutoff):
    table = branching_table(ctx, lam, cutoff)
    ref = reference_branching_table(ctx, lam, cutoff)
    assert table.entries == ref.entries
    assert table.pairing_bound == ref.pairing_bound
    assert _entries_json(table) == _rows(ref)
    assert check_table_dominance(ctx, table) == []


def _check_sp1q(ctx, lam, cutoff):
    table = sp1q_branching_table(ctx, lam, cutoff)
    ref = reference_sp1q_table(ctx, lam, cutoff)
    assert table.entries == ref.entries
    assert table.pairing_bound == ref.pairing_bound
    assert _entries_json(table) == _rows(ref)
    assert check_table_dominance(ctx, table) == []


@pytest.mark.parametrize("label", QUAT_FORMS)
def test_quaternionic_int_table_matches_fraction_reference(label):
    ctx, rho, fundamentals = _quat(label)
    rng = random.Random(label)
    for _ in range(3):
        _check_quat(ctx, _draw(rng, ctx, rho, fundamentals), 8)


@pytest.mark.parametrize("q", [2, 3])
def test_sp1q_int_table_matches_fraction_reference(q):
    ctx, rho, fundamentals = _sp1q(q)
    rng = random.Random(q)
    for _ in range(4):
        _check_sp1q(ctx, _draw(rng, ctx, rho, fundamentals), 8)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["g2_2", "su2_n:2", "so4_n:3", "sp1_q:2"]), st.integers(1, 2),
       st.lists(st.integers(0, 2), min_size=3, max_size=3), st.integers(0, 5))
def test_int_tables_match_fraction_reference_on_small_parameters(label, scale, coeffs, cutoff):
    """rho or 2 rho plus small multiples of the fundamental weights: on
    so4_n:3 and su2_n:2 the odd multiples of rho are half-integral."""
    if label == "sp1_q:2":
        ctx, rho, fundamentals = _sp1q(2)
        _check_sp1q(ctx, _parameter(rho, fundamentals, scale, coeffs), cutoff)
    else:
        ctx, rho, fundamentals = _quat(label)
        _check_quat(ctx, _parameter(rho, fundamentals, scale, coeffs), cutoff)


def test_labels_are_read_exactly(g2):
    """On the table chart (scale 2 on g2_2) L1 is (u, u) and L2 is (u, -u)
    with u even, so L1 / 2, L2 / 2 and beta / 2 are points.  A weight off
    span(alpha, beta), or a quarter of L1, has no point: truncating it would
    move the entry."""
    chart = g2.table_chart
    u = g2.half_beta  # beta / 2 is (u, 0)
    assert (chart.scale, u) == (2, 6)
    assert chart.to_point(g2.fw1) == (u, u) and chart.to_point(g2.fw2) == (u, -u)
    assert chart.to_point(wscale(Fraction(1, 2), g2.beta)) == (u, 0)
    quarter = wscale(Fraction(1, 4), g2.fw1)     # the point (u / 4, u / 4), u = 6
    off_span = wadd(g2.beta, wscale(1, (Fraction(1),) * 3))  # plus the normal (1, 1, 1)
    for w in (quarter, off_span):
        with pytest.raises(InternalError, match="off the chart lattice"):
            chart.to_point(w)


def test_closed_table_rejects_an_inexact_base(g2):
    """The table reads lam1 exactly, as (lam, b) on lam's int point: a base
    an eighth of beta off the chart lattice, the point (3/2, 0), raises
    instead of losing the eighth.  The shift leaves lam2, and so the k2
    table, those of rho."""
    lam = wadd(g2.psi.rho, wscale(Fraction(1, 8), g2.beta))
    with pytest.raises(InternalError, match="off the chart lattice"):
        _branching_table(g2, lam, 2)


def test_closed_table_rejects_an_inexact_sigma(g2, monkeypatch):
    """Each sigma is read exactly too: a torus weight w / (8 E), of pairing
    1 / (8 s) with w_line for a table at scale s, is off the table chart
    at scale 2 and raises."""
    fibre = QuaternionicContext.fibre
    monkeypatch.setattr(QuaternionicContext, "fibre",
                        lambda ctx, lam: ({1: 1}, 8 * fibre(ctx, lam)[1]))
    with pytest.raises(InternalError, match="off the chart lattice"):
        _branching_table(g2, g2.psi.rho, 2)


GRID = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]


@pytest.mark.parametrize("label", ["g2_2", "su2_n:3", "so4_n:4", "f4_4", "e6_2"])
def test_quaternionic_dominance_is_a_sign_test_on_the_table_chart(label):
    """(mu, alpha) > 0 and (mu, beta - alpha) > 0 is p0 > |p1| on the table
    chart, and ``check_table_dominance`` reports exactly the other points."""
    ctx = quaternionic_context(label)
    chart = ctx.table_chart
    b_minus_a = wsub(ctx.beta, ctx.alpha)
    for p in GRID:
        mu = chart.to_weight(p)
        assert (inner(ctx.form, mu, ctx.alpha) > 0 and inner(ctx.form, mu, b_minus_a) > 0) == (
            p[0] > abs(p[1]))
    table = BranchingTable(dict.fromkeys(GRID, 1), None, label, None, chart)
    bad = set(check_table_dominance(ctx, table))
    assert bad == {chart.to_weight(p) for p in GRID if not p[0] > abs(p[1])}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_sp1q_dominance_is_a_sign_test_on_the_table_chart(q):
    """a > k > 0 for mu = a e0 + k e1 is p0 > p1 > 0 on the table chart, the
    sign test of the subgroup's positive roots that the closed table runs,
    and ``check_table_dominance`` reports exactly the other points."""
    ctx = sp1q_context(q)
    chart = ctx.table_chart
    for p in GRID:
        a, k = chart.to_weight(p)[:2]
        assert ctx.dominant(p) == (a > k > 0) == (p[0] > p[1] > 0)
    table = BranchingTable(dict.fromkeys(GRID, 1), None, ctx.rd.label, None, chart)
    bad = set(check_table_dominance(ctx, table))
    assert bad == {chart.to_weight(p) for p in GRID if not p[0] > p[1] > 0}


@pytest.mark.parametrize("label", QUAT_FORMS + ("sp1_q:2", "sp1_q:3", "sp1_q:4"))
def test_each_context_states_its_heaviside_directions_on_the_table_chart(label):
    """L1 and L2, each d - 1 times, or e0 = beta / 2, 2q - 2 times: every
    direction pairs to 1 with beta-check, so its first coordinate is u."""
    if label.startswith("sp1_q:"):
        ctx = sp1q_context(int(label[-1]))
        want = {ctx.table_chart.to_point(wscale(Fraction(1, 2), ctx.beta)): 2 * ctx.q - 2}
    else:
        ctx = quaternionic_context(label)
        want = {ctx.table_chart.to_point(ctx.fw1): ctx.d - 1,
                ctx.table_chart.to_point(ctx.fw2): ctx.d - 1}
    assert dict(ctx.heaviside) == want
    assert all(p[0] == ctx.half_beta for p, _ in ctx.heaviside)
    for p, _ in ctx.heaviside:
        assert coroot_pairing(ctx.form, ctx.table_chart.to_weight(p), ctx.beta) == 1

