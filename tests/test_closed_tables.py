"""The closed tables keyed by int labels against the Fraction tables they
replaced (``oracle_reference``): the same entries, the same bound, the same
printed rows, and labels that are read exactly or not at all."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchkit import quaternionic
from branchkit.cli import _entries_json
from branchkit.errors import InternalError
from branchkit.lattice import coroot_pairing, format_weight, inner, rational_solve, wadd, wscale
from branchkit.quaternionic import (
    _branching_table,
    branching_table,
    check_table_dominance,
    decompose_parameter,
    quaternionic_context,
    table_coords,
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
    """A weight off span(alpha, beta), or with a label that is not a
    half-integer, has no key: truncating it would move the entry."""
    coords = table_coords(g2)
    assert coords.to_key(g2.fw1) == (0, 2) and coords.to_key(g2.fw2) == (2, 0)
    assert coords.to_key(wscale(Fraction(1, 2), g2.beta)) == (1, 1)
    quarter = wscale(Fraction(1, 4), g2.fw1)     # labels (0, 1/4)
    off_span = wadd(g2.beta, wscale(1, (Fraction(1),) * 3))  # plus the normal (1, 1, 1)
    for w in (quarter, off_span):
        with pytest.raises(InternalError, match="off the lattice of its keys"):
            coords.to_key(w)


def test_closed_table_rejects_an_inexact_base(g2, monkeypatch):
    """The table reads lam1 through the exact key: a base a quarter of L1 off
    the label lattice raises instead of losing the quarter."""
    lam = g2.psi.rho
    good = quaternionic.decompose_parameter

    def shifted(ctx, w):
        lam1, lam2 = good(ctx, w)
        return wadd(lam1, wscale(Fraction(1, 4), ctx.fw1)), lam2

    monkeypatch.setattr(quaternionic, "decompose_parameter", shifted)
    with pytest.raises(InternalError, match="off the lattice of its keys"):
        _branching_table(g2, lam, 2)
