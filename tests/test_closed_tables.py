"""The closed tables keyed by points of the context's table chart against
the Fraction tables they replaced (``oracle_reference``): the same entries,
the same bound, the same printed rows, and points that are read exactly or
not at all.  Both families state their closed form as a fibre and a
Heaviside multiset, and one builder makes, bounds and checks both.  The
builder's dominance test reads the table's corners, and the CLI writes the
rows straight from the int table, byte for byte as ``json.dumps`` and the
earlier text writer did."""

import json
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchkit.cli import main
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
from branchkit.output import Rows, emit, table_rows, weight_order
from branchkit.rootsystems import simple_elements
from branchkit.specialcases import sp1q_branching_table, sp1q_context
from cli_reference import ReferenceRows, reference_text
from oracle_reference import reference_branching_table, reference_sp1q_table

ROOT = Path(__file__).resolve().parents[1]
# the quaternionic forms of the benchmark's closed-table workload
QUAT_FORMS = ("g2_2", "su2_n:3", "so4_n:5", "f4_4", "e6_2", "e7_m5", "e8_m24")
# every form the benchmark's parameter generators serve, as ``test_oracle``'s
REFERENCE_FORMS = (
    "g2_2", "su2_n:2", "su2_n:3", "su2_n:4", "su2_n:5", "so4_n:3", "so4_n:4", "so4_n:5",
    "so4_n:6", "f4_4", "e6_2", "e7_m5", "e8_m24", "sp1_q:2", "sp1_q:3", "sp1_q:4",
)


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


def _printed(rows: Rows) -> str:
    """The rows as ``--output text`` prints them."""
    return emit({"entries": rows}, "text")


def _check_quat(ctx, lam, cutoff):
    table = branching_table(ctx, lam, cutoff)
    ref = reference_branching_table(ctx, lam, cutoff)
    assert table.entries == ref.entries
    assert table.pairing_bound == ref.pairing_bound
    assert _printed(table_rows(table)) == _printed(Rows(("mu", "mult"), _rows(ref)))
    assert check_table_dominance(ctx, table) == []


def _check_sp1q(ctx, lam, cutoff):
    table = sp1q_branching_table(ctx, lam, cutoff)
    ref = reference_sp1q_table(ctx, lam, cutoff)
    assert table.entries == ref.entries
    assert table.pairing_bound == ref.pairing_bound
    assert _printed(table_rows(table)) == _printed(Rows(("mu", "mult"), _rows(ref)))
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


# ---------------------------------------------------------------------------
# the dominance test at the table's corners, and the rows written from the
# int table


def _family(label):
    """(family, context, its positive system, the closed table's builder)."""
    if label.startswith("sp1_q:"):
        ctx = sp1q_context(int(label.split(":")[1]))
        return "sp1q", ctx, ctx.sigma, sp1q_branching_table
    ctx = quaternionic_context(label)
    return "quat", ctx, ctx.psi, branching_table


def _parameters(label, count=3):
    """rho of the family's system, then ``count`` draws of the benchmark's
    parameter generator for the form."""
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from bench import workloads

    family, ctx, system, _ = _family(label)
    key = ctx.q if family == "sp1q" else label
    rng = random.Random(f"closed tables {label}")
    draws = [workloads.generator(family, key).draw(rng) for _ in range(count)]
    return [format_weight(system.rho)] + draws


def _reference_violations(ctx, lam, cutoff, fibre, den):
    """The entries, on Fraction weights, that are not strictly dominant for
    the subgroup, in the order in which the builder this one replaced made
    them: fibre point by fibre point, and over the steps with the first
    direction's count outermost; each point once."""
    chart = ctx.table_chart
    half = [chart.to_weight((p[0] * m, p[1] * m)) for p, m in ctx.heaviside]
    base = decompose_parameter(ctx, lam)[0]
    for h in half:
        base = wadd(base, wscale(Fraction(1, 2), h))
    steps = [(0, base)]
    for p, _ in ctx.heaviside:
        h = chart.to_weight(p)
        steps = [(n + c, wadd(mu, wscale(c, h))) for n, mu in steps
                 for c in range(cutoff + 1 - n)]
    w = ctx.torus_points[1]
    entries = dict.fromkeys(wadd(mu, tuple(Fraction(n * x, den) for x in w))
                            for n in fibre for _, mu in steps)
    positive = ctx.h_roots[:len(ctx.h_roots) // 2]
    return [mu for mu in entries if any(inner(ctx.form, mu, g) <= 0 for g in positive)]


@pytest.mark.parametrize("label", REFERENCE_FORMS)
def test_corner_dominance_agrees_with_the_entry_scan(label, monkeypatch):
    """At rho and at the benchmark's draws every table passes, and the scan
    of every entry finds nothing.  With the fibre moved along the su(2)
    torus, the builder fails exactly when some entry is not dominant, and
    with the message the per-entry builder raised."""
    _, ctx, _, _ = _family(label)
    fibre_of = type(ctx).fibre
    outcomes = set()
    for text in _parameters(label):
        lam = tuple(Fraction(x) for x in text.split(","))
        for cutoff in (0, 4):
            table = _branching_table(ctx, lam, cutoff)
            assert check_table_dominance(ctx, table) == []
        fibre, den = fibre_of(ctx, lam)
        # the least move of n that keeps the points on the chart lattice, and
        # the move of a third of the base's first coordinate, which bounds
        # the second coordinate of a dominant point
        step = den // gcd(den, ctx.table_chart.scale * ctx.torus_points[3])
        unit = ctx.table_chart.scale * step * ctx.torus_points[3] // den
        reach = max(k for k, _ in _branching_table(ctx, lam, 0).by_key) // unit // 3 + 1
        for j in range(-7, 8):
            shift = j * step * reach
            moved = {n + shift: m for n, m in fibre.items()}
            moved.setdefault(min(fibre) - shift, 1)
            monkeypatch.setattr(type(ctx), "fibre", lambda ctx, lam: (moved, den))
            outcomes.update(_fails_as_the_entry_scan(ctx, lam, cutoff, moved, den)
                            for cutoff in (0, 3))
            monkeypatch.undo()
    assert outcomes == {True, False}


def _fails_as_the_entry_scan(ctx, lam, cutoff, fibre, den) -> bool:
    """Whether the builder fails on the table of this fibre; it fails
    exactly when some entry is not dominant, with the message that the
    per-entry builder raised."""
    want = _reference_violations(ctx, lam, cutoff, fibre, den)
    try:
        table = _branching_table(ctx, lam, cutoff)
    except InternalError as exc:
        assert want
        shown = "; ".join(map(format_weight, want[:3]))
        assert str(exc) == f"non-dominant parameters in the table: {shown}"
    else:
        assert want == [] and check_table_dominance(ctx, table) == []
    return bool(want)


@pytest.mark.parametrize("label", REFERENCE_FORMS)
def test_corner_dominance_reads_the_steps(label, monkeypatch):
    """The subgroup's Heaviside directions are dominant, so no step leaves
    the chamber.  With the last direction tilted along the su(2) torus and
    the fibre moved back by the tilt's move of the half-sum base, steps
    can: the builder still fails exactly as the entry scan does, and some
    table passes at cutoff 0 and fails at cutoff 3, on its steps alone."""
    _, ctx, _, _ = _family(label)
    *first, ((d0, d1), m) = ctx.heaviside
    outcomes = set()
    for text in _parameters(label):
        lam = tuple(Fraction(x) for x in text.split(","))
        fibre, den = ctx.fibre(lam)
        # a tilt by 2 t d0 moves the base's second coordinate by t d0 m, and
        # a move of n by step moves a fibre point's by unit
        step = den // gcd(den, ctx.table_chart.scale * ctx.torus_points[3])
        unit = ctx.table_chart.scale * step * ctx.torus_points[3] // den
        t0 = unit // gcd(unit, d0 * m)
        for t in (-64 * t0, -8 * t0, -t0, t0, 8 * t0, 64 * t0):
            tilted = (*first, ((d0, d1 + 2 * t * d0), m))
            moved = {n - t * d0 * m // unit * step: k for n, k in fibre.items()}
            monkeypatch.setattr(type(ctx), "heaviside", property(lambda ctx: tilted))
            monkeypatch.setattr(type(ctx), "fibre", lambda ctx, lam: (moved, den))
            outcomes.add(tuple(_fails_as_the_entry_scan(ctx, lam, cutoff, moved, den)
                               for cutoff in (0, 3)))
            monkeypatch.undo()
    assert (False, True) in outcomes


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=2, max_size=6),
       st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), unique=True, max_size=30))
def test_weight_order_is_the_lexicographic_order_of_the_weights(columns, points):
    """On a random int chart of rank 2 (an injective map), the two chart
    functionals order the points as their weight numerators sort."""
    if not any(b1 * c2 - c1 * b2 for b1, c1 in columns for b2, c2 in columns):
        columns = columns + [(1, 0), (0, 1)]
    want = sorted(points, key=lambda p: tuple(p[0] * b + p[1] * c for b, c in columns))
    assert weight_order(points, columns) == want


def _reference_output(label, lam, cutoff, output):
    """The branch output of the closed table, from its Fraction weights in
    sorted order, as ``json.dumps`` or the earlier text writer print it."""
    family, ctx, _, builder = _family(label)
    table = builder(ctx, lam, cutoff)
    rows = [(format_weight(mu), str(m)) for mu, m in table.sorted_entries()]
    payload = {"command": "branch", "family": family, "form": label,
               "lambda": format_weight(lam), "cutoff": cutoff,
               "completePairingBound": str(table.pairing_bound), "oracleChecked": False}
    if output == "json":
        entries = [{"mu": mu, "mult": m} for mu, m in rows]
        return json.dumps({**payload, "entries": entries}, indent=2, sort_keys=True) + "\n"
    return reference_text({**payload, "entries": ReferenceRows(("mu", "mult"), rows)})


@pytest.mark.parametrize("label", REFERENCE_FORMS)
def test_streamed_rows_print_the_reference_bytes(label, capsys):
    """``branch`` at cutoffs 0, 8 and 40, in JSON and text, prints exactly
    the reference bytes, for rho and a benchmark draw of every form."""
    family = _family(label)[0]
    for text in _parameters(label, 1):
        lam = tuple(Fraction(x) for x in text.split(","))
        for cutoff in (0, 8, 40):
            for output in ("json", "text"):
                argv = ["branch", family, "--form", label, f"--lambda={text}",
                        "--cutoff", str(cutoff), "--output", output]
                assert main(argv) == 0
                assert capsys.readouterr().out == _reference_output(
                    label, lam, cutoff, output), argv
