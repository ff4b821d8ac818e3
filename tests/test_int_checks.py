"""The request checks on int points against their Fraction references
(``oracle_reference``): lambda's validation, the Hermitian chamber and its
certificate test, the compact factor's conversion, dimension and coweights,
and the context's projection check.  Then the int torus pairings against
the Fraction projections they replaced: the oracle plans, the split of a
parameter, the closed tables' grouped sigma keys, the sp(1, q) strings and
Freudenthal's walk over dominant weights.  The forms are the benchmark's:
every quaternionic form of its closed tables, sp(1, 2) and sp(1, 3), and its
five Hermitian forms, each with its seed-0 parameter."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchkit import cli, formal, quaternionic, repweights
from branchkit.errors import DomainError, InternalError
from branchkit.lattice import (
    Chart,
    dual_covectors,
    inner,
    parse_weight,
    scaled_points,
    wadd,
    weight,
    wscale,
)
from branchkit.oracle import OracleConfig, _coset_series, _positive_side, _products, oracle_plan
from branchkit.quaternionic import (
    BranchingTable,
    _branching_table,
    _verify_projections,
    decompose_parameter,
    lam2_weight_table,
    quaternionic_context,
)
from branchkit.repweights import (
    CompactFactor,
    _dominant_representative,
    _dominant_weights,
    hc_to_highest_weight,
    regular_integral_pairings,
    validate_hc_parameter,
    weyl_dimension,
)
from branchkit.rootsystems import (
    _highest_root_datum,
    chambers,
    parse_label,
    quaternionic_root_datum,
    simple_positions,
)
from branchkit.specialcases import (
    Sp1qContext,
    hermitian_data,
    kss_admissible_system,
    sp1q_context,
    sp1q_string_table,
    validate_hermitian_parameter,
)
from oracle_reference import (
    fraction_pairings,
    reference_decompose_parameter,
    reference_dense_dominant_weights,
    reference_dominant_weights,
    reference_oracle_plan,
    reference_sigma_points,
    reference_simple_elements,
    reference_su2_string_decompose,
    same_plans,
    reference_coweight_covectors,
    reference_hc_to_highest_weight,
    reference_hermitian_chamber,
    reference_kss_admissible_system,
    reference_validate_hc_parameter,
    reference_verify_projections,
    reference_weyl_dimension,
)

ROOT = Path(__file__).resolve().parents[1]
QUAT_FORMS = ("g2_2", "su2_n:3", "so4_n:5", "f4_4", "e6_2", "e7_m5", "e8_m24")
SP1Q_FORMS = ("sp1_q:2", "sp1_q:3")
HERMITIAN_FORMS = ("su_pq:2,3", "sp_n_R:3", "so_star:5", "e6_m14", "e7_m25")


def _context(label):
    if label.startswith("sp1_q:"):
        ctx = sp1q_context(int(label.split(":")[1]))
        return ctx, ctx.sigma
    ctx = quaternionic_context(label)
    return ctx, ctx.psi


@pytest.fixture(scope="module")
def seed0():
    """{form: its first lambda in the benchmark's seed-0 ``tables`` requests}."""
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from bench import workloads

    out = {}
    for argv in workloads.requests("tables", 0):
        if "--form" in argv:
            lam = next(a.split("=", 1)[1] for a in argv if a.startswith("--lambda="))
            out.setdefault(argv[argv.index("--form") + 1], parse_weight(lam))
    return out


def _outcome(fn, *args):
    """fn's value, or the text of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return "DomainError: " + str(exc)


def _nearby(lam, count=12, seed=0):
    """lam, lam moved by small steps with denominators 1, 2 and 3 (some of
    them singular, non-integral or not dominant), and lam negated."""
    rng = random.Random(seed)
    out = [lam, wscale(-1, lam)]
    for den in (1, 2, 3):
        out += [wadd(lam, weight(Fraction(rng.randrange(-3, 4), den) for _ in lam))
                for _ in range(count // 3)]
    return out


def _same_ray(f, g):
    """f = c g for some c > 0."""
    k = next(i for i, x in enumerate(g) if x)
    return f[k] * g[k] > 0 and all(x * g[k] == y * f[k] for x, y in zip(f, g))


def _same_covectors(got, want):
    return len(got) == len(want) and all(_same_ray(f, g) for f, g in zip(got, want))


@pytest.mark.parametrize("label", QUAT_FORMS + SP1Q_FORMS)
def test_request_checks_match_fraction_reference(label, seed0):
    ctx, system = _context(label)
    factor = ctx.k2_factor
    assert _same_covectors(dual_covectors(scaled_points(factor.simple)[1]),
                           reference_coweight_covectors(factor))
    outcomes = set()
    for lam in _nearby(seed0[label]) + _nearby(system.rho, seed=1):
        want = _outcome(reference_validate_hc_parameter, lam, system)
        assert _outcome(validate_hc_parameter, lam, system) == want
        pairings = _outcome(fraction_pairings, ctx.rd, lam)
        got = _outcome(regular_integral_pairings, ctx.rd, lam)
        assert got == (pairings if isinstance(pairings, str)
                       else tuple(pairings[g] for g in ctx.rd.positive))
        lam2 = decompose_parameter(ctx, lam)[1]
        hw = _outcome(reference_hc_to_highest_weight, lam2, factor)
        assert _outcome(hc_to_highest_weight, lam2, factor) == hw
        outcomes.add(want is None and not isinstance(hw, str))
        for v in (lam2, hw):  # lam2 is rarely dominant; hw is when lam is valid
            if not isinstance(v, str):
                want = _outcome(reference_weyl_dimension, v, factor)
                assert _outcome(weyl_dimension, v, factor) == want
    assert outcomes == {True, False}


@pytest.mark.parametrize("label", ["g2_2", "su2_n:3", "so4_n:5", "f4_4", "sp1_q:2"])
def test_dominance_on_every_chamber_matches_fraction_reference(label):
    # every chamber's rho against every chamber's system: dominant on the
    # diagonal only
    rd = _context(label)[0].rd
    systems = chambers(rd)
    assert len(systems) > 1
    for lam in [s.rho for s in systems]:
        outcomes = [_outcome(validate_hc_parameter, lam, s) for s in systems]
        assert outcomes == [_outcome(reference_validate_hc_parameter, lam, s) for s in systems]
        assert outcomes.count(None) == 1


@pytest.mark.parametrize("label", QUAT_FORMS)
def test_projection_check_matches_fraction_reference(label):
    ctx = quaternionic_context(label)
    _verify_projections(ctx)
    reference_verify_projections(ctx)
    fields = {name: getattr(ctx, name) for name in type(ctx).__match_args__}
    broken = type(ctx)(**{**fields, "fw1": ctx.fw2})  # every root meant for L1 misses
    for check in (_verify_projections, reference_verify_projections):
        with pytest.raises(InternalError, match="misses L1, L2"):
            check(broken)


@pytest.mark.parametrize("label", HERMITIAN_FORMS)
def test_hermitian_chambers_match_fraction_reference(label, seed0):
    hd = hermitian_data(label)
    decisions = set()
    for psi in chambers(hd.rd):
        assert validate_hermitian_parameter(hd, psi.rho) == psi.signs
        assert reference_hermitian_chamber(hd, psi.rho) == frozenset(psi.chosen)
        decision = kss_admissible_system(hd, psi.signs)
        assert decision is reference_kss_admissible_system(hd, frozenset(psi.chosen))
        decisions.add(decision)
    assert decisions == {True, False}
    for lam in _nearby(seed0[label]) + _nearby(hd.psi_h.rho, seed=1):
        want = _outcome(reference_hermitian_chamber, hd, lam)
        got = _outcome(validate_hermitian_parameter, hd, lam)
        if isinstance(want, str):
            assert got == want
        else:
            assert got == tuple(1 if g in want else -1 for g in hd.rd.positive)
            assert kss_admissible_system(hd, got) is reference_kss_admissible_system(hd, want)


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(["g2_2", "su2_n:2", "sp1_q:2"]), den=st.sampled_from([1, 2]),
       data=st.data())
def test_small_parameters_match_fraction_reference(label, den, data):
    ctx, system = _context(label)
    numerators = data.draw(st.lists(st.integers(-8, 8), min_size=ctx.form.dim,
                                    max_size=ctx.form.dim))
    lam = tuple(Fraction(n, den) for n in numerators)
    want = _outcome(reference_validate_hc_parameter, lam, system)
    assert _outcome(validate_hc_parameter, lam, system) == want
    if want is None:
        lam2 = decompose_parameter(ctx, lam)[1]
        hw = hc_to_highest_weight(lam2, ctx.k2_factor)
        assert hw == reference_hc_to_highest_weight(lam2, ctx.k2_factor)
        assert weyl_dimension(hw, ctx.k2_factor) == reference_weyl_dimension(hw, ctx.k2_factor)


def test_request_checks_hash_no_fraction(seed0, monkeypatch):
    # with the contexts built, the checks read only int points: no Fraction
    # is hashed, even by a first call that builds the per-system and
    # per-factor caches
    contexts = [_context(label) for label in QUAT_FORMS + SP1Q_FORMS]
    hermitian = [hermitian_data(label) for label in HERMITIAN_FORMS]
    calls = []
    original = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    for (ctx, system), label in zip(contexts, QUAT_FORMS + SP1Q_FORMS):
        lam = seed0[label]
        lam2 = decompose_parameter(ctx, lam)[1]
        calls.clear()
        validate_hc_parameter(lam, system)
        weyl_dimension(hc_to_highest_weight(lam2, ctx.k2_factor), ctx.k2_factor)
        assert not calls, label
    for hd in hermitian:
        kss_admissible_system(hd, validate_hermitian_parameter(hd, seed0[hd.label]))
        assert not calls, hd.label
    hash(Fraction(1, 3))
    assert calls  # the patch counts


# ---------------------------------------------------------------------------
# the torus pairings against the Fraction projections


def _valid(ctx, system, lams):
    """The parameters of lams that the family accepts."""
    return [lam for lam in lams if _outcome(validate_hc_parameter, lam, system) is None]


def _check_tables(ctx, lam):
    """The split of lam, and the closed table's sigma points (quaternionic) or
    the su(2) strings (sp(1, q)), against the Fraction references."""
    assert decompose_parameter(ctx, lam) == reference_decompose_parameter(ctx, lam)
    if isinstance(ctx, Sp1qContext):
        table = lam2_weight_table(ctx, lam)
        assert sp1q_string_table(ctx, lam) == reference_su2_string_decompose(table, ctx.w_line)
        return
    # at cutoff 0 the table is each sigma's point plus lam1 and the offset
    # (d - 1) / 2 (L1 + L2) = (d - 1) beta / 2
    chart = ctx.table_chart
    base = wadd(decompose_parameter(ctx, lam)[0], wscale(Fraction(ctx.d - 1, 2), ctx.beta))
    a1, a2 = chart.to_point(base)
    want = {(k1 + a1, k2 + a2): m
            for (k1, k2), m in reference_sigma_points(ctx, lam, chart).items()}
    assert _branching_table(ctx, lam, 0).by_key == want


@pytest.mark.parametrize("label", QUAT_FORMS + SP1Q_FORMS)
def test_oracle_plan_matches_fraction_reference(label):
    ctx, _ = _context(label)
    assert same_plans(oracle_plan(ctx), reference_oracle_plan(ctx))


@pytest.mark.parametrize("label", QUAT_FORMS + SP1Q_FORMS)
def test_torus_pairings_match_fraction_reference(label, seed0):
    ctx, system = _context(label)
    lams = _valid(ctx, system, _nearby(seed0[label]) + _nearby(system.rho, seed=1))
    assert len(lams) >= 2
    for lam in lams:
        _check_tables(ctx, lam)


def _walk_data(factor):
    """The factor's positive and simple roots as int points at twice their
    common denominator, where every weight of a half-integral hw is a point."""
    _, roots, _, simple = factor.int_roots
    positive = [tuple(2 * x for x in a) for a, _, _ in roots]
    simple = [(tuple(2 * x for x in a), 4 * sum(x * x for x in a)) for a in simple]
    return positive, simple, dual_covectors([a for a, _ in simple])


def _walk_tops(label, ctx, simple, seed0):
    """Highest weights for the walk: the seed-0 one when the benchmark draws
    the form, and the dominant points of small random root combinations."""
    factor = ctx.k2_factor
    scale = factor.int_roots[0]  # twice the roots' denominator
    rng = random.Random(label)
    tops = []
    if label in seed0:
        hw = hc_to_highest_weight(decompose_parameter(ctx, seed0[label])[1], factor)
        tops.append(tuple(x.numerator * scale // x.denominator for x in hw))
    for _ in range(12):
        v = tops[0] if tops and rng.random() < 0.5 else (0,) * ctx.form.dim
        for a, _ in simple:
            v = tuple(x + rng.randrange(-2, 3) * y for x, y in zip(v, a))
        tops.append(_dominant_representative(v, simple))
    assert len(set(tops)) > 6
    return tops


@pytest.mark.parametrize("label", QUAT_FORMS + SP1Q_FORMS + ("sp1_q:4",))
def test_stembridge_walk_matches_reference_walk(label, seed0):
    # every dominant weight is reached through dominant weights alone: the
    # same set as the walk through dominant representatives, on the seed-0
    # highest weight and the dominant points of small root combinations
    ctx, _ = (sp1q_context(4), None) if label == "sp1_q:4" else _context(label)
    positive, simple, covectors = _walk_data(ctx.k2_factor)
    for top in _walk_tops(label, ctx, simple, seed0):
        assert _dominant_weights(top, positive, simple) == reference_dominant_weights(
            top, positive, simple, covectors)


@pytest.mark.parametrize("label", [
    "g2_2", "f4_4", "e6_2", "e7_m5", "e8_m24", "su2_n:2", "su2_n:3", "su2_n:5", "su2_n:7",
    "so4_n:3", "so4_n:4", "so4_n:7", "so4_n:10", "sp1_q:2", "sp1_q:3", "sp1_q:6"])
def test_sparse_dominance_matches_dense_test(label, seed0):
    # the walk's dominance test, read on the simple roots a step pairs
    # positively with, keeps the same weights as pairing every candidate
    # with every simple root on every coordinate, on the k2 factor of each
    # quaternionic and sp(1, q) family of ``list-forms``
    ctx, _ = _context(label)
    positive, simple, _ = _walk_data(ctx.k2_factor)
    for top in _walk_tops(label, ctx, simple, seed0):
        assert _dominant_weights(top, positive, simple) == reference_dense_dominant_weights(
            top, positive, simple)


@settings(max_examples=40, deadline=None)
@given(label=st.sampled_from(["g2_2", "su2_n:2", "sp1_q:2"]), den=st.sampled_from([1, 2]),
       data=st.data())
def test_small_parameters_match_torus_reference(label, den, data):
    ctx, system = _context(label)
    numerators = data.draw(st.lists(st.integers(-8, 8), min_size=ctx.form.dim,
                                    max_size=ctx.form.dim))
    lam = tuple(Fraction(n, den) for n in numerators)
    if _valid(ctx, system, [lam]):
        _check_tables(ctx, lam)
        hw = hc_to_highest_weight(decompose_parameter(ctx, lam)[1], ctx.k2_factor)
        positive, simple, covectors = _walk_data(ctx.k2_factor)
        top = tuple(x.numerator * ctx.k2_factor.int_roots[0] // x.denominator for x in hw)
        assert _dominant_weights(top, positive, simple) == reference_dominant_weights(
            top, positive, simple, covectors)


def _oracle_requests():
    """One seed-0 oracle request per form of the two oracle workloads."""
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from bench import workloads

    first = {}
    for workload in ("oracle_dense", "oracle_wide"):
        for argv in workloads.requests(workload, 0):
            if argv[0] == "oracle-check":
                first.setdefault(argv[argv.index("--form") + 1], argv)
    return first


def test_oracle_requests_hash_no_fraction(monkeypatch, capsys):
    # with the contexts and plans built, an oracle request reads the torus
    # projections, the charts and its tables on int points only: no Fraction
    # is hashed, by the weight table, the closed table, the series or the
    # comparison, even on the request that builds the per-context caches
    requests = _oracle_requests()
    assert len(requests) == 8
    for label in requests:
        oracle_plan(_context(label)[0])
    repweights._freudenthal_memo.cache_clear()  # the weight tables are built cold,
    quaternionic._fibre.cache_clear()  # and so are the fibres read off them
    calls = []
    original = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    for label, argv in requests.items():
        assert cli.main(argv) == 0
        assert not calls, label
    hash(Fraction(1, 3))
    assert calls  # the patch counts
    assert capsys.readouterr().out.count('"agree": true') == 8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_searches_only_decomposable_offsets(seed, monkeypatch, capsys):
    # the benchmark's dense oracle requests on g2_2 (step bound 5) and
    # sp1_q:2 (step bound 10): every term off its window that the cone's
    # covector bound does not certify has a decomposition, so no search
    # is spent on an offset the bound rules out (a count, not a timing)
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from bench import workloads

    requests = [argv for argv in workloads.requests("oracle_dense", seed)
                if argv[argv.index("--form") + 1] in ("g2_2", "sp1_q:2")]
    assert len(requests) == 9
    # fresh cones: no membership verdict is kept, in the regions of the
    # memoized products either
    formal._cone.cache_clear()
    _products.cache_clear()
    results = []
    original = formal._Cone.member

    def recording(self, v):
        got = original(self, v)
        results.append(got)
        return got

    monkeypatch.setattr(formal._Cone, "member", recording)
    for argv in requests:
        assert cli.main(argv) == 0
    assert capsys.readouterr().out.count('"agree": true') == 9
    assert results and all(results)


@pytest.mark.parametrize("label", ["g2_2", "so4_n:4", "e6_2", "sp1_q:2"])
def test_chart_data_match_per_request_reference(label):
    # the positive side, read by the side roots' int covectors, and the
    # table points' rescale onto a request's chart, equal what a request
    # would read on its own chart by Fraction pairings and weights
    ctx, system = _context(label)
    lam = wscale(2, system.rho)  # denominators differ from the plan's base chart
    series = _coset_series(ctx, lam, OracleConfig(step_bound=3))
    chart = series.chart
    positive = _positive_side(ctx)
    for p in series.candidate_points():
        mu = chart.to_weight(p)
        assert positive(p) == all(inner(ctx.form, mu, g) > 0 for g in ctx.side_roots)
    table = _branching_table(ctx, lam, 3)
    assert table.points_on(chart) == {chart.to_point(mu): m for mu, m in table.entries.items()}
    assert chart.scale % ctx.table_chart.scale == 0
    # a table on the chart of other points (off the span), or at a scale
    # that the chart's is not a multiple of, has no points here; nor has a
    # weight off the chart's lattice, half a step from a point
    other = BranchingTable(table.by_key, None, ctx.rd.label, lam, Chart(chart.points[::-1], 1))
    fine = BranchingTable({(1, 1): 1}, None, ctx.rd.label, lam, chart.at_scale(2 * chart.scale))
    for wrong in (other, fine):
        with pytest.raises(InternalError, match="not the chart at a divisor"):
            wrong.points_on(chart)
    half = BranchingTable({fine.coords.to_weight((1, 1)): 1}, None, ctx.rd.label, lam)
    with pytest.raises(InternalError, match="off the chart lattice"):
        half.points_on(chart)


@pytest.mark.parametrize("q", [2, 3])
def test_sp1q_singular_wall_is_read_on_points(q):
    # the wall a = k of the series chart, whose points are 2 scale (a, k):
    # a certified coefficient there is an error, and one on a = -k is not
    ctx = sp1q_context(q)
    series = _coset_series(ctx, ctx.sigma.rho, OracleConfig(step_bound=3))
    s = series.chart.scale
    with pytest.raises(InternalError, match="singular wall"):
        ctx.check_extracted(series, (3 * s, 3 * s), 1)
    assert series.chart.to_weight((3 * s, 3 * s))[:2] == (Fraction(3, 2), Fraction(3, 2))
    p = (3 * s, -3 * s)  # on a = -k, off the wall; it and its mirrors are certified zeros
    assert series.coefficient(p) == 0
    ctx.check_extracted(series, p, 0)


# ---------------------------------------------------------------------------
# the subgroup contexts, built on the root data's int points by position

CONTEXT_FORMS = QUAT_FORMS + ("su2_n:2", "su2_n:5", "so4_n:4", "so4_n:6")


def test_context_builds_hash_no_fraction(monkeypatch):
    # a root datum is born on int points, with the Hermitian certificates
    # looked up by int point; then, with no int point read yet, building a
    # context reads compactness, beta and the k2 roots by position in
    # rd.positive.  The memoized builders' own functions build all anew.
    calls = []
    original = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    data = {label: quaternionic_root_datum.__wrapped__(label) for label in CONTEXT_FORMS}
    for q in (2, 3, 4):
        _highest_root_datum(f"sp1_q:{q}", *parse_label(f"sp1_q:{q}", "sp1q")[2])
    for label in HERMITIAN_FORMS:
        hermitian_data.__wrapped__(label)
    assert not calls
    monkeypatch.setattr(quaternionic, "quaternionic_root_datum", data.__getitem__)
    contexts = ([quaternionic_context.__wrapped__(label) for label in CONTEXT_FORMS]
                + [sp1q_context.__wrapped__(q) for q in (2, 3, 4)])
    assert not calls
    hash(Fraction(1, 3))
    assert calls  # the patch counts
    assert [ctx.rd for ctx in contexts[:len(CONTEXT_FORMS)]] == list(data.values())


@pytest.mark.parametrize("label", CONTEXT_FORMS + ("su2_n:10", "sp1_q:2", "sp1_q:3", "sp1_q:4"))
def test_int_built_factor_matches_from_positive(label):
    # k2 read by position on the datum's points equals the factor built from
    # its Fraction roots, picked by compactness and orthogonality to beta
    if label.startswith("sp1_q:"):
        ctx = sp1q_context(int(label.split(":")[1]))
    else:
        ctx = quaternionic_context(label)
    rd, beta = ctx.rd, ctx.beta
    k2 = [g for g in rd.positive if rd.is_compact(g) and g != beta and not inner(ctx.form, g, beta)]
    got, want = ctx.k2_factor, CompactFactor.from_positive(rd.form, k2)
    assert (got.positive, got.simple, got.rho, got.int_roots) == (
        want.positive, want.simple, want.rho, want.int_roots)
    # the search in height order finds the pairwise search's simple roots
    assert got.simple == reference_simple_elements(k2)
    assert rd.positive[rd.highest] == beta
    assert ctx.kernel_positive == tuple(g for g in k2 if not inner(ctx.form, g, ctx.w_line))


# every quaternionic form, and sp(1, q) for q up to 5
EVERY_CONTEXT_FORM = CONTEXT_FORMS + ("su2_n:4", "so4_n:3", "sp1_q:2", "sp1_q:3", "sp1_q:4",
                                      "sp1_q:5")


@pytest.mark.parametrize("label", EVERY_CONTEXT_FORM)
def test_k2_simple_roots_read_off_the_datum_are_the_search(label):
    # k2 is the roots orthogonal to the dominant beta, so its simple roots
    # are the datum's simple roots among them, as the search finds them
    factor = _context(label)[0].k2_factor
    points = [a for a, _, _ in factor.int_roots[1]]
    assert factor.datum is not None
    assert factor.int_roots[3] == tuple(points[j] for j in simple_positions(points))


def _full_scan(lam, system):
    """The check of lam against every root, as ``validate_hc_parameter``
    ran it before it read the simple coroots."""
    pairings = regular_integral_pairings(system.parent, lam)
    if any(c * s < 0 for c, s in zip(pairings, system.signs)):
        raise DomainError("parameter is not dominant for the given positive system")


@settings(max_examples=150, deadline=None)
@given(label=st.sampled_from(EVERY_CONTEXT_FORM),
       kind=st.sampled_from(["singular", "non-integral", "non-dominant", "any"]), data=st.data())
def test_simple_coroot_validation_words_failures_as_the_full_scan(label, kind, data):
    # rho times a positive int, moved onto a root's wall, by a third to a
    # fifth of the root (a pairing of 2/3 to 2/5 with its coroot), or
    # through its wall by its reflection; or a small parameter with
    # denominator 1, 2 or 3
    ctx, system = _context(label)
    rd = system.parent
    g = data.draw(st.sampled_from(rd.positive))
    lam = wscale(data.draw(st.integers(1, 3)), system.rho)
    if kind == "singular":
        lam = wadd(lam, wscale(-inner(ctx.form, lam, g) / inner(ctx.form, g, g), g))
    elif kind == "non-integral":
        lam = wadd(lam, wscale(Fraction(1, data.draw(st.sampled_from([3, 4, 5]))), g))
    elif kind == "non-dominant":
        lam = wadd(lam, wscale(-2 * inner(ctx.form, lam, g) / inner(ctx.form, g, g), g))
    else:
        den = data.draw(st.sampled_from([1, 2, 3]))
        lam = tuple(Fraction(data.draw(st.integers(-9, 9)), den) for _ in range(rd.form.dim))
    want = _outcome(_full_scan, lam, system)
    assert _outcome(validate_hc_parameter, lam, system) == want
    if kind != "any":
        assert isinstance(want, str)


@pytest.mark.parametrize("label", CONTEXT_FORMS + ("su2_n:10",))
def test_height_order_search_finds_the_simple_roots(label):
    rd = quaternionic_root_datum(label)
    assert {rd.positive[i] for i in simple_positions(rd.points[1])} == set(rd.simple)
    compact = [g for g, c in zip(rd.positive, rd.compact) if c]
    _, points = scaled_points(compact)
    assert tuple(compact[i] for i in simple_positions(points)) == reference_simple_elements(compact)
