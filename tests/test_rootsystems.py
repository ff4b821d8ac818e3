from fractions import Fraction

import pytest

from branchkit.errors import ConfigurationError, DomainError, InternalError, ResourceError
from branchkit.lattice import (
    coroot_pairing,
    dual_covectors,
    identity_form,
    inner,
    rational_solve,
    reflection_matrix,
    weight,
    wneg,
    wadd,
    wscale,
)
from branchkit.quaternionic import admissible_system, quaternionic_context
from branchkit.repweights import validate_hc_parameter
from branchkit.rootsystems import (
    _base_system,
    _highest,
    ambient_dimension,
    chambers,
    coset_reps,
    datum_size,
    height_covector,
    parse_label,
    positive_roots,
    positive_system,
    quaternionic_root_datum,
    simple_elements,
    small_system,
    weyl_generate,
)
from branchkit.specialcases import (
    hermitian_data,
    sp1q_context,
    validate_hermitian_parameter,
)
from oracle_reference import (
    apply_matrix,
    half_sum,
    reference_base_system,
    reference_hermitian_data,
    reference_highest_root_datum,
    reference_positive_from_simples,
    reference_simple_elements,
)

ALL_FORMS = ["g2_2", "f4_4", "su2_n:2", "su2_n:3", "su2_n:4", "so4_n:3",
             "so4_n:4", "so4_n:5", "e6_2", "e7_m5", "e8_m24"]
SP1Q_FORMS = ["sp1_q:2", "sp1_q:3", "sp1_q:4"]
HERMITIAN_FORMS = ["su_pq:2,2", "su_pq:2,3", "su_pq:2,4", "su_pq:3,5",
                   "sp_n_R:2", "sp_n_R:3", "sp_n_R:4", "sp_n_R:5",
                   "so_star:4", "so_star:5", "so_star:6", "so_star:7",
                   "e6_m14", "e7_m25"]
BASE_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
                ("D", 4), ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]


HERMITIAN_PREFIXES = ("su_pq", "sp_n_R", "so_star", "e6_m14", "e7_m25")


def _root_datum(label):
    if label in SP1Q_FORMS:
        return sp1q_context(int(label.partition(":")[2])).rd
    if label.startswith(HERMITIAN_PREFIXES):
        return hermitian_data(label).rd
    return quaternionic_root_datum(label)


def _solved_positive(roots, simples):
    """Reference: a root is positive when its coefficients over the simple
    roots, found by a linear solve, are all nonnegative."""
    positive = []
    for g in roots:
        sol = rational_solve(list(simples), g)
        assert sol is not None
        if all(c >= 0 for c in sol):
            positive.append(g)
    return tuple(sorted(positive))


def _covector_split(family, rank, extra=()):
    """The positive roots of a base system, extra int roots added, as the
    quaternionic data split them: by the sign of the height."""
    _, roots, simples = _base_system(family, rank)
    covector = height_covector(simples, dual_covectors(simples))
    return positive_roots(roots + list(extra), [covector], simples)[0]


@pytest.mark.parametrize("family,rank", BASE_SYSTEMS)
def test_positive_closure_matches_solve(family, rank):
    # the covector's sign, the closure of the simple roots and a linear
    # solve pick the same positive roots
    scale, _, _ = _base_system(family, rank)
    points = _covector_split(family, rank)
    roots, simples = reference_base_system(family, rank)
    positive = tuple(tuple(Fraction(x, scale) for x in p) for p in points)
    assert positive == reference_positive_from_simples(roots, simples)
    assert positive == _solved_positive(roots, simples)


@pytest.mark.parametrize("label", ALL_FORMS + SP1Q_FORMS + HERMITIAN_FORMS)
def test_datum_positive_matches_solve(label):
    rd = _root_datum(label)
    assert rd.positive == _solved_positive(rd.roots, rd.simple)


@pytest.mark.parametrize("label", ALL_FORMS + SP1Q_FORMS + HERMITIAN_FORMS)
def test_label_names_the_coordinate_and_simple_root_counts(label):
    # the CLI checks the length of lambda against these before any root is built
    family, rank = parse_label(label, "quat", "sp1q", "hermitian")[2]
    rd = _root_datum(label)
    assert (ambient_dimension(family, rank), rank, datum_size(family, rank)) == (
        len(rd.roots[0]), len(rd.simple), len(rd.positive) * len(rd.roots[0]))


@pytest.mark.parametrize("label", ALL_FORMS)
def test_highest_root_has_maximal_height(label):
    rd = quaternionic_root_datum(label)
    height = {g: sum(rational_solve(list(rd.simple), g)) for g in rd.positive}
    top = max(height.values())
    assert [g for g in rd.positive if height[g] == top] == [rd.positive[rd.highest]]


def test_highest_root_rejects_reducible_datum():
    a, b = (1, -1, 0, 0), (0, 0, 1, -1)  # A1 x A1
    points, _ = positive_roots([a, b, (-1, 1, 0, 0), (0, 0, -1, 1)], [(1, -1, 1, -1)], [a, b])
    with pytest.raises(InternalError, match="not unique"):
        _highest(points, (1, -1, 1, -1))


def test_positive_closure_rejects_root_outside_span():
    # (1, 1, 1) pairs to 0 with every covector in the span of A2's simple roots
    with pytest.raises(InternalError, match="pairs to 0"):
        _covector_split("A", 2, [(1, 1, 1), (-1, -1, -1)])


def test_given_simple_roots_must_be_the_chambers():
    # e1 - e3 is positive for the covector of (e1 - e2, e2 - e3), not simple
    _, roots, simples = _base_system("A", 2)
    covector = height_covector(simples, dual_covectors(simples))
    with pytest.raises(InternalError, match="not the simple roots"):
        positive_roots(roots, [covector], [(1, 0, -1), (0, 1, -1)])


REFERENCE_FORMS = (ALL_FORMS + ["su2_n:1"] + [f"sp1_q:{q}" for q in range(2, 7)]
                   + HERMITIAN_FORMS + ["su_pq:1,2"])


@pytest.mark.parametrize("label", REFERENCE_FORMS)
def test_int_datum_equals_fraction_reference(label):
    # every field of the int-born datum, and its int points, as the Fraction
    # builders, the closure and the Fraction certificate lookup gave them
    if label.startswith(HERMITIAN_PREFIXES):
        hd = hermitian_data(label)
        rd, want = hd.rd, reference_hermitian_data(label)
        assert (hd.certificate, hd.certificate_conjugate) == (
            want["certificate"], want["certificate_conjugate"])
    elif label.startswith("sp1_q:"):
        q = int(label.partition(":")[2])
        rd, want = sp1q_context(q).rd, reference_highest_root_datum(*parse_label(label, "sp1q")[2])
    else:
        rd = quaternionic_root_datum(label)
        want = reference_highest_root_datum(*parse_label(label, "quat")[2])
    got = dict(roots=rd.roots, positive=rd.positive, simple=rd.simple, compact=rd.compact,
               highest=rd.highest, points=rd.points)
    assert got == {key: want[key] for key in got}


def test_g2_noncompact_positive_set(g2):
    a1 = weight([1, -1, 0])
    a2 = weight([-2, 1, 1])
    expected = {
        a2,
        wadd(a1, a2),
        wadd(wscale(2, a1), a2),
        wadd(wscale(3, a1), a2),
    }
    assert set(g2.rd.noncompact_positive) == expected
    assert g2.d == 2


@pytest.mark.parametrize("label", ALL_FORMS)
def test_noncompact_count_even_and_beta_compact(label):
    rd = quaternionic_root_datum(label)
    assert len(rd.noncompact_positive) % 2 == 0
    _, beta, alpha = small_system(rd)
    assert rd.is_compact(beta)
    assert not rd.is_compact(alpha)
    assert coroot_pairing(rd.form, beta, alpha) == 1


@pytest.mark.parametrize("label,expected_d", [
    ("g2_2", 2), ("f4_4", 7), ("su2_n:3", 3), ("so4_n:3", 3), ("so4_n:4", 4),
    ("so4_n:5", 5), ("e6_2", 10), ("e7_m5", 16), ("e8_m24", 28),
])
def test_half_noncompact_counts(label, expected_d):
    rd = quaternionic_root_datum(label)
    assert len(rd.noncompact_positive) == 2 * expected_d


@pytest.mark.parametrize("label", ["g2_2", "su2_n:2", "su2_n:3", "so4_n:4", "f4_4"])
def test_sum_of_noncompacts_is_root_only_at_beta(label):
    rd = quaternionic_root_datum(label)
    _, beta, _ = small_system(rd)
    roots = set(rd.roots)
    for a in rd.noncompact_positive:
        for b in rd.noncompact_positive:
            s = wadd(a, b)
            if s in roots:
                assert s == beta


def test_unsupported_labels_rejected():
    with pytest.raises(ConfigurationError):
        quaternionic_root_datum("so4_n:2")
    with pytest.raises(ConfigurationError):
        quaternionic_root_datum("sl2_r")
    with pytest.raises(ConfigurationError):
        quaternionic_root_datum("g2_2:7")


def test_beta_orthogonal_to_compact_factor(so44):
    for g in so44.k2_factor.positive:
        assert inner(so44.form, g, so44.beta) == 0


@pytest.mark.parametrize("fixture", ["g2", "su22", "so44"])
def test_noncompact_involution_and_weyl_stability(fixture, request):
    ctx = request.getfixturevalue(fixture)
    psi_n = set(ctx.rd.noncompact_positive)
    for g in psi_n:
        assert wadd(ctx.beta, wneg(g)) in psi_n  # gamma -> beta - gamma
    elements = weyl_generate(ctx.form, ctx.k2_factor.simple)
    for e in elements:
        assert {apply_matrix(e.matrix, g) for g in psi_n} == psi_n
    flipped = {apply_matrix(reflection_matrix(ctx.beta), g) for g in psi_n}
    assert flipped == {wneg(g) for g in psi_n}


def test_weyl_generate_trivial_cases():
    form = identity_form(3)
    only_identity = weyl_generate(form, [])
    assert len(only_identity) == 1 and only_identity[0].sign == 1
    g = weight([1, -1, 0])
    pair = weyl_generate(form, [g])
    assert sorted(e.sign for e in pair) == [-1, 1]


def test_weyl_generate_orthogonal_pair(g2):
    a1 = weight([1, -1, 0])
    grp = weyl_generate(g2.form, [g2.beta, a1])
    assert len(grp) == 4
    for e in grp:
        assert e.sign == (-1) ** len(e.word)


def test_weyl_sign_equals_determinant(g2):
    elements = weyl_generate(g2.form, g2.rd.simple)
    assert len(elements) == 12
    for e in elements:
        assert e.sign == _det3(e.matrix)


def _det3(m):
    d = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    assert d in (1, -1)
    return int(d)


def test_weyl_generate_resource_bound():
    rd = quaternionic_root_datum("f4_4")
    with pytest.raises(ResourceError):
        weyl_generate(rd.form, rd.simple, order_bound=100)


def test_coset_reps_trivial_and_full(g2):
    elements = weyl_generate(g2.form, g2.rd.simple)
    assert coset_reps(elements, (), g2.form) == elements
    full = positive_system(g2.rd).chosen
    reps = coset_reps(elements, full, g2.form)
    assert len(reps) == 1 and reps[0].word == ()


def test_coset_reps_kernel_of_g2(g2):
    # the projection of the compact simple root does not vanish, so the
    # kernel subsystem is empty and every element is its own coset
    a1 = weight([1, -1, 0])
    from branchkit.lattice import is_zero
    from oracle_reference import q_u

    assert not is_zero(q_u(g2, a1))
    assert g2.kernel_positive == ()
    elements = weyl_generate(g2.form, g2.k2_factor.simple)
    reps = coset_reps(elements, g2.kernel_positive, g2.form)
    assert len(reps) == 2


def test_coset_reps_nonclosed_rejected(so44):
    elements = weyl_generate(so44.form, so44.k2_factor.simple)
    # reflecting one root in the other leaves the set: not reflection-closed
    bad = (weight([1, -1, 0, 0]), weight([1, 0, -1, 0]))
    with pytest.raises(DomainError):
        coset_reps(elements, bad, so44.form)


def test_chambers_g2(g2):
    systems = chambers(g2.rd)
    assert len(systems) == 3
    assert systems[0].signs == g2.psi.signs  # the walk starts at the small system
    for s in systems:
        assert frozenset(g2.rd.compact_positive) <= frozenset(s.chosen)
    flags = [admissible_system(g2, s) for s in systems]
    assert sum(flags) == 1


def _systems_by_enumeration(rd):
    """The chambers with the compact part of ``rd.positive``, found by
    mapping the positive system through every element of the whole Weyl
    group, as sign vectors in sorted order."""
    compact = frozenset(g for g in rd.roots if rd.is_compact(g))
    delta = frozenset(rd.compact_positive)
    seen, out = set(), []
    for e in weyl_generate(rd.form, rd.simple):
        chosen = frozenset(apply_matrix(e.matrix, g) for g in rd.positive)
        if chosen not in seen:
            seen.add(chosen)
            if chosen & compact == delta:
                out.append(tuple(1 if g in chosen else -1 for g in rd.positive))
    return sorted(out)


@pytest.mark.parametrize("label", [
    "g2_2", "su2_n:1", "su2_n:2", "su2_n:3", "so4_n:3", "so4_n:4", "su_pq:1,1", "sp_n_R:1",
    "su_pq:1,2", "su_pq:2,2", "su_pq:2,3", "sp_n_R:2", "sp_n_R:3", "so_star:4",
])
def test_chamber_walk_matches_group_enumeration(label):
    rd = _root_datum(label)
    walked = chambers(rd)
    reference = _systems_by_enumeration(rd)
    assert sorted(s.signs for s in walked) == reference
    for s in walked:
        assert s.rho == half_sum(rd.form.dim, s.chosen)
    if not any(rd.compact):  # su_pq:1,1 and sp_n_R:1: every root is noncompact
        assert len(walked) == 2


@pytest.mark.parametrize("label,count", [
    ("g2_2", 3), ("su2_n:2", 6), ("su2_n:3", 10), ("su2_n:4", 15), ("su2_n:5", 21),
    ("so4_n:3", 6), ("so4_n:4", 12), ("so4_n:5", 12), ("so4_n:6", 20),
    ("f4_4", 12), ("e6_2", 36), ("e7_m5", 63), ("e8_m24", 120),
])
def test_quaternionic_chambers_and_small_system(label, count):
    # |W| / |W_K| chambers, each holding its own rho, and the small system is
    # the only admissible one
    ctx = quaternionic_context(label)
    systems = chambers(ctx.rd)
    assert len(systems) == count
    for s in systems:
        validate_hc_parameter(s.rho, s)
    admissible = [s.signs for s in systems if admissible_system(ctx, s)]
    assert admissible == [ctx.psi.signs]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_sp1q_chambers(q):
    # |W(C_{q+1})| / |W(C_1 x C_q)| = q + 1 chambers, each keeping the
    # compact signs and holding its own rho
    rd = sp1q_context(q).rd
    systems = chambers(rd)
    assert len(systems) == q + 1
    for s in systems:
        assert all(x > 0 for x, c in zip(s.signs, rd.compact) if c)
        validate_hc_parameter(s.rho, s)


@pytest.mark.parametrize("label,count", [
    # non-tube, then tube
    ("su_pq:1,2", 3), ("su_pq:1,3", 4), ("su_pq:2,3", 10), ("su_pq:2,4", 15),
    ("su_pq:3,4", 35), ("so_star:5", 16), ("so_star:7", 64), ("e6_m14", 27),
    ("su_pq:2,2", 6), ("su_pq:3,3", 20), ("sp_n_R:2", 4), ("sp_n_R:3", 8),
    ("so_star:4", 8), ("so_star:6", 32), ("e7_m25", 56),
])
def test_hermitian_chamber_counts(label, count):
    # every chamber is distinct, keeps the compact positive system and holds
    # its own rho, read by the validation every Hermitian request goes through
    hd = hermitian_data(label)
    rd = hd.rd
    systems = chambers(rd)
    assert len(systems) == count
    assert len({s.chosen for s in systems}) == count
    for s in systems:
        assert s.rho == half_sum(rd.form.dim, s.chosen)
        assert frozenset(rd.compact_positive) <= frozenset(s.chosen)
        assert validate_hermitian_parameter(hd, s.rho) == s.signs


def test_simple_elements_of_k2(so44):
    simples = simple_elements(so44.k2_factor.positive, so44.form)
    assert simples == reference_simple_elements(so44.k2_factor.positive)
    assert len(simples) == 3  # three orthogonal su(2) factors
    for a in simples:
        for b in simples:
            if a != b:
                assert inner(so44.form, a, b) == 0


def test_rho_halves_the_sum(g2):
    ps = positive_system(g2.rd)
    total = weight([0, 0, 0])
    for g in ps.chosen:
        total = wadd(total, g)
    assert wscale(Fraction(1, 2), total) == ps.rho
