import functools
import random
from fractions import Fraction

import pytest

from branchkit.errors import DimensionError, DomainError, ResourceError
from branchkit.lattice import (
    coroot_pairing,
    identity_form,
    inner,
    rational_solve,
    reflect,
    weight,
    wadd,
    wneg,
    wscale,
    wsub,
    zero_weight,
)
from branchkit.repweights import (
    CompactFactor,
    freudenthal,
    hc_to_highest_weight,
    regular_integral_pairings,
    restrict_weights,
    su2_string_decompose,
    validate_hc_parameter,
    weyl_dimension,
)
from branchkit.rootsystems import positive_system, quaternionic_root_datum
from branchkit.specialcases import sp1q_context
from oracle_reference import fraction_pairings


def a2_factor():
    pos = (weight([1, -1, 0]), weight([0, 1, -1]), weight([1, 0, -1]))
    return CompactFactor.from_positive(identity_form(3), pos)


def su2_factor():
    return CompactFactor.from_positive(identity_form(2), (weight([1, -1]),))


def b2_factor():
    pos = (weight([1, -1]), weight([0, 1]), weight([1, 1]), weight([1, 0]))
    return CompactFactor.from_positive(identity_form(2), pos)


def test_hc_to_highest_weight_rho_is_trivial():
    f = a2_factor()
    assert hc_to_highest_weight(f.rho, f) == zero_weight(3)


def test_hc_to_highest_weight_su2():
    f = su2_factor()
    lam2 = wscale(Fraction(3, 2), weight([1, -1]))  # coroot pairing 3
    hw = hc_to_highest_weight(lam2, f)
    assert inner(f.form, hw, weight([1, -1])) == 2
    assert weyl_dimension(hw, f) == 3


def test_hc_to_highest_weight_adjoint():
    f = a2_factor()
    hw = hc_to_highest_weight(wscale(2, f.rho), f)
    assert hw == f.rho
    assert weyl_dimension(hw, f) == 8


def test_hc_rejects_non_dominant():
    f = a2_factor()
    with pytest.raises(DomainError):
        hc_to_highest_weight(wneg(f.rho), f)
    with pytest.raises(DomainError):
        hc_to_highest_weight(wsub(f.rho, weight([1, -1, 0])), f)  # singular


def test_weyl_dimension_trivial():
    f = a2_factor()
    assert weyl_dimension(zero_weight(3), f) == 1


def test_weyl_dimension_su2_string():
    f = su2_factor()
    for n in range(6):
        hw = wscale(Fraction(n, 2), weight([1, -1]))
        assert weyl_dimension(hw, f) == n + 1


def test_freudenthal_trivial():
    f = a2_factor()
    t = freudenthal(zero_weight(3), f)
    assert t.mults == {zero_weight(3): 1}


def test_freudenthal_su2_adjoint():
    f = su2_factor()
    hw = weight([1, -1])
    t = freudenthal(hw, f)
    assert t.mults == {hw: 1, weight([0, 0]): 1, weight([-1, 1]): 1}


def test_freudenthal_a2_adjoint():
    f = a2_factor()
    t = freudenthal(f.rho, f)
    assert t.dimension() == 8
    assert t.mults[zero_weight(3)] == 2
    for g in f.positive:
        assert t.mults[g] == 1
        assert t.mults[wneg(g)] == 1


def test_freudenthal_resource_bound(monkeypatch):
    monkeypatch.setenv("BRANCHKIT_DIMENSION_BOUND", "5")
    f = a2_factor()
    with pytest.raises(ResourceError):
        freudenthal(f.rho, f)


def _kostant_multiplicity(hw, nu, factor):
    """Brute-force alternating sum of partition counts over the Weyl group."""
    from branchkit.rootsystems import weyl_generate
    from oracle_reference import apply_matrix

    positives = list(factor.positive)

    @functools.lru_cache(maxsize=None)
    def partitions(target, idx):
        if all(x == 0 for x in target):
            return 1
        if idx == len(positives):
            return 0
        total = 0
        g = positives[idx]
        t = target
        while True:
            total += partitions(t, idx + 1)
            t = wsub(t, g)
            sol = rational_solve(positives, t)
            if sol is None or any(c < 0 for c in sol):
                break
        return total

    elements = weyl_generate(factor.form, factor.simple)
    total = 0
    for e in elements:
        target = wsub(apply_matrix(e.matrix, wadd(hw, factor.rho)), wadd(nu, factor.rho))
        sol = rational_solve(positives, target)
        if sol is None or any(c < 0 for c in sol):
            continue
        total += e.sign * partitions(target, 0)
    return total


@pytest.mark.parametrize("factory,hw_coeffs", [
    ("a2", (1, 1)), ("a2", (2, 1)), ("b2", (1, 1)), ("b2", (0, 2)), ("su2", (4,)),
])
def test_freudenthal_matches_kostant(factory, hw_coeffs):
    factor = {"a2": a2_factor, "b2": b2_factor, "su2": su2_factor}[factory]()
    # build hw with the requested simple coroot pairings
    cols = [tuple(a[j] for a in factor.simple) for j in range(factor.form.dim)]
    target = tuple(
        Fraction(c) * inner(factor.form, a, a) / 2
        for c, a in zip(hw_coeffs, factor.simple)
    )
    hw = tuple(rational_solve(cols, target))
    table = freudenthal(hw, factor)
    for nu, m in table.mults.items():
        assert m == _kostant_multiplicity(hw, nu, factor)


def test_restrict_weights_identity_and_collapse():
    f = a2_factor()
    t = freudenthal(f.rho, f)
    # the pushforward runs along an int covector on the table's points: one
    # that separates them keeps every multiplicity, the zero one sums them
    separating = (1, 100, 10000)
    pushed = restrict_weights(t, separating)
    assert pushed == {sum(x * c for x, c in zip(p, separating)): m for p, m in t.points.items()}
    assert sorted(pushed.values()) == sorted(t.mults.values()) and len(pushed) == 7
    assert restrict_weights(t, (0, 0, 0)) == {0: 8}


def test_su2_string_decompose_vector_rep():
    f = b2_factor()
    hw = weight([1, 0])  # 5-dimensional vector representation of so(5)
    t = freudenthal(hw, f)
    assert t.dimension() == 5
    strings = su2_string_decompose(t, weight([0, 2]))
    # weights +-e1, +-e2, 0 split along 2 e2 into one doublet, three trivials
    assert strings == {1: 3, 2: 1}
    assert sum(k * n for k, n in strings.items()) == 5


def test_validate_hc_parameter_g2():
    rd = quaternionic_root_datum("g2_2")
    ps = positive_system(rd)
    validate_hc_parameter(ps.rho, ps)
    with pytest.raises(DomainError):
        validate_hc_parameter(weight([1, -1, 0]), ps)  # singular against itself
    with pytest.raises(DomainError):
        validate_hc_parameter(wscale(Fraction(1, 2), ps.rho), ps)  # not integral


QUATERNIONIC_FACTORS = ("g2_2", "su2_n:1", "su2_n:2", "su2_n:3", "so4_n:3", "so4_n:4",
                        "so4_n:5", "so4_n:6", "f4_4", "e6_2", "e7_m5", "e8_m24")
HERMITIAN_FACTORS = ("su_pq:1,2", "su_pq:2,3", "sp_n_R:3", "so_star:5", "e6_m14", "e7_m25")


@functools.lru_cache(maxsize=None)
def _reached_factor(label):
    """The compact factor a form hands to Freudenthal, and the highest weight
    of its base parameter: k2 of a quaternionic form or of sp(1, q), the
    semisimple part of K of a Hermitian form."""
    from branchkit.quaternionic import decompose_parameter, quaternionic_context
    from branchkit.specialcases import hermitian_data, sp1q_context, sp1q_decompose

    if label.startswith("sp1_q:"):
        ctx = sp1q_context(int(label.split(":")[1]))
        return ctx.k2_factor, sp1q_decompose(ctx, ctx.sigma.rho)[1]
    if label in HERMITIAN_FACTORS:
        hd = hermitian_data(label)
        return CompactFactor.from_positive(hd.rd.form, hd.rd.compact_positive), hd.psi_h.rho
    ctx = quaternionic_context(label)
    return ctx.k2_factor, decompose_parameter(ctx, ctx.psi.rho)[1]


def _with_pairings(factor, coeffs):
    """A weight with the given coroot pairings against the simple roots."""
    cols = [tuple(a[j] for a in factor.simple) for j in range(factor.form.dim)]
    target = tuple(Fraction(c) * inner(factor.form, a, a) / 2 for c, a in zip(coeffs, factor.simple))
    return tuple(rational_solve(cols, target))


@pytest.mark.parametrize(
    "label", QUATERNIONIC_FACTORS + ("sp1_q:2", "sp1_q:3", "sp1_q:4") + HERMITIAN_FACTORS
)
def test_freudenthal_tables_of_reached_factors(label):
    """On the base highest weight of the form, and that weight plus each
    fundamental weight and plus the first and last together (each of
    dimension at most 1000): the table is invariant under every simple
    reflection, sums to the Weyl dimension, and splits into su(2)-strings
    with nonnegative counts along every simple root."""
    factor, lam2 = _reached_factor(label)
    base = hc_to_highest_weight(lam2, factor)
    rank = len(factor.simple)
    pairings = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    if rank > 1:
        pairings.append(tuple(int(j in (0, rank - 1)) for j in range(rank)))
    highest = [base] + [wadd(base, _with_pairings(factor, c)) for c in pairings]
    tested = 0
    for hw in highest:
        dim = weyl_dimension(hw, factor)
        if dim > 1000:
            continue
        table = freudenthal(hw, factor)
        assert sum(table.mults.values()) == dim
        for v, m in table.mults.items():
            assert m > 0
            for a in factor.simple:
                assert table.mults.get(reflect(factor.form, v, a)) == m
        for a in factor.simple:
            strings = su2_string_decompose(table, a)
            assert all(n > 0 for n in strings.values())
            assert sum(k * n for k, n in strings.items()) == dim
        tested += 1
    assert tested >= min(2, rank + 1)


@pytest.mark.parametrize("label", ["g2_2", "so4_n:3", "sp1_q:2"])
def test_regular_integral_pairings_match_fraction_scan(label):
    rd = sp1q_context(2).rd if label == "sp1_q:2" else quaternionic_root_datum(label)
    rho = positive_system(rd).rho
    # rho, rho moved onto every root's wall (singular, maybe also not
    # integral), and seeded parameters with denominators 1, 2 and 3
    lams = [rho] + [wsub(rho, wscale(coroot_pairing(rd.form, rho, g) / 2, g)) for g in rd.positive]
    rng = random.Random(label)
    lams += [weight(Fraction(rng.randrange(-12, 13), den) for _ in rho)
             for den in (1, 2, 3) for _ in range(10)]
    outcomes = set()
    for lam in lams:
        try:
            want = fraction_pairings(rd, lam)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                regular_integral_pairings(rd, lam)
            assert str(got.value) == str(exc)
            outcomes.add(str(exc).split(" against")[0])
        else:
            assert regular_integral_pairings(rd, lam) == tuple(want[g] for g in rd.positive)
            outcomes.add("valid")
    assert outcomes == {"valid", "parameter is singular", "parameter is not integral"}
    with pytest.raises(DimensionError):
        regular_integral_pairings(rd, rho[:-1])
