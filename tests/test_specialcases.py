from math import comb

import pytest

from branchkit.errors import ConfigurationError, DomainError
from branchkit.lattice import inner, weight, wneg, wscale
from branchkit.oracle import OracleConfig, extract_multiplicities, torus_restriction_sides
from branchkit.rootsystems import FORMS
from branchkit.specialcases import (
    _HERMITIAN_BUILDERS,
    antiholomorphic_chamber_parameter,
    hermitian_data,
    holomorphic_chamber_parameter,
    kss_admissible,
    kss_admissible_report,
    kss_admissible_system,
    so3_admissible,
    sp1q_branching_table,
    sp1q_context,
    sp1q_restriction_series,
    sp1q_string_table,
    sp1q_verify,
)
from oracle_reference import certificate_roots, weyl_polynomial

# ---------------------------------------------------------------------------
# SO(3, n)


def test_so3_constant_false():
    for n in (2, 4, 10):
        admissible, reason = so3_admissible(n)
        assert admissible is False
        assert "SO(3)" in reason


def test_so3_odd_rejected():
    with pytest.raises(DomainError):
        so3_admissible(3)
    with pytest.raises(ConfigurationError):
        so3_admissible(1)


# ---------------------------------------------------------------------------
# sp(1, q)


def test_sp1q_root_split(sp12):
    compact = set(sp12.rd.compact_positive)
    noncompact = set(sp12.rd.noncompact_positive)
    e0, d1, d2 = weight([1, 0, 0]), weight([0, 1, 0]), weight([0, 0, 1])
    assert wscale(2, e0) in compact
    assert {wscale(2, d1), wscale(2, d2)} <= compact
    assert {weight([1, 1, 0]), weight([1, -1, 0]), weight([1, 0, 1]), weight([1, 0, -1])} == noncompact
    assert sp12.beta == wscale(2, e0)


@pytest.mark.parametrize("q", range(2, 7))
def test_sp1q_compactness_is_the_explicit_rule(q):
    # the highest-root rule of the quaternionic forms against the explicit
    # one for sp(1, q): 2 e0 and the sp(q) block compact, e0 +- ej not
    rd = sp1q_context(q).rd
    assert {g: rd.is_compact(g) for g in rd.roots} == {g: not g[0] or not any(g[1:]) for g in rd.roots}


def test_sp1q_kernel_contains_long_roots(sp12, sp13):
    # the kernel of the projection onto the sp(1,1) torus keeps every compact
    # root missing the first two coordinates, long roots included
    assert sp12.kernel_positive == (weight([0, 0, 2]),)
    kern13 = set(sp13.kernel_positive)
    assert weight([0, 0, 2, 0]) in kern13
    assert weight([0, 0, 0, 2]) in kern13
    assert weight([0, 0, 1, -1]) in kern13
    assert weight([0, 0, 1, 1]) in kern13
    assert len(kern13) == 4  # a C2 subsystem


def test_sp1q_requires_q_at_least_two():
    with pytest.raises(ConfigurationError):
        sp1q_context(1)


def test_sp1q_binomial_specialization():
    q = 2
    assert all(comb(p + 2 * q - 3, 2 * q - 3) == p + 1 for p in range(10))


def test_sp1q_weyl_polynomial_sample(sp13):
    # kernel = C2 on the last two coordinates; at sigma = 3 d2 + d3 the
    # product of pairings over {2d2, 2d3, d2+-d3} normalized at rho_z gives
    # s2 s3 (s2^2 - s3^2) / 6 = 3 * 1 * 8 / 6 = 4
    sigma = weight([0, 0, 3, 1])
    assert weyl_polynomial(sp13, sigma) == 4
    rho_z = weight([0, 0, 2, 1])
    assert weyl_polynomial(sp13, rho_z) == 1


def test_sp1q_trivial_rep_table(sp12):
    lam = weight([4, 2, 1])
    assert sp1q_string_table(sp12, lam) == {1: 1}
    table = sp1q_branching_table(sp12, lam, cutoff=4)
    expected = {weight([5 + p, 1, 0]): p + 1 for p in range(5)}
    assert table.entries == expected
    assert table.pairing_bound == 4 + 1 + 4


def test_sp1q_richer_table(sp12):
    lam = weight([5, 3, 1])
    assert sp1q_string_table(sp12, lam) == {1: 2, 2: 1}
    table = sp1q_branching_table(sp12, lam, cutoff=3)
    for p in range(4):
        assert table.entries[weight([6 + p, 1, 0])] == 2 * (p + 1)
        assert table.entries[weight([6 + p, 2, 0])] == p + 1


def test_sp1q_emitted_parameters_dominant(sp12, sp13):
    for ctx, coords in [(sp12, (6, 3, 2)), (sp13, (6, 3, 2, 1))]:
        table = sp1q_branching_table(ctx, weight(coords), cutoff=6)
        for mu in table.entries:
            assert inner(ctx.form, mu, wscale(2, weight([1] + [0] * ctx.q))) > 0
            assert mu[0] > mu[1] > 0  # dominance for the subgroup system


def test_sp1q_non_dominant_rejected(sp12):
    with pytest.raises(DomainError):
        sp1q_branching_table(sp12, weight([2, 3, 1]), cutoff=2)
    with pytest.raises(DomainError):
        sp1q_branching_table(sp12, weight([4, 2, 2]), cutoff=2)  # singular


def test_sp1q_oracle_agreement(sp12, sp13):
    for ctx, coords in [(sp12, (5, 3, 1)), (sp13, (5, 3, 2, 1))]:
        report = sp1q_verify(ctx, weight(coords), OracleConfig(step_bound=8))
        assert report.agree and report.compared >= 5


def test_sp1q_extract_antisymmetry(sp12):
    lam = weight([5, 2, 1])
    series = sp1q_restriction_series(sp12, lam, OracleConfig(step_bound=8))
    table = extract_multiplicities(sp12, series)
    assert table.entries
    for p in series.coeffs:
        wgt = series.chart.to_weight(p)
        assert wgt[0] != 0 and wgt[1] != 0  # walls vanish identically
        if series.certain_at(p):
            # certified points never sit on the singular lines a = +-k
            assert wgt[0] != wgt[1] and wgt[0] != -wgt[1]


def test_sp1q_su2_restriction_sides(sp12, sp13):
    for ctx, coords in [(sp12, (6, 4, 1)), (sp13, (7, 4, 2, 1))]:
        lhs, rhs = torus_restriction_sides(ctx, weight(coords), OracleConfig(step_bound=14))
        assert lhs  # antisymmetrized string parameters
        for x in set(lhs) | set(rhs.coeffs):
            got = rhs.coefficient(x)
            if got is not None:
                assert got == lhs.get(x, 0)
        assert all(rhs.coefficient(x) is not None for x in lhs)


# ---------------------------------------------------------------------------
# Hermitian forms


def test_certificates_are_roots_everywhere():
    for label in ["su_pq:2,2", "su_pq:2,3", "su_pq:2,4", "su_pq:3,5",
                  "sp_n_R:2", "sp_n_R:3", "sp_n_R:4", "sp_n_R:5",
                  "so_star:4", "so_star:5", "so_star:6", "so_star:7",
                  "e6_m14", "e7_m25"]:
        hd = hermitian_data(label)
        roots = set(hd.rd.roots)
        for g in certificate_roots(hd, hd.certificate + hd.certificate_conjugate):
            assert g in roots, (label, g)


@pytest.mark.parametrize("label,expected", [
    ("su_pq:2,3", 2 * 1 + 3 * 2),
    ("su_pq:3,5", 3 * 2 + 5 * 4),
    ("sp_n_R:3", 3 * 2),
    ("so_star:4", 4 * 3),
    ("so_star:5", 5 * 4),
    ("e6_m14", 40),
    ("e7_m25", 72),
])
def test_hermitian_compact_root_counts(label, expected):
    rd = hermitian_data(label).rd
    assert sum(rd.is_compact(g) for g in rd.roots) == expected


@pytest.mark.parametrize("q", [2, 3, 4])
def test_sp1q_compact_root_count(q):
    rd = sp1q_context(q).rd
    assert sum(rd.is_compact(g) for g in rd.roots) == 2 * q * q + 2


def test_hermitian_builders_are_the_hermitian_forms():
    # a Hermitian form is one FORMS row plus its builder, under the same name
    assert set(_HERMITIAN_BUILDERS) == {
        name for name, form in FORMS.items() if form.kind == "hermitian"}


def test_su_pq_index_formulas():
    hd = hermitian_data("su_pq:2,4")
    assert set(certificate_roots(hd, hd.certificate)) == {
        weight([1, 0, -1, 0, 0, 0]),
        weight([0, 1, 0, 0, -1, 0]),
    }
    hd23 = hermitian_data("su_pq:2,3")
    assert set(certificate_roots(hd23, hd23.certificate)) == {
        weight([1, 0, -1, 0, 0]),
        weight([0, 1, 0, -1, 0]),
    }
    assert set(certificate_roots(hd23, hd23.certificate_conjugate)) == {
        weight([-1, 0, 0, 1, 0]),
        weight([0, -1, 0, 0, 1]),
    }


def test_su_pq_requires_p_le_q():
    with pytest.raises(DomainError):
        hermitian_data("su_pq:3,2")


def test_sp_nr_certificates():
    hd = hermitian_data("sp_n_R:4")
    assert set(certificate_roots(hd, hd.certificate)) == {weight([1, 0, 0, 1]), weight([0, 1, 1, 0])}
    conjugate = set(certificate_roots(hd, hd.certificate_conjugate))
    assert conjugate == {wneg(g) for g in certificate_roots(hd, hd.certificate)}
    hd5 = hermitian_data("sp_n_R:5")
    assert weight([0, 0, 2, 0, 0]) in set(certificate_roots(hd5, hd5.certificate))


def test_so_star_odd_asymmetric_conjugate():
    hd = hermitian_data("so_star:5")
    assert set(certificate_roots(hd, hd.certificate)) == {
        weight([1, 0, 0, 0, 1]),
        weight([0, 1, 0, 1, 0]),
        weight([0, 0, 1, 1, 0]),
    }
    assert set(certificate_roots(hd, hd.certificate_conjugate)) == {
        weight([-1, 0, 0, 0, -1]),
        weight([0, -1, 0, -1, 0]),
        weight([0, -1, -1, 0, 0]),
    }


def test_e7_m25_certificates():
    hd = hermitian_data("e7_m25")
    eta1 = weight(["-1/2", "1/2", "-1/2", "-1/2", "1/2", "1/2", "-1/2", "1/2"])
    eta2 = weight(["-1/2", "-1/2", "1/2", "1/2", "-1/2", "1/2", "-1/2", "1/2"])
    e1e6 = weight([1, 0, 0, 0, 0, 1, 0, 0])
    assert set(certificate_roots(hd, hd.certificate)) == {eta1, eta2, e1e6}
    assert set(certificate_roots(hd, hd.certificate_conjugate)) == {wneg(eta1), wneg(eta2), wneg(e1e6)}


def test_e6_m14_conjugate_keeps_compact_members():
    hd = hermitian_data("e6_m14")
    compact_members = [g for g in certificate_roots(hd, hd.certificate) if hd.rd.is_compact(g)]
    assert len(compact_members) == 2
    for g in compact_members:
        assert g in set(certificate_roots(hd, hd.certificate_conjugate))  # not negated


TUBE_TABLE = [
    ("su_pq:2,2", True), ("su_pq:3,3", True), ("su_pq:2,3", False),
    ("sp_n_R:3", True), ("so_star:4", True), ("so_star:6", True),
    ("so_star:5", False), ("e6_m14", False), ("e7_m25", True),
]


@pytest.mark.parametrize("label,tube", TUBE_TABLE)
def test_tube_flags(label, tube):
    assert hermitian_data(label).tube is tube


@pytest.mark.parametrize("label,tube", TUBE_TABLE)
def test_holomorphic_dichotomy(label, tube):
    hd = hermitian_data(label)
    assert kss_admissible(hd, holomorphic_chamber_parameter(hd)) is (not tube)
    assert kss_admissible(hd, antiholomorphic_chamber_parameter(hd)) is (not tube)


def test_admissibility_report_reasons():
    hd = hermitian_data("su_pq:2,3")
    ok, reason = kss_admissible_report(hd, holomorphic_chamber_parameter(hd))
    assert ok and "certificate" in reason
    hd2 = hermitian_data("sp_n_R:2")
    bad, reason2 = kss_admissible_report(hd2, holomorphic_chamber_parameter(hd2))
    assert not bad and "obstruction" in reason2


def test_chamber_constancy(su22=None):
    hd = hermitian_data("su_pq:2,3")
    lam = weight([7, 2, 5, 1, -3])  # some regular chamber
    a = kss_admissible(hd, lam)
    assert kss_admissible(hd, wscale(3, lam)) is a


def test_sign_flip_swaps_certificates():
    # where the conjugate set is the negation, flipping the noncompact part
    # of the chamber leaves the decision unchanged
    for label in ("su_pq:2,2", "sp_n_R:2", "sp_n_R:3", "so_star:4", "e7_m25"):
        hd = hermitian_data(label)
        assert set(hd.certificate_conjugate) == {(i, -s) for i, s in hd.certificate}
        chamber = hd.psi_h.signs  # the holomorphic chamber
        flipped = tuple(s if c else -s for s, c in zip(chamber, hd.rd.compact))
        assert kss_admissible_system(hd, flipped) == kss_admissible_system(hd, chamber)


def test_singular_parameter_rejected():
    hd = hermitian_data("su_pq:2,2")
    with pytest.raises(DomainError):
        kss_admissible(hd, weight([1, 1, 0, -2]))


def test_non_integral_parameter_rejected():
    hd = hermitian_data("sp_n_R:2")
    with pytest.raises(DomainError):
        kss_admissible(hd, weight(["3/2", "1/2"]))
