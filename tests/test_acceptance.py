"""Acceptance suite: every criterion runs at its stated scope and tolerance
(exact equality), printing one line per criterion.  The shared store lets the
closed-form-vs-oracle runs be reused by the dominance and antisymmetry
criteria, mirroring the CLI selftest.  Each criterion's detail line is
pinned exactly, so a change in what it covers shows here."""

import pytest

from branchkit import acceptance


@pytest.fixture(scope="module")
def store():
    return {}


def _check(result, detail):
    print()
    print(result.line())
    assert result.passed, result.detail
    assert result.detail == detail
    assert result.within_limit, (
        f"{result.ident} exceeded its time limit: {result.seconds:.1f}s "
        f">= {result.limit_seconds}s"
    )


def test_ac1_heaviside_power_identity(store):
    _check(acceptance.ac1(store),
           "357 coefficients agree for r in 0..6, 50 steps")


def test_ac2_freudenthal_consistency(store):
    _check(acceptance.ac2(store),
           "50 random representations verified")


def test_ac3_torus_restriction_identity(store):
    _check(acceptance.ac3(store),
           "4 factors x 10 parameters, 145 coefficients checked")


def test_ac4_closed_form_vs_oracle(store):
    _check(acceptance.ac4(store),
           "9 parameters, 934 certified multiplicities agree")


def test_ac5_table_dominance(store):
    _check(acceptance.ac5(store),
           "zero violations over 9 tables")


def test_ac6_sp1q_closed_form_vs_oracle(store):
    _check(acceptance.ac6(store),
           "6 parameters, 72 certified multiplicities agree")


def test_ac7_admissible_chamber_dichotomy(store):
    _check(acceptance.ac7(store),
           "small system uniquely admissible on 6 forms")


def test_ac8_hermitian_admissibility_dichotomy(store):
    _check(acceptance.ac8(store),
           "4 fixtures, all 36 chambers, invariants hold")


def test_ac9_series_antisymmetry(store):
    _check(acceptance.ac9(store),
           "1868 certified nonzero coefficients checked across 9 runs")
