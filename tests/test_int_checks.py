"""The request checks on int points against their Fraction references
(``oracle_reference``): lambda's validation, the Hermitian chamber and its
certificate test, the compact factor's conversion, dimension and coweights,
and the context's projection check.  The forms are the benchmark's: every
quaternionic form of its closed tables, sp(1, 2) and sp(1, 3), and its five
Hermitian forms, each with its seed-0 parameter."""

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchkit.errors import DomainError, InternalError
from branchkit.lattice import parse_weight, weight, wadd, wscale
from branchkit.quaternionic import _verify_projections, decompose_parameter, quaternionic_context
from branchkit.repweights import (
    hc_to_highest_weight,
    regular_integral_pairings,
    validate_hc_parameter,
    weyl_dimension,
)
from branchkit.rootsystems import positive_system, positive_systems_containing
from branchkit.specialcases import (
    hermitian_data,
    kss_admissible_system,
    sp1q_context,
    validate_hermitian_parameter,
)
from oracle_reference import (
    fraction_pairings,
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
    assert _same_covectors(factor.coweight_covectors, reference_coweight_covectors(factor))
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
    systems = positive_systems_containing(
        rd, positive_system(rd, frozenset(rd.compact_positive)))
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
    broken = dataclasses.replace(ctx, fw1=ctx.fw2)  # every root meant for L1 misses
    for check in (_verify_projections, reference_verify_projections):
        with pytest.raises(InternalError, match="misses L1, L2"):
            check(broken)


@pytest.mark.parametrize("label", HERMITIAN_FORMS)
def test_hermitian_chambers_match_fraction_reference(label, seed0):
    hd = hermitian_data(label)
    delta = positive_system(hd.rd, frozenset(hd.rd.compact_positive))
    decisions = set()
    for psi in positive_systems_containing(hd.rd, delta):
        assert validate_hermitian_parameter(hd, psi.rho) == psi.signs
        assert reference_hermitian_chamber(hd, psi.rho) == psi.chosen_set()
        decision = kss_admissible_system(hd, psi.signs)
        assert decision is reference_kss_admissible_system(hd, psi.chosen_set())
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
