"""Finite-dimensional representation data for compact factors: Freudenthal
weight multiplicities, the Weyl dimension formula, infinitesimal-character to
highest-weight conversion, and pushforward of weight tables along projections.

Everything is exact.  The Freudenthal recursion runs over rationals and the
resulting multiplicities are asserted integral; a non-integer intermediate
aborts with InternalError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalError, ResourceError
from .lattice import (
    InnerProductForm,
    Weight,
    coroot_pairing,
    format_weight,
    inner,
    rational_solve,
    reflect,
    wadd,
    wsub,
)
from .rootsystems import PositiveSystem, env_bound, half_sum, simple_elements

DIMENSION_BOUND = 10**7


def dimension_bound() -> int:
    return env_bound("BRANCHKIT_DIMENSION_BOUND", DIMENSION_BOUND)


@dataclass(frozen=True, eq=False)
class CompactFactor:
    """A (possibly reducible) compact root subsystem inside the ambient space."""

    form: InnerProductForm
    positive: tuple[Weight, ...]
    simple: tuple[Weight, ...]
    rho: Weight

    @classmethod
    def from_positive(cls, form: InnerProductForm, positive) -> "CompactFactor":
        pos = tuple(sorted(positive))
        return cls(form, pos, simple_elements(pos, form), half_sum(form.dim, pos))


@dataclass(frozen=True, eq=False)
class HCParameter:
    """A regular, integral weight, dominant for the stated positive system."""

    lam: Weight
    system: PositiveSystem


def validate_hc_parameter(lam: Weight, system: PositiveSystem) -> HCParameter:
    rd = system.parent
    for g in rd.roots:
        p = coroot_pairing(rd.form, lam, g)
        if p == 0:
            raise DomainError(f"parameter is singular against root {format_weight(g)}")
        if p.denominator != 1:
            raise DomainError(f"parameter is not integral against root {format_weight(g)}")
    for g in system.chosen:
        if inner(rd.form, lam, g) <= 0:
            raise DomainError("parameter is not dominant for the given positive system")
    return HCParameter(lam, system)


def hc_to_highest_weight(lam2: Weight, factor: CompactFactor) -> Weight:
    """Highest weight of the irreducible with infinitesimal character lam2."""
    for g in factor.positive:
        p = coroot_pairing(factor.form, lam2, g)
        if p <= 0:
            raise DomainError("infinitesimal character is not dominant regular")
        if p.denominator != 1:
            raise DomainError("infinitesimal character is not integral")
    return wsub(lam2, factor.rho)


def weyl_dimension(hw: Weight, factor: CompactFactor) -> int:
    """Product formula for the dimension of the highest-weight representation."""
    _check_dominant_integral(hw, factor)
    num = Fraction(1)
    shifted = wadd(hw, factor.rho)
    for g in factor.positive:
        num *= inner(factor.form, shifted, g) / inner(factor.form, factor.rho, g)
    if num.denominator != 1:
        raise InternalError("Weyl dimension is not an integer")
    return int(num)


def _check_dominant_integral(hw: Weight, factor: CompactFactor):
    for g in factor.positive:
        p = coroot_pairing(factor.form, hw, g)
        if p < 0 or p.denominator != 1:
            raise DomainError("highest weight must be dominant integral")


def _dominant_representative(v: Weight, factor: CompactFactor) -> Weight:
    while True:
        for a in factor.simple:
            if inner(factor.form, v, a) < 0:
                v = reflect(factor.form, v, a)
                break
        else:
            return v


def _dominant_weights(hw: Weight, factor: CompactFactor):
    """All dominant weights of the representation, found by walking down
    positive-root steps through dominant representatives."""
    found = {hw}
    frontier = [hw]
    while frontier:
        nxt = []
        for v in frontier:
            for g in factor.positive:
                c = wsub(v, g)
                cd = _dominant_representative(c, factor)
                if cd in found:
                    continue
                # keep only weights below hw in the dominance order
                sol = rational_solve(list(factor.simple), wsub(hw, cd))
                if sol is None or any(x < 0 for x in sol):
                    continue
                found.add(cd)
                nxt.append(cd)
        frontier = nxt
    return found


@dataclass(frozen=True, eq=False)
class WeightMultTable:
    """Complete weight multiplicity table of one irreducible representation."""

    highest: Weight
    mults: dict  # Weight -> positive int
    factor: CompactFactor

    def dimension(self) -> int:
        return sum(self.mults.values())


def freudenthal(hw: Weight, factor: CompactFactor) -> WeightMultTable:
    """Weight multiplicities by Freudenthal's recursion, extended over Weyl
    orbits.  Dimension above the configured bound raises ResourceError."""
    _check_dominant_integral(hw, factor)
    dim = weyl_dimension(hw, factor)
    if dim > dimension_bound():
        raise ResourceError(f"representation dimension {dim} exceeds the bound")
    dominant = _dominant_weights(hw, factor)
    shifted = wadd(hw, factor.rho)
    top_norm = inner(factor.form, shifted, shifted)
    order = sorted(
        dominant,
        key=lambda v: (-inner(factor.form, wadd(v, factor.rho), wadd(v, factor.rho)), v),
    )
    mults: dict = {}
    for v in order:
        if v == hw:
            mults[v] = Fraction(1)
            continue
        vr = wadd(v, factor.rho)
        denom = top_norm - inner(factor.form, vr, vr)
        if denom <= 0:
            raise InternalError("Freudenthal denominator is not positive")
        total = Fraction(0)
        for g in factor.positive:
            k = 1
            while True:
                u = wadd(v, tuple(k * x for x in g))
                ud = _dominant_representative(u, factor)
                m = mults.get(ud)
                if m is None:
                    if ud not in dominant:
                        break
                    raise InternalError("Freudenthal visited an uncomputed weight")
                total += m * inner(factor.form, u, g)
                k += 1
        m = 2 * total / denom
        if m.denominator != 1:
            raise InternalError("Freudenthal produced a non-integer multiplicity")
        mults[v] = m
    table: dict = {}
    for v, m in mults.items():
        for u in _orbit(v, factor):
            table[u] = int(m)
    got = sum(table.values())
    if got != dim:
        raise InternalError(f"weight table sums to {got}, Weyl dimension is {dim}")
    return WeightMultTable(hw, table, factor)


def _orbit(v: Weight, factor: CompactFactor):
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for a in factor.simple:
                r = reflect(factor.form, u, a)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def restrict_weights(table: WeightMultTable, projection) -> dict:
    """Pushforward of the multiplicities along a linear projection; weights
    that collide under the projection have their multiplicities summed."""
    out: dict = {}
    for v, m in table.mults.items():
        p = projection(v)
        out[p] = out.get(p, 0) + m
    return out


def su2_string_decompose(table: WeightMultTable, root: Weight) -> dict:
    """Decompose the table under the su(2) generated by one root.

    Returns {k: N_k} where k >= 1 is the su(2) infinitesimal character in
    units of half the root (an irreducible of dimension k) and N_k its
    multiplicity, computed from the weight profile along the root direction.
    """
    profile: dict = {}
    for v, m in table.mults.items():
        c = coroot_pairing(table.factor.form, v, root)
        if c.denominator != 1:
            raise InternalError("non-integral su(2) weight in string decomposition")
        profile[int(c)] = profile.get(int(c), 0) + m
    out = {}
    top = max(profile) if profile else -1
    for k in range(1, top + 2):
        n = profile.get(k - 1, 0) - profile.get(k + 1, 0)
        if n < 0:
            raise InternalError("negative su(2) string multiplicity")
        if n:
            out[k] = n
    return out


@functools.lru_cache(maxsize=None)
def _cached_table(cache_key, hw: Weight):
    factor = _FACTOR_CACHE[cache_key]
    return freudenthal(hw, factor)


_FACTOR_CACHE: dict = {}


def cached_freudenthal(label: str, hw: Weight, factor: CompactFactor) -> WeightMultTable:
    """Memoized table lookup keyed by (owning form label, highest weight)."""
    key = (label, factor.positive)
    _FACTOR_CACHE.setdefault(key, factor)
    return _cached_table(key, hw)
