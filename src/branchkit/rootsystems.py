"""Realized root systems with compact/noncompact labels, positive systems,
the walk over the chambers that contain the compact positive system, and
whole-group Weyl machinery (generation, minimal coset representatives) kept
as a brute-force reference.

Every family's root system is realized here (``_base_system``): the
quaternionic forms, sp(1, q) and the Hermitian forms all take their roots and
simple roots from it.  A positive system is the closure of the simple roots
under adding a simple root while the sum stays a root, and the highest root is
the positive root that no simple root raises; both are set lookups on the
root list, with no linear solve.

All systems live in standard Bourbaki coordinates with the Euclidean inner
product.  Every quantity consumed downstream (coroot pairings, Weyl
polynomial ratios, sign tests, orthogonal projections) is invariant under
positive rescaling of the form, so the Euclidean normalization is safe even
where the Killing form would differ by a factor.

Compactness for the quaternionic families, sp(1, q) among them as the one of
type C, is derived uniformly from the pairing with the coroot of the highest
root b: pairing 0 or 2 means compact, pairing 1 means noncompact (applied to
positive roots, extended by negation).  A form label names its base system
(family, rank), and so the number of coordinates, before any root is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

from .errors import ConfigurationError, DomainError, InternalError, ResourceError
from .lattice import (
    InnerProductForm,
    Matrix,
    Weight,
    dual_covectors,
    format_weight,
    identity_form,
    identity_matrix,
    int_point,
    mat_mul,
    reflect,
    reflection_matrix,
    scaled_points,
    sorted_weights,
    wadd,
    weight,
    wneg,
    wscale,
    zero_weight,
)


@dataclass(frozen=True, eq=False)
class RootDatum:
    """A realized root system with a fixed positive system and compactness labels."""

    label: str
    form: InnerProductForm
    roots: tuple[Weight, ...]
    positive: tuple[Weight, ...]
    simple: tuple[Weight, ...]
    compactness: dict  # Weight -> bool (True = compact), defined on all roots

    def is_compact(self, gamma: Weight) -> bool:
        return self.compactness[gamma]

    @functools.cached_property
    def compact_positive(self) -> tuple[Weight, ...]:
        return tuple(g for g in self.positive if self.compactness[g])

    @functools.cached_property
    def noncompact_positive(self) -> tuple[Weight, ...]:
        return tuple(g for g in self.positive if not self.compactness[g])

    @functools.cached_property
    def points(self):
        """(D, points, norms): the positive roots by position as int points
        at their common denominator D, with their norms (built on first use)."""
        scale, points = scaled_points(self.positive)
        return scale, points, tuple(sum(map(mul, a, a)) for a in points)


@dataclass(frozen=True, eq=False)
class PositiveSystem:
    """A positive system inside a RootDatum, with its half-sum."""

    parent: RootDatum
    chosen: tuple[Weight, ...]
    rho: Weight

    def chosen_set(self) -> frozenset:
        return frozenset(self.chosen)

    @functools.cached_property
    def signs(self) -> tuple[int, ...]:
        """The system by position: it holds s g for the root g at position i
        of ``parent.positive`` and s = signs[i] (read on int points, once)."""
        scale, points, _ = self.parent.points
        chosen = {int_point(g, scale) for g in self.chosen}
        signs = tuple(1 if a in chosen else -1 for a in points)
        if {tuple(s * x for x in a) for a, s in zip(points, signs)} != chosen:
            raise InternalError("not a positive system of the whole root system")
        return signs


def positive_system(rd: RootDatum, chosen=None) -> PositiveSystem:
    roots = tuple(sorted(chosen)) if chosen is not None else rd.positive
    return PositiveSystem(rd, roots, half_sum(rd.form.dim, roots))


def half_sum(form_dim: int, roots) -> Weight:
    """Half the sum of the roots, added on int points."""
    scale, points = scaled_points(roots)
    return tuple(Fraction(sum(x), 2 * scale) for x in zip(*points)) or zero_weight(form_dim)


@dataclass(frozen=True)
class WeylElement:
    """Group element with a reduced word in the supplied generators."""

    word: tuple[int, ...]
    matrix: Matrix
    sign: int


# ---------------------------------------------------------------------------
# root collections per family, in Bourbaki coordinates


def _vector(n: int, entries) -> Weight:
    """The weight of length n with the given {coordinate: value} entries."""
    v = [Fraction(0)] * n
    for i, x in entries.items():
        v[i] = Fraction(x)
    return tuple(v)


def _chain(n: int, length: int):
    """The simple roots e_i - e_{i+1} for i < length, in R^n."""
    return [_vector(n, {i: 1, i + 1: -1}) for i in range(length)]


def _signed_pairs(n: int, singles=None):
    roots = [_vector(n, {i: si, j: sj})
             for i in range(n) for j in range(i + 1, n) for si in (1, -1) for sj in (1, -1)]
    if singles is not None:
        roots += [_vector(n, {i: s * singles}) for i in range(n) for s in (1, -1)]
    return roots


def _type_a(rank: int):
    n = rank + 1
    roots = [_vector(n, {i: 1, j: -1}) for i in range(n) for j in range(n) if i != j]
    return roots, _chain(n, rank)


def _type_b(rank: int):
    return _signed_pairs(rank, singles=1), _chain(rank, rank - 1) + [_vector(rank, {rank - 1: 1})]


def _type_c(rank: int):
    return _signed_pairs(rank, singles=2), _chain(rank, rank - 1) + [_vector(rank, {rank - 1: 2})]


def _type_d(rank: int):
    last = _vector(rank, {rank - 2: 1, rank - 1: 1})
    return _signed_pairs(rank), _chain(rank, rank - 1) + [last]


def _type_g2():
    a1 = weight([1, -1, 0])
    a2 = weight([-2, 1, 1])
    pos = [a1, a2, wadd(a1, a2), wadd(wscale(2, a1), a2), wadd(wscale(3, a1), a2),
           wadd(wscale(3, a1), wscale(2, a2))]
    roots = pos + [wneg(g) for g in pos]
    return roots, [a1, a2]


def _type_f4():
    roots = _signed_pairs(4, singles=1)
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                for s4 in (1, -1):
                    roots.append(
                        (Fraction(s1, 2), Fraction(s2, 2), Fraction(s3, 2), Fraction(s4, 2))
                    )
    simples = [
        weight([0, 1, -1, 0]),
        weight([0, 0, 1, -1]),
        weight([0, 0, 0, 1]),
        weight(["1/2", "-1/2", "-1/2", "-1/2"]),
    ]
    return roots, simples


def _half_vectors(signs_on, fixed, n=8, parity=0):
    """Half-integer E-series vectors: entries +-1/2 on signs_on with given sign
    parity (number of minus signs mod 2), fixed coordinates elsewhere."""
    out = []
    k = len(signs_on)
    for mask in range(1 << k):
        minus = bin(mask).count("1")
        if minus % 2 != parity:
            continue
        v = [Fraction(0)] * n
        for idx, coord in enumerate(signs_on):
            v[coord] = Fraction(-1, 2) if (mask >> idx) & 1 else Fraction(1, 2)
        for coord, val in fixed.items():
            v[coord] = val
        out.append(tuple(v))
    return out


def _type_e(rank: int):
    h = Fraction(1, 2)
    simples8 = [
        (h, -h, -h, -h, -h, -h, -h, h),
        weight([1, 1, 0, 0, 0, 0, 0, 0]),
        weight([-1, 1, 0, 0, 0, 0, 0, 0]),
        weight([0, -1, 1, 0, 0, 0, 0, 0]),
        weight([0, 0, -1, 1, 0, 0, 0, 0]),
        weight([0, 0, 0, -1, 1, 0, 0, 0]),
        weight([0, 0, 0, 0, -1, 1, 0, 0]),
        weight([0, 0, 0, 0, 0, -1, 1, 0]),
    ]
    roots: list[Weight] = []
    if rank == 8:
        roots = _signed_pairs(8)
        # half-integer roots: even number of minus signs
        for mask in range(1 << 8):
            if bin(mask).count("1") % 2 == 0:
                roots.append(
                    tuple(Fraction(-1, 2) if (mask >> i) & 1 else Fraction(1, 2) for i in range(8))
                )
        simples = simples8
    elif rank == 7:
        roots = [r for r in _signed_pairs(8) if all(r[i] == 0 for i in (6, 7))]
        roots += [weight([0, 0, 0, 0, 0, 0, -1, 1]), weight([0, 0, 0, 0, 0, 0, 1, -1])]
        # +-(e8 - e7 + sum over e1..e6 with an odd number of minus signs)/...
        for base in _half_vectors(list(range(6)), {6: Fraction(-1, 2), 7: Fraction(1, 2)}, parity=1):
            roots.append(base)
            roots.append(wneg(base))
        simples = simples8[:7]
    elif rank == 6:
        roots = [r for r in _signed_pairs(8) if all(r[i] == 0 for i in (5, 6, 7))]
        for base in _half_vectors(
            list(range(5)),
            {5: Fraction(-1, 2), 6: Fraction(-1, 2), 7: Fraction(1, 2)},
            parity=0,
        ):
            roots.append(base)
            roots.append(wneg(base))
        simples = simples8[:6]
    else:
        raise ConfigurationError(f"unsupported E-series rank {rank}")
    return roots, simples


# ---------------------------------------------------------------------------
# assembly


def _positive_from_simples(roots, simples):
    """Positive roots: the simple roots, closed under adding a simple root
    while the sum is still a root.  Every positive root is reached, since it
    is a chain of simple roots whose partial sums are all roots (Humphreys,
    Introduction to Lie Algebras, 10.2); a root outside the span of the simple
    roots is not, and breaks the half split.  The closure runs on int points."""
    den, points = scaled_points(roots)
    by_point = dict(zip(points, roots))
    steps = [int_point(a, den) for a in simples]
    positive = set(steps)
    level = positive
    while level:
        level = {tuple(map(add, p, a)) for p in level for a in steps} & by_point.keys()
        positive |= level
    if 2 * len(positive) != len(roots):
        raise InternalError("positive system does not split the roots in half")
    return tuple(by_point[p] for p in sorted(positive))


def simple_elements(positives, form: InnerProductForm):
    """Indecomposable elements of a positive subset (its simple roots): those
    that are not the sum of two of its elements.  The search runs on int
    tuples, scaled by the common denominator, and stops for each element at
    its first decomposition; ``form`` names the ambient space."""
    _, points = scaled_points(positives)
    pos = set(points)
    return tuple(g for p, g in sorted(zip(points, positives))
                 if not any(tuple(map(sub, p, a)) in pos for a in points))


def highest_root(rd: RootDatum) -> Weight:
    """The positive root that no simple root raises to another root; it is
    unique exactly when the system is irreducible (Humphreys, 10.4).  A
    positive root plus a simple root is positive if it is a root."""
    den, points = scaled_points(rd.positive)
    positive = set(points)
    steps = [int_point(a, den) for a in rd.simple]
    top = [g for g, p in zip(rd.positive, points)
           if all(tuple(map(add, p, a)) not in positive for a in steps)]
    if len(top) != 1:
        raise InternalError("highest root is not unique; reducible system?")
    return top[0]


_BASE_BUILDERS = {
    "A": _type_a,
    "B": _type_b,
    "C": _type_c,
    "D": _type_d,
}


def _base_system(family: str, rank: int):
    if family in _BASE_BUILDERS:
        return _BASE_BUILDERS[family](rank)
    if family == "G":
        return _type_g2()
    if family == "F":
        return _type_f4()
    if family == "E":
        return _type_e(rank)
    raise ConfigurationError(f"unknown family {family}")


def ambient_dimension(family: str, rank: int) -> int:
    """The number of coordinates of ``_base_system(family, rank)``."""
    return {"A": rank + 1, "G": 3, "E": 8}.get(family, rank)


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"bad {what} parameter {text!r}") from None


_EXCEPTIONAL = {"g2_2": ("G", 2), "f4_4": ("F", 4), "e6_2": ("E", 6), "e7_m5": ("E", 7),
                "e8_m24": ("E", 8)}


def parse_quaternionic_label(label: str):
    """The base system (family, rank) of a form label like ``su2_n:3``."""
    name, _, param = label.partition(":")
    if name in _EXCEPTIONAL:
        if param:
            raise ConfigurationError(f"form {name} takes no parameter")
        return _EXCEPTIONAL[name]
    if name == "su2_n":
        n = _parse_int(param, "su2_n")
        if n < 1:
            raise ConfigurationError("su2_n requires n >= 1")
        return "A", n + 1
    if name == "so4_n":
        n = _parse_int(param, "so4_n")
        if n < 3:
            raise ConfigurationError("so4_n requires n >= 3")
        return "B" if n % 2 else "D", (4 + n) // 2
    raise ConfigurationError(f"unsupported quaternionic form label {label!r}")


@functools.lru_cache(maxsize=None)
def quaternionic_root_datum(label: str) -> RootDatum:
    """RootDatum for one of the quaternionic real forms.

    The label carries the family and parameter, e.g. ``g2_2``, ``su2_n:3``,
    ``so4_n:4``.
    """
    return _highest_root_datum(label, *parse_quaternionic_label(label))


def _highest_root_datum(label: str, family: str, rank: int) -> RootDatum:
    """The base system with compactness assigned by the highest-root coroot
    pairing rule, which realizes the quaternionic real form: sp(1, q) is the
    one of type C (``label`` names the datum)."""
    roots, simples = _base_system(family, rank)
    form = identity_form(len(roots[0]))
    positive = _positive_from_simples(roots, simples)
    compactness = {}  # filled below; highest_root reads no labels
    rd = RootDatum(label, form, sorted_weights(roots), positive, tuple(simples), compactness)
    beta = highest_root(rd)
    den, points = scaled_points(positive)
    b = int_point(beta, den)
    bb = sum(map(mul, b, b))
    for g, p in zip(positive, points):  # n / bb = <g, beta-check>, on int points
        n = 2 * sum(map(mul, p, b))
        if n not in (0, bb, 2 * bb):
            raise InternalError(
                f"unexpected highest-root pairing {Fraction(n, bb)} for {format_weight(g)}"
            )
        compactness[g] = compactness[wneg(g)] = n != bb
    return rd


def small_system(rd: RootDatum):
    """The distinguished positive system with compact maximal root.

    Returns (PositiveSystem, beta, alpha) where beta is the maximal root and
    alpha a noncompact simple root with 2(beta, alpha)/(alpha, alpha) = 1.
    Verifies the quaternionic conditions: beta compact, the noncompact simple
    coefficients of beta sum to 2, read on int points as (f_i, beta) / (f_i, a_i).
    """
    ps = positive_system(rd)
    beta = highest_root(rd)
    if not rd.is_compact(beta):
        raise InternalError("maximal root is not compact; wrong realization")
    scale = rd.points[0]
    b, simple = int_point(beta, scale), [int_point(a, scale) for a in rd.simple]
    noncompact = [not rd.is_compact(a) for a in rd.simple]
    coeffs = [divmod(sum(map(mul, f, b)), sum(map(mul, f, a)))
              for f, a in zip(dual_covectors(simple), simple)]
    if any(r for _, r in coeffs) or sum(c for (c, _), n in zip(coeffs, noncompact) if n) != 2:
        raise InternalError("noncompact simple coefficients of the maximal root do not sum to 2")
    candidates = [g for g, a, n in zip(rd.simple, simple, noncompact)
                  if n and 2 * sum(map(mul, b, a)) == sum(map(mul, a, a))]
    if not candidates:
        raise InternalError("no noncompact simple root pairs to 1 with the maximal root")
    alpha = candidates[0]  # deterministic: first in simple-root order
    return ps, beta, alpha


def weyl_generate(form: InnerProductForm, generators, order_bound=10**6):
    """Enumerate the reflection group generated by the given roots.

    Breadth-first over reduced words; output sorted by (word length, word),
    each element carrying its matrix and sign.  Raises ResourceError when the
    group order would exceed ``order_bound``.
    """
    gens = [reflection_matrix(g) for g in generators]
    ident = identity_matrix(form.dim)
    seen = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            w = seen[m]
            for i, g in enumerate(gens):
                m2 = mat_mul(g, m)
                if m2 not in seen:
                    seen[m2] = w + (i,)
                    nxt.append(m2)
                    if len(seen) > order_bound:
                        raise ResourceError(
                            f"Weyl group order exceeds the bound {order_bound}"
                        )
        frontier = nxt
    elements = [
        WeylElement(word=tuple(reversed(word)), matrix=m, sign=(-1) ** len(word))
        for m, word in seen.items()
    ]
    elements.sort(key=lambda e: (len(e.word), e.word))
    return tuple(elements)


def coset_reps(elements, subsystem_positive, form: InnerProductForm):
    """Minimal-length representatives of the right cosets W_sub \\ W.

    ``elements`` must be the full enumeration of W; ``subsystem_positive``
    the positive roots of a reflection-closed subsystem.  Each coset has a
    unique minimal-length element; ties raise InternalError.
    """
    for a in subsystem_positive:
        for b in subsystem_positive:
            r = reflect(form, b, a)
            if r not in subsystem_positive and wneg(r) not in subsystem_positive:
                raise DomainError("subsystem is not closed under its own reflections")
    sub_simple = simple_elements(subsystem_positive, form)
    sub = weyl_generate(form, sub_simple)
    by_matrix = {e.matrix: e for e in elements}
    assigned = set()
    reps = []
    for e in elements:  # sorted by length already
        if e.matrix in assigned:
            continue
        coset = []
        for z in sub:
            m = mat_mul(z.matrix, e.matrix)
            member = by_matrix.get(m)
            if member is None:
                raise DomainError("subsystem reflections do not normalize the group")
            coset.append(member)
        minimal = [c for c in coset if len(c.word) == min(len(c.word) for c in coset)]
        if len(minimal) != 1:
            raise InternalError("minimal coset representative is not unique")
        reps.append(minimal[0])
        assigned.update(c.matrix for c in coset)
    if len(reps) * len(sub) != len(elements):
        raise InternalError("coset partition does not cover the group")
    return tuple(reps)


def positive_systems_containing(rd: RootDatum, delta: PositiveSystem):
    """All positive systems of the full root system whose compact part is
    delta, sorted by their roots; [] when delta is the compact part of none.

    Their chambers fill the convex cone where delta is dominant, so a
    breadth-first walk across noncompact walls reaches each of them once
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4).  A chamber Psi is
    keyed by its 2 rho on int points and carries its simple roots: crossing
    the wall of a noncompact simple root g gives 2 rho - 2 g and s_g of the
    simple roots.  The walk starts from ``rd.positive``, first reflected into
    delta's chamber by the roots of delta.
    """
    den, points = scaled_points(rd.roots)
    point = dict(zip(rd.roots, points))
    if not delta.chosen_set() <= point.keys():
        return []
    norm = {p: sum(map(mul, p, p)) for p in point.values()}
    compact = {p for g, p in point.items() if rd.is_compact(g)}
    wanted = {point[g] for g in delta.chosen}

    def reflect_in(x, a):  # x pairs integrally with the coroot of a
        k = 2 * sum(map(mul, x, a)) // norm[a]
        return tuple(xi - k * ai for xi, ai in zip(x, a))

    key = tuple(map(sum, zip(*(point[g] for g in rd.positive))))
    simple = [point[g] for g in rd.simple]
    for _ in wanted:  # enough reflections when delta is a positive system
        a = next((a for a in wanted if sum(map(mul, key, a)) < 0), None)
        if a is None:
            break
        key, simple = reflect_in(key, a), [reflect_in(b, a) for b in simple]
    if {p for p in compact if sum(map(mul, p, key)) > 0} != wanted:
        return []
    queue, seen = [(key, simple)], {key}
    for key, simple in queue:  # breadth first: the queue grows as it is read
        for g in simple:
            crossed = tuple(x - 2 * y for x, y in zip(key, g))
            if g not in compact and crossed not in seen:
                seen.add(crossed)
                queue.append((crossed, [reflect_in(b, g) for b in simple]))
    systems = []
    for key in seen:
        chosen = tuple(sorted(g for g, p in point.items() if sum(map(mul, p, key)) > 0))
        systems.append(PositiveSystem(rd, chosen, tuple(Fraction(x, 2 * den) for x in key)))
    return sorted(systems, key=lambda ps: ps.chosen)
