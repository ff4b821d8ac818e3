"""Realized root systems with compact/noncompact labels, positive systems,
the walk over the chambers that contain the compact positive system, and
whole-group Weyl machinery (generation, minimal coset representatives) kept
as a brute-force reference.

Every family's root system is realized here (``_base_system``): the
quaternionic forms, sp(1, q) and the Hermitian forms all take their roots and
simple roots from it.  A positive system is the closure of the simple roots
under adding a simple root while the sum stays a root, the highest root is
the positive root that no simple root raises, and the simple roots of a
positive subsystem are found in height order; all are set lookups on int
points, with no linear solve.

All systems live in standard Bourbaki coordinates with the Euclidean inner
product.  Every quantity consumed downstream (coroot pairings, Weyl
polynomial ratios, sign tests, orthogonal projections) is invariant under
positive rescaling of the form, so the Euclidean normalization is safe even
where the Killing form would differ by a factor.

Compactness for the quaternionic families, sp(1, q) among them as the one of
type C, is derived uniformly from the pairing with the coroot of the highest
root b: pairing 0 or 2 means compact, pairing 1 means noncompact.  A datum
keeps it by position in its positive roots, with b's position, so a reader
needs no lookup by weight.  A form label names its base system (family,
rank), and so the number of coordinates, before any root is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
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
    compact: tuple[bool, ...]  # by position in positive; a root and its negative agree
    highest: int | None = None  # the highest root's position, where it labels compactness

    def is_compact(self, gamma: Weight) -> bool:
        """Whether the root gamma is compact, found by weight in ``positive``."""
        neg = wneg(gamma)
        return self.compact[[g == gamma or g == neg for g in self.positive].index(True)]

    @functools.cached_property
    def compact_positive(self) -> tuple[Weight, ...]:
        return tuple(g for g, c in zip(self.positive, self.compact) if c)

    @functools.cached_property
    def noncompact_positive(self) -> tuple[Weight, ...]:
        return tuple(g for g, c in zip(self.positive, self.compact) if not c)

    @functools.cached_property
    def points(self):
        """(D, points, norms): the positive roots by position as int points
        at their common denominator D, with their norms (built on first use)."""
        scale, points = scaled_points(self.positive)
        return scale, points, tuple(sum(map(mul, a, a)) for a in points)


@dataclass(frozen=True, eq=False)
class PositiveSystem:
    """A positive system inside a RootDatum, with its half-sum (built on first use)."""

    parent: RootDatum
    chosen: tuple[Weight, ...]

    def chosen_set(self) -> frozenset:
        return frozenset(self.chosen)

    @functools.cached_property
    def rho(self) -> Weight:
        """Half the sum of the chosen roots, added on the parent's int points
        when they are its positive roots."""
        scale, points = (self.parent.points[:2] if self.chosen is self.parent.positive
                         else scaled_points(self.chosen))
        return tuple(Fraction(sum(x), 2 * scale) for x in zip(*points)) or zero_weight(
            self.parent.form.dim)

    @functools.cached_property
    def signs(self) -> tuple[int, ...]:
        """The system by position: it holds s g for the root g at position i
        of ``parent.positive`` and s = signs[i] (read on int points, once)."""
        if self.chosen is self.parent.positive:
            return (1,) * len(self.chosen)
        scale, points, _ = self.parent.points
        chosen = {int_point(g, scale) for g in self.chosen}
        signs = tuple(1 if a in chosen else -1 for a in points)
        if {tuple(s * x for x in a) for a, s in zip(points, signs)} != chosen:
            raise InternalError("not a positive system of the whole root system")
        return signs


def positive_system(rd: RootDatum, chosen=None) -> PositiveSystem:
    return PositiveSystem(rd, tuple(sorted(chosen)) if chosen is not None else rd.positive)


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
    roots += [tuple(Fraction(x, 2) for x in signs) for signs in product((1, -1), repeat=4)]
    simples = [weight([0, 1, -1, 0]), weight([0, 0, 1, -1]), weight([0, 0, 0, 1]),
               weight(["1/2", "-1/2", "-1/2", "-1/2"])]
    return roots, simples


def _half_vectors(signs_on, fixed, n=8, parity=0):
    """Half-integer E-series vectors: entries +-1/2 on signs_on with given sign
    parity (number of minus signs mod 2), fixed coordinates elsewhere."""
    return [_vector(n, {**fixed, **{c: Fraction(s, 2) for c, s in zip(signs_on, signs)}})
            for signs in product((1, -1), repeat=len(signs_on)) if signs.count(-1) % 2 == parity]


def _type_e(rank: int):
    h = Fraction(1, 2)
    simples8 = [(h, -h, -h, -h, -h, -h, -h, h), _vector(8, {0: 1, 1: 1})]
    simples8 += [_vector(8, {i: -1, i + 1: 1}) for i in range(6)]
    if rank == 8:
        roots = _signed_pairs(8) + _half_vectors(range(8), {})  # an even number of minus signs
        simples = simples8
    elif rank == 7:
        roots = [r for r in _signed_pairs(8) if all(r[i] == 0 for i in (6, 7))]
        roots += [weight([0, 0, 0, 0, 0, 0, -1, 1]), weight([0, 0, 0, 0, 0, 0, 1, -1])]
        # +-(e8 - e7 + sum over e1..e6 with an odd number of minus signs)/...
        halves = _half_vectors(range(6), {6: -h, 7: h}, parity=1)
        roots += halves + [wneg(g) for g in halves]
        simples = simples8[:7]
    elif rank == 6:
        roots = [r for r in _signed_pairs(8) if all(r[i] == 0 for i in (5, 6, 7))]
        halves = _half_vectors(range(5), {5: -h, 6: -h, 7: h})
        roots += halves + [wneg(g) for g in halves]
        simples = simples8[:6]
    else:
        raise ConfigurationError(f"unsupported E-series rank {rank}")
    return roots, simples


# ---------------------------------------------------------------------------
# assembly


def _positive_from_simples(roots, simples):
    """The positive roots as int points at the roots' common denominator:
    ({point: root} in sorted order, the positive roots' sorted points, the
    simple roots' points).  The positive roots are the simple roots, closed
    under adding a simple root while the sum is still a root.  Every positive
    root is reached, since it is a chain of simple roots whose partial sums
    are all roots (Humphreys, Introduction to Lie Algebras, 10.2); a root
    outside the span of the simple roots is not, and breaks the half split."""
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
    return {p: by_point[p] for p in sorted(points)}, sorted(positive), steps


def simple_elements(positives, form: InnerProductForm):
    """Indecomposable elements of a positive subset (its simple roots): those
    that are not the sum of two of its elements.  The search runs on int
    tuples, scaled by the common denominator, and stops for each element at
    its first decomposition; ``form`` names the ambient space."""
    _, points = scaled_points(positives)
    pos = set(points)
    return tuple(g for p, g in sorted(zip(points, positives))
                 if not any(tuple(map(sub, p, a)) in pos for a in points))


def simple_positions(points) -> tuple[int, ...]:
    """The positions of the simple roots among the int points of a positive
    system, in O(N rank) lookups: a positive root that is not simple, less
    some simple root, is positive (Humphreys, 10.2, Corollary to Lemma A),
    and in order of the pairing with 2 rho a sum comes after its summands."""
    two_rho = tuple(map(sum, zip(*points)))
    pos, simple = set(points), []
    for i in sorted(range(len(points)), key=lambda i: sum(map(mul, points[i], two_rho))):
        if not any(tuple(map(sub, points[i], points[j])) in pos for j in simple):
            simple.append(i)
    return tuple(sorted(simple))


def _highest(points, steps) -> int:
    """The position of the positive root that no simple root raises to
    another root, on int points; it is unique exactly when the system is
    irreducible (Humphreys, 10.4)."""
    positive = set(points)
    top = [i for i, p in enumerate(points) if all(tuple(map(add, p, a)) not in positive
                                                  for a in steps)]
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
    by_point, points, steps = _positive_from_simples(roots, simples)
    top = _highest(points, steps)
    b = points[top]
    bb = sum(map(mul, b, b))
    compact = []
    for p in points:  # n / bb = <g, beta-check>, on int points
        n = 2 * sum(map(mul, p, b))
        if n not in (0, bb, 2 * bb):
            raise InternalError(f"unexpected highest-root pairing {Fraction(n, bb)} "
                                f"for {format_weight(by_point[p])}")
        compact.append(n != bb)
    return RootDatum(label, identity_form(len(roots[0])), tuple(by_point.values()),
                     tuple(map(by_point.__getitem__, points)), tuple(simples), tuple(compact), top)


def small_system(rd: RootDatum):
    """The distinguished positive system with compact maximal root.

    Returns (PositiveSystem, beta, alpha) where beta is the maximal root,
    compact by the highest-root rule, and alpha a noncompact simple root with
    2(beta, alpha)/(alpha, alpha) = 1.  Verifies that the noncompact simple
    coefficients of beta sum to 2, read on int points as (f_i, beta) / (f_i, a_i).
    """
    scale, points, _ = rd.points
    b = points[rd.highest]
    simple = [int_point(a, scale) for a in rd.simple]
    noncompact = [2 * sum(map(mul, a, b)) == sum(map(mul, b, b)) for a in simple]
    coeffs = [divmod(sum(map(mul, f, b)), sum(map(mul, f, a)))
              for f, a in zip(dual_covectors(simple), simple)]
    if any(r for _, r in coeffs) or sum(c for (c, _), n in zip(coeffs, noncompact) if n) != 2:
        raise InternalError("noncompact simple coefficients of the maximal root do not sum to 2")
    candidates = [g for g, a, n in zip(rd.simple, simple, noncompact)
                  if n and 2 * sum(map(mul, b, a)) == sum(map(mul, a, a))]
    if not candidates:
        raise InternalError("no noncompact simple root pairs to 1 with the maximal root")
    alpha = candidates[0]  # deterministic: first in simple-root order
    return positive_system(rd), rd.positive[rd.highest], alpha


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
    _, points = scaled_points(rd.roots)
    point = dict(zip(rd.roots, points))
    if not delta.chosen_set() <= point.keys():
        return []
    norm = {p: sum(map(mul, p, p)) for p in point.values()}
    compact = {x for p, c in zip(rd.points[1], rd.compact) if c for x in (p, tuple(-y for y in p))}
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
        systems.append(PositiveSystem(rd, chosen))
    return sorted(systems, key=lambda ps: ps.chosen)
