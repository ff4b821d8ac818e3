"""Exact arithmetic on weights: rational coordinate vectors, inner products,
coroot pairings and reflections.

A weight is a plain tuple of ``Fraction``; ``Fraction`` keeps itself in lowest
terms with a positive denominator, so weights compare exactly and can be used
as dict keys directly.  All values are immutable and all operations are pure.

Weights are Euclidean: every root system is realized in orthonormal
coordinates, so the inner product is the coordinate dot product, and coroot
pairings and reflections are dot-product formulas.  Root data are born as
int points (``rootsystems``), their positive roots picked by the sign of the
covectors ``dual_covectors`` gives; an ``InnerProductForm`` names the dimension.

``rational_solve`` converts int entries to ``Fraction`` on entry, so its
answer is exact for int input too.  A ``Chart`` gives the span of pairwise
orthogonal int points integer coordinates: a weight's pairings with them, at
a chosen scale; the oracle's plans and series and the closed branching
tables live on them.  ``reflect_point`` is the one reflection on int points.

Every frozen value class of the package is made by ``record``: shared
functions give it ``__init__``, ``__repr__``, read-only attributes and, on
request, value equality, so that making a class compiles no code.
"""

from __future__ import annotations

import copy
import functools
import re
import sys
from collections import deque
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Iterable, Sequence

from .errors import DimensionError, DomainError, InternalError

Weight = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
_PLAIN = re.compile(r"([+-]?\d+)(?:/(\d+))?")  # a weight coordinate that int() reads


def weight(coords: Iterable) -> Weight:
    """Build a weight from any iterable of ints / Fractions / strings."""
    return tuple(Fraction(c) for c in coords)


def zero_weight(dim: int) -> Weight:
    return (Fraction(0),) * dim


def wadd(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise DimensionError(f"weight lengths differ: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def wsub(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise DimensionError(f"weight lengths differ: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wscale(c, a: Weight) -> Weight:
    c = Fraction(c)
    return tuple(c * x for x in a)


def is_zero(a: Weight) -> bool:
    return all(x == 0 for x in a)


def int_point(a: Weight, scale: int) -> tuple[int, ...]:
    """The int tuple scale * a; scale must be a multiple of every denominator of a."""
    return tuple(x.numerator * (scale // x.denominator) for x in a)


def scaled_point(a: Weight) -> tuple[tuple[int, ...], int]:
    """(d a, d) for d the common denominator of a."""
    d = lcm(1, *(x.denominator for x in a))
    return int_point(a, d), d


def scaled_points(weights: Sequence[Weight]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, the int points d a of the weights a) for d their common denominator."""
    d = lcm(1, *(x.denominator for a in weights for x in a))
    return d, tuple(int_point(a, d) for a in weights)


def dual_covectors(points: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Positive multiples f_i of the dual basis of linearly independent int
    points s_j, in their span: (f_i, s_j) = 0 for j != i, (f_i, s_i) > 0.
    Fraction-free Gauss-Jordan on [G | I], G the positive definite Gram
    matrix, keeps each row of the form (d e_i | X) with X G = d e_i, d > 0."""
    n = len(points)
    rows = [[sum(map(mul, a, b)) for b in points] + [int(i == j) for j in range(n)]
            for i, a in enumerate(points)]
    for c, pivot in enumerate(rows):
        for r, row in enumerate(rows):
            if r != c and row[c]:
                row = [pivot[c] * x - row[c] * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                rows[r] = [x // g for x in row]
    covectors = [[sum(map(mul, row[n:], column)) for column in zip(*points)] for row in rows]
    return tuple(tuple(x // gcd(*f) for x in f) for f in covectors)


def reflect_point(v: Sequence[int], a: Sequence[int], aa: int) -> tuple[int, ...]:
    """Reflection of the int point v in the int root a, with aa = (a, a).
    Exact when v pairs integrally with the coroot of a: 2 (v, a) / (a, a)."""
    k = 2 * sum(map(mul, v, a)) // aa
    return tuple(x - k * y for x, y in zip(v, a))


def _written_digits(part: str) -> int:
    """The most digits of the ints that ``Fraction(part)`` builds before it
    reduces them: the numerator and denominator as written, or a decimal's
    digits shifted by its exponent, read before ten is raised to it (an
    exponent of more than 19 digits counts as its first 19)."""
    part = part.replace("_", "").lower()
    if "/" in part:
        return max(map(len, part.split("/")))
    mantissa, _, exponent = part.partition("e")
    whole, _, decimal = mantissa.lstrip("+-").partition(".")
    digits = exponent.lstrip("+-").lstrip("0")
    shift = int(digits[:19]) if digits.isdecimal() else 0
    if exponent.startswith("-"):
        shift = -shift
    return max(len(whole) + len(decimal) + max(shift, 0), len(decimal) - min(shift, 0) + 1)


def parse_weight(text: str) -> Weight:
    """Parse the textual form, e.g. ``"3/2,-1/2,0,0"``.  A coordinate whose
    numerator or denominator would have more digits than ints convert to
    and from text (``sys.get_int_max_str_digits()``) is rejected before it
    is built."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p == "" for p in parts):
        raise DomainError(f"cannot parse weight {text!r}")
    limit = sys.get_int_max_str_digits()
    plain = [(not limit or len(p) <= limit) and _PLAIN.fullmatch(p) for p in parts]
    for i, (part, m) in enumerate(zip(parts, plain), 1):
        if not m and limit and _written_digits(part) > limit:
            raise DomainError(f"weight coordinate {i} has a numerator or denominator "
                              f"of more than {limit} digits")
    try:
        return tuple(Fraction(*map(int, m.groups("1"))) if m else Fraction(p)
                     for p, m in zip(parts, plain))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse weight {text!r}: {exc}") from None


def format_weight(w: Weight) -> str:
    return ",".join(str(c) for c in w)


_consume = deque(maxlen=0).extend  # runs an iterator to its end
_setter = object.__setattr__.__get__  # object.__setattr__ bound to an instance


def record(cls=None, *, eq=False):
    """Make cls a frozen record from shared functions, compiling no code
    for it.  Its fields (``__match_args__``) are its bases' fields, then
    its own annotated names; a field's class attribute is its default.
    ``__init__`` takes the fields by position or keyword and stores them
    with ``object.__setattr__`` in field order, so that the instances of a
    class share one attribute layout, then runs ``__post_init__`` where the
    class has one.  Assigning or deleting an attribute raises
    AttributeError, while a ``functools.cached_property`` still caches.
    With eq, two records of one class are equal, and hash alike, when their
    fields are; without, a record equals only itself."""
    if cls is None:
        return functools.partial(record, eq=eq)
    cls.__match_args__ = tuple(dict.fromkeys([*getattr(cls, "__match_args__", ()),
                                              *cls.__annotations__]))
    cls.__init__ = _init_post if hasattr(cls, "__post_init__") else _init
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__repr__ = _repr
    if eq:
        cls._values = attrgetter(*cls.__match_args__)
        cls.__eq__, cls.__hash__ = _eq, _hash
    return cls


def _init(self, *args, **kwargs):
    names = self.__match_args__
    if kwargs or len(args) != len(names):
        args = _bind(type(self), args, kwargs)
    _consume(map(_setter(self), names, args))


def _init_post(self, *args, **kwargs):
    _init(self, *args, **kwargs)
    self.__post_init__()


def _bind(cls, args, kwargs) -> list:
    """The field values of a call with keywords, defaults or a wrong count."""
    names = cls.__match_args__
    values = dict(zip(names, args))
    if len(args) > len(names) or any(k not in names or k in values for k in kwargs):
        raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}, each once")
    values.update(kwargs)
    missing = [n for n in names if n not in values and not hasattr(cls, n)]
    if missing:
        raise TypeError(f"{cls.__name__}() misses the fields {', '.join(missing)}")
    return [values[n] if n in values else getattr(cls, n) for n in names]


def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def _repr(self) -> str:
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._values(self) == self._values(other)


def _hash(self) -> int:
    return hash(self._values(self))


@record(eq=True)
class InnerProductForm:
    """The Euclidean inner product on the ambient space Q^dim.

    Every root system is realized in orthonormal coordinates, so the form is
    the coordinate dot product and carries only its dimension.
    """

    dim: int


def identity_form(dim: int) -> InnerProductForm:
    return InnerProductForm(dim)


def inner(form: InnerProductForm, a: Weight, b: Weight) -> Fraction:
    """Exact coordinate dot product of two weights of the form's space."""
    if len(a) != form.dim or len(b) != form.dim:
        raise DimensionError("weight length does not match form dimension")
    return sum((x * y for x, y in zip(a, b) if x and y), Fraction(0))


def coroot_pairing(form: InnerProductForm, lam: Weight, gamma: Weight) -> Fraction:
    """<lam, gamma-check> = 2 (lam, gamma) / (gamma, gamma)."""
    if is_zero(gamma):
        raise DomainError("coroot pairing against the zero vector")
    return 2 * inner(form, lam, gamma) / inner(form, gamma, gamma)


def reflect(form: InnerProductForm, lam: Weight, gamma: Weight) -> Weight:
    """Reflection of lam in the hyperplane orthogonal to gamma; involutive."""
    if is_zero(gamma):
        raise DomainError("reflection in the zero vector")
    return wsub(lam, wscale(coroot_pairing(form, lam, gamma), gamma))


def identity_matrix(dim: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(dim)) for i in range(dim)
    )


def reflection_matrix(gamma: Weight) -> Matrix:
    """Matrix of the reflection in gamma, I - 2 gamma gamma^T / (gamma, gamma),
    acting on column vectors."""
    if is_zero(gamma):
        raise DomainError("reflection in the zero vector")
    c = Fraction(-2) / sum(x * x for x in gamma)
    return tuple(
        tuple((i == j) + c * gi * gj for j, gj in enumerate(gamma))
        for i, gi in enumerate(gamma)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((a[i][k] * bt[j][k] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def rational_solve(columns: Sequence[Weight], target: Weight):
    """Solve sum_i x_i * columns[i] = target exactly.

    Returns the coefficient tuple, or None when the system is inconsistent.
    When the columns are linearly dependent a particular solution is returned
    (free variables are set to zero): it is read off the reduced row echelon
    form of the augmented rows (``_echelon``).
    """
    k = len(columns)
    pivots, rows = _echelon([[c[i] for c in columns] + [t] for i, t in enumerate(target)])
    if k in pivots:
        return None
    sol = [Fraction(0)] * k
    for c, row in zip(pivots, rows):
        sol[c] = row[k]
    return tuple(sol)


def _echelon(vectors: Sequence[Weight]):
    """Reduced row echelon form of the vectors' span: (pivot columns, rows),
    in increasing pivot order, so that both depend on the span alone."""
    rows: list[list[Fraction]] = []
    pivots: list[int] = []
    for v in vectors:
        v = [Fraction(x) for x in v]
        for p, row in zip(pivots, rows):
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        v = [x / v[lead] for x in v]
        for i, row in enumerate(rows):
            if row[lead]:
                f = row[lead]
                rows[i] = [x - f * y for x, y in zip(row, v)]
        pivots.append(lead)
        rows.append(v)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return tuple(pivots[i] for i in order), tuple(tuple(rows[i]) for i in order)


class Chart:
    """Integer coordinates on the span of pairwise orthogonal int points v_j,
    with norms n_j = (v_j, v_j): a weight mu of the span is the sum of
    (mu, v_j) v_j / n_j, and its point is ``scale`` times its pairings
    (mu, v_j).  The scale is chosen by the caller so that the points it
    needs are integral; ``at_scale`` gives the span another scale.  The
    basis v_j / n_j is kept as int ``columns`` over one denominator, so that
    mapping a point to its weight and back is int arithmetic.
    """

    def __init__(self, points: Sequence[Sequence[int]], scale: int):
        self.points, self.scale = tuple(points), scale
        if any(sum(map(mul, u, v)) for i, u in enumerate(self.points) for v in self.points[:i]):
            raise InternalError("the chart's points are not orthogonal")
        self.norms = tuple(sum(map(mul, v, v)) for v in self.points)
        self._den = lcm(*self.norms)
        self.columns = tuple(zip(*([x * (self._den // n) for x in v]
                                   for v, n in zip(self.points, self.norms))))

    def at_scale(self, scale: int) -> Chart:
        """The chart of the same span with the given scale."""
        chart = copy.copy(self)
        chart.scale = scale
        return chart

    @property
    def den(self) -> int:
        """The positive denominator of the weights: the weight of a point p
        has the numerators p . column over the ``columns``."""
        return self.scale * self._den

    def to_point(self, w: Weight) -> tuple[int, ...]:
        """Integer coordinates of w; InternalError when w is off the span or
        off the lattice."""
        x, d = scaled_point(w)
        t = [sum(map(mul, x, v)) for v in self.points]
        if (any(xi * self._den != sum(map(mul, t, column)) for xi, column in zip(x, self.columns))
                or any(ti * self.scale % d for ti in t)):
            raise InternalError(f"weight {format_weight(w)} is off the chart lattice")
        return tuple(ti * self.scale // d for ti in t)

    def to_weight(self, p: Sequence[int]) -> Weight:
        """The weight with integer coordinates p."""
        den = self.den
        return tuple(Fraction(sum(map(mul, p, column)), den) for column in self.columns)


class WeightEntries(Mapping):
    """The weight -> multiplicity view of a table keyed by ints: its length
    is the table's, and the weights are built on the first lookup."""

    def __init__(self, by_key: dict, to_weight):
        self._by_key, self._to_weight = by_key, to_weight

    @functools.cached_property
    def _weights(self) -> dict:
        return {self._to_weight(k): m for k, m in self._by_key.items()}

    def __getitem__(self, mu):
        return self._weights[mu]

    def __iter__(self):
        return iter(self._weights)

    def __len__(self):
        return len(self._by_key)
