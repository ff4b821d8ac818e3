"""Seeded parameter generators for the benchmark workloads.

Every generator draws a small nonnegative integer combination of fundamental
weights and adds it to a regular dominant base weight (the half-sum of the
relevant positive system), so the result is regular, integral and dominant by
construction.  A draw is rejected, and redrawn from the same stream, when the
Weyl dimension of the compact-factor representation it selects exceeds
``DIMENSION_CAP``.  The cap is the only filter and it is the same on every
form; no form or parameter is singled out.
"""

from __future__ import annotations

from fractions import Fraction

from branchkit.lattice import coroot_pairing, format_weight, inner, reflect, wadd, wscale
from branchkit.quaternionic import decompose_parameter
from branchkit.repweights import CompactFactor
from branchkit.rootsystems import simple_elements
from branchkit.specialcases import sp1q_decompose

DIMENSION_CAP = 16
# Each coefficient is 0 with probability 1/2, else 1 or 2.
COEFFICIENTS = (0, 0, 1, 2)
MAX_DRAWS = 10_000


def fundamental_weights(form, simples):
    """Weights w_i in the span of ``simples`` with <w_i, a_j-check> = delta_ij."""
    n = len(simples)
    # Gauss-Jordan on C[j][k] = <a_k, a_j-check>; w_i = sum_k X[k][i] a_k.
    rows = [
        [coroot_pairing(form, simples[k], simples[j]) for k in range(n)]
        + [Fraction(int(i == j)) for i in range(n)]
        for j in range(n)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pv = rows[c][c]
        rows[c] = [x / pv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    zero = tuple(Fraction(0) for _ in simples[0])
    weights = []
    for i in range(n):
        w = zero
        for k in range(n):
            w = wadd(w, wscale(rows[k][n + i], simples[k]))
        weights.append(w)
    return weights


class DimensionCap:
    """Weyl dimension test for the representation of ``factor`` with
    infinitesimal character ``lam``: prod (lam, g) / (rho, g) over positive g."""

    def __init__(self, factor: CompactFactor):
        self.form = factor.form
        self.pairs = [(g, inner(factor.form, factor.rho, g)) for g in factor.positive]

    def within(self, lam) -> bool:
        dim = Fraction(1)
        for g, rho_g in self.pairs:
            # every factor is >= 1 for dominant regular integral lam
            dim *= inner(self.form, lam, g) / rho_g
            if dim > DIMENSION_CAP:
                return False
        return True


class Generator:
    """base + sum c_i w_i with seeded c_i, redrawn until ``accept(lam)``."""

    def __init__(self, base, fundamentals, accept):
        self.base = base
        self.fundamentals = fundamentals
        self.accept = accept

    def draw_weight(self, rng):
        for _ in range(MAX_DRAWS):
            lam = self.base
            for w in self.fundamentals:
                c = rng.choice(COEFFICIENTS)
                if c:
                    lam = wadd(lam, wscale(c, w))
            if self.accept(lam):
                return lam
        raise RuntimeError("no draw under the dimension cap")

    def draw(self, rng) -> str:
        return format_weight(self.draw_weight(rng))


def quaternionic_generator(ctx) -> Generator:
    """psi.rho plus a seeded combination of the small system's fundamental weights."""
    cap = DimensionCap(ctx.k2_factor)
    return Generator(
        ctx.psi.rho,
        fundamental_weights(ctx.form, simple_elements(ctx.psi.chosen, ctx.form)),
        lambda lam: cap.within(decompose_parameter(ctx, lam)[1]),
    )


def sp1q_generator(ctx) -> Generator:
    """sigma.rho plus a seeded combination of the sp(1, q) fundamental weights."""
    cap = DimensionCap(ctx.k2_factor)
    return Generator(
        ctx.sigma.rho,
        fundamental_weights(ctx.form, ctx.rd.simple),
        lambda lam: cap.within(sp1q_decompose(ctx, lam)[1]),
    )


class HermitianGenerator:
    """A seeded parameter in a seeded chamber of a Hermitian form.

    Draws psi_h.rho plus a combination of the holomorphic system's fundamental
    weights, reflects it in a seeded number (0 to 3) of noncompact simple
    roots to leave the holomorphic chamber, and moves it back to compact
    dominance.  The cap applies to the K-type with that infinitesimal
    character.
    """

    def __init__(self, hd):
        rd = hd.rd
        compact = CompactFactor.from_positive(rd.form, rd.compact_positive)
        self.form = rd.form
        self.compact_simple = compact.simple
        self.noncompact_simple = [a for a in rd.simple if not rd.is_compact(a)]
        self.cap = DimensionCap(compact)
        self.holomorphic = Generator(hd.psi_h.rho, fundamental_weights(rd.form, rd.simple),
                                     lambda lam: True)

    def draw_weight(self, rng):
        for _ in range(MAX_DRAWS):
            lam = self.holomorphic.draw_weight(rng)
            for _ in range(rng.randrange(4)):
                lam = reflect(self.form, lam, rng.choice(self.noncompact_simple))
            moved = True
            while moved:
                moved = False
                for a in self.compact_simple:
                    if inner(self.form, lam, a) < 0:
                        lam = reflect(self.form, lam, a)
                        moved = True
            if self.cap.within(lam):
                return lam
        raise RuntimeError("no draw under the dimension cap")

    def draw(self, rng) -> str:
        return format_weight(self.draw_weight(rng))
