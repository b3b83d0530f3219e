"""Conjugate characteristic classes via formal roots.

A rank-q bundle is handled through q formal roots; its k-th class is the
k-th elementary symmetric polynomial of the roots.  Conjugating the bundle
replaces each root x by the formal inverse iota(x), and expressing the
result in elementary symmetric polynomials again yields the conjugate
classes.  The reduction is the classical Gauss descent on the
lexicographically largest root exponent, which terminates because each
step strictly lowers it.  It runs on dominant exponents (non-increasing
ones) only: a symmetric polynomial is fixed by its dominant terms, and
the dominant part of each product of elementary polynomials is built once
per context by the Pieri rule from a smaller one.  The q conjugate roots
are substituted once per context, and all conjugate elementary
polynomials come from one run of the standard DP.

Each class polynomial lives over `spec`, the coefficients and the q
classes; the roots, their elementary polynomials and their conjugates
live over `root_spec`, the coefficients and the q roots, and
`elementary_reduce` carries a symmetric root polynomial into `spec`.

The context works with a literal root count equal to the bundle rank.
Naturality ties ranks together: killing the top class of a rank-(q+1)
answer gives the rank-q answer, and a test holds that line.

The Thom ratio for a rank-2k bundle is the product over all roots of
iota(x_i)/x_i.  It is symmetric with constant term 1, and satisfies
ratio * e_2k(x) = e_2k(iota(x)) on the nose; that identity is recomputed
at a padded weight every time so the returned truncation is fully pinned.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import combinations, groupby
from math import comb

from .errors import (
    InputError,
    MathInvariantError,
    PrecisionError,
    ReductionError,
    SymmetryError,
    check_ints,
)
from .fgl import UniSeries
from .graded import GradedSeries, GradingSpec
from .scalar2 import TwoLocal, val2


class SymmetricContext:
    """Root calculus for one bundle rank at one weight bound: `spec`
    holds the classes, `root_spec` the roots, and no series has both."""

    def __init__(self, iota: UniSeries, q: int, weight: int):
        check_ints({"q": q, "weight": weight})
        if q < 1:
            raise InputError("need at least one root")
        if weight < 0:
            raise InputError("negative weight bound")
        base = iota.spec
        if base.q or base.roots:
            raise InputError("iota must live over the bare coefficient ring")
        self.iota = iota
        self.q = q
        self.weight = weight
        self.spec = GradingSpec(base.n, q=q, alphabet=base.alphabet)
        self.root_spec = GradingSpec(base.n, roots=q, alphabet=base.alphabet)
        self._conj_chern: dict[int, GradedSeries] = {}
        self._dominant_products = {(0,) * q: GradedSeries.unit(
            self.root_spec, 1)}

    # -- basic series -----------------------------------------------------

    def root(self, i: int) -> GradedSeries:
        check_ints({"i": i})
        if not 1 <= i <= self.q:
            raise InputError(f"root index {i} out of range")
        return GradedSeries.gen(self.root_spec, f"x{i}", trunc=self.weight)

    def chern_class(self, k: int) -> GradedSeries:
        check_ints({"k": k})
        if not 1 <= k <= self.q:
            raise InputError(f"class index {k} out of range")
        return GradedSeries.gen(self.spec, f"c{k}", trunc=self.weight)

    def elementary(self, k: int) -> GradedSeries:
        """k-th elementary symmetric polynomial of the roots."""
        check_ints({"k": k})
        if k == 0:
            return GradedSeries.unit(self.root_spec, 1, self.weight)
        if not 0 <= k <= self.q:
            raise InputError(f"elementary index {k} out of range")
        w = self.root_spec.width  # the roots are the last q slots
        terms = {tuple(int(i in picks) for i in range(w)): 1
                 for picks in combinations(range(w - self.q, w), k)}
        return GradedSeries(self.root_spec, terms, self.weight)

    # -- symmetry ----------------------------------------------------------

    def _swap_roots(self, series: GradedSeries, j: int) -> GradedSeries:
        i = self.root_spec.width - self.q + j  # the slot of root j
        return series._mapped(
            lambda k: (k[:i] + (k[i + 1], k[i]) + k[i + 2:], 1))

    def is_symmetric(self, series: GradedSeries) -> bool:
        return all(self._swap_roots(series, j) == series
                   for j in range(self.q - 1))

    # -- elementary reduction ----------------------------------------------

    def _dominant(self, series: GradedSeries) -> GradedSeries:
        """The terms whose root exponents are dominant (non-increasing)."""
        cut = self.root_spec.n + 1  # the roots follow the coefficients
        return series._mapped(lambda key: (key, 1) if all(
            map(operator.ge, key[cut:], key[cut + 1:])) else None)

    def _dominant_product(self, cexp: tuple) -> GradedSeries:
        """The dominant part of e_1^a1 ... e_q^aq, for cexp = (a1..aq).

        Built from the cached part with one factor e_i fewer, by the Pieri
        rule for monomial symmetric functions.  For b dominant, m_b * e_i
        sums m_g over the ways to raise i entries of b by one: k_v of the
        entries equal to v, for each value v, with g the sorted result.
        The coefficient of m_g is the product over v of C(c, k_v), c the
        count of entries v + 1 in g.
        """
        cache = self._dominant_products
        if cexp in cache:
            return cache[cexp]
        i = max(j for j, a in enumerate(cexp, start=1) if a)
        smaller = self._dominant_product(
            cexp[:i - 1] + (cexp[i - 1] - 1,) + cexp[i:])
        cut = self.root_spec.n + 1
        head = (0,) * cut
        out: dict[tuple, int] = {}
        for key, c in smaller.numerators[0].items():
            groups = [(v, len(tuple(g))) for v, g in groupby(key[cut:])]
            for ks in _raise_counts([m for _, m in groups], i):
                exps = []
                for (v, m), k in zip(groups, ks):
                    exps += [v + 1] * k + [v] * (m - k)
                coeff = c
                for (v, _), k in zip(groups, ks):
                    if k:
                        coeff *= comb(exps.count(v + 1), k)
                key2 = head + tuple(exps)
                out[key2] = out.get(key2, 0) + coeff
        cache[cexp] = GradedSeries(self.root_spec, out)
        return cache[cexp]

    def elementary_reduce(self, series: GradedSeries) -> GradedSeries:
        """Rewrite a symmetric root polynomial in the classes.

        Input lives over `root_spec`, output over `spec`.  Internal
        degree is preserved because |c_k| matches |e_k|.

        The Gauss descent runs on the dominant part of the residual only.
        A symmetric polynomial is zero iff its dominant part is, since
        every orbit of exponents holds a dominant one, and its largest
        exponent is dominant.  The step subtracts C * P, C the coefficient
        of the largest exponent and P a product of elementary polynomials;
        C has no root exponents, so the dominant projection commutes with
        C * P, and the dominant part of the new residual is the old one
        less C times the dominant part of P.
        """
        if series.spec != self.root_spec:
            raise InputError("series from a different context")
        if series.max_weight() > self.weight:
            raise InputError("input exceeds the context weight bound")
        if not self.is_symmetric(series):
            raise SymmetryError("input is not symmetric in the roots")
        cut = self.root_spec.n + 1  # the roots follow the coefficients
        zero_x = (0,) * self.q
        residual = self._dominant(series)
        out = GradedSeries.zero(self.spec, series.trunc)
        prev = None
        while residual:
            alpha = max(key[cut:] for key in residual.keys())
            if prev is not None and not alpha < prev:
                raise ReductionError("descent stalled")
            prev = alpha
            C = residual._mapped(lambda key: (key[:cut] + zero_x, 1)
                                 if key[cut:] == alpha else None)
            cexp = tuple(alpha[i] - (alpha[i + 1] if i + 1 < self.q else 0)
                         for i in range(self.q))
            out = out + C._mapped(lambda key: (key[:cut] + cexp, 1),
                                  self.spec)
            residual = residual - C * self._dominant_product(cexp)
        return out

    # -- conjugation ---------------------------------------------------------

    @cached_property
    def _conjugate_roots(self) -> tuple:
        return tuple(self.iota.evaluate_at(self.root(i))
                     for i in range(1, self.q + 1))

    def conjugate_root(self, i: int) -> GradedSeries:
        self.root(i)  # refuses an index out of range
        return self._conjugate_roots[i - 1]

    @cached_property
    def _conjugate_elementaries(self) -> list:
        """e_0..e_q of the conjugated roots, by one run of the standard DP."""
        P = [GradedSeries.unit(self.root_spec, 1, self.weight)]
        P += [GradedSeries.zero(self.root_spec, self.weight)] * self.q
        for i, xb in enumerate(self._conjugate_roots, start=1):
            for j in range(i, 0, -1):
                P[j] = P[j] + xb * P[j - 1]
        return P

    def conjugate_elementary(self, k: int) -> GradedSeries:
        """e_k of the conjugated roots."""
        if not 0 <= k <= self.q:
            raise InputError(f"elementary index {k} out of range")
        return self._conjugate_elementaries[k]

    def conjugate_chern(self, k: int) -> GradedSeries:
        """The conjugate k-th class, as a polynomial in the classes."""
        check_ints({"k": k})
        if not 1 <= k <= self.q:
            raise InputError(f"need at least {k} roots for class {k}")
        if self.weight < k:
            raise PrecisionError(f"weight bound {self.weight} cannot see "
                                 f"a weight-{k} class")
        if k not in self._conj_chern:
            self._conj_chern[k] = self.elementary_reduce(
                self.conjugate_elementary(k))
        return self._conj_chern[k]

    def conjugation_on_classes(self, series: GradedSeries) -> GradedSeries:
        """Extend conjugation multiplicatively to a polynomial in classes.

        Coefficients conjugate through the coefficient involution; each
        class c_k is replaced by its conjugate.
        """
        if series.spec != self.spec:
            raise InputError("series from a different context")
        out = GradedSeries.zero(self.spec, self.weight)
        classes = self.spec.classes
        zero = (0,) * self.q
        for key, coeff in series.terms.items():
            term = GradedSeries(self.spec, {key[:classes.start] + zero: coeff},
                                self.weight).conjugate()
            for j, e in enumerate(key[classes], start=1):
                if e:
                    term = term * self.conjugate_chern(j) ** e
            out = out + term
        return out

    def conjugation_defect_mod2(self, k: int) -> dict[int, GradedSeries]:
        """Weight profile of (conjugate class - class), coefficients mod 2."""
        defect = self.conjugate_chern(k) - self.chern_class(k)

        def mod2(c):
            if isinstance(c, (TwoLocal, int)):
                return TwoLocal(1) if val2(c) == 0 else TwoLocal(0)
            raise InputError(f"mod-2 profile needs 2-local coefficients, got {c!r}")

        profile = {}
        for w, part in defect.weight_parts().items():
            reduced = GradedSeries(self.spec, {k: mod2(c) for k, c
                                               in part.terms.items()},
                                   part.trunc)
            if reduced:
                profile[w] = reduced
        return profile


def thom_ratio(iota: UniSeries, k: int, weight: int) -> GradedSeries:
    """Conjugation ratio of the top class of a rank-2k bundle.

    Returns the ratio as a class polynomial, truncated at `weight`.  The
    defining identity ratio * e_2k(x) = e_2k(iota(x)) is recomputed at
    weight + 2k + 1 so every returned coefficient is pinned by it.
    """
    check_ints({"k": k, "weight": weight})
    if k < 1:
        raise InputError("k must be positive")
    if weight < 0:
        raise InputError("negative weight bound")
    q = 2 * k
    big = SymmetricContext(iota, q, weight + q + 1)
    ratio = GradedSeries.unit(big.root_spec, 1, big.weight - 1)
    for i in range(1, q + 1):
        xi_key = next(iter(big.root(i).keys()))
        u = big.conjugate_root(i).divide_by_key(xi_key)
        ratio = ratio * u
    if ratio.coefficient(big.root_spec.unit_key()) != 1:
        raise MathInvariantError("thom ratio constant term is not 1")
    if not big.is_symmetric(ratio):
        raise SymmetryError("thom ratio is not symmetric")
    lhs = ratio * big.elementary(q)
    rhs = big.conjugate_elementary(q).truncated(lhs.trunc)
    if lhs != rhs:
        raise MathInvariantError("thom ratio identity failed")
    return big.elementary_reduce(ratio).truncated(weight)


def _raise_counts(sizes: list, i: int):
    """Every tuple k with 0 <= k[j] <= sizes[j] and sum i: how many
    entries of each group of equal entries to raise."""
    if not sizes:
        if i == 0:
            yield ()
        return
    for k in range(min(i, sizes[0]) + 1):
        for rest in _raise_counts(sizes[1:], i - k):
            yield (k, *rest)
