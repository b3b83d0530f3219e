"""Two-typical formal group law over a truncated 2-local coefficient ring.

The logarithm uses the Araki normalization: with l_0 = 1 and v_0 = 2,

    (2 - 2^(2^k)) l_k = sum over i+j = k, i >= 1 of  l_j * v_i^(2^j),

and generators above v_n are set to zero.  Logarithm and exponential live
over the rationals (their coefficients are genuinely non-integral, e.g.
l_1 = -v_1/2), but the group law F = exp(log x + log y), the formal
inverse, and every k-series must come out 2-locally integral; conversion
asserts that and raises IntegralityError otherwise.

GroupLaw computes [k](u) = exp(k log u) in one variable, the inverse
included ([-1](u)), and never needs the two-variable law table for it.
The table is built only on request; it carries the apply2 route
(_LawBase.k_series, iota_by_inversion, formal sums), which serves toy laws
and checks the one-variable route independently.

A series in one formal variable u is one GradedSeries over the bare spec
plus a root x1 = u, truncated at its precision: exact through that power
of u and unknown beyond it.  Its arithmetic is GradedSeries arithmetic, and
UniSeries.evaluate_at is the one substitution routine (compose uses it).
Inside it, a monomial substitution (one term with an int coefficient, such
as a root or a class) is one key map, GradedSeries._last_at_term; any other
target is summed over its powers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import (
    ConstantTermError,
    InputError,
    IntegralityError,
    MathInvariantError,
    NonUnitDivisionError,
    PrecisionError,
    check_ints,
)
from .graded import GradedSeries, GradingSpec
from .scalar2 import TwoLocal


def _to_two_local(series):
    """The series, a GradedSeries or a UniSeries, over Z_(2)."""
    if isinstance(series, UniSeries):
        return series._with(_to_two_local(series.series))
    try:
        return series.as_two_local()
    except NonUnitDivisionError as e:
        c = next(c for c in series.terms.values() if c.denominator % 2 == 0)
        raise IntegralityError(f"coefficient {c} is not 2-locally integral") from e


def _check_k_series(series: UniSeries, k: int) -> UniSeries:
    """Cheap invariants of a standard-grading [k](u), raised on failure.

    No constant term, leading term k*u, and every u^m coefficient
    homogeneous of degree 2 - 2m (the law is homogeneous of degree 2).
    """
    if series.coeffs[0]:
        raise MathInvariantError(f"[{k}](u) has a constant term")
    if series.coeffs[1] != GradedSeries.unit(series.spec, TwoLocal(k)):
        raise MathInvariantError(f"[{k}](u) does not start with {k}u")
    for m, c in enumerate(series.coeffs):
        if not c.degrees() <= {2 - 2 * m}:
            raise MathInvariantError(f"[{k}](u) coefficient of u^{m} off-degree")
    return series


@lru_cache(maxsize=16)
def _root_spec(spec: GradingSpec) -> GradingSpec:
    """The spec of a UniSeries' one series: spec plus one root x1 = u."""
    if spec.q or spec.roots:
        # class weight would mix with the u exponent under truncation
        raise InputError("a one-variable series needs a spec without "
                         "classes or roots")
    return GradingSpec(spec.n, roots=1, alphabet=spec.alphabet)


class UniSeries:
    """Truncated power series in one variable over a coefficient ring.

    It is one GradedSeries `series` over `_root_spec(spec)`, truncated at
    the precision: the key of u^m times a coefficient term is that term's
    key followed by m, the exponent of the one root.
    """

    __slots__ = ("spec", "series", "_coeffs")

    def __init__(self, spec: GradingSpec, coeffs):
        coeffs = tuple(coeffs)
        root_spec = _root_spec(spec)
        if not all(isinstance(c, GradedSeries) and c.spec == spec
                   for c in coeffs):
            raise ValueError("coefficients must be series over the law's spec")
        self.spec = spec
        self.series = GradedSeries._stack_last(root_spec, coeffs,
                                               len(coeffs) - 1)
        self._coeffs = coeffs

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, spec, precision: int):
        return cls.from_terms(spec, {}, precision)

    @classmethod
    def identity(cls, spec, precision: int):
        return cls.from_terms(spec, {1: 1}, precision)

    @classmethod
    def from_terms(cls, spec, terms: dict, precision: int):
        check_ints({"precision": precision})
        z = GradedSeries.zero(spec)
        coeffs = [z] * (precision + 1)
        for m, c in terms.items():
            check_ints({"exponent": m})
            if m < 0:
                raise InputError(f"negative exponent {m} in a power series")
            if not isinstance(c, GradedSeries):
                c = GradedSeries.unit(spec, c)
            if m <= precision:
                coeffs[m] = coeffs[m] + c
        return cls(spec, coeffs)

    # -- basics ----------------------------------------------------------

    @property
    def precision(self) -> int:
        return self.series.trunc

    def __len__(self):
        return self.series.trunc + 1

    @property
    def coeffs(self) -> tuple:
        """The coefficient of each power of u, split off on first use."""
        if self._coeffs is None:
            self._coeffs = self.series._split_last(self.spec, len(self))
        return self._coeffs

    def __getitem__(self, m: int) -> GradedSeries:
        return self.coeffs[m]

    def order(self):
        return min((key[-1] for key in self.series.keys()), default=None)

    def is_zero(self) -> bool:
        return self.series.is_zero

    def __eq__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        # GradedSeries equality ignores trunc, which holds the precision
        return (self.precision == other.precision
                and self.series == other.series)

    def __repr__(self):
        parts = [f"({c})*u^{m}" for m, c in enumerate(self.coeffs) if c]
        return "UniSeries(" + (" + ".join(parts) or "0") + ")"

    def prefix(self, precision: int) -> "UniSeries":
        if precision >= self.precision:
            return self
        return self._with(self.series.truncated(precision))

    # -- arithmetic: one GradedSeries operation each -------------------------

    def _with(self, series: GradedSeries, spec=None) -> "UniSeries":
        out = object.__new__(UniSeries)
        out.spec, out.series, out._coeffs = spec or self.spec, series, None
        return out

    def __add__(self, other):
        return self._with(self.series + other.series)

    def __sub__(self, other):
        return self._with(self.series - other.series)

    def __neg__(self):
        return self._with(-self.series)

    def scale(self, factor) -> "UniSeries":
        """Multiply every coefficient by a coefficient-ring element."""
        if isinstance(factor, GradedSeries):
            factor = factor.extended_to(self.series.spec)
        return self._with(self.series * factor)

    def __mul__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        return self._with(self.series * other.series)

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return self._with(self.series ** e)

    def compose(self, inner: "UniSeries") -> "UniSeries":
        """self evaluated at inner(u); inner must have zero constant term."""
        if inner.spec != self.spec:
            raise ValueError("spec mismatch")
        if inner.order() == 0:
            raise ConstantTermError("inner series has a constant term")
        # truncating inner truncates the answer: powers of inner past its
        # precision vanish, so self needs no prefix of its own
        n = min(self.precision, inner.precision)
        return self._with(self.evaluate_at(inner.prefix(n).series))

    # -- bridges to the graded world --------------------------------------

    def regrade_to_hat(self) -> "UniSeries":
        return self._with(self.series.regrade_to_hat(),
                          GradingSpec(self.spec.n, alphabet="hat"))

    def evaluate_at(self, at: GradedSeries) -> GradedSeries:
        """Substitute a weight-positive truncated series for the variable.

        Every term of `at` must have weight >= 1 and `at` must carry a
        truncation bound, so powers die out; if they survive past this
        series' precision the answer would be wrong and PrecisionError
        is raised instead.  A one-term target with an int coefficient (a
        root, a class) is one key map: u^e goes to the e-th power of the
        term, cut at the bound.  Any other target is summed over its
        powers.
        """
        if at.trunc is None:
            raise PrecisionError("substitution target carries no truncation bound")
        wof = at.spec.weight_of
        if any(wof(k) < 1 for k in at.keys()):
            raise ConstantTermError("substitution target has weight-0 content")
        if len(at.keys()) == 1:
            (key, coeff), = at.terms.items()
            if type(coeff) is int:
                if (self.precision + 1) * wof(key) <= at.trunc:
                    raise PrecisionError(
                        f"need powers beyond u^{self.precision} to honor"
                        f" trunc={at.trunc}")
                return self.series._last_at_term(at.spec, key, coeff,
                                                 at.trunc)
        acc = GradedSeries.zero(at.spec, at.trunc)
        p = GradedSeries.unit(at.spec, 1, at.trunc)
        for k, c in enumerate(self.coeffs):
            if c:
                acc = acc + c.extended_to(at.spec) * p
            p = p * at
            if p.is_zero:
                return acc
        raise PrecisionError(
            f"need powers beyond u^{self.precision} to honor trunc={at.trunc}")


class _LawBase:
    """Shared machinery for anything that exposes a law table F_{ij}."""

    spec: GradingSpec
    precision: int

    def law_table(self) -> dict:
        raise NotImplementedError

    def _check_table(self, table: dict) -> dict:
        one = GradedSeries.unit(self.spec, 1)
        if table.get((0, 0)):
            raise MathInvariantError("law has a constant term")
        if table.get((1, 0)) != one or table.get((0, 1)) != one:
            raise MathInvariantError("law is not normalized: F(x,0) != x")
        for (i, j), c in table.items():
            if table.get((j, i), GradedSeries.zero(self.spec)) != c:
                raise MathInvariantError(f"law not commutative at {(i, j)}")
        return table

    def apply2(self, a: UniSeries, b: UniSeries) -> UniSeries:
        """F(a(u), b(u)) for series with zero constant term, at the
        smallest precision of a, b and the law table."""
        if 0 in (a.order(), b.order()):
            raise ConstantTermError("apply2 needs order >= 1 on both inputs")
        n = min(len(a), len(b), self.precision + 1) - 1
        out = UniSeries.zero(self.spec, n)
        apow: dict[int, UniSeries] = {0: UniSeries.from_terms(self.spec, {0: 1}, n)}
        bpow: dict[int, UniSeries] = {0: UniSeries.from_terms(self.spec, {0: 1}, n)}

        def power(cache, base, e):
            while e not in cache:
                top = max(cache)
                cache[top + 1] = cache[top] * base
            return cache[e]

        for (i, j), c in sorted(self.law_table().items()):
            if i + j > n:
                continue
            term = power(apow, a.prefix(n), i) * power(bpow, b.prefix(n), j)
            out = out + term.scale(c)
        return out

    def formal_sum(self, parts) -> UniSeries:
        parts = list(parts)
        if not parts:
            raise ValueError("empty formal sum")
        acc = parts[0]
        for p in parts[1:]:
            acc = self.apply2(acc, p)
        return acc

    def iota_by_inversion(self) -> UniSeries:
        """Formal inverse solved degree by degree from F(u, inverse) = 0."""
        n = self.precision
        ident = UniSeries.identity(self.spec, n)
        inv = UniSeries.from_terms(self.spec, {1: -1}, n)
        for m in range(2, n + 1):
            g = self.apply2(ident, inv)[m]
            if g:
                inv = inv - UniSeries.from_terms(self.spec, {m: g}, n)
        check = self.apply2(ident, inv)
        if not check.is_zero():
            raise MathInvariantError("formal inverse failed to invert")
        return inv

    @cached_property
    def _iota(self) -> UniSeries:
        return self.iota_by_inversion()

    def iota(self) -> UniSeries:
        return self._iota

    @cached_property
    def _k_cache(self) -> dict:
        return {0: UniSeries.zero(self.spec, self.precision),
                1: UniSeries.identity(self.spec, self.precision)}

    def k_series(self, k: int) -> UniSeries:
        """The k-fold formal sum of the identity, for any integer k.

        This is the apply2 route over the law table; the recursion stays on
        it even where a subclass overrides k_series, so calling
        _LawBase.k_series(law, k) gives an independent check.
        """
        cache = self._k_cache
        if k not in cache:
            if k < 0:
                cache[k] = self.iota().compose(_LawBase.k_series(self, -k))
            elif k & 1:
                cache[k] = self.apply2(_LawBase.k_series(self, k - 1),
                                       cache[1])
            else:
                half = _LawBase.k_series(self, k // 2)
                cache[k] = self.apply2(half, half)
        return cache[k]


class ToyLaw(_LawBase):
    """Hand-specified law table, for exercising consumers of the interface."""

    def __init__(self, spec: GradingSpec, entries: dict, precision: int):
        self.spec = spec
        self.precision = precision
        table = {}
        for (i, j), c in entries.items():
            if not isinstance(c, GradedSeries):
                c = GradedSeries.unit(spec, c)
            if c:
                table[(i, j)] = c
        self._table = self._check_table(table)

    def law_table(self) -> dict:
        return self._table


def additive_law(spec: GradingSpec, precision: int) -> ToyLaw:
    return ToyLaw(spec, {(1, 0): 1, (0, 1): 1}, precision)


class GroupLaw(_LawBase):
    """The Araki-normalized law with generators truncated above v_n."""

    def __init__(self, n: int, precision: int | None = None):
        _check_law_args(n, precision)
        if n < 1:
            raise InputError("n must be at least 1")
        self.n = n
        self.precision = precision if precision is not None else 2 ** (n + 2)
        if self.precision < 2:
            raise InputError("precision below 2 carries no law content")
        self.spec = GradingSpec(n, alphabet="standard")

    @staticmethod
    def of(n: int, precision: int | None = None) -> "GroupLaw":
        """The process's one law at (n, precision), so its cached series
        carry across queries; GroupLaw(...) stays the fresh route.  The
        arguments are checked before the cache is read: True and 1.0 hash
        like 1, and would otherwise share or poison its entry."""
        _check_law_args(n, precision)
        return _law_of(n, precision)

    # -- logarithm and exponential (rational world) -----------------------

    @cached_property
    def _log(self) -> UniSeries:
        spec, N = self.spec, self.precision
        lk = [GradedSeries.unit(spec, Fraction(1))]
        k = 1
        while 2 ** k <= N:
            acc = GradedSeries.zero(spec)
            for j in range(k):
                i = k - j
                if i > self.n:
                    continue
                vi = GradedSeries.gen(spec, f"v{i}", exp=2 ** j, coeff=Fraction(1))
                acc = acc + lk[j] * vi
            lk.append(acc * Fraction(1, 2 - 2 ** (2 ** k)))
            k += 1
        return UniSeries.from_terms(
            spec, {2 ** j: c for j, c in enumerate(lk)}, N)

    def log_series(self) -> UniSeries:
        return self._log

    @cached_property
    def _exp(self) -> UniSeries:
        """The functional inverse of log, one coefficient at a time.

        Write exp(u) = u*F(u).  From log(exp(u)) = u, the coefficient of u^m
        is E_m = -sum over a = 2^k in 2..m of l_k [F^a]_(m-a), which needs F
        only through F_(m-2) = E_(m-1).  Each power G = F^a gains one
        coefficient per step by J. C. P. Miller's recurrence
        i*G_i = sum over j = 1..i of ((a+1)*j - i) * F_j * G_(i-j).
        """
        spec, N = self.spec, self.precision
        log = self.log_series()
        z = GradedSeries.zero(spec)
        one = GradedSeries.unit(spec, Fraction(1))
        F = [one]
        powers: dict[int, list[GradedSeries]] = {}
        for m in range(2, N + 1):
            c = z
            a = 2
            while a <= m:
                lc = log[a]
                if lc:
                    G = powers.setdefault(a, [one])
                    i = m - a
                    while len(G) <= i:
                        t = len(G)
                        acc = z
                        for j in range(1, t + 1):
                            w = (a + 1) * j - t
                            if w and F[j] and G[t - j]:
                                acc = acc + (F[j] * w) * G[t - j]
                        G.append(acc * Fraction(1, t))
                    c = c + lc * G[i]
                a *= 2
            F.append(-c)
        exp = UniSeries(spec, [z] + F)
        # functional inverse really inverts, through the precision
        if not (exp.compose(log) - UniSeries.identity(spec, N)).is_zero():
            raise MathInvariantError("exp does not invert log")
        return exp

    def exp_series(self) -> UniSeries:
        return self._exp

    # -- one-variable series of the law -------------------------------------

    @cached_property
    def _k_by_log(self) -> dict:
        return {}

    def k_series(self, k: int) -> UniSeries:
        """[k](u) = exp(k*log(u)), in one variable; no law table is built.

        _LawBase.k_series(self, k) is the independent apply2 route.
        """
        check_ints({"k": k})
        cache = self._k_by_log
        if k not in cache:
            inner = self.log_series().scale(Fraction(k))
            cache[k] = _check_k_series(
                _to_two_local(self.exp_series().compose(inner)), k)
        return cache[k]

    # [-1](u) from the logarithm; _LawBase.iota is the inversion route
    def iota(self) -> UniSeries:
        return self.k_series(-1)

    # -- the law itself ----------------------------------------------------

    @cached_property
    def _table(self) -> dict:
        N = self.precision
        spec2 = GradingSpec(self.n, q=0, roots=2, alphabet="standard")
        x1, x2 = (GradedSeries.gen(spec2, s, trunc=N) for s in ("x1", "x2"))
        log = self.log_series()
        S = _to_two_local(self.exp_series().evaluate_at(
            log.evaluate_at(x1) + log.evaluate_at(x2)))
        # split off the exponent j of x2, then the exponent i of x1
        table = {(i, j): entry
                 for j, part in enumerate(S._split_last(_root_spec(self.spec),
                                                        N + 1))
                 for i, entry in enumerate(part._split_last(self.spec, N + 1))
                 if entry}
        self._check_table(table)
        lam_like = 2  # standard grading: the law is homogeneous in degree 2
        for (i, j), entry in table.items():
            if entry.internal_degree() != lam_like - 2 * (i + j):
                raise MathInvariantError(f"law coefficient {(i, j)} off-degree")
        return table

    def law_table(self) -> dict:
        return self._table

    # -- hat-alphabet views -------------------------------------------------

    def hat_iota(self) -> UniSeries:
        return self.hat_k_series(-1)

    @cached_property
    def _hat_k(self) -> dict:
        return {}

    def hat_k_series(self, k: int) -> UniSeries:
        check_ints({"k": k})
        if k not in self._hat_k:
            self._hat_k[k] = self.k_series(k).regrade_to_hat()
        return self._hat_k[k]

    # -- the defining identity, checked through an independent route --------

    def two_series_via_formal_sum(self) -> UniSeries:
        """Formal sum of v_i u^(2^i) with v_0 = 2, computed term by term."""
        parts = [UniSeries.from_terms(self.spec, {1: 2}, self.precision)]
        for i in range(1, self.n + 1):
            if 2 ** i > self.precision:
                break
            vi = GradedSeries.gen(self.spec, f"v{i}", coeff=TwoLocal(1))
            parts.append(UniSeries.from_terms(
                self.spec, {2 ** i: vi}, self.precision))
        return self.formal_sum(parts)

    def araki_identity_holds(self) -> bool:
        return self.k_series(2) == self.two_series_via_formal_sum()


def _check_law_args(n: int, precision: int | None) -> None:
    check_ints({"n": n} if precision is None
               else {"n": n, "precision": precision})


@lru_cache(maxsize=32)
def _law_of(n: int, precision: int | None) -> GroupLaw:
    return GroupLaw(n, precision)
