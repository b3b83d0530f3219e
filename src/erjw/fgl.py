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

Since (k log u)^m = k^m log(u)^m term by term, [k](u) is a polynomial in
k: the sum of k^m T_m over the terms T_m = E_m log(u)^m of exp(log u), cut
at the precision.  Each law builds those terms once (composition is the
costly series operation) and answers every k from them; their value at
k = 1 is the check that exp inverts log, run before exp is first read.

Truncation at u^N is a ring map, so a law at precision p <= P has exactly
the truncations of the P-law's log, exp and terms.  Each height keeps one
record, (precision, log, exp, terms), of its checked build at the largest
precision so far (_height_store); any GroupLaw at or below that precision,
new or shared, reads truncations of it, and runs the k = 1 check on its own
terms.  A law above it, or at a height with nothing stored, builds as
before, and its record replaces the stored one once its check passes.  The
reference route is a build with an empty store: _height_store.cache_clear().

A series in one formal variable u is one GradedSeries over the bare spec
plus a root x1 = u, truncated at its precision: exact through that power
of u and unknown beyond it.  Its arithmetic is GradedSeries arithmetic, and
UniSeries.evaluate_at is the one substitution routine: compose uses it,
and a law's terms T_m are the per-power terms of its general loop,
UniSeries._power_terms.  Inside it, a monomial substitution (one term with
an int coefficient, such as a root or a class) is one key map,
GradedSeries._last_at_term; any other target is summed over its powers.
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


def _check_precision(precision: int) -> None:
    check_ints({"precision": precision})
    if precision < 0:
        raise InputError(f"negative precision {precision} in a power series")


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
        # an empty list would be a series of precision -1
        if not coeffs or not all(isinstance(c, GradedSeries)
                                 and c.spec == spec for c in coeffs):
            raise ValueError("coefficients must be one or more series over"
                             " the law's spec")
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
        _check_precision(precision)
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
        _check_precision(precision)
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
        for _, term in self._power_terms(at):
            acc = acc + term
        return acc

    def _power_terms(self, at: GradedSeries) -> tuple:
        """The pairs (m, c_m * at^m) for each nonzero coefficient c_m, in
        ascending m: the terms whose sum is this series at `at`, a target
        with weight-positive terms and a truncation bound.  PrecisionError
        if a power of `at` survives past this series' precision."""
        terms = []
        p = GradedSeries.unit(at.spec, 1, at.trunc)
        for m, c in enumerate(self.coeffs):
            if c:
                terms.append((m, c.extended_to(at.spec) * p))
            p = p * at
            if p.is_zero:
                return tuple(terms)
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
        """The process's one law at (n, precision), so its k-series and
        table carry across queries.  GroupLaw(...) makes a new law; like
        this one, it reads its log, exp and terms off the height's store
        when that holds a build at or above its precision.  The
        arguments are checked before the cache is read: True and 1.0 hash
        like 1, and would otherwise share or poison its entry.  The
        default precision is resolved before it too, so GroupLaw.of(2)
        is GroupLaw.of(2, 16); a bad n passes None on, for GroupLaw's own
        message."""
        _check_law_args(n, precision)
        if precision is None and n >= 1:
            precision = 2 ** (n + 2)
        return _law_of(n, precision)

    # -- logarithm and exponential (rational world) -----------------------

    @cached_property
    def _stored(self) -> tuple | None:
        """The stored build of this height that this law truncates, read
        once: (precision, log, exp, terms) at a precision >= this law's,
        or None when the law builds its own.  Truncation at u^N is a ring
        map, so the truncations are exactly what a build would give."""
        record = _height_store(self.n)[0]
        return record if record and record[0] >= self.precision else None

    @cached_property
    def _log(self) -> UniSeries:
        if self._stored:
            return self._stored[1].prefix(self.precision)
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
        if self._stored:
            return self._stored[2].prefix(self.precision)
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
        return UniSeries(spec, [z] + F)

    @cached_property
    def _exp_terms(self) -> tuple:
        """The pairs (m, E_m * log(u)^m), cut at u^N, whose sum is
        exp(log u); [k](u) is their sum weighted by k^m.  At k = 1 that
        sum must be u: the functional inverse really inverts, through the
        precision.  The check runs on this law's own terms, built or read
        off the store, and only a build that passes it is stored."""
        N, stored = self.precision, self._stored
        if stored:
            terms = tuple((m, t.truncated(N)) for m, t in stored[3] if m <= N)
        else:
            terms = self._exp._power_terms(self.log_series().series)
        if not (self._k_sum(terms, 1)
                - UniSeries.identity(self.spec, N)).is_zero():
            raise MathInvariantError("exp does not invert log")
        slot = _height_store(self.n)
        if not stored and not (slot[0] and slot[0][0] >= N):
            slot[0] = (N, self._log, self._exp, terms)
        return terms

    def _k_sum(self, terms: tuple, k: int) -> UniSeries:
        """The sum of k^m * term over the pairs (m, term), in ascending m:
        exp(k log u) from the terms of exp(log u)."""
        acc = GradedSeries.zero(_root_spec(self.spec), self.precision)
        for m, term in terms:
            acc = acc + term * k ** m
        return self.log_series()._with(acc)

    def exp_series(self) -> UniSeries:
        self._exp_terms  # every read of exp is checked
        return self._exp

    # -- one-variable series of the law -------------------------------------

    @cached_property
    def _k_by_log(self) -> dict:
        return {}

    def k_series(self, k: int) -> UniSeries:
        """[k](u) = exp(k*log(u)), in one variable; no law table is built.

        It is the sum of k^m * E_m * log(u)^m over the cached terms of
        exp(log u).  _LawBase.k_series(self, k) is the independent apply2
        route, and exp.compose(log.scale(k)) the substitution route.
        """
        check_ints({"k": k})
        cache = self._k_by_log
        if k not in cache:
            # exp and its checked terms are built inside exp_series, so
            # the bench tracer's fgl.exp_series span times them
            self.exp_series()
            cache[k] = _check_k_series(
                _to_two_local(self._k_sum(self._exp_terms, k)), k)
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


@lru_cache(maxsize=8)
def _height_store(n: int) -> list:
    """Height n's one slot: [(precision, log, exp, terms)] of the checked
    build at the largest precision so far, or [None] before any.  It keeps
    the record, not the law, so no law's k-series or table stays alive
    through it; a law at or below that precision reads truncations."""
    return [None]
