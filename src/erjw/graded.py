"""Graded multivariate Laurent series with weight truncation.

A monomial key is one flat tuple of int exponents, laid out by the
GradingSpec, which owns that layout:

  index              slot    exponent of
  0                  y       the filtration class y (degree 0, filtration 1)
  1 .. n-1           vh_k    the lower coefficient generator k, at index k
  n                  vn      the top generator (the only Laurent slot)
  spec.classes       c_k     the q characteristic classes
  last `roots`       x_i     the formal roots

Every slot group has a fixed length within a spec, so keys sort exactly
as the nested groups would.  A product of monomials adds keys slotwise;
a quotient subtracts them, and only vn may go negative.

Two alphabets share this layout.  The "standard" one grades like a complex
oriented theory (|v_k| = -2(2^k-1), roots in degree 2, classes in degree
2k).  The "hat" one rescales everything by (1-L)/2 where L is the period
constant, and represents the top hat generator through a vn power: an
exponent e on the hat side is stored as vn exponent -e*P with
P = 2^(n+1) * (2^(n-1)-1).  For n = 1 that offset is 0, so the top hat
generator collapses to 1 on its own; regrading merges the affected keys.

Weight counts only classes and roots: weight(c_k) = k, weight(x_i) = 1.
A series may carry a truncation bound; terms above it are dropped on
construction and during arithmetic, and products combine bounds by min.

A series stores its coefficients as one int numerator per key over one
shared positive denominator, in lowest terms: the gcd of the denominator
and every numerator is 1, so the denominator is the lcm of the
coefficients' own and equal series store equal ints.  Beside them it
keeps the coefficient kind: int, TwoLocal (the 2-local world; the
denominator is odd) or Fraction (inside logarithm computations).
Products and sums work on those ints, and so does every key map, through
the one primitive `GradedSeries._mapped`: here truncation, homogeneous
parts, conjugation, widening, regrading, the monomial shifts
`times_key` and `divide_by_key`, and `_last_at_term`, the monomial
substitution of fgl.UniSeries.evaluate_at; outside, bss.apply_differential,
HatDecomposition.recombine, SymmetricContext._swap_roots and
SymmetricContext.elementary_reduce, whose class terms are a key map from
the root spec into the class spec.  Class-ring lattice rows are stencil
shifts (bss.DegreeColumns.lattice_rows compiles each relation once from
`numerators` and shifts its keys), and every other monomial multiple
(relation multiples in boring.reduce, the window check's image rows) is
times_key, which cuts at the weight bound where the one-term product
would; the general product is the only product of two series.  Coefficient objects are built only where they
are read: `terms`, a read-only view built on first read, `coefficient`
and `str`.  An int coefficient widens to either field, so a sum of int
and TwoLocal series has TwoLocal coefficients, and a series with no
terms has kind int.  Mixing TwoLocal and Fraction raises TypeError, on
purpose.
"""

from __future__ import annotations

import ast
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from math import gcd, lcm
from types import MappingProxyType
from typing import Callable

from .errors import (InputError, MathInvariantError, NonUnitDivisionError,
                     Record, check_ints)
from .scalar2 import TwoLocal


class GradingSpec(Record):
    """Slot layout of a graded series: height n, q classes, `roots` roots,
    and the alphabet of the coefficient generators.  Its field tuple and
    hash are kept from construction: caches key on the spec."""

    _fields = ("n", "q", "roots", "alphabet")

    def __init__(self, n: int, q: int = 0, roots: int = 0,
                 alphabet: str = "hat"):
        check_ints({"n": n, "q": q, "roots": roots})
        if n < 1:
            raise InputError("n must be at least 1")
        if q < 0 or roots < 0:
            raise InputError("negative slot counts")
        if alphabet not in ("hat", "standard"):
            raise InputError(f"unknown alphabet {alphabet!r}")
        key = (n, q, roots, alphabet)
        # by hand, not _fill: specs are built on every call
        set_ = object.__setattr__
        set_(self, "n", n)
        set_(self, "q", q)
        set_(self, "roots", roots)
        set_(self, "alphabet", alphabet)
        set_(self, "_key", key)
        set_(self, "_hash", hash(key))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    @cached_property
    def lam(self) -> int:
        """Period constant: 2^(2n+1) - 2^(n+2) + 1."""
        return 2 ** (2 * self.n + 1) - 2 ** (self.n + 2) + 1

    @cached_property
    def hat_offset(self) -> int:
        """P = 2^(n+1) * (2^(n-1) - 1); the top hat generator is vn^-P."""
        return 2 ** (self.n + 1) * (2 ** (self.n - 1) - 1)

    @cached_property
    def width(self) -> int:
        return self.n + 1 + self.q + self.roots

    @cached_property
    def classes(self) -> slice:
        """The slots of c_1..c_q; the roots fill the rest of a key."""
        return slice(self.n + 1, self.n + 1 + self.q)

    @cached_property
    def slot_names(self) -> tuple:
        """The printed name of each slot, in key order."""
        if self.alphabet == "hat":
            gens = [f"vh{k}" for k in range(1, self.n)] + ["vn"]
        else:
            gens = [f"v{k}" for k in range(1, self.n + 1)]
        return ("y", *gens, *(f"c{k}" for k in range(1, self.q + 1)),
                *(f"x{i}" for i in range(1, self.roots + 1)))

    def slot_of(self, name) -> int | None:
        """The key index of a variable, or None for any other name."""
        names = self.slot_names
        return names.index(name) if name in names else None

    def unit_key(self) -> tuple:
        return (0,) * self.width

    def quotient(self, key, by) -> tuple | None:
        """key / by slotwise, or None where a slot other than vn would go
        negative: vn is the one invertible generator."""
        quot = tuple(map(operator.sub, key, by))
        n = self.n
        return None if min(quot[:n] + quot[n + 1:]) < 0 else quot

    def validate_key(self, key) -> None:
        if len(key) != self.width:
            raise ValueError(f"key shape {key} does not fit {self}")
        if not all(isinstance(e, int) for e in key):
            raise TypeError(f"bad exponent types in {key}")
        if self.quotient(key, self.unit_key()) is None:
            raise ValueError(f"negative exponent off the vn slot in {key}")

    @cached_property
    def degrees(self) -> tuple:
        """The degree of each slot: none for y, the standard ones scaled
        by (1-L)/2 in the hat alphabet, except vn."""
        s = (1 - self.lam) // 2 if self.alphabet == "hat" else 1
        return (0, *(-2 * (2 ** k - 1) * s for k in range(1, self.n)),
                -2 * (2 ** self.n - 1),
                *(2 * k * s for k in range(1, self.q + 1)),
                *(2 * s,) * self.roots)

    @cached_property
    def weights(self) -> tuple:
        """The weight of each slot: k for c_k, 1 for a root, else 0."""
        return ((0,) * (self.n + 1) + tuple(range(1, self.q + 1))
                + (1,) * self.roots)

    def degree_of(self, key) -> int:
        """Internal degree; y contributes nothing."""
        return sum(map(operator.mul, self.degrees, key))

    def hat_residue(self, e: int) -> int:
        """A vn exponent modulo P, zero exactly on the hat lattice; at
        n = 1 (P = 0) every exponent is its own residue."""
        P = self.hat_offset
        return e % P if P else e

    def hat_degrees(self, lo: int, hi: int) -> range:
        """The hat-lattice degrees in [lo, hi]: multiples of L - 1, which
        at n = 1 is 0, leaving degree 0 alone."""
        lam1 = self.lam - 1
        if lam1 == 0:
            return range(max(lo, 0), min(hi, 0) + 1)
        return range(-(-lo // lam1) * lam1, hi + 1, lam1)

    def weight_of(self, key) -> int:
        return sum(map(operator.mul, self.weights, key))

    def total_of(self, key) -> int:
        """Chart column: internal degree minus y * lambda."""
        return self.degree_of(key) - key[0] * self.lam


# bounded: one table per (spec, caps, weight); a page chart reads one, a
# class-ring workload about fifteen
@lru_cache(maxsize=64)
def _residue_table(spec: GradingSpec, caps: int, weight: int) -> dict:
    """The capped vhat/class box, walked once: {d mod |vn|: entries}.

    Each entry (d, head, tail) is one point y^0 vhat^a c^e of the box,
    with head = (0, *a), tail = e and d its degree, the part of a degree
    that vn does not supply.  Entries are in (a, d, e) order, which is
    key order for any one D: b = (D - d) / deg(vn) grows with d, since
    deg(vn) < 0.
    """
    wn = spec.degrees[spec.n]
    heads = [(0, *a) for a in iter_product(range(caps + 1),
                                            repeat=spec.n - 1)]
    points = []
    for e in iter_product(*(range(weight // k + 1)
                            for k in range(1, spec.q + 1))):
        if sum(k * ek for k, ek in enumerate(e, start=1)) > weight:
            continue
        points += [(head, spec.degree_of((*head, 0, *e)), e) for head in heads]
    table: dict[int, list] = {}
    for head, d, e in sorted(points):
        table.setdefault(d % wn, []).append((d, head, e))
    return {res: tuple(entries) for res, entries in table.items()}


# bounded: one three-engine page chart asks for a few thousand degrees
@lru_cache(maxsize=1 << 13)
def degree_basis(spec: GradingSpec, D: int, caps: int, weight: int = 0,
                 hat_lattice: bool = False) -> tuple:
    """Sorted keys y^0 vhat^a vn^b c^e of internal degree D.

    Every vhat exponent is at most `caps`, which may not be negative, and
    the class weight at most `weight`; the vn exponent b is whatever the
    degree forces.  With `hat_lattice` only vn powers of the top hat
    generator count: b must be a multiple of P, which at n = 1 (P = 0)
    means b = 0.

    The box of vhat and class exponents is walked once per (spec, caps,
    weight) into a residue table (`_residue_table`); a degree reads only
    the points whose degree d agrees with D modulo |vn|, each with
    b = (D - d) / deg(vn).
    """
    if spec.alphabet != "hat" or spec.roots:
        raise InputError("degree bases live over the hat class ring")
    if caps < 0:
        raise InputError("negative caps")
    wn = spec.degrees[spec.n]
    out = []
    for d, head, tail in _residue_table(spec, caps, weight).get(D % wn, ()):
        b = (D - d) // wn
        if hat_lattice and spec.hat_residue(b):
            continue
        out.append((*head, b, *tail))
    return tuple(out)


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


_SCALARS = (int, TwoLocal, Fraction)
_OWN = object()  # GradedSeries._mapped: keep the series' own trunc


def _split(c) -> tuple:
    """(numerator, denominator, kind) of one coefficient, reduced."""
    t = type(c)
    if t is TwoLocal:
        return c.num, c.den, TwoLocal
    if t is int:
        return c, 1, int
    if isinstance(c, Fraction):
        return c.numerator, c.denominator, Fraction
    if isinstance(c, int):
        return int(c), 1, int
    raise TypeError(f"unsupported coefficient {c!r}")


def _join(a: type, b: type) -> type:
    """The kind of a result built from kinds a and b: int widens to either
    field, and TwoLocal and Fraction do not mix."""
    if a is b or b is int:
        return a
    if a is int:
        return b
    raise TypeError(f"cannot mix {a.__name__} and {b.__name__} coefficients")


class GradedSeries:
    """Finitely supported series over a GradingSpec, optionally truncated.

    Stored as `_nums` {key: int numerator} over one positive `_den`, with
    gcd(_den, every numerator) == 1, and the coefficient `_kind`; no
    numerator is zero, and the zero series has kind int and den 1.
    """

    __slots__ = ("spec", "trunc", "_nums", "_den", "_kind", "_terms")

    def __init__(self, spec: GradingSpec, terms=None, trunc: int | None = None):
        # den is the lcm of the coefficients' own, so the form is reduced
        nums, den, kind = {}, 1, int
        if terms:
            for key, coeff in terms.items():
                num, d, k = _split(coeff)
                if not num:
                    continue
                spec.validate_key(key)
                if trunc is not None and spec.weight_of(key) > trunc:
                    continue
                if k is not kind:
                    kind = _join(kind, k)
                if den % d:
                    m = lcm(den, d) // den
                    nums = {t: v * m for t, v in nums.items()}
                    den *= m
                nums[key] = num if d == den else num * (den // d)
        self.spec = spec
        self.trunc = trunc
        self._nums, self._den, self._kind = nums, den, kind
        self._terms = None

    @classmethod
    def _raw(cls, spec, nums, den, kind, trunc):
        # caller guarantees: no zero numerator, den > 0, gcd(den, nums) == 1
        self = object.__new__(cls)
        self.spec = spec
        self.trunc = trunc
        if nums:
            self._nums, self._den, self._kind = nums, den, kind
        else:
            self._nums, self._den, self._kind = nums, 1, int
        self._terms = None
        return self

    @classmethod
    def _reduced(cls, spec, nums, den, kind, trunc):
        """_raw after dividing den and the numerators by their gcd."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {k: v // g for k, v in nums.items()}
        return cls._raw(spec, nums, den, kind, trunc)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, spec, trunc=None):
        return cls._raw(spec, {}, 1, int, trunc)

    @classmethod
    def unit(cls, spec, coeff=1, trunc=None):
        num, den, kind = _split(coeff)
        if not num:
            return cls.zero(spec, trunc)
        return cls._raw(spec, {spec.unit_key(): num}, den, kind, trunc)

    @classmethod
    def monomial(cls, spec, coeff=1, y=0, vh=None, vn=0, c=None, x=None, trunc=None):
        groups = []
        for group, size in ((vh, spec.n - 1), (c, spec.q), (x, spec.roots)):
            group = (0,) * size if group is None else tuple(group)
            if len(group) != size:
                raise ValueError(f"slot group {group} does not fit {spec}")
            groups.append(group)
        vh, c, x = groups
        return cls(spec, {(y, *vh, vn, *c, *x): coeff}, trunc)

    @classmethod
    def gen(cls, spec, name: str, exp: int = 1, coeff=1, trunc=None):
        """Single generator to a power, looked up by its printed name."""
        slot = spec.slot_of(name)
        if slot is None:
            raise ValueError(f"{name!r} is not a variable of {spec}")
        key = [0] * spec.width
        key[slot] = exp
        return cls(spec, {tuple(key): coeff}, trunc)

    # -- basic protocol -------------------------------------------------

    def __bool__(self):
        return bool(self._nums)

    @property
    def is_zero(self):
        return not self._nums

    def keys(self):
        """The monomials with a nonzero coefficient, in term order."""
        return self._nums.keys()

    @property
    def numerators(self) -> tuple:
        """(a read-only {key: int numerator} view, the shared denominator)"""
        return MappingProxyType(self._nums), self._den

    @property
    def terms(self):
        """A read-only {key: coefficient} view, built on first read."""
        view = self._terms
        if view is None:
            nums, den, kind = self._nums, self._den, self._kind
            if kind is int:
                view = nums
            elif den == 1 and kind is TwoLocal:
                raw = TwoLocal._raw
                view = {k: raw(v, 1) for k, v in nums.items()}
            else:
                value = self._value
                view = {k: value(v) for k, v in nums.items()}
            view = self._terms = MappingProxyType(view)
        return view

    def _value(self, num: int):
        """The coefficient whose numerator over self._den is num."""
        kind, den = self._kind, self._den
        if kind is int:
            return num
        if kind is Fraction:
            return Fraction(num, den)
        if den == 1:
            return TwoLocal._raw(num, 1)
        g = gcd(num, den)
        return TwoLocal._raw(num // g, den // g)

    def __eq__(self, other):
        # truncation bounds are bookkeeping, not content; the reduced
        # form is canonical, and TwoLocal never equals a Fraction
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (self.spec == other.spec and self._den == other._den
                and self._nums == other._nums
                and (self._kind is other._kind
                     or int in (self._kind, other._kind)))

    def __repr__(self):
        return f"GradedSeries({self})"

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def coefficient(self, key):
        self.spec.validate_key(key)
        num = self._nums.get(key)
        return 0 if num is None else self._value(num)

    def as_two_local(self) -> "GradedSeries":
        """The same values as TwoLocal coefficients; NonUnitDivisionError
        if one has an even denominator."""
        if self._den & 1 == 0:
            raise NonUnitDivisionError(
                f"a denominator of {self} is not 2-locally integral")
        return GradedSeries._raw(self.spec, self._nums, self._den, TwoLocal,
                                 self.trunc)

    # -- arithmetic -----------------------------------------------------

    def _check_spec(self, other):
        if self.spec != other.spec:
            raise ValueError(f"spec mismatch: {self.spec} vs {other.spec}")

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = GradedSeries.unit(self.spec, other)
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._check_spec(other)
        kind = _join(self._kind, other._kind)
        tr = _min_trunc(self.trunc, other.trunc)
        d1, d2 = self._den, other._den
        if d1 == d2:
            den, out, right = d1, dict(self._nums), other._nums.items()
        else:
            den = lcm(d1, d2)
            s1, s2 = den // d1, den // d2
            out = {k: v * s1 for k, v in self._nums.items()} if s1 != 1 \
                else dict(self._nums)
            right = [(k, v * s2) for k, v in other._nums.items()]
        for key, num in right:
            s = out.get(key, 0) + num
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        if tr is not None and (self.trunc != tr or other.trunc != tr):
            wof = self.spec.weight_of
            out = {k: v for k, v in out.items() if wof(k) <= tr}
        return GradedSeries._reduced(self.spec, out, den, kind, tr)

    __radd__ = __add__

    def __neg__(self):
        return GradedSeries._raw(self.spec, {k: -v for k, v in self._nums.items()},
                                 self._den, self._kind, self.trunc)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = GradedSeries.unit(self.spec, other)
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            num, den, kind = _split(other)
            if not num:
                return GradedSeries.zero(self.spec, self.trunc)
            return GradedSeries._reduced(
                self.spec, {k: v * num for k, v in self._nums.items()},
                self._den * den, _join(self._kind, kind), self.trunc)
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._check_spec(other)
        kind = _join(self._kind, other._kind)
        tr = _min_trunc(self.trunc, other.trunc)
        out = {}
        add = operator.add
        right = other._nums
        if tr is None:
            for k1, c1 in self._nums.items():
                for k2, c2 in right.items():
                    key = tuple(map(add, k1, k2))
                    s = out.get(key, 0) + c1 * c2
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        else:
            # sort one factor by weight so each inner loop can stop early
            wof = self.spec.weight_of
            ranked = sorted(((wof(k), k, c) for k, c in right.items()),
                            key=lambda t: t[0])
            for k1, c1 in self._nums.items():
                w1 = wof(k1)
                for w2, k2, c2 in ranked:
                    if w1 + w2 > tr:
                        break
                    key = tuple(map(add, k1, k2))
                    s = out.get(key, 0) + c1 * c2
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return GradedSeries._reduced(self.spec, out, self._den * other._den,
                                     kind, tr)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.monomial_inverse() ** (-e)
        result = GradedSeries.unit(self.spec, 1, self.trunc)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def monomial_inverse(self):
        """Inverse of a single-term series; only the vn slot may be nonzero."""
        if len(self._nums) != 1:
            raise MathInvariantError("inverse of a non-monomial series")
        (key, coeff), = self.terms.items()
        n = self.spec.n
        if any(key[:n]) or any(key[n + 1:]):
            raise MathInvariantError(f"monomial {key} is not invertible")
        if isinstance(coeff, Fraction):
            inv = 1 / coeff
        elif isinstance(coeff, TwoLocal):
            inv = TwoLocal(1) / coeff  # raises if not a unit
        else:
            inv = TwoLocal(1) / TwoLocal(coeff)
        num, den, kind = _split(inv)
        ikey = tuple(map(operator.neg, key))
        return GradedSeries._raw(self.spec, {ikey: num}, den, kind, self.trunc)

    # -- structure ------------------------------------------------------

    def _mapped(self, image: Callable, spec=None, trunc=_OWN,
                order: Callable | None = None) -> "GradedSeries":
        """The one key map: image(key) is (new key, int factor), or None to
        drop the term.  Terms landing on one key are summed and a zero sum
        is dropped; the result keeps the kind, over spec and trunc (by
        default this series' own), in lowest terms again.  Terms are
        visited in term order, or stably sorted by order(key)."""
        items = self._nums.items()
        if order is not None:
            items = sorted(items, key=lambda kv: order(kv[0]))
        out = {}
        for key, num in items:
            hit = image(key)
            if hit is None:
                continue
            key, factor = hit
            s = out.get(key, 0) + num * factor
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return GradedSeries._reduced(spec or self.spec, out, self._den,
                                     self._kind,
                                     self.trunc if trunc is _OWN else trunc)

    def degrees(self) -> set[int]:
        dof = self.spec.degree_of
        return {dof(k) for k in self._nums}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def internal_degree(self) -> int:
        ds = self.degrees()
        if len(ds) != 1:
            raise MathInvariantError(f"not homogeneous: degrees {sorted(ds)}")
        return ds.pop()

    def homogeneous_part(self, d: int) -> "GradedSeries":
        dof = self.spec.degree_of
        return self._mapped(lambda k: (k, 1) if dof(k) == d else None)

    def weight_parts(self) -> dict[int, "GradedSeries"]:
        wof = self.spec.weight_of
        buckets: dict[int, dict] = {}
        for k, v in self._nums.items():
            buckets.setdefault(wof(k), {})[k] = v
        return {w: GradedSeries._reduced(self.spec, t, self._den, self._kind,
                                         self.trunc)
                for w, t in sorted(buckets.items())}

    def max_weight(self) -> int:
        wof = self.spec.weight_of
        return max((wof(k) for k in self._nums), default=0)

    def truncated(self, trunc: int | None) -> "GradedSeries":
        tr = _min_trunc(self.trunc, trunc)
        if tr == self.trunc:
            return self
        wof = self.spec.weight_of
        return self._mapped(lambda k: (k, 1) if wof(k) <= tr else None,
                            trunc=tr)

    def extended_to(self, spec: GradingSpec) -> "GradedSeries":
        """Reinterpret in a wider spec (more classes or roots, same core)."""
        if (spec.n, spec.alphabet) != (self.spec.n, self.spec.alphabet):
            raise ValueError("incompatible core")
        if spec.q < self.spec.q or spec.roots < self.spec.roots:
            raise ValueError("target spec is narrower")
        cpad = (0,) * (spec.q - self.spec.q)
        xpad = (0,) * (spec.roots - self.spec.roots)
        cut = self.spec.classes.stop
        return self._mapped(lambda k: (k[:cut] + cpad + k[cut:] + xpad, 1),
                            spec)

    def times_key(self, key, trunc=None) -> "GradedSeries":
        """The product with the monomial `key`, as a key shift: terms past
        min(trunc, own bound) are cut exactly where the one-term product
        would cut them."""
        spec = self.spec
        spec.validate_key(key)
        tr = _min_trunc(self.trunc, trunc)
        add, wof = operator.add, spec.weight_of
        room = None if tr is None else tr - wof(key)
        return self._mapped(
            lambda k: None if room is not None and wof(k) > room
            else (tuple(map(add, k, key)), 1), trunc=tr)

    def divide_by_key(self, key) -> "GradedSeries":
        """Exact division by a monomial; any residue is an error."""
        self.spec.validate_key(key)
        quotient = self.spec.quotient
        tr = self.trunc
        if tr is not None:
            tr -= self.spec.weight_of(key)
        # division is injective, so a term is lost only where key fails
        out = self._mapped(lambda k: None if (q := quotient(k, key)) is None
                           else (q, 1), trunc=tr)
        if len(out._nums) < len(self._nums):
            raise MathInvariantError(f"monomial {key} does not divide a term")
        return out

    def conjugate(self) -> "GradedSeries":
        """Coefficient involution: negate the top generator.

        In the standard alphabet every v generator flips sign; in the hat
        alphabet the lower hat generators are invariant and only a bare vn
        power contributes its parity.
        """
        n = self.spec.n
        # the sign is the parity of vn, or of every v generator
        lo = n if self.spec.alphabet == "hat" else 1
        return self._mapped(lambda k: (k, -1 if sum(k[lo:n + 1]) & 1 else 1))

    def regrade_to_hat(self) -> "GradedSeries":
        """Rename a standard-alphabet series into the hat alphabet.

        Lower generators carry over slotwise; a top-generator exponent e
        becomes a vn exponent of -e*P.  For n = 1, P = 0 collapses distinct
        exponents onto one key, so coefficients are accumulated.
        """
        if self.spec.alphabet != "standard":
            raise ValueError("regrade_to_hat starts from the standard alphabet")
        spec = GradingSpec(self.spec.n, self.spec.q, self.spec.roots, "hat")
        n, P = spec.n, spec.hat_offset
        return self._mapped(lambda k: (k[:n] + (-k[n] * P,) + k[n + 1:], 1),
                            spec)

    # -- one-variable bookkeeping (erjw.fgl.UniSeries) --------------------

    def _split_last(self, spec: GradingSpec, count: int) -> tuple:
        """Part m holds the terms whose last exponent is m, over spec,
        which lacks that last slot."""
        parts = [{} for _ in range(count)]
        for k, v in self._nums.items():
            parts[k[-1]][k[:-1]] = v
        den, kind = self._den, self._kind
        return tuple(GradedSeries._reduced(spec, t, den, kind, None)
                     for t in parts)

    def _last_at_term(self, spec: GradingSpec, key, coeff: int,
                      trunc: int) -> "GradedSeries":
        """The series with its last slot u replaced by the one term
        coeff * key of spec, a widening of the spec without that slot, as
        one key map: u^e goes to e * key, scaled by coeff^e, and survives
        iff e * weight(key) <= trunc.  Terms are visited by ascending e,
        stably: the order in which the sum of (part e) * (coeff * key)^e
        over e = 0, 1, ... meets them."""
        if (spec.n, spec.alphabet) != (self.spec.n, self.spec.alphabet):
            raise ValueError("incompatible core")
        top = trunc // spec.weight_of(key)
        pad = (0,) * (spec.width - self.spec.width + 1)
        shifts = [(tuple(e * s for s in key), coeff ** e)
                  for e in range(top + 1)]
        add = operator.add

        def image(k):
            if k[-1] > top:
                return None
            shift, factor = shifts[k[-1]]
            return tuple(map(add, k[:-1] + pad, shift)), factor
        return self._mapped(image, spec, trunc, order=lambda k: k[-1])

    @classmethod
    def _stack_last(cls, spec: GradingSpec, parts, trunc) -> "GradedSeries":
        """The inverse of _split_last: part m gains a last exponent m."""
        den, kind, nums = lcm(*(p._den for p in parts)), int, {}
        for m, part in enumerate(parts):
            kind = _join(kind, part._kind)
            s = den // part._den
            for k, v in part._nums.items():
                nums[k + (m,)] = v * s
        return cls._raw(spec, nums, den, kind, trunc)

    # -- printing / parsing ----------------------------------------------

    def __str__(self):
        if not self._nums:
            return "0"
        spec = self.spec
        # printed factor order: vh, vn, y, c, x
        order = (*range(1, spec.n + 1), 0, *range(spec.n + 1, spec.width))
        names = spec.slot_names
        parts = []
        for key, coeff in self.items_sorted():
            factors = []
            for i in order:
                e = key[i]
                if e == 0:
                    continue
                factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
            cs = str(coeff)
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            elif cs == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append("*".join([cs] + factors))
        return " + ".join(parts)


# Larger exponents, and integer powers or coefficients of more bits, are
# refused: 3^99999999 runs for minutes, no int past 4300 digits prints.
# The one bound outside erjw.cli's admission step: parse_series enforces
# it while it reads, for the CLI and for library callers (relation_check).
EXPONENT_BOUND = 1000

_RING_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
             ast.Mult: operator.mul}


def parse_series(text: str, spec: GradingSpec, coeff_type=TwoLocal,
                 trunc: int | None = None,
                 names: dict[str, GradedSeries] | None = None) -> GradedSeries:
    """Read a ring expression over spec; the inverse of str(series).

    The grammar: integer and p/q constants; the spec's variable names and
    the keys of `names` (series for named classes, looked up first); unary
    minus, +, - and *; and powers written ^ or **, of a name or an integer,
    by an integer literal of absolute value at most EXPONENT_BOUND (and of
    at most that many bits for an integer), negative only on vn.  The
    result of each ring operation may have no coefficient numerator or
    denominator past EXPONENT_BOUND bits, and an integer literal must be
    printable in decimal.  All else, and values outside the coefficient
    ring, raise InputError.
    """
    def bounded(series: GradedSeries) -> GradedSeries:
        # each coefficient's own numerator and denominator are the stored
        # ones divided by their gcd
        den = series._den
        for num in series._nums.values():
            if (max(abs(num), den) // gcd(num, den)).bit_length() \
                    > EXPONENT_BOUND:
                raise InputError(
                    f"a coefficient is past {EXPONENT_BOUND} bits")
        return series

    def literal(node) -> int | None:
        # bool is an int subclass, but True is not a number here
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            value = literal(node.operand)
            return None if value is None else -value
        if isinstance(node, ast.Constant) and type(node.value) is int:
            str(node.value)  # ValueError past the decimal digit limit (hex)
            return node.value
        return None

    def power(base, exp: int) -> GradedSeries:
        if abs(exp) > EXPONENT_BOUND:
            raise InputError(f"exponent {exp} is past the bound "
                             f"{EXPONENT_BOUND}")
        ident = base.id if isinstance(base, ast.Name) else None
        if exp < 0 and spec.slot_of(ident) != spec.n:
            raise InputError(f"negative power of {ast.unparse(base)}: only"
                             " vn is invertible")
        if names and ident in names:
            # x^0 is still the unit with a coeff_type coefficient
            return names[ident] ** exp if exp else \
                GradedSeries.unit(spec, coeff_type(1), trunc)
        if ident is not None:
            return GradedSeries.gen(spec, ident, exp, coeff_type(1), trunc)
        value = literal(base)
        if value is None:
            raise InputError("expected a generator or an integer, got "
                             f"{ast.unparse(base)}")
        # |value|^exp has at least (bits - 1) * exp + 1 bits: refuse past
        # the bound before computing the power, then check its true size
        bound = EXPONENT_BOUND
        if exp > 1 and ((abs(value).bit_length() - 1) * exp + 1 > bound
                        or abs(value ** exp).bit_length() > bound):
            raise InputError(f"{value}^{exp} is past {EXPONENT_BOUND} bits")
        return GradedSeries.unit(spec, coeff_type(value ** exp), trunc)

    def ev(node) -> GradedSeries:
        if isinstance(node, (ast.Name, ast.Constant)):
            return power(node, 1)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if not isinstance(node, ast.BinOp):
            raise InputError(f"unsupported syntax: {ast.unparse(node)}")
        op, left, right = type(node.op), node.left, node.right
        if op is ast.Pow:
            exp = literal(right)
            if exp is None:
                raise InputError("exponents must be integer literals")
            return power(left, exp)
        if op in _RING_OPS:
            return bounded(_RING_OPS[op](ev(left), ev(right)))
        p, q = literal(left), literal(right)
        if op is ast.Div and None not in (p, q):
            # p/q is a constant, never a quotient of series
            return GradedSeries.unit(spec, coeff_type(p) / coeff_type(q),
                                     trunc)
        raise InputError("only +, -, *, p/q constants and integer powers"
                         " are allowed")

    try:
        return ev(ast.parse(text.strip().replace("^", "**"), mode="eval").body)
    except SyntaxError as exc:
        raise InputError(f"cannot parse expression: {exc}") from None
    except RecursionError:
        raise InputError("expression nests too deeply") from None
    except InputError:
        raise
    except (ValueError, ZeroDivisionError, NonUnitDivisionError) as exc:
        raise InputError(str(exc)) from None
