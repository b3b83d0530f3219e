"""Graded multivariate Laurent series with weight truncation.

A monomial key is the tuple (y, vh, vn, c, x):

  y   exponent of the filtration class y (degree 0, filtration 1),
  vh  exponents of the n-1 lower coefficient generators,
  vn  exponent of the top generator (the only Laurent slot),
  c   exponents of the q characteristic classes,
  x   exponents of the formal roots.

Two alphabets share this shape.  The "standard" one grades like a complex
oriented theory (|v_k| = -2(2^k-1), roots in degree 2, classes in degree
2k).  The "hat" one rescales everything by (1-L)/2 where L is the period
constant, and represents the top hat generator through a vn power: an
exponent e on the hat side is stored as vn exponent -e*P with
P = 2^(n+1) * (2^(n-1)-1).  For n = 1 that offset is 0, so the top hat
generator collapses to 1 on its own; regrading merges the affected keys.

Weight counts only classes and roots: weight(c_k) = k, weight(x_i) = 1.
A series may carry a truncation bound; terms above it are dropped on
construction and during arithmetic, and products combine bounds by min.

Coefficients are whatever rational-like objects the caller supplies
(TwoLocal in the 2-local world, Fraction inside logarithm computations).
Mixing the two in one expression raises TypeError, on purpose.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from typing import Callable

from .errors import InputError, MathInvariantError, NonUnitDivisionError
from .scalar2 import TwoLocal


@dataclass(frozen=True)
class GradingSpec:
    n: int
    q: int = 0
    roots: int = 0
    alphabet: str = "hat"

    def __post_init__(self):
        if self.n < 1:
            raise InputError("n must be at least 1")
        if self.q < 0 or self.roots < 0:
            raise InputError("negative slot counts")
        if self.alphabet not in ("hat", "standard"):
            raise InputError(f"unknown alphabet {self.alphabet!r}")

    @property
    def lam(self) -> int:
        """Period constant: 2^(2n+1) - 2^(n+2) + 1."""
        return 2 ** (2 * self.n + 1) - 2 ** (self.n + 2) + 1

    @property
    def hat_offset(self) -> int:
        """P = 2^(n+1) * (2^(n-1) - 1); the top hat generator is vn^-P."""
        return 2 ** (self.n + 1) * (2 ** (self.n - 1) - 1)

    def unit_key(self) -> tuple:
        return (0, (0,) * (self.n - 1), 0, (0,) * self.q, (0,) * self.roots)

    def validate_key(self, key) -> None:
        y, vh, vn, c, x = key
        if not (isinstance(y, int) and isinstance(vn, int)):
            raise TypeError(f"bad exponent types in {key}")
        if y < 0:
            raise ValueError(f"negative y exponent in {key}")
        if len(vh) != self.n - 1 or len(c) != self.q or len(x) != self.roots:
            raise ValueError(f"key shape {key} does not fit {self}")
        if any(e < 0 for e in vh):
            raise ValueError(f"negative vh exponent in {key}")
        if any(e < 0 for e in c) or any(e < 0 for e in x):
            raise ValueError(f"negative class or root exponent in {key}")

    @cached_property
    def slot_degrees(self) -> tuple:
        """Degrees of (vh_k for k < n, vn, c_k for k <= q, a root): the
        standard ones, scaled by (1-L)/2 in the hat alphabet except vn."""
        s = (1 - self.lam) // 2 if self.alphabet == "hat" else 1
        return (tuple(-2 * (2 ** k - 1) * s for k in range(1, self.n)),
                -2 * (2 ** self.n - 1),
                tuple(2 * k * s for k in range(1, self.q + 1)),
                2 * s)

    def degree_of(self, key) -> int:
        """Internal degree; y contributes nothing."""
        _, vh, vn, c, x = key
        dvh, dvn, dc, dx = self.slot_degrees
        return (sum(map(operator.mul, dvh, vh)) + dvn * vn
                + sum(map(operator.mul, dc, c)) + dx * sum(x))

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
        _, _, _, c, x = key
        return sum(k * e for k, e in enumerate(c, start=1)) + sum(x)

    def total_of(self, key) -> int:
        """Chart column: internal degree minus y * lambda."""
        return self.degree_of(key) - key[0] * self.lam

    def variable_names(self) -> list[str]:
        n = self.n
        if self.alphabet == "hat":
            names = [f"vh{k}" for k in range(1, n)] + ["vn"]
        else:
            names = [f"v{k}" for k in range(1, n + 1)]
        names.append("y")
        names += [f"c{k}" for k in range(1, self.q + 1)]
        names += [f"x{i}" for i in range(1, self.roots + 1)]
        return names


# bounded: one three-engine page chart asks for a few thousand degrees
@lru_cache(maxsize=1 << 13)
def degree_basis(spec: GradingSpec, D: int, caps: int, weight: int = 0,
                 hat_lattice: bool = False) -> tuple:
    """Sorted keys y^0 vhat^a vn^b c^e of internal degree D.

    Every vhat exponent is at most `caps` and the class weight at most
    `weight`; the vn exponent b is whatever the degree forces.  With
    `hat_lattice` only vn powers of the top hat generator count: b must
    be a multiple of P, which at n = 1 (P = 0) means b = 0.
    """
    if spec.alphabet != "hat" or spec.roots:
        raise InputError("degree bases live over the hat class ring")
    wn = spec.slot_degrees[1]
    out = []
    for e in iter_product(*(range(weight // k + 1)
                            for k in range(1, spec.q + 1))):
        if sum(k * ek for k, ek in enumerate(e, start=1)) > weight:
            continue
        for a in iter_product(range(caps + 1), repeat=spec.n - 1):
            rem = D - spec.degree_of((0, a, 0, e, ()))
            if rem % wn:
                continue
            b = rem // wn
            if hat_lattice and spec.hat_residue(b):
                continue
            out.append((0, a, b, e, ()))
    return tuple(sorted(out))


def _key_mul(a, b):
    return (a[0] + b[0],
            tuple(p + q for p, q in zip(a[1], b[1])),
            a[2] + b[2],
            tuple(p + q for p, q in zip(a[3], b[3])),
            tuple(p + q for p, q in zip(a[4], b[4])))


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


_SCALARS = (int, TwoLocal, Fraction)


class GradedSeries:
    """Finitely supported series over a GradingSpec, optionally truncated."""

    __slots__ = ("spec", "terms", "trunc")

    def __init__(self, spec: GradingSpec, terms=None, trunc: int | None = None):
        self.spec = spec
        self.trunc = trunc
        out = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff:
                    continue
                spec.validate_key(key)
                if trunc is not None and spec.weight_of(key) > trunc:
                    continue
                out[key] = coeff
        self.terms = out

    @classmethod
    def _raw(cls, spec, terms, trunc):
        self = object.__new__(cls)
        self.spec = spec
        self.terms = terms
        self.trunc = trunc
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, spec, trunc=None):
        return cls._raw(spec, {}, trunc)

    @classmethod
    def unit(cls, spec, coeff=1, trunc=None):
        if not coeff:
            return cls.zero(spec, trunc)
        return cls._raw(spec, {spec.unit_key(): coeff}, trunc)

    @classmethod
    def monomial(cls, spec, coeff=1, y=0, vh=None, vn=0, c=None, x=None, trunc=None):
        key = (y,
               tuple(vh) if vh is not None else (0,) * (spec.n - 1),
               vn,
               tuple(c) if c is not None else (0,) * spec.q,
               tuple(x) if x is not None else (0,) * spec.roots)
        return cls(spec, {key: coeff}, trunc)

    @classmethod
    def gen(cls, spec, name: str, exp: int = 1, coeff=1, trunc=None):
        """Single generator to a power, looked up by its printed name."""
        slot = _slot_table(spec).get(name)
        if slot is None:
            raise ValueError(f"{name!r} is not a variable of {spec}")
        kind, idx = slot
        kwargs = {}
        if kind == "y":
            kwargs["y"] = exp
        elif kind == "vn":
            kwargs["vn"] = exp
        else:
            tup = [0] * {"vh": spec.n - 1, "c": spec.q, "x": spec.roots}[kind]
            tup[idx] = exp
            kwargs[kind] = tuple(tup)
        return cls.monomial(spec, coeff=coeff, trunc=trunc, **kwargs)

    # -- basic protocol -------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        # truncation bounds are bookkeeping, not content
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __repr__(self):
        return f"GradedSeries({self})"

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def coefficient(self, key):
        return self.terms.get(key, 0)

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
        tr = _min_trunc(self.trunc, other.trunc)
        out = dict(self.terms)
        wof = self.spec.weight_of
        for key, coeff in other.terms.items():
            s = out.get(key, 0) + coeff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        if tr is not None and (self.trunc != tr or other.trunc != tr):
            out = {k: v for k, v in out.items() if wof(k) <= tr}
        return GradedSeries._raw(self.spec, out, tr)

    __radd__ = __add__

    def __neg__(self):
        return GradedSeries._raw(self.spec, {k: -v for k, v in self.terms.items()},
                                 self.trunc)

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
            if not other:
                return GradedSeries.zero(self.spec, self.trunc)
            out = {}
            for k, v in self.terms.items():
                p = v * other
                if p:
                    out[k] = p
            return GradedSeries._raw(self.spec, out, self.trunc)
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._check_spec(other)
        tr = _min_trunc(self.trunc, other.trunc)
        out = {}
        wof = self.spec.weight_of
        if tr is None:
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    key = _key_mul(k1, k2)
                    s = out.get(key, 0) + c1 * c2
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        else:
            # sort one factor by weight so each inner loop can stop early
            right = sorted(((wof(k), k) for k in other.terms), key=lambda t: t[0])
            for k1, c1 in self.terms.items():
                w1 = wof(k1)
                for w2, k2 in right:
                    if w1 + w2 > tr:
                        break
                    key = _key_mul(k1, k2)
                    s = out.get(key, 0) + c1 * other.terms[k2]
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return GradedSeries._raw(self.spec, out, tr)

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
        if len(self.terms) != 1:
            raise MathInvariantError("inverse of a non-monomial series")
        (key, coeff), = self.terms.items()
        y, vh, vn, c, x = key
        if y or any(vh) or any(c) or any(x):
            raise MathInvariantError(f"monomial {key} is not invertible")
        if isinstance(coeff, Fraction):
            inv = 1 / coeff
        elif isinstance(coeff, TwoLocal):
            inv = TwoLocal(1) / coeff  # raises if not a unit
        else:
            inv = TwoLocal(1) / TwoLocal(coeff)
        ikey = (0, vh, -vn, c, x)
        return GradedSeries._raw(self.spec, {ikey: inv}, self.trunc)

    # -- structure ------------------------------------------------------

    def degrees(self) -> set[int]:
        dof = self.spec.degree_of
        return {dof(k) for k in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def internal_degree(self) -> int:
        ds = self.degrees()
        if len(ds) != 1:
            raise MathInvariantError(f"not homogeneous: degrees {sorted(ds)}")
        return ds.pop()

    def homogeneous_part(self, d: int) -> "GradedSeries":
        dof = self.spec.degree_of
        return GradedSeries._raw(self.spec,
                                 {k: v for k, v in self.terms.items() if dof(k) == d},
                                 self.trunc)

    def weight_parts(self) -> dict[int, "GradedSeries"]:
        wof = self.spec.weight_of
        buckets: dict[int, dict] = {}
        for k, v in self.terms.items():
            buckets.setdefault(wof(k), {})[k] = v
        return {w: GradedSeries._raw(self.spec, t, self.trunc)
                for w, t in sorted(buckets.items())}

    def max_weight(self) -> int:
        wof = self.spec.weight_of
        return max((wof(k) for k in self.terms), default=0)

    def truncated(self, trunc: int | None) -> "GradedSeries":
        tr = _min_trunc(self.trunc, trunc)
        if tr == self.trunc:
            return self
        wof = self.spec.weight_of
        return GradedSeries._raw(self.spec,
                                 {k: v for k, v in self.terms.items() if wof(k) <= tr},
                                 tr)

    def map_coefficients(self, f: Callable) -> "GradedSeries":
        out = {}
        for k, v in self.terms.items():
            w = f(v)
            if w:
                out[k] = w
        return GradedSeries._raw(self.spec, out, self.trunc)

    def extended_to(self, spec: GradingSpec) -> "GradedSeries":
        """Reinterpret in a wider spec (more classes or roots, same core)."""
        if (spec.n, spec.alphabet) != (self.spec.n, self.spec.alphabet):
            raise ValueError("incompatible core")
        if spec.q < self.spec.q or spec.roots < self.spec.roots:
            raise ValueError("target spec is narrower")
        cpad = (0,) * (spec.q - self.spec.q)
        xpad = (0,) * (spec.roots - self.spec.roots)
        out = {}
        for (y, vh, vn, c, x), v in self.terms.items():
            out[(y, vh, vn, c + cpad, x + xpad)] = v
        return GradedSeries._raw(spec, out, self.trunc)

    def divide_by_key(self, key) -> "GradedSeries":
        """Exact division by a monomial; any residue is an error."""
        self.spec.validate_key(key)
        y0, vh0, vn0, c0, x0 = key
        out = {}
        for (y, vh, vn, c, x), v in self.terms.items():
            if (y < y0 or any(a < b for a, b in zip(vh, vh0))
                    or any(a < b for a, b in zip(c, c0))
                    or any(a < b for a, b in zip(x, x0))):
                raise MathInvariantError(f"monomial {key} does not divide a term")
            out[(y - y0,
                 tuple(a - b for a, b in zip(vh, vh0)),
                 vn - vn0,
                 tuple(a - b for a, b in zip(c, c0)),
                 tuple(a - b for a, b in zip(x, x0)))] = v
        tr = self.trunc
        if tr is not None:
            tr -= self.spec.weight_of(key)
        return GradedSeries._raw(self.spec, out, tr)

    def conjugate(self) -> "GradedSeries":
        """Coefficient involution: negate the top generator.

        In the standard alphabet every v generator flips sign; in the hat
        alphabet the lower hat generators are invariant and only a bare vn
        power contributes its parity.
        """
        out = {}
        for key, v in self.terms.items():
            y, vh, vn, c, x = key
            if self.spec.alphabet == "hat":
                sign = -1 if vn & 1 else 1
            else:
                sign = -1 if (vn + sum(vh)) & 1 else 1
            out[key] = -v if sign < 0 else v
        return GradedSeries._raw(self.spec, out, self.trunc)

    def regrade_to_hat(self) -> "GradedSeries":
        """Rename a standard-alphabet series into the hat alphabet.

        Lower generators carry over slotwise; a top-generator exponent e
        becomes a vn exponent of -e*P.  For n = 1, P = 0 collapses distinct
        exponents onto one key, so coefficients are accumulated.
        """
        if self.spec.alphabet != "standard":
            raise ValueError("regrade_to_hat starts from the standard alphabet")
        spec = GradingSpec(self.spec.n, self.spec.q, self.spec.roots, "hat")
        P = spec.hat_offset
        out = {}
        for (y, vh, vn, c, x), v in self.terms.items():
            key = (y, vh, -vn * P, c, x)
            s = out.get(key, 0) + v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return GradedSeries._raw(spec, out, self.trunc)

    # -- printing / parsing ----------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.spec.variable_names()
        parts = []
        for key, coeff in self.items_sorted():
            y, vh, vn, c, x = key
            exps = list(vh) + [vn, y] + list(c) + list(x)
            factors = []
            for name, e in zip(names, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
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


def _slot_table(spec: GradingSpec) -> dict[str, tuple[str, int]]:
    table: dict[str, tuple[str, int]] = {}
    names = spec.variable_names()
    i = 0
    for k in range(spec.n - 1):
        table[names[i]] = ("vh", k)
        i += 1
    table[names[i]] = ("vn", 0)
    i += 1
    table["y"] = ("y", 0)
    i += 1
    for k in range(spec.q):
        table[names[i]] = ("c", k)
        i += 1
    for k in range(spec.roots):
        table[names[i]] = ("x", k)
        i += 1
    return table


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
    slots = _slot_table(spec)

    def bounded(series: GradedSeries) -> GradedSeries:
        for c in series.terms.values():
            num, den = (c.num, c.den) if isinstance(c, TwoLocal) \
                else (c.numerator, c.denominator)
            if max(abs(num), den).bit_length() > EXPONENT_BOUND:
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
        if exp < 0 and slots.get(ident, ("",))[0] != "vn":
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
