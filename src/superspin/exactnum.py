"""Exact arithmetic in real multi-quadratic fields Q(sqrt(d1), ..., sqrt(dk)).

A value is a finite Q-linear combination of sqrt(d) over square-free positive
integers d; radicand 1 carries the rational part.  Because the sqrt(d) are
linearly independent over Q, the term map is a canonical form: two values are
equal iff their maps are equal.

The package's scalar rule: a rational value is a Python int when it is
integral and a Fraction otherwise, and a SqrtNumber carries a value that
contains a radical (or comes from code that computes on SqrtNumbers).  Python's
numeric tower then picks the arithmetic from the data: int and Fraction
operands stay rational, and a SqrtNumber operand makes the result a SqrtNumber.
`canonical`, `inverse`, `one_like`, `rational_of` and `scalar_json` are the
helpers that let the linear algebra run on all three types with one code path.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Mapping

_SIGN_START_BITS = 64

# Largest radicand the JSON reader accepts.  The models (|shape| <= 7) take
# their radicals from sqrt(2) and the sqrt of a-values b(b+1)/2 with b <= 7, so
# every radicand they write divides 2*3*5*7 = 210; the cap keeps the trial
# division in square_free_decompose under 500 steps per term on any input.
MAX_RADICAND = 10**6
# the "p/q" form of _frac_str, the only coefficient form the writer emits
_COEFF = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)")


class PrecisionExceeded(RuntimeError):
    """sign() hit the SUPERSPIN_MAX_BITS interval-precision cap."""


def square_free_decompose(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s*s*f and f square-free (n > 0)."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, f = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    return s, f * n


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _sqrt_bounds(d: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(d) <= hi with hi - lo <= 2^-bits."""
    scale = 1 << bits
    lo = isqrt(d * scale * scale)
    return Fraction(lo, scale), Fraction(lo + 1, scale)


class SqrtNumber:
    """Immutable element of the real multi-quadratic field."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        # terms must already be normalized: square-free radicands, no zeros
        self._terms: dict[int, Fraction] = dict(terms) if terms else {}
        self._hash: int | None = None

    @classmethod
    def from_rational(cls, q) -> SqrtNumber:
        q = Fraction(q)
        return cls({1: q} if q else None)

    @classmethod
    def from_terms(cls, raw: Iterable[tuple[int, Fraction]]) -> SqrtNumber:
        """Build from (radicand, coeff) pairs, reducing radicands and merging."""
        acc: dict[int, Fraction] = {}
        for d, q in raw:
            q = Fraction(q)
            if not q:
                continue
            s, f = square_free_decompose(d)
            q = q * s
            c = acc.get(f)
            c = q if c is None else c + q
            if c:
                acc[f] = c
            elif f in acc:
                del acc[f]
        return cls(acc)

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 1 in self._terms)

    def rational_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if self.is_rational():
            return self._terms[1]
        raise ValueError(f"not rational: {self}")

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, SqrtNumber):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == SqrtNumber.from_rational(other)
        return NotImplemented

    def __hash__(self) -> int:
        # a rational value equals, so must hash as, the int/Fraction it holds
        if self._hash is None:
            if self.is_rational():
                self._hash = hash(self._terms.get(1, 0))
            else:
                self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    def __neg__(self) -> SqrtNumber:
        return SqrtNumber({d: -q for d, q in self._terms.items()})

    def __add__(self, other) -> SqrtNumber:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for d, q in other._terms.items():
            c = acc.get(d)
            c = q if c is None else c + q
            if c:
                acc[d] = c
            elif d in acc:
                del acc[d]
        return SqrtNumber(acc)

    __radd__ = __add__

    def __sub__(self, other) -> SqrtNumber:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> SqrtNumber:
        return (-self) + other

    def __mul__(self, other) -> SqrtNumber:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return ZERO
        acc: dict[int, Fraction] = {}
        for d1, q1 in self._terms.items():
            for d2, q2 in other._terms.items():
                # sqrt(d1)*sqrt(d2) = g*sqrt(d1*d2/g^2) with g = gcd(d1, d2);
                # the product of coprime square-free numbers is square-free.
                g = gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                q = q1 * q2 * g
                c = acc.get(d)
                c = q if c is None else c + q
                if c:
                    acc[d] = c
                elif d in acc:
                    del acc[d]
        return SqrtNumber(acc)

    __rmul__ = __mul__

    def conjugate(self, p: int) -> SqrtNumber:
        """Galois conjugate flipping the sign of sqrt(p) (p prime)."""
        return SqrtNumber(
            {d: (-q if d % p == 0 else q) for d, q in self._terms.items()}
        )

    def invert(self) -> SqrtNumber:
        """Multiplicative inverse; multiplies Galois conjugates to rationalize."""
        if not self._terms:
            raise ZeroDivisionError("inverse of zero SqrtNumber")
        if self.is_rational():
            return SqrtNumber({1: 1 / self._terms[1]})
        primes: set[int] = set()
        for d in self._terms:
            primes.update(_prime_factors(d))
        p = min(primes)
        conj = self.conjugate(p)
        # self * conj is fixed by the sqrt(p) flip, hence free of sqrt(p)
        return conj * (self * conj).invert()

    def __truediv__(self, other) -> SqrtNumber:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other) -> SqrtNumber:
        return _coerce(other) * self.invert()

    def sign(self) -> int:
        """-1, 0 or +1; decided by interval evaluation with doubling precision."""
        if not self._terms:
            return 0
        if all(q > 0 for q in self._terms.values()):
            return 1
        if all(q < 0 for q in self._terms.values()):
            return -1
        bits = _SIGN_START_BITS
        max_bits = int(os.environ.get("SUPERSPIN_MAX_BITS", "0")) or None
        while True:
            lo = hi = Fraction(0)
            for d, q in self._terms.items():
                if d == 1:
                    lo += q
                    hi += q
                    continue
                slo, shi = _sqrt_bounds(d, bits)
                if q > 0:
                    lo += q * slo
                    hi += q * shi
                else:
                    lo += q * shi
                    hi += q * slo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
            if max_bits is not None and bits > max_bits:
                raise PrecisionExceeded(
                    f"sign() undecided at SUPERSPIN_MAX_BITS={max_bits}"
                )

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        other = _coerce(other)
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        other = _coerce(other)
        return (self - other).sign() > 0

    def __ge__(self, other) -> bool:
        other = _coerce(other)
        return (self - other).sign() >= 0

    def __abs__(self) -> SqrtNumber:
        return -self if self.sign() < 0 else self

    def __float__(self) -> float:
        total = 0.0
        for d, q in self._terms.items():
            total += float(q) * (d**0.5)
        return total

    def __repr__(self) -> str:
        return f"SqrtNumber({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for d in sorted(self._terms):
            q = self._terms[d]
            body = str(q) if d == 1 else (f"{q}*sqrt({d})" if q != 1 else f"sqrt({d})")
            parts.append(body)
        return " + ".join(parts).replace("+ -", "- ")

    # -- JSON wire format ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [
                {"radicand": d, "coeff": _frac_str(self._terms[d])}
                for d in sorted(self._terms)
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> SqrtNumber:
        """Read the wire format of `to_json`; any other term is a ValueError."""
        raw = []
        for t in obj["terms"]:
            d, coeff = t["radicand"], t["coeff"]
            m = _COEFF.fullmatch(coeff) if isinstance(coeff, str) else None
            if m is None or type(d) is not int or not 1 <= d <= MAX_RADICAND:
                raise ValueError(f"bad scalar term: want radicand 1..{MAX_RADICAND}, coeff 'p/q'")
            raw.append((d, Fraction(int(m[1]), int(m[2]))))
        return cls.from_terms(raw)


def _frac_str(q: int | Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _coerce(x) -> SqrtNumber:
    if isinstance(x, SqrtNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return SqrtNumber.from_rational(x)
    return NotImplemented


def sqrt_rational(q) -> SqrtNumber:
    """Exact square root of a nonnegative rational."""
    q = Fraction(q)
    if q < 0:
        raise ValueError(f"sqrt of negative rational {q}")
    if q == 0:
        return ZERO
    # sqrt(a/b) = sqrt(a*b)/b
    s, f = square_free_decompose(q.numerator * q.denominator)
    return SqrtNumber({f: Fraction(s, q.denominator)})


ZERO = SqrtNumber()
ONE = SqrtNumber({1: Fraction(1)})
MINUS_ONE = SqrtNumber({1: Fraction(-1)})


def rational(q) -> SqrtNumber:
    return SqrtNumber.from_rational(q)


Scalar = int | Fraction | SqrtNumber


# -- the scalar rule ----------------------------------------------------------


def canonical(x: Scalar) -> Scalar:
    """x with an integral Fraction turned into int; every other scalar as it is."""
    if x.__class__ is Fraction and x.denominator == 1:
        return x.numerator
    return x


def rational_of(x: Scalar) -> int | Fraction | None:
    """The rational value of any scalar in canonical type; None if it has a radical."""
    if isinstance(x, SqrtNumber):
        if not x.is_rational():
            return None
        x = x.rational_value()
    return canonical(x)


def inverse(x: Scalar) -> Scalar:
    """1/x in x's own family: int or Fraction for a rational, else SqrtNumber."""
    if isinstance(x, SqrtNumber):
        return x.invert()
    if not x:
        raise ZeroDivisionError("inverse of zero")
    return canonical(Fraction(x.denominator, x.numerator))


def one_like(values: Iterable[Scalar]) -> int | SqrtNumber:
    """1 in the family of the values: ONE if any is a SqrtNumber, int 1 if all
    are rational, and ONE when there are none (the type is then unknown)."""
    seen = False
    for v in values:
        if isinstance(v, SqrtNumber):
            return ONE
        seen = True
    return 1 if seen else ONE


def scalar_json(x: Scalar) -> dict:
    """Any scalar in the wire format, byte-identical to SqrtNumber.to_json."""
    if isinstance(x, SqrtNumber):
        return x.to_json()
    return {"terms": [{"radicand": 1, "coeff": _frac_str(x)}] if x else []}
