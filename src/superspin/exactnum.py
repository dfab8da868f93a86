"""Exact arithmetic in real multi-quadratic fields Q(sqrt(d1), ..., sqrt(dk)).

A value is a finite Q-linear combination of sqrt(d) over square-free positive
integers d; radicand 1 carries the rational part.  Because the sqrt(d) are
linearly independent over Q, the term map is a canonical form: two values are
equal iff their maps are equal.

The package's scalar rule is that the value decides the type: a rational value
is a Python int when it is integral and a Fraction otherwise, and a SqrtNumber
carries a value that contains a radical.  Every path that builds a SqrtNumber
(`from_terms`, `from_json`, `sqrt_rational`, + - * /, `invert`) goes through
`_scalar`, which returns the int or Fraction when no radical is left.  Python's
numeric tower then picks the arithmetic from the data, so rational data
computes in int/Fraction arithmetic wherever it appears.  `canonical`,
`inverse`, `rational_of` and `scalar_json` let the linear algebra run on all
three types with one code path.
"""

from __future__ import annotations

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
    """Immutable irrational element of the real multi-quadratic field.

    Every builder and operation returns its result by the scalar rule
    (`_scalar`): an int or a Fraction when no radical is left, so a
    SqrtNumber always carries one and never equals a rational.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, Fraction]):
        # terms must already be normalized (square-free radicands, no zeros)
        # and carry a radical; a raw term map goes through from_terms
        self._terms: dict[int, Fraction] = dict(terms)
        self._hash: int | None = None

    @classmethod
    def from_terms(cls, raw: Iterable[tuple[int, Fraction]]) -> Scalar:
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
        return _scalar(acc)

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_rational(self) -> bool:
        """Always False: a rational value is an int or a Fraction."""
        return False

    def __eq__(self, other) -> bool:
        # a rational never equals a SqrtNumber, so only term maps are compared
        if isinstance(other, SqrtNumber):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    def __neg__(self) -> SqrtNumber:
        return SqrtNumber({d: -q for d, q in self._terms.items()})

    def __add__(self, other) -> Scalar:
        if isinstance(other, SqrtNumber):
            terms = other._terms
        elif isinstance(other, _RATIONAL):
            if not other:
                return self
            terms = {1: Fraction(other)}
        else:
            return NotImplemented
        acc = dict(self._terms)
        for d, q in terms.items():
            c = acc.get(d)
            c = q if c is None else c + q
            if c:
                acc[d] = c
            elif d in acc:
                del acc[d]
        return _scalar(acc)

    __radd__ = __add__

    def __sub__(self, other) -> Scalar:
        if not isinstance(other, _SCALAR):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Scalar:
        return (-self) + other

    def __mul__(self, other) -> Scalar:
        if isinstance(other, _RATIONAL):
            # a nonzero rational multiple keeps every radical
            if not other:
                return 0
            return SqrtNumber({d: q * other for d, q in self._terms.items()})
        if not isinstance(other, SqrtNumber):
            return NotImplemented
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
        return _scalar(acc)

    __rmul__ = __mul__

    def conjugate(self, p: int) -> SqrtNumber:
        """Galois conjugate flipping the sign of sqrt(p) (p prime)."""
        return SqrtNumber(
            {d: (-q if d % p == 0 else q) for d, q in self._terms.items()}
        )

    def invert(self) -> SqrtNumber:
        """Multiplicative inverse; multiplies Galois conjugates to rationalize."""
        primes: set[int] = set()
        for d in self._terms:
            primes.update(_prime_factors(d))
        p = min(primes)
        conj = self.conjugate(p)
        # self * conj is fixed by the sqrt(p) flip, hence free of sqrt(p)
        return conj * inverse(self * conj)

    def __truediv__(self, other) -> Scalar:
        if not isinstance(other, _SCALAR):
            return NotImplemented
        return self * inverse(other)

    def __rtruediv__(self, other) -> Scalar:
        return other * self.invert()

    def sign(self) -> int:
        """-1 or +1; decided by interval evaluation with doubling precision."""
        if all(q > 0 for q in self._terms.values()):
            return 1
        if all(q < 0 for q in self._terms.values()):
            return -1
        bits = _SIGN_START_BITS
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

    def _cmp(self, other) -> int:
        """The sign of self - other."""
        diff = self - other
        if isinstance(diff, SqrtNumber):
            return diff.sign()
        return (diff > 0) - (diff < 0)

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

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
    def from_json(cls, obj: dict) -> Scalar:
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


def sqrt_rational(q) -> Scalar:
    """Exact square root of a nonnegative rational."""
    q = Fraction(q)
    if q < 0:
        raise ValueError(f"sqrt of negative rational {q}")
    if q == 0:
        return 0
    # sqrt(a/b) = sqrt(a*b)/b
    s, f = square_free_decompose(q.numerator * q.denominator)
    return _scalar({f: Fraction(s, q.denominator)})


Scalar = int | Fraction | SqrtNumber
_RATIONAL = (int, Fraction)
_SCALAR = (int, Fraction, SqrtNumber)


# -- the scalar rule ----------------------------------------------------------


def _scalar(terms: dict[int, Fraction]) -> Scalar:
    """The value of a normalized term map by the scalar rule: an int or a
    Fraction when no radical is left, else a SqrtNumber."""
    if len(terms) > 1 or (terms and 1 not in terms):
        return SqrtNumber(terms)
    return canonical(terms.get(1, 0))


def canonical(x: Scalar) -> Scalar:
    """x with an integral Fraction turned into int; every other scalar as it is."""
    if x.__class__ is Fraction and x.denominator == 1:
        return x.numerator
    return x


def rational_of(x: Scalar) -> int | Fraction | None:
    """The value of a rational scalar in canonical type; None for a SqrtNumber."""
    return None if isinstance(x, SqrtNumber) else canonical(x)


def inverse(x: Scalar) -> Scalar:
    """1/x by the scalar rule."""
    if isinstance(x, SqrtNumber):
        return x.invert()
    if not x:
        raise ZeroDivisionError("inverse of zero")
    return canonical(Fraction(x.denominator, x.numerator))


def scalar_json(x: Scalar) -> dict:
    """Any scalar in the wire format, byte-identical to SqrtNumber.to_json."""
    if isinstance(x, SqrtNumber):
        return x.to_json()
    return {"terms": [{"radicand": 1, "coeff": _frac_str(x)}] if x else []}
