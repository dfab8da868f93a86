"""The scalar field: exact sums of rational multiples of square roots.

A scalar's value decides its type: a rational is an int or a Fraction, and a
SqrtNumber carries a value with a radical.  This walkthrough shows the
canonical form, exact inversion through Galois conjugates, and the
interval-based sign decision.
"""

from fractions import Fraction

from superspin.exactnum import SqrtNumber, sqrt_rational

r2 = sqrt_rational(2)
r8 = sqrt_rational(8)
print("sqrt(2)          =", r2)
print("sqrt(8)          =", r8, "   (radicand reduced to square-free form)")
print("sqrt(9/4)        =", sqrt_rational(Fraction(9, 4)))
print("sqrt(2)*sqrt(3)  =", r2 * sqrt_rational(3))

x = 1 + r2
print("\nx        =", x)
print("1/x      =", x.invert(), "   (multiply the sqrt(2) |-> -sqrt(2) conjugate)")
print("x * 1/x  =", x * x.invert())

y = sqrt_rational(2) + sqrt_rational(3) - sqrt_rational(10)
print("\nsqrt(2)+sqrt(3)-sqrt(10) =", y)
print("its sign (interval evaluation, doubling precision):", y.sign())

# uniqueness of the representation: cancellation happens term by term
z = r8 - r2 - r2
print("\nsqrt(8) - 2 sqrt(2) =", z, "(exactly zero)")

print("\nJSON wire format:")
print(x.to_json())
