"""Exact rational scalars.

Everything in this package that is not an integer count is an exact
rational.  When gmpy2 is importable its GMP-backed mpq type is used (it is
roughly 20x faster than fractions.Fraction in the dense matrix loops and
interoperates with it: equal values compare and hash equal); otherwise
fractions.Fraction is a drop-in fallback.  Both normalize to lowest terms
with positive denominator, accept Q(p, q) and Q("p/q") constructors, and
serialize via str() as "p" or "p/q".
"""

import numbers

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

QZERO = Q(0)


def require_exact(c):
    """c itself if it is an exact rational (int, Fraction, mpq); a float or
    any other number raises TypeError."""
    if not isinstance(c, (Q, numbers.Rational)):
        raise TypeError(f"exact arithmetic needs rational scalars, got {type(c).__name__} {c!r}")
    return c
