"""Exact rational linear algebra on Python integers (Fraction matrices).

Matrices are tuples of tuples of ints or Fractions.  The kernels
(`mat_mul`, `mat_det`, `mat_inverse`, `solve`, `clear_denominators`) write
each matrix as integer rows over one common denominator (`_int_rows`),
work on those integers alone, and make one Fraction per output entry
(`clear_denominators` returns the integers).
`mat_det`, `mat_inverse` and `solve` share one fraction-free Gauss-Jordan
elimination (`_bareiss`; Bareiss, Math. Comp. 22, 1968): each step scales
the other rows by the pivot and divides them exactly by the previous
pivot, so every intermediate is an integer minor of the input.  Nothing
is rounded.  Everything here is small and dense; no attempt at sparsity.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import CheckFailed


def frac_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _int_rows(a):
    """(integer rows, d) with a == rows / d, d the least common denominator."""
    den = lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def _bareiss(a, b):
    """Fraction-free Gauss-Jordan on the integer rows [a | b], a square.

    Returns (sign, d, rows): d = sign * det(a) is the determinant of a with
    its rows swapped to the pivots, and rows are the integer rows of
    d a^-1 b; d = 0 and rows None when a is singular.
    """
    n = len(a)
    m = [ra + rb for ra, rb in zip(a, b)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return sign, 0, None
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top = m[k]
        p = top[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
    return sign, prev, [row[n:] for row in m]


def _left_divide(a, b):
    """a^-1 b as Fraction rows; raises ValueError on singular a."""
    ia, da = _int_rows(a)
    ib, db = _int_rows(b)
    _, d, rows = _bareiss(ia, ib)
    if not d:
        raise ValueError("singular matrix")
    return tuple(tuple(Fraction(da * x, d * db) for x in row) for row in rows)


def mat_mul(a, b):
    m = len(b)
    if len(a[0]) != m:
        raise CheckFailed(f"cannot multiply a matrix with {len(a[0])} columns "
                          f"by one with {m} rows")
    ia, da = _int_rows(a)
    ib, db = _int_rows(b)
    cols = tuple(zip(*ib))
    den = da * db
    return tuple(tuple(Fraction(sum(map(mul, row, col)), den) for col in cols)
                 for row in ia)


def mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


def transpose(a):
    return tuple(zip(*a))


def mat_inverse(a):
    """Inverse; raises ValueError on singular input."""
    n = len(a)
    return _left_divide(a, [[int(i == j) for j in range(n)] for i in range(n)])


def mat_det(a):
    rows, den = _int_rows(a)
    sign, d, _ = _bareiss(rows, [[] for _ in rows])
    return Fraction(sign * d, den ** len(rows))


def solve(a, b):
    """Solve a @ x = b for a square nonsingular a; b is a vector."""
    return tuple(x for x, in _left_divide(a, [[x] for x in b]))


def clear_denominators(vec):
    """Return (integer vector, positive denominator d) with vec == ints / d."""
    (ints,), den = _int_rows([tuple(vec)])
    return tuple(ints), den
