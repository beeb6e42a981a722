"""Exact rational linear algebra helpers (Fraction matrices, integer lattices).

Matrices are tuples of tuples of Fractions (or ints where exactness allows).
Everything here is small and dense; no attempt at sparsity.
"""

from fractions import Fraction
from math import gcd

from .errors import CheckFailed


def frac_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    if len(a[0]) != m:
        raise CheckFailed(f"cannot multiply a matrix with {len(a[0])} columns "
                          f"by one with {m} rows")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p))
        for i in range(n))


def mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


def transpose(a):
    return tuple(zip(*a))


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mat_inverse(a):
    """Gauss-Jordan inverse; raises ValueError on singular input."""
    n = len(a)
    aug = [list(row) + list(ident_row)
           for row, ident_row in zip(frac_matrix(a), identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_det(a):
    n = len(a)
    m = [list(row) for row in frac_matrix(a)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def solve(a, b):
    """Solve a @ x = b for a square nonsingular a; b is a vector."""
    return mat_vec(mat_inverse(a), b)


def _int_hnf(rows):
    """Row Hermite normal form of an integer matrix; returns nonzero rows.

    Pivots positive, entries above a pivot reduced into [0, pivot).
    """
    m = [list(r) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    row = 0
    for col in range(ncols):
        # Euclidean elimination within this column below `row`.
        while True:
            nz = [r for r in range(row, len(m)) if m[r][col] != 0]
            if not nz:
                break
            r0 = min(nz, key=lambda r: abs(m[r][col]))
            m[row], m[r0] = m[r0], m[row]
            if m[row][col] < 0:
                m[row] = [-x for x in m[row]]
            done = True
            for r in range(row + 1, len(m)):
                if m[r][col] != 0:
                    q = m[r][col] // m[row][col]
                    m[r] = [x - q * y for x, y in zip(m[r], m[row])]
                    if m[r][col] != 0:
                        done = False
            if done:
                break
        if row < len(m) and m[row][col] != 0:
            for r in range(row):
                q = m[r][col] // m[row][col]
                if q != 0:
                    m[r] = [x - q * y for x, y in zip(m[r], m[row])]
            row += 1
    return [r for r in m if any(x != 0 for x in r)]


def lattice_basis_rows(vectors):
    """Canonical basis (HNF) of the lattice generated by rational row vectors."""
    vecs = [tuple(Fraction(x) for x in v) for v in vectors]
    if not vecs:
        return ()
    den = 1
    for v in vecs:
        for x in v:
            den = den * x.denominator // gcd(den, x.denominator)
    ints = [[int(x * den) for x in v] for v in vecs]
    hnf = _int_hnf(ints)
    return tuple(tuple(Fraction(x, den) for x in row) for row in hnf)


def clear_denominators(vec):
    """Return (integer vector, positive denominator d) with vec == ints / d."""
    den = 1
    fracs = [Fraction(x) for x in vec]
    for x in fracs:
        den = den * x.denominator // gcd(den, x.denominator)
    return tuple(int(x * den) for x in fracs), den
