"""The integer kernels of `_rational` against the Fraction oracles.

Exact arithmetic has one answer, so every public function must return
Fractions equal to the plain Fraction elimination of `oracles`, on random
rational matrices and on every root-datum and folding matrix the suite
builds.
"""

import random
from fractions import Fraction

import pytest

from twistfuse._rational import (clear_denominators, mat_det, mat_inverse,
                                 mat_mul, solve, transpose)
from twistfuse.cartan import AFFINE_R1, FINITE, LieType, build_cartan
from twistfuse.fold import build_folding

from oracles import (closed_form_M, fraction_mat_det, fraction_mat_inverse,
                     mat_mul_int)


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def assert_matches_oracle(a, b=None):
    """mat_mul against a @ a^T, a^T @ a (and a @ b); for square a, mat_det,
    mat_inverse and solve, or ValueError from both inverses when a is
    singular."""
    a = tuple(map(tuple, a))
    pairs = [(a, transpose(a)), (transpose(a), a)] + ([(a, b)] if b else [])
    for x, y in pairs:
        product = mat_mul(x, y)
        assert product == mat_mul_int(x, y) and all_fractions(product)
    n = len(a)
    if n != len(a[0]):
        return
    det = mat_det(a)
    assert det == fraction_mat_det(a) and type(det) is Fraction
    v = tuple(Fraction(i + 1, 2 + i % 3) for i in range(n))
    try:
        expected = fraction_mat_inverse(a)
    except ValueError:
        assert det == 0
        for call in (lambda: mat_inverse(a), lambda: solve(a, v)):
            with pytest.raises(ValueError, match="singular"):
                call()
        return
    inverse = mat_inverse(a)
    assert inverse == expected and all_fractions(inverse)
    x = solve(a, v)
    assert x == tuple(r for r, in mat_mul_int(expected, [[c] for c in v]))
    assert all_fractions([x])


def random_matrix(rng, n, m, integer):
    def entry():
        if integer:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-12, 12), rng.randint(1, 9))
    return [[entry() for _ in range(m)] for _ in range(n)]


@pytest.mark.parametrize("seed", range(4))
def test_kernels_match_fraction_oracle(seed):
    """Sizes 1-7; a third integer-only, a third made singular by one row
    that is a multiple of another or zero."""
    rng = random.Random(seed)
    for case in range(120):
        n = rng.randint(1, 7)
        a = random_matrix(rng, n, n, integer=case % 3 == 0)
        if case % 3 == 1:
            i, j = rng.randrange(n), rng.randrange(n)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            a[i] = [c * x for x in a[j]]
            if i != j:
                assert fraction_mat_det(a) == 0
        b = random_matrix(rng, n, rng.randint(1, 7), integer=case % 2 == 0)
        assert_matches_oracle(a, b)


def test_singular_input_raises():
    for a in (((0,),), ((1, 2), (2, 4)), ((Fraction(1, 2), 1), (1, 2))):
        assert mat_det(a) == 0
        with pytest.raises(ValueError, match="singular"):
            mat_inverse(a)
        with pytest.raises(ValueError, match="singular"):
            solve(a, (1,) * len(a))


def test_clear_denominators_is_least():
    ints, den = clear_denominators((Fraction(1, 6), Fraction(-3, 4), 2, Fraction(0)))
    assert (ints, den) == ((2, -9, 24, 0), 12)
    assert all(type(x) is int for x in ints)


# A superset of the untwisted types the suite builds, and every folding of
# them; a folding also builds its twisted and adjacent data.
UNTWISTED = ([("A", l) for l in (*range(1, 10), 20)] + [("B", l) for l in range(2, 8)]
             + [("C", l) for l in range(2, 6)] + [("D", l) for l in range(4, 7)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
FOLDINGS = ([(LieType("A", l, AFFINE_R1), None) for l in (3, 5, 7, 9)]
            + [(LieType("D", l, AFFINE_R1), None) for l in (5, 6)]
            + [(LieType("D", 4, AFFINE_R1), 2), (LieType("D", 4, AFFINE_R1), 3),
               (LieType("E", 6, AFFINE_R1), None)])


def datum_matrices(datum):
    """The Cartan matrix (singular when affine), the weight-space Gram
    matrix and the oracle's closed-form basis of the translation lattice M."""
    out = [datum.A, datum.gram_weights]
    if datum.is_affine():
        out.append(closed_form_M(datum))
    return out


@pytest.mark.parametrize("family,rank", UNTWISTED, ids=str)
def test_cartan_matrices_match_oracle(family, rank):
    datum = build_cartan(LieType(family, rank, AFFINE_R1))
    finite = build_cartan(LieType(family, rank, FINITE))
    for a in datum_matrices(datum) + datum_matrices(datum.finite) + datum_matrices(finite):
        assert_matches_oracle(a)


@pytest.mark.parametrize("type_,order", FOLDINGS, ids=str)
def test_folding_matrices_match_oracle(type_, order):
    f = build_folding(type_, order)
    for a in (f.Pstar, f.phi, f.iota_dual,
              *datum_matrices(f.twisted), *datum_matrices(f.adjacent)):
        assert_matches_oracle(a)
