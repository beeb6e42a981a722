"""Independent oracles the tests check library results against.

Everything here is implemented from first principles (textbook algorithms,
closed forms, exhaustive enumeration) without calling the code paths under
test, so an agreement is meaningful.  The scalar Kac-Walton rows and the
branching reference decompose a character product or restriction by
peeling off highest weights with `rep.freudenthal`, and fold with
`weyl.alcove_fold`; the library's Klimyk kernel and its vectorised fold
are used by neither.
"""

import itertools
import math
from fractions import Fraction


def mat_mul_int(a, b):
    """Product of two integer matrices given as tuples of row tuples."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(ar, bc)) for bc in bt) for ar in a)


def primitive_null_vector(matrix):
    """Kernel vector of a square integer matrix by plain Gaussian elimination,
    scaled to primitive integers with positive leading entry."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(0)] for row in matrix]
    # forward elimination
    rank_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        rank_cols.append(c)
        r += 1
    free = [c for c in range(n) if c not in rank_cols]
    assert len(free) == 1, "expected a one-dimensional kernel"
    v = [Fraction(0)] * n
    v[free[0]] = Fraction(1)
    for i, c in enumerate(rank_cols):
        v[c] = -m[i][free[0]]
    lcm = 1
    for x in v:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def inverse_times_diag(a, d):
    """A^-T  D as Fractions: the weight-space Gram matrix, independently."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(i == j) for j in range(n)]
           for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    ainv = [row[n:] for row in aug]
    return [[Fraction(d[j]) * ainv[j][i] for j in range(n)] for i in range(n)]


def sl2_string(k):
    """Weights of the (k+1)-dimensional sl2 irreducible."""
    return {(j,): 1 for j in range(k, -k - 1, -2)}


def clebsch_gordan_range(a, b):
    """Highest weights in the sl2 product (a) x (b)."""
    return list(range(abs(a - b), a + b + 1, 2))


def weight_dict(ws):
    """{label tuple: multiplicity} of a `rep.WeightSystem`, whose weights
    must be distinct."""
    out = dict(zip(map(tuple, ws.weights.tolist()), ws.mults.tolist()))
    assert len(out) == len(ws.mults), "a weight occurs twice"
    return out


def convolve_weight_dicts(s1, s2):
    out = {}
    for w1, m1 in s1.items():
        for w2, m2 in s2.items():
            key = tuple(x + y for x, y in zip(w1, w2))
            out[key] = out.get(key, 0) + m1 * m2
    return out


def a1_s_matrix(k):
    """Closed-form S for the rank-1 untwisted algebra at level k."""
    return [[math.sqrt(2 / (k + 2)) * math.sin(math.pi * (a + 1) * (b + 1) / (k + 2))
             for b in range(k + 1)] for a in range(k + 1)]


def highest_root_labels(a_fin, d_fin):
    """Dynkin labels of the highest root: the first long simple root,
    reflected at its first negative label until no label is negative."""
    l = len(a_fin)
    start = d_fin.index(max(d_fin))
    labels = [a_fin[j][start] for j in range(l)]
    while True:
        i = next((i for i in range(l) if labels[i] < 0), None)
        if i is None:
            return tuple(labels)
        c = labels[i]
        for j in range(l):
            labels[j] -= c * a_fin[j][i]


def weyl_orbit_set(a_fin, v, nodes=None):
    """Finite Weyl orbit of the label tuple v, by a breadth-first search that
    applies every simple reflection to every point found; with `nodes`, the
    orbit of the subgroup generated by the reflections of the first nodes."""
    l = len(a_fin)
    seen = {tuple(v)}
    frontier = [tuple(v)]
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(l if nodes is None else nodes):
                c = u[i]
                if c == 0:
                    continue
                w = tuple(u[j] - c * a_fin[j][i] for j in range(l))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def brute_force_fold(affine_datum, k, coords, box=4):
    """Exhaustive reduction of a rho-shifted weight modulo the level-shifted
    affine Weyl action: try every finite Weyl element and every translation
    by t * M with basis coefficients in [-box, box].

    Returns (sign, rep labels) with sign 0 on a wall.  Asserts that some
    orbit point lands in the closed fundamental alcove.
    """
    from twistfuse.cartan import lattice_M
    from twistfuse._rational import mat_vec
    from twistfuse.weyl import generate_weyl

    t = k + affine_datum.hdual
    fin = affine_datum.finite
    l = fin.rank
    covee = affine_datum.comarks[1:]
    weyl = generate_weyl(fin)
    m_basis = [tuple(x for x in v) for v in lattice_M(affine_datum).basis]

    # w x is an integer vector for integer x, so w x + T is integral exactly
    # when the translation T is: keep the integral translations of the box,
    # once for every Weyl element.
    translations = []
    for coeffs in itertools.product(range(-box, box + 1), repeat=l):
        tr = tuple(t * sum(c * m_basis[r][i] for r, c in enumerate(coeffs))
                   for i in range(l))
        if all(Fraction(v).denominator == 1 for v in tr):
            translations.append(tuple(int(v) for v in tr))
    hits = []
    for w, sign in zip(weyl.elements, weyl.signs):
        wx = mat_vec(w, coords)
        assert all(Fraction(v).denominator == 1 for v in wx)
        for tr in translations:
            y = tuple(int(a + b) for a, b in zip(wx, tr))
            y0 = t - sum(covee[i] * y[i] for i in range(l))
            labels = (y0,) + y
            if all(v >= 0 for v in labels):
                hits.append((sign, y, labels))
    assert hits, "no orbit point reached the closed alcove; enlarge the box"
    if any(0 in labels for _, _, labels in hits):
        return 0, None
    reps = {y for _, y, _ in hits}
    assert len(reps) == 1, f"ambiguous interior representative: {reps}"
    signs = {s for s, _, _ in hits}
    assert len(signs) == 1
    return signs.pop(), next(iter(reps))


def materialised_weyl_sum(fin, t, row_shifted, col_shifted, bits=53):
    """sum_w eps(w) exp(-2 pi i (row, w(col)) / t) over the materialised
    Weyl group: the construction the S- and a-matrices used before the
    signed-orbit kernel, vectorised over the group elements.

    Same arguments as `twistfuse.smatrix._weyl_sum_matrix`.  Each exponent
    is an exact integer over gram_den * den * t, reduced before `exp` is
    taken of it; the signed terms are then summed, with no orbit walk and no
    residue counting.
    """
    import numpy as np
    from twistfuse.weyl import generate_weyl

    assert bits == 53, "the oracle evaluates in double precision only"
    weyl = generate_weyl(fin)
    mats = np.array(weyl.elements, dtype=np.int64)        # (|W|, l, l)
    signs = np.array(weyl.signs, dtype=float)
    l = fin.rank
    gram_den = 1
    for row in fin.gram_weights:
        for x in row:
            gram_den = gram_den * x.denominator // math.gcd(gram_den, x.denominator)
    gram_int = [[int(x * gram_den) for x in row] for row in fin.gram_weights]
    u = np.array([[sum(gram_int[a][b] * lam[b] for b in range(l)) for a in range(l)]
                  for lam in row_shifted], dtype=np.int64)
    out = np.zeros((len(row_shifted), len(col_shifted)), dtype=complex)
    for j, (mu, mu_den) in enumerate(col_shifted):
        den = gram_den * mu_den * t
        wv = mats @ np.array(mu, dtype=np.int64)           # w(col), (|W|, l)
        assert l * int(abs(u).max()) * int(abs(wv).max()) < 2 ** 62
        num = (u @ wv.T) % den                             # (rows, |W|)
        out[:, j] = (signs * np.exp(1j * (-2.0 * math.pi * (num / den)))).sum(axis=1)
    return out


def one_walk_weyl_sum(fin, t, row_shifted, col_shifted):
    """sum_w eps(w) exp(-2 pi i (w(row), col) / t) by one walk of all of W
    per block of rows: the orbit kernel of the S- and a-matrices before the
    parabolic factorisation, with its budgets.

    Same arguments as `twistfuse.smatrix._weyl_sum_matrix`, whose results
    it must match bit for bit: the exponents of one cell are the same |W|
    integers mod N, so the signed residue counts are the same exact
    integers, contracted in the same order.  `weyl.signed_orbit` walks a
    stack of up to 2^16 / |W| rows over the full group at once.
    """
    import numpy as np
    from twistfuse.rep import _gram_int
    from twistfuse.weyl import signed_orbit, weyl_order

    block, counts_cap, walk_cap = 1 << 18, 1 << 13, 1 << 16
    gram_int, gram_den = _gram_int(fin)
    l = fin.rank
    groups = {}
    for j, (mu, den) in enumerate(col_shifted):
        groups.setdefault(den, []).append((j, mu))
    order = weyl_order(fin)
    tiles = []
    for den, members in groups.items():
        n = gram_den * den * t
        gc = np.array([[sum(gram_int[a][b] * mu[b] for b in range(l)) % n
                        for _, mu in members] for a in range(l)], dtype=np.int64)
        cols = np.array([j for j, _ in members])
        roots = np.exp(1j * (-2.0 * math.pi * (np.arange(n) / n)))
        cells = max(1, min(block // order, counts_cap // n))
        for lo in range(0, len(members), cells):
            hi = min(lo + cells, len(members))
            tiles.append((cols[lo:hi], n, gc[:, lo:hi], roots,
                          max(1, cells // (hi - lo))))
    out = np.zeros((len(row_shifted), len(col_shifted)), dtype=complex)
    walk = max(1, walk_cap // order)
    for start in range(0, len(row_shifted), walk):
        pts, signs = signed_orbit(fin, row_shifted[start:start + walk])
        signs = signs.astype(float)
        for cols, n, part, roots, step in tiles:
            m = len(cols)
            for r0 in range(0, pts.shape[1], step):
                sub = pts[:, r0:r0 + step]
                rows = sub.shape[1]
                exps = (sub.reshape(-1, l) @ part).reshape(len(sub), -1)
                exps %= n
                exps += n * np.arange(rows * m)
                counts = np.bincount(exps.ravel(),
                                     weights=np.repeat(signs, rows * m),
                                     minlength=rows * m * n)
                counts = np.rint(counts, out=counts).astype(complex)
                out[start + r0:start + r0 + rows, cols] = np.einsum(
                    "cr,r->c", counts.reshape(-1, n), roots).reshape(rows, m)
    return out


def _fraction_positive_roots(fin):
    """Positive roots of fin as (labels, simple-root coefficients): the
    reflection closure of the simple roots, kept where A^-1 labels >= 0."""
    a = fin.A
    l = fin.rank
    simple = [tuple(a[r][i] for r in range(l)) for i in range(l)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(l):
                if v[i]:
                    w = tuple(v[j] - v[i] * a[j][i] for j in range(l))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    ainv = inverse_times_diag(a, [1] * l)  # A^-T; row j of it is column j of A^-1
    out = []
    for v in sorted(seen):
        coeffs = [sum(ainv[j][i] * v[j] for j in range(l)) for i in range(l)]
        assert all(c.denominator == 1 for c in coeffs)
        if all(c >= 0 for c in coeffs):
            out.append((v, tuple(int(c) for c in coeffs)))
    assert len(out) == fin.npos
    return out


def _fraction_ip(fin, u, v):
    g = fin.gram_weights
    return sum(Fraction(u[i]) * g[i][j] * v[j]
               for i in range(len(u)) for j in range(len(v)))


def fraction_dim(fin, coords):
    """Weyl dimension prod (lam + rho, alpha) / (rho, alpha) as a product of
    Fractions, one positive root at a time."""
    rho = (1,) * fin.rank
    shifted = tuple(c + 1 for c in coords)
    out = Fraction(1)
    for alpha, _ in _fraction_positive_roots(fin):
        out *= _fraction_ip(fin, shifted, alpha) / _fraction_ip(fin, rho, alpha)
    assert out.denominator == 1 and out > 0
    return int(out)


def fraction_freudenthal(fin, coords):
    """Weight multiplicities {labels: m} of the irreducible with highest
    weight coords, by the Freudenthal recursion in Fraction arithmetic."""
    l = fin.rank
    a = fin.A
    roots = _fraction_positive_roots(fin)
    lam_rho = tuple(c + 1 for c in coords)
    norm_top = _fraction_ip(fin, lam_rho, lam_rho)
    mults = {tuple(coords): 1}
    depth = {tuple(coords): (0,) * l}
    level = [tuple(coords)]
    while level:
        candidates = {}
        for v in level:
            for i in range(l):
                cand = tuple(v[j] - a[j][i] for j in range(l))
                if cand not in mults and cand not in candidates:
                    candidates[cand] = tuple(depth[v][j] + (j == i) for j in range(l))
        nxt = []
        for mu, dmu in candidates.items():
            mu_rho = tuple(c + 1 for c in mu)
            denom = norm_top - _fraction_ip(fin, mu_rho, mu_rho)
            if denom <= 0:
                continue
            acc = Fraction(0)
            for alpha, ac in roots:
                jmax = min(dmu[i] // ac[i] for i in range(l) if ac[i] > 0)
                for j in range(1, jmax + 1):
                    up = tuple(mu[r] + j * alpha[r] for r in range(l))
                    if up in mults:
                        acc += mults[up] * _fraction_ip(fin, up, alpha)
            m = 2 * acc / denom
            assert m.denominator == 1 and m >= 0
            if m:
                mults[mu] = int(m)
                depth[mu] = dmu
                nxt.append(mu)
        level = nxt
    return mults


def lattice_freudenthal(fin, coords):
    """Weight multiplicities {labels: m} of the irreducible with highest
    weight coords, by the Freudenthal recursion over the whole weight
    lattice below coords, simple-root depth by depth, in integers: the
    Fraction recursion above with the Gram denominator cleared, so that each
    multiplicity is one exact divmod."""
    l = fin.rank
    a = fin.A
    den = math.lcm(*(x.denominator for row in fin.gram_weights for x in row))
    g = [[int(x * den) for x in row] for row in fin.gram_weights]
    simple = [tuple(a[r][i] for r in range(l)) for i in range(l)]
    roots = []
    for alpha, coeffs in _fraction_positive_roots(fin):
        ga = tuple(sum(g[i][j] * alpha[j] for j in range(l)) for i in range(l))
        roots.append((alpha, ga, sum(x * y for x, y in zip(alpha, ga)), coeffs))

    def norm_rho(v):
        x = [c + 1 for c in v]
        return sum(x[i] * g[i][j] * x[j] for i in range(l) for j in range(l))

    coords = tuple(coords)
    norm_top = norm_rho(coords)
    mults = {coords: 1}
    depth = {coords: (0,) * l}
    level = [coords]
    while level:
        candidates = {}
        for v in level:
            for i, col in enumerate(simple):
                cand = tuple(x - y for x, y in zip(v, col))
                if cand not in mults and cand not in candidates:
                    candidates[cand] = tuple(d + (j == i) for j, d in enumerate(depth[v]))
        nxt = []
        for mu, dmu in candidates.items():
            denom = norm_top - norm_rho(mu)
            if denom <= 0:
                continue
            acc = 0
            for alpha, ga, alpha_norm, ac in roots:
                jmax = min(dmu[i] // c for i, c in enumerate(ac) if c)
                ip = sum(x * y for x, y in zip(mu, ga))
                for j in range(1, jmax + 1):
                    up = tuple(x + j * y for x, y in zip(mu, alpha))
                    if up in mults:
                        acc += mults[up] * (ip + j * alpha_norm)
            m, r = divmod(2 * acc, denom)
            assert r == 0 and m >= 0
            if m:
                mults[mu] = m
                depth[mu] = dmu
                nxt.append(mu)
        level = nxt
    return mults


def repr17_complex_json(entries):
    """{"re": ..., "im": ...} of a complex array, each double rebuilt from
    its 17-significant-digit string one entry at a time: the S-matrix
    serialiser the emitter's bytes must reproduce."""
    return {"re": [[float(f"{v.real:.17g}") for v in row] for row in entries],
            "im": [[float(f"{v.imag:.17g}") for v in row] for row in entries]}


def fusion_table_json_dict(table):
    """A FusionTable as the schema-1 dict, built label by label for every
    entry: the dict whose compact json.dumps the table's emitter must
    reproduce byte for byte."""
    def label(x):
        if hasattr(x, "sector"):
            return {"sector": x.sector, "level": x.weight.level,
                    "weight": [int(c) for c in x.weight.finite.coords]}
        return {"level": x.level, "weight": [int(c) for c in x.finite.coords]}

    items = [{"m1": label(m1), "m2": label(m2), "m3": label(m3), "N": n,
              "method": table.method}
             for (m1, m2, m3), n in table.items()]
    return {"schema": 1, "algebra": table.algebra, "level": table.level,
            "twist": table.twist, "pattern": table.pattern, "entries": items}


def fusion_table_text(table):
    """A FusionTable as text, one line per entry, formatted label by label
    for every entry: the text its streamed text emitter must reproduce."""
    width = max(len(str(x)) for slot in table.slots for x in slot)
    return "\n".join(f"{str(m1):<{width}}  {str(m2):<{width}}  "
                     f"{str(m3):<{width}}  {n}  [{table.method}]"
                     for (m1, m2, m3), n in table.items())


def peel(fin, weights):
    """{highest weight: multiplicity} of a W-invariant weight multiset
    {labels: m} of the finite datum fin: take a dominant weight of largest
    |x + rho|^2, which is a highest weight of the multiset, remove its
    character (`rep.freudenthal`) as often as it occurs, and repeat."""
    from twistfuse.rep import freudenthal

    def norm_rho(w):
        x = tuple(c + 1 for c in w)
        return _fraction_ip(fin, x, x)

    rest = {w: m for w, m in weights.items() if m}
    out = {}
    while rest:
        top = max((w for w in rest if min(w) >= 0), key=lambda w: (norm_rho(w), w))
        m = rest[top]
        assert m > 0, f"{top} has multiplicity {m} at the top"
        out[top] = m
        for w, mw in weight_dict(freudenthal(fin, top)).items():
            rest[w] = rest.get(w, 0) - m * mw
            if not rest[w]:
                del rest[w]
    return out


def restricted_weights(folding, lam):
    """{labels: m} of the weights of the base irreducible lam restricted to
    the twisted finite part through iota_dual."""
    from twistfuse.rep import freudenthal
    out = {}
    for w, m in weight_dict(freudenthal(folding.base.finite, lam)).items():
        y = tuple(sum(int(r) * c for r, c in zip(row, w)) for row in folding.iota_dual)
        out[y] = out.get(y, 0) + m
    return out


def peel_branch(folding, lam):
    """Branching of the base irreducible lam to the twisted finite part, by
    restricting its weights and peeling."""
    return peel(folding.twisted.finite, restricted_weights(folding, lam))


def scalar_kac_walton_row(affine_datum, k, lam1, lam2):
    """{label tuple: N} of the pair lam1, lam2 (label tuples) by the scalar
    route: the character product of lam1 and lam2, peeled into
    irreducibles, then `weyl.alcove_fold` of each component, summed with
    the fold signs."""
    from twistfuse.rep import freudenthal
    fin = affine_datum.finite
    product = convolve_weight_dicts(weight_dict(freudenthal(fin, lam1)),
                                    weight_dict(freudenthal(fin, lam2)))
    return _fold_components(affine_datum, k, peel(fin, product))


def scalar_twisted_kac_walton_row(folding, k, lam1, lam2_dag):
    """{label tuple: N} of the untwisted lam1 and the twisted lam2_dag (label
    tuples) by the scalar route: the restricted weights of lam1 times the
    character of lam2_dag, peeled into irreducibles of the twisted finite
    part, then the signed fold over the twisted alcove."""
    from twistfuse.rep import freudenthal
    fin = folding.twisted.finite
    product = convolve_weight_dicts(restricted_weights(folding, lam1),
                                    weight_dict(freudenthal(fin, lam2_dag)))
    return _fold_components(folding.twisted, k, peel(fin, product))


def _fold_components(affine_datum, k, components):
    from twistfuse.weyl import alcove_fold
    out = {}
    for mu, mult in components.items():
        res = alcove_fold(affine_datum, k,
                          affine_datum.finite.weight(tuple(c + 1 for c in mu)))
        if res.sign:
            key = tuple(c - 1 for c in res.rep.coords)
            out[key] = out.get(key, 0) + res.sign * mult
    return {key: v for key, v in out.items() if v}
