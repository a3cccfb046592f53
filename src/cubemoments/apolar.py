"""Apolar polynomial algebra over the simplex frame.

The frame v_1, ..., v_n is any spanning set of n unit vectors in dimension
n-1 with pairwise inner products -1/(n-1) (rows of its Gram matrix M sum to
zero).  All polynomials here are homogeneous forms written in the frame
coordinates <v_i, z>; a monomial is a sorted multiset of frame indices and
every coefficient is an exact rational, so no irrational geometry ever
enters.  The apolar pairing of two products of linear forms is the permanent
of the matrix of pairwise Gram entries divided by (degree)!, extended
bilinearly.  Since the Gram entries are only 1 and -1/(n-1), that pairing
depends only on the pattern of equal indices, and monomial_pairing, the one
cached kernel for it, evaluates it in closed form by counting matchings of
that pattern, never by expanding a permanent.  apolar_gram pairs two lists
of forms at once, as the exact product C_p K C_q^T of their coefficient
rows and the monomial pairings K over the joint supports; apolar_ip is its
1 x 1 case, and beta reads the kernel at k shared indices.  The pairing
is positive definite on actual polynomials, and its kernel on formal
multisets is exactly the ideal generated by sum_i <v_i, z>, which is what
makes equals_zero a semantic zero test.

SpanPoly shares its arithmetic with the hypercube's MultilinearPoly
(pseudomoments.SparsePoly).  frame_image sends a degree-d homogeneous
multilinear polynomial to the frame by x^S -> prod_{i in S} <v_i, z>, and
the harmonic pieces are such images: specht_basis(n, d) is the image of the
column-difference products over standard two-row tableaux, a basis of the
space annihilated by every squared frame derivative <v_k, d/dz>^2, and
hS_span(n, S) is the image of the isotypic projection h_S.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial, reduce

from . import combinatorics as cb
from . import exactmat as xm
from .pseudomoments import (
    MultilinearPoly,
    SparsePoly,
    bilinear_gram,
    isotypic_h,
    pseudo_gram,
    specht_x_basis,
)
from .report import Report, verified
from .scalars import Q, QZERO, require_exact

JOHNSON_MAX_N = 12
PROJECTION_MAX_N = 8


class SpanPoly(SparsePoly):
    """Homogeneous form in the frame coordinates: sorted index tuple -> coeff;
    monomials multiply by merging their index multisets."""

    __slots__ = ("degree",)
    _SHAPE = ("n", "degree")

    def __init__(self, n: int, degree: int, coeffs=None):
        if n < 2:
            raise ValueError(f"frame needs n >= 2, got {n}")
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        self.n = n
        self.degree = degree
        super().__init__(coeffs)

    def _key(self, key):
        key = tuple(key)
        if len(key) != self.degree or tuple(sorted(key)) != key:
            raise ValueError(f"monomial {key} is not a sorted degree-{self.degree} multiset")
        if key and not (1 <= key[0] and key[-1] <= self.n):
            raise ValueError(f"monomial {key} uses indices outside [1, {self.n}]")
        return key

    _term = staticmethod(lambda key: f"v{list(key)}")

    def _product(self, other):
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                key = tuple(sorted(k1 + k2))
                prev = out.get(key)
                out[key] = c1 * c2 if prev is None else prev + c1 * c2
        return self._new(out, (self.n, self.degree + other.degree))


def span_monomial(n: int, indices, coeff=1) -> SpanPoly:
    """Product of frame linear forms prod <v_i, z> over a multiset of indices."""
    key = tuple(sorted(indices))
    return SpanPoly(n, len(key), {key: Q(require_exact(coeff))})


def frame_sum(n: int) -> SpanPoly:
    """sum_i <v_i, z>, the linear form whose multiples the pairing kills."""
    return SpanPoly(n, 1, {(i,): Q(1) for i in range(1, n + 1)})


# ---------------------------------------------------------------------------
# the apolar pairing


def _common_profile(a_key, b_key):
    """Multiset-intersection profile of two sorted index tuples: the sorted
    tuple of (multiplicity in A, multiplicity in B) over shared values."""
    shared = set(a_key).intersection(b_key)
    return tuple(sorted([(a_key.count(v), b_key.count(v)) for v in shared]))


@lru_cache(maxsize=None)
def monomial_pairing(n: int, degree: int, profile):
    """<B, B'> for two degree-d frame monomials whose shared indices have
    the given profile (_common_profile): the permanent of their Gram matrix
    G over d!.  G = cJ + (1-c)E with c = -1/(n-1) and E the 0/1 pattern of
    equal indices, so perm G = sum_k (1-c)^k c^(d-k) (d-k)! m_k, where m_k
    counts k-matchings of E; E is a union of complete bipartite blocks
    K_(ma,mb), each with C(ma,j) C(mb,j) j! matchings of size j.  Times
    (n-1)^d the sum is the integer sum_k n^k (-1)^(d-k) (d-k)! m_k."""
    matchings = [1]  # m_k for the blocks convolved so far
    for ma, mb in profile:
        merged = [0] * (len(matchings) + min(ma, mb))
        for j in range(min(ma, mb) + 1):
            block = math.comb(ma, j) * math.comb(mb, j) * math.factorial(j)
            for i, m_i in enumerate(matchings):
                merged[i + j] += m_i * block
        matchings = merged
    total = sum(
        n**k * (-1) ** (degree - k) * math.factorial(degree - k) * m_k
        for k, m_k in enumerate(matchings)
    )
    return Q(total, (n - 1) ** degree * math.factorial(degree))


def apolar_gram(ps, qs) -> list:
    """[[<p, q> for q in qs] for p in ps] for forms of one degree d on one
    frame: the product C_p K C_q^T of bilinear_gram, with
    K[B, B'] = monomial_pairing of the monomials B and B'."""
    polys = [*ps, *qs]
    if not polys:
        return []
    n, degree = polys[0].n, polys[0].degree
    if any(p.n != n for p in polys):
        raise ValueError("frame polynomials on different frames")
    if any(p.degree != degree for p in polys):
        raise ValueError("apolar_gram pairs forms of one degree")

    return bilinear_gram(ps, qs, _common_profile, partial(monomial_pairing, n, degree))


def apolar_ip(p: SpanPoly, q: SpanPoly):
    """Apolar pairing <p, q> = (1/deg!) p(d/dz) q, extended bilinearly from
    permanents of Gram entries on products of linear forms: the 1 x 1 case
    of apolar_gram.  Forms of different degrees pair to zero by convention."""
    if p.n != q.n:
        raise ValueError("frame polynomials on different frames")
    if p.degree != q.degree:
        return QZERO
    return apolar_gram([p], [q])[0][0]


def _integer_coeffs(p: SpanPoly):
    """(ints, den): p's coefficients scaled to Python ints by the lcm den of
    their denominators (exactmat.integer_form), keyed like p.coeffs."""
    (row,), den = xm.integer_form([list(p.coeffs.values())])
    return dict(zip(p.coeffs, row)), den


def _derive_ints(n: int, coeffs: dict, j: int) -> dict:
    """(n-1) <v_j, d/dz> on int coefficients: each factor <v_i, z> of a
    monomial is replaced in turn by (n-1) <v_j, v_i>, which is n-1 for
    i = j and -1 otherwise, so every coefficient stays an int."""
    out: dict = {}
    for key, c in coeffs.items():
        for pos, i in enumerate(key):
            if pos > 0 and key[pos - 1] == i:
                continue  # same value handled once with its multiplicity
            reduced = key[:pos] + key[pos + 1 :]
            add = c * key.count(i) * (n - 1 if i == j else -1)
            out[reduced] = out.get(reduced, 0) + add
    return out


def equals_zero(p: SpanPoly) -> bool:
    """Semantic zero test: the pairing is positive definite modulo the ideal
    of sum_i <v_i, z>, so p vanishes as a polynomial iff <p, p> = 0."""
    return apolar_ip(p, p) == 0


def apply_operator(q: SpanPoly, r: SpanPoly) -> SpanPoly:
    """q(d/dz) r via iterated frame derivatives: each monomial prod <v_j, z>
    of q acts as prod <v_j, d/dz>, the directional derivatives that replace
    a factor <v_i, z> of a monomial in turn by <v_j, v_i>.  r and q are
    scaled to ints once, by L_r and L_q, every step runs over ints
    (_derive_ints, a factor n-1 each), and the sum divides once by
    L_r L_q (n-1)^deg q."""
    if q.degree > r.degree:
        raise ValueError("operator degree exceeds target degree")
    ints, den_r = _integer_coeffs(r)
    weights, den_q = _integer_coeffs(q)
    out: dict = {}
    for key, w in weights.items():
        for term, c in reduce(partial(_derive_ints, r.n), key, ints).items():
            out[term] = out.get(term, 0) + w * c
    scale = den_r * den_q * (r.n - 1) ** q.degree
    return r._new({key: Q(c, scale) for key, c in out.items()}, (r.n, r.degree - q.degree))


@verified("apolar.adjointness", 2, 6, "random triple")
def adjointness_check(p: SpanPoly, q: SpanPoly, r: SpanPoly) -> Report:
    """Multiplication by q and application of q(d/dz) are adjoint:
    <p q, r> = (a! / (a+b)!) <p, q(d/dz) r> with a = deg p, b = deg q,
    deg r = a + b."""
    report = Report()
    a, b = p.degree, q.degree
    if r.degree != a + b:
        raise ValueError(f"degree mismatch: deg r = {r.degree} != {a} + {b}")
    lhs = apolar_ip(p * q, r)
    rhs = Q(math.factorial(a), math.factorial(a + b)) * apolar_ip(p, apply_operator(q, r))
    report.expect(lhs == rhs, f"adjointness fails: {lhs} != {rhs}")
    return report


# ---------------------------------------------------------------------------
# harmonic spaces


def frame_image(p: MultilinearPoly, d: int) -> SpanPoly:
    """The frame image of a degree-d homogeneous multilinear polynomial,
    x^S -> prod_{i in S} <v_i, z>.  It is linear, commutes with relabeling
    the coordinates and is multiplicative on products of disjoint support
    (x_i^2 = 1 has no frame counterpart); a term of any other size raises
    ValueError."""
    if not isinstance(p, MultilinearPoly):
        raise TypeError(f"frame_image maps a MultilinearPoly, got {type(p).__name__}")
    out = {}
    for mask, c in p.coeffs.items():
        if mask.bit_count() != d:
            raise ValueError(f"term x{cb.elements_of_mask(mask)} is not of degree {d}")
        out[cb.elements_of_mask(mask)] = c
    return SpanPoly(p.n, d, out)


def specht_basis(n: int, d: int) -> list:
    """Frame images of the column-difference products specht_x_basis(n, d),
    in tableau order: a basis of the degree-d simplex-harmonic space."""
    return [frame_image(w, d) for w in specht_x_basis(n, d)]


def is_frame_harmonic(p: SpanPoly) -> bool:
    """Whether every squared frame derivative <v_k, d/dz>^2 kills p, tested
    on the int form (n-1)^2 L <v_k, d/dz>^2 p, L the lcm of p's coefficient
    denominators.  Second derivatives of forms of degree <= 1 vanish
    identically."""
    if p.degree <= 1:
        return True
    ints, _ = _integer_coeffs(p)
    shape = (p.n, p.degree - 2)
    for k in range(1, p.n + 1):
        second = _derive_ints(p.n, _derive_ints(p.n, ints, k), k)
        if not equals_zero(p._new(second, shape)):
            return False
    return True


def hS_span(n: int, s_mask: int) -> SpanPoly:
    """Frame image of the isotypic projection h_S of the monomial over S."""
    return frame_image(isotypic_h(n, s_mask), s_mask.bit_count())


def sigma_sq(n: int, d: int):
    """Scale tying hypercube pseudoexpectations to frame pairings:
    sigma_d^2 = d! ((n-1)/n)^d prod_{i<d} (n-2i)/(n-2i-1)."""
    if not (0 <= d <= cb.d_max(n)):
        raise ValueError(f"need 0 <= d <= n/2, got n={n}, d={d}")
    v = Q(math.factorial(d)) * Q(n - 1, n) ** d
    for i in range(d):
        v = v * Q(n - 2 * i, n - 2 * i - 1)
    return v


def beta(n: int, d: int, k: int):
    """Pairing of two degree-d frame monomials whose index sets share k
    elements, each once: monomial_pairing at the profile ((1, 1),) * k."""
    if not (0 <= k <= d <= cb.d_max(n)):
        raise ValueError(f"need 0 <= k <= d <= n/2, got n={n}, d={d}, k={k}")
    return monomial_pairing(n, d, ((1, 1),) * k)


def johnson_slice_gram(n: int, d: int) -> list:
    """The claimed Gram over (d-1)-subsets: diagonal n-d+1, entry 1 between
    subsets meeting in d-2 points, zero otherwise (rows in canonical order),
    as Python ints.  johnson_slice_check certifies its spectrum floor
    n-2d+2 by one exact elimination; since the floor is at least 2, that
    also certifies positive definiteness."""
    if not (1 <= d <= cb.d_max(n)):
        raise ValueError(f"need 1 <= d <= n/2, got n={n}, d={d}")
    if n > JOHNSON_MAX_N:
        raise ValueError(f"guarded at n <= {JOHNSON_MAX_N}, got {n}")
    subsets = cb.subsets_of_size(n, d - 1)
    return [
        [n - d + 1 if s == t else int((s & t).bit_count() == d - 2) for t in subsets]
        for s in subsets
    ]


def _specht_gram(n: int, d: int, report: Report):
    """(basis, gram): the degree-d Specht basis and its apolar Gram matrix,
    after checking that the basis has C(n,d) - C(n,d-1) members and that the
    Gram matrix has full rank."""
    basis = specht_basis(n, d)
    dim = cb.two_row_tableau_count(n, d)
    report.expect(len(basis) == dim, f"Specht count at n={n}, d={d}")
    gram = apolar_gram(basis, basis)
    report.expect(xm.rank_at_least(gram, dim), f"singular Specht Gram at n={n}, d={d}")
    return basis, gram


@verified("apolar.projection_consistency", 2, 7, "projection solve", PROJECTION_MAX_N)
def harmonic_projection_consistency(n: int) -> Report:
    """hS_span really is the apolar-orthogonal projection of the frame
    monomial over S onto the harmonic space: for every degree d <= n/2,
    solve the Specht Gram system exactly, for all size-d monomials at once,
    take every projection as one exact product of the solution with the
    basis coefficient rows, and compare (n <= 8)."""
    cb.check_n(n, cap=PROJECTION_MAX_N)
    report = Report()
    for d in range(cb.d_max(n) + 1):
        basis, gram = _specht_gram(n, d, report)
        masks = cb.subsets_of_size(n, d)
        monomials = [span_monomial(n, cb.elements_of_mask(s)) for s in masks]
        solution = xm.solve_consistent(gram, apolar_gram(basis, monomials))
        keys = sorted(set().union(*(b.coeffs for b in basis)))
        rows = [[b.coeffs.get(key, 0) for key in keys] for b in basis]
        projections = xm.rational_product([list(col) for col in zip(*solution)], rows)
        for s, projection in zip(masks, projections):
            difference = SpanPoly(n, d, dict(zip(keys, projection))) - hS_span(n, s)
            report.expect(
                equals_zero(difference),
                f"projection mismatch at n={n}, S={cb.elements_of_mask(s)}",
            )
    return report


# ---------------------------------------------------------------------------
# identity checks over one n


@verified("apolar.harmonicity", 2, 7, "harmonicity sweep")
def harmonicity_check(n: int) -> Report:
    """Specht products and subset projections are frame harmonic."""
    report = Report()
    for d in range(1, cb.d_max(n) + 1):
        for p in specht_basis(n, d):
            report.expect(
                is_frame_harmonic(p), f"Specht product not harmonic, n={n}, d={d}"
            )
        for mask in cb.subsets_of_size(n, d):
            report.expect(
                is_frame_harmonic(hS_span(n, mask)),
                f"h_S span not harmonic at n={n}, S={mask:b}",
            )
    return report


@verified("apolar.specht_gram", 2, 9, "Gram rank")
def specht_gram_check(n: int) -> Report:
    """The Specht basis has C(n,d) - C(n,d-1) members and a nonsingular
    apolar Gram matrix, for every 1 <= d <= n/2."""
    report = Report()
    for d in range(1, cb.d_max(n) + 1):
        _specht_gram(n, d, report)
    return report


@verified("apolar.johnson_slice", 2, 10, "slice Gram", JOHNSON_MAX_N)
def johnson_slice_check(n: int) -> Report:
    """Slice Grams have spectrum floor n - 2d + 2: one exact PSD test of
    G - floor * I per degree.  Since d <= n/2 the floor is at least 2, so a
    pass gives G >= floor * I > 0, and G not PSD already fails the test; a
    separate PSD test of G could only repeat its verdict."""
    report = Report()
    for d in range(1, cb.d_max(n) + 1):
        floor = n - 2 * d + 2
        shifted = johnson_slice_gram(n, d)
        for i, row in enumerate(shifted):
            row[i] -= floor
        ok, witness = xm.psd_pivots(shifted)
        report.expect(
            ok, f"slice Gram below floor {floor} at n={n}, d={d}: {witness}"
        )
    return report


@verified("apolar.sigma_bridge", 2, 9, "bridge Gram")
def sigma_bridge_check(n: int) -> Report:
    """sigma_d^2 <h_S, h_T> equals E[h_S h_T] for all same-size pairs, and
    E[h_S h_T] vanishes for pairs of different sizes, in either order and at
    every overlap (one pair per orbit, by relabeling invariance); apolar_ip
    pairs forms of different degrees to zero by convention.  Each h_S is
    built once; the cross-degree moments are one pseudo_gram row per
    pair of degrees, since every orbit representative shares S = {1..d}."""
    report = Report()
    dm = cb.d_max(n)
    hs = {s: isotypic_h(n, s) for s in cb.enumerate_subsets(n, dm)}
    spans = {s: frame_image(h, s.bit_count()) for s, h in hs.items()}  # hS_span
    for d in range(dm + 1):
        scale = sigma_sq(n, d)
        masks = cb.subsets_of_size(n, d)
        polys = [hs[s] for s in masks]
        row = [spans[s] for s in masks]
        pairings = apolar_gram(row, row)
        moments = pseudo_gram(n, polys, polys)
        for i, s in enumerate(masks):
            for j, t in enumerate(masks):
                lhs = scale * pairings[i][j]
                rhs = moments[i][j]
                report.expect(
                    lhs == rhs,
                    f"bridge fails at n={n}, S={s:b}, T={t:b}: {lhs} != {rhs}",
                )
    for d in range(dm + 1):
        for e in range(dm + 1):
            if d == e:
                continue
            pairs = cb.overlap_pairs(n, d, e)
            s = pairs[0][1]
            (cross,) = pseudo_gram(n, [hs[s]], [hs[t] for _, _, t in pairs])
            for (ov, _, _), value in zip(pairs, cross):
                report.expect(
                    value == 0,
                    f"E[h_S h_T] != 0 for |S|={d}, |T|={e}, overlap {ov}, n={n}",
                )
    return report


@verified("apolar.ideal_kernel", 2, 7, "kernel sweep")
def ideal_kernel_check(n: int) -> Report:
    """Multiples of the frame sum are semantically zero."""
    report = Report()
    total = frame_sum(n)
    for d in range(cb.d_max(n)):
        for mask in cb.subsets_of_size(n, d):
            p = total * span_monomial(n, cb.elements_of_mask(mask))
            report.expect(
                equals_zero(p),
                f"(sum v_i) z^K not in the kernel at n={n}, K={mask:b}",
            )
    return report


@verified("apolar.beta_identity", 2, 10, "pairing table")
def beta_identity_check(n: int) -> Report:
    """Alternating overlap sums collapse to (-1)^d (n/(n-1))^d / d!."""
    report = Report()
    for d in range(1, cb.d_max(n) + 1):
        total = sum(
            (-1) ** k * cb.binomial(d, k) * beta(n, d, k) for k in range(d + 1)
        )
        want = Q((-1) ** d * n**d, math.factorial(d) * (n - 1) ** d)
        report.expect(
            total == want,
            f"alternating beta sum at n={n}, d={d}: {total} != {want}",
        )
    return report
