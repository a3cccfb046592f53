"""Apolar polynomial algebra over the simplex frame.

The frame v_1, ..., v_n is any spanning set of n unit vectors in dimension
n-1 with pairwise inner products -1/(n-1) (rows of its Gram matrix M sum to
zero).  All polynomials here are homogeneous forms written in the frame
coordinates <v_i, z>; a monomial is a sorted multiset of frame indices and
every coefficient is an exact rational, so no irrational geometry ever
enters.  The apolar pairing of two products of linear forms is the permanent
of the matrix of pairwise Gram entries divided by (degree)!, extended
bilinearly.  Since the Gram entries are only 1 and -1/(n-1), that permanent
is evaluated in closed form by counting matchings of the pattern of equal
indices, never by expanding a permanent.  The pairing is positive definite
on actual polynomials, and its kernel on formal multisets is exactly the
ideal generated by sum_i <v_i, z>, which is what makes equals_zero a
semantic zero test.

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
from functools import lru_cache, reduce

from . import combinatorics as cb
from . import exactmat as xm
from .pseudomoments import (
    MultilinearPoly,
    SparsePoly,
    isotypic_dimension,
    isotypic_h,
    pseudo_expect,
    specht_x_basis,
)
from .report import Report
from .scalars import Q, QZERO, require_exact

JOHNSON_MAX_N = 12
PROJECTION_MAX_N = 8


def frame_gram_entry(n: int, i: int, j: int):
    """<v_i, v_j>: 1 on the diagonal, -1/(n-1) off it (indices 1-based)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"frame indices {i}, {j} outside [1, {n}]")
    return Q(1) if i == j else Q(-1, n - 1)


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

    @staticmethod
    def _relabel_key(perm, key):
        return tuple(sorted(perm[i - 1] + 1 for i in key))

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
    list of (multiplicity in A, multiplicity in B) over shared values."""
    common = []
    i = j = 0
    while i < len(a_key) and j < len(b_key):
        if a_key[i] < b_key[j]:
            i += 1
        elif a_key[i] > b_key[j]:
            j += 1
        else:
            v = a_key[i]
            ma = mb = 0
            while i < len(a_key) and a_key[i] == v:
                ma += 1
                i += 1
            while j < len(b_key) and b_key[j] == v:
                mb += 1
                j += 1
            common.append((ma, mb))
    common.sort()
    return tuple(common)


@lru_cache(maxsize=None)
def _pattern_permanent(n: int, degree: int, profile):
    """Permanent of the Gram matrix G between two degree-d monomials whose
    shared indices have the given profile.  G = cJ + (1-c)E with
    c = -1/(n-1) and E the 0/1 pattern of equal indices, so
    perm G = sum_k (1-c)^k c^(d-k) (d-k)! m_k, where m_k counts k-matchings
    of E; E is a union of complete bipartite blocks K_(ma,mb), each with
    C(ma,j) C(mb,j) j! matchings of size j.  Times (n-1)^d the sum is the
    integer sum_k n^k (-1)^(d-k) (d-k)! m_k."""
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
    return Q(total, (n - 1) ** degree)


def apolar_ip(p: SpanPoly, q: SpanPoly):
    """Apolar pairing <p, q> = (1/deg!) p(d/dz) q, extended bilinearly from
    permanents of Gram entries on products of linear forms.  Forms of
    different degrees pair to zero by convention."""
    if p.n != q.n:
        raise ValueError("frame polynomials on different frames")
    if p.degree != q.degree:
        return QZERO
    n, degree = p.n, p.degree
    total = QZERO
    for a_key, a_c in p.coeffs.items():
        inner = QZERO
        for b_key, b_c in q.coeffs.items():
            inner = inner + b_c * _pattern_permanent(
                n, degree, _common_profile(a_key, b_key)
            )
        total = total + a_c * inner
    return total / math.factorial(degree)


def derive(p: SpanPoly, j: int) -> SpanPoly:
    """Directional frame derivative <v_j, d/dz> p.

    On a monomial it replaces each factor <v_i, z> in turn by <v_j, v_i>.
    Differentiating a degree-0 form would need the degree -1 zero space,
    which is deliberately not represented: that case raises.
    """
    if p.degree == 0:
        raise ValueError("cannot differentiate a degree-0 frame polynomial")
    if not (1 <= j <= p.n):
        raise ValueError(f"frame index {j} outside [1, {p.n}]")
    out: dict = {}
    for key, c in p.coeffs.items():
        for pos, i in enumerate(key):
            if pos > 0 and key[pos - 1] == i:
                continue  # same value handled once with its multiplicity
            mult = key.count(i)
            reduced = key[:pos] + key[pos + 1 :]
            add = c * mult * frame_gram_entry(p.n, j, i)
            out[reduced] = out.get(reduced, QZERO) + add
    return SpanPoly(p.n, p.degree - 1, out)


def equals_zero(p: SpanPoly) -> bool:
    """Semantic zero test: the pairing is positive definite modulo the ideal
    of sum_i <v_i, z>, so p vanishes as a polynomial iff <p, p> = 0."""
    return apolar_ip(p, p) == 0


def apply_operator(q: SpanPoly, r: SpanPoly) -> SpanPoly:
    """q(d/dz) r via iterated frame derivatives, one monomial at a time."""
    if q.degree > r.degree:
        raise ValueError("operator degree exceeds target degree")
    terms = (reduce(derive, key, r).scaled(c) for key, c in q.coeffs.items())
    return sum(terms, SpanPoly(r.n, r.degree - q.degree))


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
    x^S -> prod_{i in S} <v_i, z>.  It is linear, commutes with relabel and
    is multiplicative on products of disjoint support (x_i^2 = 1 has no
    frame counterpart); a term of any other size raises ValueError."""
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
    """Whether every squared frame derivative <v_k, d/dz>^2 kills p.  Second
    derivatives of forms of degree <= 1 vanish identically."""
    if p.degree <= 1:
        return True
    for k in range(1, p.n + 1):
        if not equals_zero(derive(derive(p, k), k)):
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
    elements: permanent of the canonical pattern over the frame Gram, / d!."""
    if not (0 <= k <= d <= cb.d_max(n)):
        raise ValueError(f"need 0 <= k <= d <= n/2, got n={n}, d={d}, k={k}")
    if 2 * d - k > n:
        raise ValueError(f"pattern needs 2d-k <= n, got n={n}, d={d}, k={k}")
    a_idx = range(1, d + 1)
    b_idx = list(range(1, k + 1)) + list(range(d + 1, 2 * d - k + 1))
    return apolar_ip(span_monomial(n, a_idx), span_monomial(n, b_idx))


def johnson_slice_gram(n: int, d: int) -> list:
    """The claimed Gram over (d-1)-subsets: diagonal n-d+1, entry 1 between
    subsets meeting in d-2 points, zero otherwise (rows in canonical order).
    Positive definiteness is certified by exact elimination pivots."""
    if not (1 <= d <= cb.d_max(n)):
        raise ValueError(f"need 1 <= d <= n/2, got n={n}, d={d}")
    if n > JOHNSON_MAX_N:
        raise ValueError(f"guarded at n <= {JOHNSON_MAX_N}, got {n}")
    subsets = cb.subsets_of_size(n, d - 1)
    out = []
    for s in subsets:
        row = []
        for t in subsets:
            if s == t:
                row.append(Q(n - d + 1))
            elif (s & t).bit_count() == d - 2:
                row.append(Q(1))
            else:
                row.append(QZERO)
        out.append(row)
    return out


def harmonic_projection_consistency(n: int) -> Report:
    """hS_span really is the apolar-orthogonal projection of the frame
    monomial over S onto the harmonic space: for every degree d <= n/2,
    solve the Specht Gram system exactly and compare (n <= 8)."""
    cb.check_n(n, cap=PROJECTION_MAX_N)
    report = Report()
    for d in range(cb.d_max(n) + 1):
        basis = specht_basis(n, d)
        dim = isotypic_dimension(n, d)
        report.expect(len(basis) == dim, f"basis size {len(basis)} != {dim}")
        gram = [[apolar_ip(bi, bj) for bj in basis] for bi in basis]
        report.expect(
            xm.rank(gram) == dim,
            f"Specht Gram at n={n}, d={d} is singular",
        )
        for s in cb.subsets_of_size(n, d):
            mono = span_monomial(n, cb.elements_of_mask(s))
            rhs = [[apolar_ip(bi, mono)] for bi in basis]
            solution = xm.solve_consistent(gram, rhs)
            terms = (bi.scaled(row[0]) for row, bi in zip(solution, basis))
            difference = sum(terms, SpanPoly(n, d)) - hS_span(n, s)
            report.expect(
                equals_zero(difference),
                f"projection mismatch at n={n}, S={cb.elements_of_mask(s)}",
            )
    return report


# ---------------------------------------------------------------------------
# identity checks over one n


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


def specht_gram_check(n: int) -> Report:
    """The Specht basis has C(n,d) - C(n,d-1) members and a nonsingular
    apolar Gram matrix, for every 1 <= d <= n/2."""
    report = Report()
    for d in range(1, cb.d_max(n) + 1):
        basis = specht_basis(n, d)
        dim = cb.binomial(n, d) - cb.binomial(n, d - 1)
        report.expect(len(basis) == dim, f"Specht count at n={n}, d={d}")
        gram = [[apolar_ip(p, q) for q in basis] for p in basis]
        report.expect(xm.rank(gram) == dim, f"singular Specht Gram at n={n}, d={d}")
    return report


def johnson_slice_check(n: int) -> Report:
    """Slice Grams are PSD with spectrum floor n - 2d + 2."""
    report = Report()
    for d in range(1, cb.d_max(n) + 1):
        g = johnson_slice_gram(n, d)
        ok, witness = xm.psd_pivots(g)
        report.expect(ok, f"slice Gram not PSD at n={n}, d={d}: {witness}")
        floor = Q(n - 2 * d + 2)
        shifted = [
            [g[i][j] - (floor if i == j else 0) for j in range(len(g))]
            for i in range(len(g))
        ]
        ok, witness = xm.psd_pivots(shifted)
        report.expect(
            ok, f"slice Gram below floor {floor} at n={n}, d={d}: {witness}"
        )
    return report


def sigma_bridge_check(n: int) -> Report:
    """sigma_d^2 <h_S, h_T> equals E[h_S h_T] for all same-size pairs, and
    both sides vanish for pairs of different sizes, in either order and at
    every overlap (one pair per orbit, by relabeling invariance)."""
    report = Report()
    dm = cb.d_max(n)
    for d in range(dm + 1):
        scale = sigma_sq(n, d)
        masks = cb.subsets_of_size(n, d)
        spans = {s: hS_span(n, s) for s in masks}
        polys = {s: isotypic_h(n, s) for s in masks}
        for s in masks:
            for t in masks:
                lhs = scale * apolar_ip(spans[s], spans[t])
                rhs = pseudo_expect(n, polys[s] * polys[t])
                report.expect(
                    lhs == rhs,
                    f"bridge fails at n={n}, S={s:b}, T={t:b}: {lhs} != {rhs}",
                )
    for d in range(dm + 1):
        for e in range(dm + 1):
            if d == e:
                continue
            for ov in range(max(0, d + e - n), min(d, e) + 1):
                s = (1 << d) - 1
                t = ((1 << ov) - 1) | (((1 << (e - ov)) - 1) << d)
                cross = pseudo_expect(n, isotypic_h(n, s) * isotypic_h(n, t))
                report.expect(
                    cross == 0,
                    f"E[h_S h_T] != 0 for |S|={d}, |T|={e}, overlap {ov}, n={n}",
                )
                report.expect(
                    apolar_ip(hS_span(n, s), hS_span(n, t)) == 0,
                    f"cross-degree pairing nonzero at n={n}, d={d}, e={e}, overlap {ov}",
                )
    return report


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
