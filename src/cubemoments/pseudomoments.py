"""The balanced pseudoexpectation on {-1,1}^n and its moment matrix.

The degree-(k) moment sequence is
    a_k = [k even] * (-1)^(k/2) * prod_{i < k/2} (2i+1)/(n-2i-1),
the unique S_n-invariant solution of k a_(k-1) + (n-k) a_(k+1) = 0 with
a_0 = 1, i.e. of the constraint that sum x_i should act as zero.  The
pseudomoment matrix Y is indexed by subsets S, T of [n] with
|S|, |T| <= floor(n/2) and has entries Y[S,T] = a_|S symdiff T|.  build_Y
holds it in one form, its exact integer form: the int64 array den * Y,
den the lcm of the denominators of a_0..a_n, gathered by popcount from
the n + 1 scaled moments; parity_blocks slices it into its even- and
odd-size blocks, and entry reads one value back as a rational.

Polynomials are sparse exact dicts sharing one base, SparsePoly.  Here
MultilinearPoly lives in the quotient by x_i^2 = 1, so monomials are subset
masks and monomial products are symmetric differences; apolar.SpanPoly is
the frame-side kind.  pseudo_expect applies the pseudoexpectation to one
polynomial; pseudo_gram gives E[p q] for every pair from two lists at once,
as the product C_p A C_q^T of coefficient rows and the moment kernel
A[B, B'] = a_|B xor B'|, with no product polynomial formed (bilinear_gram,
which apolar.apolar_gram shares; exactmat.rational_product scales its
factors to ints and divides back once); beside it, contract_x_h is the one
direct contraction E[x^S h_T].  h_S denotes the image of the monomial x^S
under isotypic projection onto the two-row component of shape (n-d, d),
d = |S|; its coefficients have a hypergeometric closed form cross-checked
here against the group-averaging definition.  h_S and the Specht products
specht_x_basis are the hypercube twins of the frame-side harmonics: the
frame image x^S -> prod_{i in S} <v_i, z> (apolar.frame_image) carries
them to hS_span and specht_basis.  difference_table holds the step-2
differences of the moment sequence, the one table that spectrum's
Terwilliger blocks are built from and that finite_difference_check reads
against the closed form finite_difference_a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import combinatorics as cb
from . import exactmat as xm
from .characters import char_class_function, image_overlap_counts
from .errors import InconsistentBlockError
from .report import Report, verified
from .scalars import Q, QZERO, require_exact

BUILD_MAX_N = 12        # dense exact storage ceiling: the largest n any exact route builds
BALANCED_CLOSED_MAX_N = 20
BALANCED_ENUM_MAX_N = 14
ISOTYPIC_BRUTE_MAX_N = 8
DECOMPOSITION_MAX_N = 8
# hypercube_vectors holds w (sum x)^t in int64: a Specht product w of degree
# d has 2^d terms of coefficient +-1 and each factor sum x multiplies the
# coefficients' absolute sum by at most n, so every coefficient is at most
# 2^d n^t <= n^n (t <= n - 2d)
assert DECOMPOSITION_MAX_N**DECOMPOSITION_MAX_N < 2**63


@lru_cache(maxsize=None)
def _a_values(n: int) -> tuple:
    vals = [Q(1)]
    for k in range(1, n + 1):
        if k % 2:
            vals.append(QZERO)
        else:
            half = k // 2
            v = Q((-1) ** half)
            for i in range(half):
                v = v * Q(2 * i + 1, n - 2 * i - 1)
            vals.append(v)
    return tuple(vals)


def a_coeff(n: int, k: int):
    """Moment of a degree-k monomial under the balanced pseudoexpectation."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (0 <= k <= n):
        raise ValueError(f"moment index k={k} outside [0, {n}]")
    return _a_values(n)[k]


@verified("pseudomoments.moment_recursion", 2, 30, "moment recursion")
def a_recursion_check(n: int) -> Report:
    """Defining three-term recursion plus the formal-binomial form of a_k."""
    report = Report()
    a = _a_values(n)
    report.expect(a[0] == 1, f"a_0 = {a[0]} should be 1")
    for k in range(1, n):
        lhs = k * a[k - 1] + (n - k) * a[k + 1]
        report.expect(lhs == 0, f"recursion fails at n={n}, k={k}: {lhs}")
    for k in range(1, n + 1, 2):
        report.expect(a[k] == 0, f"odd moment a_{k} = {a[k]} should vanish")
    for k in range(0, n + 1, 2):
        expected = (-1) ** (k // 2) * cb.formal_half_binomial(n, k // 2) / cb.binomial(n, k)
        report.expect(
            a[k] == expected,
            f"formal binomial ratio fails at n={n}, k={k}: {a[k]} != {expected}",
        )
    if n % 2 == 0 and n <= BALANCED_CLOSED_MAX_N:
        for k in range(0, n + 1):
            mask = (1 << k) - 1
            report.expect(
                a[k] == balanced_measure_moment(n, mask),
                f"balanced measure moment differs at n={n}, k={k}",
            )
    return report


# ---------------------------------------------------------------------------
# the pseudomoment matrix


@dataclass
class PseudomomentMatrix:
    """Y over the subsets of [n] of size <= floor(n/2), rows and columns in
    canonical (size, mask) order, held as its exact integer form: ints is
    the int64 array den * Y, den the lcm of the denominators of a_0..a_n."""

    n: int
    subsets: list
    index: dict
    ints: np.ndarray
    den: int

    @property
    def size(self) -> int:
        return len(self.subsets)

    @property
    def d_max(self) -> int:
        return cb.d_max(self.n)

    def entry(self, s_mask: int, t_mask: int):
        return Q(int(self.ints[self.index[s_mask], self.index[t_mask]]), self.den)


def build_Y(n: int) -> PseudomomentMatrix:
    """The pseudomoment matrix Y with Y[S,T] = a_|S symdiff T|, gathered
    from the integer form of a_0..a_n by the popcount of S xor T."""
    if not (2 <= n <= BUILD_MAX_N):
        raise ValueError(f"dense exact storage supports 2 <= n <= {BUILD_MAX_N}, got {n}")
    subsets = cb.enumerate_subsets(n, cb.d_max(n))
    (a,), den = xm.integer_form([_a_values(n)])
    masks = np.array(subsets)
    ints = np.array(a, dtype=np.int64)[np.bitwise_count(masks[:, None] ^ masks)]
    return PseudomomentMatrix(n, subsets, {s: i for i, s in enumerate(subsets)}, ints, den)


def _parities(y: PseudomomentMatrix) -> np.ndarray:
    """|S| mod 2 for each row S of Y."""
    return np.bitwise_count(np.array(y.subsets)) & 1


def parity_blocks(y: PseudomomentMatrix):
    """([(masks, block)] for the even- then the odd-size block of Y, den):
    masks in Y's (size, mask) order, block the int64 array den * Y on those
    rows and columns, den = y.den.  Y is their direct sum; a nonzero entry
    between them (an a_odd) in either triangle raises InconsistentBlockError
    naming the first (even row, odd column) pair."""
    parity = _parities(y)
    groups = [np.flatnonzero(parity == b) for b in (0, 1)]
    even_odd, odd_even = np.ix_(*groups), np.ix_(*groups[::-1])
    cross = np.flatnonzero(y.ints[even_odd] | y.ints[odd_even].T)
    if cross.size:
        i, j = divmod(int(cross[0]), len(groups[1]))
        raise InconsistentBlockError(
            f"cross-parity entry ({groups[0][i]},{groups[1][j]}) nonzero at n={y.n}"
        )
    return [([y.subsets[i] for i in idx], y.ints[np.ix_(idx, idx)]) for idx in groups], y.den


@verified("pseudomoments.matrix_structure", 2, 10, "dense matrix scan", BUILD_MAX_N)
def matrix_structure_check(n: int) -> Report:
    """Symmetry, unit diagonal, moment first row, parity zeros of Y."""
    report = Report()
    y = build_Y(n)
    report.expect(np.array_equal(y.ints, y.ints.T), f"Y not symmetric at n={n}")
    report.expect(
        bool((np.diagonal(y.ints) == y.den).all()),
        f"non-unit diagonal at n={n}",
    )
    for s in y.subsets:
        report.expect(
            y.entry(0, s) == a_coeff(n, s.bit_count()),
            f"first row of Y differs from the moment vector at n={n}, S={s:b}",
        )
    parity = _parities(y)
    bad = np.count_nonzero(y.ints[parity[:, None] != parity])
    report.expect(bad == 0, f"{bad} nonzero odd-parity entries at n={n}")
    return report


# ---------------------------------------------------------------------------
# sparse exact polynomials


class SparsePoly:
    """Sparse exact polynomial: monomial key -> nonzero rational coefficient.

    Construction merges like terms, drops zeros and refuses floats.  A
    subclass names its _SHAPE (fields summands share; its leading constructor
    arguments) and supplies _key (validate), _term (repr) and _product.
    apolar.equals_zero is the semantic zero test."""

    __slots__ = ("n", "coeffs")
    _SHAPE = ("n",)

    def __init__(self, coeffs=None):
        out = {}
        for key, c in (coeffs or {}).items():
            key = self._key(key)
            if require_exact(c) != 0:
                out[key] = out[key] + c if key in out else (c if type(c) is Q else Q(c))
        self.coeffs = {k: c for k, c in out.items() if c != 0}

    def _shape(self) -> tuple:
        return tuple(getattr(self, name) for name in self._SHAPE)

    def _new(self, coeffs, shape=None):
        """Same kind from trusted terms (valid keys, exact coefficients)."""
        out = type(self)(*(shape or self._shape()))
        out.coeffs = {k: c for k, c in coeffs.items() if c != 0}
        return out

    def __eq__(self, other) -> bool:
        same = type(other) is type(self) and self._shape() == other._shape()
        return same and self.coeffs == other.coeffs

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._shape() != other._shape():
            raise ValueError(f"cannot add shapes {self._shape()} and {other._shape()}")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, QZERO) + c
        return self._new(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def scaled(self, c):
        require_exact(c)
        return self._new({k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        """Product or scalar multiple; mixing kinds is a TypeError naming both."""
        if type(other) is type(self):
            if self.n != other.n:
                raise ValueError(f"{type(self).__name__}s on n={self.n} and n={other.n}")
            return self._product(other)
        if isinstance(other, SparsePoly):
            return NotImplemented
        return self.scaled(other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        shape = ", ".join(f"{name}={getattr(self, name)}" for name in self._SHAPE)
        terms = ", ".join(f"{c}*{self._term(k)}" for k, c in sorted(self.coeffs.items()))
        return f"{type(self).__name__}({shape}, {terms or '0'})"


class MultilinearPoly(SparsePoly):
    """Multilinear polynomial on the hypercube: subset mask -> coefficient.

    Multiplication reduces by x_i^2 = 1, so masks combine by xor."""

    __slots__ = ()

    def __init__(self, n: int, coeffs=None):
        cb.check_n(n)
        self.n = n
        super().__init__(coeffs)

    def _key(self, mask):
        if not (0 <= mask < 1 << self.n):
            raise ValueError(f"monomial mask {mask} outside subsets of [{self.n}]")
        return mask

    _term = staticmethod(lambda mask: f"x{cb.elements_of_mask(mask)}")

    def _product(self, other):
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                key = m1 ^ m2
                prev = out.get(key)
                out[key] = c1 * c2 if prev is None else prev + c1 * c2
        return self._new(out)


def x_monomial(n: int, mask: int) -> MultilinearPoly:
    return MultilinearPoly(n, {mask: Q(1)})


def x_sum(n: int) -> MultilinearPoly:
    """The linear form x_1 + ... + x_n."""
    return MultilinearPoly(n, {1 << i: Q(1) for i in range(n)})


def pseudo_expect(n: int, poly: MultilinearPoly):
    """Apply the balanced pseudoexpectation monomial-by-monomial."""
    if poly.n != n:
        raise ValueError(f"polynomial lives on n={poly.n}, expected {n}")
    a = _a_values(n)
    return sum((c * a[m.bit_count()] for m, c in poly.coeffs.items()), QZERO)


def bilinear_gram(ps, qs, label, value) -> list:
    """[[sum_(B,B') p[B] K(B, B') q[B'] for q in qs] for p in ps] for
    SparsePolys and the exact kernel K(B, B') = value(label(B, B')) on pairs
    of monomial keys, as the rational product C_p K C_q^T.  C_p and C_q hold
    the coefficient rows over the joint supports of ps and of qs, and value
    is evaluated once per distinct label."""
    keys_p, keys_q = (sorted(set().union(*(p.coeffs for p in side))) for side in (ps, qs))
    if not (keys_p and keys_q):
        return [[QZERO] * len(qs) for _ in ps]
    labels = [[label(b, c) for c in keys_q] for b in keys_p]
    values = {x: value(x) for x in set().union(*labels)}
    k = [[values[x] for x in row] for row in labels]
    c_p = [[p.coeffs.get(b, 0) for b in keys_p] for p in ps]
    c_q = [[q.coeffs.get(c, 0) for q in qs] for c in keys_q]
    return xm.rational_product(c_p, k, c_q)


def pseudo_gram(n: int, ps, qs) -> list:
    """[[E[p q] for q in qs] for p in ps]: the pseudoexpectation of every
    product, as C_p A C_q^T with A[B, B'] = a_|B xor B'| (bilinear_gram),
    without forming a product polynomial."""
    for poly in (*ps, *qs):
        if poly.n != n:
            raise ValueError(f"polynomial lives on n={poly.n}, expected {n}")
    a = _a_values(n)
    return bilinear_gram(ps, qs, lambda b, c: (b ^ c).bit_count(), a.__getitem__)


@verified("pseudomoments.ideal_annihilation", 2, 10, "monomial sweep")
def ideal_annihilation_check(n: int) -> Report:
    """The pseudoexpectation kills (sum x_i) x^S for every |S| < n; the
    full-set monomial sits outside the three-term recursion's range."""
    report = Report()
    xs = x_sum(n)
    report.expect(pseudo_expect(n, xs * xs) == 0, f"E[(sum x)^2] != 0 at n={n}")
    for mask in range(1 << n):
        if mask.bit_count() == n:
            continue
        val = pseudo_expect(n, xs * x_monomial(n, mask))
        report.expect(val == 0, f"E[(sum x) x^S] = {val} at n={n}, S={mask:b}")
    return report


# ---------------------------------------------------------------------------
# the balanced measure (even n): uniform on zero-sum sign vectors


def balanced_measure_moment(n: int, mask: int):
    """E[x^S] under the uniform measure on balanced sign vectors,
    (-1)^(|S|/2) C(n/2, |S|/2) / C(n, |S|) for even |S|, zero for odd."""
    if n % 2 or n < 2:
        raise ValueError(f"the balanced measure needs even n >= 2, got {n}")
    if n > BALANCED_CLOSED_MAX_N:
        raise ValueError(f"guarded at n <= {BALANCED_CLOSED_MAX_N}, got {n}")
    if not (0 <= mask < (1 << n)):
        raise ValueError(f"subset mask {mask} outside subsets of [{n}]")
    size = mask.bit_count()
    if size % 2:
        return QZERO
    m = size // 2
    return Q((-1) ** m * cb.binomial(n // 2, m), cb.binomial(n, size))


def balanced_measure_moment_enum(n: int, mask: int):
    """The same moment by enumerating all C(n, n/2) balanced sign vectors."""
    if n % 2 or n < 2:
        raise ValueError(f"the balanced measure needs even n >= 2, got {n}")
    if n > BALANCED_ENUM_MAX_N:
        raise ValueError(f"enumeration guarded at n <= {BALANCED_ENUM_MAX_N}, got {n}")
    total = 0
    for plus_mask in cb.subsets_of_size(n, n // 2):
        # x_i = -1 exactly on positions outside plus_mask
        total += -1 if (mask & ~plus_mask).bit_count() % 2 else 1
    return Q(total, cb.binomial(n, n // 2))


@verified("pseudomoments.balanced_moments", 2, 12, "balanced enumeration",
          BALANCED_ENUM_MAX_N)
def balanced_moments_check(n: int) -> Report:
    """Closed balanced-measure moments against enumeration and the a_k
    table, on the lowest and the highest k elements for every k (even n)."""
    report = Report()
    for k in range(n + 1):
        low = (1 << k) - 1
        for mask in dict.fromkeys((low, low << (n - k))):
            closed = balanced_measure_moment(n, mask)
            report.expect(
                closed == balanced_measure_moment_enum(n, mask),
                f"balanced moment enum differs at n={n}, S={mask:b}",
            )
            report.expect(
                closed == a_coeff(n, k),
                f"balanced moment is not a_k at n={n}, S={mask:b}",
            )
    return report


# ---------------------------------------------------------------------------
# isotypic projections h_S


def isotypic_coefficient(n: int, d: int, overlap: int):
    """Coefficient of x^B in h_S for |S| = |B| = d, |S cap B| = overlap:
    dim * (-1)^(d + overlap) / multinomial(n; d, d-overlap, n-2d+overlap)."""
    if not (0 <= d <= cb.d_max(n)):
        raise ValueError(f"need 0 <= d <= n/2, got n={n}, d={d}")
    if not (max(0, 2 * d - n) <= overlap <= d):
        raise ValueError(f"impossible overlap {overlap} for size {d}")
    dim = cb.two_row_tableau_count(n, d)
    sign = -1 if (d + overlap) % 2 else 1
    return Q(sign * dim, cb.multinomial(n, (d, d - overlap, n - 2 * d + overlap)))


def isotypic_h(n: int, s_mask: int) -> MultilinearPoly:
    """Projection of x^S onto the two-row isotypic component of its degree,
    materialized from the closed-form coefficients."""
    d = s_mask.bit_count()
    lo = max(0, 2 * d - n)
    by_overlap = [isotypic_coefficient(n, d, v) for v in range(lo, d + 1)]
    return MultilinearPoly(
        n, {b: by_overlap[(b & s_mask).bit_count() - lo] for b in cb.subsets_of_size(n, d)}
    )


def isotypic_h_bruteforce(n: int, s_mask: int) -> MultilinearPoly:
    """The defining group average (dim/n!) sum_pi chi(pi) x^(pi(S)), n <= 8."""
    cb.check_n(n, cap=ISOTYPIC_BRUTE_MAX_N)
    d = s_mask.bit_count()
    chi = char_class_function(n, d)
    sums = {
        image: sum(count * chi[ct] for ct, count in by_type.items())
        for image, by_type in image_overlap_counts(n, s_mask).items()
    }
    scale = Q(cb.two_row_tableau_count(n, d), math.factorial(n))
    return MultilinearPoly(n, {m: scale * v for m, v in sums.items()})


def E_hS_squared(n: int, d: int):
    """Closed form for the pseudoexpectation of h_S^2, |S| = d:
    (n-2d+1)/(n-d+1) * prod_{i<d} (n-2i)/(n-2i-1), strictly positive."""
    if not (0 <= d <= cb.d_max(n)):
        raise ValueError(f"need 0 <= d <= n/2, got n={n}, d={d}")
    v = Q(n - 2 * d + 1, n - d + 1)
    for i in range(d):
        v = v * Q(n - 2 * i, n - 2 * i - 1)
    return v


def contract_x_h(n: int, s_mask: int, t_mask: int):
    """E[x^S h_T] by direct contraction, C_x A C_h^T in pseudo_gram; no
    size restriction on S.  At S = T it is E[h_S^2], since h_S is a
    projection of x^S."""
    return pseudo_gram(n, [x_monomial(n, s_mask)], [isotypic_h(n, t_mask)])[0][0]


@verified("pseudomoments.isotypic_projection", 2, 6, "S_n average",
          ISOTYPIC_BRUTE_MAX_N)
def isotypic_projection_check(n: int) -> Report:
    """Closed-form h_S against the group average, for every |S| <= n/2."""
    report = Report()
    for d in range(cb.d_max(n) + 1):
        for mask in cb.subsets_of_size(n, d):
            closed = isotypic_h(n, mask)
            brute = isotypic_h_bruteforce(n, mask)
            report.expect(
                closed.coeffs == brute.coeffs,
                f"h_S projection differs at n={n}, S={mask:b}",
            )
    return report


@verified("pseudomoments.harmonic_norms", 2, 12, "contraction sweep")
def harmonic_norms_check(n: int) -> Report:
    """E_hS_squared against the contraction E[x^S h_S], S = {1..d}, each d."""
    report = Report()
    for d in range(cb.d_max(n) + 1):
        closed = E_hS_squared(n, d)
        direct = contract_x_h(n, (1 << d) - 1, (1 << d) - 1)
        report.expect(
            closed == direct,
            f"E[h_S^2] routes differ at n={n}, d={d}: {closed} != {direct}",
        )
    return report


# ---------------------------------------------------------------------------
# finite differences of the even moment sequence


def finite_difference_a(n: int, a: int, k: int):
    """Closed form a_2k * prod_{i<a} (n-2i)/(n-2k-2i-1) for the a-fold
    alternating difference of f(k) = a_2k.  Needs 2(k+a) <= n; at
    2(k+a) = n+1 it leaves the moment domain."""
    if a < 0 or k < 0 or 2 * (k + a) > n:
        raise ValueError(f"need a, k >= 0 and 2(k+a) <= n, got n={n}, a={a}, k={k}")
    v = a_coeff(n, 2 * k)
    for i in range(a):
        v = v * Q(n - 2 * i, n - 2 * k - 2 * i - 1)
    return v


def difference_table(n: int, a: list) -> list:
    """g[u][s] = sum_t (-1)^(u-t) C(u,t) a_{s-2t}, u <= d_max, 2u <= s <= 2 d_max:
    the u-th difference of a at step 2, g[u][s] = g[u-1][s-2] - g[u-1][s].
    spectrum.terwilliger_blocks builds Schrijver's blocks from it, and
    finite_difference_check ties it to finite_difference_a."""
    g = [list(a[: 2 * cb.d_max(n) + 1])]
    for _ in range(cb.d_max(n)):
        g.append([0, 0] + [x - y for x, y in zip(g[-1], g[-1][2:])])
    return g


@verified("pseudomoments.finite_difference", 2, 12, "alternating sum")
def finite_difference_check(n: int) -> Report:
    """finite_difference_a against the alternating sum
    sum_j (-1)^j C(a,j) a_2(k+j) = g[a][2(k+a)] / den, g the difference_table
    of the integer form den * a_0..a_n, the table the Terwilliger blocks read;
    they also read its odd columns g[u][s], 2u < s <= 2 d_max, which vanish
    with the odd moments, one comparison per entry."""
    report = Report()
    (moments,), den = xm.integer_form([_a_values(n)])
    g = difference_table(n, moments)
    for a in range(n // 2 + 1):
        for k in range(n // 2 - a + 1):
            closed = finite_difference_a(n, a, k)
            table = Q(g[a][2 * (k + a)], den)
            report.expect(
                closed == table,
                f"difference routes at n={n}, a={a}, k={k}: {closed} != {table}",
            )
    for u, row in enumerate(g):
        for s in range(2 * u + 1, len(row), 2):
            report.expect(
                row[s] == 0, f"odd difference at n={n}, u={u}, s={s}: {Q(row[s], den)} != 0"
            )
    return report


# ---------------------------------------------------------------------------
# degree decomposition of the function space on the hypercube


def specht_x_basis(n: int, d: int) -> list:
    """Column-difference polynomials prod_a (x_i_a - x_j_a) over standard
    two-row tableaux of shape (n-d, d): a basis of one copy of the
    corresponding irreducible inside the multilinear functions."""
    out = []
    for tableau in cb.standard_two_row_tableaux(n, d):
        poly = x_monomial(n, 0)
        for top, bottom in cb.tableau_column_pairs(tableau):
            poly = poly * MultilinearPoly(n, {1 << (top - 1): Q(1), 1 << (bottom - 1): Q(-1)})
        out.append(poly)
    return out


def hypercube_vectors(n: int) -> np.ndarray:
    """The coefficient vectors of w (sum x)^t over the masks 0..2^n - 1, for
    each Specht product w of degree d <= d_max (in specht_x_basis order)
    and t = 0..n - 2d, as the rows of one int64 array.  Multiplying by x_i
    sends the coefficient of mask m to vec[m xor 2^i], so w is built from
    the vector of x^0 by one difference of two such gathers per column pair
    of its tableau, and sum x by a sum of n of them; the bound asserted at
    DECOMPOSITION_MAX_N keeps every chain exact."""
    cb.check_n(n, cap=DECOMPOSITION_MAX_N)
    idx = np.arange(1 << n)
    flips = [idx ^ (1 << i) for i in range(n)]
    one = np.zeros(1 << n, dtype=np.int64)
    one[0] = 1
    vectors = []
    for d in range(cb.d_max(n) + 1):
        for tableau in cb.standard_two_row_tableaux(n, d):
            vec = one
            for top, bottom in cb.tableau_column_pairs(tableau):
                vec = vec[flips[top - 1]] - vec[flips[bottom - 1]]
            for t in range(n - 2 * d + 1):
                vectors.append(vec)
                if t < n - 2 * d:
                    vec = sum(vec[flip] for flip in flips)
    return np.array(vectors, dtype=np.int64).reshape(-1, 1 << n)


@verified("pseudomoments.hypercube_decomposition", 2, 8, "exact rank",
          DECOMPOSITION_MAX_N)
def hypercube_decomposition_check(n: int) -> Report:
    """The multilinear function space splits as sums of (sum x)^t times the
    two-row pieces: counts the dimensions and certifies exact full rank 2^n
    of the assembled coefficient matrix (n <= 8)."""
    cb.check_n(n, cap=DECOMPOSITION_MAX_N)
    report = Report()
    dim_total = sum(
        (n - 2 * d + 1) * cb.two_row_tableau_count(n, d) for d in range(cb.d_max(n) + 1)
    )
    report.expect(
        dim_total == 2 ** n,
        f"dimension count at n={n}: {dim_total} != {2 ** n}",
    )
    vectors = hypercube_vectors(n)
    report.expect(
        len(vectors) == 2 ** n,
        f"assembled {len(vectors)} vectors at n={n}, expected {2 ** n}",
    )
    # 2^n columns cap the rank, so the modular lower bound proves full rank;
    # the Bareiss rank is taken only when that bound falls short
    full = xm.rank_mod_at_least(vectors, xm.POWER_PRIMES[0], 2 ** n)
    r = 2 ** n if full else xm.rank(vectors.tolist())
    report.expect(r == 2 ** n, f"decomposition rank at n={n}: {r} != {2 ** n}")
    return report
