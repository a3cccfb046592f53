"""The balanced pseudoexpectation on {-1,1}^n and its moment matrix.

The degree-(k) moment sequence is
    a_k = [k even] * (-1)^(k/2) * prod_{i < k/2} (2i+1)/(n-2i-1),
the unique S_n-invariant solution of k a_(k-1) + (n-k) a_(k+1) = 0 with
a_0 = 1, i.e. of the constraint that sum x_i should act as zero.  The
pseudomoment matrix Y is indexed by subsets S, T of [n] with
|S|, |T| <= floor(n/2) and has entries Y[S,T] = a_|S symdiff T|.

Polynomials are sparse exact dicts sharing one base, SparsePoly.  Here
MultilinearPoly lives in the quotient by x_i^2 = 1, so monomials are subset
masks and monomial products are symmetric differences; apolar.SpanPoly is
the frame-side kind.  h_S denotes the image of the monomial x^S under
isotypic projection onto the two-row component of shape (n-d, d), d = |S|;
its coefficients have a hypergeometric closed form cross-checked here
against the group-averaging definition.  h_S and the Specht products
specht_x_basis are the hypercube twins of the frame-side harmonics: the
frame image x^S -> prod_{i in S} <v_i, z> (apolar.frame_image) carries
them to hS_span and specht_basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import combinatorics as cb
from . import exactmat as xm
from .characters import char_class_function
from .report import Report
from .scalars import Q, QZERO, require_exact

BUILD_MAX_N = 12        # dense exact storage ceiling: the largest n any exact route builds
BALANCED_CLOSED_MAX_N = 20
BALANCED_ENUM_MAX_N = 14
ISOTYPIC_BRUTE_MAX_N = 8
DECOMPOSITION_MAX_N = 8


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
    """Dense exact matrix indexed by subsets of [n] of size <= floor(n/2),
    rows and columns in canonical (size, mask) order."""

    n: int
    subsets: list
    index: dict
    rows: list

    @property
    def size(self) -> int:
        return len(self.subsets)

    @property
    def d_max(self) -> int:
        return cb.d_max(self.n)

    def entry(self, s_mask: int, t_mask: int):
        return self.rows[self.index[s_mask]][self.index[t_mask]]


def build_Y(n: int) -> PseudomomentMatrix:
    """The pseudomoment matrix Y with Y[S,T] = a_|S symdiff T|."""
    if not (2 <= n <= BUILD_MAX_N):
        raise ValueError(f"dense exact storage supports 2 <= n <= {BUILD_MAX_N}, got {n}")
    subsets = cb.enumerate_subsets(n, cb.d_max(n))
    a = _a_values(n)
    rows = [[a[(s ^ t).bit_count()] for t in subsets] for s in subsets]
    return PseudomomentMatrix(n, subsets, {s: i for i, s in enumerate(subsets)}, rows)


def matrix_structure_check(n: int) -> Report:
    """Symmetry, unit diagonal, moment first row, parity zeros of Y."""
    report = Report()
    y = build_Y(n)
    report.expect(xm.is_symmetric(y.rows), f"Y not symmetric at n={n}")
    report.expect(
        all(y.rows[i][i] == 1 for i in range(y.size)),
        f"non-unit diagonal at n={n}",
    )
    for s in y.subsets:
        report.expect(
            y.entry(0, s) == a_coeff(n, s.bit_count()),
            f"first row of Y differs from the moment vector at n={n}, S={s:b}",
        )
    bad = sum(
        1
        for i, s in enumerate(y.subsets)
        for j, t in enumerate(y.subsets)
        if (s.bit_count() ^ t.bit_count()) & 1 and y.rows[i][j] != 0
    )
    report.expect(bad == 0, f"{bad} nonzero odd-parity entries at n={n}")
    report.count()
    return report


# ---------------------------------------------------------------------------
# sparse exact polynomials


class SparsePoly:
    """Sparse exact polynomial: monomial key -> nonzero rational coefficient.

    Construction merges like terms, drops zeros and refuses floats.  A
    subclass names its _SHAPE (fields summands share; its leading constructor
    arguments) and supplies _key (validate), _relabel_key, _term (repr) and
    _product.  is_zero is structural; apolar.equals_zero is semantic."""

    __slots__ = ("n", "coeffs")
    _SHAPE = ("n",)

    def __init__(self, coeffs=None):
        out = {}
        for key, c in (coeffs or {}).items():
            key = self._key(key)
            if require_exact(c) != 0:
                out[key] = out.get(key, QZERO) + c
        self.coeffs = {k: c for k, c in out.items() if c != 0}

    def _shape(self) -> tuple:
        return tuple(getattr(self, name) for name in self._SHAPE)

    def _new(self, coeffs, shape=None):
        """Same kind from trusted terms (valid keys, exact coefficients)."""
        out = type(self)(*(shape or self._shape()))
        out.coeffs = {k: c for k, c in coeffs.items() if c != 0}
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def relabel(self, perm):
        """Apply a permutation of the n coordinates (0-based image tuple)."""
        return type(self)(
            *self._shape(), {self._relabel_key(perm, k): c for k, c in self.coeffs.items()}
        )

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

    _relabel_key = staticmethod(cb.perm_image_mask)
    _term = staticmethod(lambda mask: f"x{cb.elements_of_mask(mask)}")

    def _product(self, other):
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                key = m1 ^ m2
                prev = out.get(key)
                out[key] = c1 * c2 if prev is None else prev + c1 * c2
        return self._new(out)

    def degree(self) -> int:
        return max((m.bit_count() for m in self.coeffs), default=0)


def x_monomial(n: int, mask: int, coeff=1) -> MultilinearPoly:
    return MultilinearPoly(n, {mask: Q(require_exact(coeff))})


def x_sum(n: int) -> MultilinearPoly:
    """The linear form x_1 + ... + x_n."""
    return MultilinearPoly(n, {1 << i: Q(1) for i in range(n)})


def pseudo_expect(n: int, poly: MultilinearPoly):
    """Apply the balanced pseudoexpectation monomial-by-monomial."""
    if poly.n != n:
        raise ValueError(f"polynomial lives on n={poly.n}, expected {n}")
    a = _a_values(n)
    return sum((c * a[m.bit_count()] for m, c in poly.coeffs.items()), QZERO)


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


def isotypic_dimension(n: int, d: int) -> int:
    return cb.two_row_tableau_count(n, d)


def isotypic_coefficient(n: int, d: int, overlap: int):
    """Coefficient of x^B in h_S for |S| = |B| = d, |S cap B| = overlap:
    dim * (-1)^(d + overlap) / multinomial(n; d, d-overlap, n-2d+overlap)."""
    if not (0 <= d <= cb.d_max(n)):
        raise ValueError(f"need 0 <= d <= n/2, got n={n}, d={d}")
    if not (max(0, 2 * d - n) <= overlap <= d):
        raise ValueError(f"impossible overlap {overlap} for size {d}")
    dim = isotypic_dimension(n, d)
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
    chi = char_class_function(n, d).as_dict()
    sums = {}
    for perm in cb.permutations_iter(n):
        image = cb.perm_image_mask(perm, s_mask)
        sums[image] = sums.get(image, 0) + chi[cb.cycle_type_of_perm(perm)]
    scale = Q(isotypic_dimension(n, d), math.factorial(n))
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


def E_hS_squared_direct(n: int, d: int):
    """The same value by contraction: since h_S is a projection of x^S,
    the pseudoexpectation of h_S^2 equals that of h_S * x^S."""
    s_mask = (1 << d) - 1
    h = isotypic_h(n, s_mask)
    return pseudo_expect(n, h * x_monomial(n, s_mask))


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


def harmonic_norms_check(n: int) -> Report:
    """E_hS_squared against the contraction E[h_S x^S], for every d."""
    report = Report()
    for d in range(cb.d_max(n) + 1):
        closed = E_hS_squared(n, d)
        direct = E_hS_squared_direct(n, d)
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
    2(k+a) = n+1 both routes leave the moment domain."""
    if a < 0 or k < 0 or 2 * (k + a) > n:
        raise ValueError(f"need a, k >= 0 and 2(k+a) <= n, got n={n}, a={a}, k={k}")
    v = a_coeff(n, 2 * k)
    for i in range(a):
        v = v * Q(n - 2 * i, n - 2 * k - 2 * i - 1)
    return v


def finite_difference_a_direct(n: int, a: int, k: int):
    """The literal alternating sum sum_j (-1)^j C(a,j) a_2(k+j)."""
    if a < 0 or k < 0 or 2 * (k + a) > n:
        raise ValueError(f"need a, k >= 0 and 2(k+a) <= n, got n={n}, a={a}, k={k}")
    return sum(
        ((-1) ** j * cb.binomial(a, j)) * a_coeff(n, 2 * (k + j)) for j in range(a + 1)
    )


def finite_difference_check(n: int) -> Report:
    """finite_difference_a against the literal alternating sum."""
    report = Report()
    for a in range(n // 2 + 1):
        for k in range(n // 2 - a + 1):
            closed = finite_difference_a(n, a, k)
            direct = finite_difference_a_direct(n, a, k)
            report.expect(
                closed == direct,
                f"difference routes at n={n}, a={a}, k={k}: {closed} != {direct}",
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


def hypercube_decomposition_check(n: int) -> Report:
    """The multilinear function space splits as sums of (sum x)^t times the
    two-row pieces: counts the dimensions and certifies exact full rank 2^n
    of the assembled coefficient matrix (n <= 8)."""
    cb.check_n(n, cap=DECOMPOSITION_MAX_N)
    report = Report()
    dim_total = sum(
        (n - 2 * d + 1) * isotypic_dimension(n, d) for d in range(cb.d_max(n) + 1)
    )
    report.expect(
        dim_total == 2 ** n,
        f"dimension count at n={n}: {dim_total} != {2 ** n}",
    )
    all_masks = cb.enumerate_subsets(n, n)
    sumx = x_sum(n)
    vectors = []
    for d in range(cb.d_max(n) + 1):
        for w in specht_x_basis(n, d):
            poly = w
            for _ in range(n - 2 * d + 1):
                vectors.append([poly.coeffs.get(m, QZERO) for m in all_masks])
                poly = poly * sumx
    report.expect(
        len(vectors) == 2 ** n,
        f"assembled {len(vectors)} vectors at n={n}, expected {2 ** n}",
    )
    r = xm.rank(vectors)
    report.expect(
        r == 2 ** n,
        f"decomposition rank at n={n}: {r} != {2 ** n}",
    )
    return report
