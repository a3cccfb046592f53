"""Two-row characters of the symmetric group and restricted character sums.

Irreducible characters for partitions (n-d, d) are computed through the
permutation statistic c_d(pi) = number of d-subsets fixed setwise, whose
generating function over a permutation with cycle lengths L is
prod_l (1 + x^l).  The character is chi = c_d - c_(d-1).  The counts c_d
read off the generating function are cross-checked against a numpy tally
of the d-subsets a class representative fixes setwise (n <= 9).  Class
functions are read-only {cycle type: value} mappings, as char_class_function
shares its cache, in conjugacy_classes order and paired by class_inner.

The restricted sums here average chi over all permutations mapping a fixed
a-subset to meet a fixed b-subset in exactly k points.  The brute force
behind them makes one full S_n sweep per subset A (image_overlap_counts,
also behind pseudomoments.isotypic_h_bruteforce): one numpy pass over
combinatorics.perm_table counts every pi by image pi(A) and cycle type.
Every B, d and k reuse it, and it stays independent of the closed form.  The
closed form is proven only for a = b = d (zero when min(a, b) < d); anything
larger raises UnsupportedCaseError rather than extrapolating.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from types import MappingProxyType

import numpy as np

from . import combinatorics as cb
from .errors import UnsupportedCaseError
from .report import Report, verified
from .scalars import Q


def _class_function(n: int, value_of_type) -> MappingProxyType:
    return MappingProxyType({ct: value_of_type(ct) for ct, _ in cb.conjugacy_classes(n)})


def class_inner(n: int, f, g):
    """Normalized inner product (1/n!) sum over S_n of f * g."""
    classes = cb.conjugacy_classes(n)
    if not (f.keys() == g.keys() == {ct for ct, _ in classes}):
        raise ValueError("class functions live on different groups")
    total = sum(size * f[ct] * g[ct] for ct, size in classes)
    return Q(total, math.factorial(n))


def fixed_subset_counts(n: int, cycle_type) -> list:
    """[c_0, ..., c_n] where c_d counts d-subsets fixed setwise.

    A fixed subset is a union of cycles, so the counts are the coefficients
    of prod over cycle lengths l of (1 + x^l).
    """
    cycle_type = tuple(cycle_type)
    if sum(cycle_type) != n:
        raise ValueError(f"cycle type {cycle_type} is not a partition of {n}")
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    degree = 0
    for length in cycle_type:
        degree += length
        for t in range(min(degree, n) - length, -1, -1):
            if coeffs[t]:
                coeffs[t + length] += coeffs[t]
    return coeffs


def char_two_row(n: int, d: int, cycle_type) -> int:
    """chi_(n-d, d) evaluated on a cycle type, via c_d - c_(d-1)."""
    if d < 0 or 2 * d > n:
        raise ValueError(f"two-row shape needs 0 <= d <= n/2, got n={n}, d={d}")
    counts = fixed_subset_counts(n, cycle_type)
    return counts[d] - (counts[d - 1] if d >= 1 else 0)


@lru_cache(maxsize=None)
def char_class_function(n: int, d: int) -> MappingProxyType:
    return _class_function(n, lambda ct: char_two_row(n, d, ct))


# ---------------------------------------------------------------------------
# restricted character sums


def restricted_char_sum_closed(n: int, d: int, a: int, b: int, overlap: int, k: int):
    """(1/n!) sum of chi_(n-d,d)(pi) over permutations with |pi(A) cap B| = k,
    where |A| = a, |B| = b, |A cap B| = overlap.

    Zero when min(a, b) < d.  For a = b = d the value is
    (-1)^(k + overlap) * C(d, k) / multinomial(n; d, d-overlap, n-2d+overlap).
    Sizes beyond d are outside the proven range and raise.
    """
    if d < 1 or 2 * d > n:
        raise ValueError(f"need 1 <= d <= n/2, got n={n}, d={d}")
    if not (0 <= a <= n and 0 <= b <= n):
        raise ValueError(f"subset sizes a={a}, b={b} outside [0, {n}]")
    if a > d or b > d:
        raise UnsupportedCaseError(
            f"closed form is proven only for sizes at most d={d}, got a={a}, b={b}"
        )
    if not (max(0, a + b - n) <= overlap <= min(a, b)):
        raise ValueError(f"impossible overlap {overlap} for sizes {a}, {b}")
    if not (0 <= k <= min(a, b)):
        raise ValueError(f"impossible image overlap {k} for sizes {a}, {b}")
    if a < d or b < d:
        return Q(0)
    sign = -1 if (k + overlap) % 2 else 1
    denom = cb.multinomial(n, (d, d - overlap, n - 2 * d + overlap))
    return Q(sign * cb.binomial(d, k), denom)


@lru_cache(maxsize=None)
def image_overlap_counts(n: int, a_mask: int) -> dict:
    """{pi(A): {cycle type of pi: number of such pi}} over every row of
    perm_table(n), with no symmetry argument; sums over pi run over images."""
    if a_mask < 0 or a_mask >> n:
        raise ValueError(f"subset mask {a_mask} outside subsets of [{n}]")
    bits, classes = cb.perm_table(n)
    types = [ct for ct, _ in cb.conjugacy_classes(n)]
    images = bits[:, [i for i in range(n) if a_mask >> i & 1]].sum(axis=1)
    keys, tallies = np.unique(images * len(types) + classes, return_counts=True)
    counts = {}
    for key, tally in zip(keys.tolist(), tallies.tolist()):
        counts.setdefault(key // len(types), {})[types[key % len(types)]] = tally
    return counts


def restricted_char_sum_bruteforce(n: int, d: int, a_mask: int, b_mask: int, k: int):
    """The same restricted sum by full S_n enumeration (n <= 9): the sweep
    for a_mask is made once and serves every d, b_mask and k."""
    chi = char_class_function(n, d)
    total = sum(
        count * chi[ct]
        for image, by_type in image_overlap_counts(n, a_mask).items()
        if (image & b_mask).bit_count() == k
        for ct, count in by_type.items()
    )
    return Q(total, math.factorial(n))


@verified("characters.dimension_identity", 2, 20, "character table")
def dimension_identity_check(n: int) -> Report:
    """chi_(n-d,d) at the identity equals C(n,d) - C(n,d-1)."""
    report = Report()
    ident = (1,) * n
    for d in range(cb.d_max(n) + 1):
        got = char_two_row(n, d, ident)
        want = cb.two_row_tableau_count(n, d)
        report.expect(got == want, f"dim chi at n={n}, d={d}: {got} != {want}")
    return report


@verified("characters.two_row_routes", 2, cb.BRUTE_FORCE_MAX_N, "class enumeration",
          cb.BRUTE_FORCE_MAX_N)
def two_row_routes_check(n: int) -> Report:
    """chi_(n-d,d) = c_d - c_(d-1) with the counts read off the generating
    function prod_l (1 + x^l), against the same difference with c_a counted
    by enumeration: the a-subsets the class representative fixes setwise
    (n <= 9)."""
    report = Report()
    for ct, _ in cb.conjugacy_classes(n):
        for d in range(cb.d_max(n) + 1):
            a = char_two_row(n, d, ct)
            b = _f_counts(n, d)[ct][d] - (_f_counts(n, d - 1)[ct][d - 1] if d else 0)
            report.expect(a == b, f"routes differ at n={n}, d={d}, type={ct}")
    return report


@verified("characters.orthonormality", 2, 8, "class-function inner product",
          cb.PARTITION_MAX_N)
def orthonormality_check(n: int) -> Report:
    """<chi_d, chi_e> = [d = e] for the two-row characters of S_n."""
    report = Report()
    chars = {d: char_class_function(n, d) for d in range(cb.d_max(n) + 1)}
    for d, chi in chars.items():
        for e in range(d, cb.d_max(n) + 1):
            got = class_inner(n, chi, chars[e])
            want = 1 if d == e else 0
            report.expect(got == want, f"<chi_{d}, chi_{e}> = {got} at n={n}")
    return report


@verified("characters.restricted_sums", 2, 7, "S_n sweep", cb.BRUTE_FORCE_MAX_N)
def restricted_sums_check(n: int) -> Report:
    """Closed restricted character sums against full S_n enumeration, on
    every supported (d, a, b, overlap, k)."""
    report = Report()
    for d in range(1, cb.d_max(n) + 1):
        for a in range(d + 1):
            for b in range(d + 1):
                for ov, a_mask, b_mask in cb.overlap_pairs(n, a, b):
                    for k in range(min(a, b) + 1):
                        closed = restricted_char_sum_closed(n, d, a, b, ov, k)
                        brute = restricted_char_sum_bruteforce(n, d, a_mask, b_mask, k)
                        report.expect(
                            closed == brute,
                            f"restricted sum at n={n}, d={d}, a={a}, b={b}, "
                            f"ov={ov}, k={k}: {closed} != {brute}",
                        )
    return report


# ---------------------------------------------------------------------------
# the f and g counting class functions


@lru_cache(maxsize=None)
def _f_counts(n: int, a: int) -> dict:
    """Per cycle type, the vector [f_(a,0), ..., f_(a,a)] with
    f_(a,k)(pi) = #{A : |A| = a, |pi(A) cap A| = k}: row a of
    _g_counts(n, a, a), since two a-subsets meet in a points only if equal."""
    return {ct: counts[a] for ct, counts in _g_counts(n, a, a).items()}


@lru_cache(maxsize=None)
def _g_counts(n: int, a: int, b: int) -> dict:
    """Per cycle type, the matrix g[k][l] of Python ints with
    g_(a,b,k,l)(pi) = #{(A, B) : |A cap B| = k, |pi(A) cap B| = l}: one numpy
    tally per class, every pi(A) from the 0/1 membership rows of the a-masks
    times the bit columns 1 << pi(i), and both overlaps by popcounts."""
    cb.check_n(n, cap=cb.BRUTE_FORCE_MAX_N)
    a_masks = np.array(cb.subsets_of_size(n, a), dtype=np.int64)
    b_masks = np.array(cb.subsets_of_size(n, b), dtype=np.int64)
    members = a_masks[:, None] >> np.arange(n) & 1
    side = min(a, b) + 1
    overlaps = np.bitwise_count(a_masks[:, None] & b_masks).astype(np.intp) * side
    table = {}
    for ct, _ in cb.conjugacy_classes(n):
        rep = np.array(cb.canonical_perm_of_cycle_type(n, ct), dtype=np.int64)
        images = members @ (1 << rep)
        cells = overlaps + np.bitwise_count(images[:, None] & b_masks)
        table[ct] = np.bincount(cells.ravel(), minlength=side * side).reshape(side, side).tolist()
    return table


def class_fn_g(n: int, a: int, b: int, k: int, l: int) -> MappingProxyType:
    """g_(a,b,k,l) as a class function, by enumeration (n <= 9)."""
    if not (0 <= a <= n and 0 <= b <= n):
        raise ValueError(f"sizes a={a}, b={b} outside [0, {n}]")
    if not (0 <= k <= min(a, b) and 0 <= l <= min(a, b)):
        raise ValueError(f"overlaps k={k}, l={l} outside [0, min(a,b)]")
    table = _g_counts(n, a, b)
    return _class_function(n, lambda ct: table[ct][k][l])


@lru_cache(maxsize=None)
def _g_to_f_coefficients(n: int, a: int, b: int) -> tuple:
    """table[k][l][j], the coefficient of f_(a,j) in g_(a,b,k,l), for every
    overlap pair k, l <= a at once."""
    def coeff(k, l, j):
        if n - 2 * a + j < 0:
            return 0
        return sum(
            cb.binomial(j, i)
            * cb.binomial(a - j, k - i)
            * cb.binomial(a - j, l - i)
            * cb.binomial(n - 2 * a + j, b - k - l + i)
            for i in range(max(0, k + l - b), j + 1)
        )

    span = range(a + 1)
    return tuple(tuple(tuple(coeff(k, l, j) for j in span) for l in span) for k in span)


def g_to_f_expand(n: int, a: int, b: int, k: int, l: int) -> MappingProxyType:
    """g_(a,b,k,l) expanded over the f_(a,j) basis.

    Splitting B by its intersections with pi(A) cap A pieces gives
    g = sum_j [ sum_i C(j,i) C(a-j,k-i) C(a-j,l-i) C(n-2a+j, b-k-l+i) ] f_(a,j),
    valid for a <= b; the coefficients come from one table per (n, a, b).
    """
    if not (0 <= a <= b <= n):
        raise ValueError(f"expansion needs 0 <= a <= b <= n, got a={a}, b={b}")
    if not (0 <= k <= a and 0 <= l <= a):
        raise ValueError(f"overlaps k={k}, l={l} outside [0, a]")
    coeffs = _g_to_f_coefficients(n, a, b)[k][l]
    f_table = _f_counts(n, a)
    return _class_function(n, lambda ct: sum(map(mul, coeffs, f_table[ct])))


@verified("appendix.euler_transform", 2, 6, "subset enumeration",
          cb.BRUTE_FORCE_MAX_N)
def euler_transform_check(n: int) -> Report:
    """Binomial-transform identities tying the f statistics together.

    With F_(a,j) = sum_k C(k,j) f_(a,k), checks for every 0 <= a <= n and on
    every cycle type that F_(a,j) = sum_i C(n-2j+i, a-2j+i) f_(j,i) and that
    the alternating inversion recovers f from F.
    """
    report = Report()
    for a in range(n + 1):
        fa = _f_counts(n, a)
        fj_tables = {j: _f_counts(n, j) for j in range(a + 1)}
        for ct, _ in cb.conjugacy_classes(n):
            f_row = fa[ct]
            big_f = [
                sum(cb.binomial(k, j) * f_row[k] for k in range(a + 1))
                for j in range(a + 1)
            ]
            for j in range(a + 1):
                alt = 0
                for i in range(j + 1):
                    if a - 2 * j + i < 0:
                        continue
                    alt += cb.binomial(n - 2 * j + i, a - 2 * j + i) * fj_tables[j][ct][i]
                report.expect(
                    big_f[j] == alt,
                    f"cumulative form mismatch at n={n}, a={a}, j={j}, type={ct}: "
                    f"{big_f[j]} != {alt}",
                )
            for k in range(a + 1):
                recovered = sum(
                    (-1) ** (j + k) * cb.binomial(j, k) * big_f[j] for j in range(a + 1)
                )
                report.expect(
                    recovered == f_row[k],
                    f"inversion mismatch at n={n}, a={a}, k={k}, type={ct}: "
                    f"{recovered} != {f_row[k]}",
                )
    return report


@verified("appendix.g_to_f_expansion", 2, 6, "subset-pair enumeration",
          cb.BRUTE_FORCE_MAX_N)
def g_to_f_expansion_check(n: int) -> Report:
    """g_to_f_expand against the enumerated g on every a <= b and overlaps."""
    report = Report()
    for a in range(n + 1):
        for b in range(a, n + 1):
            for k in range(a + 1):
                for l in range(a + 1):
                    expanded = g_to_f_expand(n, a, b, k, l)
                    direct = class_fn_g(n, a, b, k, l)
                    report.expect(
                        expanded == direct,
                        f"expansion differs at n={n}, a={a}, b={b}, k={k}, l={l}",
                    )
    return report


def char_g_inner(n: int, d: int, a: int, b: int, k: int, l: int):
    """Closed form for the normalized inner product of g_(a,b,k,l) with the
    two-row character chi_(n-d,d).

    Zero for a < d; for a = d it is
    (-1)^(k+l) * C(d,k) * C(d,l) * C(n-2d, b-d).  Cases a > d raise.
    """
    if d < 1 or 2 * d > n:
        raise ValueError(f"need 1 <= d <= n/2, got n={n}, d={d}")
    if not (0 <= a <= b <= n):
        raise ValueError(f"need 0 <= a <= b <= n, got a={a}, b={b}")
    if not (0 <= k <= a and 0 <= l <= a):
        raise ValueError(f"overlaps k={k}, l={l} outside [0, a]")
    if a > d:
        raise UnsupportedCaseError(
            f"closed form is proven only for a <= d, got a={a}, d={d}"
        )
    if a < d:
        return Q(0)
    sign = -1 if (k + l) % 2 else 1
    return Q(sign * cb.binomial(d, k) * cb.binomial(d, l) * cb.binomial(n - 2 * d, b - d))


@verified("appendix.char_inner", 2, 6, "subset-pair enumeration", cb.BRUTE_FORCE_MAX_N)
def char_inner_check(n: int) -> Report:
    """Closed <g, chi> inner products against direct class sums."""
    report = Report()
    chars = {d: char_class_function(n, d) for d in range(1, cb.d_max(n) + 1)}
    for d, chi in chars.items():
        for a in range(d + 1):
            for b in range(a, n + 1):
                for k in range(a + 1):
                    for l in range(a + 1):
                        closed = char_g_inner(n, d, a, b, k, l)
                        direct = class_inner(n, class_fn_g(n, a, b, k, l), chi)
                        report.expect(
                            closed == direct,
                            f"<g, chi> at n={n}, d={d}, a={a}, b={b}, "
                            f"k={k}, l={l}: {closed} != {direct}",
                        )
    return report
