"""Dense exact matrix helpers over rational scalars.

Matrices are plain list-of-list rows holding ints or exact rationals; all
arithmetic stays exact.  integer_form is the one helper that scales a
rational matrix to ints, by the lcm of its denominators; the pseudomoment
matrix is never scaled, as pseudomoments.build_Y gathers its integer form
from that of a_0..a_n.  rational_product owns that step for every exact
product whose entries are wanted, outside the modular and elimination
kernels: it scales each factor, multiplies the chain over Python ints with
mat_mul (which keeps ints as ints) and divides each entry back once,
always returning rationals.  A product that is only compared with a known
matrix is not formed: product_equals decides A B / den_ab = C / den_c for
gathered integer matrices as one zero test on float64 residues (below),
and names the first entry where they differ.  rank, det, solve_consistent
and schur.schur_complement share one kernel, eliminate: a fraction-free
(Bareiss) elimination over Python ints, whose every division by the
previous pivot is exact and is checked to be, with the first nonzero entry
of each column as pivot.  eliminate_symmetric takes the same steps with
diagonal pivots only, on one triangle: the active block stays symmetric,
so each row is stepped from its diagonal on, and the upper triangle of the
block left behind is copied onto its lower one before it returns.  Its
pivots decide semidefiniteness (psd_pivots), and the block it leaves is
the Schur complement of the rows it eliminated, so schur's iterated chain
reads both from one pass.

Every modular step uses one prime table, POWER_PRIMES, all below 2^21.
Rank claims are lower bounds by rank_mod_at_least(residues, p, r): an
elimination over numpy int64 residues modulo p, where every product of two
residues is below 2^42.  It reduces lazily, only the pivot column and the
pivot row at each step, so the other rows gather at most r - 1 such
products and stay below p + r p^2 < 2^63.  The rank modulo a prime never
exceeds the rank over Q, so reaching rank r proves rank >= r.  Callers
holding int64 blocks (spectrum.rank_check,
pseudomoments.hypercube_decomposition_check) call it on them and take the
upper bound themselves, as independent kernel vectors or as the matrix's
width, so Bareiss rank runs only to write a failure's exact rank into its
witness.  rank_at_least(a, r) is the entry point for a rational matrix: it
tries POWER_PRIMES[0] on the integer form and asks the Bareiss kernel only
when that prime falls short.

Integer matrix powers are taken modulo the same primes, as numpy float64
products (spectrum._dense_pass, one prime at a time): require_float_exact
refuses a matrix of 2048 rows or more, so a row of such products sums
below 2^53 and every partial sum is an integer that float64 holds exactly,
in any summation order; power_product reduces with fmod after every
product, mod_combination once per weighted sum (an asserted term count
keeps it below 2^53), and no tolerance enters.  A value known to satisfy
|x| <= S comes back exactly from its residues under primes_exceeding(2 *
S), the shortest prefix of POWER_PRIMES whose product exceeds 2S, by
crt_signed, which returns the representative of least absolute value; and
it is zero exactly when every one of those residues is.  product_equals
applies that to D = den_c A B - den_ab C, with S bounded from the largest
gathered values, and first_nonzero returns a failure's entry whole.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import repeat
from operator import mul

import numpy as np

from .errors import InconsistentBlockError
from .scalars import Q, QZERO


def mat_mul(a: list, b: list) -> list:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _scaled_int(x, den: int) -> int:
    """den * x for an exact rational x, as a Python int; a product that is
    not an integer raises InconsistentBlockError and is never truncated."""
    value, rest = divmod(int(x.numerator) * den, int(x.denominator))
    if rest:
        raise InconsistentBlockError(f"{den} * {x} is not an integer")
    return value


def integer_form(rows: list):
    """(int_rows, den): den is the lcm of the denominators of the exact
    entries of rows and int_rows = den * rows entrywise, over Python ints.
    Entries may repeat as objects (a Gram kernel of pseudomoments.
    bilinear_gram holds one per distinct value), so each distinct object is
    scaled once and looked up by identity."""
    distinct = {id(x): x for row in rows for x in row}
    den = math.lcm(*(int(x.denominator) for x in distinct.values()))
    scaled = {key: _scaled_int(x, den) for key, x in distinct.items()}
    return [[scaled[id(x)] for x in row] for row in rows], den


def rational_product(*factors) -> list:
    """The exact product of a chain of rational matrices, with Q entries
    even when every factor holds ints: each factor is scaled to ints by
    integer_form, the chain is multiplied by mat_mul and every entry is
    divided once by the product of the scales."""
    scaled, dens = zip(*map(integer_form, factors))
    den = math.prod(dens)
    return [[Q(x, den) for x in row] for row in reduce(mat_mul, scaled)]


def is_symmetric(a: list) -> bool:
    m = len(a)
    if any(len(row) != m for row in a):
        return False
    return all(a[i][j] == a[j][i] for i in range(m) for j in range(i + 1, m))


def _exact_quotients(values: list, divisor: int) -> list:
    """Each of values divided by divisor, as Python ints; a remainder raises
    InconsistentBlockError, so no entry is ever truncated."""
    if divisor == 1 or not values:
        return values
    quotients, rests = zip(*map(divmod, values, repeat(divisor)))
    if any(rests):
        bad = next(v for v, rest in zip(values, rests) if rest)
        raise InconsistentBlockError(f"{bad} is not divisible by {divisor}")
    return list(quotients)


def _bareiss_step(rows, wr: list, p: int, prev: int) -> None:
    """For each (row, f, start) of rows, row becomes (p * row - f * wr) /
    prev from column start on, in place, with pivot p; f is the row's entry
    in the pivot column.  A row with f = 0 is only scaled by p / prev, which
    divides by less, often by 1, in lowest terms."""
    g = math.gcd(p, prev)
    scale, shrink = p // g, prev // g
    for wi, f, start in rows:
        if f:
            tail = [p * x - f * y for x, y in zip(wi[start:], wr[start:])]
            wi[start:] = _exact_quotients(tail, prev)
        else:
            wi[start:] = _exact_quotients([scale * x for x in wi[start:]], shrink)


def eliminate(
    work: list, cols: int, pivot_rows: int = None, reduce_above: bool = False
):
    """Fraction-free (Bareiss) elimination of work's first cols columns, in
    place, over Python ints.

    Columns go left to right; the pivot is the first nonzero entry from the
    top among the unused rows of range(pivot_rows) (default: every row), and
    it is swapped up to the next pivot position.  With pivot p in column c
    and previous pivot prev (1 before the first), every row below it,
    including rows past pivot_rows, becomes (p * row - row[c] * pivot_row)
    / prev from column c on; with reduce_above the rows above it do too,
    across their full width.  Every division is exact: each entry below the
    pivots is a minor of the input, and each pivot row is the last pivot
    times a row of the reduced echelon form.  Returns (pivot columns, number
    of row swaps, last pivot); the pivot of pivot_cols[i] sits in work[i].
    """
    rows = len(work)
    if pivot_rows is None:
        pivot_rows = rows
    pivot_cols = []
    swaps = 0
    prev = 1
    for c in range(cols):
        r = len(pivot_cols)
        if r == pivot_rows:
            break
        pivot_row = next((i for i in range(r, pivot_rows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            swaps += 1
        wr = work[r]
        p = wr[c]
        if reduce_above:
            _bareiss_step(((wi, wi[c], 0) for wi in work[:r]), wr, p, prev)
        _bareiss_step(((wi, wi[c], c) for wi in work[r + 1 :]), wr, p, prev)
        pivot_cols.append(c)
        prev = p
    return pivot_cols, swaps, prev


def require_zero_tails(rows: list, start: int) -> None:
    """Raise InconsistentBlockError unless the given rows, eliminated rows
    left without a pivot, are zero from column start on."""
    for row in rows:
        bad = next((j for j, x in enumerate(row[start:]) if x != 0), None)
        if bad is not None:
            raise InconsistentBlockError(
                f"right-hand side column {bad} is outside the column space"
            )


def rank(a: list) -> int:
    """Exact rank via row elimination; works for rectangular matrices."""
    work, _ = integer_form(a)
    return len(eliminate(work, len(a[0]) if a else 0)[0])


# primes below 2^21, the largest first: a product of two residues is below
# 2^42, so fewer than 2048 of them sum below 2^53 and a float64 matrix
# product of residues is exact (listed, not computed on import)
POWER_PRIMES = (
    2097143, 2097133, 2097131, 2097097, 2097091, 2097083, 2097047, 2097041,
    2097031, 2097023, 2097013, 2096993, 2096987, 2096971, 2096959, 2096957,
    2096947, 2096923, 2096911, 2096909, 2096893, 2096881, 2096873, 2096867,
    2096851, 2096837, 2096807, 2096791, 2096789, 2096777, 2096761, 2096741,
)
FLOAT_EXACT_ROWS = 2048  # 2048 * (2^21)^2 = 2^53


def primes_exceeding(bound: int) -> tuple:
    """The shortest prefix of POWER_PRIMES whose product exceeds bound; a
    bound beyond the product of them all raises ValueError."""
    product = 1
    for count, p in enumerate(POWER_PRIMES, 1):
        product *= p
        if product > bound:
            return POWER_PRIMES[:count]
    raise ValueError(
        f"a bound of {bound.bit_length()} bits exceeds the product of POWER_PRIMES"
    )


def crt_signed(residues, primes) -> int:
    """The integer x of least absolute value with x = residues[i] modulo
    primes[i] for every i (distinct primes): exact for |x| < P / 2, P the
    product of the primes."""
    modulus = math.prod(primes)
    x = sum(
        int(r) * (modulus // p) * pow(modulus // p, -1, p) for r, p in zip(residues, primes)
    ) % modulus
    return x - modulus if 2 * x > modulus else x


def require_float_exact(rows: int) -> None:
    """Refuse a matrix of FLOAT_EXACT_ROWS rows or more, whose float64
    residue products could pass 2^53 and round."""
    if rows >= FLOAT_EXACT_ROWS:
        raise ValueError(
            f"{rows} rows: float64 residue products are exact below {FLOAT_EXACT_ROWS}"
        )


def power_product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a b modulo p for float64 residue matrices of POWER_PRIMES' size: each
    entry sums fewer than 2048 products below 2^42, so it is exact."""
    require_float_exact(a.shape[1])
    return np.fmod(a @ b, p)


def product_equals(a: tuple, b: tuple, c: tuple, den_ab: int, den_c: int):
    """None when A B / den_ab = C / den_c, exactly, for integer matrices A, B
    and C given gathered, each as a pair (values, index) of Python ints and
    an int array of positions into them: the matrix is values[index].
    Otherwise first_nonzero of D = den_c A B - den_ab C, exact.

    The product holds iff D is zero.  With k the inner dimension, no entry
    of D passes S = k max|A| max|B| den_c + max|C| den_ab, so D is taken
    modulo primes_exceeding(2S), whose product P exceeds 2S: a multiple of P
    no larger than S in absolute value is 0, so D is zero exactly when every
    residue is, and an entry comes back by signed CRT.  Modulo each prime p
    the values are reduced once and gathered into float64 residue matrices,
    A B comes from power_product, and each term of D is below p^2 < 2^42,
    so their difference is exact; no tolerance enters."""
    (m, k), (rows_b, cols) = a[1].shape, b[1].shape
    if rows_b != k or c[1].shape != (m, cols):
        raise ValueError(f"shapes {a[1].shape} x {b[1].shape} != {c[1].shape}")
    require_float_exact(k)
    tops = [max(map(abs, values), default=0) for values, _ in (a, b, c)]
    bound = k * tops[0] * tops[1] * den_c + tops[2] * den_ab
    primes = primes_exceeding(2 * bound)
    nonzero = {}  # prime -> residues of D, when not all zero
    for p in primes:
        a_p, b_p, c_p = (
            np.array([v % p for v in values], dtype=np.float64)[index]
            for values, index in (a, b, c)
        )
        diff = np.fmod(power_product(a_p, b_p, p) * (den_c % p) - c_p * (den_ab % p), p)
        if diff.any():
            nonzero[p] = diff
    return first_nonzero(nonzero, primes)


def first_nonzero(nonzero: dict, primes) -> tuple | None:
    """(row, column, crt_signed value) of the first nonzero entry of M in
    row-major order, or None; nonzero[p] holds M modulo p for each prime of
    primes under which M is not zero."""
    if not nonzero:
        return None
    hit = np.logical_or.reduce([residues != 0 for residues in nonzero.values()])
    i, j = divmod(int(np.flatnonzero(hit)[0]), hit.shape[1])
    value = crt_signed([nonzero[p][i, j] if p in nonzero else 0 for p in primes], primes)
    return i, j, value


def mod_combination(weights: list, powers: list, p: int) -> np.ndarray:
    """weights[0] I + sum_j weights[j] powers[j - 1] modulo p, for int
    weights and float64 residue matrices below p < 2^21: each of the at most
    len(weights) terms is below p^2, and the asserted count keeps their sum
    below 2^53, so it is exact and one fmod reduces it."""
    assert len(weights) * p * p < 2**53, (len(weights), p)
    acc = np.zeros_like(powers[0])
    for k, power in zip(weights[1:], powers):
        acc += (k % p) * power
    acc[np.diag_indices_from(acc)] += weights[0] % p
    return np.fmod(acc, p)


def rank_mod_at_least(residues: np.ndarray, p: int, r: int) -> bool:
    """Whether the 2-D int64 array residues has rank >= r modulo the prime
    p < 2^21, by Gaussian elimination that stops at the r-th pivot.  Its
    entries are reduced modulo p into a copy, and reduced again lazily: at
    each step only the pivot column, before the pivot search, and the pivot
    row's tail, before it is scaled by the pivot's inverse.  The other rows
    only subtract products of two residues, each below p^2 < 2^42, at most
    r - 1 times, so every entry stays below p + r p^2 < 2^63 in absolute
    value (asserted).  A rank modulo p never exceeds the rank over Q."""
    assert 2 <= p < 2**21, p
    if r <= 0:
        return True
    if r > min(residues.shape):
        return False
    assert p + r * p * p < 2**63, (p, r)
    work = np.mod(residues, p)
    found = 0
    for c in range(work.shape[1]):
        column = work[found:, c]
        column %= p
        nonzero = np.flatnonzero(column)
        if not nonzero.size:
            continue
        first = found + int(nonzero[0])
        if first != found:
            work[[found, first]] = work[[first, found]]
        tail = work[found, c:] % p
        pivot = tail * pow(int(tail[0]), -1, p) % p
        # after the swap the old row `found`, zero in column c, sits at first
        targets = found + nonzero[1:]
        if targets.size:
            work[targets, c:] -= work[targets, c : c + 1] * pivot
        found += 1
        if found >= r:
            return True
    return False


def rank_at_least(a: list, r: int) -> bool:
    """Whether rank(a) >= r, exactly, for a rational matrix a: True when
    its integer form reaches rank r modulo POWER_PRIMES[0], else the rank
    over the integers by the Bareiss kernel."""
    cols = len(a[0]) if a else 0
    if not 0 < r <= min(len(a), cols):
        return r <= 0
    work, _ = integer_form(a)
    p = POWER_PRIMES[0]
    residues = np.array([[x % p for x in row] for row in work], dtype=np.int64)
    return rank_mod_at_least(residues, p, r) or len(eliminate(work, cols)[0]) >= r


def det(a: list):
    """Exact determinant via elimination with row swaps: the last pivot of
    den * a is den**m times the determinant of the row-swapped matrix."""
    m = len(a)
    work, den = integer_form(a)
    pivot_cols, swaps, last = eliminate(work, m)
    if len(pivot_cols) < m:
        return QZERO
    out = Q(last, den**m)
    return -out if swaps % 2 else out


def solve_consistent(a: list, b: list) -> list:
    """One exact solution X of A X = B, free variables pinned to zero.

    A may be singular; if some column of B leaves the column space of A the
    system has no solution and InconsistentBlockError is raised.  For
    symmetric A the returned X makes expressions of the form C - B^T X
    independent of which solution was picked.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    width = len(b[0]) if rows else 0
    work, _ = integer_form([list(ra) + list(rb) for ra, rb in zip(a, b)])
    pivot_cols, _, _ = eliminate(work, cols, reduce_above=True)
    require_zero_tails(work[len(pivot_cols):], cols)
    x = [[QZERO] * width for _ in range(cols)]
    for idx, c in enumerate(pivot_cols):
        for j in range(width):
            x[c][j] = Q(work[idx][cols + j], work[idx][c])
    return x


def eliminate_symmetric(work: list, start: int, stop: int, prev: int = 1, den: int = 1):
    """Fraction-free elimination with diagonal pivots of the symmetric int
    matrix work, in place, over pivot indices start..stop-1; rows before
    start are already eliminated, and prev is their last pivot.

    Each pivot steps every later row as in eliminate, but only on and above
    the diagonal: row i is updated from column i on, with its factor read
    from the pivot row (the column below the pivot is the stale lower
    triangle).  Before returning, the upper triangle of the trailing block
    (rows and columns from stop on) is copied onto its lower triangle, so
    that block over den * prev is the whole Schur complement of the
    rational matrix work / den on the pivots so far.  A zero diagonal entry
    whose row is zero from there on is skipped; one whose row is nonzero
    before column stop ends the pass, and one nonzero only from stop on
    raises InconsistentBlockError (no pivot reaches its tail).  Returns
    (prev, pivots, witness): the last pivot (None if the pass ended early),
    the LDL^T pivots of work / den, and the first reason the block is not
    PSD, counting indices from start, or None; a negative pivot does not
    end the pass.
    """
    pivots = []
    witness = None
    m = len(work)
    for c in range(start, stop):
        wc = work[c]
        p = wc[c]
        if not p:
            j = next((j for j in range(c + 1, m) if wc[j]), None)
            if j is None:
                continue
            if j >= stop:
                raise InconsistentBlockError(
                    f"right-hand side column {j - stop} is outside the column space"
                )
            _mirror_upper(work, stop)
            return None, pivots, witness or (
                f"zero diagonal at index {c - start} with nonzero entry at "
                f"column {j - start}"
            )
        pivots.append(Q(p, prev * den))
        if pivots[-1] < 0 and witness is None:
            witness = f"negative pivot {pivots[-1]} at index {c - start}"
        _bareiss_step(zip(work[c + 1 :], wc[c + 1 :], range(c + 1, m)), wc, p, prev)
        prev = p
    _mirror_upper(work, stop)
    return prev, pivots, witness


def _mirror_upper(work: list, start: int) -> None:
    """Copy the upper triangle of work's trailing block, rows and columns
    from start on, onto its lower triangle, in place."""
    columns = list(zip(*(row[start:] for row in work[start:])))
    for i, column in enumerate(columns[1:], 1):
        work[start + i][start : start + i] = column[:i]


def psd_pivots(a: list):
    """Exact semidefiniteness test for a symmetric matrix, by one pass of
    eliminate_symmetric over its integer form: (True, pivots) with its
    rank-many positive LDL^T pivots when it is positive semidefinite, else
    (False, witness_string).
    """
    if not is_symmetric(a):
        return (False, "matrix is not symmetric")
    work, den = integer_form(a)
    _, pivots, witness = eliminate_symmetric(work, 0, len(a), den=den)
    return (False, witness) if witness else (True, pivots)
