"""Schur complements of exact Gram matrices, without pseudoinverses.

For a symmetric matrix M split into blocks by a leading index range, the
complement M22 - M21 M11^+ M12 is computed here by fraction-free elimination
over Python ints of the leading columns of M, with pivots taken from the
leading rows only (schur_complement, by exactmat.eliminate): the trailing
block left behind, divided by the last pivot and the common denominator, is
M22 - M21 X for a solution X of the consistent system M11 X = M12.  When M
is the Gram matrix of vectors (a_1..a_m, b_1..b_n), any two solutions
differ by kernel columns of M11, and those pair to zero against M21, so the
complement never depends on the choice; it equals the Gram matrix of the
b_j projected orthogonally off the span of the a_i.

That Gramian reading is what drives the iterated elimination of the
pseudomoment matrix: after eliminating the degree blocks below k, the
leading block L_k is exactly sigma_k^2 times the apolar Gram of the
harmonic projections h_S over |S| = k, so it lies in the Johnson scheme
(entries depend only on |S cap T|).  Y is the direct sum of its two parity
blocks (pseudomoments.parity_blocks), so the chain runs one symmetric
elimination with diagonal pivots (exactmat.eliminate_symmetric) through
each block, pausing at each degree.  That elimination reads one triangle,
so the chain first tests each int64 block for symmetry, once; a symmetric
block keeps every L_k symmetric under diagonal pivots, so L_k's upper
triangle decides it.  Step k reads L_k from block k mod 2 as its active
leading rows over den * prev and compares each entry on or above the
diagonal, in those integer units, with sigma_k^2 <h_S0, h_T> for its
overlap |S cap T|.  That target row is one exact product over the k-subset
masks, gathered by popcounts from two short value tables, the closed-form
coefficients of h_S and the pairings apolar.beta of frame monomials by
their overlap, so no frame form is built.  One pass over those entries
decides both the Johnson scheme and the harmonic Gram.  It then eliminates
those rows, whose pivots are L_k's LDL^T pivots, so the same pass gives the
PSD verdict of L_k and the next Schur complement.  A failure of consistency
or of the Gram claim is reported exactly, never approximated.
"""

from __future__ import annotations

import numpy as np

from . import combinatorics as cb
from . import exactmat as xm
from .apolar import beta, sigma_sq
from .pseudomoments import build_Y, isotypic_coefficient, parity_blocks
from .report import Report, verified
from .rng import SplitMix64
from .scalars import Q

ITERATED_MAX_N = 8
# leading vectors, tail vectors and ambient dimension in gram_schur_property_check
GRAM_LEADS, GRAM_TAILS, GRAM_AMBIENT = 2, 2, 4


def schur_complement(matrix: list, head: int) -> list:
    """M22 - M21 M11^+ M12 over Q for the symmetric matrix M and its leading
    head x head block M11.  Raises ValueError for a matrix that is not
    square and symmetric or a head outside [0, size], and
    InconsistentBlockError when M11 X = M12 has no solution, that is when a
    leading row left without a pivot still has a nonzero tail; this cannot
    happen for a PSD leading block (Gram case)."""
    if not xm.is_symmetric(matrix):
        raise ValueError("matrix must be square and symmetric")
    if not (0 <= head <= len(matrix)):
        raise ValueError(f"head {head} outside [0, {len(matrix)}]")
    work, den = xm.integer_form(matrix)
    pivot_cols, _, last = xm.eliminate(work, head, pivot_rows=head)
    xm.require_zero_tails(work[len(pivot_cols):head], head)
    den *= last
    return [[Q(x, den) for x in row[head:]] for row in work[head:]]


def _gram(vectors) -> list:
    """Pairwise dot products of vectors; over ints for Python-int vectors."""
    return xm.mat_mul(vectors, list(zip(*vectors)))


def _require_trials(trials: int) -> None:
    """A randomized check over no trials would compare nothing."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")


def gram_schur_property_check(seed: int, trials: int = 100) -> Report:
    """The Schur complement of a Gram matrix equals the Gram matrix of the
    projected tail vectors, computed here as explicit rational vectors
    b_j - sum_k t_kj a_k with A t_j = (<a_k, b_j>)_k.

    Random Python-int vectors with entries in [-3, 3], GRAM_LEADS leading and
    GRAM_TAILS tail vectors in dimension GRAM_AMBIENT; every few trials mix in
    the degenerate shapes: duplicated leading vectors (singular A), all-zero
    leading vectors (complement = Gram of the b's), and tails inside the
    leading span (zero complement).
    """
    _require_trials(trials)
    rng = SplitMix64(seed)
    report = Report()
    for trial in range(trials):
        a_vecs = [
            [rng.randint(-3, 3) for _ in range(GRAM_AMBIENT)] for _ in range(GRAM_LEADS)
        ]
        b_vecs = [
            [rng.randint(-3, 3) for _ in range(GRAM_AMBIENT)] for _ in range(GRAM_TAILS)
        ]
        zero_leads = trial % 7 == 3
        span_tails = trial % 11 == 5
        if zero_leads:
            a_vecs = [[0] * GRAM_AMBIENT for _ in range(GRAM_LEADS)]
        elif trial % 5 == 2:
            a_vecs[1] = a_vecs[0][:]
        if span_tails and not zero_leads:
            b_vecs = []
            for _ in range(GRAM_TAILS):
                combo = [0] * GRAM_AMBIENT
                for a in a_vecs:
                    c = rng.randint(-2, 2)
                    combo = [x + c * y for x, y in zip(combo, a)]
                b_vecs.append(combo)

        gram = _gram(a_vecs + b_vecs)
        complement = schur_complement(gram, GRAM_LEADS)

        lead_gram = [row[:GRAM_LEADS] for row in gram[:GRAM_LEADS]]
        cross = xm.mat_mul(a_vecs, list(zip(*b_vecs)))
        coeffs = xm.solve_consistent(lead_gram, cross)
        # b_j - sum_k t_kj a_k for every j: the product [I | -T^T] [B; A]
        mix = [
            [int(i == j) for i in range(GRAM_TAILS)] + [-row[j] for row in coeffs]
            for j in range(GRAM_TAILS)
        ]
        projected = xm.rational_product(mix, b_vecs + a_vecs)
        report.expect(
            complement == xm.rational_product(projected, list(zip(*projected))),
            f"complement != projected Gram at trial {trial} (seed {seed})",
        )
        if span_tails and not zero_leads:
            report.expect(
                all(v == 0 for row in complement for v in row),
                f"span-tail complement nonzero at trial {trial}",
            )
        if zero_leads:
            report.expect(
                complement == _gram(b_vecs),
                f"zero-lead complement is not Gram(b) at trial {trial}",
            )
    return report


def volume_identity_check(seed: int, trials: int = 50) -> Report:
    """det(M) = det(M11) * det(complement) for Gram instances, the
    generalized base-times-height formula; singular instances included
    (both sides collapse to zero)."""
    _require_trials(trials)
    rng = SplitMix64(seed)
    report = Report()
    for trial in range(trials):
        count = 4
        # every fourth family lives in a 2-dimensional ambient space, which
        # forces singular Grams
        ambient = 2 if trial % 4 == 3 else count
        vecs = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(count)]
        gram = _gram(vecs)
        head = rng.randint(1, count - 1)
        complement = schur_complement(gram, head)
        lead = [row[:head] for row in gram[:head]]
        lhs = xm.det(gram)
        rhs = xm.det(lead) * xm.det(complement)
        report.expect(
            lhs == rhs, f"volume identity fails at trial {trial}: {lhs} != {rhs}"
        )
    return report


def _harmonic_targets(n: int, k: int) -> dict:
    """{overlap: sigma_k^2 <h_S0, h_T>} for S0 = {1..k} and the overlap
    representatives T of cb.overlap_pairs(n, k, k), as one exact product
    a_0 K C over the k-subset masks B, gathered by popcounts: h_S is
    sum_B coef[|B cap S|] x^B (isotypic_coefficient), so a_0 = coef[|B cap S0|]
    and C_T = coef[|B cap T|], and frame monomials pair as
    K = pairing[|B cap B'|], the table of beta(n, k, j) over j shared indices.
    Each value table is scaled to ints once and the row divided back once."""
    lo = max(0, 2 * k - n)
    (coef,), den_c = xm.integer_form(
        [[isotypic_coefficient(n, k, v) for v in range(lo, k + 1)]]
    )
    (pairing,), den_b = xm.integer_form([[beta(n, k, j) for j in range(k + 1)]])
    coef, pairing = np.array(coef, dtype=object), np.array(pairing, dtype=object)
    pairs = cb.overlap_pairs(n, k, k)  # every pair shares S0 = {1..k}
    masks = np.array(cb.subsets_of_size(n, k), dtype=np.int64)
    reps = np.array([t for _, _, t in pairs], dtype=np.int64)
    a_0 = coef[np.bitwise_count(masks & pairs[0][1]) - lo]
    gram = pairing[np.bitwise_count(masks[:, None] & masks)]
    c_t = coef[np.bitwise_count(masks[:, None] & reps) - lo]
    row = (a_0 @ gram @ c_t).tolist()
    scale = sigma_sq(n, k) / (den_c * den_c * den_b)
    return {ov: scale * x for (ov, _, _), x in zip(pairs, row)}


def iterated_schur_on_Y(n: int, steps: int = None):
    """Eliminate the degree blocks of Y in order d = 0, 1, ...; at each step
    every entry of the current leading block must equal sigma_k^2 times the
    apolar pairing of the harmonic projections h_S, h_T over size-k subsets,
    and the block must be PSD by exact pivots.  Each parity block of Y is
    first tested for symmetry, counted as m(m - 1)/2 comparisons for m rows;
    step k then compares the C(n, k)(C(n, k) + 1)/2 entries on or above the
    diagonal against the pairing for each overlap |S cap T| (which also
    puts the block in the Johnson scheme), in one pass; the pairings come
    from one popcount-gathered product per step (_harmonic_targets).
    Returns (leading blocks per step, each one whole, report).  A zero
    diagonal entry of L_k with a nonzero entry in L_k ends the chain after
    step k, since diagonal pivots give no Schur step past it; one whose row
    is nonzero only past L_k, like a nonzero entry between the two parity
    blocks, raises InconsistentBlockError."""
    cb.check_n(n, cap=ITERATED_MAX_N, lo=2)
    if steps is None:
        steps = cb.d_max(n)
    if not (0 <= steps <= cb.d_max(n)):
        raise ValueError(f"need 0 <= steps <= d_max = {cb.d_max(n)}, got {steps}")
    report = Report()
    parts, den = parity_blocks(build_Y(n))
    # the chain reads one triangle of each block, so each block's symmetry
    # is decided here, once
    for parity, (masks, block) in zip(("even", "odd"), parts):
        m = len(masks)
        report.count(m * (m - 1) // 2)
        asymmetric = np.argwhere(block != block.T)
        if asymmetric.size:
            i, j = map(int, asymmetric[0])
            report.fail(
                f"{parity} parity block of Y is not symmetric at n={n}: "
                f"S={masks[i]:b}, T={masks[j]:b}"
            )
    # per parity block: its rows over Python ints (Bareiss pivots pass 64
    # bits), where its next degree starts, and its last pivot
    chains = [[block.tolist(), 0, 1] for _, block in parts]
    blocks = []
    for k in range(steps + 1):
        h = cb.binomial(n, k)
        work, start, prev = chains[k & 1]
        stop = start + h
        lead_ints = [row[start:stop] for row in work[start:stop]]
        # one Q per distinct value of L_k = lead_ints / (den * prev)
        values = {x: Q(x, den * prev) for x in {x for row in lead_ints for x in row}}
        blocks.append([[values[x] for x in row] for row in lead_ints])

        want = _harmonic_targets(n, k)
        targets = {}  # want[ov] in L_k's integer units: a non-integer matches nothing
        for ov, w in want.items():
            unit = w * den * prev
            targets[ov] = int(unit) if unit.denominator == 1 else None
        masks = cb.subsets_of_size(n, k)
        # a symmetric Y keeps every L_k symmetric, so its upper triangle decides it
        report.count(h * (h + 1) // 2)
        for i, (s, row) in enumerate(zip(masks, lead_ints)):
            for t, x in zip(masks[i:], row[i:]):
                ov = (s & t).bit_count()
                if x != targets[ov]:
                    report.fail(
                        f"step {k} entry S={s:b}, T={t:b} (overlap {ov}): "
                        f"{values[x]} != {want[ov]} at n={n}"
                    )

        # the PSD verdict of L_k and the Schur step past it, in one pass
        prev, _, witness = xm.eliminate_symmetric(work, start, stop, prev, den)
        report.expect(witness is None, f"step {k} block not PSD at n={n}: {witness}")
        if prev is None:  # a zero diagonal with a nonzero row: no next step
            break
        chains[k & 1][1:] = [stop, prev]
    return blocks, report


@verified("schur.iterated_elimination", 2, ITERATED_MAX_N, "iterated elimination",
          ITERATED_MAX_N)
def iterated_elimination_check(n: int) -> Report:
    """iterated_schur_on_Y(n) over every degree: its report, the degree-0
    block [[1]], one block per degree, and block k of size C(n, k)."""
    blocks, report = iterated_schur_on_Y(n)
    report.expect(blocks[0] == [[Q(1)]], f"degree-0 block is not [[1]] at n={n}")
    report.expect(
        len(blocks) == cb.d_max(n) + 1,
        f"{len(blocks)} blocks at n={n}, expected {cb.d_max(n) + 1}",
    )
    for k, block in enumerate(blocks):
        report.expect(
            len(block) == cb.binomial(n, k),
            f"step {k} block size at n={n}: {len(block)}",
        )
    return report
