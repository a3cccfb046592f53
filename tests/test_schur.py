"""Gramian Schur complements, volume identity, iterated elimination of Y."""

import pytest

from cubemoments import combinatorics as cb
from cubemoments import exactmat as xm
from cubemoments.apolar import apolar_ip, hS_span, sigma_sq
from cubemoments.errors import InconsistentBlockError
from cubemoments.pseudomoments import build_Y
from cubemoments.rng import SplitMix64
from cubemoments.schur import (
    BlockedMatrix,
    gram_schur_property_check,
    iterated_schur_on_Y,
    schur_complement,
    volume_identity_check,
)
from cubemoments.scalars import Q, QZERO


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), QZERO)


def _gram(vectors):
    return [[_dot(u, v) for v in vectors] for u in vectors]


def _identity(m):
    return [[Q(int(i == j)) for j in range(m)] for i in range(m)]


def test_blocked_matrix_validation():
    with pytest.raises(ValueError):
        BlockedMatrix([[Q(1), Q(2)], [Q(3), Q(4)]], 1)  # not symmetric
    with pytest.raises(ValueError):
        BlockedMatrix([[Q(1), Q(2)]], 1)  # not square
    with pytest.raises(ValueError):
        BlockedMatrix(_identity(2), 3)  # head out of range


def test_schur_complement_basics():
    assert xm.mat_eq(schur_complement(BlockedMatrix(_identity(5), 2)), _identity(3))
    # Gram of a=(1,0), b=(1,1): complement is the squared norm of b off a
    comp = schur_complement(BlockedMatrix([[Q(1), Q(1)], [Q(1), Q(2)]], 1))
    assert comp == [[Q(1)]]
    # trivial splits
    m = _gram([[Q(1), Q(2)], [Q(0), Q(1)]])
    assert xm.mat_eq(schur_complement(BlockedMatrix(m, 0)), m)
    assert schur_complement(BlockedMatrix(m, 2)) == []


def test_schur_complement_duplicate_lead():
    # duplicated Gram vector makes the leading block singular but consistent;
    # pseudoinverse semantics: same complement as without the duplicate
    a, b = [Q(1), Q(2)], [Q(3), Q(-1)]
    with_dup = schur_complement(BlockedMatrix(_gram([a, a, b]), 2))
    without = schur_complement(BlockedMatrix(_gram([a, b]), 1))
    assert xm.mat_eq(with_dup, without)


def test_schur_complement_inconsistent():
    with pytest.raises(InconsistentBlockError):
        schur_complement(BlockedMatrix([[Q(0), Q(1)], [Q(1), Q(0)]], 1))


def test_schur_complement_zero_head_row():
    # symmetric, not PSD: the head row has no pivot and a zero tail
    comp = schur_complement(BlockedMatrix([[Q(0), Q(0)], [Q(0), Q(5)]], 1))
    assert comp == [[Q(5)]]


def test_schur_complement_matches_solve_on_random_grams():
    rng = SplitMix64(2718)
    for trial in range(12):
        ambient = 2 if trial % 3 == 0 else 4  # every third Gram is singular
        vecs = [[Q(rng.randint(-3, 3)) for _ in range(ambient)] for _ in range(5)]
        gram = _gram(vecs)
        m = len(gram)
        for h in range(m + 1):
            lead = [row[:h] for row in gram[:h]]
            cross = [row[h:] for row in gram[:h]]
            x = xm.solve_consistent(lead, cross)
            expected = [
                [
                    gram[h + i][h + j]
                    - sum((cross[k][i] * x[k][j] for k in range(h)), QZERO)
                    for j in range(m - h)
                ]
                for i in range(m - h)
            ]
            assert xm.mat_eq(schur_complement(BlockedMatrix(gram, h)), expected)


def test_solution_choice_independence():
    # when the leading block is singular, solutions of A X = B differ by
    # kernel columns; those annihilate against B, so the complement is fixed
    rng = SplitMix64(314)
    for _ in range(20):
        a = [Q(rng.randint(-3, 3)) for _ in range(3)]
        b = [Q(rng.randint(-3, 3)) for _ in range(3)]
        gram = _gram([a, a, b])
        lead = [row[:2] for row in gram[:2]]
        cross = [row[2:] for row in gram[:2]]
        x = xm.solve_consistent(lead, cross)
        kernel = [Q(1), Q(-1)]  # duplicate columns
        assert all(
            sum(kernel[k] * cross[k][j] for k in range(2)) == 0 for j in range(1)
        )
        shift = Q(rng.randint(-2, 2))
        perturbed = [
            [x[k][j] + shift * kernel[k] for j in range(1)] for k in range(2)
        ]
        base = schur_complement(BlockedMatrix(gram, 2))
        manual = [
            [
                gram[2][2] - sum(cross[k][0] * perturbed[k][0] for k in range(2))
            ]
        ]
        assert xm.mat_eq(base, manual)


def test_gram_schur_property():
    report = gram_schur_property_check(42, trials=100, dims=(2, 2, 4))
    assert report.ok, report.details[:3]
    assert report.checked >= 100
    # different seed, different shape
    assert gram_schur_property_check(7, trials=30, dims=(3, 2, 5)).ok


@pytest.mark.parametrize("trials", [0, -3])
def test_randomized_checks_need_a_trial(trials):
    # a run over no trials would compare nothing and still report ok
    with pytest.raises(ValueError, match="at least one trial"):
        gram_schur_property_check(42, trials=trials)
    with pytest.raises(ValueError, match="at least one trial"):
        volume_identity_check(42, trials=trials)


def test_volume_identity():
    report = volume_identity_check(7, trials=50)
    assert report.ok and report.checked == 50
    # frozen singular instance: three dependent vectors, head 1
    vecs = [[Q(1), Q(0)], [Q(0), Q(1)], [Q(1), Q(1)]]
    gram = _gram(vecs)
    comp = schur_complement(BlockedMatrix(gram, 1))
    assert xm.det(gram) == 0
    assert xm.det([[gram[0][0]]]) * xm.det(comp) == 0


def test_iterated_schur_small():
    for n in range(2, 7):
        blocks, report = iterated_schur_on_Y(n)
        assert report.ok, (n, report.details[:3])
        assert len(blocks) == cb.d_max(n) + 1
        assert blocks[0] == [[Q(1)]]
        for k, block in enumerate(blocks):
            assert len(block) == cb.binomial(n, k)
    with pytest.raises(ValueError):
        iterated_schur_on_Y(9)
    with pytest.raises(ValueError):
        iterated_schur_on_Y(4, steps=3)


def test_iterated_schur_frozen_n3():
    blocks, report = iterated_schur_on_Y(3, steps=1)
    assert report.ok
    # degree-0 and degree-1 never mix (odd moments vanish), so step 1 shows
    # the untouched singleton block of Y(3)
    expected = [[Q(1) if i == j else Q(-1, 2) for j in range(3)] for i in range(3)]
    assert xm.mat_eq(blocks[1], expected)
    # and that block is sigma_1^2 times the harmonic Gram
    scale = sigma_sq(3, 1)
    g = scale * apolar_ip(hS_span(3, 0b001), hS_span(3, 0b010))
    assert blocks[1][0][1] == g
