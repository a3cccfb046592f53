"""Gramian Schur complements, volume identity, iterated elimination of Y."""

import re

import numpy as np
import pytest

from cubemoments import apolar
from cubemoments import combinatorics as cb
from cubemoments import exactmat as xm
from cubemoments import schur
from cubemoments.apolar import apolar_gram, apolar_ip, hS_span, sigma_sq
from cubemoments.errors import InconsistentBlockError
from cubemoments.pseudomoments import parity_blocks
from cubemoments.rng import SplitMix64
from cubemoments.schur import (
    gram_schur_property_check,
    iterated_schur_on_Y,
    schur_complement,
    volume_identity_check,
)
from cubemoments.scalars import Q, QZERO
from test_pseudomoments import add_to_entries, rational_rows


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), QZERO)


def _gram(vectors):
    return [[_dot(u, v) for v in vectors] for u in vectors]


def _identity(m):
    return [[Q(int(i == j)) for j in range(m)] for i in range(m)]


def test_schur_complement_validation():
    with pytest.raises(ValueError, match="square and symmetric"):
        schur_complement([[Q(1), Q(2)], [Q(3), Q(4)]], 1)
    with pytest.raises(ValueError, match="square and symmetric"):
        schur_complement([[Q(1), Q(2)]], 1)
    with pytest.raises(ValueError, match="outside"):
        schur_complement(_identity(2), 3)


def test_schur_complement_reduces_and_refuses():
    assert schur_complement([[2, 4], [4, 10]], 1) == [[2]]
    assert schur_complement([[-2, 2], [2, 3]], 1) == [[5]]
    assert schur_complement([[Q(1, 2), Q(1, 6)], [Q(1, 6), Q(1, 2)]], 0) == [
        [Q(1, 2), Q(1, 6)],
        [Q(1, 6), Q(1, 2)],
    ]
    assert schur_complement([[Q(1, 2)]], 0) == [[Q(1, 2)]]
    with pytest.raises(InconsistentBlockError):
        schur_complement([[0, 1], [1, 0]], 1)


def test_schur_complement_basics():
    assert schur_complement(_identity(5), 2) == _identity(3)
    # Gram of a=(1,0), b=(1,1): complement is the squared norm of b off a
    comp = schur_complement([[Q(1), Q(1)], [Q(1), Q(2)]], 1)
    assert comp == [[Q(1)]]
    # trivial splits
    m = _gram([[Q(1), Q(2)], [Q(0), Q(1)]])
    assert schur_complement(m, 0) == m
    assert schur_complement(m, 2) == []


def test_schur_complement_duplicate_lead():
    # duplicated Gram vector makes the leading block singular but consistent;
    # pseudoinverse semantics: same complement as without the duplicate
    a, b = [Q(1), Q(2)], [Q(3), Q(-1)]
    with_dup = schur_complement(_gram([a, a, b]), 2)
    without = schur_complement(_gram([a, b]), 1)
    assert with_dup == without


def test_schur_complement_inconsistent():
    with pytest.raises(InconsistentBlockError):
        schur_complement([[Q(0), Q(1)], [Q(1), Q(0)]], 1)


def test_schur_complement_zero_head_row():
    # symmetric, not PSD: the head row has no pivot and a zero tail
    comp = schur_complement([[Q(0), Q(0)], [Q(0), Q(5)]], 1)
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
            assert schur_complement(gram, h) == expected


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
        base = schur_complement(gram, 2)
        manual = [
            [
                gram[2][2] - sum(cross[k][0] * perturbed[k][0] for k in range(2))
            ]
        ]
        assert base == manual


def test_gram_schur_property():
    report = gram_schur_property_check(42, trials=100)
    assert report.ok, report.details[:3]
    assert report.checked >= 100


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
    comp = schur_complement(gram, 1)
    assert xm.det(gram) == 0
    assert xm.det([[gram[0][0]]]) * xm.det(comp) == 0


def test_iterated_schur_small():
    for n in range(2, 9):
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
    assert blocks[1] == expected
    # and that block is sigma_1^2 times the harmonic Gram
    scale = sigma_sq(3, 1)
    g = scale * apolar_ip(hS_span(3, 0b001), hS_span(3, 0b010))
    assert blocks[1][0][1] == g


def test_iterated_schur_matches_rational_chain():
    # the integer chain with a running denominator against a loop of
    # rational Schur complements of the whole of Y
    for n in range(2, 9):
        blocks, report = iterated_schur_on_Y(n)
        assert report.ok, (n, report.details[:3])
        current = rational_rows(schur.build_Y(n))
        for k, block in enumerate(blocks):
            h = cb.binomial(n, k)
            assert block == [row[:h] for row in current[:h]], (n, k)
            current = schur_complement(current, h)


def _patch_Y(monkeypatch, edit):
    """Make the chain read Y(n) after edit(y, n) changes it in place."""
    original = schur.build_Y

    def edited(n):
        y = original(n)
        edit(y, n)
        return y

    monkeypatch.setattr(schur, "build_Y", edited)


def _shift_pair(y, n):
    add_to_entries(y, Q(1, 1000), [(1, 2), (2, 1)])


def _shift_overlap_zero(y, n):
    # the degree-1 block stays in the Johnson scheme but leaves the Gram
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    add_to_entries(y, Q(1, 1000), pairs)


def _shift_degree2_diagonal(y, n):
    add_to_entries(y, Q(1, 1000), [(n + 1, n + 1)])  # row n + 1 is the first 2-subset


def test_iterated_schur_fails_on_perturbed_Y(monkeypatch):
    # 1/1000 on one symmetric pair of singleton entries: the chain compares
    # L_1's upper triangle, where the pair is the one entry S={1}, T={2}
    _patch_Y(monkeypatch, _shift_pair)
    for n in range(3, 7):
        _, report = iterated_schur_on_Y(n)
        assert not report.ok, n
        entry, want = Q(-1, n - 1) + Q(1, 1000), Q(-1, n - 1)
        assert [d for d in report.details if d.startswith("step 1 ")] == [
            f"step 1 entry S=1, T=10 (overlap 0): {entry} != {want} at n={n}"
        ], report.details


def test_iterated_schur_fails_on_asymmetric_Y(monkeypatch):
    # one lower-triangle entry of a parity block: the chain eliminates one
    # triangle, so only its symmetry test of Y can see this
    def edit(y, n):
        i, j = y.index[0b1], y.index[0b10]  # the singletons {1} and {2}
        y.ints[j, i] += 1

    _patch_Y(monkeypatch, edit)
    for n in range(3, 9):
        _, report = iterated_schur_on_Y(n)
        assert not report.ok, n
        assert report.details == [
            f"odd parity block of Y is not symmetric at n={n}: S=1, T=10"
        ], report.details


def test_iterated_schur_counts_every_entry():
    for n in range(2, 9):
        _, report = iterated_schur_on_Y(n)
        dm = cb.d_max(n)
        # each parity block's symmetry, once per pair, then the upper triangle
        # of each L_k, then one PSD verdict per step
        sizes = [len(masks) for masks, _ in parity_blocks(schur.build_Y(n))[0]]
        pairs = sum(m * (m - 1) // 2 for m in sizes)
        entries = sum(cb.binomial(n, k) * (cb.binomial(n, k) + 1) // 2 for k in range(dm + 1))
        assert report.checked == pairs + entries + dm + 1, n


def _two_step_rule(n, k, block):
    """The chain's old structural verdict on L_k: a scan for the Johnson
    scheme, then the first entry of each overlap against the harmonic Gram."""
    masks = cb.subsets_of_size(n, k)
    by_overlap = {}
    johnson = True
    for i, s in enumerate(masks):
        for j, t in enumerate(masks):
            ref = by_overlap.setdefault((s & t).bit_count(), block[i][j])
            johnson = johnson and ref == block[i][j]
    s0 = (1 << k) - 1
    gram = {
        ov: sigma_sq(n, k) * apolar_ip(hS_span(n, s0), hS_span(n, t))
        for ov, _, t in cb.overlap_pairs(n, k, k)
    }
    return johnson and all(by_overlap[ov] == g for ov, g in gram.items())


@pytest.mark.parametrize(
    "corrupt", [None, _shift_pair, _shift_overlap_zero, _shift_degree2_diagonal]
)
def test_iterated_schur_verdict_matches_two_step_rule(monkeypatch, corrupt):
    if corrupt is not None:
        _patch_Y(monkeypatch, corrupt)
    for n in range(4 if corrupt is _shift_degree2_diagonal else 3, 9):
        blocks, report = iterated_schur_on_Y(n)
        rules = [_two_step_rule(n, k, block) for k, block in enumerate(blocks)]
        for k, rule in enumerate(rules):
            missed = any(d.startswith(f"step {k} entry ") for d in report.details)
            assert missed != rule, (n, k, report.details[:3])
        psd = not any(" not PSD " in d for d in report.details)
        assert report.ok == (all(rules) and psd), (n, report.details[:3])
        assert all(rules) == (corrupt is None), n


def test_gathered_targets_match_the_frame_gram():
    # the chain's popcount-gathered row against sigma_k^2 times one
    # apolar_gram row of hS_span frame forms, at every overlap
    for n in range(2, 9):
        for k in range(cb.d_max(n) + 1):
            pairs = cb.overlap_pairs(n, k, k)
            spans = [hS_span(n, t) for _, _, t in pairs]
            (row,) = apolar_gram([hS_span(n, pairs[0][1])], spans)
            want = {ov: sigma_sq(n, k) * x for (ov, _, _), x in zip(pairs, row)}
            got = schur._harmonic_targets(n, k)
            assert got == want, (n, k)
            assert all(type(x) is Q for x in got.values()), (n, k)


def test_iterated_schur_builds_no_frame_form(monkeypatch):
    # the targets come from value tables: no SpanPoly, no per-key-pair label
    def refuse(*args, **kwargs):
        raise AssertionError("the chain built a frame form")

    monkeypatch.setattr(apolar.SpanPoly, "__init__", refuse)
    monkeypatch.setattr(apolar, "_common_profile", refuse)
    for n in range(2, 9):
        _, report = iterated_schur_on_Y(n)
        assert report.ok, (n, report.details[:3])


def _shifted(original, degree, key):
    """original(n, d, x) + 1 where (d, x) == (degree, key), else unchanged."""
    return lambda n, d, x: original(n, d, x) + ((d, x) == (degree, key))


@pytest.mark.parametrize("table", ["isotypic_coefficient", "beta"])
def test_iterated_schur_fails_on_a_shifted_target_table(monkeypatch, table):
    # one coefficient of h_S (at overlap k // 2) or one pairing beta_j
    # (at j = k // 2 shared indices) off by one: step k misses its targets
    original = getattr(schur, table)
    for n in range(2, 9):
        for k in range(cb.d_max(n) + 1):
            if table == "beta":
                key = k // 2
            else:
                key = max(k // 2, 2 * k - n)  # a feasible overlap
            monkeypatch.setattr(schur, table, _shifted(original, k, key))
            _, report = iterated_schur_on_Y(n, steps=k)
            assert not report.ok, (n, k)
            witness = rf"step {k} entry S=[01]+, T=[01]+ \(overlap \d+\): \S+ != \S+ at n={n}"
            assert all(re.fullmatch(witness, d) for d in report.details), report.details


def test_exact_routes_return_no_float():
    for n in range(2, 9):
        blocks, _ = iterated_schur_on_Y(n)
        assert all(type(x) is Q for block in blocks for row in block for x in row), n
        parts, den = parity_blocks(schur.build_Y(n))
        assert type(den) is int, n
        assert all(block.dtype == np.int64 for _, block in parts), n


def test_iterated_schur_runs_one_elimination_per_step(monkeypatch):
    # the PSD verdict of each leading block comes from the Schur step's own
    # pivots: neither Bareiss elimination nor psd_pivots is called
    def refuse(*args, **kwargs):
        raise AssertionError("the chain eliminated a block twice")

    monkeypatch.setattr(xm, "eliminate", refuse)
    monkeypatch.setattr(xm, "psd_pivots", refuse)
    for n in range(2, 9):
        blocks, report = iterated_schur_on_Y(n)
        assert report.ok, (n, report.details[:3])
        assert len(blocks) == cb.d_max(n) + 1


def _with_singleton_diagonal(monkeypatch, value):
    def edit(y, n):
        y.ints[1, 1] = int(value * y.den)  # row 1 is the singleton {1}

    _patch_Y(monkeypatch, edit)


def test_iterated_schur_reports_negative_pivot(monkeypatch):
    _with_singleton_diagonal(monkeypatch, Q(-1))
    for n in range(3, 9):
        blocks, report = iterated_schur_on_Y(n)
        assert f"step 1 block not PSD at n={n}: negative pivot -1 at index 0" in (
            report.details
        ), report.details
        # the pass goes on past a negative pivot, so every step still runs
        assert len(blocks) == cb.d_max(n) + 1


def test_iterated_schur_stops_on_zero_diagonal(monkeypatch):
    # Y[{1},{1}] = 0 next to Y[{1},{2}] = a_2 != 0: no Schur step past it
    _with_singleton_diagonal(monkeypatch, QZERO)
    for n in range(3, 9):
        blocks, report = iterated_schur_on_Y(n)
        assert (
            f"step 1 block not PSD at n={n}: zero diagonal at index 0 with "
            "nonzero entry at column 1"
        ) in report.details, report.details
        assert len(blocks) == 2
