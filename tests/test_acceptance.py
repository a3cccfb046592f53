"""Acceptance gate: fourteen binding criteria, one test each.

Criteria 04-13 run the same <identity>_check(n) functions that
`cubemoments verify` registers, over each criterion's own n range, and
assert that every report passes with a frozen number of comparisons, so a
check that stops comparing fails here.  Everything is exact unless a
tolerance is stated (the float eigensolver check, 1e-9 relative); stated
runtime budgets are asserted.  The conftest prints a PASS/FAIL line per
criterion in the terminal summary.
"""

import time

import cubemoments.apolar as ap
import cubemoments.characters as ch
import cubemoments.combinatorics as cb
import cubemoments.exactmat as xm
import cubemoments.pseudomoments as pm
import cubemoments.schur as su
import cubemoments.spectrum as sp
from cubemoments.scalars import Q

SEED = 42


def _checked(check, ns) -> int:
    """Run check(n) for every n in ns, assert that each report passes, and
    return the total number of comparisons made."""
    total = 0
    for n in ns:
        report = check(n)
        assert report.ok, (n, report.details[:5])
        total += report.checked
    return total


def test_criterion_01_exact_positivity_certificates():
    """Annihilation, trace moments to d_max + 3, and positive eigenvalues,
    all in exact arithmetic for 2 <= n <= 9, under 2 minutes."""
    start = time.perf_counter()
    for n in range(2, 10):
        cert = sp.exact_spectrum_certificate(n)
        assert cert.annihilation_ok, (n, cert.report.details)
        assert cert.traces_ok, (n, cert.report.details)
        assert cert.positive_ok, (n, cert.report.details)
        assert cert.ok, (n, cert.report.details)
    assert time.perf_counter() - start < 120


def _charpoly(a):
    # descending coefficients of det(xI - A) by the Faddeev-LeVerrier trace
    # recursion: M_k = A (M_(k-1) + c_(k-1) I), c_k = -tr(M_k) / k
    m = len(a)
    coeffs = [Q(1)]
    mk = [[Q(int(i == j)) for j in range(m)] for i in range(m)]
    for k in range(1, m + 1):
        mk = xm.mat_mul(a, mk)
        coeffs.append(-xm.mat_trace(mk) / k)
        for i in range(m):
            mk[i][i] += coeffs[-1]
    return coeffs


def _charpoly_from_roots(roots):
    # descending coefficients of prod (x - r), matching _charpoly
    coeffs = [Q(1)]
    for r in roots:
        nxt = coeffs + [Q(0)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] -= r * c
        coeffs = nxt
    return coeffs


def test_criterion_02_small_spectra_frozen():
    """Exact spectra at n = 2 and 3 against an independent characteristic
    polynomial oracle.  Zero tolerance."""
    expected = {
        2: [(Q(2), 1), (Q(1), 1), (Q(0), 1)],
        3: [(Q(3, 2), 2), (Q(1), 1), (Q(0), 1)],
    }
    for n, spectrum in expected.items():
        closed = sorted(
            [(sp.lambda_closed(n, d), sp.multiplicity(n, d)) for d in range(cb.d_max(n) + 1)]
            + [(Q(0), sp.zero_multiplicity(n))],
            reverse=True,
        )
        assert closed == sorted(spectrum, reverse=True)
        roots = [v for v, mult in spectrum for _ in range(mult)]
        assert _charpoly(pm.build_Y(n).rows) == _charpoly_from_roots(roots)


def test_criterion_03_eigenvalue_recursion_to_40():
    start = time.perf_counter()
    report = sp.lambda_recursion_check(40)
    assert report.ok, report.details
    assert report.checked == 399
    assert time.perf_counter() - start < 1.0


def test_criterion_04_three_route_agreement():
    """Closed form vs frame decomposition exactly to n = 12; float
    eigensolver within 1e-9 relative to n = 14, under 5 minutes."""
    assert _checked(sp.frame_decomposition_check, range(2, 13)) == 94
    start = time.perf_counter()
    assert _checked(sp.numeric_agreement_check, range(2, 15)) == 26
    assert time.perf_counter() - start < 300


def test_criterion_05_restricted_character_sums():
    """Closed restricted sums equal the full S_n oracle on every supported
    tuple for n <= 7, under 1 minute."""
    start = time.perf_counter()
    assert _checked(ch.restricted_sums_check, range(2, 8)) == 286
    assert time.perf_counter() - start < 60


def test_criterion_06_appendix_identities():
    """Expansion, transform inversion, and inner-product closed forms match
    enumeration on every class and tuple for n <= 6, under 1 minute."""
    start = time.perf_counter()
    assert _checked(ch.euler_transform_check, range(2, 7)) == 1144
    assert _checked(ch.g_to_f_expansion_check, range(2, 7)) == 707
    assert _checked(ch.char_inner_check, range(2, 7)) == 431
    assert time.perf_counter() - start < 60


def test_criterion_07_harmonic_norm_closed_form():
    assert _checked(pm.harmonic_norms_check, range(2, 13)) == 47


def test_criterion_08_block_diagonalization_bridge():
    """E[h_S h_T] = sigma_d^2 <h_S, h_T> for every same-size pair to n = 7,
    and vanishes for pairs of unequal sizes (orbit representatives cover all
    pairs by relabeling invariance)."""
    assert _checked(ap.sigma_bridge_check, range(2, 8)) == 2692


def test_criterion_09_gram_reconstruction():
    assert _checked(sp.gram_reconstruction_check, range(2, 8)) == 6


def test_criterion_10_harmonicity_and_specht_gram():
    """Squared frame derivatives kill every Specht product and every h_S
    span; the Specht Gram is nonsingular of dimension C(n,d) - C(n,d-1)."""
    assert _checked(ap.harmonicity_check, range(2, 8)) == 204
    assert _checked(ap.specht_gram_check, range(2, 8)) == 24


def test_criterion_11_schur_suite():
    gram = su.gram_schur_property_check(SEED, trials=100)
    assert gram.ok and gram.checked == 122, gram.details
    volume = su.volume_identity_check(SEED, trials=50)
    assert volume.ok and volume.checked == 50, volume.details
    assert _checked(su.iterated_elimination_check, range(2, 8)) == 104


def test_criterion_12_hypercube_decomposition():
    assert _checked(pm.hypercube_decomposition_check, range(2, 9)) == 21


def test_criterion_13_balanced_measure_moments():
    assert _checked(pm.balanced_moments_check, range(2, 13, 2)) == 168


def test_criterion_14_documented_discrepancy():
    """At n = 3 the strict ordering clause fails while values, positivity,
    distinctness, and multiplicities all verify; the report records this as
    an observation, not a failure."""
    orep = sp.distinctness_and_order_report(3)
    assert orep.report.ok, orep.report.details
    assert not orep.claimed_chain_holds
    assert orep.positive and orep.distinct
    assert orep.values == [(0, Q(1)), (1, Q(3, 2))]
    assert orep.observed_order == (1, 0)
    assert [sp.multiplicity(3, d) for d in (0, 1)] == [1, 2]
    assert sp.zero_multiplicity(3) == 1
    # the discrepancy handling is part of the report type's contract
    doc = (sp.OrderReport.__doc__ or "").lower()
    assert "documented" in doc and "observation" in doc
