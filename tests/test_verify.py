"""Check registry: selection, guards, determinism, fault injection."""

import importlib

import pytest

import cubemoments
from cubemoments.verify import (
    SUITE_NAMES,
    format_text,
    normalize_suites,
    run_verify,
)


def test_normalize_suites():
    assert normalize_suites(("all",)) == SUITE_NAMES
    assert normalize_suites("schur") == ("schur",)
    assert normalize_suites(["schur", "schur", "apolar"]) == ("apolar", "schur")
    with pytest.raises(ValueError):
        normalize_suites(("bogus",))
    with pytest.raises(ValueError):
        normalize_suites([])


def test_small_run_all_suites():
    rep = run_verify(("all",), n_min=2, n_max=3, seed=42)
    assert rep.ok
    assert rep.version == cubemoments.__version__
    names = [c.name for c in rep.checks]
    assert names == sorted(names)
    assert len(names) == len(set(names))
    suites_seen = {c.suite for c in rep.checks}
    assert suites_seen == set(SUITE_NAMES)
    assert all(c.status in ("pass", "skipped") for c in rep.checks)
    for c in rep.checks:
        if c.status == "pass":
            assert c.checked > 0, c.name


def test_out_of_guard_range_skips():
    rep = run_verify(("appendix",), n_min=8, n_max=9, seed=1)
    assert rep.ok  # skipped is not failed
    assert all(c.status == "skipped" for c in rep.checks)
    assert all("guard" in c.witness for c in rep.checks)


def test_guard_clamp_is_noted():
    rep = run_verify(("appendix",), n_min=2, n_max=7, seed=1)
    assert rep.ok
    for c in rep.checks:
        assert c.status == "pass"
        assert "capped at 6" in c.witness


def test_fault_injection():
    rep = run_verify(("spectrum",), n_min=2, n_max=2, seed=3, inject_fault=True)
    assert not rep.ok
    failures = [c for c in rep.checks if c.status == "fail"]
    assert [c.name for c in failures] == ["spectrum.fault_injection"]
    assert failures[0].witness
    # without injection the same run is clean
    assert run_verify(("spectrum",), n_min=2, n_max=2, seed=3).ok


def test_range_validation():
    with pytest.raises(ValueError):
        run_verify(("schur",), n_min=1, n_max=4)
    with pytest.raises(ValueError):
        run_verify(("schur",), n_min=5, n_max=4)


def test_seeded_reproducibility():
    def snapshot(rep):
        return [(c.name, c.status, c.witness, c.checked) for c in rep.checks]

    a = run_verify(("schur",), n_min=2, n_max=4, seed=11)
    b = run_verify(("schur",), n_min=2, n_max=4, seed=11)
    assert snapshot(a) == snapshot(b)


def test_report_rendering_and_dict():
    rep = run_verify(("schur",), n_min=2, n_max=4, seed=42)
    text = format_text(rep)
    assert "overall: pass" in text
    assert "schur.iterated_elimination" in text
    payload = rep.to_dict()
    assert payload["tool"] == "cubemoments"
    assert payload["overall"] == "pass"
    assert payload["counts"]["pass"] == len(payload["checks"])
    assert [c["name"] for c in payload["checks"]] == [c.name for c in rep.checks]


def test_checked_counts_frozen():
    # a check that silently stops comparing changes its count
    rep = run_verify(("all",), n_min=2, n_max=5, seed=42)
    assert rep.ok
    assert {c.name: c.checked for c in rep.checks} == {
        "apolar.adjointness": 20,
        "apolar.beta_identity": 6,
        "apolar.harmonicity": 47,
        "apolar.ideal_kernel": 13,
        "apolar.johnson_slice": 12,
        "apolar.projection_consistency": 54,
        "apolar.sigma_bridge": 234,
        "apolar.specht_gram": 12,
        "appendix.char_inner": 184,
        "appendix.euler_transform": 528,
        "appendix.g_to_f_expansion": 371,
        "characters.dimension_identity": 10,
        "characters.orthonormality": 18,
        "characters.restricted_sums": 80,
        "characters.two_row_routes": 46,
        "pseudomoments.balanced_moments": 24,
        "pseudomoments.finite_difference": 18,
        "pseudomoments.harmonic_norms": 10,
        "pseudomoments.hypercube_decomposition": 12,
        "pseudomoments.ideal_annihilation": 60,
        "pseudomoments.isotypic_projection": 34,
        "pseudomoments.matrix_structure": 50,
        "pseudomoments.moment_recursion": 40,
        "schur.gram_property": 123,
        "schur.iterated_elimination": 56,
        "schur.volume_identity": 51,
        "spectrum.eigenvalue_recursion": 5,
        "spectrum.eta_routes": 28,
        "spectrum.exact_certificate": 42,
        "spectrum.frame_decomposition": 20,
        "spectrum.gram_reconstruction": 4,
        "spectrum.moment_contractions": 28,
        "spectrum.numeric_agreement": 8,
        "spectrum.positivity_and_order": 8,
    }


@pytest.mark.parametrize(
    "module_name, closed_form, check, verify_name",
    [
        ("characters", "restricted_char_sum_closed", "restricted_sums_check",
         "characters.restricted_sums"),
        ("pseudomoments", "E_hS_squared", "harmonic_norms_check",
         "pseudomoments.harmonic_norms"),
        ("apolar", "sigma_sq", "sigma_bridge_check", "apolar.sigma_bridge"),
        ("apolar", "_pattern_permanent", "ideal_kernel_check", "apolar.ideal_kernel"),
        ("spectrum", "eta_sq", "eta_routes_check", "spectrum.eta_routes"),
        ("spectrum", "E_xS_hT_closed", "moment_contractions_check",
         "spectrum.moment_contractions"),
    ],
)
def test_corrupted_closed_form_fails_its_check(
    monkeypatch, module_name, closed_form, check, verify_name
):
    module = importlib.import_module(f"cubemoments.{module_name}")
    original = getattr(module, closed_form)
    monkeypatch.setattr(module, closed_form, lambda *args: original(*args) + 1)
    n = 4
    report = getattr(module, check)(n)
    assert not report.ok
    assert report.details and all(f"n={n}" in w for w in report.details)
    # verify runs the same check, so it fails with the same witnesses
    suite = verify_name.split(".", 1)[0]
    result = {c.name: c for c in run_verify((suite,), n_min=n, n_max=n).checks}[verify_name]
    assert result.status == "fail"
    assert report.details[0] in result.witness
