"""Check registry: selection, guards, determinism, fault injection, workers."""

import importlib
import os
import select
import threading
import time
from types import SimpleNamespace

import pytest

import cubemoments
from cubemoments import pseudomoments as pm
from cubemoments import schur as su
from cubemoments import spectrum as sp
from cubemoments import verify
from cubemoments.errors import InconsistentBlockError
from cubemoments.report import SPANS, Report
from cubemoments.scalars import Q
from test_pseudomoments import add_to_entries
from cubemoments.verify import (
    SUITE_NAMES,
    VerifyContext,
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


def test_balanced_moments_skip_an_odd_only_range():
    rep = run_verify(("pseudomoments",), n_min=3, n_max=3, seed=1)
    [check] = [c for c in rep.checks if c.name == "pseudomoments.balanced_moments"]
    assert check.status == "skipped"
    assert "exists only for even n; none in [3, 3]" in check.witness


def test_guard_clamp_is_noted():
    rep = run_verify(("appendix",), n_min=2, n_max=7, seed=1)
    assert rep.ok
    for c in rep.checks:
        assert c.status == "pass"
        assert "capped at 6" in c.witness


def test_bridge_and_specht_gram_run_at_n8():
    # both run as integer Gram products, inside their n <= 9 guards
    checks = {c.name: c for c in run_verify(("apolar",), n_min=8, n_max=8).checks}
    for name in ("apolar.sigma_bridge", "apolar.specht_gram"):
        assert checks[name].status == "pass", checks[name].witness
        assert "capped" not in checks[name].witness
    # sigma_bridge_check(8): 8885 same-degree pairs plus 40 cross-degree moments
    assert checks["apolar.sigma_bridge"].checked == 8925


def test_fault_injection():
    rep = run_verify(("spectrum",), n_min=2, n_max=2, seed=3, inject_fault=True)
    assert not rep.ok
    failures = [c for c in rep.checks if c.status == "fail"]
    assert [c.name for c in failures] == ["spectrum.fault_injection"]
    assert failures[0].witness
    # without injection the same run is clean
    assert run_verify(("spectrum",), n_min=2, n_max=2, seed=3).ok


def _run_one(name, n_min, n_max):
    (fn,) = [fn for check, fn in verify._CHECKS if check == name]
    return verify._run_check(name, fn, VerifyContext(n_min, n_max, 42))


def test_fault_injection_needs_both_routes(monkeypatch):
    # at n_min = 8 the fault goes in at n = 5, where the eigenvalues are
    # pairwise distinct, so annihilation and the traces each see it
    fault = verify._run_check(
        "spectrum.fault_injection", verify._fault_injection, VerifyContext(8, 8, 42)
    )
    assert fault.status == "fail" and fault.checked > 0
    assert fault.witness.startswith("injected fault detected as intended at n=5: ")
    # a route that misses the fault is named, and the run does not count
    # as detected
    monkeypatch.setattr(sp, "annihilation_check", lambda *args, **kwargs: Report())
    fault = verify._run_check(
        "spectrum.fault_injection", verify._fault_injection, VerifyContext(8, 8, 42)
    )
    assert fault.witness == "corrupted eigenvalues went undetected by annihilation at n=5"


def test_eigenvalue_recursion_covers_the_requested_range():
    name = "spectrum.eigenvalue_recursion"
    # d = 1..3 at n = 6 and at n = 7
    assert (_run_one(name, 6, 7).status, _run_one(name, 6, 7).checked) == ("pass", 6)
    for n_max in range(3, 9):
        assert _run_one(name, 2, n_max).checked == sum(
            sp.eigenvalue_recursion_check(n).checked for n in range(3, n_max + 1)
        )
    assert _run_one(name, 2, 2).status == "skipped"
    capped = _run_one(name, 39, sp.ORDER_MAX_N + 1)
    assert capped.checked == sum(
        sp.eigenvalue_recursion_check(n).checked for n in (39, sp.ORDER_MAX_N)
    )
    assert capped.witness == f"n capped at {sp.ORDER_MAX_N} (closed form guard)"


def test_numeric_agreement_runs_to_its_module_guard():
    checks = {c.name: c for c in run_verify(("spectrum",), n_min=13, n_max=14).checks}
    numeric = checks["spectrum.numeric_agreement"]
    assert (numeric.status, numeric.checked) == ("pass", 4)
    assert "capped" not in numeric.witness


def test_verify_caps_stay_within_module_guards():
    # a cap above its guard would only show as "unhandled ValueError" at a
    # large --n-max; each guard is also shown to be the check's own, by a
    # refusal just past it that names max_n.  The balanced measure refuses
    # odd n first, so its guard is probed at the next even n.
    names = [span.name for span in SPANS]
    assert len(names) == len(set(names))
    for span in SPANS:
        assert span.lo <= span.cap, span.name
        if span.max_n is not None:
            assert span.cap <= span.max_n, span.name
            even = span.name == "pseudomoments.balanced_moments"
            probe = span.max_n + 2 if even else span.max_n + 1
            with pytest.raises(ValueError, match=rf"\b{span.max_n}\b"):
                span.check(probe)


def test_every_range_frozen_past_the_largest_guard():
    # at n = 63 every n-ranged check skips, naming its guard and its span,
    # so this map pins each lo, cap and guard text
    spans = {
        "apolar.adjointness": ("random triple", 2, 6),
        "apolar.beta_identity": ("pairing table", 2, 10),
        "apolar.harmonicity": ("harmonicity sweep", 2, 7),
        "apolar.ideal_kernel": ("kernel sweep", 2, 7),
        "apolar.johnson_slice": ("slice Gram", 2, 10),
        "apolar.projection_consistency": ("projection solve", 2, 7),
        "apolar.sigma_bridge": ("bridge Gram", 2, 9),
        "apolar.specht_gram": ("Gram rank", 2, 9),
        "appendix.char_inner": ("subset-pair enumeration", 2, 6),
        "appendix.euler_transform": ("subset enumeration", 2, 6),
        "appendix.g_to_f_expansion": ("subset-pair enumeration", 2, 6),
        "characters.dimension_identity": ("character table", 2, 20),
        "characters.orthonormality": ("class-function inner product", 2, 8),
        "characters.restricted_sums": ("S_n sweep", 2, 7),
        "characters.two_row_routes": ("class enumeration", 2, 9),
        "pseudomoments.balanced_moments": ("balanced enumeration", 2, 12),
        "pseudomoments.finite_difference": ("alternating sum", 2, 12),
        "pseudomoments.harmonic_norms": ("contraction sweep", 2, 12),
        "pseudomoments.hypercube_decomposition": ("exact rank", 2, 8),
        "pseudomoments.ideal_annihilation": ("monomial sweep", 2, 10),
        "pseudomoments.isotypic_projection": ("S_n average", 2, 6),
        "pseudomoments.matrix_structure": ("dense matrix scan", 2, 10),
        "pseudomoments.moment_recursion": ("moment recursion", 2, 30),
        "schur.iterated_elimination": ("iterated elimination", 2, 8),
        "spectrum.eigenvalue_recursion": ("closed form", 3, 40),
        "spectrum.eta_routes": ("overlap summation", 2, 10),
        "spectrum.exact_certificate": ("exact matrix-power budget", 2, 9),
        "spectrum.frame_decomposition": ("frame table", 2, 12),
        "spectrum.gram_reconstruction": ("Gram reconstruction", 2, 8),
        "spectrum.moment_contractions": ("contraction sweep", 2, 8),
        "spectrum.numeric_agreement": ("float eigensolve", 2, 14),
        "spectrum.positivity_and_order": ("closed form", 2, 40),
    }
    expected = {
        name: ("skipped", f"no n in [63, 63] within the {what} guard [{lo}, {cap}]")
        for name, (what, lo, cap) in spans.items()
    }
    expected["schur.gram_property"] = expected["schur.volume_identity"] = ("pass", "")
    rep = run_verify(("all",), n_min=63, n_max=63)
    assert {c.name: (c.status, c.witness) for c in rep.checks} == expected


def _without_elapsed(rep):
    payload = rep.to_dict()
    for check in payload["checks"]:
        del check["elapsed_s"]
    return payload


@pytest.mark.parametrize("inject_fault", [False, True])
def test_parallel_and_serial_runs_agree(monkeypatch, inject_fault):
    runs = []
    for workers in (2, 1):
        monkeypatch.setattr(verify, "_worker_count", lambda: workers)
        runs.append(run_verify(("all",), n_min=2, n_max=5, seed=42, inject_fault=inject_fault))
    assert _without_elapsed(runs[0]) == _without_elapsed(runs[1])
    assert runs[0].ok is not inject_fault


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Stop(BaseException):
    """Escapes _run_check, as KeyboardInterrupt would."""


@pytest.fixture
def two_workers(monkeypatch):
    """Checks run by two processes, this one and one forked child; wait()
    blocks this process, at most 60 s, until the child has taken a check."""
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)
    parent, (ready_r, ready_w) = os.getpid(), os.pipe()

    def in_child():
        if os.getpid() == parent:
            return False
        os.write(ready_w, b"x")
        return True

    def wait():
        assert select.select([ready_r], [], [], 60)[0]

    yield SimpleNamespace(in_child=in_child, wait=wait)
    os.close(ready_r)
    os.close(ready_w)


def test_no_worker_outlives_run_verify(monkeypatch, two_workers):
    assert run_verify(("schur",), n_min=2, n_max=4).ok
    _no_children_left()

    # this process raises while the child is inside a long check: the
    # child is stopped and reaped, not waited for
    def stop(ctx, rep):
        if two_workers.in_child():
            time.sleep(60)
        two_workers.wait()
        raise _Stop

    monkeypatch.setattr(verify, "_CHECKS", [("schur.a", stop), ("schur.b", stop)])
    start = time.perf_counter()
    with pytest.raises(_Stop):
        run_verify(("schur",), n_min=2, n_max=2)
    assert time.perf_counter() - start < 30
    _no_children_left()


def test_a_check_that_kills_its_worker_fails_by_name(monkeypatch, two_workers):
    # each check ends a forked worker and waits here for the child to take
    # the other one, so exactly one check is lost
    def fatal(ctx, rep):
        if two_workers.in_child():
            os._exit(7)
        two_workers.wait()
        rep.count()

    monkeypatch.setattr(verify, "_CHECKS", [("schur.a", fatal), ("schur.b", fatal)])
    rep = run_verify(("schur",), n_min=2, n_max=2)
    _no_children_left()
    assert not rep.ok
    assert sorted(c.status for c in rep.checks) == ["fail", "pass"]
    (lost,) = [c for c in rep.checks if c.status == "fail"]
    assert lost.witness == f"{lost.name} lost: its worker process ended before reporting it"


def test_no_fork_for_one_task_or_one_cpu(monkeypatch):
    def forbidden():
        raise AssertionError("forked")

    full = verify._CHECKS
    monkeypatch.setattr(os, "fork", forbidden)
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)
    monkeypatch.setattr(verify, "_CHECKS", [c for c in full if c[0] == "schur.gram_property"])
    assert [c.status for c in run_verify(("schur",), n_min=2, n_max=2).checks] == ["pass"]
    monkeypatch.setattr(verify, "_CHECKS", full)
    monkeypatch.setattr(verify, "_worker_count", lambda: 1)
    assert len(run_verify(("schur",), n_min=2, n_max=2).checks) == 3


def test_worker_count_is_the_affinity_mask_while_no_other_thread_runs(monkeypatch):
    assert verify._worker_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "fork")
    assert verify._worker_count() == 1
    monkeypatch.undo()
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert verify._worker_count() == 1  # no fork while another thread runs
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()


def test_a_failed_fork_leaves_the_run_to_this_process(monkeypatch):
    def refused():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)
    rep = run_verify(("schur",), n_min=2, n_max=4, seed=11)
    monkeypatch.undo()
    monkeypatch.setattr(verify, "_worker_count", lambda: 1)
    serial = run_verify(("schur",), n_min=2, n_max=4, seed=11)
    assert _without_elapsed(rep) == _without_elapsed(serial)


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
        "apolar.johnson_slice": 6,
        "apolar.projection_consistency": 54,
        "apolar.sigma_bridge": 214,
        "apolar.specht_gram": 12,
        "appendix.char_inner": 184,
        "appendix.euler_transform": 528,
        "appendix.g_to_f_expansion": 371,
        "characters.dimension_identity": 10,
        "characters.orthonormality": 18,
        "characters.restricted_sums": 80,
        "characters.two_row_routes": 46,
        "pseudomoments.balanced_moments": 24,
        "pseudomoments.finite_difference": 26,
        "pseudomoments.harmonic_norms": 10,
        "pseudomoments.hypercube_decomposition": 12,
        "pseudomoments.ideal_annihilation": 60,
        "pseudomoments.isotypic_projection": 34,
        "pseudomoments.matrix_structure": 46,
        "pseudomoments.moment_recursion": 40,
        "schur.gram_property": 123,
        "schur.iterated_elimination": 238,
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


_CAPPED = "n capped at 6 ({} guard)"
# (status, checked, witness) of every check of verify --suite all over
# n = 2..7 at seed 42
FROZEN_ALL_2_7 = {
    "apolar.adjointness": ("pass", 25, _CAPPED.format("random triple")),
    "apolar.beta_identity": ("pass", 12, ""),
    "apolar.harmonicity": ("pass", 204, ""),
    "apolar.ideal_kernel": ("pass", 64, ""),
    "apolar.johnson_slice": ("pass", 12, ""),
    "apolar.projection_consistency": ("pass", 176, ""),
    "apolar.sigma_bridge": ("pass", 2632, ""),
    "apolar.specht_gram": ("pass", 24, ""),
    "appendix.char_inner": ("pass", 431, _CAPPED.format("subset-pair enumeration")),
    "appendix.euler_transform": ("pass", 1144, _CAPPED.format("subset enumeration")),
    "appendix.g_to_f_expansion": ("pass", 707, _CAPPED.format("subset-pair enumeration")),
    "characters.dimension_identity": ("pass", 18, ""),
    "characters.orthonormality": ("pass", 38, ""),
    "characters.restricted_sums": ("pass", 286, ""),
    "characters.two_row_routes": ("pass", 150, ""),
    "pseudomoments.balanced_moments": ("pass", 48, ""),
    "pseudomoments.finite_difference": ("pass", 58, ""),
    "pseudomoments.harmonic_norms": ("pass", 18, ""),
    "pseudomoments.hypercube_decomposition": ("pass", 18, ""),
    "pseudomoments.ideal_annihilation": ("pass", 252, ""),
    "pseudomoments.isotypic_projection": ("pass", 76, _CAPPED.format("S_n average")),
    "pseudomoments.matrix_structure": ("pass", 158, ""),
    "pseudomoments.moment_recursion": ("pass", 75, ""),
    "schur.gram_property": ("pass", 123, ""),
    "schur.iterated_elimination": ("pass", 3037, ""),
    "schur.volume_identity": ("pass", 51, ""),
    "spectrum.eigenvalue_recursion": ("pass", 11, ""),
    "spectrum.eta_routes": ("pass", 56, ""),
    "spectrum.exact_certificate": ("pass", 66, ""),
    "spectrum.frame_decomposition": ("pass", 36, ""),
    "spectrum.gram_reconstruction": ("pass", 6, ""),
    "spectrum.moment_contractions": ("pass", 68, ""),
    "spectrum.numeric_agreement": ("pass", 12, ""),
    "spectrum.positivity_and_order": (
        "pass",
        12,
        "documented discrepancy, not a failure: the strict ordering chain fails at "
        "n=[2, 3, 4, 5, 6, 7] and eigenvalues collide at even n=[6]; values, "
        "positivity, and multiplicities all verify",
    ),
}
FROZEN_FAULT = {
    "spectrum.fault_injection": (
        "fail",
        5,
        "injected fault detected as intended at n=2: annihilating polynomial "
        "nonzero at n=2: block 0 entry (0,0) = 1",
    ),
}


@pytest.mark.parametrize("inject_fault", [False, True])
def test_report_frozen_but_for_elapsed_time(inject_fault):
    # same verdicts, same counts, same witnesses: the whole report of
    # run_verify(("all",), 2, 7, 42) but its timings
    frozen = {**FROZEN_ALL_2_7, **(FROZEN_FAULT if inject_fault else {})}
    checks = [
        {"name": name, "suite": name.split(".", 1)[0], "status": status,
         "checked": checked, "witness": witness}
        for name, (status, checked, witness) in sorted(frozen.items())
    ]
    payload = run_verify(("all",), 2, 7, 42, inject_fault=inject_fault).to_dict()
    for check in payload["checks"]:
        del check["elapsed_s"]
    fails = int(inject_fault)
    assert payload == {
        "tool": "cubemoments",
        "version": "0.1.0",
        "n_min": 2,
        "n_max": 7,
        "seed": 42,
        "suites": list(SUITE_NAMES),
        "overall": "fail" if inject_fault else "pass",
        "counts": {"pass": len(FROZEN_ALL_2_7), "fail": fails, "skipped": 0},
        "checks": checks,
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
        ("pseudomoments", "isotypic_coefficient", "isotypic_projection_check",
         "pseudomoments.isotypic_projection"),
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


@pytest.mark.parametrize("n", range(4, 8))
def test_cross_parity_entry_is_refused(monkeypatch, n):
    # 1/1000 on the symmetric pair (empty set, {1}), between Y's two parity
    # blocks: every exact route refuses it when splitting Y, naming the entry
    def corrupted(n):
        y = pm.build_Y(n)
        i, j = y.index[0], y.index[0b1]
        return add_to_entries(y, Q(1, 1000), [(i, j), (j, i)])

    monkeypatch.setattr(sp, "build_Y", corrupted)
    monkeypatch.setattr(su, "build_Y", corrupted)
    witness = f"cross-parity entry (0,1) nonzero at n={n}"
    for route in (
        sp.rank_check,
        sp.annihilation_check,
        sp.trace_moment_check,
        sp.exact_spectrum_certificate,
        su.iterated_schur_on_Y,
    ):
        with pytest.raises(InconsistentBlockError) as excinfo:
            route(n)
        assert str(excinfo.value) == witness, route.__name__
    checks = {c.name: c for c in run_verify(("schur", "spectrum"), n_min=n, n_max=n).checks}
    for name in ("spectrum.exact_certificate", "schur.iterated_elimination"):
        assert checks[name].status == "fail", name
        assert checks[name].witness == f"unhandled InconsistentBlockError: {witness}"
