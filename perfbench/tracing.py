"""Spans and exact counts around the package's public functions.

A traced run replaces each target function, in every cubemoments module
that binds it, with a wrapper that records a span: name, start, end, the
span that called it, and the operation id.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the time covered by its
direct child spans.  Counting work (bit lengths, flop counts) is timed as a
child span of its own, so it lands in no layer's self time.  Tiny hot
helpers such as a_coeff, subsets_of_size and scalar arithmetic get no span.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name); the span name is also the metric prefix
SPANNED = [
    ("cubemoments.exactmat", "mat_mul", "exactmat.mat_mul"),
    ("cubemoments.exactmat", "rank", "exactmat.rank"),
    ("cubemoments.exactmat", "solve_consistent", "exactmat.solve_consistent"),
    ("cubemoments.exactmat", "psd_pivots", "exactmat.psd_pivots"),
    ("cubemoments.exactmat", "det", "exactmat.det"),
    ("cubemoments.spectrum", "exact_spectrum_certificate", "spectrum.exact_spectrum_certificate"),
    ("cubemoments.spectrum", "annihilation_check", "spectrum.annihilation_check"),
    ("cubemoments.spectrum", "trace_moment_check", "spectrum.trace_moment_check"),
    ("cubemoments.spectrum", "rank_check", "spectrum.rank_check"),
    ("cubemoments.spectrum", "distinctness_and_order_report", "spectrum.distinctness_and_order_report"),
    ("cubemoments.spectrum", "gram_reconstruction_check", "spectrum.gram_reconstruction_check"),
    ("cubemoments.spectrum", "numeric_eigensolve", "spectrum.numeric_eigensolve"),
    ("numpy.linalg", "eigvalsh", "numpy.linalg.eigvalsh"),
    ("cubemoments.pseudomoments", "build_Y", "pseudomoments.build_Y"),
    ("cubemoments.pseudomoments", "pseudo_expect", "pseudomoments.pseudo_expect"),
    ("cubemoments.pseudomoments", "isotypic_h", "pseudomoments.isotypic_h"),
    ("cubemoments.pseudomoments", "MultilinearPoly.__mul__", "pseudomoments.MultilinearPoly.mul"),
    ("cubemoments.pseudomoments", "hypercube_decomposition_check", "pseudomoments.hypercube_decomposition_check"),
    ("cubemoments.apolar", "apolar_ip", "apolar.apolar_ip"),
    ("cubemoments.apolar", "hS_span", "apolar.hS_span"),
    ("cubemoments.apolar", "SpanPoly.__mul__", "apolar.SpanPoly.mul"),
    ("cubemoments.apolar", "specht_basis", "apolar.specht_basis"),
    ("cubemoments.apolar", "is_frame_harmonic", "apolar.is_frame_harmonic"),
    ("cubemoments.characters", "restricted_char_sum_bruteforce", "characters.restricted_char_sum_bruteforce"),
    ("cubemoments.characters", "char_class_function", "characters.char_class_function"),
    ("cubemoments.schur", "schur_complement", "schur.schur_complement"),
    ("cubemoments.schur", "iterated_schur_on_Y", "schur.iterated_schur_on_Y"),
    ("cubemoments.verify", "run_verify", "verify.run_verify"),
    ("cubemoments.cli", "main", "cli.main"),
]
COUNTED_ONLY = [("cubemoments.spectrum", "lambda_closed", "spectrum.lambda_closed")]
CALL_COUNTS = [
    "exactmat.mat_mul", "exactmat.rank", "pseudomoments.pseudo_expect", "apolar.apolar_ip",
]
# exact counts taken as each span closes: (metric, unit)
WORK_COUNTS = [
    ("exactmat.mat_mul.scalar_mults", "count"),
    ("exactmat.mat_mul.max_bits", "bits"),
    ("numpy.linalg.eigvalsh.flops_computed", "flop"),
    ("spectrum.numeric_eigensolve.block_bytes_computed", "bytes"),
    ("pseudomoments.build_Y.entries", "count"),
]
COUNT_SPAN = "trace.count"


def _bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _count_mat_mul(counts, args, result) -> None:
    a, b = args[0], args[1]
    counts["exactmat.mat_mul.scalar_mults"] += len(a) * len(b) * (len(b[0]) if b else 0)
    bits = max((_bits(x) for row in result for x in row), default=0)
    if bits > counts["exactmat.mat_mul.max_bits"]:
        counts["exactmat.mat_mul.max_bits"] = bits


def _count_eigvalsh(counts, args, result) -> None:
    block = np.asarray(args[0])
    m = block.shape[0]
    counts["numpy.linalg.eigvalsh.flops_computed"] += 4 * m**3 // 3
    counts["spectrum.numeric_eigensolve.block_bytes_computed"] += block.nbytes


def _count_build_y(counts, args, result) -> None:
    counts["pseudomoments.build_Y.entries"] += result.size**2


COUNTERS = {
    "exactmat.mat_mul": _count_mat_mul,
    "numpy.linalg.eigvalsh": _count_eigvalsh,
    "pseudomoments.build_Y": _count_build_y,
}


class Tracer:
    """Collects spans and counts; install() wraps the target functions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = Counter()
        self.op = 0
        self._stack = []

    def _spanned(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            record = [name, 0.0, 0.0, parent, self.op]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                start = perf_counter()
                count(self.counts, args, result)
                spans.append([COUNT_SPAN, start, perf_counter(), parent, self.op])
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        targets = [(m, a, self._spanned, n) for m, a, n in SPANNED]
        targets += [(m, a, self._counted, n) for m, a, n in COUNTED_ONLY]
        for module_name, attr, make, name in targets:
            module = importlib.import_module(module_name)
            if "." in attr:  # a method: patch the class
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, make(name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapper = make(name, original)
            setattr(module, attr, wrapper)
            # rebind every `from module import attr` copy as well
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("cubemoments") and mod is not module:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        # each registered verify check gets a span named after the check
        registry = importlib.import_module("cubemoments.verify")._CHECKS
        registry[:] = [(name, self._spanned(f"verify.{name}", fn)) for name, fn in registry]

    def next_op(self) -> None:
        self.op += 1

    def mark(self) -> int:
        """Start of a pass: the index of its first span."""
        self.counts.clear()
        return len(self.spans)

    def summarize(self, first: int) -> dict:
        """Self time (name.self_s), span time (name.s) and calls per span
        name, plus the exact counts, for the spans recorded since mark()
        returned first."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= 0:
                covered[parent] += end - start
        self_s, total, calls = defaultdict(float), defaultdict(float), Counter()
        for index in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[index]
            self_s[name] += end - start - covered[index]
            total[name] += end - start
            calls[name] += 1
        out = {f"{name}.self_s": value for name, value in self_s.items()}
        out.update({f"{name}.s": value for name, value in total.items()})
        out.update({f"{name}.calls": calls[name] for name in CALL_COUNTS})
        out.update(self.counts)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")


def per_layer_metrics(check_names) -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(f"{name}.self_s", "s", "lower") for _, _, name in SPANNED]
    out += [(f"{name}.calls", "count", "lower") for name in CALL_COUNTS]
    out += [(f"{name}.calls", "count", "lower") for _, _, name in COUNTED_ONLY]
    out += [(name, unit, "lower") for name, unit in WORK_COUNTS]
    out += [(f"verify.{check}.s", "s", "lower") for check in sorted(check_names)]
    out += [
        ("import.numpy.s", "s", "lower"),
        ("import.cubemoments.s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out
