"""Small result carrier for verification-style checks, and the record of
how far `cubemoments verify` runs each check, declared beside the check."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field


@dataclass
class Report:
    """Outcome of a check made of many atomic exact comparisons.

    ok is True when no comparison failed.  details holds one human-readable
    witness line per failure (and occasionally a noteworthy observation on a
    passing check).  checked counts the atomic comparisons performed, so
    callers can assert a check was not vacuous.
    """

    ok: bool = True
    details: list[str] = field(default_factory=list)
    checked: int = 0

    def count(self, k: int = 1) -> None:
        self.checked += k

    def fail(self, witness: str) -> None:
        self.ok = False
        self.details.append(witness)

    def note(self, observation: str) -> None:
        self.details.append(observation)

    def expect(self, condition: bool, witness: str) -> None:
        self.checked += 1
        if not condition:
            self.fail(witness)

    def absorb(self, other: "Report") -> None:
        self.ok = self.ok and other.ok
        self.details.extend(other.details)
        self.checked += other.checked


Span = namedtuple("Span", "name lo cap guard max_n check")  # verify's row, by @verified
SPANS: list[Span] = []


def verified(name: str, lo: int, cap: int, guard: str, max_n: int | None = None):
    """Declare a check's verify name and the n range [lo, cap] verify covers
    (by check(n) per n, unless verify drives it); guard names what the cap
    protects, as verify prints it, and max_n is the guard check(n) reaches
    first (check(max_n + 1) raises ValueError), or None.  Returns check."""

    def register(check):
        SPANS.append(Span(name, lo, cap, guard, max_n, check))
        return check

    return register
