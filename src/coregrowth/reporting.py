"""Structured PASS/FAIL records shared by the verifier suites.

Theorem-grade checks must pass (a FAIL is a bug and flips exit codes);
conjecture-grade checks are findings and never affect exit codes.  A broken
structural invariant raises ``InvariantError`` instead of returning a record;
refused input raises ``UsageError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

THEOREM = "theorem"
CONJECTURE = "conjecture"


class InvariantError(AssertionError):
    """A structural invariant failed: the computation is wrong, not the input.

    Raised explicitly, so it survives ``python -O``.  The CLI maps it to exit
    code 1.
    """


class UsageError(ValueError):
    """Input the program refuses: a flag, config, partition or word.

    The CLI prints it as one ``error:`` line and exits with code 2.
    """


@dataclass
class Report:
    name: str
    kind: str
    passed: bool
    details: dict[str, Any] = field(default_factory=dict)
    witness: Any = None

    @property
    def status(self) -> str:
        if self.passed:
            return "PASS"
        return "FAIL" if self.witness is None else "COUNTEREXAMPLE"

    def to_dict(self) -> dict[str, Any]:
        out = {
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "details": _jsonable(self.details),
        }
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        return out

    def line(self) -> str:
        return f"[{self.status}] ({self.kind}) {self.name}"


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(x) for x in obj]
    return obj


def hard_failures(reports) -> list[Report]:
    return [r for r in reports if r.kind == THEOREM and not r.passed]
