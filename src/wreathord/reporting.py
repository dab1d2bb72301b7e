"""Verification reports: deterministic check records plus text/JSON emitters.

Reports are the acceptance artifact, so both output forms are stable
byte-for-byte for a fixed seed and budget: records are ordered by check
name, no timestamps or durations appear anywhere, and the JSON form is
versioned via ``schema_version``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Report:
    suite: str
    seed: int
    budget: int
    checks: tuple[CheckRecord, ...]
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == PASS)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == FAIL)

    @property
    def unknown(self) -> int:
        return sum(1 for c in self.checks if c.status == UNKNOWN)

    @property
    def all_pass(self) -> bool:
        return self.failed == 0 and self.unknown == 0

    def check(self, name: str) -> CheckRecord:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_rng(seed: int, name: str) -> random.Random:
    """Per-check generator: stable for (seed, name) however checks are scheduled."""
    return random.Random(f"{seed}:{name}")


def run_checks(
    suite: str,
    seed: int,
    budget: int,
    checks: Iterable[tuple[str, Callable[[random.Random, int], tuple[str, dict]]]],
    params: dict | None = None,
) -> Report:
    """Run named checks and assemble a report ordered by check name.

    Each check gets its own deterministically seeded generator, so the
    aggregate is identical no matter how the checks would be scheduled.
    A check that raises becomes a FAIL record with
    ``{"error": <exception class name>}`` instead of ending the suite.
    """
    records = []
    for name, fn in checks:
        try:
            status, details = fn(check_rng(seed, name), budget)
        except Exception as e:
            status, details = FAIL, {"error": type(e).__name__}
        records.append(CheckRecord(name, status, details))
    records.sort(key=lambda r: r.name)
    return Report(suite, seed, budget, tuple(records), dict(params or {}))


def merge_reports(suite: str, reports: Iterable[Report]) -> Report:
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    checks = tuple(sorted((c for r in reports for c in r.checks), key=lambda c: c.name))
    params: dict = {}
    for r in reports:
        params.update(r.params)
    return Report(suite, reports[0].seed, reports[0].budget, checks, params)


def _json_safe(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


def emit_report(report: Report, fmt: str = "text") -> str:
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "suite": report.suite,
            "seed": report.seed,
            "budget": report.budget,
            "params": _json_safe(report.params),
            "checks": [
                {"name": c.name, "status": c.status, "details": _json_safe(c.details)}
                for c in report.checks
            ],
            "summary": {
                "total": len(report.checks),
                "passed": report.passed,
                "failed": report.failed,
                "unknown": report.unknown,
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format: {fmt}")

    lines = [f"suite: {report.suite}", f"seed: {report.seed}  budget: {report.budget}"]
    for k in sorted(report.params):
        lines.append(f"{k}: {report.params[k]}")
    for c in report.checks:
        tag = {PASS: "PASS", FAIL: "FAIL", UNKNOWN: "UNKNOWN"}[c.status]
        detail = ""
        if c.details:
            parts = [f"{k}={_json_safe(v)}" for k, v in sorted(c.details.items())]
            detail = "  [" + ", ".join(str(p) for p in parts) + "]"
        lines.append(f"{tag} {c.name}{detail}")
    if report.all_pass:
        lines.append(f"ok: {len(report.checks)} checks")
    else:
        lines.append(
            f"FAIL: {report.failed} failed, {report.unknown} unknown"
            f" of {len(report.checks)} checks"
        )
    return "\n".join(lines) + "\n"


def exit_status(report: Report) -> int:
    """0 all-pass, 1 any-fail, 3 an UNKNOWN record (no built-in check
    records one; the status is kept for schema-1 report consumers)."""
    if report.failed:
        return 1
    if report.unknown:
        return 3
    return 0
