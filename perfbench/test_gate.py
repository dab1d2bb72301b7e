"""Tests of the benchmark's own gate.  Run with

    python3 -m pytest perfbench/test_gate.py -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent

# A worker whose first query carries a wrong expected answer.
WRONG_WORKER = f"""
import sys
sys.path.insert(0, {str(HERE)!r})
import workloads
make_block = workloads.make_block

def wrong_block(pass_seed):
    block = [q for q in make_block(pass_seed) if q["kind"] == "embed"][:2]
    hom, order = block[0]["expect"].split()
    block[0]["expect"] = hom + (" GREATER" if order == "LESS" else " LESS")
    return block

workloads.make_block = wrong_block
import worker
sys.exit(worker.main(sys.argv[1:]))
"""


def test_blocks_are_seeded_and_stratified():
    a, b = workloads.make_block(7), workloads.make_block(8)
    assert a == workloads.make_block(7)
    assert a != b
    for kind in workloads.KINDS:
        qs = [q for q in a if q["kind"] == kind]
        assert len(qs) == workloads.STRATA[kind]
        if kind in ("fold", "alpha"):
            assert sum(q["expect"] == "EQUAL" for q in qs) * 2 == len(qs)
        lo, hi = workloads.SIZE_RANGES[kind]
        assert all(lo <= q["size"] <= hi for q in qs)


def test_check_answer_names_the_wrong_query():
    q = workloads.make_block(3)[0]
    workloads.check_answer(q, q["expect"])
    wrong = "GREATER" if q["expect"] != "GREATER" else "LESS"
    with pytest.raises(workloads.Mismatch, match=f"query {q['id']} "):
        workloads.check_answer(q, wrong)


def test_suite_gate_fails_on_a_fail_record_and_counts_unknown():
    sys.path.insert(0, str(HERE.parent / "src"))
    from wreathord import reporting

    def report(*statuses):
        recs = tuple(reporting.CheckRecord(f"c{i}", s) for i, s in enumerate(statuses))
        return reporting.Report("demo", 1, 10, recs)

    assert workloads.check_report("demo", report("pass", "unknown"), reporting) == 1
    with pytest.raises(workloads.Mismatch, match="check c1 failed"):
        workloads.check_report("demo", report("pass", "fail"), reporting)


def test_run_fails_on_one_wrong_verdict(monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKER", [sys.executable, "-c", WRONG_WORKER])
    status = run.main(["--workload", "large-elements", "--seed", "1", "--seconds", "1"])
    out, err = capsys.readouterr()
    assert status != 0
    assert '"correct"' not in out
    assert "known-answer mismatch: query 1000/" in err


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-rational",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
