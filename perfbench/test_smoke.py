"""Smoke test of the benchmark on tiny inputs (A_1^(1) at H = k = 4).

    python3 -m pytest perfbench/test_smoke.py

Runs from the root of a checkout; takes about half a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

_HK = ("--H", "4", "--k", "4")
TINY = {
    "tiny": (
        run._op("walls", "A1_1", *_HK),
        run._op("consistency", "A1_1", *_HK),
        run._op("rank2", "A1_1", "--k", "4"),
        run._op("compare", "A1_1", *_HK, "--L", "4", "--samples", "10"),
        run._op("clusters", "A1_1", "--H", "4"),
    ),
    "bad": (
        run._op("walls", "A1_1", *_HK),
        run._op("walls", "CYCLIC", *_HK),  # not acyclic: the CLI exits 2
    ),
}
MATRICES = dict(run.MATRICES, CYCLIC=[[0, 1, -1], [-1, 0, 1], [1, -1, 0]])

with open(run.ROOT / "BENCHMARK.json") as _fh:
    CONTRACT = json.load(_fh)


def _run(capsys, workload, trace):
    rc = run.main(
        ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        workloads=TINY,
        matrices=MATRICES,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, lines[:-1], json.loads(lines[-1])


def _printed(lines, name, unit):
    """Whether a line reads `name value unit ...`."""
    rows = [line.split() for line in lines]
    return any(len(r) >= 3 and r[0] == name and r[2] == unit for r in rows)


def test_end_to_end_metrics_printed_with_units(capsys):
    rc, lines, summary = _run(capsys, "tiny", 0)
    assert rc == 0
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] == 5
    wanted = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in summary["metrics"].values())
    for stage in ("walls", "consistency", "rank2", "compare", "clusters"):
        wanted[f"stage_s.{stage}"] = "s"
    wanted.update(pass_wall_s="s", setup_wall_s="s", cal_s="s", ops_failed_frac="frac")
    for name, unit in wanted.items():
        assert _printed(lines, name, unit), name


def test_per_layer_metrics_printed_and_tracing_changes_no_output(capsys):
    rc, lines, summary = _run(capsys, "tiny", 1)
    assert rc == 0 and summary["correct"]
    wanted = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert _printed(lines, name, unit), name
    with open(run.OUT / "tiny-seed0-trace1.json") as fh:
        passes = json.load(fh)["passes"]
    digests = [[op["sha256"] for op in p["ops"]] for p in passes]
    assert len(digests) >= 3 and all(d == digests[0] for d in digests)


def test_bad_operation_counts_as_failed(capsys):
    rc, lines, summary = _run(capsys, "bad", 0)
    assert rc == 1
    assert not summary["correct"]
    assert summary["attempted"] == 2 and summary["failed"] == 1
    frac = next(line for line in lines if line.split()[0] == "ops_failed_frac")
    assert float(frac.split()[1]) == 0.5
    assert any("exit 2" in line for line in lines if "FAILED" in line)


def test_digest_mismatch_fails_the_operation():
    op = run.operations(TINY["tiny"], 0, MATRICES)[0]
    assert run.check_output(op, b'{"equal": true}', {}) is None
    assert run.check_output(op, b'{"equal": true}', {op.key: "0" * 64}) is not None
    assert run.check_output(op, b'{"equal": false}', {}) is not None
