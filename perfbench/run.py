"""affscat benchmark: time to a verified result for four CLI workloads.

    python3 perfbench/run.py --workload build|verify|rank2|fans \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout (the package is imported from ./src).  One
parent process runs one operation at a time; every operation is an
`affscat.cli.run` call in a fresh interpreter (perfbench/op.py), because a CLI
user pays every cache cold.  Passes over the workload's operations repeat
until S seconds have gone by, and timings are medians over passes.  The
gated times (pass_ref_s, setup_s) are scaled by a calibration loop timed in
the same processes to one reference host speed, which cancels the host's
speed drift (README.md says why).  Every
output is checked (digest recorded at the seed commit, else the verdict);
a wrong output fails its operation.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (see tracing.py).  Human
readable lines come first; the last stdout line is one JSON object.  A full
record, with the environment, goes to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
# No pass starts unless it can end, by the longest round so far, within this
# many seconds of the run's start; it caps --seconds too.
RUN_LIMIT_S = 170
# Seconds the calibration loop (op.calibrate) takes at the reference host
# speed; gated times are scaled to that speed.
CAL_REF_S = 0.15

# The orientations the test suite uses.  D_4^(1) is the star with vertex 0 a
# source.
MATRICES = {
    "A1_1": [[0, 2], [-2, 0]],
    "A2_2": [[0, 1], [-4, 0]],
    "A2_1": [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
    "G2_1": [[0, 1, 0], [-1, 0, 1], [0, -3, 0]],
    "A3_1": [[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]],
    "D4_1": [
        [0, 1, 1, 1, 1],
        [-1, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0],
    ],
}


@dataclass(frozen=True)
class Op:
    stage: str  # CLI subcommand
    matrix: str
    rows: tuple
    flags: tuple  # CLI flags, with --seed for the seeded stage

    @property
    def key(self) -> str:
        return " ".join((self.stage, self.matrix) + self.flags)


def _op(stage, matrix, *flags) -> tuple:
    return (stage, matrix, flags)


WORKLOADS = {
    "build": (
        _op("walls", "A3_1", "--H", "12", "--k", "12"),
        _op("walls", "G2_1", "--H", "16", "--k", "16"),
    ),
    "verify": (
        _op("consistency", "D4_1", "--H", "6", "--k", "6"),
        _op("consistency", "A3_1", "--H", "8", "--k", "8"),
    ),
    "rank2": (
        _op("rank2", "A1_1", "--k", "16"),
        _op("rank2", "A2_2", "--k", "10"),
    ),
    "fans": (
        _op("compare", "A2_1", "--H", "6", "--k", "6", "--L", "6", "--samples", "200"),
        _op("compare", "G2_1", "--H", "6", "--k", "6", "--L", "6", "--samples", "200"),
        _op("clusters", "A3_1", "--H", "4"),
    ),
}


def operations(spec, seed: int, matrices=MATRICES) -> list:
    """The workload's operations; only `compare` samples, so only it gets the seed."""
    out = []
    for stage, matrix, flags in spec:
        if stage == "compare":
            flags = flags + ("--seed", str(seed))
        rows = tuple(tuple(r) for r in matrices[matrix])
        out.append(Op(stage, matrix, rows, flags))
    return out


# -- correctness ---------------------------------------------------------------


def _flag(op: Op, name: str):
    return int(op.flags[op.flags.index(name) + 1])


def verdict_problem(op: Op, data) -> str | None:
    """The verification verdict each stage prints, where it has one."""
    if op.stage == "walls" and data.get("equal") is not True:
        return "dcscat != easy_scat"
    if op.stage == "consistency" and data.get("consistent") is not True:
        return "inconsistent"
    if op.stage == "compare":
        if data.get("clean") is not True:
            return "fans not clean"
        if data.get("pair_samples") != _flag(op, "--samples"):
            return "pair_samples != --samples"
    return None


def check_output(op: Op, raw: bytes, digests: dict) -> str | None:
    want = digests.get(op.key)
    if want is not None and hashlib.sha256(raw).hexdigest() != want:
        return "output digest differs from the seed commit"
    try:
        data = json.loads(raw)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    return verdict_problem(op, data)


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)["digests"]


# -- running operations ------------------------------------------------------------


def run_op(
    op: Op, op_id: str, work: Path, digests: dict, timeout: float, spans: Path | None = None
) -> dict:
    """One operation in a fresh interpreter; returns its record with `problem`
    set when it failed (raised, exited non-zero, or printed a wrong output)."""
    in_path = work / f"{op.matrix}.json"
    out_path = work / f"{op_id}.out.json"
    cmd = [sys.executable, str(BENCH / "op.py"), "--op-id", op_id]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", op.stage, "--input", str(in_path), *op.flags, "--out", str(out_path)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    rec = {"op": op.key, "op_id": op_id}
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1)
        )
    except subprocess.TimeoutExpired:
        rec["problem"] = f"timed out after {timeout:.0f} s"
        return rec
    lines = proc.stdout.strip().splitlines()
    try:
        rec.update(json.loads(lines[-1]))
    except (IndexError, ValueError):
        rec["problem"] = f"no report (exit {proc.returncode}): {proc.stderr[-400:]}"
        return rec
    if rec["rc"] not in (0, None):
        rec["problem"] = f"exit {rec['rc']}: {proc.stderr[-400:]}"
        if out_path.is_file():  # a verdict written before the non-zero exit
            rec["problem"] += check_output(op, out_path.read_bytes(), {}) or ""
    elif rec["error"] is not None:
        rec["problem"] = rec["error"]
    else:
        try:
            raw = out_path.read_bytes()
        except OSError as exc:
            rec["problem"] = f"no output: {exc}"
            return rec
        rec["sha256"] = hashlib.sha256(raw).hexdigest()
        rec["problem"] = check_output(op, raw, digests)
    out_path.unlink(missing_ok=True)
    return rec


def run_pass(
    ops, tag: str, work: Path, digests: dict, limit: float, spans_dir: Path | None = None
) -> dict:
    """One pass over the operations; `limit` is the time.monotonic() by
    which all must end."""
    records = []
    for i, op in enumerate(ops):
        op_id = f"{tag}-o{i}"
        spans = spans_dir / f"{op_id}.tsv.gz" if spans_dir is not None else None
        records.append(run_op(op, op_id, work, digests, limit - time.monotonic(), spans))
    stage_s: dict = {}
    for op, rec in zip(ops, records):
        stage_s[op.stage] = stage_s.get(op.stage, 0.0) + rec.get("stage_s", 0.0)
    pass_s = sum(rec.get("stage_s", 0.0) for rec in records)
    setup_s = sum(rec.get("setup_s", 0.0) for rec in records)
    cal_s = statistics.mean(rec.get("cal_s", 0.0) for rec in records)
    scale = CAL_REF_S / cal_s if cal_s else 0.0
    return {
        "tag": tag,
        "ops": records,
        "pass_ref_s": pass_s * scale,
        "setup_s": setup_s * scale,
        "pass_wall_s": pass_s,
        "setup_wall_s": setup_s,
        "cal_s": cal_s,
        "peak_rss_mb": max(rec.get("peak_rss_mb", 0.0) for rec in records),
        "stage_s": stage_s,
    }


# -- metrics ---------------------------------------------------------------------------


def _merge_layers(records) -> tuple:
    layers: dict = {}
    counts: dict = {}
    for rec in records:
        for name, v in rec.get("layers", {}).items():
            acc = layers.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for f in acc:
                acc[f] += v[f]
        for name, v in rec.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + v
    return layers, counts


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(layers: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""

    def calls(n):
        return layers.get(n, {}).get("calls", 0)

    def incl(n):
        return layers.get(n, {}).get("incl_s", 0.0)

    def self_s(n):
        return layers.get(n, {}).get("self_s", 0.0)

    def c(n):
        return counts.get(n, 0)

    s, n, f = "s", "count", "frac"
    return {
        "weyl.enumerate_calls": (calls("weyl.enumerate"), n),
        "weyl.elements": (c("weyl.elements"), n),
        "weyl.enumerate_s": (incl("weyl.enumerate"), s),
        "sortable.ji_sortables_self_s": (self_s("sortable.ji_sortables"), s),
        "sortable.sortables": (c("sortable.sortables"), n),
        "sortable.ji_found": (c("sortable.ji_found"), n),
        "sortable.ji_yield": (_ratio(c("sortable.ji_found"), c("weyl.elements")), f),
        "scattering.build_dcscat_s": (incl("scattering.build_dcscat"), s),
        "scattering.build_easy_scat_s": (incl("scattering.build_easy_scat"), s),
        # build_dcscat calls ji_sortables twice (c and c^-1) per length-cap round
        "scattering.length_cap_rounds": (calls("sortable.ji_sortables") // 2, n),
        "scattering.walls": (c("scattering.walls"), n),
        "shards.cut_set_calls": (calls("shards.cut_set"), n),
        "shards.cut_set_s": (incl("shards.cut_set"), s),
        "shards.shard_from_ji_s": (incl("shards.shard_from_ji"), s),
        "shards.shard_from_root_s": (incl("shards.shard_from_root"), s),
        "cones.dd_calls": (calls("cones.dd"), n),
        # all DD work: Cone.generators and Cone.from_rays
        "cones.dd_all_calls": (calls("cones.double_description"), n),
        "cones.dd_s": (incl("cones.double_description"), s),
        "cones.dd_distinct_frac": (_ratio(c("cones.dd_distinct"), calls("cones.dd")), f),
        "linalg.rref_calls": (calls("linalg.rref"), n),
        "linalg.rref_s": (incl("linalg.rref"), s),
        "cones.contains_calls": (calls("cones.contains"), n),
        "cones.contains_s": (incl("cones.contains"), s),
        "cones.contains_cone_calls": (calls("cones.contains_cone"), n),
        "cones.contains_cone_s": (incl("cones.contains_cone"), s),
        "scattering.scat_cone_eq_s": (incl("scattering.scat_cone_eq"), s),
        "scattering.rampart_set_calls": (calls("scattering.rampart_set"), n),
        "scattering.check_consistency_self_s": (self_s("scattering.check_consistency"), s),
        "scattering.faces": (c("scattering.faces"), n),
        "scattering.loops_checked": (c("scattering.loops_checked"), n),
        "scattering.loop_crossings_s": (incl("scattering.loop_crossings"), s),
        "series.wall_cross_calls": (calls("series.wall_cross"), n),
        "series.wall_cross_s": (incl("series.wall_cross"), s),
        "series.path_product_calls": (calls("series.path_product"), n),
        "series.pow_cache_hit_frac": (
            _ratio(c("series.pow_cache_hits"), c("series.pow_cache_lookups")),
            f,
        ),
        "series.pow_cache_lookups": (c("series.pow_cache_lookups"), n),
        "scattering.rank2_complete_self_s": (self_s("scattering.rank2_complete"), s),
        "almost_positive.fan_cones_s": (incl("almost_positive.fan_cones"), s),
        "almost_positive.compat_calls": (calls("almost_positive.compat"), n),
        "almost_positive.compat_s": (incl("almost_positive.compat"), s),
        "mutation.b_class_probe_calls": (calls("mutation.b_class_probe"), n),
        "mutation.b_class_probe_s": (incl("mutation.b_class_probe"), s),
        "mutation.fans_compare_self_s": (self_s("mutation.fans_compare"), s),
        "cartan.real_roots_calls": (calls("cartan.real_roots"), n),
        "cartan.real_roots_s": (incl("cartan.real_roots"), s),
        "jsonio.serialize_s": (incl("jsonio.diagram_json") + incl("jsonio.dumps"), s),
    }


# Work counters that must repeat exactly between passes with the same seed.
DETERMINISTIC = (
    "weyl.elements",
    "cones.dd_calls",
    "series.wall_cross_calls",
    "scattering.faces",
    "scattering.loops_checked",
)


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _summary(values) -> dict:
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(passes) -> dict:
    """Medians over untraced passes: name -> summary with unit."""
    out = {
        "pass_ref_s": dict(_summary([p["pass_ref_s"] for p in passes]), unit="s"),
        "setup_s": dict(_summary([p["setup_s"] for p in passes]), unit="s"),
        "peak_rss_mb": dict(_summary([p["peak_rss_mb"] for p in passes]), unit="MB"),
        "pass_wall_s": dict(_summary([p["pass_wall_s"] for p in passes]), unit="s"),
        "setup_wall_s": dict(_summary([p["setup_wall_s"] for p in passes]), unit="s"),
        "cal_s": dict(_summary([p["cal_s"] for p in passes]), unit="s"),
    }
    for stage in passes[0]["stage_s"]:
        out[f"stage_s.{stage}"] = dict(
            _summary([p["stage_s"][stage] for p in passes]), unit="s"
        )
    return out


def per_layer(traced, untraced) -> tuple:
    """Medians over traced passes, the tracing overhead, and any work counter
    that differed between traced passes."""
    per_pass = [layer_metrics(*_merge_layers(p["ops"])) for p in traced]
    out = {}
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        out[name] = dict(_summary(values), unit=unit)
        if unit == "count":
            out[name]["median"] = statistics.median_low(values)
    traced_s = statistics.median(p["pass_ref_s"] for p in traced)
    untraced_s = statistics.median(p["pass_ref_s"] for p in untraced)
    out["trace.pass_s"] = dict(_summary([p["pass_wall_s"] for p in traced]), unit="s")
    out["trace.cal_s"] = dict(_summary([p["cal_s"] for p in traced]), unit="s")
    out["trace.overhead_frac"] = {
        "median": traced_s / untraced_s - 1,
        "base_untraced_pass_ref_s": untraced_s,
        "n": len(traced),
        "unit": "frac",
    }
    mismatched = [
        name for name in DETERMINISTIC if len({m[name][0] for m in per_pass}) > 1
    ]
    self_times = _merge_layers([op for p in traced for op in p["ops"]])[0]
    for rec in self_times.values():
        for f in ("calls", "incl_s", "self_s"):
            rec[f] /= len(traced)
    return out, mismatched, self_times


# -- the run ---------------------------------------------------------------------------


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(ops, seed: int) -> dict:
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "AFFSCAT_CAP": os.environ.get("AFFSCAT_CAP", "unset (default 10**6)"),
        "seed": seed,
        "operations": [op.key for op in ops],
    }


def _warm_bytecode() -> None:
    """Compile affscat's bytecode once, untimed: an installed package has it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-c", "import affscat"], cwd=ROOT, env=env, check=True, timeout=60
    )


def measure(name: str, ops, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for `seconds`; a traced run alternates untraced and traced
    passes and makes at least two traced ones (for the counter check)."""
    work = OUT / "work" / f"{name}-seed{seed}-trace{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    for op in ops:
        (work / f"{op.matrix}.json").write_text(
            json.dumps({"n": len(op.rows), "b": [list(r) for r in op.rows]})
        )
    spans_dir = None
    if trace:
        spans_dir = OUT / "spans" / f"{name}-seed{seed}"
        spans_dir.mkdir(parents=True, exist_ok=True)
        for old in spans_dir.glob("*.tsv.gz"):
            old.unlink()
    digests = load_digests()
    _warm_bytecode()

    untraced, traced = [], []
    start = time.monotonic()
    deadline = start + seconds
    limit = start + RUN_LIMIT_S
    longest = 0.0  # the longest round (untraced pass, traced pass) so far
    while True:
        round_start = time.monotonic()
        tag = f"{name}-s{seed}"
        untraced.append(run_pass(ops, f"{tag}-u{len(untraced)}", work, digests, limit))
        if trace:
            traced.append(
                run_pass(ops, f"{tag}-t{len(traced)}", work, digests, limit, spans_dir)
            )
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if now >= deadline and (not trace or len(traced) >= 2):
            break
        if now + longest > limit:  # another round might not end in time
            break
    for f in work.iterdir():
        f.unlink()
    work.rmdir()
    return {"untraced": untraced, "traced": traced, "spans_dir": spans_dir}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(name, ops, seed, seconds, trace, runs) -> tuple:
    passes = runs["untraced"] + runs["traced"]
    records = [rec for p in passes for rec in p["ops"]]
    failures = [
        {"op_id": r["op_id"], "op": r["op"], "problem": r["problem"]}
        for r in records
        if r["problem"]
    ]
    attempted, failed = len(records), len(failures)
    e2e = end_to_end(runs["untraced"])
    result = {
        "env": environment(ops, seed),
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "failures": failures,
        "end_to_end": e2e,
        "passes": passes,
    }
    lines = [
        f"workload {name}  seed {seed}  trace {int(trace)}"
        f"  untraced passes {len(runs['untraced'])}"
    ]
    for op in ops:
        lines.append(f"  op  {op.key}")
    for metric, v in e2e.items():
        lines.append(
            f"  {metric:<34} {_fmt(v['median']):>12} {v['unit']:<5}"
            f" median of {v['n']} passes (q1 {_fmt(v['q1'])}, q3 {_fmt(v['q3'])})"
        )
    lines.append(
        f"  {'ops_failed_frac':<34} {_fmt(failed / attempted):>12} frac"
        f"  ({failed} of {attempted} operations)"
    )
    for fl in failures:
        lines.append(f"  FAILED {fl['op_id']} [{fl['op']}]: {fl['problem']}")
    correct = failed == 0
    if trace:
        layers, mismatched, self_times = per_layer(runs["traced"], runs["untraced"])
        result.update(
            per_layer=layers,
            span_means=self_times,
            counter_mismatch=mismatched,
            spans=str(runs["spans_dir"].relative_to(ROOT)),
        )
        lines.append(f"  per-layer metrics, median of {len(runs['traced'])} traced passes")
        for metric, v in layers.items():
            lines.append(f"  {metric:<34} {_fmt(v['median']):>12} {v['unit']}")
        lines.append("  spans per traced pass: calls, inclusive s, self s")
        for span, v in sorted(self_times.items()):
            lines.append(
                f"    {span:<32} {_fmt(v['calls']):>10}"
                f" {_fmt(v['incl_s']):>12} {_fmt(v['self_s']):>12}"
            )
        for counter in mismatched:
            lines.append(f"  COUNTER MISMATCH {counter}: differs between traced passes")
        if len(runs["traced"]) < 2:
            lines.append("  work counters unchecked: only one traced pass ended in time")
        correct = correct and not mismatched
        metrics = {k: {"value": v["median"], "unit": v["unit"]} for k, v in layers.items()}
    else:
        metrics = {
            k: {"value": e2e[k]["median"], "unit": e2e[k]["unit"]}
            for k in ("pass_ref_s", "setup_s", "peak_rss_mb")
        }
    result["correct"] = correct
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, summary


def main(argv=None, workloads=WORKLOADS, matrices=MATRICES) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "affscat" / "cli.py").is_file():
        sys.stderr.write(f"affscat sources not found under {ROOT / 'src'}\n")
        return 2
    ops = operations(workloads[args.workload], args.seed, matrices)
    runs = measure(args.workload, ops, args.seed, args.seconds, bool(args.trace))
    lines, summary = report(args.workload, ops, args.seed, args.seconds, bool(args.trace), runs)
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
