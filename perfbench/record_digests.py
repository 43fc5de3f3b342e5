"""Record the sha256 of every benchmark operation's output.

    python3 perfbench/record_digests.py

Run once, at the commit whose outputs are the reference, from the root of a
checkout; writes perfbench/digests.json.  `compare` is recorded for every
seed in SEEDS; other stages are not seeded.  An operation that fails at
that commit (it exits non-zero or its verdict is wrong) gets no digest: it is
listed under "failing" and printed, and the script exits 1.  Later runs of
run.py fail any operation whose output differs from its digest.
"""

from __future__ import annotations

import json
import sys

import run

# Seeds whose `compare` outputs get a digest; run.py checks only the verdict
# of any other seed.
SEEDS = range(128)


def main() -> int:
    work = run.OUT / "record"
    work.mkdir(parents=True, exist_ok=True)
    digests, failing = {}, {}
    for name, spec in run.WORKLOADS.items():
        seeds = SEEDS if any(s == "compare" for s, _, _ in spec) else [0]
        for seed in seeds:
            for i, op in enumerate(run.operations(spec, seed)):
                if op.key in digests or op.key in failing:
                    continue
                (work / f"{op.matrix}.json").write_text(
                    json.dumps({"n": len(op.rows), "b": [list(r) for r in op.rows]})
                )
                rec = run.run_op(op, f"record-{name}-{seed}-{i}", work, {}, run.RUN_LIMIT_S)
                if rec["problem"]:
                    failing[op.key] = rec["problem"].strip()
                    sys.stderr.write(f"FAILING {op.key}: {failing[op.key]}\n")
                    continue
                digests[op.key] = rec["sha256"]
                print(op.key, rec["sha256"], flush=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(
            {
                "commit": run._git_commit(),
                "digests": dict(sorted(digests.items())),
                "failing": dict(sorted(failing.items())),
            },
            fh,
            indent=1,
        )
        fh.write("\n")
    for f in work.iterdir():
        f.unlink()
    work.rmdir()
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
