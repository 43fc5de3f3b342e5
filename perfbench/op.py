"""Run one affscat CLI operation in this (fresh) interpreter and report on it.

    python3 perfbench/op.py --op-id ID [--spans PATH] -- <affscat CLI arguments>

Times set-up (importing affscat, reading the input JSON, building
exchange_to_cartan + classify + coxeter_context), then the stage itself
(`affscat.cli.run`), then a fixed calibration loop (see `calibrate`).  With
--spans, the layers are traced (see tracing.py) and the spans are written to
PATH.  The last stdout line is one JSON object.  The interpreter must find
affscat on its path (PYTHONPATH=src).
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback


CAL_ROUNDS = 300


def calibrate() -> float:
    """Seconds for a fixed loop of exact rational elimination and tuple/dict
    work.  It uses the standard library only, so no change to affscat moves
    it; timed in the operation's own process right after the stage, it
    tracks how fast the host ran this kind of Python just then.  The cyclic
    collector is off meanwhile, so the size of the heap the stage left
    behind does not change the loop's cost."""
    from fractions import Fraction

    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict = {}
        for r in range(CAL_ROUNDS):
            rows = [
                [Fraction((3 * i + 5 * j + r) % 11 - 5, 1 + (i * j + r) % 3) for j in range(6)]
                for i in range(6)
            ]
            for c in range(6):
                piv = next((i for i in range(c, 6) if rows[i][c] != 0), None)
                if piv is None:
                    continue
                rows[c], rows[piv] = rows[piv], rows[c]
                for i in range(c + 1, 6):
                    f = rows[i][c] / rows[c][c]
                    if f:
                        rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
            key = tuple(map(tuple, rows))
            seen[key] = seen.get(key, 0) + 1
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _input_path(cli_args):
    return cli_args[cli_args.index("--input") + 1]


def main(argv) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    op_id = own[own.index("--op-id") + 1]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None
    report = {"op_id": op_id, "rc": None, "error": None}

    t0 = time.perf_counter()
    try:
        import affscat  # noqa: F401  (the import is part of set-up)
        from affscat.cartan import classify, exchange_to_cartan
        from affscat.coxeter import coxeter_context
        from affscat.jsonio import read_exchange_matrix

        with open(_input_path(cli_args)) as fh:
            bmat = read_exchange_matrix(json.load(fh))
        classify(exchange_to_cartan(bmat))
        coxeter_context(bmat)
    except Exception as exc:  # e.g. a cyclic matrix; the CLI then rejects it too
        report["error"] = f"setup: {exc!r}"
    report["setup_s"] = time.perf_counter() - t0

    tracer = None
    t1 = time.perf_counter()
    try:
        from affscat import cli

        stage = cli.run
        if spans_path:
            import tracing

            tracer = tracing.Tracer(op_id)
            tracing.install(tracer)
            stage = tracer.wrap("cli.run", cli.run)
        t1 = time.perf_counter()
        report["rc"] = stage(cli_args)
    except SystemExit as exc:  # argparse rejects bad flags this way
        report["rc"] = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        report["error"] = "stage: " + traceback.format_exc(limit=3)
    report["stage_s"] = time.perf_counter() - t1
    report["cal_s"] = calibrate()
    if tracer is not None:
        from affscat.series import _series_power

        info = _series_power.cache_info()
        report["layers"] = tracer.summary()
        report["counts"] = dict(tracer.counts)
        report["counts"]["cones.dd_distinct"] = len(tracer.dd_keys)
        report["counts"]["series.pow_cache_hits"] = info.hits
        report["counts"]["series.pow_cache_lookups"] = info.hits + info.misses
        tracer.write(spans_path)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write("\n" + json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
