"""One process of one benchmark repetition; started by ``run.py``.

    worker.py setup --workload W --seed N --scale S --rows R --dir D --input-dir D
    worker.py timed --workload W --seed N --scale S --rows R --dir D --input-dir I
                    --ref-dir REF [--trace] [--record]

``setup`` writes the workload's inputs into D and then ``setup.json`` with
the time the input preparation took (interpreter start and imports are not
part of it).

``timed`` imports ``multisys.cli``, loads the inputs from I, prints ``ready`` and
waits for one line on stdin.  On ``go`` it runs the timed section, measures
its wall time and the process's peak resident set, checks the outputs
(or, with ``--record``, writes them as the reference) and writes
``result.json`` into D.  Any other line makes it exit at once, which is how
the parent takes an extra set-up sample.

With ``--trace`` both processes wrap the ``multisys`` layers and add their
spans to the JSON file they write.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import multisys.cli  # noqa: E402,F401  (part of the measured set-up)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def setup(workload, ctx: workloads.Context, trace: bool) -> None:
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    workload.setup(ctx)
    prep_s = time.perf_counter() - start
    workloads.write_json({"prep_s": prep_s, "spans": tracer.spans if tracer else []},
                         ctx.path("setup.json"))


def timed(workload, ctx: workloads.Context, trace: bool, record: bool) -> None:
    state = workload.load(ctx)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return
    start = time.perf_counter()
    workload.run(ctx, state)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "ok": True, "error": None}
    if tracer:
        result["spans"] = tracer.spans
        result["local_accuracy_max_abs"] = tracer.local_accuracy_max_abs()
    try:
        if record:
            workload.record(ctx, state)
        result["digest"] = workload.check(ctx, state)
    except workloads.CheckFailed as exc:
        result.update(ok=False, error=str(exc))
    workloads.write_json(result, ctx.path("result.json"))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "timed"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True, choices=("full", "small"))
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--input-dir", required=True)
    parser.add_argument("--ref-dir", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(seed=args.seed, scale=args.scale, rows=args.rows,
                            rep_dir=args.dir, input_dir=args.input_dir,
                            ref_dir=args.ref_dir)
    if args.mode == "setup":
        setup(workload, ctx, args.trace)
    else:
        timed(workload, ctx, args.trace, args.record)


if __name__ == "__main__":
    main()
