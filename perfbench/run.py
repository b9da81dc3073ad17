"""Benchmark runner for the multisys pipeline.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 15] [--trace 0|1]

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``reference-1195``: ``multisys all`` with the default config;
* ``prep-50k-messy``: ``ingest -> features -> split`` on a corrupted
  50,000-row cohort;
* ``explain-gb-rf``: TreeSHAP, importance and PDP for the default GB and RF
  ensembles on the 180-row test split.

Work happens in fresh processes under ``.bench_runs/``.  A workload with
inputs to prepare first runs its set-up process ``MIN_SETUPS`` times, each
writing the inputs for the seed into its own directory.  Each repetition then
starts a timed process on a fresh run directory, using the set-ups' inputs in
turn: it imports ``multisys.cli``, loads the inputs, runs the timed section
and checks the outputs.  Repetitions continue while the next one is expected
to keep the summed timed sections within ``--seconds``; there is always at
least one, so a workload whose timed section is longer than ``--seconds``
makes one.  One set-up sample is the input preparation time of the inputs a
timed process used plus that process's time from start to ready; when fewer
than ``MIN_SETUPS`` timed processes ran, more are started and stopped once
ready.  ``peak_rss_mb`` is the peak resident set of the timed process, which
allocates nothing for the set-up process's work.

With ``--trace 0`` the runner reports the end-to-end metrics (medians over
the repetitions).  With ``--trace 1`` it makes one untraced and one traced
repetition and reports the per-layer metrics of the traced one, plus the
tracing overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it give
every metric with its quartiles and sample count, the error rate, and the
environment.  The full record, with the spans of a traced run, is written
to ``.bench_results/``.

The runner itself imports neither numpy nor ``multisys``; it exits with
status 2 and prints no result when the program's sources are absent.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
REFERENCE_DIR = os.path.join(ROOT, "perfbench", "reference")
WORKLOADS = ("reference-1195", "prep-50k-messy", "explain-gb-rf")

# Input rows each workload states, per scale: 1195 cohort rows, 50,000
# cohort rows, 360 row explanations (180 test rows x 2 ensembles).
ROWS = {
    "full": {"reference-1195": 1195, "prep-50k-messy": 50_000, "explain-gb-rf": 360},
    "small": {"reference-1195": 160, "prep-50k-messy": 2_000, "explain-gb-rf": 48},
}
HAS_SETUP_PROCESS = {"reference-1195": False, "prep-50k-messy": True, "explain-gb-rf": True}

END_TO_END = [("wall_s", "s"), ("rows_per_s", "rows/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB")]
MIN_SETUPS = 2
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"


class RepFailed(Exception):
    pass


def worker_env() -> dict:
    """The environment of every worker: one BLAS thread, the repo's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("MULTISYS_LOG", None)
    return env


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "blas_threads": BLAS_THREADS, "loadavg_start": loadavg()}
    if hasattr(os, "sched_getaffinity"):
        info["cpus_usable"] = len(os.sched_getaffinity(0))
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = None
    return info


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


class Runner:
    def __init__(self, workload: str, seed: int, scale: str, ref_dir: str,
                 record: bool = False):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.ref_dir = ref_dir
        self.record = record
        self.started = time.perf_counter()
        self.work_dir = os.path.join(ROOT, ".bench_runs", f"{workload}-{os.getpid()}")
        self.env = worker_env()

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def _args(self, mode: str, rep_dir: str, input_dir: str, traced: bool) -> list[str]:
        args = [sys.executable, WORKER, mode, "--workload", self.workload,
                "--seed", str(self.seed), "--scale", self.scale,
                "--rows", str(ROWS[self.scale][self.workload]), "--dir", rep_dir,
                "--input-dir", input_dir, "--ref-dir", self.ref_dir]
        if traced:
            args.append("--trace")
        if self.record and mode == "timed":
            args.append("--record")
        return args

    def _fresh_dir(self, label: str) -> str:
        path = os.path.join(self.work_dir, label)
        os.makedirs(path)
        return path

    def setup(self, label: str, traced: bool) -> dict:
        """One set-up process, which writes the workload's inputs into a fresh directory."""
        setup_dir = self._fresh_dir(label)
        record = {"label": label, "dir": setup_dir, "ok": False, "error": None}
        err_path = os.path.join(setup_dir, "setup.err")
        with open(err_path, "w", encoding="utf-8") as err:
            try:
                proc = subprocess.run(self._args("setup", setup_dir, setup_dir, traced),
                                      cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=err,
                                      timeout=max(self.time_left(), 1.0))
            except subprocess.TimeoutExpired:
                record["error"] = "set-up timed out"
                return record
        if proc.returncode != 0:
            record["error"] = f"set-up exited with status {proc.returncode}: " + _tail(err_path)
            return record
        with open(os.path.join(setup_dir, "setup.json"), encoding="utf-8") as fh:
            record.update(json.load(fh), ok=True)
        return record

    def _timed(self, rep_dir: str, input_dir: str, traced: bool,
               go: bool) -> tuple[float, dict | None]:
        """Start the timed process; return (seconds until ready, its result)."""
        err_path = os.path.join(rep_dir, "timed.err")
        with open(err_path, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(self._args("timed", rep_dir, input_dir, traced), cwd=ROOT,
                                    env=self.env, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                with selectors.DefaultSelector() as sel:
                    sel.register(proc.stdout, selectors.EVENT_READ)
                    if not sel.select(max(self.time_left(), 1.0)):
                        raise RepFailed("timed process never became ready")
                line = proc.stdout.readline().strip()
                ready_s = time.perf_counter() - start
                if line != "ready":
                    proc.wait(timeout=max(self.time_left(), 1.0))
                    raise RepFailed(f"timed process exited with status {proc.returncode}"
                                    " before it was ready: " + _tail(err_path))
                proc.stdin.write("go\n" if go else "stop\n")
                proc.stdin.close()
                status = proc.wait(timeout=max(self.time_left(), 1.0))
            except subprocess.TimeoutExpired:
                raise RepFailed("timed process ran out of time")
            except BrokenPipeError:
                status = proc.wait(timeout=max(self.time_left(), 1.0))
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        if status != 0:
            raise RepFailed(f"timed process exited with status {status}: " + _tail(err_path))
        if not go:
            return ready_s, None
        with open(os.path.join(rep_dir, "result.json"), encoding="utf-8") as fh:
            return ready_s, json.load(fh)

    def rep(self, label: str, prepared: dict, traced: bool = False, go: bool = True) -> dict:
        """A timed process on a fresh run directory; without ``go`` it stops when ready."""
        rep_dir = self._fresh_dir(label)
        rep = {"label": label, "traced": traced, "ok": False, "error": None,
               "prep_s": prepared["prep_s"]}
        try:
            rep["ready_s"], result = self._timed(rep_dir, prepared["dir"], traced, go)
            if result is None:
                rep["ok"] = True
            else:
                rep.update(ok=result["ok"], error=result["error"],
                           wall_s=result["wall_s"], peak_rss_mb=result["peak_rss_mb"],
                           digest=result.get("digest"))
                if traced:
                    rep["spans"] = tracing.merge([prepared["spans"], result["spans"]])
                    rep["local_accuracy_max_abs"] = result["local_accuracy_max_abs"]
        except RepFailed as exc:
            rep["error"] = str(exc)
        if rep["ok"]:
            shutil.rmtree(rep_dir)
        return rep

    def measure(self, seconds: float, trace: bool) -> dict:
        """Set up, then run timed repetitions round-robin over the set-ups' inputs."""
        inputs, failed_setups = [], []
        if HAS_SETUP_PROCESS[self.workload]:
            for i in range(1 if trace else MIN_SETUPS):
                prepared = self.setup(f"setup{i}", traced=trace)
                (inputs if prepared["ok"] else failed_setups).append(prepared)
        else:
            inputs = [{"dir": self._fresh_dir("inputs"), "prep_s": 0.0, "spans": []}]
        reps, probes = [], []
        if failed_setups or not inputs:
            return {"reps": failed_setups, "probes": probes}
        if trace:
            reps = [self.rep("rep0", inputs[0]), self.rep("rep1", inputs[0], traced=True)]
        else:
            reps = [self.rep("rep0", inputs[0])]
            while reps[-1]["ok"]:
                measured = sum(r["wall_s"] for r in reps)
                per_rep = (time.perf_counter() - self.started) / len(reps)
                if measured + reps[-1]["wall_s"] > seconds or self.time_left() < 1.5 * per_rep:
                    break
                reps.append(self.rep(f"rep{len(reps)}", inputs[len(reps) % len(inputs)]))
        timed = [r for r in reps if "wall_s" in r]
        first = next((r["digest"] for r in timed if r["ok"]), None)
        for r in timed:
            if r["ok"] and r["digest"] != first:
                r.update(ok=False, error=f"outputs of {r['label']} differ from the first "
                         "repetition's")
        while not trace and reps[-1]["ok"] and len(reps) + len(probes) < MIN_SETUPS \
                and self.time_left() > 5.0 * reps[-1]["ready_s"]:
            k = len(reps) + len(probes)
            probes.append(self.rep(f"probe{k}", inputs[k % len(inputs)], go=False))
            if not probes[-1]["ok"]:
                break
        if all(r["ok"] for r in reps + probes):
            shutil.rmtree(self.work_dir)
        return {"reps": reps, "probes": probes}

    def metrics(self, measured: dict, trace: bool) -> dict:
        reps = [r for r in measured["reps"] if r["ok"]]
        samples: dict[str, list[float]] = {}
        if trace:
            traced = [r for r in reps if r["traced"]]
            plain = [r for r in reps if not r["traced"]]
            if traced and plain:
                extras = {"explain.local_accuracy_max_abs": traced[0]["local_accuracy_max_abs"],
                          "trace.overhead_s": traced[0]["wall_s"] - plain[0]["wall_s"]}
                values = tracing.layer_metrics(traced[0]["spans"], extras)
                samples = {name: [values[name]] for name, _, _ in tracing.PER_LAYER}
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        else:
            rows = ROWS[self.scale][self.workload]
            samples = {"wall_s": [r["wall_s"] for r in reps],
                       "rows_per_s": [rows / r["wall_s"] for r in reps],
                       "setup_s": [r["prep_s"] + r["ready_s"]
                                   for r in measured["reps"] + measured["probes"]
                                   if r["ok"]],
                       "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
            units = dict(END_TO_END)
        return {name: {"samples": values, "unit": units[name]}
                for name, values in samples.items() if values}


def _tail(path: str, lines: int = 5) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def report(runner: Runner, measured: dict, metrics: dict, env: dict, trace: bool) -> dict:
    attempted = len(measured["reps"])
    failed = sum(not r["ok"] for r in measured["reps"])
    setup_failed = any(not p["ok"] for p in measured["probes"])
    print(f"# {runner.workload} seed={runner.seed} scale={runner.scale} trace={int(trace)}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    for name, m in metrics.items():
        q1, med, q3 = quartiles(m["samples"])
        print(f"# {name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{len(m['samples']):>3}  {m['unit']}")
    print(f"# {'error_rate':<34} {failed / attempted:>14.6g} "
          f"{'':>14} {'':>14} {attempted:>3}  ratio")
    for r in measured["reps"] + measured["probes"]:
        if not r["ok"]:
            print(f"# FAILED {r['label']}: {r['error']}")
    return {"correct": failed == 0 and not setup_failed, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": quartiles(m["samples"])[1], "unit": m["unit"]}
                        for name, m in metrics.items()}}


def save(runner: Runner, measured: dict, metrics: dict, env: dict, result: dict,
         trace: bool) -> None:
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    doc = {"workload": runner.workload, "seed": runner.seed, "scale": runner.scale,
           "trace": trace, "env": env, "metrics": metrics, "result": result,
           "reps": measured["reps"], "probes": measured["probes"]}
    name = f"{runner.workload}-{runner.scale}-seed{runner.seed}-trace{int(trace)}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small is a reduced size for the benchmark's own tests")
    parser.add_argument("--reference-dir", default=REFERENCE_DIR)
    parser.add_argument("--record-reference", action="store_true",
                        help="write this seed's outputs as the reference, then check them")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "multisys", "cli.py")):
        print(f"perfbench: no multisys sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = environment()
    runner = Runner(args.workload, args.seed, args.scale,
                    os.path.abspath(args.reference_dir), record=args.record_reference)
    measured = runner.measure(args.seconds, bool(args.trace))
    metrics = runner.metrics(measured, bool(args.trace))
    env["loadavg_end"] = loadavg()
    result = report(runner, measured, metrics, env, bool(args.trace))
    save(runner, measured, metrics, env, result, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
