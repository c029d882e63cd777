"""Benchmark of the floss command line: one workload, one run, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a floss source tree; the package is imported from
``src/``.  The run writes its seeded inputs, then repeats whole rounds of
the workload's ``floss`` command, each in a fresh interpreter, until the
rounds have taken ``--seconds`` of wall time.  It checks the outputs and
prints, as its last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
cold start over fresh interpreters that import ``floss.cli`` and load the
workload's models), ``epochs_per_s`` (median over rounds of 10-s
channel-epochs per second of wall time) and ``peak_rss_mb`` (median over
rounds of the job process's peak resident memory).  With ``--trace 1``
rounds alternate between the plain command and the same command run
in-process with every layer wrapped in spans (traced_job.py), and the
metrics are the per-layer ones, medians over the traced rounds.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 3
SETUP_CODE = "import sys, floss.cli, floss.gbt\nfor p in sys.argv[1:]: floss.gbt.load_model(p)"


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one child process."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def measure(wl, seconds: float, trace: bool, work: Path) -> dict:
    from checks import CheckFailed
    from tracing import DERIVED_METRICS, LAYER_METRICS, layer_metrics
    from workloads import digest

    log = work / "job.log"
    setup = [
        run_child([sys.executable, "-c", SETUP_CODE, *map(str, wl.models)], log)[0]
        for _ in range(0 if trace else SETUP_REPEATS)
    ]
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, dict]] = []
    attempted = failed = 0
    first_out = first_digest = None
    errors: list[str] = []
    elapsed = 0.0
    while elapsed < seconds:
        for with_trace in (False, True) if trace else (False,):
            out = work / f"round{attempted}"
            out.mkdir()
            trace_path = work / f"trace{attempted}.json"
            argv = [sys.executable, "-m", "floss.cli", *wl.args(out)]
            if with_trace:
                argv = [sys.executable, str(HERE / "traced_job.py"), str(trace_path), "--",
                        *wl.args(out)]
            attempted += 1
            wall, rss, code = run_child(argv, log)
            elapsed += wall
            print(f"round {attempted}{' traced' if with_trace else ''}: {wall:.3f} s, "
                  f"{rss:.1f} MB, exit {code}", file=sys.stderr)
            if code != 0:
                failed += 1
                sys.stderr.write(log.read_text()[-2000:] + "\n")
                continue
            # The full checks wait until the rounds are done, so that every
            # round starts with the harness in the same state.
            round_digest = digest(out)
            if first_digest is None:
                first_out, first_digest = out, round_digest
            else:
                if round_digest != first_digest:
                    errors.append(f"round {attempted} wrote other bytes than the first round")
                shutil.rmtree(out)
            if with_trace:
                dump = json.loads(trace_path.read_text())
                try:
                    wl.check_trace(dump)
                except CheckFailed as exc:
                    errors.append(str(exc))
                traced.append((wall, layer_metrics(dump)))
            else:
                plain.append((wall, rss))
    if first_out is not None:
        try:
            wl.check(first_out)
        except CheckFailed as exc:
            errors.append(str(exc))
    for error in errors:
        sys.stderr.write(f"check failed: {error}\n")

    if trace:
        units = {m: unit for m, (unit, _, _) in LAYER_METRICS.items()} | DERIVED_METRICS
        values = {name: statistics.median(m[name] for _, m in traced)
                  for name in traced[0][1]} if traced else {}
        if traced and plain:
            values["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                          - statistics.median(w for w, _ in plain))
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    else:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
        if plain:
            metrics["epochs_per_s"] = {
                "value": statistics.median(wl.epochs() / w for w, _ in plain), "unit": "epoch/s"}
            metrics["peak_rss_mb"] = {
                "value": statistics.median(r for _, r in plain), "unit": "MB"}
    correct = not errors and bool(plain) and (bool(traced) or not trace)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "floss" / "__init__.py").is_file():
        print(f"no floss source tree at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        (work / "inputs").mkdir(parents=True)
        wl.prepare(args.seed, work / "inputs")
        result = measure(wl, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
