"""End-to-end benchmark of the rainlink CLI on seeded workloads.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the root of a source checkout: the program is imported from
`src/`. The workload's inputs are generated from the seed into a scratch
directory under `perfbench/_work/`, which is removed at the end.

Each timed operation is one fresh `python3 -m rainlink.cli ...` process
with stdout and stderr captured to files. The loop is closed with one
client: the next process starts only after the previous one has exited.
An operation fails when it exits non-zero or its output fails the check
against `reference`; a report byte-identical to one already checked is not
checked again.

--trace 0 prints the end-to-end metrics: setup_s (median time to import
rainlink and load the P.838-3 table in a fresh interpreter), report_s
(median wall time of one CLI process), both scaled to a fixed host speed
as end_to_end describes, rows_per_s (report rows over report_s) and
peak_rss_mb (median peak resident memory of one process).

--trace 1 prints the per-layer metrics instead: it alternates
`traced.py --spans` and plain `traced.py` processes and reports the
medians of each layer's time and counts, and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --workload all, each workload's object
is printed on a line of its own after its name, and the last line sums
them, with the metrics named <workload>/<metric>.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import check  # noqa: E402
import generate  # noqa: E402

SETUP_PROBE = ("import time; start = time.perf_counter(); import rainlink; "
               "rainlink.regression_coefficients(28.5); "
               "print(repr(time.perf_counter() - start))")
# The time metrics are scaled to a host on which calibrate.py takes this
# long, s; see end_to_end.
CALIBRATION_NOMINAL_S = 0.05

PER_LAYER = {
    # metric: (layer, field) of the span summary that traced.py writes
    "rain_data.catalog_s": ("rain_data.catalog", "self_s"),
    "rain_data.series_s": ("rain_data.series", "self_s"),
    "rain_data.series_calls": ("rain_data.series", "calls"),
    "rain_data.resolve_s": ("rain_data.resolve", "self_s"),
    "rain_data.resolve_calls": ("rain_data.resolve", "calls"),
    "link_budget.scenario_s": ("link_budget.scenario", "self_s"),
    "link_budget.evaluate_s": ("link_budget.evaluate", "self_s"),
    "link_budget.evaluate_calls": ("link_budget.evaluate", "calls"),
    "rain_physics.coefficients_s": ("rain_physics.coefficients", "self_s"),
    "rain_physics.coefficients_calls": ("rain_physics.coefficients", "calls"),
    "geometry.slant_path_s": ("geometry.slant_path", "self_s"),
    "geometry.slant_path_calls": ("geometry.slant_path", "calls"),
    "attenuation.curve_s": ("attenuation.curve", "self_s"),
    "attenuation.curve_calls": ("attenuation.curve", "calls"),
    "analysis.sweep_self_s": ("analysis.sweep", "self_s"),
    "analysis.sweep_calls": ("analysis.sweep", "calls"),
    "analysis.compare_s": ("analysis.compare", "self_s"),
    "analysis.emit_s": ("analysis.emit", "self_s"),
    "cli.main_s": ("cli.main", "total_s"),
    "cli.other_s": ("cli.main", "self_s"),
}
COUNTS = ("rain_data.catalog_stations", "rain_data.close_pairs",
          "rain_data.series_files", "rain_data.series_samples",
          "attenuation.points", "analysis.sweep_rows", "analysis.emit_mb")


class Child(NamedTuple):
    """How one child interpreter ran."""

    wall_s: float
    exit_code: int
    peak_rss_kib: int
    cpu_s: float
    stdout: bytes
    stderr: bytes


class Runner:
    """Spawns child interpreters on the checkout's sources and records
    every operation's outcome."""

    def __init__(self, work_dir: str, inputs: generate.Inputs):
        self.work_dir = work_dir
        self.inputs = inputs
        self.want = check.expected(inputs)
        # A fixed hash seed makes every child run the same sequence of set
        # and dict operations; the reports do not depend on it.
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.checked: dict[str, bool] = {}    # report digest -> passed
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = 0

    def __enter__(self):
        self.out_path = os.path.join(self.work_dir, "stdout")
        self.err_path = os.path.join(self.work_dir, "stderr")
        self.spawner = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawn.py"), self.out_path,
             self.err_path], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=self.env, text=True)
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()

    def spawn(self, argv: list[str]) -> Child:
        """Run one child interpreter to its end."""
        self.spawner.stdin.write("\0".join([sys.executable, *argv]) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline().split()
        if len(reply) != 4:
            raise RuntimeError("spawn.py stopped")
        with open(self.out_path, "rb") as fh:
            stdout = fh.read()
        with open(self.err_path, "rb") as fh:
            stderr = fh.read()
        return Child(float(reply[0]), int(reply[1]), int(reply[2]),
                     float(reply[3]), stdout, stderr)

    def operation(self, argv: list[str]):
        """Run one operation and check its report; returns the spawn
        result, or None when the operation failed."""
        self.attempted += 1
        child = self.spawn(argv)
        if child.exit_code != 0:
            self.failed += 1
            self.note(f"exit {child.exit_code}: "
                      + child.stderr.decode(errors="replace")[-300:])
            return None
        digest = hashlib.sha256(child.stdout + b"\0" + child.stderr).hexdigest()
        if digest not in self.checked:
            problems = check.check_report(self.inputs, self.want,
                                          child.stdout.decode(),
                                          child.stderr.decode())
            for problem in problems:
                self.note(problem)
            self.checked[digest] = not problems
        if not self.checked[digest]:
            self.failed += 1
            self.wrong += 1
            return None
        return child

    def note(self, problem: str) -> None:
        self.notes += 1
        if self.notes <= 20:
            print(f"problem: {problem}", file=sys.stderr)

    def cli(self):
        return self.operation(["-m", "rainlink.cli", *self.inputs.args])

    def probe(self, argv: list[str]) -> float:
        """Run a probe that prints the seconds it measured; return them."""
        child = self.spawn(argv)
        if child.exit_code != 0:
            raise RuntimeError(f"probe {argv} failed: "
                               + child.stderr.decode(errors="replace")[-300:])
        return float(child.stdout)

    def setup_time(self) -> float:
        """One fresh interpreter's import-and-load time, s."""
        return self.probe(["-c", SETUP_PROBE])

    def calibration_time(self) -> float:
        """One fresh interpreter's time for calibrate.py's fixed work, s."""
        return self.probe([os.path.join(HERE, "calibrate.py")])


def end_to_end(runner: Runner, seconds: float) -> dict:
    """The end-to-end metrics.

    The host this was built on changes speed by a third for minutes at a
    time, for every process alike; medians of raw times from two sets of
    runs moved by up to 30 %. So each round also times calibrate.py, a
    fixed stdlib-only workload in a fresh interpreter, and setup_s and
    report_s are the raw medians scaled by CALIBRATION_NOMINAL_S over the
    calibration median: seconds on a host running at a fixed speed. The
    raw medians are printed on the line before the result.
    """
    # Untimed warm-ups fill the bytecode cache; the warm-up operation's
    # report is checked like any other.
    runner.setup_time()
    runner.calibration_time()
    runner.cli()
    # Each round is one operation and one of each probe, so all three
    # medians sample the whole run rather than one moment of it.
    walls, rss, cpu, setup, calibration = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        child = runner.cli()
        if child is not None:
            walls.append(child.wall_s)
            rss.append(child.peak_rss_kib)
            cpu.append(child.cpu_s)
        setup.append(runner.setup_time())
        calibration.append(runner.calibration_time())
    if not walls:
        return {}
    speed = CALIBRATION_NOMINAL_S / statistics.median(calibration)
    report_s = statistics.median(walls) * speed
    if len(walls) > 1:
        print(f"{len(walls)} timed operations; quartiles of wall "
              f"{[round(q, 4) for q in statistics.quantiles(walls, n=4)]} s, "
              f"of CPU {[round(q, 4) for q in statistics.quantiles(cpu, n=4)]} s")
    print(f"raw medians: report {statistics.median(walls):.4f} s, set-up "
          f"{statistics.median(setup):.4f} s, calibration "
          f"{statistics.median(calibration):.4f} s (scale {speed:.4f})")
    return {
        "setup_s": (statistics.median(setup) * speed, "s"),
        "report_s": (report_s, "s"),
        "rows_per_s": (runner.inputs.rows / report_s, "1/s"),
        "peak_rss_mb": (statistics.median(rss) / 1024.0, "MB"),
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    traced_py = os.path.join(HERE, "traced.py")
    summary_path = os.path.join(runner.work_dir, "summary.json")
    warm = runner.cli()               # the untraced report to match
    untraced_stdout = warm.stdout if warm else None
    want_pairs = check.expected_close_pairs(runner.inputs)
    traced, plain, stderr_lines = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for spans in (True, False):
            argv = [traced_py, "--summary", summary_path]
            argv += ["--spans", "--"] if spans else ["--"]
            child = runner.operation(argv + runner.inputs.args)
            if child is None:
                continue
            if child.stdout != untraced_stdout:
                runner.wrong += 1
                runner.failed += 1
                runner.note("traced stdout differs from the untraced run")
                continue
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
            if not spans:
                plain.append(summary["main_s"])
                continue
            pairs = summary.pop("close_pairs")
            if (summary["layers"].get("rain_data.catalog")
                    and check.close_pairs_digest(pairs) != want_pairs):
                runner.wrong += 1
                runner.failed += 1
                runner.note("close_pairs differ from the brute-force set")
                continue
            traced.append(summary)
            stderr_lines.append(child.stderr.count(b"\n"))
    if not traced or not plain:
        return {}
    for name in traced[0]["absent"]:
        print(f"absent: {name}", file=sys.stderr)
    for name in traced[0]["uncounted"]:
        print(f"uncounted: {name} returned an unexpected type", file=sys.stderr)
    metrics = {}
    for metric, (layer, field) in PER_LAYER.items():
        values = [s["layers"].get(layer, {}).get(field, 0) for s in traced]
        unit = "s" if field.endswith("_s") else "count"
        metrics[metric] = (statistics.median(values), unit)
    for name in COUNTS:
        values = [s["counts"].get(name, 0) for s in traced]
        metrics[name] = (statistics.median(values),
                         "MB" if name.endswith("_mb") else "count")
    metrics["cli.stderr_lines"] = (statistics.median(stderr_lines), "count")
    metrics["trace.overhead_s"] = (metrics["cli.main_s"][0]
                                   - statistics.median(plain), "s")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate one workload's inputs, measure it and return the result
    object that run.py prints."""
    work_dir = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}")
    try:
        inputs = generate.generate(workload, seed, os.path.join(work_dir, "inputs"))
        measure = per_layer if trace else end_to_end
        with Runner(work_dir, inputs) as runner:
            metrics = measure(runner, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):      # other runs may still use it
            os.rmdir(os.path.dirname(work_dir))
    print(f"{workload} seed {seed}: {inputs.rows} report rows per operation; "
          f"{runner.attempted} operations, {runner.failed} failed")
    return {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=generate.WORKLOADS + ("all",),
                        required=True,
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "rainlink", "cli.py")):
        print(f"error: no rainlink sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result))
    else:
        results = {}
        for workload in generate.WORKLOADS:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace))
            print(f"{workload} {json.dumps(results[workload])}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{workload}/{name}": metric
                        for workload, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
        print(json.dumps(result))
    # With no operation that succeeded there is nothing to measure.
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
