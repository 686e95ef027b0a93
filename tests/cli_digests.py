"""Digests of a fixed list of rainlink CLI invocations, to compare two
checkouts byte for byte.

    python3 tests/cli_digests.py > digests.txt

Run it in each checkout and diff the two outputs. tests/cli_digests.txt
holds its output, and tests/test_cli_digests.py checks every invocation
against that file. The inputs are the packaged six-station fixture and
the three benchmark workloads' files, generated at a fixed seed by
perfbench/generate.py (imported, not edited). The list covers every
command in csv, json and table, `--plot-data` with each plot field,
`attenuation --series` on one series file as generated (Z stamps) and
re-spelled three ways (`+00:00`; `Z`, `+00:00` and `-00:00` in turn line
by line; naive, which the row loop reads), each with both strategies,
and edge cases: empty values for `--catalog`, `--p`, `--plot-data`,
`--label`, a scenario's `catalog` and a `paths` entry, a `--plot-data`
path under a missing directory, and sources that do not cover every
catalog station.

Each invocation is one `python3 -m rainlink.cli` process on this
checkout's `src/`, run in the inputs' directory (`in_subprocess`); the
test runs `rainlink.cli.main` in its own interpreter (`in_process`),
which gives the same lines. Each gives one line: its name, the exit
code, and the sha256 of stdout, stderr and the plot file (`-` when none
was written). The inputs' directory is written as `<work>` in the output
before it is hashed, so the digests do not depend on where it is. The
file has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import generate  # noqa: E402

SEED = 1
FORMATS = ("csv", "json", "table")
PLOT_FIELDS = ("attenuation_dB", "cnr_dB", "available_margin_dB")
P_LIST = "0.001,0.01,0.1,1"


def fixture_scenarios(work: str) -> None:
    """Scenarios on the packaged catalog (no catalog field): a good one and
    the edge cases of empty values and of sources missing a station."""
    names = ["Abuja", "Hartbeesthoek", "Cairo", "Longonot", "Port Louis", "Praia"]
    gauge = {n: 60.0 + 5.0 * i for i, n in enumerate(names)}
    published = {n: 20.0 + 1.5 * i for i, n in enumerate(names)}
    series = {n: f"series-gateways/series/{n.lower().replace(' ', '_')}.csv"
              for n in names}
    good = [{"label": "itu", "kind": "r001", "value": 90.0},
            {"label": "gauge", "kind": "r001", "values": gauge},
            {"label": "published", "kind": "attenuation", "values": published}]
    less = {n: v for n, v in gauge.items() if n != "Cairo"}
    scenarios = {
        "fixture": good,
        "empty-catalog": good,
        "empty-path": [{"label": "gpm", "kind": "series",
                        "paths": dict(series, Abuja="")}],
        "uncovered-series": [{"label": "gpm", "kind": "series",
                              "paths": {n: p for n, p in series.items() if n != "Praia"}}],
        "uncovered-r001": [{"label": "itu", "kind": "r001", "value": 90.0},
                           {"label": "gauge", "kind": "r001", "values": less}],
        "uncovered-attenuation": [{"label": "published", "kind": "attenuation",
                                   "values": less}],
        "empty-r001": [{"label": "gauge", "kind": "r001", "values": {}}],
        "empty-attenuation": [{"label": "published", "kind": "attenuation",
                               "values": {}}],
        "empty-paths": [{"label": "gpm", "kind": "series", "paths": {}}],
    }
    for name, sources in scenarios.items():
        doc = dict(generate.PARAMS, p_list=[0.01, 0.1, 1.0], sources=sources)
        if name == "empty-catalog":
            doc["catalog"] = ""
        with open(os.path.join(work, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


SPELLINGS = {"offset": ["+00:00"], "mixed": ["Z", "+00:00", "-00:00"], "naive": [""]}


def respelled_series(work: str, path: str):
    """("-<spelling>", file) for each SPELLINGS entry: the series at path
    with line i's Z stamp written with that entry's offset i % len(offsets)."""
    with open(os.path.join(work, path), encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    for spelling, offsets in SPELLINGS.items():
        name = f"{os.path.splitext(path)[0]}-{spelling}.csv"
        body = [line.replace("Z,", offsets[i % len(offsets)] + ",")
                for i, line in enumerate(lines)]
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join([header, *body]) + "\n")
        yield f"-{spelling}", name


def invocations(work: str):
    """(name, argv) for each invocation, argv after `rainlink`."""
    inputs = {w: generate.generate(w, SEED, os.path.join(work, w))
              for w in generate.WORKLOADS}
    fixture_scenarios(work)
    sets = [("fixture", [], "fixture.json", "Abuja", ("itu", "gauge"))]
    for w, given in inputs.items():
        # a one-source scenario compares its source with itself
        labels = ([given.baseline, given.estimate] if given.baseline
                  else [*given.r001_sources, *given.attenuation_sources])
        sets.append((w, ["--catalog", f"{w}/catalog.csv"], f"{w}/scenario.json",
                     given.stations[0][0], (labels * 2)[:2]))
    for name, catalog, scenario, station, (baseline, estimate) in sets:
        for f in FORMATS:
            yield f"{name}/stations/{f}", ["stations", *catalog, "--format", f]
            yield f"{name}/attenuation/{f}", [
                "attenuation", *catalog, "--station", station, "--freq-ghz", "28.5",
                "--elevation-deg", "20", "--r001", "90", "--p", P_LIST, "--format", f]
            # the scenario's catalog, without --catalog
            yield f"{name}/linkbudget/{f}", ["linkbudget", "--scenario", scenario,
                                             "--format", f]
            yield f"{name}/sweep/{f}", ["sweep", "--scenario", scenario, "--format", f]
            yield f"{name}/compare/{f}", ["compare", "--scenario", scenario, "--baseline",
                                          baseline, "--estimate", estimate, "--format", f]
        for field in PLOT_FIELDS:
            yield f"{name}/plot/{field}", ["sweep", "--scenario", scenario, "--format",
                                           "csv", "--plot-data", "plot.csv",
                                           "--plot-field", field]
    abuja = "series-gateways/series/abuja.csv"
    for spelling, path in [("", abuja), *respelled_series(work, abuja)]:
        for strategy in ("chebil_annual", "empirical_exceedance"):
            yield f"series-gateways/attenuation-series{spelling}/{strategy}", [
                "attenuation", "--station", "Abuja", "--freq-ghz", "28.5", "--elevation-deg",
                "20", "--series", path, "--strategy", strategy, "--p", P_LIST,
                "--format", "csv"]
    sweep = ["sweep", "--scenario", "fixture.json", "--format", "csv"]
    yield "edge/stations-catalog-empty", ["stations", "--catalog", ""]
    yield "edge/sweep-catalog-empty", [*sweep, "--catalog", ""]
    yield "edge/sweep-p-empty", [*sweep, "--p", ""]
    yield "edge/sweep-plot-data-empty", [*sweep, "--plot-data", ""]
    yield "edge/sweep-plot-data-missing-dir", [*sweep, "--plot-data", "missing/plot.csv"]
    yield "edge/attenuation-label-empty", [
        "attenuation", "--station", "Abuja", "--freq-ghz", "28.5", "--elevation-deg", "20",
        "--r001", "90", "--format", "csv", "--label", ""]
    for name in ("empty-catalog", "empty-path", "uncovered-series", "uncovered-r001",
                 "uncovered-attenuation", "empty-r001", "empty-attenuation",
                 "empty-paths"):
        yield f"edge/scenario-{name}", ["sweep", "--scenario", f"{name}.json",
                                        "--format", "csv"]


def digest(data: bytes, work: str) -> str:
    for path in {os.path.realpath(work), work}:
        data = data.replace(path.encode(), b"<work>")
    return hashlib.sha256(data).hexdigest()


def in_subprocess(argv: list[str], work: str) -> tuple[int, bytes, bytes]:
    """The exit code, stdout and stderr of one `python3 -m rainlink.cli argv`
    process on this checkout's src/, run in work."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    run = subprocess.run([sys.executable, "-m", "rainlink.cli", *argv],
                         cwd=work, env=env, capture_output=True)
    return run.returncode, run.stdout, run.stderr


def in_process(argv: list[str], work: str) -> tuple[int, bytes, bytes]:
    """The same from rainlink.cli.main(argv), run in this interpreter with
    work as the current directory."""
    from rainlink.cli import main
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(home)
    return code, out.getvalue().encode(), err.getvalue().encode()


def lines(work: str, run=in_subprocess, names=None):
    """One line per invocation (those in names, if given), each run by
    run(argv, work)."""
    plot = os.path.join(work, "plot.csv")
    for name, argv in invocations(work):
        if names is not None and name not in names:
            continue
        if os.path.exists(plot):
            os.remove(plot)
        code, stdout, stderr = run(argv, work)
        plotted = "-"
        if os.path.exists(plot):
            with open(plot, "rb") as fh:
                plotted = digest(fh.read(), work)
        yield (f"{name} exit={code} stdout={digest(stdout, work)} "
               f"stderr={digest(stderr, work)} plot={plotted}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="cli-digests-") as work:
        for line in lines(work):
            print(line, flush=True)


if __name__ == "__main__":
    main()
