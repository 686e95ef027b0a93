"""Mutation check of tier-1: does the suite fail when one formula or one
threshold of the package changes?

    python3 tests/mutants.py [FILE ...]

MUTANTS holds (file, old, new) triples on the files of src/rainlink: at
least one per formula and per threshold that README states, and some on
parsing, validation, the report writer, records and exit codes. With no
argument every triple runs, and that full run is the gate; with file names
(attenuation.py analysis.py) only those files' triples run. For each
triple the script copies this checkout's src/, tests/ and pyproject.toml,
with perfbench/ (test_reference.py loads its reference) and README.md
(test_cli.py runs its Library use blocks), to a temporary directory,
replaces old by new there and runs tier-1 with -x. Two run at once, one
per CPU. It prints one line per triple, in list order: killed or
survived, the wall time, the triple, and the first failing test or, for a
survivor the list accepts, why it does no harm. A count follows.

It exits 2, before running anything, when a file name has no triple in
the list, or when an old text is not found exactly once in its file, so
that a refactor updates the list instead of silently skipping a mutant;
and 1 when a mutant that is not accepted
survives. The file has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
LANES = 2


class Mutant(NamedTuple):
    file: str  # under src/rainlink
    old: str
    new: str
    accepted: str = ""  # why the mutant may survive


MUTANTS = [
    # P.618-8 horizontal reduction factor and its clamp at 1
    Mutant("attenuation.py", "0.78 * math.sqrt(", "0.79 * math.sqrt("),
    Mutant("attenuation.py", "- 0.38 * (1.0 - math.exp(", "- 0.37 * (1.0 - math.exp("),
    Mutant("attenuation.py", "math.exp(-2.0 * L_G_km)", "math.exp(-1.0 * L_G_km)"),
    Mutant("attenuation.py", "    if r001 > 1.0:\n", "    if r001 > 1.0001:\n"),
    # vertical adjustment
    Mutant("attenuation.py", "math.atan2(height, horizontal) > e_rad",
           "math.atan2(horizontal, height) > e_rad"),
    Mutant("attenuation.py", "chi = max(36.0 - abs_lat", "chi = max(35.0 - abs_lat"),
    Mutant("attenuation.py", "31.0 * (1.0 - math.exp(", "32.0 * (1.0 - math.exp("),
    Mutant("attenuation.py", "/ frequency_GHz ** 2 - 0.45))", "/ frequency_GHz ** 2 - 0.46))"),
    Mutant("attenuation.py", "math.sqrt(math.sin(e_rad))", "math.sin(e_rad)"),
    # A001 = gamma L_E
    Mutant("attenuation.py", "A001 = gamma * (L_R * v001)", "A001 = gamma * (L_R * v001) * 1.001"),
    # the z term: zero from |lat| 36 deg, a branch at 25 deg elevation
    Mutant("attenuation.py", "if abs_lat >= 36.0:", "if abs_lat >= 37.0:"),
    Mutant("attenuation.py", "if elevation_deg >= 25.0:", "if elevation_deg >= 26.0:"),
    Mutant("attenuation.py", "return -0.005 * (abs_lat - 36.0)\n",
           "return -0.006 * (abs_lat - 36.0)\n"),
    Mutant("attenuation.py", "+ 1.8 - 4.25 * math.sin(", "+ 1.9 - 4.25 * math.sin("),
    Mutant("attenuation.py", "+ 1.8 - 4.25 * math.sin(", "+ 1.8 - 4.2 * math.sin("),
    # the scaling exponent
    Mutant("attenuation.py", "ln_term = 0.045 * math.log(", "ln_term = 0.046 * math.log("),
    Mutant("attenuation.py", "0.655 + 0.033 * math.log(p)", "0.656 + 0.033 * math.log(p)"),
    Mutant("attenuation.py", "0.655 + 0.033 * math.log(p)", "0.655 + 0.034 * math.log(p)"),
    Mutant("attenuation.py", "z * sin_e * rest", "z * sin_e"),
    Mutant("attenuation.py", "if a_hi > a_lo:", "if a_hi > a_lo + 1e-9:",
           "a rise under 1e-9 dB goes unreported; no report prints 1e-9 dB"),
    # rain height and slant-path geometry
    Mutant("geometry.py", "        return 5.0\n", "        return 5.1\n"),
    Mutant("geometry.py", "if abs_lat <= 23.0:", "if abs_lat <= 24.0:"),
    Mutant("geometry.py", "5.0 - 0.075 * (abs_lat", "5.0 - 0.076 * (abs_lat"),
    Mutant("geometry.py", "l_s = (h_r - h_s) / math.sin(e)", "l_s = (h_r - h_s) / math.cos(e)"),
    Mutant("geometry.py", "l_g = l_s * math.cos(e)", "l_g = l_s * math.sin(e)"),
    Mutant("geometry.py", "    if h_r > h_s:\n", "    if h_r >= h_s:\n",
           "equivalent: at h_r == h_s the path has zero length either way"),
    Mutant("geometry.py", "- re * math.sin(e)", "- re * math.cos(e)"),
    Mutant("geometry.py", "return 92.45 + 20.0 * math.log10(", "return 92.44 + 20.0 * math.log10("),
    # constants
    Mutant("constants.py", "EARTH_RADIUS_KM = 6378.0", "EARTH_RADIUS_KM = 6371.0"),
    Mutant("constants.py", "BOLTZMANN_J_PER_K = 1.380649e-23", "BOLTZMANN_J_PER_K = 1.38e-23"),
    Mutant("constants.py", "HOURS_PER_YEAR = 8766.0", "HOURS_PER_YEAR = 8760.0"),
    Mutant("constants.py", "MIN_ELEVATION_DEG = 5.0", "MIN_ELEVATION_DEG = 4.0"),
    Mutant("constants.py", "MIN_SEPARATION_KM = 2000.0", "MIN_SEPARATION_KM = 1990.0"),
    Mutant("constants.py", "MEAN_EARTH_RADIUS_KM = 6371.0", "MEAN_EARTH_RADIUS_KM = 6378.0"),
    Mutant("constants.py", '"p_percent": (0.001, 1.0,', '"p_percent": (0.0001, 1.0,'),
    # link budget: noise, C/N in both modes, margin, closure, durations
    Mutant("link_budget.py", "return 10.0 * math.log10(BOLTZMANN_J_PER_K",
           "return 20.0 * math.log10(BOLTZMANN_J_PER_K"),
    Mutant("link_budget.py", "- attenuation_dB - other_dB + gain_dBi",
           "- attenuation_dB + other_dB + gain_dBi"),
    Mutant("link_budget.py", "k_clear_dB - attenuation_dB", "k_clear_dB + attenuation_dB"),
    Mutant("link_budget.py", "return cnr_dB - required_margin_dB",
           "return cnr_dB + required_margin_dB"),
    Mutant("link_budget.py", "return available_margin_dB >= 0.0",
           "return available_margin_dB > 0.0"),
    Mutant("link_budget.py", "p_percent / 100.0 * HOURS_PER_YEAR",
           "p_percent / 1000.0 * HOURS_PER_YEAR"),
    # rain sources: mean rate, accumulation, Chebil, empirical rank, thresholds
    Mutant("rain_data.py", "math.fsum(series.rates) / len(series.rates)",
           "math.fsum(series.rates) / (len(series.rates) + 1)"),
    Mutant("rain_data.py", "mean_rate_mm_per_hr * HOURS_PER_YEAR", "mean_rate_mm_per_hr * 8760.0"),
    Mutant("rain_data.py", "return 12.2903 * annual_accumulation_mm ** 0.2973",
           "return 12.29 * annual_accumulation_mm ** 0.2973"),
    Mutant("rain_data.py", "return 12.2903 * annual_accumulation_mm ** 0.2973",
           "return 12.2903 * annual_accumulation_mm ** 0.297"),
    Mutant("rain_data.py", "rank = math.ceil(p_percent", "rank = math.floor(p_percent"),
    Mutant("rain_data.py", "_COARSE_CADENCE_HOURS = 24.0 * 28.0", "_COARSE_CADENCE_HOURS = 24.0 * 27.0"),
    Mutant("rain_data.py", "_R001_RANK_SAMPLES = 10_000", "_R001_RANK_SAMPLES = 9_999"),
    Mutant("rain_data.py", "MEAN_EARTH_RADIUS_KM * math.asin(", "MEAN_EARTH_RADIUS_KM * math.atan("),
    # the series rules RainSeries checks: strictly increasing times, finite
    # non-negative rates
    Mutant("rain_data.py", "all(map(operator.lt, times", "all(map(operator.le, times"),
    Mutant("rain_data.py", "0.0 <= r < math.inf", "0.0 < r < math.inf"),
    Mutant("rain_data.py", "0.0 <= r < math.inf", "0.0 <= r <= math.inf"),
    # the close-pair strip pairs: the caps shrunk and widened by 1e-6, the inner
    # half-width least over the corners, the outer greatest over the edges at
    # the clamped peak, windows across -pi wrapped, and a window of pi holding
    # each member of T once
    Mutant("rain_data.py", "math.cos(_THETA * (1.0 - 1e-6))", "math.cos(_THETA * (1.0 + 1e-6))"),
    Mutant("rain_data.py", "_REACH = _THETA * (1.0 + 1e-6)", "_REACH = _THETA * (1.0 - 1e-6)"),
    Mutant("rain_data.py", "w_in = min(", "w_in = max("),
    Mutant("rain_data.py", "w_out = max(", "w_out = min("),
    Mutant("rain_data.py", "a, min(max(peak, lo), hi))", "a, lo)"),
    Mutant("rain_data.py", "if lons[0] - w_out < -math.pi or", "if lons[0] - w_out < -math.tau or"),
    Mutant("rain_data.py", "if w >= math.pi else", "if w > math.pi else"),
    # P.838-3: the regressions, one transcribed constant of each, and
    # gamma = kappa R^alpha
    Mutant("rain_physics.py", "total = self.m * lf + self.offset", "total = self.m * lf - self.offset"),
    Mutant("rain_physics.py", "math.exp(-(((lf - b_j) / c_j) ** 2))",
           "math.exp(-(((lf + b_j) / c_j) ** 2))"),
    Mutant("rain_physics.py", "offset=0.71147,", "offset=0.71148,"),
    Mutant("rain_physics.py", "offset=0.63297,", "offset=0.63298,"),
    Mutant("rain_physics.py", "offset=-1.95537,", "offset=-1.95538,"),
    Mutant("rain_physics.py", "offset=0.83433,", "offset=0.83434,"),
    Mutant("rain_physics.py", "coefficients.kappa * rain_rate_mm_per_hr ** coefficients.alpha",
           "coefficients.kappa * rain_rate_mm_per_hr * coefficients.alpha"),
    # comparison
    Mutant("analysis.py", "(baseline_dB - estimate_dB) / baseline_dB * 100.0",
           "(baseline_dB - estimate_dB) / estimate_dB * 100.0"),
    # parsing, validation, the report writer, records and exit codes
    Mutant("cli.py", "return EXIT_DATA if isinstance(exc, RainlinkError) else EXIT_IO",
           "return EXIT_DATA"),
    Mutant("analysis.py", "if len(set(column[:64])) <= 32 and 0.0 not in column:",
           "if len(set(column[:64])) <= 32:"),
    Mutant("analysis.py", 'close, width = "\\n  }" if header else "}",', 'close, width = "\\n  }",'),
    Mutant("rain_data.py", 'zulu = chunk.count("Z,") == commas', 'zulu = chunk.count("Z") == commas'),
    Mutant("rain_data.py", ' or normalized.endswith("z")', ""),
    Mutant("scenario.py", "if type(value) not in (int, float):",
           "if not isinstance(value, (int, float)):"),
    Mutant("scenario.py", "if len(set(labels)) != len(labels):", "if False:"),
    Mutant("errors.py", "if other.__class__ is not self.__class__:",
           "if not isinstance(other, Record):"),
    Mutant("analysis.py", "elif kinds == {float} and all(map(math.isfinite, column)):",
           "elif kinds == {float}:"),
    Mutant("cli.py", 'raise UsageError(str(exc) if math.isfinite(value)\n'
           '                         else f"{flag} {value} must be finite")',
           "raise UsageError(str(exc))"),
    Mutant("cli.py", 'for x in text.split(",") if x.strip()]', 'for x in text.split(",")]'),
    Mutant("scenario.py", "elevation_deg < MIN_ELEVATION_DEG:", "elevation_deg <= MIN_ELEVATION_DEG:"),
    Mutant("rain_data.py", "max(len(self.times) - 1, 1)", "len(self.times)"),
    Mutant("analysis.py", "range(start // block, -(-stop // block))",
           "range(start // block, stop // block)"),
    Mutant("scenario.py", "            del series\n", "            pass\n",
           "only peak memory changes: one parsed series (2.3 MB at 35,040 samples) "
           "is held at a time"),
    Mutant("attenuation.py", "if len(plan) != len(p_list):", "if len(plan) < len(p_list) - 1:"),
]


def source(mutant: Mutant, root: str = ROOT) -> str:
    return os.path.join(root, "src", "rainlink", mutant.file)


def misplaced(mutants: list[Mutant]) -> list[str]:
    """One line per triple whose old text is not found exactly once."""
    lines = []
    for mutant in mutants:
        with open(source(mutant), encoding="utf-8") as fh:
            count = fh.read().count(mutant.old)
        if count != 1:
            lines.append(f"{mutant.file}: {mutant.old!r} found {count} times")
    return lines


def run(mutant: Mutant) -> tuple[bool, str, float]:
    """(killed, first failing test, wall seconds) of tier-1 on the mutant."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        for name in COPIED:
            path = os.path.join(ROOT, name)
            if os.path.isdir(path):
                shutil.copytree(path, os.path.join(work, name), ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", "_work"))
            else:
                shutil.copy(path, work)
        with open(source(mutant, work), encoding="utf-8") as fh:
            text = fh.read()
        with open(source(mutant, work), "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=work, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines() or [""]
    # -rfE lists each failure as "FAILED <test id> - <message>"
    failures = [line.split(" - ")[0].split(" ", 1)[1] for line in lines
                if line.startswith(("FAILED ", "ERROR "))]
    first = failures[0] if failures else lines[-1]
    return done.returncode != 0, first, time.perf_counter() - start


def main(files: list[str]) -> int:
    known = {mutant.file for mutant in MUTANTS}
    unknown = sorted(set(files) - known)
    if unknown:
        print(f"no triple for {', '.join(unknown)}; files: {', '.join(sorted(known))}",
              file=sys.stderr)
        return 2
    mutants = [mutant for mutant in MUTANTS if not files or mutant.file in files]
    bad = misplaced(mutants)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 2
    killed = accepted = survived = 0
    with ThreadPoolExecutor(LANES) as lanes:
        for mutant, (dead, first, seconds) in zip(mutants, lanes.map(run, mutants)):
            if dead:
                killed += 1
                status, note = "killed", first
            elif mutant.accepted:
                accepted += 1
                status, note = "survived", f"accepted: {mutant.accepted}"
            else:
                survived += 1
                status, note = "survived", "NOT ACCEPTED"
            print(f"{status:8} {seconds:5.1f}s  {mutant.file}: {mutant.old.strip()!r} -> "
                  f"{mutant.new.strip()!r}  {note}", flush=True)
    print(f"{killed} of {len(mutants)} killed; {accepted} survived, accepted; "
          f"{survived} survived, not accepted")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
