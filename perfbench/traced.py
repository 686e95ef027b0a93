"""Run `rainlink.cli.main` in this interpreter and write how long it took.

    python3 perfbench/traced.py --summary OUT.json [--spans] -- CLI-ARGS...

With --spans, the layer functions are first replaced, under the names by
which `rainlink.cli` and `rainlink.analysis` look them up, with wrappers
that record a span per call (layer, start, end, parent) and count the work
in the result. The spans stay in memory; after main returns they are
reduced to per-layer calls, total and self time, which go to OUT.json with
the counts. Without --spans only main's own time is written, which is the
untraced comparison for the tracing overhead. main runs inside
warnings.catch_warnings(); its stdout and stderr are this process's.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
import warnings
from collections import defaultdict

# (module, name, layer). Names that a module no longer has are reported
# as absent.
WRAPPED = (
    ("rainlink.cli", "parse_scenario", "link_budget.scenario"),
    ("rainlink.cli", "parse_station_catalog", "rain_data.catalog"),
    ("rainlink.cli", "parse_rain_series", "rain_data.series"),
    ("rainlink.cli", "resolve_r001", "rain_data.resolve"),
    ("rainlink.cli", "regression_coefficients", "rain_physics.coefficients"),
    ("rainlink.analysis", "regression_coefficients", "rain_physics.coefficients"),
    ("rainlink.cli", "rain_slant_path", "geometry.slant_path"),
    ("rainlink.analysis", "rain_slant_path", "geometry.slant_path"),
    ("rainlink.cli", "attenuation_curve", "attenuation.curve"),
    ("rainlink.analysis", "attenuation_curve", "attenuation.curve"),
    ("rainlink.analysis", "evaluate_link", "link_budget.evaluate"),
    ("rainlink.cli", "availability_sweep", "analysis.sweep"),
    ("rainlink.cli", "compare_sources", "analysis.compare"),
    ("rainlink.cli", "emit_report", "analysis.emit"),
)


class Tracer:
    """Spans and counts of one main() call."""

    def __init__(self):
        self.spans: list = []        # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.series_texts: set[int] = set()
        self.close_pairs: list = []
        self.uncounted: set[str] = set()

    def wrap(self, layer: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self.count(layer, result, args)
            return result
        return traced

    def count(self, layer: str, result, args) -> None:
        counts = self.counts
        try:
            if layer == "rain_data.catalog":
                counts["rain_data.catalog_stations"] += len(result.stations)
                counts["rain_data.close_pairs"] += len(result.close_pairs)
                self.close_pairs.extend((a, b) for a, b, _ in result.close_pairs)
            elif layer == "rain_data.series":
                counts["rain_data.series_samples"] += len(result.samples)
                self.series_texts.add(hash(args[0]))
                counts["rain_data.series_files"] = len(self.series_texts)
            elif layer == "attenuation.curve":
                counts["attenuation.points"] += len(result.points)
            elif layer == "analysis.sweep":
                counts["analysis.sweep_rows"] += len(result.rows)
            elif layer == "analysis.emit":
                counts["analysis.emit_mb"] += len(result.encode()) / 2 ** 20
        except (AttributeError, TypeError, IndexError):
            self.uncounted.add(layer)

    def layers(self) -> dict[str, dict[str, float]]:
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (layer, start, end, _), inner in zip(self.spans, child_time):
            agg = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
        return out


def install(tracer: Tracer) -> list[str]:
    """Wrap every name in WRAPPED that exists; return those that do not."""
    absent = []
    for module_name, name, layer in WRAPPED:
        module = importlib.import_module(module_name)
        fn = getattr(module, name, None)
        if fn is None:
            absent.append(f"{module_name}.{name}")
        else:
            setattr(module, name, tracer.wrap(layer, fn))
    return absent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    import rainlink.cli
    tracer = Tracer() if args.spans else None
    absent = install(tracer) if tracer else []
    run = tracer.wrap("cli.main", rainlink.cli.main) if tracer else rainlink.cli.main
    start = time.perf_counter()
    with warnings.catch_warnings():
        code = run(cli_args)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    summary = {"main_s": main_s}
    if tracer:
        summary.update(layers=tracer.layers(), counts=dict(tracer.counts),
                       absent=absent, uncounted=sorted(tracer.uncounted),
                       close_pairs=tracer.close_pairs)
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
