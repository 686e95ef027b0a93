"""Checks of one CLI report against the reference computation.

`expected(inputs)` computes, from the values the generator wrote and with
`reference` alone, what the report must hold; `check_report` compares a
report's text with it and returns the problems it finds (none when the
report is correct).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re

import numpy as np

import reference
from generate import PARAMS, Inputs

SWEEP_COLUMNS = ["station", "source", "p_percent", "attenuation_dB", "cnr_dB",
                 "required_margin_dB", "available_margin_dB", "closes"]
COMPARE_COLUMNS = ["station", "baseline_attenuation_dB",
                   "estimate_attenuation_dB", "overestimation_percent"]

# Agreement with the reference: |x - ref| <= TOL * max(|ref|, 1). The two
# implementations evaluate the same formulas in a different order and with
# different libm and numpy kernels; they agree to about 2e-14 relative
# over the chain's domain.
TOL = 1e-12
# C/N + A is the same for every row of a physics-mode sweep, dB.
IDENTITY_TOL = 1e-9

_MONOTONICITY = re.compile(r"^diagnostic: (.+)/(.+?): monotonicity violation")


def expected(inputs: Inputs) -> dict:
    """Reference columns in the order the report must list its rows."""
    lat = np.array([s[1] for s in inputs.stations])
    alt_km = np.array([s[3] for s in inputs.stations]) / 1000.0
    names = [s[0] for s in inputs.stations]

    def chain(r001):
        return reference.p618_attenuation(
            lat, alt_km, r001, inputs.p_list, PARAMS["frequency_GHz"],
            PARAMS["elevation_deg"], PARAMS["polarization"])

    if inputs.workload == "series-gateways":
        reducers = {"chebil_annual": reference.chebil_r001,
                    "empirical_exceedance": reference.empirical_r001}
        atten = {}
        for label in (inputs.baseline, inputs.estimate):
            reduce = reducers[inputs.series_strategies[label]]
            r001 = np.array([reduce(inputs.series[n]) for n in names])
            atten[label] = chain(r001)[:, 0]
        order = sorted(range(len(names)), key=names.__getitem__)
        base = atten[inputs.baseline][order]
        est = atten[inputs.estimate][order]
        return {"station": [names[i] for i in order], "baseline": base,
                "estimate": est,
                "over": reference.overestimation_percent(base, est)}

    by_source = {}
    for label, values in inputs.r001_sources.items():
        by_source[label] = chain(np.array([values[n] for n in names]))
    for label, values in inputs.attenuation_sources.items():
        column = np.array([values[n] for n in names])
        by_source[label] = np.repeat(column[:, None], len(inputs.p_list), axis=1)
    st_order = sorted(range(len(names)), key=names.__getitem__)
    labels = sorted(by_source)
    p_order = np.argsort(inputs.p_list, kind="stable")
    cube = np.stack([by_source[label] for label in labels], axis=1)
    atten = cube[st_order][:, :, p_order].reshape(-1)
    cnr = reference.cnr_physics_dB(atten, PARAMS)
    margin = cnr - PARAMS["required_margin_dB"]
    n_src, n_p = len(labels), len(inputs.p_list)
    return {
        "station": [names[i] for i in st_order for _ in range(n_src * n_p)],
        "source": [label for _ in st_order for label in labels for _ in range(n_p)],
        "p": np.tile(np.asarray(inputs.p_list)[p_order], len(names) * n_src),
        "attenuation": atten, "cnr": cnr, "margin": margin,
        "curve_len": n_p,
    }


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _parse_rows(text: str, fmt: str, columns: list[str],
                labels: int) -> list[list]:
    """Rows of a report as lists of cells; in CSV the first `labels`
    columns are text and the rest numbers or booleans."""
    if fmt == "json":
        records = json.loads(text, parse_constant=_reject_constant)
        if not isinstance(records, list):
            raise ValueError("JSON report is not a list")
        rows = []
        for rec in records:
            if not isinstance(rec, dict) or list(rec) != columns:
                raise ValueError(f"JSON record keys differ from {columns}")
            row = [rec[c] for c in columns]
            if (not all(isinstance(v, str) for v in row[:labels])
                    or not all(isinstance(v, (int, float)) for v in row[labels:])):
                raise ValueError(f"JSON record has cells of the wrong type: {row}")
            rows.append(row)
        return rows
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != columns:
        raise ValueError(f"CSV header differs from {columns}")
    rows = []
    for line in lines[1:]:
        if len(line) != len(columns):
            raise ValueError(f"CSV row has {len(line)} fields")
        row = line[:labels]
        for cell in line[labels:]:
            if cell in ("true", "false"):
                row.append(cell == "true")
            else:
                row.append(float(cell))
        rows.append(row)
    return rows


def _far(actual, ref) -> np.ndarray:
    """Rows where actual and ref disagree beyond TOL (or are not finite)."""
    actual = np.asarray(actual, dtype=float)
    ok = np.isfinite(actual) & (np.abs(actual - ref)
                                <= TOL * np.maximum(np.abs(ref), 1.0))
    return np.nonzero(~ok)[0]


def _rows_off(label, idx, names) -> list[str]:
    if len(idx) == 0:
        return []
    return [f"{label}: {len(idx)} rows off the reference, first {names[idx[0]]}"]


def check_sweep(text: str, fmt: str, want: dict, stderr: str) -> list[str]:
    try:
        rows = _parse_rows(text, fmt, SWEEP_COLUMNS, 2)
    except ValueError as exc:
        return [f"report does not parse: {exc}"]
    if len(rows) != len(want["attenuation"]):
        return [f"{len(rows)} rows, expected {len(want['attenuation'])}"]
    keys = [(r[0], r[1], r[2]) for r in rows]
    if keys != list(zip(want["station"], want["source"], want["p"])):
        return ["rows are not the (station, source, p) cross-product in "
                "sorted order"]
    atten = np.array([r[3] for r in rows], dtype=float)
    cnr = np.array([r[4] for r in rows], dtype=float)
    required = np.array([r[5] for r in rows], dtype=float)
    margin = np.array([r[6] for r in rows], dtype=float)
    closes = [r[7] for r in rows]
    ids = [f"{s}/{src}@{p!r}" for s, src, p in keys]
    problems = []
    problems += _rows_off("attenuation_dB", _far(atten, want["attenuation"]), ids)
    problems += _rows_off("cnr_dB", _far(cnr, want["cnr"]), ids)
    problems += _rows_off("available_margin_dB", _far(margin, want["margin"]), ids)
    if not np.all(required == PARAMS["required_margin_dB"]):
        problems.append("required_margin_dB differs from the scenario")
    ref_closes = want["margin"] >= 0.0
    borderline = np.abs(want["margin"]) <= TOL * np.maximum(np.abs(want["margin"]), 1.0)
    bad = [i for i, c in enumerate(closes)
           if not isinstance(c, bool) or (c != ref_closes[i] and not borderline[i])]
    problems += _rows_off("closes", bad, ids)
    identity = cnr + atten
    if np.ptp(identity) > IDENTITY_TOL:
        problems.append("C/N differences are not the negated attenuation "
                        f"differences (spread {np.ptp(identity):.3g} dB)")
    named = set()
    for line in stderr.splitlines():
        m = _MONOTONICITY.match(line)
        if m:
            named.add((m.group(1), m.group(2)))
    curves = atten.reshape(-1, want["curve_len"])
    rising = np.nonzero(np.any(np.diff(curves, axis=1) > 0.0, axis=1))[0]
    undiagnosed = [i for i in rising
                   if (keys[i * want["curve_len"]][0],
                       keys[i * want["curve_len"]][1]) not in named]
    if undiagnosed:
        k = keys[undiagnosed[0] * want["curve_len"]]
        problems.append(f"{len(undiagnosed)} curves rise with p without a "
                        f"diagnostic, first {k[0]}/{k[1]}")
    return problems


def check_compare(text: str, want: dict) -> list[str]:
    try:
        rows = _parse_rows(text, "csv", COMPARE_COLUMNS, 1)
    except ValueError as exc:
        return [f"report does not parse: {exc}"]
    if [r[0] for r in rows] != want["station"]:
        return ["stations differ from the catalog, in sorted order"]
    names = want["station"]
    base = np.array([r[1] for r in rows], dtype=float)
    est = np.array([r[2] for r in rows], dtype=float)
    over = np.array([r[3] for r in rows], dtype=float)
    problems = []
    problems += _rows_off("baseline_attenuation_dB", _far(base, want["baseline"]), names)
    problems += _rows_off("estimate_attenuation_dB", _far(est, want["estimate"]), names)
    problems += _rows_off("overestimation_percent", _far(over, want["over"]), names)
    return problems


def check_report(inputs: Inputs, want: dict, stdout: str, stderr: str) -> list[str]:
    """Problems with one run's output; empty when it is correct."""
    if inputs.workload == "series-gateways":
        return check_compare(stdout, want)
    return check_sweep(stdout, inputs.args[inputs.args.index("--format") + 1],
                       want, stderr)


def close_pairs_digest(pairs) -> tuple[int, str]:
    """Count and order-free digest of a set of (name, name) pairs."""
    canon = sorted("\t".join(sorted(p)) for p in pairs)
    return len(canon), hashlib.sha256("\n".join(canon).encode()).hexdigest()


def expected_close_pairs(inputs: Inputs) -> tuple[int, str]:
    return close_pairs_digest(reference.close_pairs(
        [s[0] for s in inputs.stations], [s[1] for s in inputs.stations],
        [s[2] for s in inputs.stations]))
