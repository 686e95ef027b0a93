"""Tests of the benchmark itself: the reference computation against the
recommendation's tabulated values and the acceptance gate's paper-derived
figures, and the output check against reports the program writes now and
against perturbed copies of them.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import warnings
from heapq import nlargest

import numpy as np
import pytest

import check
import generate
import reference

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
VALIDATION_CSV = os.path.join(ROOT, "src", "rainlink", "data", "p838_validation.csv")

# Paper attenuation tables and overestimation percentages, as in the
# acceptance gate.
ITU_ATTEN = [34.1808, 49.0126, 31.6560, 40.2605, 27.5556, 28.0972]
GPM_ATTEN = [10.3059, 22.7947, -13.2802, 16.3896, 0.7753, -1.3956]
TRMM_ATTEN = [10.5587, 22.7269, -7.8440, 15.5252, -0.3620, -1.7871]
GPM_OVER = [70, 54, 142, 59, 97, 105]
TRMM_OVER = [69, 54, 125, 61, 101, 106]


def test_p838_matches_the_tabulated_coefficients():
    with open(VALIDATION_CSV, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    freq = np.array([float(r["frequency_GHz"]) for r in rows])
    for pol, k_col, a_col in (("horizontal", "kappa_h", "alpha_h"),
                              ("vertical", "kappa_v", "alpha_v")):
        kappa, alpha = reference.p838_coefficients(freq, pol)
        for name, got, col in (("kappa", kappa, k_col), ("alpha", alpha, a_col)):
            want = np.array([float(r[col]) for r in rows])
            assert np.all(np.abs(got - want) <= 1e-3 * np.abs(want)), (pol, name)


def test_kappa_at_28_5_ghz_lies_between_its_tabulated_neighbours():
    kappa, _ = reference.p838_coefficients(28.5, "vertical")
    assert 0.1964 < kappa < 0.2291


def test_fspl_reconstruction():
    d = reference.slant_range_km(1200.0, 20.0)
    assert abs(reference.free_space_path_loss_dB(28.5, d) - 189.3) < 0.1


def test_overestimation_replication():
    for estimate, expected in ((GPM_ATTEN, GPM_OVER), (TRMM_ATTEN, TRMM_OVER)):
        over = reference.overestimation_percent(ITU_ATTEN, np.array(estimate))
        assert np.all(np.abs(over - expected) <= 1.0)


def test_chain_at_the_reference_percentage_and_monotone_in_p():
    p = [0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]
    lat = np.array([s[1] for s in generate.GATEWAYS])
    alt = np.array([s[3] for s in generate.GATEWAYS]) / 1000.0
    curves = reference.p618_attenuation(lat, alt, np.full(6, 90.0), p,
                                        28.5, 20.0, "vertical")
    assert curves.shape == (6, 10)
    assert np.all(np.diff(curves, axis=1) <= 0.0)
    assert np.all(curves > 0.0)
    # A(0.01 %) is A001 itself: the scaling exponent's base is 1 there
    a001 = reference.p618_attenuation(lat, alt, np.full(6, 90.0), [0.01],
                                      28.5, 20.0, "vertical")[:, 0]
    assert np.array_equal(a001, curves[:, 3])


def test_chain_agrees_with_the_library_over_its_domain():
    """The reference is a valid oracle only if it computes what the
    library's scalar chain computes; hold it to the report tolerance."""
    from rainlink import GroundStation, attenuation_curve, rain_slant_path
    from rainlink import regression_coefficients
    rng = random.Random(618)
    for _ in range(200):
        lat = rng.uniform(-60.0, 60.0)
        alt = rng.uniform(0.0, 3.0)
        rate = rng.uniform(0.0, 200.0)
        freq = 10.0 ** rng.uniform(0.5, 2.0)
        elev = rng.uniform(5.0, 90.0)
        pol = rng.choice(["horizontal", "vertical"])
        p = sorted({rng.uniform(0.001, 1.0) for _ in range(5)})
        station = GroundStation("s", lat, 0.0, alt)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curve = attenuation_curve(station, rain_slant_path(station, elev),
                                      regression_coefficients(freq, pol), rate, p)
        got = np.array([a for _, a in curve.points])
        want = reference.p618_attenuation([lat], [alt], [rate], p, freq, elev, pol)[0]
        assert np.all(np.abs(got - want) <= check.TOL * np.maximum(np.abs(want), 1.0))


def test_series_reductions():
    assert reference.chebil_r001([0.0] * 10) == 0.0
    rate = 0.1
    m = rate * 8766.0
    assert math.isclose(reference.chebil_r001([rate] * 100),
                        12.2903 * m ** 0.2973, rel_tol=1e-15)
    rng = random.Random(1)
    for count in (1, 9999, 10000, 10001, 35040):
        rates = [round(rng.expovariate(0.5), 2) for _ in range(count)]
        rank = min(max(math.ceil(count * 1e-4), 1), count)
        assert reference.empirical_r001(rates) == nlargest(rank, rates)[-1]


def test_close_pairs_brute_force_matches_the_catalog_parser():
    from rainlink import parse_station_catalog
    rng = random.Random(7)
    rows = [(f"S{i}", round(rng.uniform(-30, 30), 4), round(rng.uniform(-15, 45), 4))
            for i in range(60)]
    text = "name,latitude_deg,longitude_deg,altitude_m\n" + "".join(
        f"{n},{lat},{lon},0\n" for n, lat, lon in rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        catalog = parse_station_catalog(text)
    got = {(a, b) for a, b, _ in catalog.close_pairs}
    want = reference.close_pairs(*zip(*rows))
    assert got == want and 0 < len(want) < 60 * 59 // 2


def test_generator_is_a_function_of_the_seed(tmp_path):
    def files(seed, name):
        out = tmp_path / name
        generate.generate("catalog-dense", seed, str(out))
        return [(p, (out / p).read_bytes()) for p in sorted(os.listdir(out))]
    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def run_cli(args):
    from rainlink.cli import main
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        assert main(args) == 0
    return out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    inputs = generate.generate("sweep-grid", 3, str(tmp_path_factory.mktemp("sg")))
    stdout, stderr = run_cli(inputs.args)
    return inputs, check.expected(inputs), stdout, stderr


@pytest.fixture(scope="module")
def compare(tmp_path_factory):
    inputs = generate.generate("series-gateways", 3,
                               str(tmp_path_factory.mktemp("sgw")))
    stdout, stderr = run_cli(inputs.args)
    return inputs, check.expected(inputs), stdout, stderr


def test_the_program_passes_the_check(sweep, compare):
    for inputs, want, stdout, stderr in (sweep, compare):
        assert check.check_report(inputs, want, stdout, stderr) == []
    assert len(json.loads(sweep[2])) == sweep[0].rows


def perturbed_json(stdout, edit):
    records = json.loads(stdout)
    edit(records)
    return json.dumps(records, indent=2) + "\n"


def _scale(field, factor, index=0):
    def edit(records):
        records[index][field] *= factor
    return edit


@pytest.mark.parametrize("edit", [
    _scale("attenuation_dB", 1.0 + 1e-9),
    _scale("cnr_dB", 1.0 + 1e-9, index=-1),
    _scale("available_margin_dB", 1.0 - 1e-9, index=7),
    lambda r: r[3].update(closes=not r[3]["closes"]),
    lambda r: r.pop(),
    lambda r: r.insert(0, r.pop(1)),
    lambda r: r[0].update(cnr_dB=float("nan")),
    lambda r: r[0].update(p_percent=0.5),
    lambda r: r[0].update(cnr_dB=str(r[0]["cnr_dB"])),
])
def test_the_check_rejects_a_perturbed_sweep(sweep, edit):
    inputs, want, stdout, stderr = sweep
    assert check.check_report(inputs, want, perturbed_json(stdout, edit), stderr)


def test_the_check_rejects_a_rising_curve_without_a_diagnostic(sweep):
    inputs, want, stdout, stderr = sweep
    assert "monotonicity violation" in stderr
    assert check.check_report(inputs, want, stdout, "")


def test_the_check_rejects_unparseable_reports(sweep):
    inputs, want, stdout, stderr = sweep
    assert check.check_report(inputs, want, stdout[:-10], stderr)


def test_the_check_rejects_a_perturbed_comparison(compare):
    inputs, want, stdout, stderr = compare
    lines = stdout.splitlines()
    cells = lines[2].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    lines[2] = ",".join(cells)
    assert check.check_report(inputs, want, "\n".join(lines) + "\n", stderr)
