"""Seeded inputs for the three benchmark workloads.

    python3 perfbench/generate.py --workload sweep-grid --seed 1 --out DIR

writes the catalog, the scenario and (for series-gateways) the rain series
files into DIR and prints the CLI arguments that run the workload on them.
The same seed gives byte-identical files. The program under test sees only
these files; the reference computation uses the `Inputs` record that
`generate` returns, which holds the values that were written.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from reference import SEPARATION_KM, haversine_km

WORKLOADS = ("sweep-grid", "catalog-dense", "series-gateways")

# The paper's 28.5 GHz, 20 degree uplink, evaluated in physics mode.
PARAMS = {
    "frequency_GHz": 28.5,
    "bandwidth_Hz": 2.1e9,
    "eirp_dBW": 75.9,
    "elevation_deg": 20.0,
    "receiver_gain_dBi": 31.8,
    "system_temperature_K": 868.4,
    "required_margin_dB": 0.36,
    "satellite_altitude_km": 1200.0,
    "other_losses_dB": 0.0,
    "mode": "physics",
    "polarization": "vertical",
}

# African bounding box, degrees.
LAT_RANGE = (-34.5, 37.0)
LON_RANGE = (-17.5, 51.0)

SWEEP_STATIONS = 200
SWEEP_R001_SOURCES = 5          # one shared value, the rest per-station
SWEEP_P_COUNT = 25
DENSE_STATIONS = 1000
SERIES_YEARS = 2
SERIES_STEP_MINUTES = 30
SERIES_START = datetime(2018, 1, 1, tzinfo=timezone.utc)

# The bundled six-station fixture, written out as the series workload's
# catalog so the benchmark does not depend on the packaged data file.
GATEWAYS = (
    ("Abuja", 9.010833, 7.271389, 348.0),
    ("Hartbeesthoek", -25.88889, 27.68528, 1385.0),
    ("Cairo", 29.9675, 31.275, 40.0),
    ("Longonot", -1.017778, 36.49694, 1715.0),
    ("Port Louis", -20.13889, 57.72528, 29.0),
    ("Praia", 15.10611, -23.51306, 84.0),
)
# Each gateway's rain climate: the share of wet samples, and mu and sigma
# of the log-normal wet rate in mm/h. They are fixed so that the seed moves
# only the samples. The wet shares are 1.5 points apart so that the six
# files' sizes, which differ by about 700 bytes per step, keep one order
# whatever the seed: the order of large allocations decides where glibc's
# adaptive mmap threshold sits, and with it the CLI's peak RSS, which
# otherwise flips by 2.7 MB between seeds.
CLIMATES = {
    "Abuja": (0.065, 0.6, 1.2),
    "Hartbeesthoek": (0.05, 0.6, 1.2),
    "Cairo": (0.02, 0.6, 1.2),
    "Longonot": (0.08, 0.6, 1.2),
    "Port Louis": (0.095, 0.6, 1.2),
    "Praia": (0.035, 0.6, 1.2),
}

# Catalogs keep every pair this far from the close-pair threshold, km, so
# that last-ulp differences between two haversine implementations cannot
# flip a pair.
SEPARATION_GUARD_KM = 1e-6


@dataclass
class Inputs:
    """What one workload's files contain, as the values that were written."""

    workload: str
    args: list[str]                                  # after `rainlink`
    stations: list[tuple[str, float, float, float]]  # name, lat, lon, alt_m
    p_list: list[float]
    # label -> station -> R001 (mm/h) for r001 sources, in scenario order
    r001_sources: dict[str, dict[str, float]] = field(default_factory=dict)
    # label -> station -> attenuation (dB) for attenuation sources
    attenuation_sources: dict[str, dict[str, float]] = field(default_factory=dict)
    # station -> rain rates (mm/h), for series sources
    series: dict[str, list[float]] = field(default_factory=dict)
    series_strategies: dict[str, str] = field(default_factory=dict)
    baseline: str = ""
    estimate: str = ""

    @property
    def rows(self) -> int:
        """Report rows one run of the workload emits."""
        if self.workload == "series-gateways":
            return len(self.stations)
        sources = len(self.r001_sources) + len(self.attenuation_sources)
        return len(self.stations) * sources * len(self.p_list)


def _random_stations(rng: random.Random, count: int, prefix: str):
    lats = np.empty(count)
    lons = np.empty(count)
    stations = []
    while len(stations) < count:
        lat = round(rng.uniform(*LAT_RANGE), 5)
        lon = round(rng.uniform(*LON_RANGE), 5)
        alt_m = round(rng.uniform(0.0, 2500.0), 1)
        n = len(stations)
        d = haversine_km(lat, lon, lats[:n], lons[:n])
        if np.any(np.abs(d - SEPARATION_KM) < SEPARATION_GUARD_KM):
            continue
        lats[n], lons[n] = lat, lon
        stations.append((f"{prefix}{n:05d}", lat, lon, alt_m))
    return stations


def _log_spaced_p(count: int) -> list[float]:
    """count values from 0.001 to 1 percent, evenly spaced in log10 and
    rounded to six significant digits."""
    return [float(f"{10.0 ** (-3.0 + 3.0 * i / (count - 1)):.6g}")
            for i in range(count)]


def _sweep_grid(rng: random.Random, inputs: Inputs) -> dict:
    inputs.stations = _random_stations(rng, SWEEP_STATIONS, "SG")
    inputs.p_list = _log_spaced_p(SWEEP_P_COUNT)
    names = [s[0] for s in inputs.stations]
    shared = round(rng.uniform(60.0, 120.0), 2)
    inputs.r001_sources["model"] = {n: shared for n in names}
    sources = [{"label": "model", "kind": "r001", "value": shared}]
    for i in range(1, SWEEP_R001_SOURCES):
        label = f"gauge{i}"
        values = {n: round(rng.uniform(20.0, 150.0), 3) for n in names}
        inputs.r001_sources[label] = values
        sources.append({"label": label, "kind": "r001", "values": values})
    anchors = {n: round(rng.uniform(2.0, 60.0), 4) for n in names}
    inputs.attenuation_sources["published"] = anchors
    sources.append({"label": "published", "kind": "attenuation",
                    "values": anchors})
    inputs.args = ["sweep", "--format", "json"]
    return {"catalog": "catalog.csv", "p_list": inputs.p_list,
            "sources": sources}


def _catalog_dense(rng: random.Random, inputs: Inputs) -> dict:
    inputs.stations = _random_stations(rng, DENSE_STATIONS, "CD")
    inputs.p_list = [0.01]
    shared = round(rng.uniform(60.0, 120.0), 2)
    inputs.r001_sources["model"] = {s[0]: shared for s in inputs.stations}
    inputs.args = ["sweep", "--format", "csv"]
    return {"catalog": "catalog.csv", "p_list": inputs.p_list,
            "sources": [{"label": "model", "kind": "r001", "value": shared}]}


def _rain_rates(rng: random.Random, count: int, climate) -> list[float]:
    """Rain rates under a climate, rounded to 0.01 mm/h so the file text
    is short and exact."""
    wet, mu, sigma = climate
    return [round(rng.lognormvariate(mu, sigma), 2) if rng.random() < wet
            else 0.0 for _ in range(count)]


def _series_gateways(rng: random.Random, inputs: Inputs, out_dir: str) -> dict:
    inputs.stations = list(GATEWAYS)
    inputs.p_list = [0.01]
    step = timedelta(minutes=SERIES_STEP_MINUTES)
    count = SERIES_YEARS * 365 * 24 * 60 // SERIES_STEP_MINUTES
    stamps = [(SERIES_START + i * step).strftime("%Y-%m-%dT%H:%M:%SZ")
              for i in range(count)]
    os.makedirs(os.path.join(out_dir, "series"), exist_ok=True)
    paths = {}
    for name, *_ in GATEWAYS:
        rates = _rain_rates(rng, count, CLIMATES[name])
        inputs.series[name] = rates
        rel = f"series/{name.lower().replace(' ', '_')}.csv"
        paths[name] = rel
        with open(os.path.join(out_dir, rel), "w", encoding="utf-8") as fh:
            fh.write("timestamp,rate_mm_per_hr\n")
            fh.writelines(f"{t},{r!r}\n" for t, r in zip(stamps, rates))
    inputs.series_strategies = {"chebil": "chebil_annual",
                                "empirical": "empirical_exceedance"}
    inputs.baseline, inputs.estimate = "chebil", "empirical"
    inputs.args = ["compare", "--baseline", "chebil", "--estimate",
                   "empirical", "--format", "csv"]
    return {"catalog": "catalog.csv", "p_list": inputs.p_list,
            "sources": [{"label": label, "kind": "series",
                         "strategy": strategy, "paths": paths}
                        for label, strategy in inputs.series_strategies.items()]}


def generate(workload: str, seed: int, out_dir: str) -> Inputs:
    """Write one workload's input files into out_dir and describe them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    inputs = Inputs(workload=workload, args=[], stations=[], p_list=[])
    if workload == "sweep-grid":
        body = _sweep_grid(rng, inputs)
    elif workload == "catalog-dense":
        body = _catalog_dense(rng, inputs)
    else:
        body = _series_gateways(rng, inputs, out_dir)
    with open(os.path.join(out_dir, "catalog.csv"), "w", encoding="utf-8") as fh:
        fh.write("name,latitude_deg,longitude_deg,altitude_m\n")
        fh.writelines(f"{n},{lat!r},{lon!r},{alt!r}\n"
                      for n, lat, lon, alt in inputs.stations)
    scenario = dict(PARAMS, **body)
    scenario_path = os.path.join(out_dir, "scenario.json")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, indent=1)
    inputs.args[1:1] = ["--scenario", scenario_path]
    return inputs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write")
    args = parser.parse_args()
    inputs = generate(args.workload, args.seed, args.out)
    print("rainlink " + " ".join(inputs.args))
    print(f"rows {inputs.rows}")


if __name__ == "__main__":
    main()
