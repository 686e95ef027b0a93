"""The package's immutable records: construction, defaults, equality, hash,
repr and immutability, each as the frozen dataclass with the same fields
gives them."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from datetime import datetime, timezone
from typing import NamedTuple

import pytest

import rainlink
from rainlink import (AttenuationCurve, CnrMode,
                      ComparisonRow, DomainError, GroundStation, LinkResult, PathGeometry,
                      Polarization, RainCoefficients, RainSeries,
                      ResolvedSource, Scenario, SourceDescriptor, SourceKind,
                      SpecificAttenuation, StationCatalog, Strategy,
                      TransmissionParams, UnavailabilityDuration,
                      ValidationError)
from rainlink.errors import Record
from rainlink.rain_physics import _Regression

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
T1 = datetime(2020, 1, 1, 1, tzinfo=timezone.utc)
REG = _Regression((1.0, 2.0), (0.5, 1.5), (0.3, 0.4), 0.1, -0.2, True)
PARAMS = TransmissionParams(28.5, 2.1e9, 75.9, 20.0, 31.8, 868.4, 0.36, 1200.0)
DESC = SourceDescriptor("ITU", SourceKind.R001, 90.0)
ROW = ("Abuja", "ITU", 0.01, 34.2, 12.0, 0.36, 11.64, True)


class Case(NamedTuple):
    """values: every field in order, the defaulted ones at their defaults;
    other: values that differ in one field; defaults: each defaulted field
    and the dataclass's default."""
    cls: type
    values: tuple
    other: tuple
    defaults: dict


CASES = [
    Case(GroundStation, ("Abuja", 9.06, 7.49, 0.536),
         ("Abuja", 9.06, 7.49, 0.5), {}),
    Case(PathGeometry, (20.0, 5.0, 13.0, 12.2), (20.0, 5.0, 13.0, 12.5), {}),
    Case(RainCoefficients, (28.5, Polarization.VERTICAL, 0.2, 0.95),
         (28.5, Polarization.HORIZONTAL, 0.2, 0.95), {}),
    Case(SpecificAttenuation, (3.0, 50.0), (3.0, 50.5), {}),
    Case(_Regression, (REG.a, REG.b, REG.c, 0.1, -0.2, True),
         (REG.a, REG.b, REG.c, 0.1, -0.2, False), {}),
    Case(AttenuationCurve, (12.0, 50.0, ((0.01, 12.0), (0.1, 4.0)), ()),
         (12.0, 50.0, ((0.01, 12.0),), ()), {"diagnostics": ()}),
    Case(ResolvedSource, ("ITU", {"Abuja": 90.0}, None),
         ("ITU", {"Abuja": 91.0}, None),
         {"r001_by_station": None, "attenuation_by_station": None}),
    Case(UnavailabilityDuration, (0.01, 0.8766), (0.1, 0.8766), {}),
    Case(RainSeries, ("x", (T0, T1), (0.0, 2.5), ""),
         ("x", (T0, T1), (0.0, 2.5), "hourly"),
         {"times": (), "rates": (), "cadence": ""}),
    Case(StationCatalog, ((GroundStation("Abuja", 9.06, 7.49, 0.536),),),
         ((GroundStation("Cairo", 30.0, 31.2, 0.0),),), {}),
    Case(SourceDescriptor,
         ("ITU", SourceKind.R001, 90.0, None, None, Strategy.CHEBIL_ANNUAL),
         ("ITU", SourceKind.R001, 90.0, None, None,
          Strategy.EMPIRICAL_EXCEEDANCE),
         {"value": None, "values": None, "paths": None,
          "strategy": Strategy.CHEBIL_ANNUAL}),
    Case(Scenario, (PARAMS, CnrMode.PHYSICS, None, None, (DESC,), (0.01,),
                    Polarization.VERTICAL),
         (PARAMS, CnrMode.PHYSICS, None, "c.csv", (DESC,), (0.01,),
          Polarization.VERTICAL), {"polarization": Polarization.VERTICAL}),
    Case(TransmissionParams,
         (28.5, 2.1e9, 75.9, 20.0, 31.8, 868.4, 0.36, 1200.0, 0.0, None),
         (28.5, 2.1e9, 75.9, 20.0, 31.8, 868.4, 0.36, 1200.0, 0.0, 3.5),
         {"other_losses_dB": 0.0, "antenna_diameter_m": None}),
    Case(LinkResult, ROW, ROW[:-1] + (False,), {}),
    Case(ComparisonRow, ("Abuja", 34.2, 12.0, 64.9), ("Abuja", 34.2, 12.5, 64.9),
         {}),
]
IDS = [case.cls.__name__ for case in CASES]


def field_names(cls) -> list[str]:
    return list(cls.__annotations__)


def keywords(case: Case) -> dict:
    return dict(zip(field_names(case.cls), case.values))


def oracle(case: Case):
    """The frozen dataclass with the record's name, fields and defaults."""
    specs = [(name, object, dataclasses.field(default=case.defaults[name]))
             if name in case.defaults else (name, object)
             for name in field_names(case.cls)]
    return dataclasses.make_dataclass(case.cls.__name__, specs, frozen=True)


def hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("case", CASES, ids=IDS)
class TestRecord:
    def test_positional_and_keyword(self, case):
        by_position = case.cls(*case.values)
        by_keyword = case.cls(**keywords(case))
        for record in (by_position, by_keyword):
            assert tuple(getattr(record, name) for name in
                         field_names(case.cls)) == case.values
        assert by_position == by_keyword

    def test_defaults(self, case):
        given = {name: value for name, value in keywords(case).items()
                 if name not in case.defaults or value != case.defaults[name]}
        record = case.cls(**given)
        assert record == case.cls(**keywords(case))
        expected = oracle(case)(**given)
        for name in case.defaults.keys() - given.keys():
            assert getattr(record, name) == getattr(expected, name) \
                == case.defaults[name]

    def test_missing_and_unknown_arguments(self, case):
        with pytest.raises(TypeError):
            case.cls()
        with pytest.raises(TypeError):
            case.cls(**keywords(case), unknown_field=1)
        with pytest.raises(TypeError):
            case.cls(*case.values, *case.values)

    def test_equality(self, case):
        record = case.cls(**keywords(case))
        assert record == case.cls(**keywords(case))
        assert not record != case.cls(**keywords(case))
        assert record != case.cls(**dict(zip(field_names(case.cls),
                                             case.other)))
        # never equal to another class with the same fields, nor a tuple
        twin = oracle(case)(*case.values)
        assert record.__eq__(twin) is NotImplemented
        assert record != twin and twin != record
        assert record != case.values

    def test_hash(self, case):
        record = case.cls(**keywords(case))
        if hashable(case.values):
            assert hash(record) == hash(case.cls(**keywords(case)))
            assert hash(record) == hash(oracle(case)(*case.values))
        else:
            with pytest.raises(TypeError):
                hash(record)

    def test_repr(self, case):
        assert repr(case.cls(**keywords(case))) == repr(
            oracle(case)(*case.values))

    def test_immutable(self, case):
        record = case.cls(**keywords(case))
        for name in [*field_names(case.cls), "new_attribute"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == case.cls(**keywords(case))

    def test_copy_and_pickle(self, case):
        record = case.cls(**keywords(case))
        for again in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(again) is case.cls and again == record


def test_records_of_two_classes_never_compare_equal():
    # equality holds within one class: another record class with the same
    # fields and values is another record
    class Station(Record):
        name: str
        latitude_deg: float
        longitude_deg: float
        altitude_km: float

    values = ("Abuja", 9.06, 7.49, 0.536)
    record, twin = GroundStation(*values), Station(*values)
    assert record.__eq__(twin) is NotImplemented
    assert twin.__eq__(record) is NotImplemented
    assert record != twin and twin != record


class TestRepr:
    def test_text_as_the_dataclass_printed(self):
        assert repr(GroundStation("Abuja", 9.06, 7.49, 0.536)) == (
            "GroundStation(name='Abuja', latitude_deg=9.06, longitude_deg=7.49, "
            "altitude_km=0.536)")
        assert repr(SpecificAttenuation(3.0, 50.0)) == (
            "SpecificAttenuation(gamma_dB_per_km=3.0, rain_rate_mm_per_hr=50.0)")
        assert repr(DESC) == (
            "SourceDescriptor(label='ITU', kind=<SourceKind.R001: 'r001'>, "
            "value=90.0, values=None, paths=None, "
            "strategy=<Strategy.CHEBIL_ANNUAL: 'chebil_annual'>)")


class TestValidation:
    """The checks a record makes when it is built still raise."""

    @pytest.mark.parametrize("kwargs", [
        {"name": ""}, {"latitude_deg": 91.0}, {"longitude_deg": float("nan")},
        {"altitude_km": -0.1}, {"altitude_km": 10.0}])
    def test_ground_station(self, kwargs):
        with pytest.raises(DomainError):
            GroundStation(**{"name": "A", "latitude_deg": 0.0,
                             "longitude_deg": 0.0, "altitude_km": 0.0,
                             **kwargs})

    def test_resolved_source_needs_exactly_one_map(self):
        with pytest.raises(ValidationError):
            ResolvedSource("x")
        with pytest.raises(ValidationError):
            ResolvedSource("x", {"A": 1.0}, {"A": 1.0})

    def test_resolved_source_anchor_domain(self):
        with pytest.raises(DomainError, match="source 'GPM' station 'Cairo'"):
            ResolvedSource("GPM", attenuation_by_station={"Abuja": 1.0,
                                                          "Cairo": -1e308})

    def test_duplicate_station_names(self):
        station = GroundStation("A", 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError, match="duplicate station names: A"):
            StationCatalog((station, station))

    def test_catalog_without_stations(self):
        with pytest.raises(ValidationError, match="^catalog has no station rows$"):
            StationCatalog(())

    def test_series_columns_of_unequal_length(self):
        with pytest.raises(DomainError):
            RainSeries("x", (T0,), ())

    @pytest.mark.parametrize("times, rates, error, message", [
        ((T0,), (float("nan"),), DomainError, "^series rates must be finite and >= 0$"),
        ((T0, T1), (1.0, float("inf")), DomainError, "^series rates must be finite and >= 0$"),
        ((T0, T1), (0.0, -1.0), DomainError, "^series rates must be finite and >= 0$"),
        ((T0, T0), (0.0, 1.0), DomainError, "^series times must strictly increase$"),
        ((T1, T0), (0.0, 1.0), DomainError, "^series times must strictly increase$"),
        ((T0, T1.replace(tzinfo=None)), (0.0, 1.0), DomainError,
         "^series times do not compare: can't compare offset-naive and offset-aware"),
        ((), (), ValidationError, "^series has no sample rows$"),
        # a wrong type is a DomainError, not a bare TypeError, and integer
        # times do not build a series that a reduction later fails on
        ((T0,), ("1.0",), DomainError, "^series rates do not compare: '<=' .* 'str'$"),
        ((T0,), (None,), DomainError, "^series rates do not compare: .* 'NoneType'$"),
        ((1, 2), (0.0, 1.0), DomainError, "^series times must be datetimes, not int$"),
        ((T0, 2), (0.0, 1.0), DomainError, "^series times do not compare: '<' not supported"),
    ], ids=["nan", "inf", "negative", "repeated", "decreasing", "naive_after_aware", "empty",
            "str_rate", "none_rate", "int_times", "int_after_datetime"])
    @pytest.mark.parametrize("build", ["columns", "samples"])
    def test_series_rules(self, times, rates, error, message, build):
        # the rules parse_rain_series enforces hold for a series built by hand
        with pytest.raises(error, match=message):
            if build == "columns":
                RainSeries("x", times, rates)
            else:
                RainSeries("x", samples=tuple(zip(times, rates)))

    def test_transmission_params_name_the_first_bad_field(self):
        with pytest.raises(DomainError, match="^bandwidth_Hz "):
            TransmissionParams(28.5, -1.0, 75.9, 200.0, 31.8, 868.4, 0.36,
                               1200.0)


def test_no_rainlink_class_is_a_dataclass():
    found = set()
    for module in pkgutil.iter_modules(rainlink.__path__, "rainlink."):
        for name, obj in vars(importlib.import_module(module.name)).items():
            if inspect.isclass(obj) and obj.__module__.startswith("rainlink") \
                    and hasattr(obj, "__dataclass_fields__"):
                found.add(obj.__name__)
    assert found == set()


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # every CLI run is a fresh process and would pay for importing both;
    # -S keeps out what site imports on its own
    code = ("import sys, rainlink.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(rainlink.__path__[0])}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_only_the_converting_records_define_init():
    # every other record is built by Record.__init__ from its annotations;
    # RainSeries converts what it is given (samples=)
    found = set()
    for module in pkgutil.iter_modules(rainlink.__path__, "rainlink."):
        for obj in vars(importlib.import_module(module.name)).values():
            if inspect.isclass(obj) and issubclass(obj, Record) \
                    and obj is not Record and "__init__" in vars(obj):
                found.add(obj.__name__)
    assert found == {"RainSeries"}
