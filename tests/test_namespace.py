"""The package namespace: it exports the names of its lazy table, each the
object its defining module holds, and `import rainlink` loads a submodule
only when one of its names is first used."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import rainlink


def fresh(code: str) -> str:
    """What code prints in a fresh interpreter that has imported rainlink;
    -S keeps out what site imports on its own."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(rainlink.__path__[0])}
    run = subprocess.run([sys.executable, "-S", "-c", f"import sys, rainlink; {code}"],
                         env=env, capture_output=True, text=True, check=True)
    return run.stdout


LOADED = ("print(sorted(m for m in sys.modules if m.split('.')[0] == 'rainlink'), "
          "sorted({'json', 'datetime', 'array'} & sys.modules.keys()))")


def test_importing_the_package_loads_no_submodule():
    assert fresh(LOADED) == "['rainlink'] []\n"


def test_the_coefficient_path_loads_only_its_modules():
    # the set-up probe of perfbench/run.py; the regressions are constants of
    # rain_physics, so no file is read: neither rainlink.data, nor
    # importlib.resources, nor a configparser is imported
    assert fresh(f"rainlink.regression_coefficients(28.5); {LOADED}; "
                 "print({'importlib.resources', 'configparser'} & sys.modules.keys())") == (
        "['rainlink', 'rainlink.constants', 'rainlink.errors', "
        "'rainlink.rain_physics'] []\nset()\n")


def test_each_export_is_its_defining_modules_object():
    assert rainlink.__all__ == " ".join(rainlink._EXPORTS.values()).split()
    for module, names in rainlink._EXPORTS.items():
        for name in names.split():
            value = getattr(rainlink, name)
            assert value.__module__ == f"rainlink.{module}"
            assert value is getattr(sys.modules[value.__module__], name)


def test_dir_lists_every_export_before_any_is_loaded():
    assert fresh("print(set(rainlink.__all__) <= set(dir(rainlink)), "
                 "[m for m in sys.modules if m.startswith('rainlink.')])") == "True []\n"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rainlink import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(rainlink.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'rainlink' has no attribute 'kappa'$"):
        rainlink.kappa  # noqa: B018
    assert not hasattr(rainlink, "_EXPORT")


def test_importing_a_submodule_binds_it_on_the_package():
    assert fresh("import rainlink.analysis; "
                 "print(rainlink.analysis.SweepTable is rainlink.SweepTable)") == "True\n"
