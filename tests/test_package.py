"""The package namespace: what each import loads, and the names it binds on
first use."""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import curvemotive

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CUSP = {"centers": [{"prox": []}, {"prox": [1]}, {"prox": [1, 2]}], "branches": [{"attach": 3}]}
CHAIN2_H12 = {"centers": [{"prox": []}, {"prox": [1], "h": 2}], "branches": [{"attach": 2, "h": 2}]}
LOADED = "print(sorted(name for name in sys.modules if name.split('.')[0] == 'curvemotive'))"
# fractions pulls in decimal and numbers; a graph or series that is integral needs none of them
RATIONALS = "print(sorted({'decimal', 'fractions', 'numbers'} & set(sys.modules)))"
HEAVY = "print(sorted({'dataclasses', 'decimal', 'fractions', 'inspect', 'numbers', 'typing'} & set(sys.modules)))"


def fresh(code: str) -> list[str]:
    """The lines ``code`` prints in a new interpreter with ``src`` on its path.

    -S: a site-packages hook may import modules itself.
    """
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout.splitlines()


# probe -> (statement, the curvemotive submodules loaded after it, and nothing else)
LAYERS = {
    "package": ("import curvemotive; curvemotive.__version__", ()),
    "graph": (f"import curvemotive; curvemotive.build({CUSP!r}).m_matrix", ("_linalg", "resolution")),
    "ring": ("import curvemotive.grothendieck", ("_linalg", "grothendieck")),
    "oracles": ("import curvemotive.oracles", ("_linalg", "oracles")),
    "cli": (
        "import curvemotive.cli",
        ("_linalg", "cli", "codim", "grothendieck", "oracles", "resolution", "series"),
    ),
}


@pytest.mark.parametrize("probe", LAYERS)
def test_a_fresh_import_loads_only_its_layers(probe):
    statement, submodules = LAYERS[probe]
    # and none of the slow modules the value types and the lazy rationals keep
    # out (dataclasses pulls in inspect, fractions decimal and numbers)
    assert fresh(f"{statement}\n{LOADED}\n{HEAVY}") == [
        repr(sorted(["curvemotive", *(f"curvemotive.{name}" for name in submodules)])),
        "[]",
    ]


def test_an_integral_compute_run_loads_no_fractions():
    # the output is printed first; the exit code and the modules come last.
    # No module postpones its annotations, so no __future__ either.
    argv = ["compute", "--series", "pg", "--bound", "8", "--input", str(ROOT / "demos" / "graphs" / "cusp.json")]
    lines = fresh(f"from curvemotive import cli\nprint(cli.main({argv!r}))\n{RATIONALS}\nprint('__future__' in sys.modules)")
    assert lines[0] == "1: 1" and lines[-3:] == ["0", "[]", "False"]


def test_a_fractional_m_matrix_loads_fractions_and_holds_fractions():
    lines = fresh(f"import curvemotive\nprint(repr(curvemotive.build({CHAIN2_H12!r}).m_matrix))\n{RATIONALS}")
    assert lines == ["((1, 1), (1, Fraction(3, 2)))", "['decimal', 'fractions', 'numbers']"]


def _annotated(module):
    """The module, its classes and the functions and methods defined in it."""
    yield module
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) == module.__name__:
            yield obj
            for member in vars(obj).values() if isinstance(obj, type) else ():
                # a cached_property keeps its function as func, a property as fget
                member = getattr(member, "func", getattr(member, "fget", getattr(member, "__func__", member)))
                if inspect.isfunction(member):
                    yield member


def test_every_module_evaluates_its_annotations_as_written():
    # no postponed annotations: the graph probe loads no __future__, and every
    # annotation of every module evaluates, none naming an unbound Fraction
    (loaded,) = fresh(f"import curvemotive; curvemotive.build({CUSP!r}).m_matrix\nprint('__future__' in sys.modules)")
    assert loaded == "False"
    names = sorted(info.name for info in pkgutil.iter_modules(curvemotive.__path__))
    assert "_linalg" in names and "cli" in names
    for module in map(importlib.import_module, (f"curvemotive.{name}" for name in names)):
        assert "annotations" not in vars(module), module.__name__
        for obj in _annotated(module):
            inspect.get_annotations(obj, eval_str=True)


def test_every_public_name_is_its_home_modules_object():
    for name in curvemotive.__all__:
        value = getattr(curvemotive, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("curvemotive.") and getattr(home, name) is value, name


def test_dir_lists_every_public_name_before_any_is_loaded():
    listed, loaded = fresh(f"import curvemotive\nprint(dir(curvemotive))\n{LOADED}")
    assert set(curvemotive.__all__) <= set(ast.literal_eval(listed)) and loaded == "['curvemotive']"


def test_an_unknown_name_raises_attribute_error_naming_module_and_attribute():
    with pytest.raises(AttributeError, match=r"^module 'curvemotive' has no attribute 'no_such_name'$"):
        curvemotive.no_such_name


def test_star_import_binds_exactly_the_public_names():
    (bound,) = fresh("before = {*globals(), 'before'}\nfrom curvemotive import *\nprint(sorted(set(globals()) - before))")
    assert ast.literal_eval(bound) == curvemotive.__all__


def test_from_import_still_returns_submodules():
    from curvemotive import cli, series

    assert cli is sys.modules["curvemotive.cli"] and series is sys.modules["curvemotive.series"]
