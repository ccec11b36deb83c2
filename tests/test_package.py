"""The package namespace: what each import loads, and the names it binds on
first use."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import curvemotive

SRC = Path(__file__).resolve().parent.parent / "src"
CUSP = {"centers": [{"prox": []}, {"prox": [1]}, {"prox": [1, 2]}], "branches": [{"attach": 3}]}
LOADED = "print(sorted(name for name in sys.modules if name.split('.')[0] == 'curvemotive'))"
HEAVY = "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"


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
    "graph": (f"import curvemotive; curvemotive.build({CUSP!r}).m_matrix", ("_linalg", "_record", "resolution")),
    "ring": ("import curvemotive.grothendieck", ("_linalg", "_record", "grothendieck")),
    "oracles": ("import curvemotive.oracles", ("_record", "oracles")),
    "cli": (
        "import curvemotive.cli",
        ("_linalg", "_record", "cli", "codim", "grothendieck", "oracles", "resolution", "series"),
    ),
}


@pytest.mark.parametrize("probe", LAYERS)
def test_a_fresh_import_loads_only_its_layers(probe):
    statement, submodules = LAYERS[probe]
    # and none of the slow modules the value types keep out (dataclasses pulls in inspect)
    assert fresh(f"{statement}\n{LOADED}\n{HEAVY}") == [
        repr(sorted(["curvemotive", *(f"curvemotive.{name}" for name in submodules)])),
        "[]",
    ]


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
