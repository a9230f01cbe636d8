"""Cold start: `import gwitt` loads none of the modules, and a computation
or a CLI command loads only the modules it reads from.  Each case runs in a
fresh interpreter, since this process has loaded every module already."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwitt

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(code: str, prefix: str = "gwitt.") -> set[str]:
    """The modules whose names start with `prefix` loaded once `code` has
    run in a fresh interpreter."""
    report = f"import sys; print(*sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    return set(proc.stdout.splitlines()[-1].split())


def test_bare_import_loads_no_module():
    assert loaded_after("import gwitt") == set()


def test_ladder_rung_loads_no_gset_module():
    # the calls of one rung of the benchmark's group ladder
    loaded = loaded_after(
        "import gwitt\n"
        "from gwitt import dsl\n"
        "from gwitt.burnside import BurnsideElement, burnside_mul, table_of_marks\n"
        "from gwitt.witt import WittVector, ghost, teichmuller_tau\n"
        "g = dsl.build_group(dsl.parse_group('S(3)'))\n"
        "table_of_marks(g)\n"
        "burnside_mul(BurnsideElement(g, (1, 2, 3, 4)), BurnsideElement(g, (4, 3, 2, 1)))\n"
        "w = WittVector(g, (1, 2, 3, 4))\n"
        "teichmuller_tau(w)\n"
        "ghost(w)\n"
    )
    assert loaded & {"gwitt.gsets", "gwitt.bispans", "gwitt.words",
                     "gwitt.tambara", "gwitt.cli"} == set()
    assert {"gwitt.burnside", "gwitt.witt"} <= loaded


def test_tom_command_loads_only_what_it_reads():
    loaded = loaded_after(
        "import sys\n"
        "from gwitt.cli import main\n"
        "sys.argv = ['gwitt', 'tom', 'C(2)']\n"
        "assert main() == 0\n"
    )
    assert loaded & {"gwitt.witt", "gwitt.tambara", "gwitt.words", "gwitt.bispans",
                     "gwitt.gsets"} == set()
    assert "gwitt.burnside" in loaded


def test_lattice_command_reads_the_order_off_the_mark_columns():
    loaded = loaded_after(
        "import sys\n"
        "from gwitt.cli import main\n"
        "sys.argv = ['gwitt', 'lattice', 'S(3)']\n"
        "assert main() == 0\n"
    )
    assert loaded & {"gwitt.witt", "gwitt.tambara", "gwitt.words", "gwitt.bispans",
                     "gwitt.gsets"} == set()
    assert "gwitt.burnside" in loaded


@pytest.mark.parametrize("argv", [["tom", "C(2)"], ["witt", "mul", "C(2)", "(1,2)", "(3,4)"]],
                         ids=["tom", "witt-mul"])
def test_a_command_loads_no_rational_arithmetic(argv):
    """Poly is integral by construction, so no command loads fractions or
    the decimal and numbers modules it brings."""
    loaded = loaded_after(
        "import sys\n"
        "from gwitt.cli import main\n"
        f"sys.argv = ['gwitt', *{argv!r}]\n"
        "assert main() == 0\n",
        prefix="",
    )
    assert loaded & {"fractions", "decimal", "numbers"} == set()


def test_every_export_resolves_to_its_module():
    wrong = [
        name for name, module in gwitt._EXPORTS.items()
        if getattr(gwitt, name) is not getattr(importlib.import_module(f"gwitt.{module}"), name)
    ]
    assert wrong == []
    assert set(gwitt._EXPORTS) <= set(dir(gwitt))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gwitt.no_such_name
