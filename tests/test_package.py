"""The package surface: each public name is declared once, in its module's __all__."""

import subprocess
import sys
from pathlib import Path

import coupler_lab
from coupler_lab import bench, cli, coupler, errors, kapteyn, oscillator, projection

MODULES = (bench, coupler, errors, kapteyn, oscillator, projection)


def test_all_is_the_modules_lists():
    names = [name for module in MODULES for name in module.__all__]
    expected = names + [*coupler_lab._CLI_NAMES, "__version__"]
    assert coupler_lab.__all__ == expected
    assert len(set(expected)) == len(expected)
    assert set(coupler_lab._CLI_NAMES) == set(cli.__all__) - {"main"}


def test_every_name_resolves_to_its_module_object():
    owner = {name: module for module in (*MODULES, cli) for name in module.__all__}
    for name in coupler_lab.__all__[:-1]:
        assert getattr(coupler_lab, name) is getattr(owner[name], name)
    assert coupler_lab.__all__[-1] == "__version__"
    assert coupler_lab.__version__ is cli.__version__


def test_import_leaves_cli_unloaded():
    # cli loads on first use, so ``python -m coupler_lab.cli`` runs it once
    src = str(Path(coupler_lab.__file__).resolve().parents[1])
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import coupler_lab; "
              "print('coupler_lab.cli' in sys.modules, len(coupler_lab.__all__))")
    out = subprocess.run([sys.executable, "-c", script, src],
                         capture_output=True, text=True, check=True)
    assert (out.stdout.split(), out.stderr) == (["False", str(len(coupler_lab.__all__))], "")
