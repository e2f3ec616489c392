"""What a fresh interpreter loads: the package root alone, then one run per kind.

Each check runs in its own child, since this process has long since
imported every module.
"""

import json
import subprocess
import sys

import pytest

from conftest import SCENARIO_DIR, child_env


def loaded_modules(code, cwd):
    """The names of sys.modules after `code` runs in a fresh interpreter."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_import_loads_no_submodule(tmp_path):
    # dir() names every submodule without importing it.
    code = "import cavitymix\nassert {'profiles', 'gaussian'} <= set(dir(cavitymix))"
    loaded = loaded_modules(code, tmp_path)
    assert {name for name in loaded if name.startswith("cavitymix.")} == set()
    # Every kind needs numpy and yaml, so the root loads both, and a bare
    # import's `-X importtime` listing times them, as the bench reads it.
    assert {"numpy", "yaml"} <= loaded


# Per shipped kind, the package modules its run must leave unloaded.
UNUSED = {
    "evolve_resonant": {"gaussian", "experiment", "resonance"},
    "catalog_low_band": {"gaussian", "experiment", "profiles"},
    "negativity_ridge": {"experiment", "resonance"},
    "desktop_linear": {"profiles", "bogoliubov", "gaussian"},
}


@pytest.mark.parametrize("scenario", sorted(UNUSED))
def test_run_loads_only_its_kinds_modules(tmp_path, scenario):
    path = SCENARIO_DIR / f"{scenario}.yaml"
    code = (
        "from cavitymix.cli import main\n"
        f"assert main(['run', {str(path)!r}, '--out', 'out.csv']) == 0"
    )
    modules = loaded_modules(code, tmp_path)
    loaded = {
        name.removeprefix("cavitymix.") for name in modules if name.startswith("cavitymix.")
    }
    assert {"cli", "scenarios", "spectrum"} <= loaded
    assert not loaded & UNUSED[scenario], sorted(loaded)
    # The value types are plain classes: no run generates dataclass methods.
    assert "dataclasses" not in modules
