"""scipy is loaded only by the functions that call it.

``density``, ``roots``, ``q0check`` and ``paircheck`` run on numpy alone, so
they must never pay for importing scipy. The test modules themselves import
scipy.linalg, so the command checks run in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FLAT_BLOCK = {"L": 0.0, "boundary": "neumann", "mu": 1.0}
SECH_BLOCK = {"L": 2.0, "boundary": "neumann", "mu": 1.0,
              "potentials": {"0": {"profile": "kernel_neumann", "c": 0.8}}}
TANH_BLOCK = {"L": 2.0, "boundary": "dirichlet", "mu": 1.0,
              "potentials": {"0": {"profile": "kernel_dirichlet"}}}

CONFIGS = {
    "density": {"spectrum": "scalar", "blocks": [FLAT_BLOCK, FLAT_BLOCK], "degrees": [0],
                "T": [20], "s": [4.41, 9.61], "seed": 3},
    "roots": {"spectrum": "circle", "degrees": [1], "cutoff": 0.5, "seed": 7},
    "q0check": {"spectrum": "circle", "degrees": [1], "T": [5, 10], "h": 1.0 / 16,
                "cutoff": 9.5, "seed": 11},
    "paircheck": {"spectrum": "scalar", "seed": 42},
    "glue": {"spectrum": "scalar", "blocks": [SECH_BLOCK, TANH_BLOCK], "degrees": [0],
             "T": [8], "h": 1.0 / 16, "seed": 5},
}

# runs each command in order and reports, after the import and after each
# command, its exit code and which scipy modules are loaded
SCRIPT = """
import json, sys
def loaded():
    return sorted(m for m in ("scipy", "scipy.linalg", "scipy.integrate") if m in sys.modules)
from neckspec.cli import main
report = [["import", 0, loaded()]]
for command in sys.argv[1:]:
    code = main([command, "--config", command + ".json", "--out", "out_" + command])
    report.append([command, code, loaded()])
print(json.dumps(report))
"""


def test_cli_loads_scipy_only_for_glue(tmp_path):
    for command, config in CONFIGS.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(config), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT, *CONFIGS], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert [step for step, _, _ in report] == ["import", *CONFIGS]
    for step, code, loaded in report[:-1]:
        assert code == 0, step
        assert loaded == [], f"after {step}: {loaded} loaded"
    step, code, loaded = report[-1]
    assert (step, code) == ("glue", 0)
    assert loaded == ["scipy", "scipy.linalg"]


def test_no_module_imports_scipy_at_load_time():
    found = []
    for path in sorted((SRC / "neckspec").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"module-level scipy import at {', '.join(found)}; import it in the function"
