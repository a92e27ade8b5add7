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
from collections import Counter
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


# ---------------------------------------------------------------------------
# dead surface: public names no command, acceptance criterion or benchmark reads

ROOT = SRC.parent
# reference implementations that unit tests compare the fast paths against:
# top-level names, and class members as Class.member
TEST_REFERENCES = ("product_benchmark", "GluedOperator.apply")
# the readers outside src/ that keep a name alive
OUTSIDE_SRC = (ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py")))


def _reads(tree) -> Counter:
    """How often a tree reads each name: loaded identifiers, loaded
    attribute names and string constants (the benchmark names the
    functions it wraps as strings)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _src_modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((SRC / "neckspec").glob("*.py"))}


def _top_level_definitions():
    """(module, name) of every top-level function and class in src/, and the
    names src/ reads; a definition's own body does not keep it alive."""
    defined = []
    readers = set()
    for name, tree in _src_modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, node.name))
                readers |= _reads(node).keys() - {node.name}
            else:
                readers |= _reads(node).keys()
    return defined, readers


def test_every_public_name_has_a_reader():
    defined, readers = _top_level_definitions()
    for path in OUTSIDE_SRC:
        readers |= _reads(ast.parse(path.read_text(encoding="utf-8"))).keys()
    dead = [f"{module}:{name}" for module, name in defined
            if not name.startswith("_") and name not in readers and name not in TEST_REFERENCES]
    assert not dead, f"public names read by no src code, acceptance test or benchmark: {dead}"


def test_every_private_name_has_a_reader_in_src():
    # a private helper only a test reads belongs in that test
    defined, readers = _top_level_definitions()
    dead = [f"{module}:{name}" for module, name in defined
            if name.startswith("_") and name not in readers]
    assert not dead, f"private names read by no src code: {dead}"


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in _src_modules().items():
        reads = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{name}:{node.lineno} {b}" for b in bound if b not in reads]
    assert not unused, f"imported and never used: {unused}"


def test_every_parameter_is_read():
    # a parameter the body never reads is a second copy of a fact the
    # caller must keep in step for nothing; lambdas are exempt, as the
    # Potential callables take h by interface
    unread = []
    for name, tree in _src_modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{name}:{node.lineno} {node.name}({p.arg})" for p in params
                       if p is not None and p.arg not in ("self", "cls")
                       and not p.arg.startswith("_") and p.arg not in loaded]
    assert not unread, f"parameters never read: {unread}"


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _attribute_reads(tree) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_record_field_is_read():
    # a field nothing reads is a fact every constructor must supply for
    # nothing; fields are matched by name, as a reader rarely names its type
    readers = set()
    fields = []
    for name, tree in _src_modules().items():
        readers |= _attribute_reads(tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                fields += [f"{name}:{node.name}.{stmt.target.id}" for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    for path in OUTSIDE_SRC:
        readers |= _attribute_reads(ast.parse(path.read_text(encoding="utf-8")))
    unread = [f for f in fields if f.rsplit(".", 1)[1] not in readers]
    assert not unread, f"record fields read by no src code, acceptance test or benchmark: {unread}"


def _class_members():
    """(module, Class.member, the definition whose reads do not count) for
    every method and property of a src/ class but the dunders, and every
    attribute its methods assign on self, whose reads in __init__ do not
    count."""
    for name, tree in _src_modules().items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = [node for node in cls.body if isinstance(node, ast.FunctionDef)]
            init = next((node for node in methods if node.name == "__init__"), None)
            for node in methods:
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield name, f"{cls.name}.{node.name}", node
            assigned = {node.attr for node in ast.walk(cls)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"}
            for attr in sorted(assigned):
                yield name, f"{cls.name}.{attr}", init


def test_every_class_member_has_a_reader():
    # a member only unit tests read is surface kept for them alone; members
    # are matched by name, as a reader rarely names the class
    readers = Counter()
    for tree in _src_modules().values():
        readers += _reads(tree)
    for path in OUTSIDE_SRC:
        readers += _reads(ast.parse(path.read_text(encoding="utf-8")))
    dead = []
    for module, member, own in _class_members():
        attr = member.rsplit(".", 1)[1]
        others = readers[attr] - (_reads(own)[attr] if own is not None else 0)
        if others == 0 and member not in TEST_REFERENCES:
            dead.append(f"{module}:{member}")
    assert not dead, f"class members read by no src code, acceptance test or benchmark: {dead}"
