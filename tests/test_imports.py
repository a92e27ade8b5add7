"""scipy is loaded only by the functions that call it.

``density``, ``roots``, ``q0check`` and ``paircheck`` run on numpy alone, so
they must never pay for importing scipy. The test modules themselves import
scipy.linalg, so the command checks run in a fresh interpreter.
"""

import ast
import builtins
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
TEST_REFERENCES = ("GluedOperator.apply",)
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


def _class_attributes(tree) -> set[str]:
    """The attribute names a module's classes define: fields, class
    attributes, methods, and attributes assigned on self."""
    out = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef):
                out.add(stmt.name)
            targets = stmt.targets if isinstance(stmt, ast.Assign) else (
                [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
        out |= {node.attr for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return out


def test_every_record_field_is_read():
    # a field nothing reads is a fact every constructor must supply for
    # nothing; fields are matched by name, as a reader rarely names its type.
    # A benchmark read of a name the benchmark's own classes define (its
    # Workload.name) is taken to read that class, not a src/ record
    readers = set()
    fields = []
    for name, tree in _src_modules().items():
        readers |= _attribute_reads(tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                fields += [f"{name}:{node.name}.{stmt.target.id}" for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in OUTSIDE_SRC}
    bench = {path for path in trees if path.parent.name == "perfbench"}
    own = set().union(*(_class_attributes(trees[path]) for path in bench))
    for path, tree in trees.items():
        readers |= _attribute_reads(tree) - (own if path in bench else set())
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


def test_every_error_class_is_caught_by_name():
    # an error class no handler names is told apart from its base by unit
    # tests alone; cli.main maps errors to exit codes by base class. Two
    # classes of src/ named by one handler get one outcome there, so one
    # class would serve
    bases, module_of, handlers = {}, {}, {}
    for module, tree in _src_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                handlers[f"{module}:{node.lineno}"] = {n.id if isinstance(n, ast.Name) else n.attr
                                                       for n in names}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
                module_of[node.name] = module

    def is_error(name):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(map(is_error, bases.get(name, ())))

    errors = {cls for cls in bases if is_error(cls)}
    uncaught = sorted(f"{module_of[cls]}:{cls}"
                      for cls in errors - set().union(*handlers.values()) - {"NeckspecError"})
    assert not uncaught, f"error classes no except clause in src/ names: {uncaught}"
    shared = {where: sorted(names & errors) for where, names in handlers.items()
              if len(names & errors) > 1}
    assert not shared, f"except clauses naming two error classes of src/: {shared}"


def _is_constant(expr) -> bool:
    """True for an expression of literals and operators alone, such as
    ``1.0 / 1024``; a name, attribute or call is not constant."""
    return all(isinstance(node, (ast.Constant, ast.UnaryOp, ast.BinOp, ast.Tuple, ast.List,
                                 ast.unaryop, ast.operator, ast.expr_context))
               for node in ast.walk(expr))


def test_every_option_is_set_by_some_caller():
    # a parameter default that no caller but unit tests overrides, or that
    # no caller relies on, is an option kept for them alone, and so is one
    # whose callers all use one constant; a call through a lookup such as
    # presets[...]() sets nothing, as the scan matches calls by the
    # callee's name
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*_src_modules().values(),
                 *(ast.parse(path.read_text(encoding="utf-8")) for path in OUTSIDE_SRC)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(called, []).append(node)

    def options(node, skip):
        """(name, position in a call or None, default) of each defaulted
        parameter; skip is the number of leading parameters a call does
        not pass."""
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        yield from ((p.arg, k - skip, args.defaults[k - first])
                    for k, p in enumerate(positional) if k >= first)
        yield from ((p.arg, None, d) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None)

    def value(call, param, position):
        """The argument a call passes for the parameter: its expression,
        None if the call leaves the default, or ... if it passes it by
        unpacking, whose value the scan cannot read."""
        for k in call.keywords:
            if k.arg == param:
                return k.value
        if any(k.arg is None for k in call.keywords):
            return ...
        if position is None:
            return None
        if any(isinstance(a, ast.Starred) for a in call.args):
            return ...
        return call.args[position] if len(call.args) > position else None

    defined = []
    for module, tree in _src_modules().items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((module, node.name, node.name, node, 0))
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in method.decorator_list)
                        called = node.name if method.name == "__init__" else method.name
                        defined.append((module, f"{node.name}.{method.name}", called, method,
                                        0 if static else 1))
    unset, always_set, one_value = [], [], []
    for module, qualified, called, node, skip in defined:
        for param, position, default in options(node, skip):
            passed = [value(call, param, position) for call in calls.get(called, [])]
            used = [v for v in passed if v is not None]
            where = f"{module}:{qualified}({param})"
            if not used:
                unset.append(where)
                continue
            if len(used) == len(passed):
                always_set.append(where)
            else:
                used.append(default)
            if all(v is not ... and _is_constant(v) for v in used) \
                    and len({ast.unparse(v) for v in used}) == 1:
                one_value.append(where)
    assert not unset, f"options no src code, acceptance test or benchmark sets: {unset}"
    assert not always_set, f"defaults every caller overrides, so none is used: {always_set}"
    assert not one_value, f"options whose values in use are all one constant: {one_value}"


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


# ---------------------------------------------------------------------------
# dead code by what runs: src/ functions no CLI test or acceptance criterion enters

# runs pytest on the given test files under a call-only hook, and prints
# (file, first line) of every src/ code object entered; the hook returns
# None, so no line inside a call is traced
TRACE_SCRIPT = """
import json, os, sys, threading
import pytest
src = os.path.realpath(sys.argv[1]) + os.sep
entered = set()
def hook(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(src):
        entered.add((os.path.basename(code.co_filename), code.co_firstlineno))
threading.settrace(hook)
sys.settrace(hook)
try:
    code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]])
finally:
    sys.settrace(None)
    threading.settrace(None)
print(json.dumps({"exit": int(code), "entered": sorted(entered)}))
"""
# what the CLI tests and the acceptance criteria never call, with the reason
# each is kept
NEVER_ENTERED = {
    "glued_model.py:GluedOperator.coupling_eff": "read by the benchmark's tracer",
    "glued_model.py:GluedOperator.apply": "test reference, also called by the benchmark's tests",
}


def _functions():
    """(module, qualified name, first line of its code object) of every
    function and method defined in src/, nested ones included."""
    def walk(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield module, f"{prefix}{child.name}", first
                yield from walk(module, child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(module, child, f"{prefix}{child.name}.")
    for name, tree in _src_modules().items():
        yield from walk(name, tree, "")


def test_every_src_function_is_entered_by_the_cli_tests_or_a_criterion():
    # a name scan passes a member whose name another object reads; the
    # calls made show what only unit tests keep alive
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # the two fuzz tests enter no function the other CLI tests miss, and
    # would double the run
    files = ["tests/test_cli.py", "tests/test_acceptance.py",
             "--deselect", "tests/test_cli.py::test_mutated_config_exits_cleanly",
             "--deselect", "tests/test_cli.py::test_mutated_input_files_exit_cleanly"]
    done = subprocess.run([sys.executable, "-c", TRACE_SCRIPT, str(SRC / "neckspec"), *files],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["exit"] == 0, done.stdout[-2000:]
    entered = {tuple(key) for key in report["entered"]}
    never = [f"{module}:{name}" for module, name, first in _functions()
             if (module, first) not in entered]
    assert sorted(never) == sorted(NEVER_ENTERED), f"never entered: {never}"
