"""Spans and work counters around the public functions of each neckspec
module, installed from outside the package.

A wrapped call records a span (name, start, end, parent) in memory and
may add to counters computed from its arguments or result. Every
module-level binding of a wrapped function is replaced, because ``cli``,
``gluing_solver`` and ``spectral_density`` import functions by name, and
the ``cli.COMMANDS`` table holds the command functions. scipy routines
are counted, and attributed to the neckspec module that calls them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# (layer module, public function); each span is named "<layer>.<function>"
SPANNED = (
    ("spectral_model", "mode_list"),
    ("spectral_model", "roots_of"),
    ("polyhom", "pairing_integral"),
    ("polyhom", "pairing_closed"),
    ("neck_inverse", "q0_apply"),
    ("neck_inverse", "operator_norm_fit"),
    ("neck_inverse", "residual_on_support"),
    ("glued_model", "assemble"),
    ("glued_model", "block_kernel"),
    ("glued_model", "eigen_lowest"),
    ("gluing_solver", "substitute_kernel"),
    ("gluing_solver", "solve_exact"),
    ("gluing_solver", "approx_solve"),
    ("gluing_solver", "characteristic_system"),
    ("gluing_solver", "cylinder_solve"),
    ("spectral_density", "density_sweep"),
)

# every per-layer metric: name -> (unit, better); the order is the report order
LAYER_METRICS = {
    "spectral_model.mode_list.calls": ("count", "lower"),
    "spectral_model.mode_list.s": ("s", "lower"),
    "spectral_model.modes": ("count", "lower"),
    "spectral_model.mode_families": ("count", "lower"),
    "spectral_model.roots_of.s": ("s", "lower"),
    "polyhom.pairing_integral.calls": ("count", "lower"),
    "polyhom.pairing_integral.s": ("s", "lower"),
    "polyhom.pairing_closed.s": ("s", "lower"),
    "neck_inverse.q0_apply.calls": ("count", "lower"),
    "neck_inverse.q0_apply.s": ("s", "lower"),
    "neck_inverse.q0_apply.values": ("count", "lower"),
    "neck_inverse.operator_norm_fit.s": ("s", "lower"),
    "neck_inverse.residual_on_support.s": ("s", "lower"),
    "glued_model.assemble.calls": ("count", "lower"),
    "glued_model.assemble.s": ("s", "lower"),
    "glued_model.operator_values": ("count", "lower"),
    "glued_model.operator_bytes": ("bytes", "lower"),
    "glued_model.block_kernel.calls": ("count", "lower"),
    "glued_model.block_kernel.s": ("s", "lower"),
    "glued_model.block_kernel.modes": ("count", "lower"),
    "glued_model.eigen_lowest.calls": ("count", "lower"),
    "glued_model.eigen_lowest.s": ("s", "lower"),
    "glued_model.eigen_lowest.values": ("count", "lower"),
    "glued_model.tridiag_eigensolves": ("count", "lower"),
    "gluing_solver.substitute_kernel.calls": ("count", "lower"),
    "gluing_solver.substitute_kernel.s": ("s", "lower"),
    "gluing_solver.kernel_dim": ("count", "lower"),
    "gluing_solver.solve_exact.calls": ("count", "lower"),
    "gluing_solver.solve_exact.s": ("s", "lower"),
    "gluing_solver.rounds": ("count", "lower"),
    "gluing_solver.approx_solve.calls": ("count", "lower"),
    "gluing_solver.approx_solve.s": ("s", "lower"),
    "gluing_solver.characteristic_system.s": ("s", "lower"),
    "gluing_solver.cylinder_solve.s": ("s", "lower"),
    "gluing_solver.banded_solves": ("count", "lower"),
    "gluing_solver.sparse_lu.calls": ("count", "lower"),
    "gluing_solver.sparse_lu.s": ("s", "lower"),
    "gluing_solver.sparse_lu.fill": ("count", "lower"),
    "spectral_density.density_sweep.calls": ("count", "lower"),
    "spectral_density.density_sweep.s": ("s", "lower"),
    "spectral_density.window_counts": ("count", "lower"),
    "spectral_density.window_hit_share": ("ratio", "higher"),
    "cli.write.calls": ("count", "lower"),
    "cli.write.s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "cli.cmd.s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.span_share": ("ratio", "higher"),
}


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Holds the spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": idx, "name": name, "parent": parent,
                           "start": time.perf_counter(), "end": None})
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def spanned(self, name: str, fn, hook=None):
        """fn wrapped in a span; hook(bound_arguments, result) adds counters."""
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[name + ".calls"] += 1
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return wrapper

    def counted(self, suffix: str, fn, span: bool = False, hook=None):
        """fn counted per calling neckspec module as "<layer>.<suffix>"."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            name = f"{_layer(caller)}.{suffix}"
            idx = self._open(name) if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self._close(idx)
            self.counts[name + (".calls" if span else "")] += 1
            if hook is not None:
                hook(name, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every neckspec module attribute and module-level dict
        value that is ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "neckspec" or mod_name.startswith("neckspec.")) or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is original:
                            self._undo.append((val, key, item))
                            val[key] = wrapper

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        self._replace_everywhere(original, wrapper)

    def install(self) -> None:
        import importlib

        import scipy.linalg
        import scipy.sparse.linalg

        import neckspec.cli as cli

        hooks = self._hooks()
        for layer, fn_name in SPANNED:
            mod = importlib.import_module(f"neckspec.{layer}")
            original = getattr(mod, fn_name)
            wrapper = self.spanned(f"{layer}.{fn_name}", original, hooks.get(fn_name))
            self._patch_attr(mod, fn_name, wrapper)
        write = self.spanned("cli.write", cli.write_text_atomic, hooks["write_text_atomic"])
        self._patch_attr(sys.modules["neckspec.ioutil"], "write_text_atomic", write)
        for cmd in list(cli.COMMANDS.values()):
            self._patch_attr(cli, cmd.__name__, self.spanned("cli.cmd", cmd))
        self._patch_attr(scipy.linalg, "eigvalsh_tridiagonal",
                         self.counted("tridiag_eigensolves", scipy.linalg.eigvalsh_tridiagonal))
        for fn_name in ("solve_banded", "solveh_banded"):
            self._patch_attr(scipy.linalg, fn_name,
                             self.counted("banded_solves", getattr(scipy.linalg, fn_name)))

        def lu_fill(name, lu):
            # SuperLU.nnz is the stored entry count of L and U together
            self.counts[name + ".fill"] += lu.nnz

        self._patch_attr(scipy.sparse.linalg, "splu",
                         self.counted("sparse_lu", scipy.sparse.linalg.splu, span=True,
                                      hook=lu_fill))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def _in_density_sweep(self) -> bool:
        return any(self.spans[i]["name"] == "spectral_density.density_sweep"
                   for i in self._stack)

    def _hooks(self) -> dict:
        c = self.counts

        def mode_list(args, modes):
            c["spectral_model.modes"] += len(modes)
            c["spectral_model.mode_families"] += len({(m.nu, m.degree_tag) for m in modes})

        def q0_apply(args, sol):
            f = args["f"]
            c["neck_inverse.q0_apply.values"] += len(f.modes) * f.values.shape[1]

        def assemble(args, G):
            c["glued_model.operator_values"] += len(G.modes) * G.n_points
            arrays = [a for pair in G.mats for a in pair] + list(G.potentials_eff)
            arrays += list(G.coupling_eff.values())
            c["glued_model.operator_bytes"] += sum(np.asarray(a).nbytes for a in arrays)

        def block_kernel(args, kd):
            spec, q, cutoff = args["spec"], args["q"], args["cutoff"]
            top = float("inf") if cutoff is None else cutoff
            c["glued_model.block_kernel.modes"] += sum(
                mult for deg in (q, q - 1) for nu, mult in spec.eigenvalues(deg) if nu <= top
            )

        def eigen_lowest(args, result):
            c["glued_model.eigen_lowest.values"] += len(result.entries)
            if self._in_density_sweep():
                c["spectral_density.values_computed"] += len(result.entries)

        def substitute_kernel(args, S):
            c["gluing_solver.kernel_dim"] += S.dim

        def solve_exact(args, report):
            c["gluing_solver.rounds"] += report.iterations

        def density_sweep(args, rep):
            c["spectral_density.window_counts"] += len(rep.T_values) * len(rep.s_values)
            # the eigenvalues of each T are computed once, for the widest
            # window, so the count at the largest s is the useful share
            widest = max(range(len(rep.s_values)), key=lambda j: rep.s_values[j])
            c["spectral_density.values_in_window"] += sum(row[widest] for row in rep.counts)

        def write_text_atomic(args, _):
            c["cli.output_bytes"] += len(args["text"].encode("utf-8"))

        return {
            "mode_list": mode_list,
            "q0_apply": q0_apply,
            "assemble": assemble,
            "block_kernel": block_kernel,
            "eigen_lowest": eigen_lowest,
            "substitute_kernel": substitute_kernel,
            "solve_exact": solve_exact,
            "density_sweep": density_sweep,
            "write_text_atomic": write_text_atomic,
        }

    # -- reduction ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span duration minus the duration of its direct children, summed
        per span name."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp["parent"] is not None:
                child[sp["parent"]] += sp["end"] - sp["start"]
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[sp["name"]] += (sp["end"] - sp["start"]) - child[sp["id"]]
        return out

    def covered(self) -> float:
        """Total duration of the top-level spans."""
        return sum(sp["end"] - sp["start"] for sp in self.spans if sp["parent"] is None)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round, without the trace.* entries.

    window_hit_share is hits over eigenvalues computed inside density
    sweeps, and 0 when no sweep computed any (the share is undefined)."""
    selfs = tracer.self_times()
    out = {}
    for name in LAYER_METRICS:
        if name.startswith("trace."):
            continue
        if name.endswith(".s"):
            out[name] = selfs.get(name[:-2], 0.0)
        elif name == "spectral_density.window_hit_share":
            computed = tracer.counts.get("spectral_density.values_computed", 0.0)
            hits = tracer.counts.get("spectral_density.values_in_window", 0.0)
            out[name] = hits / computed if computed else 0.0
        else:
            out[name] = tracer.counts.get(name, 0.0)
    return out
