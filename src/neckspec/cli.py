"""Batch front door: one JSON config in, deterministic CSV tables out.

Each run is `neckspec <command> --config file.json [--out dir]`. The config
carries the spectrum, the building blocks, and the sweep parameters; the
command picks the experiment. Identical config and seed give identical
output bytes: every table is written atomically with canonical number
formatting, and the only timestamp lives in the run.log sidecar.

Input paths inside a config (spectrum or block files) are resolved
relative to the config file, so a config directory is a portable
experiment artifact. Exit codes: 0 all checks passed, 1 a numerical
assertion failed, 2 the config or its data is unusable, or an output file
cannot be written.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AnalysisError, ContractViolation
from .glued_model import (
    BlockMarch,
    BuildingBlock,
    GluedOperator,
    Potential,
    assemble,
    glued_points,
    kernel_potential_dirichlet,
    kernel_potential_neumann,
    load_block,
    sample_rows,
)
from .gluing_solver import solve_exact, solve_report_csv, substitute_kernel
from .ioutil import (MAX_GRID_VALUES, _is_integer_key, _require_keys, finite_number, format_complex,
                     format_real, read_json_object, write_text_atomic)
from .neck_inverse import (_exact_cells, operator_norm_fit, q0_apply, residual_on_support,
                           seeded_section)
from .polyhom import (
    CutoffFunction,
    DiracZero,
    LaplaceZero,
    PolyhomSection,
    affine_section,
    apply_P,
    dump,
    gram_matrix,
    pairing_closed,
    pairing_integral,
    q_lambda0,
    standard_kernel_basis,
)
from .rng import SplitMix64
from .spectral_model import (
    KIND_DIRAC,
    KIND_LAPLACE,
    circle_spectrum,
    load_spectrum,
    mode_count,
    mode_list,
    roots_of,
    scalar_spectrum,
    torus2_spectrum,
)
from . import spectral_density

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


@dataclass(frozen=True)
class ExperimentConfig:
    spectrum: object
    blocks: tuple[BuildingBlock, BuildingBlock] | None
    degrees: tuple[int, ...]
    T_values: tuple[float, ...]
    s_values: tuple[float, ...]
    h: float
    cutoff: float  # math.inf keeps every mode
    seed: int
    output: str


def _spectrum_from(entry, base_dir: str):
    presets = {
        "scalar": scalar_spectrum,
        "circle": circle_spectrum,
        "torus2": torus2_spectrum,
    }
    if isinstance(entry, str):
        if entry not in presets:
            raise ContractViolation(f"spectrum: unknown preset {entry!r}")
        return presets[entry]()
    if isinstance(entry, dict) and set(entry) == {"file"}:
        return load_spectrum(_file_path(entry, base_dir, "spectrum"))
    raise ContractViolation("spectrum: expected a preset name or {\"file\": path}")


def _file_path(entry: dict, base_dir: str, where: str) -> str:
    """The path a {"file": path} entry names, relative to the config's directory."""
    if not isinstance(entry["file"], str):
        raise ContractViolation(f"{where}.file: expected a string")
    return os.path.join(base_dir, entry["file"])


def _number(entry: dict, key: str, where: str) -> float:
    value = finite_number(entry[key])
    if value is None:
        raise ContractViolation(f"{where}.{key}: expected a finite number")
    return value


def _potential_from(entry, mu: float, where: str) -> Potential:
    if isinstance(entry, list):
        return Potential.from_samples(sample_rows(entry, where), mu)
    if not isinstance(entry, dict):
        raise ContractViolation(f"{where}: expected sample rows or a profile object")
    profile = entry.get("profile")
    if profile not in ("kernel_neumann", "kernel_dirichlet"):
        raise ContractViolation(f"{where}: unknown profile {profile!r}")
    neumann = profile == "kernel_neumann"
    _require_keys(entry, where, {"profile", "c"} if neumann else {"profile"}, {"mu"})
    mu = _number(entry, "mu", where) if "mu" in entry else mu
    c = _number(entry, "c", where) if neumann else None
    try:
        return kernel_potential_neumann(mu, c) if neumann else kernel_potential_dirichlet(mu)
    except ContractViolation as exc:
        raise ContractViolation(f"{where}: {exc}") from None


def _block_from(entry, spec, base_dir: str, where: str) -> BuildingBlock:
    if not isinstance(entry, dict):
        raise ContractViolation(f"{where}: expected an object")
    if set(entry) == {"file"}:
        return load_block(_file_path(entry, base_dir, where), spec)
    _require_keys(entry, where, {"L", "boundary", "mu"}, {"potentials"})
    mu = _number(entry, "mu", where)
    potentials = entry.get("potentials", {})
    if not isinstance(potentials, dict):
        raise ContractViolation(f"{where}.potentials: expected an object")
    pots = {}
    for key, val in potentials.items():
        if not _is_integer_key(key):
            raise ContractViolation(f"{where}: potential key {key!r} is not an integer")
        pots[int(key)] = _potential_from(val, mu, f"{where}.potentials[{json.dumps(key)}]")
    return BuildingBlock(spec=spec, L=_number(entry, "L", where),
                         boundary=str(entry["boundary"]), mu=mu, potentials=pots)


def _positive(x, name: str) -> float:
    value = finite_number(x)
    if value is None or value <= 0:
        raise ContractViolation(f"{name}: expected a positive finite number")
    return value


def _positive_floats(raw, name: str) -> tuple[float, ...]:
    if not isinstance(raw, list):
        raise ContractViolation(f"{name}: expected a list of numbers")
    return tuple(_positive(x, f"{name}[{k}]") for k, x in enumerate(raw))


def load_config(path: str, out_override: str | None) -> ExperimentConfig:
    raw = read_json_object(path)
    _require_keys(raw, "top level", {"spectrum"},
                  {"blocks", "degrees", "T", "s", "h", "cutoff", "seed", "output"})
    base_dir = os.path.dirname(os.path.abspath(path))
    spec = _spectrum_from(raw["spectrum"], base_dir)

    blocks = None
    if "blocks" in raw:
        if not isinstance(raw["blocks"], list) or len(raw["blocks"]) != 2:
            raise ContractViolation("blocks: expected a list of exactly two entries")
        blocks = tuple(
            _block_from(entry, spec, base_dir, f"blocks[{i}]")
            for i, entry in enumerate(raw["blocks"])
        )

    degrees = raw.get("degrees", [0])
    if not isinstance(degrees, list) or not all(
        isinstance(q, int) and not isinstance(q, bool) and q >= 0 for q in degrees
    ):
        raise ContractViolation("degrees: expected a list of nonnegative integers")
    if not degrees:
        raise ContractViolation("degrees: expected at least one degree")

    T_values = _positive_floats(raw.get("T", [5.0, 10.0, 20.0, 40.0]), "T")
    if not T_values:
        raise ContractViolation("T: expected at least one value")
    s_values = _positive_floats(raw.get("s", []), "s")

    h = _positive(raw.get("h", 1.0 / 16), "h")
    cutoff = math.inf if raw.get("cutoff") is None else _positive(raw["cutoff"], "cutoff")
    seed = raw.get("seed", 1)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ContractViolation("seed: expected a 64-bit unsigned integer")
    output = raw.get("output", "out")
    if not isinstance(output, str):
        raise ContractViolation("output: expected a string")
    # a repeated entry would be solved and reported twice
    for name, values in (("degrees", degrees), ("T", T_values), ("s", s_values)):
        for k, x in enumerate(values):
            if x in values[:k]:
                raise ContractViolation(f"{name}[{k}]: repeats {name}[{values.index(x)}] = "
                                        f"{format_real(x)}")
    return ExperimentConfig(
        spectrum=spec,
        blocks=blocks,
        degrees=tuple(degrees),
        T_values=T_values,
        s_values=s_values,
        h=h,
        cutoff=cutoff,
        seed=seed,
        output=out_override if out_override is not None else output,
    )


def _require_blocks(cfg: ExperimentConfig) -> tuple[BuildingBlock, BuildingBlock]:
    if cfg.blocks is None:
        raise ContractViolation("this command needs a 'blocks' entry with two blocks")
    return cfg.blocks


def _require_modes(cfg: ExperimentConfig, q: int, modes):
    """Refuse an empty mode list: every check would pass on it vacuously."""
    if not modes:
        below = f" below the cutoff {format_real(cfg.cutoff)}" if math.isfinite(cfg.cutoff) else ""
        raise ContractViolation(f"degree {q}: the spectrum has no modes{below}")
    return modes


def _require_grid_values(where: str, rows: int, points: int, what: str = "modes") -> None:
    """Refuse a (rows x points) array over MAX_GRID_VALUES before it, or
    the mode list, is built; ``where`` names the field, ``what`` the rows."""
    if rows * points > MAX_GRID_VALUES:
        raise ContractViolation(
            f"{where}: {rows} {what} on {points} grid points make {rows * points} "
            f"values, more than MAX_GRID_VALUES = {MAX_GRID_VALUES}"
        )


# ---------------------------------------------------------------------------
# commands; each returns (ok, stdout lines, {filename: text})


def cmd_roots(cfg: ExperimentConfig):
    rows = ["q,mode,kind,nu,degree_tag,root,order"]
    for q in cfg.degrees:
        modes = _require_modes(cfg, q, mode_list(cfg.spectrum, q, cfg.cutoff))
        for i, m in enumerate(modes):
            for root, order in roots_of(m):
                rows.append(
                    f"{q},{i},{m.kind},{format_real(m.nu)},{m.degree_tag},"
                    f"{format_complex(root)},{order}"
                )
    lines = rows + [f"PASS roots: {len(rows) - 1} root rows over degrees {list(cfg.degrees)}"]
    return True, lines, {"roots.csv": "\n".join(rows) + "\n"}


def cmd_q0check(cfg: ExperimentConfig):
    if len(cfg.T_values) < 2:
        raise ContractViolation("T: q0check fits the norm growth over T and needs two distinct values")
    ok = True
    rows = ["q,T,h,residual"]
    support = min(cfg.T_values)
    # the residual threshold is stated at h = 1/64 and scales with the
    # order-2 discretization error
    threshold = 1e-3 * max(1.0, (64.0 * cfg.h) ** 2)
    worst = 0.0
    ratio_worst = 0.0
    for q in cfg.degrees:
        count = mode_count(cfg.spectrum, q, cfg.cutoff)
        for step in (cfg.h, cfg.h / 2):
            _require_grid_values(f"degree {q}", count, _exact_cells(2 * (support + 2.0), step))
        modes = _require_modes(cfg, q, mode_list(cfg.spectrum, q, cfg.cutoff))
        res = []
        for step in (cfg.h, cfg.h / 2):
            f = seeded_section(modes, support + 2.0, support, step, cfg.seed + 257 * q)
            r = residual_on_support(q0_apply(f), f)
            res.append(r)
            rows.append(f"{q},{format_real(support)},{format_real(step)},{format_real(r)}")
        ok &= res[0] <= threshold
        # zero-mode-only sets invert exactly, so the order-2 halving check
        # only applies above the roundoff floor
        if res[0] > 1e-11:
            ok &= res[1] <= res[0] / 3.0
            ratio_worst = max(ratio_worst, res[1] / res[0])
        worst = max(worst, res[0])
    # the norm fit puts a section of up to two rows (a Dirac block) on the grid of each T
    for k, T in enumerate(cfg.T_values):
        _require_grid_values(f"T[{k}]", 2, _exact_cells(2 * (T + 2), cfg.h), "norm-fit rows")
    fit_rows = ["kind,T,ratio"]
    fit_lines = []
    bands = {KIND_LAPLACE: (1.8, 2.2), KIND_DIRAC: (0.8, 1.2)}
    for kind in (KIND_LAPLACE, KIND_DIRAC):
        fit = operator_norm_fit(kind, cfg.T_values, h=cfg.h)
        for T, ratio in zip(cfg.T_values, fit.ratios):
            fit_rows.append(f"{kind},{format_real(T)},{format_real(ratio)}")
        fit_rows.append(f"{kind},exponent,{format_real(fit.exponent)}")
        lo, hi = bands[kind]
        ok &= lo <= fit.exponent <= hi
        fit_lines.append(f"{kind} exponent {fit.exponent:.3f} in [{lo}, {hi}]")
    verdict = "PASS" if ok else "FAIL"
    lines = [
        f"{verdict} q0check: residual {worst:.3e} (threshold {threshold:.3e}), "
        f"halving ratio {ratio_worst:.3f}, " + ", ".join(fit_lines)
    ]
    return ok, lines, {"q0_residuals.csv": "\n".join(rows) + "\n",
                       "q0_normfit.csv": "\n".join(fit_rows) + "\n"}


def cmd_paircheck(cfg: ExperimentConfig):
    ok = True
    rows = ["check,case,value,reference,diff"]
    rng = SplitMix64(cfg.seed)
    op = LaplaceZero(1, 1)
    worst_pair = worst_chi = 0.0
    for case in range(100):
        z = rng.uniforms(8, -1.0, 1.0) + 1j * rng.uniforms(8, -1.0, 1.0)
        u = affine_section(z[0:2], z[2:4])
        v = affine_section(z[4:6], z[6:8])
        closed = pairing_closed(op, u, v)
        quad = pairing_integral(op, u, v)
        diff = abs(quad - closed)
        scale = 1.0 + abs(closed)
        ok &= diff <= 1e-8 * scale
        worst_pair = max(worst_pair, diff / scale)
        rows.append(
            f"pairing,{case},{format_complex(quad)},{format_complex(closed)},{format_real(diff)}"
        )
        if case < 10:
            center = float(rng.uniforms(1, -3.0, 3.0)[0])
            shifted = pairing_integral(op, u, v, CutoffFunction(center))
            cdiff = abs(shifted - quad)
            ok &= cdiff <= 1e-8 * scale
            worst_chi = max(worst_chi, cdiff / scale)
            rows.append(
                f"chi,{case},{format_complex(shifted)},{format_complex(quad)},{format_real(cdiff)}"
            )
    for name, op2 in (("laplace", LaplaceZero(1, 1)), ("dirac", DiracZero(1))):
        basis = standard_kernel_basis(op2)
        gram = gram_matrix(op2, basis, basis)
        ok &= gram.full_rank
        rows.append(f"gram,{name},{gram.rank},{len(basis)},0")
    identity_bad = 0
    for case in range(20):
        ints = [int(round(x)) for x in rng.uniforms(4, -9.0, 9.0)]
        dens = [max(1, int(round(x))) for x in rng.uniforms(4, 1.0, 9.0)]
        f = [np.array([Fraction(p, d)], dtype=object) for p, d in zip(ints, dens)]
        u = q_lambda0(LaplaceZero(1, 0), f)
        back = apply_P(LaplaceZero(1, 0), u)
        expected = PolyhomSection(1, tuple(f))
        if dump(back) != dump(expected):
            identity_bad += 1
    ok &= identity_bad == 0
    rows.append(f"identity,all,{20 - identity_bad},20,{identity_bad}")
    verdict = "PASS" if ok else "FAIL"
    lines = [
        f"{verdict} paircheck: 100 pairings (worst {worst_pair:.2e}), "
        f"chi independence (worst {worst_chi:.2e}), Gram full rank, "
        f"right-inverse identity exact on 20 rational cases"
    ]
    return ok, lines, {"paircheck.csv": "\n".join(rows) + "\n"}


_SOURCE_ROWS = 32  # rows of _glued_source built at once


def _glued_source(G, seed: int) -> np.ndarray:
    rng = SplitMix64(seed)
    f = np.zeros((len(G.modes), G.n_points))
    t = G.grid()
    # the envelope is 0 for |t| >= T/2: only the columns inside are filled
    lo, hi = np.searchsorted(t, -G.T / 2, side="right"), np.searchsorted(t, G.T / 2)
    t = t[lo:hi]
    rise = CutoffFunction(center=-G.T / 2 + 0.5)
    envelope = rise(t) * rise(-t)
    amps = rng.uniforms(8 * len(G.modes), -1.0, 1.0).reshape(len(G.modes), 4, 2)
    waves = [(np.cos(2 * k * math.pi * t / G.T), np.sin(2 * (k + 1) * math.pi * t / G.T))
             for k in range(4)]
    # contiguous, as f's inside columns are a strided view: the adds run over whole rows
    acc = np.zeros((len(f), len(t)))
    term = np.empty((min(len(f), _SOURCE_ROWS), len(t)))
    # accumulated in place by row blocks, each term written into one buffer
    for row in range(0, len(f), _SOURCE_ROWS):
        block = acc[row : row + _SOURCE_ROWS]
        out = term[: len(block)]
        for k, (cos_k, sin_k) in enumerate(waves):
            amp = amps[row : row + _SOURCE_ROWS, k] / (1 + k) ** 2
            block += np.multiply(amp[:, :1], cos_k, out=out)
            block += np.multiply(amp[:, 1:], sin_k, out=out)
    np.multiply(acc, envelope, out=f[:, lo:hi])
    return f


def _require_grids(cfg: ExperimentConfig, q: int, rows: int, what: str) -> None:
    """Refuse a degree whose (rows x points) grid at some T is over the
    MAX_GRID_VALUES check, before any of its operators is built."""
    b1, b2 = _require_blocks(cfg)
    for T in cfg.T_values:
        _require_grid_values(f"degree {q}", rows, glued_points(T, b1.L, b2.L, cfg.h), what)


def _glued_operator(cfg: ExperimentConfig, q: int, T: float) -> GluedOperator:
    b1, b2 = _require_blocks(cfg)
    G = assemble(b1, b2, cfg.spectrum, q, T=T, h=cfg.h, cutoff=cfg.cutoff)
    _require_modes(cfg, q, G.modes)
    return G


def cmd_glue(cfg: ExperimentConfig):
    ok = True
    lines = []
    files = {}
    b1, b2 = _require_blocks(cfg)
    widest = max(2 * T + b1.L + b2.L for T in cfg.T_values)
    # widest span first: each narrower T's arrays then fit in memory a wider
    # solve has freed, where config order maps fresh pages for every larger T
    order = sorted(range(len(cfg.T_values)), key=lambda k: cfg.T_values[k], reverse=True)
    for q in cfg.degrees:
        _require_grids(cfg, q, mode_count(cfg.spectrum, q, cfg.cutoff), "modes")
        marches = None
        solved = {}
        failed = None  # (config index, error) of the first T in config order that failed
        for k in order:
            if failed is not None and k > failed[0]:
                continue
            try:
                G = _glued_operator(cfg, q, cfg.T_values[k])
                # the block kernels of every T are read off one march per block,
                # shot once the first operator has checked the blocks
                marches = marches or tuple(BlockMarch.shoot(b, q, cfg.h, cfg.cutoff, widest)
                                           for b in (b1, b2))
                # S holds the operator data of every correction round, built
                # before the source so that its arrays sit below the solve's
                S = substitute_kernel(G, marches)
                f = _glued_source(G, cfg.seed + 31 * q)
                report = solve_exact(G, S, f)
            except Exception as exc:  # raised below unless a T before it in config order fails
                traceback.clear_frames(exc.__traceback__)  # its frames' arrays are freed now
                failed = (k, exc)
                continue
            ok &= report.residual <= 1e-6
            T = format_real(G.T)
            solved[k] = (f"glue q={q} T={T}: residual {report.residual:.3e}, "
                         f"{report.iterations} iterations, dim kernel {S.dim}",
                         f"glue_q{q}_T{T}.csv", solve_report_csv(G, report))
            del report, f  # the next T's solve is the peak; free u and w first
        if failed is not None:
            raise failed[1]
        for _, (line, name, table) in sorted(solved.items()):
            lines.append(line)
            files[name] = table
    verdict = "PASS" if ok else "FAIL"
    lines.append(f"{verdict} glue: {len(cfg.degrees) * len(cfg.T_values)} solves at tol 1e-06")
    return ok, lines, files


def cmd_density(cfg: ExperimentConfig):
    b1, b2 = _require_blocks(cfg)
    if not cfg.s_values:
        raise ContractViolation("density needs a nonempty 's' list")
    ok = True
    lines = []
    files = {}
    for q in cfg.degrees:
        # an operator holds one diagonal per mode family: at most one per
        # kept nu and one per mode carrying a potential
        families = len({nu for deg in (q, q - 1) for nu, _ in cfg.spectrum.eigenvalues(deg)
                        if nu <= cfg.cutoff}) + len(set(b1.potentials) | set(b2.potentials))

        _require_grids(cfg, q, families, "mode families")
        rep = spectral_density.density_sweep(
            [_glued_operator(cfg, q, T) for T in cfg.T_values], cfg.s_values)
        r0 = 2 * rep.B + 3
        ok &= rep.max_residual <= r0
        for i in range(len(rep.T_values)):
            for j in range(len(rep.s_values)):
                ok &= all(abs(cnt - pred) <= r0 for _, cnt, pred in rep.branches(i, j))
        files[f"density_q{q}.csv"] = spectral_density.density_csv(rep)
        files.update(spectral_density.gnuplot_tables(rep))
        lines.append(
            f"density q={q}: B={rep.B}, max |count - 2B sqrt(s)| = "
            f"{rep.max_residual:.2f} (allowed {r0})"
        )
    verdict = "PASS" if ok else "FAIL"
    lines.append(f"{verdict} density: window counts over T={list(cfg.T_values)}")
    return ok, lines, files


COMMANDS = {
    "roots": cmd_roots,
    "q0check": cmd_q0check,
    "paircheck": cmd_paircheck,
    "glue": cmd_glue,
    "density": cmd_density,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="neckspec",
        description="Experiments on glued elliptic operators over stretched necks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", help="output directory (overrides the config)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.out)
        ok, lines, files = COMMANDS[args.command](cfg)
        for name in sorted(files):
            write_text_atomic(os.path.join(cfg.output, name), files[name])
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        write_text_atomic(
            os.path.join(cfg.output, "run.log"),
            f"{stamp} {args.command} config={os.path.abspath(args.config)} "
            f"files={len(files)} status={'PASS' if ok else 'FAIL'}\n",
        )
    except (ContractViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AnalysisError as exc:
        print(f"FAIL {args.command}: {exc}")
        return EXIT_FAIL
    for line in lines:
        print(line)
    return EXIT_PASS if ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
