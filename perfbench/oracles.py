"""Independent checks of every table the workloads write.

Each ``*_problems`` function returns a list of human-readable problems
(empty when the output passes). None of them compares against a stored
copy of earlier output: counts come from closed forms, roots from
r^2 = -nu, kernel dimensions from Betti numbers, and glue solutions from
residuals recomputed here. Only ``recompute_glue`` imports neckspec; the
rest needs numpy alone, so the checks can be handed deliberately wrong
input in tests.

Run as ``python3 perfbench/oracles.py glue CONFIG RESULT.json`` to
recompute the glue solutions of a config and write the findings to
RESULT.json.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import sys

import numpy as np

THRESHOLD_ZERO = 1e-10  # the counting window is (1e-10, pi^2 s / T^2]
GLUE_TOL = 1e-6


# ---------------------------------------------------------------------------
# cross-section spectra in closed form


def torus2_degree(deg: int, max_lattice: int = 6) -> list[tuple[float, int]]:
    """(nu, multiplicity) of degree-deg forms on the unit square torus:
    nu = 4 pi^2 (m^2 + n^2) over |m|, |n| <= max_lattice, times C(2, deg)."""
    if not 0 <= deg <= 2:
        return []
    counts: dict[int, int] = {}
    for m in range(-max_lattice, max_lattice + 1):
        for n in range(-max_lattice, max_lattice + 1):
            counts[m * m + n * n] = counts.get(m * m + n * n, 0) + 1
    return [(4 * math.pi**2 * r2, c * math.comb(2, deg)) for r2, c in sorted(counts.items())]


def scalar_degree(deg: int) -> list[tuple[float, int]]:
    return [(0.0, 1)] if deg == 0 else []


SPECTRA = {"torus2": torus2_degree, "scalar": scalar_degree}


def betti(spectrum: str, deg: int) -> int:
    return sum(mult for nu, mult in SPECTRA[spectrum](deg) if nu == 0.0)


def kernel_dimension(spectrum: str, q: int) -> int:
    """B = b^{q-1} + b^q."""
    return betti(spectrum, q - 1) + betti(spectrum, q)


def mode_families(spectrum: str, q: int) -> list[tuple[str, float, int]]:
    """(degree tag, nu, multiplicity): alpha from degree q, beta from q - 1."""
    return [(tag, nu, mult)
            for tag, deg in (("alpha", q), ("beta", q - 1))
            for nu, mult in SPECTRA[spectrum](deg)]


# ---------------------------------------------------------------------------
# helpers


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def fmt_real(x: float) -> str:
    """The CLI's number format, as in its table names."""
    return f"{float(x):.17g}"


def digests(directory: str) -> dict[str, str]:
    """sha256 of every CSV and .dat table in a directory (run.log excluded)."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith((".csv", ".dat")):
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def digest_problems(reference: dict[str, str], found: dict[str, str]) -> list[str]:
    if reference == found:
        return []
    changed = sorted(set(reference) ^ set(found)
                     | {k for k in set(reference) & set(found) if reference[k] != found[k]})
    return [f"tables differ from the first round of this run: {', '.join(changed)}"]


# ---------------------------------------------------------------------------
# density: closed-form window counts


def closed_form_counts(spectrum: str, q: int, T: float, s: float, h: float) -> dict[str, int]:
    """Window counts of the flat L = 0 Neumann glue: each mode is nu plus
    the n-cell Neumann second difference, n = 2T/h, with eigenvalues
    nu + (4/h^2) sin^2(k pi / 2n), k = 0..n-1."""
    n = round(2 * T / h)
    lam = (4.0 / h**2) * np.sin(np.arange(n) * math.pi / (2 * n)) ** 2
    top = math.pi**2 * s / T**2
    out = {"exact": 0, "coexact": 0}
    for tag, nu, mult in mode_families(spectrum, q):
        vals = nu + lam
        hits = int(np.count_nonzero((vals > THRESHOLD_ZERO) & (vals <= top)))
        out["exact" if tag == "beta" else "coexact"] += mult * hits
    out["all"] = out["exact"] + out["coexact"]
    return out


def density_problems(files: dict[str, str], spectrum: str, degrees, T_values, s_values,
                     h: float) -> list[str]:
    """Every all/exact/coexact count of density_q*.csv and every .dat row
    must equal the closed-form count."""
    problems = []
    for q in degrees:
        name = f"density_q{q}.csv"
        if name not in files:
            problems.append(f"{name} missing")
            continue
        seen = set()
        for row in _rows(files[name]):
            key = (float(row["T"]), float(row["s"]), row["branch"])
            seen.add(key)
            want = closed_form_counts(spectrum, q, key[0], key[1], h)[row["branch"]]
            if int(row["count"]) != want:
                problems.append(f"{name} T={row['T']} s={row['s']} {row['branch']}: "
                                f"count {row['count']} != closed form {want}")
        expected = {(float(T), float(s), b) for T in T_values for s in s_values
                    for b in ("all", "exact", "coexact")}
        if seen != expected:
            problems.append(f"{name}: rows do not cover every (T, s, branch) exactly once")
        for T in T_values:
            dat = f"density_q{q}_T{fmt_real(T)}.dat"
            if dat not in files:
                problems.append(f"{dat} missing")
                continue
            lines = files[dat].splitlines()[1:]
            if len(lines) != len(s_values):
                problems.append(f"{dat}: {len(lines)} rows for {len(s_values)} values of s")
            for line in lines:
                s_txt, count = line.split()
                want = closed_form_counts(spectrum, q, float(T), float(s_txt), h)["all"]
                if int(count) != want:
                    problems.append(f"{dat} s={s_txt}: count {count} != closed form {want}")
    return problems


# ---------------------------------------------------------------------------
# cylinder calculus: roots, right-inverse convergence, norm law, pairing


def roots_problems(text: str, spectrum: str, degrees) -> list[str]:
    """Every root satisfies r^2 = -nu, with one double root exactly when
    nu = 0 and a conjugate pair of simple roots otherwise; the modes are
    the closed-form spectrum with multiplicity."""
    problems = []
    rows = _rows(text)
    for q in degrees:
        by_mode: dict[int, list[dict]] = {}
        for row in rows:
            if int(row["q"]) == q:
                by_mode.setdefault(int(row["mode"]), []).append(row)
        families = mode_families(spectrum, q)
        want_modes = sum(mult for _, _, mult in families)
        want_rows = sum(mult * (1 if nu == 0.0 else 2) for _, nu, mult in families)
        got_rows = sum(len(v) for v in by_mode.values())
        if sorted(by_mode) != list(range(want_modes)):
            problems.append(f"q={q}: {len(by_mode)} modes, closed form has {want_modes}")
        if got_rows != want_rows:
            problems.append(f"q={q}: {got_rows} root rows, closed form has {want_rows}")
        want = {}
        for tag, nu, mult in families:
            want[(tag, round(nu, 6))] = want.get((tag, round(nu, 6)), 0) + mult
        got: dict[tuple[str, float], int] = {}
        for mode, group in sorted(by_mode.items()):
            nu = float(group[0]["nu"])
            tag = group[0]["degree_tag"]
            got[(tag, round(nu, 6))] = got.get((tag, round(nu, 6)), 0) + 1
            roots = [complex(r["root"]) for r in group]
            orders = [int(r["order"]) for r in group]
            for r in roots:
                if abs(r * r + nu) > 1e-9 * (1.0 + nu):
                    problems.append(f"q={q} mode {mode}: root {r} does not satisfy r^2 = -{nu}")
            if nu == 0.0 and orders != [2]:
                problems.append(f"q={q} mode {mode}: nu = 0 needs one root of order 2")
            conjugate = abs(roots[0] - roots[-1].conjugate()) <= 1e-9 * (1 + nu)
            if nu != 0.0 and (orders != [1, 1] or not conjugate):
                problems.append(f"q={q} mode {mode}: nu > 0 needs a conjugate pair of simple roots")
        if got != want:
            problems.append(f"q={q}: mode (tag, nu) multiset differs from the closed-form spectrum")
    return problems


def q0_problems(residual_text: str, normfit_text: str, degrees, h: float, T_values) -> list[str]:
    """Residual under its threshold, order-2 halving ratio <= 1/3 above the
    roundoff floor, norm-law exponents in their bands and equal to a fit
    of the reported ratios."""
    problems = []
    threshold = 1e-3 * max(1.0, (64.0 * h) ** 2)
    rows = _rows(residual_text)
    for q in degrees:
        res = {float(r["h"]): float(r["residual"]) for r in rows if int(r["q"]) == q}
        if set(res) != {h, h / 2}:
            problems.append(f"q={q}: expected residual rows at h and h/2")
            continue
        coarse, fine = res[h], res[h / 2]
        if not coarse <= threshold:
            problems.append(f"q={q}: residual {coarse:.3e} above threshold {threshold:.3e}")
        if coarse > 1e-11 and not fine <= coarse / 3.0:
            problems.append(f"q={q}: halving ratio {fine / coarse:.3f} above 1/3")
    bands = {"laplace": (1.8, 2.2), "dirac": (0.8, 1.2)}
    fit_rows = list(csv.reader(io.StringIO(normfit_text)))[1:]
    for kind, (lo, hi) in bands.items():
        pts = [(float(T), float(r)) for k, T, r in fit_rows if k == kind and T != "exponent"]
        exps = [float(r) for k, T, r in fit_rows if k == kind and T == "exponent"]
        if len(exps) != 1 or sorted(T for T, _ in pts) != sorted(float(T) for T in T_values):
            problems.append(f"{kind}: expected one ratio per T and one exponent")
            continue
        exponent = exps[0]
        if not lo <= exponent <= hi:
            problems.append(f"{kind}: exponent {exponent:.4f} outside [{lo}, {hi}]")
        slope = np.polyfit(np.log([T for T, _ in pts]), np.log([r for _, r in pts]), 1)[0]
        if abs(slope - exponent) > 1e-9 * max(1.0, abs(exponent)):
            problems.append(f"{kind}: exponent {exponent} is not the fit {slope} of its ratios")
    return problems


def paircheck_problems(text: str) -> list[str]:
    """Quadrature against closed form within 1e-8 (1 + |closed|) on 100
    cases, cutoff independence on 10, full-rank Gram matrices, and all 20
    rational right-inverse identities exact."""
    problems = []
    rows = list(csv.reader(io.StringIO(text)))[1:]
    closed_of = {}
    kinds = {"pairing": 0, "chi": 0, "gram": 0, "identity": 0}
    for check, case, value, reference, _diff in rows:
        kinds[check] = kinds.get(check, 0) + 1
        if check == "pairing":
            quad, closed = complex(value), complex(reference)
            closed_of[case] = closed
            if abs(quad - closed) > 1e-8 * (1.0 + abs(closed)):
                problems.append(f"pairing case {case}: |quadrature - closed| = "
                                f"{abs(quad - closed):.3e}")
    for check, case, value, reference, _diff in rows:
        if check == "chi":
            scale = 1.0 + abs(closed_of.get(case, 0.0))
            if abs(complex(value) - complex(reference)) > 1e-8 * scale:
                problems.append(f"chi case {case}: pairing depends on the cutoff")
        elif check == "gram" and int(value) != int(reference):
            problems.append(f"gram {case}: rank {value} of {reference}")
        elif check == "identity" and (value, reference, _diff) != ("20", "20", "0"):
            problems.append(f"identity: {value} of {reference} exact")
    if kinds != {"pairing": 100, "chi": 10, "gram": 2, "identity": 1}:
        problems.append(f"paircheck rows per check {kinds}, expected 100/10/2/1")
    return problems


# ---------------------------------------------------------------------------
# glue: kernel dimension, recomputed residual, orthogonality, direct solve


_GLUE_LINE = re.compile(r"glue q=(\d+) T=([^:]+): residual \S+, (\d+) iterations, dim kernel (\d+)")


def glue_stdout_problems(stdout: str, spectrum: str, degrees, T_values) -> list[str]:
    """dim K_T = B on every (q, T) line the command prints."""
    found = {(int(q), float(T)): int(dim) for q, T, _, dim in _GLUE_LINE.findall(stdout)}
    problems = []
    for q in degrees:
        for T in T_values:
            dim = found.get((q, float(T)))
            want = kernel_dimension(spectrum, q)
            if dim != want:
                problems.append(f"glue q={q} T={T}: dim kernel {dim}, Betti numbers give {want}")
    return problems


def glue_solution_problems(f, Pu, u, w, kernel, u_direct, h: float) -> list[str]:
    """f = P u + w + e with ||e|| <= 1e-6 ||f||, u orthogonal to the
    kernel, w inside it, and u equal to the direct solve to 1e-6.

    ``kernel`` holds the kernel vectors as rows over the flattened
    (mode, grid) coordinates; ``Pu`` is P_T applied to u."""
    nrm = lambda x: math.sqrt(h * float(np.sum(np.abs(x) ** 2)))  # noqa: E731
    nf = nrm(f)
    problems = []
    res = nrm(f - Pu - w) / nf
    if not res <= GLUE_TOL:
        problems.append(f"residual ||f - P u - w|| / ||f|| = {res:.3e} above {GLUE_TOL}")
    Q, _ = np.linalg.qr(np.asarray(kernel, dtype=complex).T)
    uf, wf = np.asarray(u).reshape(-1), np.asarray(w).reshape(-1)
    along = np.linalg.norm(Q.conj().T @ uf) / max(np.linalg.norm(uf), 1e-300)
    if not along <= GLUE_TOL:
        problems.append(f"u is not orthogonal to the kernel: share {along:.3e}")
    off = np.linalg.norm(wf - Q @ (Q.conj().T @ wf)) * math.sqrt(h) / nf
    if not off <= GLUE_TOL:
        problems.append(f"w leaves the kernel: ||w - proj w|| / ||f|| = {off:.3e}")
    diff = nrm(np.asarray(u) - u_direct) / max(nrm(u_direct), 1e-300)
    if not diff <= GLUE_TOL:
        problems.append(f"u differs from the direct solve by {diff:.3e}")
    return problems


def glue_table_problems(text: str, T: float, expected: dict) -> list[str]:
    """glue_q*_T*.csv against the recomputed solve: one row per round with
    the recomputed residuals, the last one within tolerance, and the
    recomputed ||u|| / ||f||."""
    rows = _rows(text)
    problems = []
    if len(rows) != expected["iterations"]:
        problems.append(f"T={T}: {len(rows)} iteration rows, recomputed {expected['iterations']}")
        return problems
    for k, row in enumerate(rows):
        if float(row["T"]) != float(T) or int(row["iter"]) != k + 1:
            problems.append(f"T={T}: row {k + 1} is labelled T={row['T']} iter={row['iter']}")
        want = expected["residuals"][k]
        if abs(float(row["residual"]) - want) > 1e-9 * want + 1e-300:
            problems.append(f"T={T} iter {k + 1}: residual {row['residual']} != recomputed {want}")
        if abs(float(row["u_norm_over_f_norm"]) - expected["u_ratio"]) > 1e-9 * expected["u_ratio"]:
            problems.append(f"T={T}: ||u||/||f|| {row['u_norm_over_f_norm']} != recomputed "
                            f"{expected['u_ratio']}")
    if rows and not float(rows[-1]["residual"]) <= GLUE_TOL:
        problems.append(f"T={T}: final residual {rows[-1]['residual']} above {GLUE_TOL}")
    return problems


def recompute_glue(config_path: str) -> dict:
    """Rebuild every (q, T) glue solve of a config in this process and check it.

    Returns {"q<q>_T<T>": {"problems", "iterations", "residuals", "u_ratio"}}."""
    import neckspec.cli as cli
    from neckspec.glued_model import assemble
    from neckspec.gluing_solver import solve_direct, solve_exact, substitute_kernel

    cfg = cli.load_config(config_path, None)
    with open(config_path, encoding="utf-8") as fh:
        spectrum = json.load(fh)["spectrum"]
    b1, b2 = cfg.blocks
    out = {}
    for q in cfg.degrees:
        for T in cfg.T_values:
            G = assemble(b1, b2, cfg.spectrum, q, T=T, h=cfg.h, cutoff=cfg.cutoff)
            S = substitute_kernel(G)
            f = cli._glued_source(G, cfg.seed + 31 * q)
            report = solve_exact(G, S, f)
            Pu = np.empty_like(report.u)
            for i, (diag, offd) in enumerate(G.mats):
                row = diag * report.u[i]
                row[:-1] += offd * report.u[i][1:]
                row[1:] += offd * report.u[i][:-1]
                Pu[i] = row
            problems = glue_solution_problems(f, Pu, report.u, report.w, S.flat_basis(),
                                              solve_direct(G, S, f), G.h)
            if S.dim != kernel_dimension(spectrum, q):
                problems.append(f"dim K_T = {S.dim}, Betti numbers give "
                                f"{kernel_dimension(spectrum, q)}")
            nrm = lambda x: math.sqrt(G.h * float(np.sum(np.abs(x) ** 2)))  # noqa: E731
            out[f"q{q}_T{fmt_real(T)}"] = {
                "problems": problems,
                "iterations": report.iterations,
                "residuals": list(report.residuals),
                "u_ratio": nrm(report.u) / nrm(f),
            }
    return out


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "glue":
        sys.exit("usage: oracles.py glue CONFIG RESULT.json")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    result = recompute_glue(sys.argv[2])
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
