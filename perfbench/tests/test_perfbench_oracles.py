"""Each oracle passes real CLI output and rejects a deliberately wrong copy."""

import contextlib
import io
import json

import numpy as np
import pytest

import oracles
from workloads import FLAT_BLOCKS, KERNEL_BLOCKS

import neckspec.cli as cli
from neckspec.glued_model import assemble
from neckspec.gluing_solver import solve_direct, solve_exact, substitute_kernel


def run_cli(tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / command
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main([command, "--config", str(path), "--out", str(out)])
    assert rc == 0
    files = {p.name: p.read_text() for p in out.iterdir() if p.suffix in (".csv", ".dat")}
    return files, stdout.getvalue(), str(path)


# -- density ----------------------------------------------------------------

DENSITY = {"spectrum": "torus2", "degrees": [1], "T": [4], "s": [4.41, 9.61],
           "blocks": FLAT_BLOCKS}


@pytest.fixture(scope="module")
def density_files(tmp_path_factory):
    return run_cli(tmp_path_factory.mktemp("density"), "density", DENSITY)[0]


def density_problems(files):
    return oracles.density_problems(files, "torus2", [1], [4], [4.41, 9.61], 1 / 16)


def test_density_counts_match_closed_form(density_files):
    assert density_problems(density_files) == []


@pytest.mark.parametrize("branch", ["all", "exact", "coexact"])
def test_density_rejects_count_off_by_one(density_files, branch):
    files = dict(density_files)
    lines = files["density_q1.csv"].splitlines()
    k = next(i for i, line in enumerate(lines) if line.endswith("," + branch))
    cells = lines[k].split(",")
    cells[3] = str(int(cells[3]) + 1)
    lines[k] = ",".join(cells)
    files["density_q1.csv"] = "\n".join(lines) + "\n"
    assert any("closed form" in p for p in density_problems(files))


def test_density_rejects_wrong_dat_row(density_files):
    files = dict(density_files)
    name = "density_q1_T4.dat"
    head, first, *rest = files[name].splitlines()
    s, count = first.split()
    files[name] = "\n".join([head, f"{s} {int(count) - 1}", *rest]) + "\n"
    assert any(name in p for p in density_problems(files))


def test_density_rejects_missing_row(density_files):
    files = dict(density_files)
    files["density_q1.csv"] = "\n".join(files["density_q1.csv"].splitlines()[:-1]) + "\n"
    assert any("cover" in p for p in density_problems(files))


def test_closed_form_counts_flat_zero_mode():
    # one zero mode on n = 2T/h cells: k = 1..floor(2 sqrt(s)) lie in the window
    got = oracles.closed_form_counts("scalar", 0, 10.0, 2.3**2, 1 / 16)
    assert got == {"all": 4, "exact": 0, "coexact": 4}


# -- cylinder calculus ------------------------------------------------------

CYLINDER = {"spectrum": "torus2", "degrees": [1], "h": 1 / 64, "T": [5, 10, 20, 40], "seed": 3}


@pytest.fixture(scope="module")
def roots_csv(tmp_path_factory):
    return run_cli(tmp_path_factory.mktemp("roots"), "roots", CYLINDER)[0]["roots.csv"]


def test_roots_pass(roots_csv):
    assert oracles.roots_problems(roots_csv, "torus2", [1]) == []


def _edit_row(text, index, column, value):
    lines = text.splitlines()
    cells = lines[index].split(",")
    cells[column] = value
    lines[index] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_roots_rejects_wrong_root(roots_csv):
    # row 1 is mode 0 (nu = 0); the last row is a positive mode
    bad = _edit_row(roots_csv, -1, 5, "0+3j")
    assert any("r^2" in p for p in oracles.roots_problems(bad, "torus2", [1]))


def test_roots_rejects_wrong_order(roots_csv):
    bad = _edit_row(roots_csv, 1, 6, "1")
    assert any("order 2" in p for p in oracles.roots_problems(bad, "torus2", [1]))


def test_roots_rejects_missing_row(roots_csv):
    bad = "\n".join(roots_csv.splitlines()[:-1]) + "\n"
    assert any("root rows" in p for p in oracles.roots_problems(bad, "torus2", [1]))


@pytest.fixture(scope="module")
def q0_files(tmp_path_factory):
    config = {"spectrum": "circle", "degrees": [0, 1], "h": 1 / 64, "T": [5, 10, 20, 40],
              "cutoff": 5.0, "seed": 3}
    return run_cli(tmp_path_factory.mktemp("q0"), "q0check", config)[0]


def q0_problems(files):
    return oracles.q0_problems(files["q0_residuals.csv"], files["q0_normfit.csv"], [0, 1],
                               1 / 64, [5, 10, 20, 40])


def test_q0_pass(q0_files):
    assert q0_problems(q0_files) == []


def test_q0_rejects_first_order_convergence(q0_files):
    files = dict(q0_files)
    lines = files["q0_residuals.csv"].splitlines()
    coarse = float(lines[1].split(",")[3])
    files["q0_residuals.csv"] = _edit_row(files["q0_residuals.csv"], 2, 3, repr(coarse / 2))
    assert any("halving ratio" in p for p in q0_problems(files))


def test_q0_rejects_residual_above_threshold(q0_files):
    files = dict(q0_files)
    files["q0_residuals.csv"] = _edit_row(files["q0_residuals.csv"], 1, 3, "0.5")
    assert any("threshold" in p for p in q0_problems(files))


def test_q0_rejects_exponent_outside_band(q0_files):
    files = dict(q0_files)
    lines = files["q0_normfit.csv"].splitlines()
    k = lines.index(next(line for line in lines if line.startswith("laplace,exponent")))
    files["q0_normfit.csv"] = _edit_row(files["q0_normfit.csv"], k, 2, "2.5")
    found = q0_problems(files)
    assert any("outside" in p for p in found) and any("not the fit" in p for p in found)


@pytest.fixture(scope="module")
def pair_csv(tmp_path_factory):
    return run_cli(tmp_path_factory.mktemp("pair"), "paircheck", CYLINDER)[0]["paircheck.csv"]


def test_paircheck_pass(pair_csv):
    assert oracles.paircheck_problems(pair_csv) == []


def test_paircheck_rejects_pairing_difference(pair_csv):
    bad = _edit_row(pair_csv, 1, 2, "1e-3+0j")
    assert any("pairing case" in p for p in oracles.paircheck_problems(bad))


def test_paircheck_rejects_inexact_identity(pair_csv):
    lines = pair_csv.splitlines()
    bad = "\n".join(lines[:-1] + ["identity,all,19,20,1"]) + "\n"
    assert any("identity" in p for p in oracles.paircheck_problems(bad))


# -- glue -------------------------------------------------------------------

GLUE = {"spectrum": "scalar", "degrees": [0], "h": 1 / 16, "T": [10], "seed": 5,
        "blocks": KERNEL_BLOCKS}


@pytest.fixture(scope="module")
def glue_run(tmp_path_factory):
    files, stdout, path = run_cli(tmp_path_factory.mktemp("glue"), "glue", GLUE)
    return files, stdout, oracles.recompute_glue(path)


@pytest.fixture(scope="module")
def glue_arrays():
    from neckspec.glued_model import BuildingBlock, kernel_potential_neumann
    from neckspec.spectral_model import scalar_spectrum

    spec = scalar_spectrum()
    b1, b2 = (BuildingBlock(spec=spec, L=2.0, boundary="neumann", mu=1.0,
                            potentials={0: kernel_potential_neumann(1.0, c)})
              for c in (0.8, -0.35))
    G = assemble(b1, b2, spec, 0, T=10.0, h=1 / 16)
    S = substitute_kernel(G)
    f = cli._glued_source(G, 5)
    report = solve_exact(G, S, f)
    Pu = G.apply(report.u)
    return G, S, f, report, Pu, solve_direct(G, S, f)


def test_glue_recompute_and_tables_pass(glue_run):
    files, stdout, recomputed = glue_run
    assert oracles.glue_stdout_problems(stdout, "scalar", [0], [10]) == []
    expected = recomputed["q0_T10"]
    assert expected["problems"] == []
    assert oracles.glue_table_problems(files["glue_q0_T10.csv"], 10, expected) == []


def test_glue_rejects_wrong_kernel_dimension(glue_run):
    stdout = glue_run[1].replace("dim kernel 1", "dim kernel 2")
    assert any("Betti" in p for p in oracles.glue_stdout_problems(stdout, "scalar", [0], [10]))


def test_glue_table_rejects_residual_above_tolerance(glue_run):
    files, _, recomputed = glue_run
    expected = dict(recomputed["q0_T10"])
    rows = files["glue_q0_T10.csv"].splitlines()
    bad = _edit_row(files["glue_q0_T10.csv"], len(rows) - 1, 2, "2e-6")
    found = oracles.glue_table_problems(bad, 10, expected)
    assert any("above" in p for p in found) and any("recomputed" in p for p in found)


def test_glue_solution_pass(glue_arrays):
    G, S, f, report, Pu, direct = glue_arrays
    assert oracles.glue_solution_problems(f, Pu, report.u, report.w, S.flat_basis(), direct,
                                          G.h) == []


def test_glue_solution_rejects_residual(glue_arrays):
    G, S, f, report, Pu, direct = glue_arrays
    w = report.w + 1e-4 * f
    found = oracles.glue_solution_problems(f, Pu, report.u, w, S.flat_basis(), direct, G.h)
    assert any("residual" in p for p in found)


def test_glue_solution_rejects_kernel_component(glue_arrays):
    G, S, f, report, Pu, direct = glue_arrays
    kernel = S.flat_basis().reshape(report.u.shape)
    u = report.u + 1e-3 * np.linalg.norm(report.u) * kernel / np.linalg.norm(kernel)
    found = oracles.glue_solution_problems(f, Pu, u, report.w, S.flat_basis(), direct, G.h)
    assert any("orthogonal" in p for p in found)


def test_glue_solution_rejects_w_outside_kernel(glue_arrays):
    G, S, f, report, Pu, direct = glue_arrays
    w = report.w + 1e-3 * f
    found = oracles.glue_solution_problems(f, Pu - 1e-3 * f, report.u, w, S.flat_basis(),
                                           direct, G.h)
    assert any("leaves the kernel" in p for p in found)


def test_glue_solution_rejects_direct_mismatch(glue_arrays):
    G, S, f, report, Pu, direct = glue_arrays
    found = oracles.glue_solution_problems(f, Pu, report.u, report.w, S.flat_basis(),
                                           direct * (1 + 1e-4), G.h)
    assert any("direct solve" in p for p in found)


def test_kernel_dimension_is_betti_sum():
    assert [oracles.kernel_dimension("torus2", q) for q in range(4)] == [1, 3, 3, 1]
    assert oracles.kernel_dimension("scalar", 0) == 1


# -- determinism ------------------------------------------------------------


def test_digest_mismatch_is_a_problem(tmp_path):
    (tmp_path / "a.csv").write_text("x\n1\n")
    (tmp_path / "run.log").write_text("stamp\n")
    first = oracles.digests(str(tmp_path))
    assert list(first) == ["a.csv"]
    assert oracles.digest_problems(first, oracles.digests(str(tmp_path))) == []
    (tmp_path / "a.csv").write_text("x\n2\n")
    assert oracles.digest_problems(first, oracles.digests(str(tmp_path))) != []
