import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckspec.cli import main


def write_config(tmp_path, name="config.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FLAT_BLOCK = {"L": 0.0, "boundary": "neumann", "mu": 1.0}
SECH_BLOCK = {"L": 2.0, "boundary": "neumann", "mu": 1.0,
              "potentials": {"0": {"profile": "kernel_neumann", "c": 0.8}}}
TANH_BLOCK = {"L": 2.0, "boundary": "dirichlet", "mu": 1.0,
              "potentials": {"0": {"profile": "kernel_dirichlet"}}}


class TestRoots:
    def test_circle_degree_one_zero_modes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="circle", degrees=[1], cutoff=0.5, seed=7)
        code, out, _ = run(capsys, "roots", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        rows = (tmp_path / "o" / "roots.csv").read_text().strip().split("\n")
        assert rows[0] == "q,mode,kind,nu,degree_tag,root,order"
        # both zero modes carry the double real root at the origin
        assert len(rows) == 3
        for row in rows[1:]:
            assert row.endswith("0+0j,2")
        assert "PASS roots" in out

    def test_torus_degree_two_counts_three_zero_modes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="torus2", degrees=[2], cutoff=0.5, seed=7)
        code, _, _ = run(capsys, "roots", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        rows = (tmp_path / "o" / "roots.csv").read_text().strip().split("\n")[1:]
        zero_rows = [r for r in rows if r.split(",")[3] == "0"]
        assert len(zero_rows) == 3  # b^1 + b^2 = 2 + 1


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "roots", "--config", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "roots", "--config", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_spectrum_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum={"file": "absent.json"})
        code, _, err = run(capsys, "roots", "--config", cfg)
        assert code == 2

    def test_unknown_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", bogus=1)
        code, _, err = run(capsys, "roots", "--config", cfg)
        assert code == 2
        assert "bogus" in err

    def test_unknown_preset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="klein")
        code, _, err = run(capsys, "roots", "--config", cfg)
        assert code == 2

    def test_negative_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", seed=-1)
        code, _, err = run(capsys, "roots", "--config", cfg)
        assert code == 2
        assert "seed" in err

    def test_blocks_required_for_glue(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", T=[8], seed=1)
        code, _, err = run(capsys, "glue", "--config", cfg)
        assert code == 2
        assert "blocks" in err

    def test_density_needs_s_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", T=[20],
                           blocks=[FLAT_BLOCK, FLAT_BLOCK], seed=1)
        code, _, err = run(capsys, "density", "--config", cfg)
        assert code == 2
        assert "'s'" in err

    def test_unknown_command_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["warp", "--config", "x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("field,value,named", [
        ("h", math.nan, "h"),
        ("T", [math.inf], "T[0]"),
        ("cutoff", math.nan, "cutoff"),
        ("cutoff", True, "cutoff"),
        ("s", [math.nan], "s[0]"),
        ("s", [math.inf], "s[0]"),
        ("blocks", [dict(FLAT_BLOCK, potentials=[1, 2]), FLAT_BLOCK], "blocks[0].potentials"),
    ])
    def test_unusable_number_or_table_names_the_field(self, tmp_path, capsys, field, value, named):
        fields = dict(spectrum="scalar", blocks=[FLAT_BLOCK, FLAT_BLOCK], degrees=[0],
                      T=[8], s=[4.41], seed=1)
        fields[field] = value
        cfg = write_config(tmp_path, **fields)
        code, out, err = run(capsys, "density", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"error: {named}" in err
        assert "Traceback" not in out + err

    def test_q0check_empty_T(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", degrees=[0], T=[], seed=1)
        code, out, err = run(capsys, "q0check", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "error: T:" in err

    def test_q0check_needs_two_distinct_T(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", degrees=[0], T=[5, 5.0], seed=1)
        code, out, err = run(capsys, "q0check", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "error: T:" in err
        assert "FAIL" not in out

    @pytest.mark.parametrize("command", ["glue", "density"])
    @pytest.mark.parametrize("field", ["degrees", "T"])
    def test_empty_list_checks_nothing(self, tmp_path, capsys, command, field):
        fields = dict(spectrum="scalar", blocks=[FLAT_BLOCK, FLAT_BLOCK], degrees=[0],
                      T=[8], s=[4.41], seed=1)
        fields[field] = []
        cfg = write_config(tmp_path, **fields)
        code, out, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"error: {field}:" in err
        assert "PASS" not in out

    @pytest.mark.parametrize("command", ["q0check", "glue", "density"])
    @pytest.mark.parametrize("field,value", [("T", [8, 1e308]), ("h", 1e-300)])
    def test_astronomical_grid_refused(self, tmp_path, capsys, command, field, value):
        fields = dict(spectrum="scalar", blocks=[FLAT_BLOCK, FLAT_BLOCK], degrees=[0],
                      T=[8, 16], s=[4.41], seed=1)
        fields[field] = value
        cfg = write_config(tmp_path, **fields)
        code, out, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "error: T or h:" in err

    def test_vanishing_decay_rate_refused(self, tmp_path, capsys):
        slow = dict(FLAT_BLOCK, mu=1e-300)
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[slow, FLAT_BLOCK],
                           degrees=[0], T=[8], seed=1)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "error: mu:" in err

    def test_spectrum_file_with_twist(self, tmp_path, capsys):
        spectrum = {"name": "x", "dimension": 1, "degrees": {"0": [[0.0, 1]]},
                    "twist": {"0": [[[1.0]]]}}
        (tmp_path / "spec.json").write_text(json.dumps(spectrum), encoding="utf-8")
        cfg = write_config(tmp_path, spectrum={"file": "spec.json"}, seed=1)
        code, _, err = run(capsys, "roots", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "unknown field 'twist'" in err


class TestPotentialEntries:
    """Bad potential entries exit 2 with the field named, never a traceback."""

    def _run(self, tmp_path, capsys, command, potentials, spectrum="scalar"):
        block = {"L": 2.0, "boundary": "neumann", "mu": 1.0, "potentials": potentials}
        cfg = write_config(tmp_path, spectrum=spectrum, blocks=[block, FLAT_BLOCK],
                           degrees=[0], T=[8], s=[4.41], seed=1)
        code, out, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "Traceback" not in out + err
        return err

    @pytest.mark.parametrize("command", ["glue", "density"])
    def test_non_numeric_sample(self, tmp_path, capsys, command):
        err = self._run(tmp_path, capsys, command, {"0": [[0.0, 0.1], ["a", 1]]})
        assert 'blocks[0].potentials["0"][1]' in err
        assert "finite numbers" in err

    @pytest.mark.parametrize("command", ["glue", "density"])
    def test_nan_sample(self, tmp_path, capsys, command):
        err = self._run(tmp_path, capsys, command, {"0": [[0.0, 0.1], [1.0, math.nan]]})
        assert 'blocks[0].potentials["0"][1]' in err

    def test_kernel_profile_without_c(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, "glue", {"0": {"profile": "kernel_neumann"}})
        assert 'blocks[0].potentials["0"]' in err
        assert "'c'" in err

    def test_kernel_profile_out_of_range(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, "glue", {"0": {"profile": "kernel_neumann", "c": 1.5}})
        assert 'blocks[0].potentials["0"]' in err

    def test_non_numeric_block_length(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[dict(FLAT_BLOCK, L="x"), FLAT_BLOCK],
                           degrees=[0], T=[8], seed=1)
        code, _, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "blocks[0].L" in err

    @pytest.mark.parametrize("command", ["glue", "density"])
    def test_potential_on_a_missing_mode(self, tmp_path, capsys, command):
        # the scalar spectrum has one degree-0 mode, so mode 7 does not exist
        err = self._run(tmp_path, capsys, command, {"7": [[0.0, 0.1], [1.0, 0.0]]})
        assert "mode 7" in err
        assert "1 modes" in err


class TestQ0Check:
    def test_mixed_modes_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="circle", degrees=[0, 1],
                           T=[5, 10, 20, 40], h=1.0 / 16, cutoff=9.5, seed=11)
        code, out, _ = run(capsys, "q0check", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        assert out.startswith("PASS q0check")
        rows = (tmp_path / "o" / "q0_residuals.csv").read_text().strip().split("\n")
        assert rows[0] == "q,T,h,residual"
        assert len(rows) == 1 + 2 * 2  # two degrees, two steps each
        fit = (tmp_path / "o" / "q0_normfit.csv").read_text()
        lap = [r for r in fit.strip().split("\n") if r.startswith("laplace,exponent")]
        assert len(lap) == 1
        assert abs(float(lap[0].split(",")[2]) - 2.0) <= 0.2

    def test_zero_mode_only_set_is_exact(self, tmp_path, capsys):
        # the scalar model inverts to roundoff, which must count as a pass
        cfg = write_config(tmp_path, spectrum="scalar", degrees=[0], T=[5, 10, 20, 40], seed=11)
        code, out, _ = run(capsys, "q0check", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0


class TestPairCheck:
    def test_pass_and_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", seed=42)
        code, out, _ = run(capsys, "paircheck", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        assert out.startswith("PASS paircheck")
        rows = (tmp_path / "o" / "paircheck.csv").read_text().strip().split("\n")
        assert rows[0] == "check,case,value,reference,diff"
        assert sum(r.startswith("pairing,") for r in rows) == 100
        assert any(r.startswith("gram,dirac,2,2") for r in rows)
        assert rows[-1] == "identity,all,20,20,0"


class TestGlue:
    def test_kernel_blocks_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[SECH_BLOCK, TANH_BLOCK],
                           degrees=[0], T=[8, 12], h=1.0 / 16, seed=5)
        code, out, _ = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        assert "PASS glue: 2 solves" in out
        report = (tmp_path / "o" / "glue_q0_T8.csv").read_text()
        assert report.startswith("T,iter,residual,eta,")

    def test_large_free_nu_is_not_refused(self, tmp_path, capsys):
        # at h sqrt(nu) = 8.8 the discrete free growth rate acosh(1 + h^2 nu/2)/h
        # is below sqrt(nu)/2; the free mode holds no kernel and is not shot
        spectrum = {"name": "x", "dimension": 1, "degrees": {"0": [[0, 1], [20000, 1]]}}
        (tmp_path / "spec.json").write_text(json.dumps(spectrum), encoding="utf-8")
        other = dict(SECH_BLOCK, potentials={"0": {"profile": "kernel_neumann", "c": -0.35}})
        cfg = write_config(tmp_path, spectrum={"file": "spec.json"}, blocks=[SECH_BLOCK, other],
                           degrees=[0], T=[10], h=1.0 / 16, seed=1)
        code, out, _ = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        assert "PASS glue: 1 solves" in out

    def test_sampled_potential_block(self, tmp_path, capsys):
        s = np.arange(0.0, 24.0 + 1e-9, 1.0 / 16)
        table = [[float(x), float(0.3 * math.exp(-x))] for x in s]
        block = {"L": 2.0, "boundary": "neumann", "mu": 1.0, "potentials": {"0": table}}
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[block, FLAT_BLOCK],
                           degrees=[0], T=[8], seed=9)
        code, out, _ = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0

    def test_mismatched_block_spectra(self, tmp_path, capsys):
        other = dict(FLAT_BLOCK, spectrum="circle")
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[FLAT_BLOCK, other],
                           degrees=[0], T=[8], seed=5)
        code, _, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "matching condition violated" in err


class TestDensity:
    def test_flat_scalar_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[FLAT_BLOCK, FLAT_BLOCK],
                           degrees=[0], T=[20, 40], s=[4.41, 9.61, 16.81, 25.21], seed=3)
        code, out, _ = run(capsys, "density", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        assert "PASS density" in out
        table = (tmp_path / "o" / "density_q0.csv").read_text()
        assert table.startswith("q,T,s,count,prediction,residual,branch")
        assert (tmp_path / "o" / "density_q0_T20.dat").exists()
        assert (tmp_path / "o" / "run.log").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[FLAT_BLOCK, FLAT_BLOCK],
                           degrees=[0], T=[20], s=[4.41, 9.61], seed=3)
        code1, _, _ = run(capsys, "density", "--config", cfg, "--out", str(tmp_path / "a"))
        code2, _, _ = run(capsys, "density", "--config", cfg, "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        for name in ("density_q0.csv", "density_q0_T20.dat"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_window_reaching_positive_modes_is_refused(self, tmp_path, capsys):
        # circle one-forms at T = 10: the window (0, pi^2 25/100] holds nu = 1 modes
        cfg = write_config(tmp_path, spectrum="circle", blocks=[FLAT_BLOCK, FLAT_BLOCK],
                           degrees=[1], T=[10], s=[1, 25], seed=3)
        code, out, err = run(capsys, "density", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert "s = 25 at T = 10" in err
        assert "positive mode 1 (nu = 1)" in err
        assert f"T > {math.pi * 5:.17g}" in err

    def test_negative_spectrum_is_refused(self, tmp_path, capsys):
        # a deep well on block 1 pulls three eigenvalues below zero
        # (-29.26, -23.45, -12.52); the window count would miss them
        well = {"L": 2.0, "boundary": "neumann", "mu": 1.0,
                "potentials": {"0": [[0, -30], [1.5, -30], [1.9, 0]]}}
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[well, FLAT_BLOCK],
                           degrees=[0], T=[10], s=[4.41], seed=3)
        code, out, err = run(capsys, "density", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert "mode 0 (nu = 0) has 3 eigenvalue(s) below -1/T^2 = -0.01 at T = 10" in err
        assert "potential of block 1 on it" in err
        assert not (tmp_path / "o").exists()

    def test_output_dir_from_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[FLAT_BLOCK, FLAT_BLOCK],
                           degrees=[0], T=[20], s=[4.41], seed=3, output="from_config")
        code, _, _ = run(capsys, "density", "--config", cfg)
        assert code == 0
        assert (tmp_path / "from_config" / "density_q0.csv").exists()


# a small flat scalar config and the places a mutation may hit: a
# top-level field, a block field, or one entry of a list
FUZZ_BASE = {"spectrum": "scalar", "blocks": [dict(FLAT_BLOCK, potentials={}), FLAT_BLOCK],
             "degrees": [0], "T": [4], "h": 1.0 / 16, "s": [4.41], "cutoff": 1.0, "seed": 1}
FUZZ_SITES = (
    [(key,) for key in FUZZ_BASE]
    + [("blocks", i, key) for i in range(2) for key in FUZZ_BASE["blocks"][i]]
    + [("blocks", 0), ("blocks", 1), ("degrees", 0), ("T", 0), ("s", 0)]
)
FUZZ_VALUES = [math.nan, math.inf, -math.inf, True, None, "x", [], {}, -1, 0, 1e308, 1e-300]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FUZZ_SITES), st.sampled_from(FUZZ_VALUES),
       st.sampled_from(["roots", "density", "glue"]))
def test_mutated_config_exits_cleanly(site, value, command):
    config = copy.deepcopy(FUZZ_BASE)
    target = config
    for key in site[:-1]:
        target = target[key]
    target[site[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
