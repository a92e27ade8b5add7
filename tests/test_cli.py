import contextlib
import copy
import hashlib
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckspec import cli, glued_model, neck_inverse, spectral_model
from neckspec.cli import main
from neckspec.polyhom import CutoffFunction
from neckspec.rng import SplitMix64


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

    @pytest.mark.parametrize("command", ["roots", "glue", "density"])
    def test_empty_mode_list_is_refused(self, tmp_path, capsys, command):
        # no degree holds an eigenvalue: the checks would run on zero modes
        spectrum = {"name": "empty", "dimension": 1, "degrees": {}}
        (tmp_path / "spec.json").write_text(json.dumps(spectrum), encoding="utf-8")
        cfg = write_config(tmp_path, spectrum={"file": "spec.json"},
                           blocks=[FLAT_BLOCK, FLAT_BLOCK], degrees=[0], T=[8], s=[4.41], seed=1)
        code, out, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert "error: degree 0: the spectrum has no modes\n" in err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("command", ["roots", "glue"])
    def test_oversized_mode_list_is_refused_before_it_is_built(self, tmp_path, capsys, command):
        # expanding 2^62 modes one by one would exhaust memory
        spectrum = {"name": "huge", "dimension": 1, "degrees": {"0": [[0.0, 2**62]]}}
        (tmp_path / "spec.json").write_text(json.dumps(spectrum), encoding="utf-8")
        cfg = write_config(tmp_path, spectrum={"file": "spec.json"},
                           blocks=[FLAT_BLOCK, FLAT_BLOCK], degrees=[0], T=[8], seed=1)
        code, out, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert f"error: degree 0: the spectrum has {2**62} modes" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,T,h,points", [("glue", [40], 1 / 16, 1280),
                                                    ("q0check", [5, 10], 1 / 64, 896)])
    def test_oversized_grid_is_refused_before_it_is_built(self, tmp_path, capsys, monkeypatch,
                                                          command, T, h, points):
        # 20001 modes on the glued grid at T = 40, or on q0check's grid at
        # step h, exceed MAX_GRID_VALUES = 2^24 values
        spectrum = {"name": "wide", "dimension": 1, "degrees": {"0": [[0.0, 1], [4.0, 20000]]}}
        (tmp_path / "spec.json").write_text(json.dumps(spectrum), encoding="utf-8")
        cfg = write_config(tmp_path, spectrum={"file": "spec.json"},
                           blocks=[FLAT_BLOCK, FLAT_BLOCK], degrees=[0], T=T, h=h, seed=1)

        def no_modes(*args):
            raise AssertionError("the refusal must come before the mode list is built")

        # the modes are counted from the multiplicities, not built
        monkeypatch.setattr(spectral_model, "ModeOperator", no_modes)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert (f"error: degree 0: 20001 modes on {points} grid points make {20001 * points} "
                f"values, more than MAX_GRID_VALUES = {2**24}") in err
        # the refusal allocates no (modes x grid points) array
        assert peak < 20001 * points * 8 / 10, peak

    @pytest.mark.parametrize("command,T,where,rows,points", [
        ("q0check", [3e7, 6e7], "degree 0", "1 modes", 960000064),
        ("q0check", [3, 3e7], "T[1]", "2 norm-fit rows", 960000064),
        ("density", [3e7], "degree 0", "2 mode families", 960000032),
        ("density", [4, 6e5], "degree 0", "2 mode families", 19200032),
    ])
    def test_huge_grid_is_counted_not_built(self, tmp_path, capsys, monkeypatch, command, T,
                                            where, rows, points):
        # a 7.15 GiB grid at h = 1/16: q0check's grid at its smaller T, the
        # norm fit's grid at its larger T, or one glued operator of density,
        # whose bound on the mode families is the one kept nu plus the one
        # mode carrying a potential; density refuses a 0.29 GiB operator at
        # its second T before it builds the first
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[SECH_BLOCK, FLAT_BLOCK],
                           degrees=[0], T=T, s=[4.41], h=1 / 16, seed=1)

        def no_grid(*args, **kwargs):
            raise AssertionError("the refusal must come before the grid is built")

        if where == "T[1]":
            # the residuals at T = 3 build their grids; the norm fit must not
            monkeypatch.setattr(cli, "operator_norm_fit", no_grid)
        else:
            monkeypatch.setattr(neck_inverse, "cell_grid", no_grid)
            monkeypatch.setattr(cli, "cell_grid", no_grid, raising=False)  # if bound there too
            monkeypatch.setattr(cli, "assemble", no_grid)
        code, out, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert err == (f"error: {where}: {rows} on {points} grid points make "
                       f"{int(rows[0]) * points} values, more than MAX_GRID_VALUES = {2**24}\n")

    def test_spectrum_file_with_twist(self, tmp_path, capsys):
        spectrum = {"name": "x", "dimension": 1, "degrees": {"0": [[0.0, 1]]},
                    "twist": {"0": [[[1.0]]]}}
        (tmp_path / "spec.json").write_text(json.dumps(spectrum), encoding="utf-8")
        cfg = write_config(tmp_path, spectrum={"file": "spec.json"}, seed=1)
        code, _, err = run(capsys, "roots", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "unknown field 'twist'" in err


class TestUnreadableJson:
    """A config, spectrum or block file that is not UTF-8 JSON, nests too
    deep to parse or holds an integer too long to convert exits 2 naming
    the file."""

    @pytest.mark.parametrize("content", [b'{"seed": "\xff"}', b"[" * 100_000,
                                         b'{"seed": ' + b"1" * 5000 + b"}"],
                             ids=["byte-0xff", "deep-nesting", "5000-digit-integer"])
    @pytest.mark.parametrize("kind,command", [("config", "paircheck"), ("spectrum", "roots"),
                                              ("block", "glue")])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, kind, command, content):
        bad = tmp_path / f"{kind}.json"
        bad.write_bytes(content)
        fields = dict(spectrum="scalar", blocks=[FLAT_BLOCK, FLAT_BLOCK], degrees=[0], T=[8],
                      seed=1)
        if kind == "spectrum":
            fields["spectrum"] = {"file": bad.name}
        elif kind == "block":
            fields["blocks"] = [{"file": bad.name}, FLAT_BLOCK]
        cfg = str(bad) if kind == "config" else write_config(tmp_path, **fields)
        code, out, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bad}: not valid JSON (")
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("block_mu,code", [(1.0, 2), (0.5, 0)])
    def test_potential_decaying_slower_than_its_block_is_refused(self, tmp_path, capsys,
                                                                 block_mu, code):
        # the block's shot is sized from the block's mu: at mu = 1 it is too
        # short for a rate-0.5 profile and classifies its bounded element as
        # unbounded, so the solve would fail to contract instead
        sech = {"L": 2.0, "boundary": "neumann", "mu": block_mu,
                "potentials": {"0": {"profile": "kernel_neumann", "c": 0.8, "mu": 0.5}}}
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[sech, FLAT_BLOCK],
                           degrees=[0], T=[10], h=1 / 16, seed=1)
        got, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert got == code
        if code == 2:
            assert out == ""
            assert err == ("error: potentials[0]: decay rate 0.5 is slower than the "
                           "block's mu = 1.0\n")
        else:
            assert "PASS glue: 1 solves" in out

    def test_a_decay_rate_that_overflows_the_decay_check_is_refused(self, tmp_path, capsys):
        # e^{mu (s - L)} overflows at mu = 1e308, which would make the decay
        # bound NaN and pass samples that do not decay at all
        block = {"L": 0.5, "boundary": "neumann", "mu": 1e308,
                 "potentials": {"0": [[s / 2, 0.1] for s in range(19)]}}
        (tmp_path / "block.json").write_text(json.dumps(block), encoding="utf-8")
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[{"file": "block.json"}, FLAT_BLOCK],
                           degrees=[0], T=[10], seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err.startswith("error: potentials[0]: decay rate mu = 1e+308 is too large")
        assert [str(w.message) for w in caught] == []

    def test_a_fast_decay_rate_on_a_compact_potential_passes(self, tmp_path, capsys):
        # V vanishes past L, so every rate holds; the weight e^{mu (s - L)}
        # overflows at mu = 100 over [L, L + 8], but its exponent does not
        block = {"L": 2.0, "boundary": "neumann", "mu": 100,
                 "potentials": {"0": [[0.0, 0.1], [0.49, 0.1], [0.5, 0.0], [3.0, 0.0]]}}
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[block, FLAT_BLOCK],
                           degrees=[0], T=[8], seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert "PASS glue: 1 solves" in out
        assert [str(w.message) for w in caught] == []

    def test_a_shot_that_overflows_fails_the_analysis(self, tmp_path, capsys):
        # V = 1e308 is finite, but the zero mode's shot overflows at once
        block = {"L": 2.0, "boundary": "neumann", "mu": 1.0,
                 "potentials": {"0": [[0.0, 1e308], [1.0, 0.05], [2.0, 0.0]]}}
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[block, FLAT_BLOCK],
                           degrees=[0], T=[4], seed=1)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (1, "")
        assert out == ("FAIL glue: mode 0: the shot overflows; the potential is too large "
                       "to shoot at step 0.0625\n")

    def test_a_finite_shot_past_the_rescale_bound_fails_the_analysis(self, tmp_path, capsys):
        # V = 2^62 at s = L: the zero mode's shot stays finite but reaches
        # 2.6e255, so every norm of it would overflow
        block = {"L": 2.0, "boundary": "neumann", "mu": 1.0,
                 "potentials": {"0": [[0.0, 0.1], [1.0, 0.05], [2.0, 2**62]]}}
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[block, FLAT_BLOCK],
                           degrees=[0], T=[4], seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (1, "")
        assert out == ("FAIL glue: mode 0: the shot overflows; the potential is too large "
                       "to shoot at step 0.0625\n")
        assert [str(w.message) for w in caught] == []

    def test_slow_decay_samples_are_refused(self, tmp_path, capsys):
        # samples falling as e^{-0.2 s} where the block declares mu = 1
        rows = [[s, 0.3 * math.exp(-0.2 * s)] for s in np.arange(0.0, 20.5, 0.5).tolist()]
        err = self._run(tmp_path, capsys, "glue", {"0": rows})
        assert "error: potentials[0]: samples decay slower than the declared rate 1.0" in err

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

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="circle", degrees=[0, 1],
                           T=[5, 10], h=1.0 / 16, cutoff=9.5, seed=11)
        runs = [run(capsys, "q0check", "--config", cfg, "--out", str(tmp_path / out))
                for out in ("a", "b")]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        for name in ("q0_residuals.csv", "q0_normfit.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_torus_tables_keep_their_bytes(self, tmp_path, capsys):
        # the residuals' last bits follow the summation order of the march
        # and of the residual sums: at seed 7, summing the h / 2 residual
        # row-major instead of column-major already moves its last digit
        cfg = write_config(tmp_path, spectrum="torus2", degrees=[1], T=[5, 10],
                           h=1.0 / 32, seed=7)
        code, out, _ = run(capsys, "q0check", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        digests = {name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
                   for name in ("q0_residuals.csv", "q0_normfit.csv")}
        assert digests == {
            "q0_residuals.csv": "96ca1c94c1057e95cb693c4ccdb5ab328d13a0c91278a0bda17be01daed7e418",
            "q0_normfit.csv": "cca84021c4cebcb1500d8845ac581a485ff24d4440093963060af169b9b4c915",
        }


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

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", seed=42)
        runs = [run(capsys, "paircheck", "--config", cfg, "--out", str(tmp_path / out))
                for out in ("a", "b")]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        assert ((tmp_path / "a" / "paircheck.csv").read_bytes()
                == (tmp_path / "b" / "paircheck.csv").read_bytes())


def threshold_bound_state_samples(nu, h, m=16, n=40 * 16):
    """Sample rows (s, V) of a potential whose Neumann shot of the nu mode
    is u = 1 on the first m cells and then a decaying discrete-exact tail."""
    twoc = 2.0 + h * h * nu
    r = (twoc - math.sqrt(twoc**2 - 4.0)) / 2.0
    u = np.ones(n)
    u[m:] = r ** np.arange(n - m)
    ghost = np.concatenate([[u[0]], u, [u[-1] * r]])
    v = (ghost[2:] - 2.0 * ghost[1:-1] + ghost[:-2]) / (h * h * u) - nu
    s = (np.arange(n) + 0.5) * h
    return [[float(a), float(b)] for a, b in zip(s, v)]


class TestGlue:
    def test_kernel_blocks_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[SECH_BLOCK, TANH_BLOCK],
                           degrees=[0], T=[8, 12], h=1.0 / 16, seed=5)
        code, out, _ = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        assert "PASS glue: 2 solves" in out
        report = (tmp_path / "o" / "glue_q0_T8.csv").read_text()
        assert report.startswith("T,iter,residual,eta,")

    def test_torus_tables_keep_their_bytes(self, tmp_path, capsys):
        # the benchmark's glue-torus config: torus2 at q = 1 between the two
        # sech blocks, h = 1/16; the residual digits follow every stage's
        # summation order, so a reordered pass moves these digests
        other = dict(SECH_BLOCK, potentials={"0": {"profile": "kernel_neumann", "c": -0.35}})
        cfg = write_config(tmp_path, spectrum="torus2", blocks=[SECH_BLOCK, other],
                           degrees=[1], T=[16, 24, 40], h=1.0 / 16, seed=7)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert "PASS glue: 3 solves" in out
        digests = {T: hashlib.sha256((tmp_path / "o" / f"glue_q1_T{T}.csv").read_bytes()).hexdigest()
                   for T in (16, 24, 40)}
        assert digests == {
            16: "ab57b24760031a53c8be393e1d4fb763a2b6ce7e3b84db0087daab5b7ce9542e",
            24: "235ac0346faa5eae7ca36dce11f9e8723ecc8da5a65c41afe81cac52513d0b78",
            40: "5f265f442581bb9e51d3dd0610b83e2b515c464e9bcaff9fbfe61c7d32393aeb",
        }

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

    @pytest.mark.parametrize("cutoff", [9.5, 50])
    def test_cutoff_reaches_the_block_kernels(self, tmp_path, capsys, cutoff):
        # the substitute kernel shoots the modes below the cutoff that the
        # glued operator was assembled with, not the whole mode list
        other = dict(SECH_BLOCK, potentials={"0": {"profile": "kernel_neumann", "c": -0.35}})
        cfg = write_config(tmp_path, spectrum="torus2", blocks=[SECH_BLOCK, other],
                           degrees=[1], T=[16], h=1.0 / 16, cutoff=cutoff, seed=1)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert "2 iterations, dim kernel 3" in out
        assert "PASS glue: 1 solves" in out

    @pytest.mark.parametrize("case", ["decaying", "bound-state"])
    def test_free_growth_certificate_of_a_positive_mode_with_a_potential(self, tmp_path,
                                                                         capsys, case):
        # the nu > 0 shot of block 1's mode 1 is certified kernel-free by its
        # growth slope; a bound state at the threshold holds it under sqrt(nu)/2
        spectrum = {"name": "x", "dimension": 1, "degrees": {"0": [[0, 1], [0.04, 1]]}}
        (tmp_path / "spec.json").write_text(json.dumps(spectrum), encoding="utf-8")
        h = 1.0 / 16
        if case == "decaying":
            table = [[float(x), float(0.5 * math.exp(-x))] for x in np.arange(0.0, 24.0, h)]
        else:
            table = threshold_bound_state_samples(0.04, h)
        block = {"L": 2.0, "boundary": "neumann", "mu": 1.0, "potentials": {"1": table}}
        flat = {"L": 2.0, "boundary": "neumann", "mu": 1.0}
        cfg = write_config(tmp_path, spectrum={"file": "spec.json"}, blocks=[block, flat],
                           degrees=[0], T=[8], h=h, seed=1)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        if case == "decaying":
            assert (code, err) == (0, "")
            assert "PASS glue: 1 solves" in out
        else:
            assert (code, err) == (1, "")
            assert out.startswith("FAIL glue: mode 1 (nu = 0.04) fails its free-growth "
                                  "certificate: measured log slope ")

    def test_no_contraction_names_the_worst_family(self, tmp_path, capsys):
        # nu = 1e-6 is positive, so no kernel direction corrects it, yet at
        # sqrt(nu) T = 0.003 it is nearly a zero mode: its rounds grow
        spectrum = {"name": "x", "dimension": 1, "degrees": {"0": [[0, 1], [1e-6, 1]]}}
        (tmp_path / "spec.json").write_text(json.dumps(spectrum), encoding="utf-8")
        cfg = write_config(tmp_path, spectrum={"file": "spec.json"},
                           blocks=[FLAT_BLOCK, FLAT_BLOCK], degrees=[0], T=[3, 5], h=1.0 / 16,
                           seed=1)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (1, "")
        assert out.startswith("FAIL glue: iteration does not contract: eta = ")
        assert out.endswith("the largest residual is on the family of mode 1, nu = 1e-06, "
                            "sqrt(nu) T = 0.003\n")

    def test_each_block_is_shot_once_per_degree(self, tmp_path, capsys, monkeypatch):
        # one march per block and degree, to the widest span, serves all three T
        shoot = glued_model._shoot_families
        shots = []

        def recorded(block, cases, h, reach):
            shots.append((block.potentials.keys(), reach))
            return shoot(block, cases, h, reach)

        monkeypatch.setattr(glued_model, "_shoot_families", recorded)
        cfg = write_config(tmp_path, spectrum="circle", blocks=[SECH_BLOCK, FLAT_BLOCK],
                           degrees=[0, 1], T=[10, 20, 30], h=1.0 / 16, seed=1)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert "PASS glue: 6 solves" in out
        assert shots == [({0}, 62.0), (set(), 62.0)] * 2

    @pytest.mark.parametrize("T", [5, 12])
    def test_glued_source_matches_the_term_by_term_sum(self, T):
        # a test-local copy of the source fill the preallocated buffer
        # replaced, whose every term made its own temporary
        b = glued_model.BuildingBlock(spectral_model.torus2_spectrum(), 2.0, "neumann", 1.0)
        G = glued_model.assemble(b, b, b.spec, 1, T=T, h=1.0 / 16)
        gen = SplitMix64(11)
        t = G.grid()
        rise = CutoffFunction(center=-G.T / 2 + 0.5)
        amps = gen.uniforms(8 * len(G.modes), -1.0, 1.0).reshape(len(G.modes), 4, 2)
        want = np.zeros((len(G.modes), G.n_points))
        for k in range(4):
            amp = amps[:, k] / (1 + k) ** 2
            want += amp[:, :1] * np.cos(2 * k * math.pi * t / G.T)
            want += amp[:, 1:] * np.sin(2 * (k + 1) * math.pi * t / G.T)
        want *= rise(t) * rise(-t)
        assert np.array_equal(cli._glued_source(G, 11), want)

    @pytest.mark.parametrize("case", ["torus2", "scalar"])
    def test_glued_source_fills_only_the_envelope_support(self, case):
        # against a fill of the whole grid: inside |t| < T/2 the bits are the
        # same, and outside both are exactly 0
        if case == "torus2":
            b = glued_model.BuildingBlock(spectral_model.torus2_spectrum(), 2.0, "neumann", 1.0)
            G = glued_model.assemble(b, b, b.spec, 1, T=16, h=1.0 / 16)
        else:
            b = glued_model.BuildingBlock(spectral_model.scalar_spectrum(), 2.0, "neumann", 1.0)
            G = glued_model.assemble(b, b, b.spec, 0, T=10, h=1.0 / 128)
        gen = SplitMix64(13)
        t = G.grid()
        rise = CutoffFunction(center=-G.T / 2 + 0.5)
        amps = gen.uniforms(8 * len(G.modes), -1.0, 1.0).reshape(len(G.modes), 4, 2)
        full = np.zeros((len(G.modes), G.n_points))
        term = np.empty_like(full)
        for k in range(4):
            amp = amps[:, k] / (1 + k) ** 2
            full += np.multiply(amp[:, :1], np.cos(2 * k * math.pi * t / G.T), out=term)
            full += np.multiply(amp[:, 1:], np.sin(2 * (k + 1) * math.pi * t / G.T), out=term)
        full *= rise(t) * rise(-t)
        f = cli._glued_source(G, 13)
        inside = np.abs(t) < G.T / 2
        assert 0 < inside.sum() < G.n_points
        assert f[:, inside].tobytes() == full[:, inside].tobytes()
        assert not f[:, ~inside].any() and not full[:, ~inside].any()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        # a second glue in one process reads nothing the first left behind,
        # and no T reads another T's operator data
        other = dict(SECH_BLOCK, potentials={"0": {"profile": "kernel_neumann", "c": -0.35}})
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[SECH_BLOCK, other],
                           degrees=[0], T=[8, 12], h=1.0 / 32, seed=4)
        runs = [run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / out))
                for out in ("a", "b")]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        for name in ("glue_q0_T8.csv", "glue_q0_T12.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_mismatched_block_spectra(self, tmp_path, capsys):
        # an inline block is built on the top-level spectrum; it has no
        # spectrum of its own to disagree with it
        other = dict(FLAT_BLOCK, spectrum="circle")
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[FLAT_BLOCK, other],
                           degrees=[0], T=[8], seed=5)
        code, _, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "blocks[1]: unknown field 'spectrum'" in err


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

    def test_counts_of_an_unsorted_T_sweep_match_the_closed_form(self, tmp_path, capsys):
        # flat Neumann blocks of length 0: each mode's matrix is nu plus the
        # Neumann second difference on n = 2T/h points, whose eigenvalues are
        # nu + (4/h^2) sin^2(k pi / 2n), k = 0 .. n-1. T = 3, 5, 4 gives three
        # grid lengths in one Sturm pass per degree, the two shorter padded.
        h = 1 / 16
        cfg = write_config(tmp_path, spectrum="torus2", blocks=[FLAT_BLOCK, FLAT_BLOCK],
                           degrees=[0, 1, 2], T=[3, 5, 4], s=[4.41, 9.61, 16.81], h=h, seed=3)
        code, out, _ = run(capsys, "density", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0, out
        spec = spectral_model.torus2_spectrum()
        for q in (0, 1, 2):
            rows = (tmp_path / "o" / f"density_q{q}.csv").read_text().splitlines()[1:]
            assert [row.split(",")[1] for row in rows[::9]] == ["3", "5", "4"]
            assert len(rows) == 3 * 3 * 3
            for row in rows:
                _, T, s, count, _, _, branch = row.split(",")
                T, s = float(T), float(s)
                n = round(2 * T / h)
                free = (4 / h**2) * np.sin(np.arange(n) * math.pi / (2 * n)) ** 2
                top = math.pi**2 * s / T**2
                degrees = {"exact": [q - 1], "coexact": [q], "all": [q - 1, q]}[branch]
                want = sum(mult * int(np.count_nonzero((nu + free > 1e-10) & (nu + free <= top)))
                           for d in degrees for nu, mult in spec.eigenvalues(d))
                assert int(count) == want, row

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
    _mutate(config, site, value)
    _assert_exits_cleanly(command, {"config": config})


def _mutate(data, site, value):
    for key in site[:-1]:
        data = data[key]
    data[site[-1]] = value


def _assert_exits_cleanly(command, files):
    """Run command on files["config"], with every entry of files written
    as <name>.json beside it: exit 0, 1 or 2, no traceback and no warning."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(Path(tmp) / "config.json"),
                         "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert [str(w.message) for w in caught] == []


# a spectrum file and a block file for the fuzz config, and the places a
# mutation may hit in them: a field, a degree's rows, one row or one entry
FUZZ_SPECTRUM = {"name": "fuzz", "dimension": 1, "degrees": {"0": [[0.0, 1], [4.0, 2]]}}
FUZZ_BLOCK = {"L": 2.0, "boundary": "neumann", "mu": 1.0,
              "potentials": {"0": [[0.0, 0.1], [1.0, 0.05], [2.0, 0.0]]}}
FILE_SITES = (
    [("spectrum", key) for key in FUZZ_SPECTRUM]
    + [("spectrum", "degrees", "0")]
    + [("spectrum", "degrees", "0", k) for k in range(2)]
    + [("spectrum", "degrees", "0", k, i) for k in range(2) for i in range(2)]
    + [("block", key) for key in FUZZ_BLOCK]
    + [("block", "potentials", "0")]
    + [("block", "potentials", "0", k) for k in range(3)]
    + [("block", "potentials", "0", k, i) for k in range(3) for i in range(2)]
)
# besides FUZZ_VALUES: a nu at and below MERGE_TOL = 1e-12, which joins the
# zero mode; multiplicities past MAX_MODES, refused before any mode is
# built; empty and duplicate rows; and a second boundary. Block lengths stay
# small or astronomical, which the grid count refuses: a length of 1e5
# would be shot point by point.
FILE_VALUES = FUZZ_VALUES + [
    1e-12, 1e-13, 0.5, 2.0, 4.0, 2**20 + 1, 2**62, "dirichlet",
    [[0.0, 1], [0.0, 1]], [[4.0, 2], [4.0, 2], [0.0, 1]], [[1e-13, 1], [0.0, 2]], [[0.0, 1]],
    [[0.0, 0.1], [0.0, 0.2]], [[0.0, -30.0], [1.5, -30.0], [1.9, 0.0]], [0.0], [1.0, "x"],
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FILE_SITES), st.sampled_from(FILE_VALUES),
       st.sampled_from(["0", "1", "-1", "x", "00"]), st.sampled_from(["roots", "density", "glue"]))
def test_mutated_input_files_exit_cleanly(site, value, degree_key, command):
    files = {"spectrum": copy.deepcopy(FUZZ_SPECTRUM), "block": copy.deepcopy(FUZZ_BLOCK),
             "config": dict(FUZZ_BASE, spectrum={"file": "spectrum.json"},
                            blocks=[{"file": "block.json"}, FLAT_BLOCK])}
    _mutate(files, site, value)
    degrees = files["spectrum"]["degrees"]
    if isinstance(degrees, dict) and "0" in degrees:
        degrees[degree_key] = degrees.pop("0")
    _assert_exits_cleanly(command, files)
