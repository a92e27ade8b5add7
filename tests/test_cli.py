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
from neckspec.errors import AnalysisError
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

    def test_positive_modes_have_two_imaginary_roots(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="circle", degrees=[0], cutoff=1.5, seed=1)
        code, _, err = run(capsys, "roots", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        rows = (tmp_path / "o" / "roots.csv").read_text().strip().split("\n")[1:]
        assert rows == ["0,0,laplace,0,alpha,0+0j,2",
                        "0,1,laplace,1,alpha,0+1j,1", "0,1,laplace,1,alpha,0-1j,1",
                        "0,2,laplace,1,alpha,0+1j,1", "0,2,laplace,1,alpha,0-1j,1"]

    def test_eigenvalues_closer_than_the_merge_tolerance_are_one_entry(self, tmp_path, capsys):
        # 1 and 1 + 1e-13 merge into nu = 1 twice, the circle's first positive entry
        spectrum = {"name": "x", "dimension": 1,
                    "degrees": {"0": [[0, 1], [1.0, 1], [1.0000000000001, 1]]}}
        (tmp_path / "spec.json").write_text(json.dumps(spectrum), encoding="utf-8")
        for name, spec in (("file", {"file": "spec.json"}), ("circle", "circle")):
            cfg = write_config(tmp_path, name=f"{name}.json", spectrum=spec, degrees=[0],
                               cutoff=1.5, seed=1)
            code, _, err = run(capsys, "roots", "--config", cfg, "--out", str(tmp_path / name))
            assert (code, err) == (0, "")
        assert ((tmp_path / "file" / "roots.csv").read_bytes()
                == (tmp_path / "circle" / "roots.csv").read_bytes())

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

    @pytest.mark.parametrize("under", [False, True])
    def test_an_unwritable_output_directory(self, tmp_path, capsys, under):
        # --out naming a file, or a directory under one: the tables cannot
        # be written, which is one error line, not a traceback
        (tmp_path / "taken").write_text("", encoding="utf-8")
        out_dir = tmp_path / "taken" / "o" if under else tmp_path / "taken"
        cfg = write_config(tmp_path, spectrum="circle", degrees=[1], cutoff=0.5, seed=7)
        code, out, err = run(capsys, "roots", "--config", cfg, "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(str(out_dir)) in err

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

    @pytest.mark.parametrize("value", [0, False, "", {}, None])
    def test_s_that_is_not_a_list_is_refused(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, spectrum="scalar", s=value, seed=1)
        code, out, err = run(capsys, "roots", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == "error: s: expected a list of numbers\n"

    # a config, spectrum and block file that load, and per case the one
    # file replaced by a text that holds a key twice
    CLEAN_FILES = {
        "config.json": '{"spectrum": {"file": "spec.json"}, '
                       '"blocks": [{"file": "block.json"}, {"file": "block.json"}]}',
        "spec.json": '{"name": "s", "dimension": 1, "degrees": {"0": [[0.0, 1]]}}',
        "block.json": '{"L": 0.0, "boundary": "neumann", "mu": 1.0, "potentials": {}}',
    }
    DUPLICATES = {
        "config": ("config.json", '{"spectrum": "scalar", "T": [5, 5], "T": [6, 7]}', "'T'"),
        "inline block": ("config.json", '{"spectrum": "scalar", "blocks": [{"L": 0.0, "L": 1.0, '
                         '"boundary": "neumann", "mu": 1.0}, {"file": "block.json"}]}', "'L'"),
        "spectrum file": ("spec.json", '{"name": "s", "dimension": 1, '
                          '"degrees": {"0": [[0.0, 1]], "0": [[0.0, 2]]}}', "'0'"),
        "block file": ("block.json", '{"L": 0.0, "boundary": "neumann", "mu": 1.0, "mu": 2.0, '
                       '"potentials": {}}', "'mu'"),
    }

    @pytest.mark.parametrize("where", DUPLICATES)
    def test_duplicate_key_is_refused(self, tmp_path, capsys, where):
        name, text, key = self.DUPLICATES[where]
        for file, clean in self.CLEAN_FILES.items():
            (tmp_path / file).write_text(text if file == name else clean, encoding="utf-8")
        code, out, err = run(capsys, "glue", "--config", str(tmp_path / "config.json"),
                             "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / name}: duplicate key {key}\n"

    @pytest.mark.parametrize("key", ["00", "+0", " 0", "0_0", "-0"])
    @pytest.mark.parametrize("where", ["spectrum file", "block file", "inline block"])
    def test_integer_key_not_in_canonical_form_is_refused(self, tmp_path, capsys, where, key):
        spectrum = {"name": "s", "dimension": 1, "degrees": {key: [[0.0, 1]]}}
        block = {"L": 0.0, "boundary": "neumann", "mu": 1.0,
                 "potentials": {key: [[0.0, 0.1], [1.0, 0.0]]}}
        (tmp_path / "spec.json").write_text(json.dumps(spectrum), encoding="utf-8")
        (tmp_path / "block.json").write_text(json.dumps(block), encoding="utf-8")
        entry = {"spectrum file": FLAT_BLOCK, "block file": {"file": "block.json"},
                 "inline block": block}[where]
        cfg = write_config(tmp_path, spectrum={"file": "spec.json"} if where == "spectrum file"
                           else "scalar", blocks=[entry, FLAT_BLOCK], degrees=[0], T=[8], seed=1)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == {
            "spectrum file": f"error: degrees[{key!r}]: key is not an integer\n",
            "block file": f"error: potentials[{key!r}]: key is not an integer\n",
            "inline block": f"error: blocks[0]: potential key {key!r} is not an integer\n",
        }[where]

    @pytest.mark.parametrize("command,field,value,message", [
        ("roots", "degrees", [0, 0], "degrees[1]: repeats degrees[0] = 0"),
        ("glue", "degrees", [1, 0, 1], "degrees[2]: repeats degrees[0] = 1"),
        ("glue", "T", [8, 8], "T[1]: repeats T[0] = 8"),
        ("q0check", "T", [5, 10, 5.0], "T[2]: repeats T[0] = 5"),
        ("density", "s", [4.41, 4.41], "s[1]: repeats s[0] = 4.4100000000000001"),
    ])
    def test_repeated_entry_is_refused(self, tmp_path, capsys, monkeypatch, command, field,
                                       value, message):
        # a repeated degree, T or s would be solved and reported twice
        fields = dict(spectrum="scalar", blocks=[FLAT_BLOCK, FLAT_BLOCK], degrees=[0],
                      T=[8, 10], s=[4.41], seed=1)
        fields[field] = value
        cfg = write_config(tmp_path, **fields)

        def no_modes(*args, **kwargs):
            raise AssertionError("the refusal must come before any mode or operator is built")

        for name in ("mode_count", "mode_list", "assemble"):
            monkeypatch.setattr(cli, name, no_modes)
        code, out, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("block,potential,message", [
        (SECH_BLOCK, {"profile": "kernel_neumann", "c": 0.5, "cc": 9}, "unknown field 'cc'"),
        (TANH_BLOCK, {"profile": "kernel_dirichlet", "c": 0.5}, "unknown field 'c'"),
        (TANH_BLOCK, {"profile": "kernel_dirichlet", "mu": 2.0, "L": 1.0}, "unknown field 'L'"),
        (SECH_BLOCK, {"profile": "kernel_neumann", "mu": 2.0}, "missing field 'c'"),
    ])
    def test_profile_object_fields_are_checked(self, tmp_path, capsys, block, potential, message):
        # a field the profile does not take would be dropped unread
        cfg = write_config(tmp_path, spectrum="scalar",
                           blocks=[dict(block, potentials={"0": potential}), FLAT_BLOCK],
                           degrees=[0], T=[8], seed=1)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == f'error: blocks[0].potentials["0"]: {message}\n'

    @pytest.mark.parametrize("name,text", [
        ("spec.json", '{"dimension": 1, "degrees": {"0": [[0.0, 1]]}, "extra": 1}'),
        ("block.json", '{"L": 0.0, "boundary": "neumann", "potentials": {}, "extra": 1}'),
    ])
    def test_unknown_field_is_named_before_a_missing_one(self, tmp_path, capsys, name, text):
        # every JSON object is read by one key check: the first unknown key
        # in sorted order, then the first missing one, as in a config
        for file, clean in self.CLEAN_FILES.items():
            (tmp_path / file).write_text(text if file == name else clean, encoding="utf-8")
        code, out, err = run(capsys, "glue", "--config", str(tmp_path / "config.json"),
                             "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == "error: top level: unknown field 'extra'\n"

    @pytest.mark.parametrize("path", [3, None, True, ["block.json"], {"name": "block.json"}],
                             ids=["number", "null", "bool", "list", "object"])
    @pytest.mark.parametrize("where", ["spectrum", "blocks[0]", "blocks[1]"])
    def test_file_entry_that_is_not_a_string_is_refused(self, tmp_path, capsys, where, path):
        # the path is checked before it is joined to the config's directory
        fields = dict(spectrum="scalar", blocks=[FLAT_BLOCK, FLAT_BLOCK], degrees=[0],
                      T=[8], seed=1)
        if where == "spectrum":
            fields["spectrum"] = {"file": path}
        else:
            fields["blocks"][int(where[-2])] = {"file": path}
        cfg = write_config(tmp_path, **fields)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == f"error: {where}.file: expected a string\n"

    def test_q0check_empty_T(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", degrees=[0], T=[], seed=1)
        code, out, err = run(capsys, "q0check", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "error: T:" in err

    def test_q0check_needs_two_distinct_T(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", degrees=[0], T=[5], seed=1)
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

    @pytest.mark.parametrize("mu", [400, 1e308])
    def test_a_fast_sech_profile_prints_no_warning(self, tmp_path, capsys, mu):
        # cosh(mu s) overflows past s = 1.78 at mu = 400, where the profile
        # is 1 to the last bit; mu s itself overflows at mu = 1e308, whose
        # decay check refuses the rate
        sech = {"L": 2.0, "boundary": "neumann", "mu": 1.0,
                "potentials": {"0": {"profile": "kernel_neumann", "c": 0.8, "mu": mu}}}
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[sech, TANH_BLOCK],
                           degrees=[0], T=[8], h=1 / 16, seed=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert [str(w.message) for w in caught] == []
        if mu == 400:
            assert (code, err) == (0, "")
            assert out.endswith("PASS glue: 1 solves at tol 1e-06\n")
        else:
            assert (code, out) == (2, "")
            assert err == ("error: potentials[0]: decay rate mu = 1e+308 is too large to "
                           "check: the exponent mu (s - L) overflows on [L, L + 10]\n")

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

    def test_a_slowly_decaying_mode_takes_the_series_weights(self, tmp_path, capsys):
        # nu = 1e-6 gives a h = 6.25e-5 < 1e-3, where the panel weights are
        # summed as a series to avoid the cancellation in x - 1 + e^{-x}
        spectrum = {"name": "series", "dimension": 1,
                    "degrees": {"0": [[0, 1], [1e-6, 1], [4, 1]]}}
        (tmp_path / "spec.json").write_text(json.dumps(spectrum), encoding="utf-8")
        cfg = write_config(tmp_path, spectrum={"file": "spec.json"}, degrees=[0], T=[5, 10],
                           h=1.0 / 16, seed=3)
        code, out, err = run(capsys, "q0check", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert out.startswith("PASS q0check: residual 4.113e-04 ")
        digest = hashlib.sha256((tmp_path / "o" / "q0_residuals.csv").read_bytes()).hexdigest()
        assert digest == "4ca4e473227a7dc88ed4084ce7f2d11eca744a73d06902008673a73ec08f0de8"

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

    def test_benchmark_tables_keep_their_bytes(self, tmp_path, capsys):
        # the cylinder-calculus config at seed 7: the residual sums run over
        # h = 1/64 and 1/128 windows of all 507 rows, so a reordered sum or
        # a changed stencil moves these digests
        cfg = write_config(tmp_path, spectrum="torus2", degrees=[1], T=[5, 10, 20, 40],
                           h=1.0 / 64, seed=7)
        code, out, err = run(capsys, "q0check", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert out == ("PASS q0check: residual 3.961e-05 (threshold 1.000e-03), halving ratio "
                       "0.251, laplace exponent 2.000 in [1.8, 2.2], dirac exponent 1.000 in "
                       "[0.8, 1.2]\n")
        digests = {name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
                   for name in ("q0_residuals.csv", "q0_normfit.csv")}
        assert digests == {
            "q0_residuals.csv": "eafd72811e47356b429e56c8f785a2fc7a541bc7cc63b35c83957854ccec66c9",
            "q0_normfit.csv": "ea70e0da8e53ca20bc8a0a24db2b7cfd7c7cd02eddd627d7c306d4a510d3c42b",
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

    def test_benchmark_table_keeps_its_bytes(self, tmp_path, capsys):
        # the cylinder-calculus config at seed 7: every pairing's last bits
        # follow the quadrature's and the closed form's summation order
        cfg = write_config(tmp_path, spectrum="torus2", degrees=[1], T=[5, 10, 20, 40],
                           h=1.0 / 64, seed=7)
        code, out, err = run(capsys, "paircheck", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert out == ("PASS paircheck: 100 pairings (worst 2.82e-11), chi independence (worst "
                       "5.42e-11), Gram full rank, right-inverse identity exact on 20 rational "
                       "cases\n")
        digest = hashlib.sha256((tmp_path / "o" / "paircheck.csv").read_bytes()).hexdigest()
        assert digest == "898350c91041bd570db0701ff5953409a7b6658f14c45fc68c91e70455758741"


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


def vanishing_tail_samples(k):
    """Sample rows (s, V), s < 7, h = 1/16, of a Neumann block's mode-0
    potential whose shot is u = 1 on the first 16 cells, then r^(j-15) with
    r = e^(-1/4) for k cells, then the straight line through its last two
    values, where V = 0. That line's a + b s is of the size of r^k."""
    h, n = 1.0 / 16, 112
    u = np.ones(n + 1)
    u[16 : 16 + k] = math.exp(-0.25) ** np.arange(1, k + 1)
    for j in range(16 + k, n + 1):
        u[j] = 2.0 * u[j - 1] - u[j - 2]
    ghost = np.concatenate([[u[0]], u])  # u_{-1} = u_0
    v = (ghost[2:] - 2.0 * ghost[1:-1] + ghost[:-2]) / (h * h * u[:-1])
    v[16 + k :] = 0.0
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

    def test_scalar_fine_tables_keep_their_bytes(self, tmp_path, capsys):
        # the benchmark's glue-scalar-fine config: one zero mode between the
        # two sech blocks at h = 1/128, each side's block solve bordered
        other = dict(SECH_BLOCK, potentials={"0": {"profile": "kernel_neumann", "c": -0.35}})
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[SECH_BLOCK, other],
                           degrees=[0], T=[10, 20, 30], h=1.0 / 128, seed=7)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert out.endswith("PASS glue: 3 solves at tol 1e-06\n")
        digests = {T: hashlib.sha256((tmp_path / "o" / f"glue_q0_T{T}.csv").read_bytes()).hexdigest()
                   for T in (10, 20, 30)}
        assert digests == {
            10: "d05c44d0c3b36daa6ca20f69aa2552c4239e8adf7f0d24ae9e9c727d6b856f63",
            20: "fe79d03194182ff1b9a769a88efd80477a27cf2b48e93c9afd836a64b932bc3d",
            30: "dcea67fe7f2734359ebe63d91caa5b3c5e98c0b11f8f5607192e10081af14bfa",
        }

    def test_a_growing_positive_mode_shot_is_rescaled(self, tmp_path, capsys, monkeypatch):
        # the nu = 4 pi^2 mode 1 of torus2 carries a potential, so it is shot,
        # and over 32 units it grows past the 1e150 rescale bound
        shoot = glued_model._shoot_families
        scales = []

        def recorded(block, cases, h, reach):
            u, log_scale = shoot(block, cases, h, reach)
            scales.append((set(block.potentials), float(np.max(log_scale))))
            return u, log_scale

        monkeypatch.setattr(glued_model, "_shoot_families", recorded)
        plain = {"L": 2, "boundary": "neumann", "mu": 1}
        block = dict(plain, potentials={"1": [[0, 0.5], [1, 0.5], [2, 0]]})
        cfg = write_config(tmp_path, spectrum="torus2", blocks=[block, plain], degrees=[0],
                           h=1.0 / 16, T=[30], seed=1)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert "PASS glue: 1 solves" in out
        assert [keys for keys, _ in scales] == [{1}, set()]
        assert scales[0][1] > 0 and scales[1][1] == 0

    def test_an_empty_potential_table_is_no_potential(self, tmp_path, capsys):
        plain = {"L": 2, "boundary": "neumann", "mu": 1}
        for name, block in (("empty", dict(plain, potentials={"0": []})), ("plain", plain)):
            cfg = write_config(tmp_path, name=f"{name}.json", spectrum="scalar",
                               blocks=[block, plain], degrees=[0], h=1.0 / 16, T=[10], seed=1)
            code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / name))
            assert (code, err) == (0, "")
            assert "PASS glue: 1 solves" in out
        assert ((tmp_path / "empty" / "glue_q0_T10.csv").read_bytes()
                == (tmp_path / "plain" / "glue_q0_T10.csv").read_bytes())

    def test_T_values_are_solved_widest_first_and_reported_in_config_order(
            self, tmp_path, capsys, monkeypatch):
        # each T's solve is its own: solved widest first, every table and
        # stdout line is the one a config of that T alone gives, in config order
        solve_exact = cli.solve_exact
        solved = []

        def recorded(G, S, f):
            solved.append(G.T)
            return solve_exact(G, S, f)

        monkeypatch.setattr(cli, "solve_exact", recorded)
        other = dict(SECH_BLOCK, potentials={"0": {"profile": "kernel_neumann", "c": -0.35}})
        fields = dict(spectrum="torus2", blocks=[SECH_BLOCK, other], degrees=[1], h=1.0 / 16,
                      seed=3)
        cfg = write_config(tmp_path, T=[24, 16, 40], **fields)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert solved == [40, 24, 16]
        lines = out.splitlines()
        assert len(lines) == 4 and lines[3] == "PASS glue: 3 solves at tol 1e-06"
        for k, T in enumerate((24, 16, 40)):
            one = write_config(tmp_path, name=f"T{T}.json", T=[T], **fields)
            code, alone, _ = run(capsys, "glue", "--config", one, "--out", str(tmp_path / f"T{T}"))
            assert code == 0
            assert lines[k] == alone.splitlines()[0]
            assert lines[k].startswith(f"glue q=1 T={T}: ")
            name = f"glue_q1_T{T}.csv"
            assert (tmp_path / "o" / name).read_bytes() == (tmp_path / f"T{T}" / name).read_bytes()

    @pytest.mark.parametrize("failing, solved, named", [
        ({16}, [16, 8], 16),
        ({12, 16}, [16, 8], 16),
        ({8, 16}, [16, 8], 8),
        ({12}, [16, 12, 8], 12),
    ])
    def test_a_failed_run_reports_the_first_failing_T_in_config_order(
            self, tmp_path, capsys, monkeypatch, failing, solved, named):
        # solved widest first, a T that fails still leaves every T before it in
        # config order to be solved, and no T after it: the run reports the
        # failure a config-order run reports
        solve_exact = cli.solve_exact
        asked = []

        def failing_at(G, S, f):
            asked.append(G.T)
            if G.T in failing:
                raise AnalysisError(f"no solve at T = {G.T:g}")
            return solve_exact(G, S, f)

        monkeypatch.setattr(cli, "solve_exact", failing_at)
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[SECH_BLOCK, TANH_BLOCK],
                           degrees=[0], T=[8, 16, 12], h=1.0 / 16, seed=5)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, out, err) == (1, f"FAIL glue: no solve at T = {named}\n", "")
        assert asked == solved
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("k, a, b", [(70, "4.526e-07", "-7.809e-08"),
                                         (74, "-2.760e-07", "5.593e-08")])
    def test_a_vanishing_far_field_fails_its_certificate(self, tmp_path, capsys, k, a, b):
        # the shot decays for k cells and then runs on a line of the size of
        # e^(-k/4): its far field a + b s cannot be told from zero, which no
        # nonzero solution under a decaying potential has
        rows = vanishing_tail_samples(k)
        spec = spectral_model.scalar_spectrum()
        block = glued_model.BuildingBlock(
            spec, 7.0, "neumann", 1.0, {0: glued_model.Potential.from_samples(rows, 1.0)})
        message = (f"mode 0 fails its far-field certificate: a = {a} and b = {b} vanish at scale "
                   "1.000e+00; no nonzero solution decays under a decaying potential")
        with pytest.raises(AnalysisError) as exc:
            glued_model.block_kernel(block, spec, 0, h=1.0 / 16, cutoff=math.inf, reach=23.0,
                                     march=None)
        assert str(exc.value) == message
        vanishing = {"L": 7.0, "boundary": "neumann", "mu": 1.0, "potentials": {"0": rows}}
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[vanishing, FLAT_BLOCK],
                           degrees=[0], T=[8, 12], h=1.0 / 16, seed=3)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, out, err) == (1, f"FAIL glue: {message}\n", "")
        assert not (tmp_path / "o").exists()

    def test_a_singular_block_solve_fails_without_a_traceback(self, tmp_path, capsys):
        # at k = 92 the far field is unbounded at the tolerance, so the block
        # side has no border, yet its slope-zero matrix is singular to the pivot
        block = {"L": 7.0, "boundary": "neumann", "mu": 1.0,
                 "potentials": {"0": vanishing_tail_samples(92)}}
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[block, block], degrees=[0],
                           T=[8, 12], h=1.0 / 16, seed=3)
        code, out, err = run(capsys, "glue", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (1, "")
        assert out == ("FAIL glue: block 2 solve of mode 0 failed: ?gtsv: singular matrix "
                       "(pivot 272)\n")
        assert not (tmp_path / "o").exists()

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

    def test_glued_source_holds_f_and_one_inside_buffer(self):
        # the fill's peak is f plus its contiguous (modes x inside columns)
        # buffer, with 10 % for the row-block term and the waves
        b = glued_model.BuildingBlock(spectral_model.torus2_spectrum(), 2.0, "neumann", 1.0)
        G = glued_model.assemble(b, b, b.spec, 1, T=40, h=1.0 / 16)
        inside = int(np.sum(np.abs(G.grid()) < G.T / 2))
        tracemalloc.start()
        try:
            f = cli._glued_source(G, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.shape == (507, 1344) and 0 < inside < G.n_points
        assert peak <= 1.1 * (f.nbytes + len(G.modes) * inside * 8), peak

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

    def test_s_and_4s_residuals_are_compared(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum="scalar", blocks=[FLAT_BLOCK, FLAT_BLOCK],
                           degrees=[0], T=[20], s=[2.25, 9.0], seed=3)
        code, out, err = run(capsys, "density", "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert "PASS density" in out

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
