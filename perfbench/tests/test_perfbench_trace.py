"""The tracer changes no output and restores every binding it replaces."""

import json

import pytest

import oracles
import run
from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import FLAT_BLOCKS, KERNEL_BLOCKS

import neckspec.cli as cli
import neckspec.gluing_solver as gluing_solver
import neckspec.spectral_model as spectral_model

SMALL = {
    "glue": {"spectrum": "scalar", "degrees": [0], "h": 1 / 16, "T": [10], "seed": 2,
             "blocks": KERNEL_BLOCKS},
    "density": {"spectrum": "torus2", "degrees": [1], "T": [4], "s": [4.41, 9.61],
                "blocks": FLAT_BLOCKS},
    "roots": {"spectrum": "circle", "degrees": [1]},
}


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One untraced and one traced worker round over the small configs."""
    base = tmp_path_factory.mktemp("rounds")
    out = {}
    for traced in (False, True):
        commands = []
        for cmd, config in SMALL.items():
            path = base / f"{cmd}.json"
            path.write_text(json.dumps(config))
            commands.append([cmd, str(path), str(base / f"t{int(traced)}" / cmd)])
        _, result = run.spawn_worker(str(base), f"t{int(traced)}", commands, traced)
        assert [c["rc"] for c in result["commands"]] == [0, 0, 0]
        out[traced] = (result, {cmd: oracles.digests(out_dir) for cmd, _, out_dir in commands})
    return out


def test_traced_tables_are_byte_identical(rounds):
    untraced, traced = rounds[False][1], rounds[True][1]
    assert all(untraced[cmd] for cmd in SMALL)
    assert traced == untraced


def test_traced_round_reports_every_layer_metric(rounds):
    result = rounds[True][0]
    layers = result["layers"]
    assert set(layers) == {m for m in LAYER_METRICS if not m.startswith("trace.")}
    assert layers["glued_model.assemble.calls"] == 2  # glue and density, one T each
    assert layers["gluing_solver.substitute_kernel.calls"] == 1
    assert layers["gluing_solver.kernel_dim"] == 1
    assert layers["glued_model.tridiag_eigensolves"] == 507
    assert layers["spectral_density.density_sweep.calls"] == 1
    assert 0 < layers["spectral_density.window_hit_share"] < 1
    assert layers["cli.write.calls"] == 2 + 3 + 2  # the tables plus one run.log per command
    spans = result["spans"]
    assert all(s["end"] >= s["start"] for s in spans)
    assert all(s["parent"] is None or s["parent"] < s["id"] for s in spans)
    assert 0 < result["covered_s"] <= result["wall_s"] * 1.01


def test_untraced_round_has_no_layers(rounds):
    assert "layers" not in rounds[False][0]


def test_install_and_uninstall_restore_bindings():
    originals = (cli.COMMANDS["glue"], cli.write_text_atomic, gluing_solver.block_kernel,
                 spectral_model.mode_list, cli.mode_list)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.COMMANDS["glue"] is not originals[0]
        assert cli.cmd_glue is cli.COMMANDS["glue"]
        assert cli.write_text_atomic is not originals[1]
        assert gluing_solver.block_kernel is not originals[2]
        assert spectral_model.mode_list is cli.mode_list is not originals[3]
        modes = cli.mode_list(cli.torus2_spectrum(), 1, float("inf"))
    finally:
        tracer.uninstall()
    assert (cli.COMMANDS["glue"], cli.write_text_atomic, gluing_solver.block_kernel,
            spectral_model.mode_list, cli.mode_list) == originals
    metrics = layer_metrics(tracer)
    assert metrics["spectral_model.mode_list.calls"] == 1
    assert metrics["spectral_model.modes"] == len(modes) == 507
    assert metrics["spectral_model.mode_families"] == 27 + 27
    assert metrics["spectral_density.window_hit_share"] == 0.0
