"""The benchmark's fixed workloads and the configs they write from a seed.

Each workload is a list of CLI commands that share one config. The seed
only moves inputs that leave the problem size alone: the config ``seed``
field (glue sources, seeded cylinder sections, pairing cases) and, for
``density-torus``, the window parameters s, which are drawn inside
intervals that keep every closed-form count away from a tie and the
number of eigenvalues computed per mode fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# the two kernel-bearing Neumann blocks of the glue workloads
KERNEL_BLOCKS = [
    {"L": 2.0, "boundary": "neumann", "mu": 1.0,
     "potentials": {"0": {"profile": "kernel_neumann", "c": 0.8}}},
    {"L": 2.0, "boundary": "neumann", "mu": 1.0,
     "potentials": {"0": {"profile": "kernel_neumann", "c": -0.35}}},
]

# flat Neumann blocks of length 0: the glued operator of every mode is nu
# plus the Neumann second difference, whose spectrum is known in closed form
FLAT_BLOCKS = [
    {"L": 0.0, "boundary": "neumann", "mu": 1.0},
    {"L": 0.0, "boundary": "neumann", "mu": 1.0},
]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    # the worker.py probe kind whose speed this workload's time follows
    probe: str

    def config(self, seed: int) -> dict:
        return CONFIGS[self.name](seed)


def _glue_torus(seed: int) -> dict:
    # at T = 10 and 20 the exact solver's round count depends on the source;
    # at 16, 24 and 40 it is 2, 1 and 1 for every seed tried
    return {"spectrum": "torus2", "degrees": [1], "h": 1 / 16, "T": [16, 24, 40],
            "seed": seed, "blocks": KERNEL_BLOCKS}


def _glue_scalar_fine(seed: int) -> dict:
    # at T = 40 the exact solver stops after one or two rounds depending on
    # the source, as its residual sits at the 1e-9 stopping test; T = 30
    # takes one round for every source
    return {"spectrum": "scalar", "degrees": [0], "h": 1 / 128, "T": [10, 20, 30],
            "seed": seed, "blocks": KERNEL_BLOCKS}


def density_s_values(seed: int) -> list[float]:
    """sqrt(s) = m + 0.1 + 0.08 u for m = 2..5 and u uniform in [0, 1).

    The zero-mode count in (0, pi^2 s / T^2] is floor(2 sqrt(s)) up to a
    discretization shift far below 0.1, so no s sits at a count jump. The
    sweep computes ceil(2.5 sqrt(max s)) + 8 eigenvalues per mode, which is
    21 for every seed, as 2.5 sqrt(s) stays in [12.75, 12.95)."""
    rng = random.Random(seed)
    return [round((m + 0.1 + 0.08 * rng.random()) ** 2, 6) for m in (2, 3, 4, 5)]


def _density_torus(seed: int) -> dict:
    return {"spectrum": "torus2", "degrees": [0, 1, 2], "T": [10, 20],
            "s": density_s_values(seed), "seed": seed, "blocks": FLAT_BLOCKS}


def _cylinder_calculus(seed: int) -> dict:
    return {"spectrum": "torus2", "degrees": [1], "h": 1 / 64, "T": [5, 10, 20, 40],
            "seed": seed}


CONFIGS = {
    "glue-torus": _glue_torus,
    "glue-scalar-fine": _glue_scalar_fine,
    "density-torus": _density_torus,
    "cylinder-calculus": _cylinder_calculus,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("glue-torus", ("glue",), "interpreter"),
        Workload("glue-scalar-fine", ("glue",), "interpreter"),
        Workload("density-torus", ("density",), "lapack"),
        Workload("cylinder-calculus", ("roots", "q0check", "paircheck"), "interpreter"),
    )
}
