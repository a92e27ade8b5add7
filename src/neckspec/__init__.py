"""Separated-variables model of elliptic operators on manifolds glued
along long cylindrical necks.

The cross-section enters only through its form-Laplacian spectrum, so
every computation reduces to families of ordinary differential operators
on an interval: mode calculus and resolvent data (:mod:`.spectral_model`),
polynomial zero-mode sections and the boundary pairing (:mod:`.polyhom`), the
right inverse on the infinite cylinder (:mod:`.neck_inverse`), glued
discrete operators (:mod:`.glued_model`), the characteristic system and
neck solvers (:mod:`.gluing_solver`), and low-eigenvalue counting
(:mod:`.spectral_density`).
"""

from . import (
    glued_model,
    gluing_solver,
    neck_inverse,
    polyhom,
    rng,
    spectral_density,
    spectral_model,
)

__all__ = [
    "glued_model",
    "gluing_solver",
    "neck_inverse",
    "polyhom",
    "rng",
    "spectral_density",
    "spectral_model",
]
