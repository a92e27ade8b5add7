"""Glued operators: assembly geometry, block kernels, eigenvalues."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckspec import glued_model
from neckspec.errors import (
    AnalysisError,
    ContractViolation,
    SpectrumFormatError,
)
from neckspec.glued_model import (
    DIRICHLET,
    NEUMANN,
    BuildingBlock,
    Potential,
    assemble,
    block_kernel,
    eigen_lowest,
    kernel_potential_dirichlet,
    kernel_potential_neumann,
    load_block,
)
from neckspec.spectral_model import circle_spectrum, mode_list, scalar_spectrum, torus2_spectrum

SCALAR = scalar_spectrum()
H = 1.0 / 16


def flat_block(spec=SCALAR, boundary=NEUMANN, L=0.0, mu=1.0):
    return BuildingBlock(spec=spec, L=L, boundary=boundary, mu=mu)


def least_reach_kernel(block, spec, q, h=H):
    """The block kernel of every mode, shot to the least reach the block's
    decay rate asks for (a reach of 0 is raised to it)."""
    return block_kernel(block, spec, q, h, math.inf, 0.0, None)


def exp_potential(amp, rate, declared=None):
    return Potential(lambda s, h: amp * np.exp(-rate * s), declared or rate)


# ---------------------------------------------------------------------------
# exact interval spectra

# cell-centered tridiagonal eigenvalues on N cells of step h:
#   Neumann-Neumann   (4/h^2) sin^2(k pi / (2N)),        k = 0 .. N-1
#   Neumann-Dirichlet (4/h^2) sin^2((2k+1) pi / (4N)),   k = 0 .. N-1
#   Dirichlet-Dirichlet uses the NN formula with k = 1 .. N


def test_free_neumann_interval_matches_closed_form():
    G = assemble(flat_block(), flat_block(), SCALAR, 0, T=3.0, h=H)
    n = G.n_points
    got = eigen_lowest(G, 5).values()
    want = (4 / H**2) * np.sin(np.arange(5) * math.pi / (2 * n)) ** 2
    assert np.allclose(got, want, rtol=0, atol=1e-8 * (1 + want[-1]))


def test_mixed_boundary_interval_matches_closed_form():
    G = assemble(flat_block(), flat_block(boundary=DIRICHLET), SCALAR, 0, T=3.0, h=H)
    n = G.n_points
    got = eigen_lowest(G, 4).values()
    want = (4 / H**2) * np.sin((2 * np.arange(4) + 1) * math.pi / (4 * n)) ** 2
    assert np.allclose(got, want, rtol=0, atol=1e-8 * (1 + want[-1]))


def test_double_dirichlet_interval_matches_closed_form():
    G = assemble(
        flat_block(boundary=DIRICHLET), flat_block(boundary=DIRICHLET), SCALAR, 0, T=2.0, h=H
    )
    n = G.n_points
    got = eigen_lowest(G, 3).values()
    want = (4 / H**2) * np.sin(np.arange(1, 4) * math.pi / (2 * n)) ** 2
    assert np.allclose(got, want, rtol=0, atol=1e-8 * (1 + want[-1]))


def test_neumann_zero_mode_annihilates_constants_exactly():
    G = assemble(flat_block(), flat_block(), SCALAR, 0, T=4.0, h=H)
    out = G.apply_mode(0, np.ones(G.n_points))
    assert np.all(out == 0.0)


def test_grid_covers_glued_interval():
    b1 = flat_block(L=2.0)
    b2 = flat_block(L=1.0)
    G = assemble(b1, b2, SCALAR, 0, T=3.0, h=H)
    t = G.grid()
    assert len(t) == G.n_points == round(9.0 / H)
    assert t[0] == pytest.approx(-5.0 + H / 2)
    assert t[-1] == pytest.approx(4.0 - H / 2)


def test_apply_matches_dense_matvec():
    b1 = BuildingBlock(SCALAR, L=1.0, boundary=NEUMANN, mu=1.0,
                       potentials={0: exp_potential(0.4, 1.0)})
    G = assemble(b1, flat_block(boundary=DIRICHLET), SCALAR, 0, T=2.0, h=H)
    diag, off = G.mats[0]
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    rng = np.random.default_rng(7)
    u = rng.normal(size=G.n_points) + 1j * rng.normal(size=G.n_points)
    assert np.allclose(G.apply_mode(0, u), dense @ u, rtol=1e-12, atol=1e-9)


def _two_product_stencil(diag, off, u):
    # a test-local copy of the stencil the flat adds replaced: two strided
    # products added into shifted slices, off a full vector
    out = diag * u
    out[..., :-1] += off * u[..., 1:]
    out[..., 1:] += off * u[..., :-1]
    return out


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [1, 2, 24])
@pytest.mark.parametrize("n", [1, 2, 3, 1344])
def test_stencil_matches_the_two_product_form_bit_for_bit(dtype, k, n):
    # every row mixes signed zeros, subnormals, infinities and magnitudes
    # across e^(+-60), so a row-end value carried across a row boundary, or
    # any reordered sum, changes some bit; the byte view counts -0 apart
    rng = np.random.default_rng(k * 10000 + n)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf])

    def samples(shape):
        x = rng.normal(size=shape) * np.exp(rng.uniform(-60.0, 60.0, size=shape))
        hit = rng.random(shape) < 0.3
        x[hit] = rng.choice(special, size=int(hit.sum()))
        return x

    c = -1.0 / H**2
    diag = samples(n)
    with np.errstate(invalid="ignore", over="ignore"):
        u = samples((k, n)) if dtype is float else samples((k, n)) + 1j * samples((k, n))
    for case in (u, np.asfortranarray(u), u[0]):
        with np.errstate(invalid="ignore", over="ignore"):
            got = glued_model.stencil(diag, c, case)
            want = _two_product_stencil(diag, np.full(n - 1, c), case)
        assert got.shape == want.shape == case.shape and got.dtype == want.dtype
        assert (np.ascontiguousarray(got).view(np.uint8).tobytes()
                == np.ascontiguousarray(want).view(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# gluing geometry


def test_potentials_fade_to_zero_across_the_neck_center():
    b1 = BuildingBlock(SCALAR, L=2.0, boundary=NEUMANN, mu=1.0,
                       potentials={0: exp_potential(1.0, 1.0)})
    b2 = BuildingBlock(SCALAR, L=1.0, boundary=NEUMANN, mu=1.0,
                       potentials={0: exp_potential(2.0, 1.5, declared=1.0)})
    T = 4.0
    G = assemble(b1, b2, SCALAR, 0, T=T, h=H)
    t = G.grid()
    v = G.potentials_eff[0]
    # exactly zero through the center, untouched past the fade windows
    assert np.all(v[np.abs(t) <= 0.5] == 0.0)
    left = t <= -1.5
    assert np.array_equal(v[left], np.exp(-(t[left] + T + b1.L)))
    right = t >= 1.5
    assert np.array_equal(v[right], 2.0 * np.exp(-1.5 * (T + b2.L - t[right])))
    # on the ramps the potential sits strictly between 0 and its block value
    ramp = (-1.5 < t) & (t < -0.5)
    assert np.all((0 < v[ramp]) & (v[ramp] < np.exp(-(t[ramp] + T + b1.L))))


def test_second_block_enters_axis_reversed():
    # a potential spike near block 2's outer boundary must appear near the
    # right end of the glued interval
    spike = Potential.from_samples([(0.0, 1.0), (0.5, 1.0), (0.5625, 0.0)], mu=1.0)
    b2 = BuildingBlock(SCALAR, L=2.0, boundary=NEUMANN, mu=1.0, potentials={0: spike})
    G = assemble(flat_block(), b2, SCALAR, 0, T=3.0, h=H)
    t = G.grid()
    v = G.potentials_eff[0]
    assert np.all(v[t < 4.4] == 0.0)
    assert np.all(v[t > 4.6] > 0.9)


def test_assembly_preconditions():
    with pytest.raises(ContractViolation,
                       match="^blocks must be built on the same cross-section spectrum$"):
        assemble(flat_block(circle_spectrum()), flat_block(torus2_spectrum()),
                 circle_spectrum(), 0, T=3.0, h=H)
    with pytest.raises(ContractViolation):
        assemble(flat_block(), flat_block(), SCALAR, 0, T=3.0, h=1.0 / 8)
    with pytest.raises(ContractViolation):
        assemble(flat_block(), flat_block(), SCALAR, 0, T=1.5, h=H)
    with pytest.raises(ContractViolation):
        assemble(flat_block(), flat_block(), SCALAR, 0, T=2.03, h=H)
    with pytest.raises(ContractViolation):
        assemble(flat_block(L=0.1), flat_block(), SCALAR, 0, T=2.0, h=H)


def test_mode_floor_shifts_with_nu():
    spec = scalar_spectrum(((0.0, 1), (4.0, 1)))
    b1 = BuildingBlock(spec, L=1.0, boundary=NEUMANN, mu=1.0,
                       potentials={1: exp_potential(-0.7, 1.0)})
    G = assemble(b1, flat_block(spec), spec, 0, T=3.0, h=H)
    vmin = float(np.min(G.potentials_eff[1]))
    # the nu = 0 mode's lowest value is the flat Neumann 0, far below
    zero, nu4 = eigen_lowest(G, 1).entries
    assert zero == pytest.approx(0.0, abs=1e-9)
    assert nu4 >= 4.0 + vmin - 1e-10
    assert nu4 < 4.0 + math.pi**2 / 16


# ---------------------------------------------------------------------------
# decay contracts


def test_slow_decay_is_rejected_at_construction():
    with pytest.raises(ContractViolation, match="decay slower"):
        BuildingBlock(SCALAR, L=1.0, boundary=NEUMANN, mu=1.0,
                      potentials={0: exp_potential(0.2, 0.3, declared=1.0)})


def test_faster_than_declared_decay_is_fine():
    BuildingBlock(SCALAR, L=1.0, boundary=NEUMANN, mu=1.0,
                  potentials={0: exp_potential(0.2, 1.5, declared=1.0)})


def test_potential_needs_positive_rate():
    with pytest.raises(ContractViolation):
        Potential(lambda s, h: 0 * s, mu=0.0)


# ---------------------------------------------------------------------------
# block kernels


def test_flat_neumann_block_has_the_constant_kernel():
    data = least_reach_kernel(flat_block(L=1.0), SCALAR, 0)
    assert sum(e.bounded for e in data) == 1 and sum(e.decaying for e in data) == 0
    (el,) = data
    assert el.a == pytest.approx(1.0, abs=1e-12) and abs(el.b) < 1e-12
    assert el.bounded and not el.decaying
    assert np.all(el.samples == 1.0)


def test_flat_dirichlet_block_grows_linearly():
    data = least_reach_kernel(flat_block(L=1.0, boundary=DIRICHLET), SCALAR, 0)
    assert sum(e.bounded for e in data) == 0
    (el,) = data
    assert not el.bounded
    assert abs(el.a) < 1e-9 and abs(el.b - 1.0) < 1e-12
    s = (np.arange(len(el.samples)) + 0.5) * el.h
    assert np.allclose(el.samples, s, rtol=0, atol=1e-12)


def test_bump_slope_equals_the_resolvent_moment():
    # Neumann shooting telescopes to u' = h * sum(V u), so the affine slope
    # must reproduce that moment exactly
    bump = Potential(lambda s, h: np.where(s < 1.0, 0.1, 0.0), mu=1.0)
    block = BuildingBlock(SCALAR, L=1.0, boundary=NEUMANN, mu=1.0, potentials={0: bump})
    data = least_reach_kernel(block, SCALAR, 0)
    (el,) = data
    s = (np.arange(len(el.samples)) + 0.5) * el.h
    moment = el.h * float(np.sum(bump.values(s, el.h) * el.samples))
    assert not el.bounded
    assert el.b == pytest.approx(moment, rel=1e-10)
    assert el.b == pytest.approx(0.1, rel=0.1)


@pytest.mark.parametrize("c", [0.8, -0.35])
def test_sech_profile_gives_an_exact_neumann_kernel(c):
    mu = 0.6
    pot = kernel_potential_neumann(mu, c)
    block = BuildingBlock(SCALAR, L=2.0, boundary=NEUMANN, mu=mu, potentials={0: pot})
    data = least_reach_kernel(block, SCALAR, 0)
    assert sum(e.bounded for e in data) == 1
    (el,) = data
    s = (np.arange(len(el.samples)) + 0.5) * el.h
    w = 1.0 + c / np.cosh(mu * s)
    # shooting normalizes u(h/2) to the boundary start, so u = w / w(h/2);
    # the fitted plateau carries the leftover transient of the fit window
    assert np.allclose(el.samples, w / w[0], rtol=1e-9, atol=0)
    assert el.bounded and not el.decaying
    assert el.a == pytest.approx(1.0 / w[0], rel=1e-7)
    assert abs(el.b) < 1e-9


def test_tanh_profile_gives_an_exact_dirichlet_kernel():
    pot = kernel_potential_dirichlet(2.0)
    block = BuildingBlock(SCALAR, L=2.0, boundary=DIRICHLET, mu=2.0, potentials={0: pot})
    data = least_reach_kernel(block, SCALAR, 0)
    assert sum(e.bounded for e in data) == 1
    (el,) = data
    s = (np.arange(len(el.samples)) + 0.5) * el.h
    # the Dirichlet start is u(h/2) = h/2, so u = tanh(s) * (h/2)/tanh(h/2)
    scale = s[0] / np.tanh(s[0])
    assert np.allclose(el.samples, np.tanh(s) * scale, rtol=0, atol=1e-9)
    assert el.a == pytest.approx(scale, rel=1e-7)


def test_threshold_bound_state_fails_the_growth_certificate():
    # potential built so the Neumann shot of the nu = 0.04 mode is a decaying
    # discrete-exact solution: u = 1 on [0, 1], then a pure r^j tail; nu is
    # kept small so roundoff-seeded growth cannot overtake the tail within
    # the shooting reach
    nu, h, m = 0.04, H, 16
    twoc = 2.0 + h * h * nu
    r = (twoc - math.sqrt(twoc**2 - 4.0)) / 2.0
    n = 40 * 16
    u = np.ones(n)
    u[m:] = r ** np.arange(n - m)
    ghost = np.concatenate([[u[0]], u, [u[-1] * r]])
    v = (ghost[2:] - 2.0 * ghost[1:-1] + ghost[:-2]) / (h * h * u) - nu
    s = (np.arange(n) + 0.5) * h
    pot = Potential.from_samples(list(zip(s, v)), mu=1.0)
    spec = scalar_spectrum(((0.0, 1), (nu, 1)))
    block = BuildingBlock(spec, L=2.0, boundary=NEUMANN, mu=1.0, potentials={1: pot})
    with pytest.raises(AnalysisError, match="free-growth certificate"):
        least_reach_kernel(block, spec, 0, h=h)


def test_clean_positive_modes_are_certified():
    spec = scalar_spectrum(((0.0, 1), (1.0, 1), (4.0, 2)))
    block = BuildingBlock(spec, L=1.0, boundary=NEUMANN, mu=1.0,
                          potentials={1: exp_potential(0.3, 1.0)})
    data = least_reach_kernel(block, spec, 0)
    assert len(data) == 1


def test_only_families_that_can_hold_a_kernel_are_shot(monkeypatch):
    # a free positive family is -d^2 + nu, positive definite at every step:
    # of the 28 families of torus2, q = 1 only the zero mode with the
    # potential and the two free zero modes (one family) are shot
    spec = torus2_spectrum()
    block = BuildingBlock(spec, 2.0, NEUMANN, 1.0, {0: kernel_potential_neumann(1.0, 0.8)})
    shoot = glued_model._shoot_families
    cases = []

    def recorded(block, cs, h, reach):
        cases.extend(cs)
        return shoot(block, cs, h, reach)

    monkeypatch.setattr(glued_model, "_shoot_families", recorded)
    data = least_reach_kernel(block, spec, 1)
    assert cases == [(0, 0.0), (1, 0.0)]
    assert [e.mode_index for e in data] == [0, 1, 338]


def scalar_growth_slope(block, mode_index, nu, h, reach):
    """The per-mode growth certificate the family march replaced, kept as
    its oracle: the log slope of one shot marched with Python floats."""
    n = round(reach / h)
    s = (np.arange(n) + 0.5) * h
    pot = block.potential_for(mode_index)
    v = nu + (pot.values(s, h) if pot is not None else np.zeros(n))
    u_prev = 1.0 if block.boundary == NEUMANN else h / 2.0
    u_here = u_prev * ((1.0 if block.boundary == NEUMANN else 3.0) + h * h * v[0])
    log_scale = 0.0
    logs = np.zeros(n)
    logs[0] = math.log(abs(u_prev)) if u_prev != 0 else -math.inf
    logs[1] = math.log(abs(u_here)) if u_here != 0 else -math.inf
    for j in range(1, n - 1):
        u_next = 2.0 * u_here - u_prev + h * h * v[j] * u_here
        mag = abs(u_next)
        if mag > 1e150:
            u_next /= mag
            u_here /= mag
            log_scale += math.log(mag)
        u_prev, u_here = u_here, u_next
        logs[j + 1] = (math.log(abs(u_here)) if u_here != 0 else -math.inf) + log_scale
    window = s >= s[-1] - 2.0
    return np.polyfit(s[window], logs[window], 1)[0]


@settings(max_examples=25, deadline=None)
@given(
    boundary=st.sampled_from([NEUMANN, DIRICHLET]),
    pairs=st.lists(st.tuples(st.floats(0.05, 120.0), st.integers(1, 3)), min_size=1, max_size=5,
                   unique_by=lambda p: p[0]),
    amps=st.lists(st.floats(-0.3, 2.0), min_size=8, max_size=8),
    which=st.lists(st.booleans(), min_size=8, max_size=8),
    reach=st.sampled_from([12.0, 30.0, 45.0]),
)
def test_family_march_matches_the_per_mode_certificate(boundary, pairs, amps, which, reach):
    spec = scalar_spectrum(((0.0, 1),) + tuple(pairs))
    modes = mode_list(spec, 0, math.inf)
    pots = {i: exp_potential(amps[i % 8], 1.0) for i in range(1, len(modes)) if which[i % 8]}
    block = BuildingBlock(spec, L=1.0, boundary=boundary, mu=1.0, potentials=pots)
    families = glued_model.mode_families(modes, block.potentials)
    cases = [(members[0], nu) for (nu, _), members in families.items()]
    u, log_scale = glued_model._shoot_families(block, cases, H, reach)
    s = (np.arange(len(u)) + 0.5) * H
    grows = [c for c, (_, nu) in enumerate(cases) if nu > 0]
    slopes = glued_model._growth_slopes(s, u[:, grows], log_scale[:, grows])
    members = list(families.values())
    assert sorted(i for c in grows for i in members[c]) == list(range(1, len(modes)))
    for slope, c in zip(slopes, grows):
        # a mode with a potential shoots alone; the others share one column per nu
        assert all(modes[i].nu == cases[c][1] for i in members[c])
        assert len(members[c]) == 1 or not set(members[c]) & set(pots)
        for i in members[c]:
            want = scalar_growth_slope(block, i, modes[i].nu, H, reach)
            assert abs(slope - want) <= 1e-12 * abs(want)


def per_step_zero_mode_march(block, mode_index, h, reach):
    """The zero-mode march the tighter loop replaced, kept as its oracle:
    an index lookup and a rescale test at every step."""
    n = round(reach / h)
    s = (np.arange(n) + 0.5) * h
    pot = block.potential_for(mode_index)
    v = pot.values(s, h) if pot is not None else np.zeros(n)
    nu = 0.0
    hv = (h * h * (nu + v if nu > 0 else v)).tolist()
    u_prev = 1.0 if block.boundary == NEUMANN else h / 2.0
    u_here = u_prev * ((1.0 if block.boundary == NEUMANN else 3.0) + hv[0])
    column = [u_prev, u_here]
    for j in range(1, n - 1):
        u_next = 2.0 * u_here - u_prev + hv[j] * u_here
        if nu > 0 and abs(u_next) > 1e150:
            raise AssertionError("a zero-mode column never rescales")
        column.append(u_next)
        u_prev, u_here = u_here, u_next
    return column


@settings(max_examples=40, deadline=None)
@given(
    boundary=st.sampled_from([NEUMANN, DIRICHLET]),
    amp=st.floats(-0.4, 3.0),
    rate=st.floats(1.0, 4.0),
    L=st.sampled_from([0.0, 1.0, 2.5]),
    h=st.sampled_from([1.0 / 16, 1.0 / 32, 1.0 / 128]),
    reach=st.sampled_from([12.0, 30.0, 45.0]),
)
def test_zero_mode_march_matches_the_per_step_march(boundary, amp, rate, L, h, reach):
    pots = {0: exp_potential(amp, rate)} if amp != 0 else {}
    block = BuildingBlock(SCALAR, L=L, boundary=boundary, mu=1.0, potentials=pots)
    u, log_scale = glued_model._shoot_families(block, [(0, 0.0)], h, reach)
    assert np.array_equal(u[:, 0], per_step_zero_mode_march(block, 0, h, reach))
    assert u[:, 0].flags.c_contiguous
    assert not np.any(log_scale)


def threshold_bound_state(nu, h, m=16, n=40 * 16):
    """Samples of a potential whose Neumann shot of the nu mode is u = 1 on
    the first m cells and then a decaying discrete-exact tail."""
    twoc = 2.0 + h * h * nu
    r = (twoc - math.sqrt(twoc**2 - 4.0)) / 2.0
    u = np.ones(n)
    u[m:] = r ** np.arange(n - m)
    ghost = np.concatenate([[u[0]], u, [u[-1] * r]])
    v = (ghost[2:] - 2.0 * ghost[1:-1] + ghost[:-2]) / (h * h * u) - nu
    s = (np.arange(n) + 0.5) * h
    return Potential.from_samples(list(zip(s, v)), mu=1.0)


def test_bound_state_in_one_copy_of_a_repeated_nu_fails_by_its_index():
    nu = 0.04
    spec = scalar_spectrum(((0.0, 1), (nu, 3)))
    clean = BuildingBlock(spec, L=2.0, boundary=NEUMANN, mu=1.0)
    least_reach_kernel(clean, spec, 0, h=H)  # the clean copies pass their certificate
    block = BuildingBlock(spec, L=2.0, boundary=NEUMANN, mu=1.0,
                          potentials={2: threshold_bound_state(nu, H)})
    with pytest.raises(AnalysisError, match=r"^mode 2 \(nu = 0.04\) fails its free-growth"):
        least_reach_kernel(block, spec, 0, h=H)


def test_non_finite_potentials_are_refused():
    with pytest.raises(ContractViolation, match="finite"):
        Potential.from_samples([(0.0, 0.1), (1.0, float("nan"))], mu=1.0)
    holey = Potential(lambda s, h: np.where(s > 3.0, np.nan, np.exp(-s)), mu=1.0)
    with pytest.raises(ContractViolation, match=r"potentials\[0\]: potential is not finite"):
        BuildingBlock(SCALAR, L=1.0, boundary=NEUMANN, mu=1.0, potentials={0: holey})


def test_potential_on_a_missing_mode_is_refused():
    stray = BuildingBlock(SCALAR, L=1.0, boundary=NEUMANN, mu=1.0,
                          potentials={7: exp_potential(0.3, 1.0)})
    with pytest.raises(ContractViolation, match="block 2: potential on mode 7, but degree 0 has 1 modes"):
        assemble(flat_block(), stray, SCALAR, 0, T=2.0, h=H)
    # a mode above the cutoff is missing too
    spec = scalar_spectrum(((0.0, 1), (1.0, 1)))
    upper = BuildingBlock(spec, L=1.0, boundary=NEUMANN, mu=1.0,
                          potentials={1: exp_potential(0.3, 1.0)})
    assemble(upper, flat_block(spec), spec, 0, T=2.0, h=H)
    with pytest.raises(ContractViolation, match="mode 1"):
        assemble(upper, flat_block(spec), spec, 0, T=2.0, h=H, cutoff=0.5)


def test_affine_fit_guard_rejects_nonflat_far_fields():
    # sneak past the construction scan with a tiny amplitude, then let the
    # slow tail spoil the affine window
    sneaky = Potential(lambda s, h: 2e-4 * np.exp(-0.05 * s), mu=1.0)
    block = BuildingBlock.__new__(BuildingBlock)
    object.__setattr__(block, "spec", SCALAR)
    object.__setattr__(block, "L", 1.0)
    object.__setattr__(block, "boundary", NEUMANN)
    object.__setattr__(block, "mu", 1.0)
    object.__setattr__(block, "potentials", {0: sneaky})
    with pytest.raises(AnalysisError, match="decay contract|not affine"):
        least_reach_kernel(block, SCALAR, 0)


# ---------------------------------------------------------------------------
# eigenvalue listings


def test_eigen_lowest_merges_modes_sorted():
    spec = scalar_spectrum(((0.0, 1), (0.25, 1)))
    G = assemble(flat_block(spec), flat_block(spec), spec, 0, T=3.0, h=H)
    res = eigen_lowest(G, 3)
    assert len(res.entries) == 6
    assert res.entries[0] == pytest.approx(0.0, abs=1e-9)
    # second-lowest is the nu = 0.25 ground state, not the next interval mode
    assert res.entries[1] == pytest.approx(0.25, abs=1e-6)
    vals = res.values()
    assert np.all(np.diff(vals) >= -1e-12)


def test_eigen_lowest_clips_with_flag():
    G = assemble(flat_block(), flat_block(), SCALAR, 0, T=2.0, h=H)
    res = eigen_lowest(G, G.n_points + 5)
    assert len(res.entries) == G.n_points


def test_richardson_extrapolation_shows_second_order():
    pot = exp_potential(0.5, 2.0)
    lam = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        b1 = BuildingBlock(SCALAR, L=1.0, boundary=NEUMANN, mu=2.0, potentials={0: pot})
        b2 = BuildingBlock(SCALAR, L=1.0, boundary=NEUMANN, mu=2.0, potentials={0: pot})
        G = assemble(b1, b2, SCALAR, 0, T=3.0, h=h)
        lam.append(eigen_lowest(G, 1).values()[0])
    ratio = (lam[0] - lam[1]) / (lam[1] - lam[2])
    assert ratio == pytest.approx(4.0, rel=0.15)


# ---------------------------------------------------------------------------
# block files


def test_block_json_roundtrip(tmp_path):
    payload = {
        "L": 1.0,
        "boundary": "neumann",
        "mu": 1.0,
        "potentials": {"0": [[0.0, 0.1], [1.0, 0.1], [1.0625, 0.0]]},
    }
    path = tmp_path / "block.json"
    path.write_text(json.dumps(payload))
    block = load_block(str(path), SCALAR)
    assert block.L == 1.0 and block.boundary == NEUMANN and block.mu == 1.0
    v = block.potentials[0].values(np.array([0.5, 2.0]), H)
    assert v[0] == pytest.approx(0.1) and v[1] == 0.0


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda d: d.update(extra=1), "unknown field 'extra'"),
        (lambda d: d.pop("mu"), "missing field 'mu'"),
        (lambda d: d.update(potentials={"x": []}), "not an integer"),
        (lambda d: d.update(potentials={"0": [[1.0]]}), "rows"),
        (lambda d: d.update(potentials=[1, 2]), "expected an object"),
        (lambda d: d.update(potentials={"0": [["a", 1]]}), "potentials.'0'..0.: expected two finite"),
        (lambda d: d.update(potentials={"0": [[0.0, float("nan")]]}), "finite numbers"),
        (lambda d: d.update(mu="fast"), "mu: expected a finite number"),
    ],
)
def test_block_json_is_strict(tmp_path, mangle, message):
    payload = {"L": 0.0, "boundary": "neumann", "mu": 1.0, "potentials": {}}
    mangle(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SpectrumFormatError, match=message):
        load_block(str(path), SCALAR)
