"""End-to-end acceptance checks, one test per headline claim.

Each test prints a single PASS/FAIL line with its measured numbers and
runtime (visible under `pytest tests/test_acceptance.py -v -s`) and fails
if any stated tolerance or the runtime budget is exceeded.
"""

import math
import time
from fractions import Fraction

import numpy as np

from neckspec import spectral_density as sd
from neckspec.glued_model import (
    BuildingBlock,
    assemble,
    kernel_potential_dirichlet,
    kernel_potential_neumann,
)
from neckspec.gluing_solver import (
    characteristic_solve,
    characteristic_system,
    norm,
    solve_direct,
    solve_exact,
    substitute_kernel,
)
from neckspec.neck_inverse import (
    duality_check,
    operator_norm_fit,
    q0_apply,
    residual_on_support,
    seeded_section,
)
from neckspec.polyhom import (
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
from neckspec.rng import SplitMix64
from neckspec.spectral_model import (
    KIND_DIRAC,
    KIND_LAPLACE,
    ModeOperator,
    scalar_spectrum,
    torus2_spectrum,
)

SCALAR = scalar_spectrum()
DOUBLED = scalar_spectrum(pairs=((0.0, 2),))
TORUS = torus2_spectrum()


def _report(number, name, t0, limit, ok, detail):
    elapsed = time.monotonic() - t0
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{verdict} criterion {number} ({name}): {detail} [{elapsed:.1f}s / {limit}s]")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def _sech_blocks(mu=1.0, c1=0.8, c2=-0.35, L=2.0, spec=SCALAR, idxs=(0,)):
    cs = {0: (c1, c2), 1: (0.55, -0.2)}
    b1 = BuildingBlock(spec=spec, L=L, boundary="neumann", mu=mu,
                       potentials={i: kernel_potential_neumann(mu, cs[i][0]) for i in idxs})
    b2 = BuildingBlock(spec=spec, L=L, boundary="neumann", mu=mu,
                       potentials={i: kernel_potential_neumann(mu, cs[i][1]) for i in idxs})
    return b1, b2


def _seeded_glued(G, seed):
    gen = SplitMix64(seed)
    shape = (len(G.modes), G.n_points)
    f = np.array(gen.uniforms(shape[0] * shape[1], -1.0, 1.0)).reshape(shape).astype(complex)
    f += 1j * np.array(gen.uniforms(shape[0] * shape[1], -1.0, 1.0)).reshape(shape)
    return f


def test_criterion_1_right_inverse():
    t0 = time.monotonic()
    modes = (
        ModeOperator(KIND_LAPLACE, 0.0, "alpha"),
        ModeOperator(KIND_DIRAC, 0.0, "alpha"),
        ModeOperator(KIND_LAPLACE, 1.0, "beta"),
        ModeOperator(KIND_LAPLACE, 4.0, "alpha"),
    )
    ok = True
    worst64 = worst_ratio = 0.0
    for seed in range(5):
        res = []
        for h in (1.0 / 64, 1.0 / 128):
            f = seeded_section(modes, 7.0, 5.0, h, seed=seed)
            res.append(residual_on_support(q0_apply(f), f))
        ok &= res[0] <= 1e-3 and res[1] <= res[0] / 3.0
        worst64 = max(worst64, res[0])
        worst_ratio = max(worst_ratio, res[1] / res[0])
    fits = {}
    bands = {KIND_LAPLACE: (1.8, 2.2), KIND_DIRAC: (0.8, 1.2)}
    for kind, (lo, hi) in bands.items():
        fit = operator_norm_fit(kind, (5.0, 10.0, 20.0, 40.0))
        fits[kind] = fit.exponent
        ok &= lo <= fit.exponent <= hi
    _report(
        1, "right inverse", t0, 10.0, ok,
        f"residual {worst64:.2e} <= 1e-3 at h=1/64, halving ratio {worst_ratio:.2f} <= 1/3, "
        f"norm exponents laplace {fits[KIND_LAPLACE]:.2f} dirac {fits[KIND_DIRAC]:.2f}",
    )


def test_criterion_2_pairing_calculus():
    t0 = time.monotonic()
    ok = True
    rng = SplitMix64(1)
    op = LaplaceZero(1, 1)
    worst = worst_chi = 0.0
    for case in range(100):
        z = rng.uniforms(8, -1.0, 1.0) + 1j * rng.uniforms(8, -1.0, 1.0)
        u = affine_section(z[0:2], z[2:4])
        v = affine_section(z[4:6], z[6:8])
        closed = pairing_closed(op, u, v)
        quad = pairing_integral(op, u, v)
        scale = 1.0 + abs(closed)
        worst = max(worst, abs(quad - closed) / scale)
        if case % 5 == 0:
            center = float(rng.uniforms(1, -3.0, 3.0)[0])
            moved = pairing_integral(op, u, v, CutoffFunction(center))
            worst_chi = max(worst_chi, abs(moved - quad) / scale)
    ok &= worst <= 1e-8 and worst_chi <= 1e-8
    for op2 in (LaplaceZero(1, 1), DiracZero(1)):
        basis = standard_kernel_basis(op2)
        ok &= gram_matrix(op2, basis, basis).full_rank
    exact = 0
    for case in range(20):
        ints = [int(round(x)) for x in rng.uniforms(4, -9.0, 9.0)]
        dens = [max(1, int(round(x))) for x in rng.uniforms(4, 1.0, 9.0)]
        f = [np.array([Fraction(p, d)], dtype=object) for p, d in zip(ints, dens)]
        back = apply_P(LaplaceZero(1, 0), q_lambda0(LaplaceZero(1, 0), f))
        exact += dump(back) == dump(PolyhomSection(1, tuple(f)))
    ok &= exact == 20
    _report(
        2, "pairing calculus", t0, 5.0, ok,
        f"100 pairings worst {worst:.1e} <= 1e-8, chi shift worst {worst_chi:.1e}, "
        f"Gram full rank, right-inverse identity exact {exact}/20",
    )


def test_criterion_3_duality_law():
    t0 = time.monotonic()
    modes = (
        ModeOperator(KIND_LAPLACE, 0.0, "alpha"),
        ModeOperator(KIND_LAPLACE, 0.0, "beta"),
        ModeOperator(KIND_DIRAC, 0.0, "alpha"),
        ModeOperator(KIND_LAPLACE, 1.0, "alpha"),
    )
    worst = 0.0
    ok = True
    for seed in range(100):
        f = seeded_section(modes, 6.0, 2.0, 1.0 / 16, seed=seed)
        coeff = np.cos(seed + np.arange(8.0))
        v = PolyhomSection(4, (coeff[:4], np.array([coeff[4], coeff[5], 0.0, 0.0])))
        pair, l2, gap = duality_check(f, v)
        scale = 1.0 + abs(pair) + abs(l2)
        ok &= gap <= 1e-6 * scale
        worst = max(worst, gap / scale)
    _report(3, "duality law", t0, 5.0, ok,
            f"|(u_f, v) - <f, v>| worst {worst:.1e} <= 1e-6 on 100 seeded cases")


def test_criterion_4_characteristic_classification():
    t0 = time.monotonic()
    h = 1.0 / 16
    flat_n = BuildingBlock(spec=SCALAR, L=2.0, boundary="neumann", mu=1.0, potentials={})
    flat_d = BuildingBlock(spec=SCALAR, L=2.0, boundary="dirichlet", mu=1.0, potentials={})
    sech_n = BuildingBlock(spec=SCALAR, L=2.0, boundary="neumann", mu=2.0,
                           potentials={0: kernel_potential_neumann(2.0, 0.8)})
    tanh_d = BuildingBlock(spec=SCALAR, L=2.0, boundary="dirichlet", mu=2.0,
                           potentials={0: kernel_potential_dirichlet(2.0)})
    d1, d2 = _sech_blocks(spec=DOUBLED, idxs=(0, 1))
    configs = (
        (flat_n, flat_d, SCALAR, 0),
        (sech_n, tanh_d, SCALAR, 1),
        (d1, d2, DOUBLED, 2),
    )
    ok = True
    dims = []
    errors = 0
    for b1, b2, spec, want_dim in configs:
        G = assemble(b1, b2, spec, 0, T=12.0, h=h)
        S = substitute_kernel(G)
        dims.append(S.dim)
        ok &= S.dim == want_dim
        for seed in range(50):
            f = S.project_off(_seeded_glued(G, 1000 * want_dim + seed))
            nf = norm(G, f)
            cons = characteristic_solve(characteristic_system(G, S, f)).consistency
            if cons > 1e-6 * nf:
                errors += 1
            if S.dim:
                bad = np.array(f)
                mode, khat = S.basis[seed % S.dim]
                bad[mode] += 0.1 * nf * khat
                cons_bad = characteristic_solve(characteristic_system(G, S, bad)).consistency
                if cons_bad <= 1e-6 * norm(G, bad):
                    errors += 1
    ok &= errors == 0
    _report(
        4, "characteristic classification", t0, 30.0, ok,
        f"dim K_T covered {dims}, {errors} classification errors over "
        f"50 seeded sources per configuration at tol 1e-6",
    )


def test_criterion_5_exact_solver():
    t0 = time.monotonic()
    h = 1.0 / 32
    mu = 1.0
    b1, b2 = _sech_blocks(mu=mu)
    ok = True

    G = assemble(b1, b2, SCALAR, 0, T=12.0, h=h)
    S = substitute_kernel(G)
    f = S.project_off(_seeded_glued(G, 77))
    report = solve_exact(G, S, f)
    direct = solve_direct(G, S, f)
    mismatch = norm(G, report.u - direct) / max(norm(G, direct), 1e-30)
    ok &= mismatch <= 1e-6

    etas = []
    for T in (16.0, 24.0):
        G = assemble(b1, b2, SCALAR, 0, T=T, h=h)
        S = substitute_kernel(G)
        t = G.grid()
        f = np.zeros((1, G.n_points), dtype=complex)
        f[0] = np.exp(-(t**2)) * (1.0 + 0.3 * t)
        rep = solve_exact(G, S, S.project_off(f))
        etas.append(rep.contraction[0])
    slope = (math.log(etas[1]) - math.log(etas[0])) / 8.0
    target = -0.9 * mu
    ok &= abs(slope - target) <= 0.2 * abs(target)

    ratios = []
    Ts = (10.0, 20.0, 40.0)
    for T in Ts:
        G = assemble(b1, b2, SCALAR, 0, T=T, h=h)
        S = substitute_kernel(G)
        t = G.grid()
        f = np.zeros((1, G.n_points), dtype=complex)
        f[0] = np.exp(-((np.abs(t) - T / 2) ** 2))
        rep = solve_exact(G, S, S.project_off(f))
        ratios.append(norm(G, rep.u) / norm(G, f))
    growth = float(np.polyfit(np.log(Ts), np.log(ratios), 1)[0])
    ok &= growth <= 1.2
    _report(
        5, "exact solver", t0, 60.0, ok,
        f"direct-solve mismatch {mismatch:.1e} <= 1e-6, eta slope {slope:.3f} "
        f"within 20% of {target}, growth exponent {growth:.2f} <= 1.2 (h=1/32)",
    )


def test_criterion_6_eigenvalue_floor_and_ceiling():
    t0 = time.monotonic()
    c = 0.3
    ok = True
    seen = []
    flat = BuildingBlock(spec=SCALAR, L=0.0, boundary="neumann", mu=1.0, potentials={})
    sech1, sech2 = _sech_blocks(mu=1.0)
    for b1, b2 in ((flat, flat), (sech1, sech2)):
        for T in (20.0, 40.0, 80.0):
            G = assemble(b1, b2, SCALAR, 0, T=T, h=1.0 / 16)
            lo, up = sd.scalar_lambda1_bounds(G)
            seen.append(lo * T * T)
            ok &= c <= lo * T * T and lo <= up and up * T * T <= 6.3
    _report(
        6, "eigenvalue floor and ceiling", t0, 60.0, ok,
        f"lambda_1 T^2 in [{min(seen):.2f}, {max(seen):.2f}] within [{c}, 6.3] "
        f"for flat and kernel-bearing scalar models, T in (20, 40, 80)",
    )


def test_criterion_7_density_law():
    t0 = time.monotonic()
    s_values = (4.41, 9.61, 16.81, 25.21)
    T_values = (20.0, 40.0, 80.0)
    sech1, sech2 = _sech_blocks(mu=1.0)
    flat3 = BuildingBlock(spec=TORUS, L=0.0, boundary="neumann", mu=1.0, potentials={})

    def scalar_builder(T):
        return assemble(sech1, sech2, SCALAR, 0, T=T, h=1.0 / 16)

    def torus_builder(T):
        return assemble(flat3, flat3, TORUS, 1, T=T, h=1.0 / 16, cutoff=0.9)

    ok = True
    details = []
    for builder, q, B in ((scalar_builder, 0, 1), (torus_builder, 1, 3)):
        rep = sd.density_sweep([builder(T) for T in T_values], s_values)
        ok &= rep.B == B
        r0 = 2 * B + 3
        ok &= rep.max_residual <= r0
        branch_worst = 0.0
        for i in range(len(T_values)):
            for j, s in enumerate(s_values):
                ex, co = rep.coexact[i][j]
                branch_worst = max(
                    branch_worst,
                    abs(ex - 2.0 * rep.b_exact * math.sqrt(s)),
                    abs(co - 2.0 * rep.b_coexact * math.sqrt(s)),
                )
        ok &= branch_worst <= r0
        details.append(f"B={B}: residual {rep.max_residual:.2f}, branches {branch_worst:.2f} <= R0={r0}")
    _report(7, "density law", t0, 300.0, ok, "; ".join(details))


def test_criterion_8_minmax_machinery():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        sd.assert_space_dimensions(n)  # raises on any rank mismatch
    worst_h = 0.0
    for coeffs, T in (
        ({1: 4.0, 2: 32.0, 3: 36.0}, 6.0),
        ({1: 2.0, -1: 2.0, 2: 16.0, -2: 16.0, 3: 18.0, -3: 18.0}, 10.0),
    ):
        dev = sd.h_operator_check(coeffs, T=T)
        nrm = sd.fourier_l2_norm(coeffs, T)
        ok &= dev <= 1e-6 * nrm
        worst_h = max(worst_h, dev / nrm)
    flat = BuildingBlock(spec=SCALAR, L=0.0, boundary="neumann", mu=1.0, potentials={})
    flat3 = BuildingBlock(spec=TORUS, L=0.0, boundary="neumann", mu=1.0, potentials={})
    bounds = []
    for G, n in (
        (assemble(flat, flat, SCALAR, 0, T=20.0, h=1.0 / 16), 2),
        (assemble(flat, flat, SCALAR, 0, T=20.0, h=1.0 / 16), 3),
        (assemble(flat3, flat3, TORUS, 1, T=20.0, h=1.0 / 16, cutoff=0.9), 2),
    ):
        # raises unless at least (2n-2)B - dim K_T eigenvalues sit below
        # (1 + 0.05)(n pi)^2 / T^2
        bound = sd.minmax_upper_from_Vn(G, n)
        bounds.append(bound * G.T**2 / (n * math.pi) ** 2)
    ok &= all(b <= 1.05 for b in bounds)
    _report(
        8, "min-max machinery", t0, 30.0, ok,
        f"rank certificates for n in (2, 3, 4); H-operator deviation {worst_h:.1e} <= 1e-6; "
        f"trial bounds at {max(bounds):.3f} of (n pi)^2/T^2 with counts certified",
    )


def test_criterion_9_substitute_kernel_angles():
    t0 = time.monotonic()
    mu = 0.6
    # identical blocks keep the T = 40 sine an order above the eigensolver
    # floor, where the fitted slope is still trustworthy
    b1, b2 = _sech_blocks(mu=mu, c2=0.8)
    Ts = (10.0, 20.0, 40.0)
    sines = []
    for T in Ts:
        G = assemble(b1, b2, SCALAR, 0, T=T, h=1.0 / 16)
        sines.append(float(np.max(sd.principal_angle_sines(G, substitute_kernel(G)))))
    slope = float(np.polyfit(Ts, np.log(sines), 1)[0])
    target = -0.9 * mu
    ok = abs(slope - target) <= 0.2 * abs(target) and sines[0] > sines[1] > sines[2]
    _report(
        9, "substitute kernel angles", t0, 30.0, ok,
        f"principal-angle sines {sines[0]:.1e} -> {sines[2]:.1e}, "
        f"fitted slope {slope:.3f} within 20% of {target:.2f}",
    )
