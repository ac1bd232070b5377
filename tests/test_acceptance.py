"""Acceptance gate: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them
inline).  Tolerances are pinned here and nowhere else."""

import math
import time

import mpmath as mp
import numpy as np

from ptstack import (
    Layer,
    PeriodicSpec,
    PotentialStack,
    TransferMatrix,
    barrier_matrix,
    build_alternating,
    cheb_pair_from_gap,
    convergence_study,
    fit_loglog_slope,
    generalized_limit_study,
    incidence_scattering,
    integrate_transfer_matrix,
    periodic_matrix,
    slab_propagation_matrix,
    transmission_surface,
    unit_cell_elements,
    unit_cell_matrix,
)
from conftest import as_array, cell_from_barriers, cheb_pair_at, surface_points

_DBL_MAX_LOG = math.log(1.7976931348623157e308)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _entry_diff(a: TransferMatrix, b: TransferMatrix) -> float:
    return float(np.max(np.abs(as_array(a) - as_array(b))))


def _scaled_diff(a: TransferMatrix, b: TransferMatrix) -> float:
    aa, bb = as_array(a), as_array(b)
    scale = max(1.0, float(np.max(np.abs(aa))), float(np.max(np.abs(bb))))
    return float(np.max(np.abs(aa - bb))) / scale


def test_criterion_1_free_space_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 10, 10**3, 10**6):
        for k in (0.5, 5.0, 20.0):
            m = periodic_matrix(PeriodicSpec(v=1e-12, n_cells=n, total_length=1.0), k)
            worst = max(worst, _entry_diff(m, TransferMatrix.identity(k)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(1, ok, f"free-space identity: max |entry - I| = {worst:.3e} (<= 1e-10), {elapsed:.2f}s (< 1s)")


def test_criterion_2_unit_cell_closed_form():
    t0 = time.perf_counter()
    worst_comp, worst_ode = 0.0, 0.0
    for k in (0.5, 1.0, 2.0, 5.0, 10.0):
        for v in (1.0, 40.0, 100.0):
            for b in (0.01, 0.05, 0.5):
                cell = unit_cell_matrix(k, v, b)
                comp = cell_from_barriers(k, v, b)
                stack = PotentialStack([Layer(1j * v, b, 0.0), Layer(-1j * v, b, b)])
                ode = integrate_transfer_matrix(stack, k)
                worst_comp = max(worst_comp, _entry_diff(cell, comp))
                worst_ode = max(worst_ode, _entry_diff(cell, ode))
    elapsed = time.perf_counter() - t0
    ok = worst_comp <= 1e-8 and worst_ode <= 1e-8 and elapsed < 30.0
    _report(
        2,
        ok,
        f"cell closed form: |cell - two-slab| = {worst_comp:.3e}, "
        f"|cell - ODE| = {worst_ode:.3e} (<= 1e-8), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_chebyshev_composition():
    t0 = time.perf_counter()
    worst = 0.0
    for k in (0.5, 1.0, 2.0, 5.0, 10.0):
        for v in (1.0, 40.0, 100.0):
            for n in (1, 2, 7, 32, 64):
                cheb = as_array(periodic_matrix(PeriodicSpec(v=v, n_cells=n, total_length=1.0), k))
                prod = as_array(slab_propagation_matrix(build_alternating(0.0, v, 1.0, n, 1.0), k))
                rel = np.abs(cheb - prod) / np.maximum(np.abs(cheb), np.abs(prod))
                worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(3, ok, f"closed form vs slab tier: max rel = {worst:.3e} (<= 1e-9), {elapsed:.1f}s (< 30s)")


def test_criterion_4_transmission_surface_band():
    t0 = time.perf_counter()
    n_values = sorted({int(round(x)) for x in np.linspace(500, 2000, 16)})
    k_values = [float(x) for x in np.linspace(1.0, 10.0, 181)]
    points = surface_points(transmission_surface(40.0, 1.0, n_values, k_values))
    asserted = [big_t for _, k, big_t, *_ in points if k >= 2.0]
    reported = [big_t for _, k, big_t, *_ in points if k < 2.0]
    elapsed = time.perf_counter() - t0
    lo, hi = min(asserted), max(asserted)
    ok = 0.9995 <= lo and hi <= 1.0005 and elapsed < 120.0
    _report(
        4,
        ok,
        f"transmission surface: T in [{lo:.6f}, {hi:.6f}] for k >= 2 "
        f"(bounds 0.9995/1.0005); k in [1,2) band spans [{min(reported):.6f}, "
        f"{max(reported):.6f}] (reported, not asserted); {elapsed:.1f}s (< 2min)",
    )


def test_criterion_5_matrix_level_limit():
    t0 = time.perf_counter()
    ns = sorted({int(round(x)) for x in np.geomspace(100, 100000, 13)})
    records = convergence_study(5.0, 40.0, 1.0, ns)
    devs = [r.deviation_inf for r in records]
    monotone = all(b <= a * 1.02 for a, b in zip(devs, devs[1:]))
    slope = fit_loglog_slope(ns, devs)
    ratios = [
        r.offdiag_measured / r.offdiag_predicted for r in records if r.n >= 1000
    ]
    ratio_ok = all(abs(r - 1.0) <= 0.05 for r in ratios)
    elapsed = time.perf_counter() - t0
    ok = monotone and (-1.1 <= slope <= -0.9) and ratio_ok and elapsed < 10.0
    _report(
        5,
        ok,
        f"identity limit: monotone={monotone}, log-log slope = {slope:.4f} "
        f"(-1.0 +- 0.1), off-diagonal/prediction within "
        f"{max(abs(r - 1.0) for r in ratios):.3%} (<= 5%), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_6_asymptotic_predictors():
    k, v, total = 1.0, 40.0, 1.0
    kl = k * total
    worst_t, worst_u, worst_acos = 0.0, 0.0, 0.0
    for n in sorted({int(round(x)) for x in np.geomspace(1000, 100000, 17)}):
        p = unit_cell_elements(k, v, total / (2 * n))
        pair = cheb_pair_from_gap(n, p.one_minus_xi)
        worst_t = max(worst_t, abs(pair.t_n - math.cos(kl)) * n)
        worst_u = max(worst_u, abs(p.chi * pair.u_n_minus_1 - math.sin(kl)) * n)
        theta = 2.0 * math.asin(math.sqrt(p.one_minus_xi / 2.0))
        worst_acos = max(worst_acos, abs(theta - kl / n) / (kl / n))
    # C bounds pinned at twice the measured envelope (0.0141 and 0.0511).
    ok = worst_t <= 0.03 and worst_u <= 0.11 and worst_acos <= 1e-4
    _report(
        6,
        ok,
        f"predictors: |T_N - cos kL|*N <= {worst_t:.4f} (0.03), "
        f"|chi U - sin kL|*N <= {worst_u:.4f} (0.11), "
        f"arccos vs kL/N rel err {worst_acos:.2e} (<= 1e-4)",
    )


def test_criterion_7_generalized_real_barrier():
    t0 = time.perf_counter()
    ns = [128, 256, 512, 1024, 2048]
    res = generalized_limit_study(7.0, 40.0, 1.0, 1.0, ns, 3.0)
    height_err = abs(res.effective_height - 7.0)
    target = barrier_matrix(3.0, 7.0, 1.0, 0.0)
    devs = [
        _entry_diff(slab_propagation_matrix(build_alternating(7.0, 40.0, 1.0, n, 1.0), 3.0), target)
        for n in ns
    ]
    slope = fit_loglog_slope(ns, devs)
    elapsed = time.perf_counter() - t0
    ok = height_err <= 0.05 and (-1.15 <= slope <= -0.85) and res.converged and elapsed < 60.0
    _report(
        7,
        ok,
        f"balanced-general case: |U_eff - 7| = {height_err:.2e} (<= 0.05), "
        f"deviation slope vs real barrier = {slope:.3f} (~ -1), {elapsed:.1f}s (< 1min)",
    )


def test_criterion_8_oracle_self_consistency():
    t0 = time.perf_counter()
    worst_tier, worst_t = 0.0, 0.0
    for k in (0.5, 1.0, 2.0, 5.0, 10.0):
        for v in (1.0, 40.0, 100.0):
            for b in (0.01, 0.05, 0.5):
                stack = PotentialStack([Layer(1j * v, b, 0.0), Layer(-1j * v, b, b)])
                ode = integrate_transfer_matrix(stack, k)
                slab = slab_propagation_matrix(stack, k)
                worst_tier = max(worst_tier, _scaled_diff(ode, slab))
                t_l, _ = incidence_scattering(stack, k, "left")
                t_r, _ = incidence_scattering(stack, k, "right")
                worst_t = max(worst_t, abs(t_l - t_r))
    elapsed = time.perf_counter() - t0
    ok = worst_tier <= 1e-9 and worst_t <= 1e-8
    _report(
        8,
        ok,
        f"oracle tiers: ODE vs per-slab = {worst_tier:.3e} (<= 1e-9, entry-scaled), "
        f"left vs right transmission = {worst_t:.3e} (<= 1e-8), {elapsed:.1f}s",
    )


def test_criterion_9_chebyshev_identities():
    rng = np.random.default_rng(424242)
    worst_pell = 0.0
    overflowed = 0
    for _ in range(10**4):
        n = int(rng.integers(0, 10**6 + 1))
        x = float(rng.uniform(-1.5, 1.5))
        pair = cheb_pair_at(n, x)
        t, u = pair.t_n, pair.u_n_minus_1
        if math.isinf(t) or math.isinf(u):
            # genuine overflow of the true value: log magnitude beyond double
            assert abs(x) > 1.0
            y = n * math.acosh(abs(x))
            if math.isinf(t):
                assert y - math.log(2.0) >= _DBL_MAX_LOG - 1.0
            if math.isinf(u):
                assert y - math.log(2.0) - 0.5 * math.log(x * x - 1.0) >= _DBL_MAX_LOG - 1.0
            overflowed += 1
            continue
        with mp.workdps(60):
            tt = mp.mpf(t) ** 2
            uu = (mp.mpf(x) ** 2 - 1) * mp.mpf(u) ** 2
            defect = float(abs(tt - uu - 1) / max(mp.mpf(1), abs(tt), abs(uu)))
        worst_pell = max(worst_pell, defect)

    worst_rec = 0.0
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 1001))
        x = float(rng.uniform(-1.5, 1.5))
        if abs(x) > 1.0 and n * math.acosh(abs(x)) > 600.0:
            continue
        t_prev, t_cur, u_prev, u_cur = 1.0, x, 0.0, 1.0
        for _ in range(n - 1):
            t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
            u_prev, u_cur = u_cur, 2.0 * x * u_cur - u_prev
        pair = cheb_pair_at(n, x)
        scale_t = max(1.0, abs(t_cur))
        scale_u = max(1.0, abs(u_cur))
        worst_rec = max(
            worst_rec,
            abs(pair.t_n - t_cur) / scale_t,
            abs(pair.u_n_minus_1 - u_cur) / scale_u,
        )
        checked += 1
    ok = worst_pell <= 1e-9 and worst_rec <= 1e-9
    _report(
        9,
        ok,
        f"Chebyshev: Pell defect = {worst_pell:.3e} (<= 1e-9 over 1e4 samples, "
        f"{overflowed} genuine double-range overflows verified), "
        f"recurrence agreement = {worst_rec:.3e} (<= 1e-9)",
    )
