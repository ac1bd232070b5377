import cmath
import json
import math

import numpy as np
import pytest

from ptstack import (
    barrier_matrix,
    convergence_study,
    fit_loglog_slope,
    generalized_limit_study,
    predict_asymptotics,
)
from conftest import entry_diff


def test_predictor_fields_direct_substitution():
    p = predict_asymptotics(1.0, 40.0, 1.0, 1000)
    assert p.xi_pred == pytest.approx(1.0 - 1.0 / (2.0 * 10**6), rel=1e-15)
    assert p.chi_pred == pytest.approx(1e-3, rel=1e-15)
    assert p.arccos_xi_pred == p.chi_pred
    assert p.t_n_pred == pytest.approx(math.cos(1.0), rel=1e-15)
    assert p.chi_u_pred == pytest.approx(math.sin(1.0), rel=1e-15)
    assert p.u_pred == pytest.approx(math.sin(1.0) / math.sin(1e-3), rel=1e-15)
    assert p.u_pred_small_angle == pytest.approx(1000 * math.sin(1.0), rel=1e-15)
    assert p.diag_pred == pytest.approx(cmath.exp(1j), rel=1e-15)


def test_predictor_at_k_l_pi():
    p = predict_asymptotics(math.pi, 40.0, 1.0, 10**4)
    assert p.t_n_pred == pytest.approx(-1.0, abs=1e-12)
    assert abs(p.chi_u_pred) <= 1e-12


def test_offdiag_scale_frozen_value():
    # V b/(2k) sin(kL) at (k=5, V=40, L=1, N=1000), 50-digit reference.
    p = predict_asymptotics(5.0, 40.0, 1.0, 1000)
    assert p.offdiag_scale_pred == pytest.approx(-0.001917848549326276937786, rel=1e-14)


def test_predictor_validation():
    with pytest.raises(ValueError):
        predict_asymptotics(1.0, 40.0, 1.0, 0)


def test_convergence_free_space_floor():
    records = convergence_study(2.0, 1e-12, 1.0, [10, 100, 1000])
    for r in records:
        assert r.deviation_inf <= 1e-12


def test_convergence_schedule_validation():
    with pytest.raises(ValueError):
        convergence_study(2.0, 40.0, 1.0, [10, 10])
    with pytest.raises(ValueError):
        convergence_study(2.0, 40.0, 1.0, [])


def test_convergence_slope_and_predictor_ratio():
    ns = sorted({int(round(x)) for x in np.geomspace(100, 100000, 13)})
    records = convergence_study(5.0, 40.0, 1.0, ns)
    devs = [r.deviation_inf for r in records]
    assert all(b <= a * 1.02 for a, b in zip(devs, devs[1:]))
    slope = fit_loglog_slope([r.n for r in records], devs)
    assert -1.1 <= slope <= -0.9
    for r in records:
        if r.n >= 1000:
            assert r.offdiag_measured / r.offdiag_predicted == pytest.approx(1.0, abs=0.05)
        assert r.absdet_err <= 1e-10


def test_diagonals_converge_faster_than_offdiagonals():
    records = convergence_study(5.0, 40.0, 1.0, [1000, 10000])
    for r in records:
        assert r.diag_measured_err < r.offdiag_measured / 100.0


def test_offdiagonals_at_sin_kl_zero_stay_under_envelope():
    # At kL = m*pi the leading off-diagonal term vanishes; what remains must
    # sit below the generic envelope V b/(2k) (the |sin kL| -> 1 bound).
    k, v, total = math.pi, 40.0, 1.0
    for n in (1000, 10000):
        records = convergence_study(k, v, total, [n])
        envelope = v * (total / (2 * n)) / (2 * k)
        assert records[0].offdiag_predicted <= 1e-12 * envelope
        assert records[0].offdiag_measured <= envelope


def test_fit_loglog_slope_validation():
    with pytest.raises(ValueError):
        fit_loglog_slope([10], [0.1])


def test_fit_loglog_slope_matches_polyfit():
    # The closed form against LAPACK least squares on noisy power laws, with
    # an exact zero deviation (floored at 1e-300) in the last case.
    rng = np.random.default_rng(11)
    for case in range(20):
        ns = np.unique(rng.integers(1, 10**6, size=rng.integers(2, 30)))
        if len(ns) < 2:
            continue
        devs = ns ** rng.uniform(-3.0, 1.0) * np.exp(rng.normal(0.0, 0.3, len(ns)))
        if case == 19:
            devs[-1] = 0.0
        expected = np.polyfit(np.log(ns), np.log(np.maximum(devs, 1e-300)), 1)[0]
        assert fit_loglog_slope(ns.tolist(), devs.tolist()) == pytest.approx(expected, rel=1e-12)


def test_fit_loglog_slope_of_exact_power_law():
    ns = [100, 215, 464, 1000, 2154, 4642, 10000, 21544, 46416, 100000]
    assert fit_loglog_slope(ns, [3.0 / n for n in ns]) == pytest.approx(-1.0, rel=4 * 2.0**-52)


def test_generalized_balanced_case_gives_free_space():
    res = generalized_limit_study(0.0, 40.0, 1.0, 1.0, [64, 128, 256, 512], 3.0)
    assert abs(res.effective_height) <= 1e-3
    assert res.converged
    assert res.records[-1].deviation_inf <= 0.05
    # both candidates coincide at eps=1
    assert res.candidate_full_imbalance == res.candidate_mean_height == 0.0


def test_generalized_real_barrier_case():
    ns = [128, 256, 512, 1024, 2048]
    res = generalized_limit_study(7.0, 40.0, 1.0, 1.0, ns, 3.0)
    assert abs(res.effective_height - 7.0) <= 0.05
    assert res.converged
    devs = [r.deviation_inf for r in res.records]
    slope = fit_loglog_slope(ns, devs)
    assert -1.15 <= slope <= -0.85
    target = barrier_matrix(3.0, 7.0, 1.0, 0.0)
    from ptstack import build_alternating, compose_stack

    final = compose_stack(build_alternating(7.0, 40.0, 1.0, 2048, 1.0), 3.0)
    assert entry_diff(final, target) <= 0.01


def test_generalized_unbalanced_matches_mean_height():
    # The fitted height lands on the arithmetic mean of the two slab
    # heights, v1 + i(1-eps)v2/2, not on v1 + i(1-eps)v2.
    res = generalized_limit_study(0.0, 40.0, 0.5, 1.0, [128, 256, 512, 1024, 2048], 3.0)
    assert res.converged
    assert res.closest_candidate == "mean_height"
    assert res.residual_mean_height <= 1e-3
    assert res.residual_full_imbalance >= 1.0
    assert res.candidate_mean_height == 10.0j
    assert res.candidate_full_imbalance == 20.0j


def test_generalized_records_reference_fitted_barrier():
    res = generalized_limit_study(2.0, 10.0, 0.3, 1.0, [64, 128, 256], 1.5)
    assert len(res.records) == 3
    for r in res.records:
        assert math.isnan(r.offdiag_predicted)
        assert r.deviation_inf >= r.diag_measured_err


@pytest.mark.parametrize(
    "v1, v2, k, total, ns",
    [
        (0.0, 40.0, 1.0, 1.0, [2, 4, 8]),
        (-0.1051, 0.2717, 2.4038, 1.8292, [405, 810, 1620, 6480]),
        (-25.6455, 80.1734, 0.8074, 0.5398, [827, 1654, 3308, 13232]),
        (64.3319, 26.5106, 5.4051, 1.0797, [154, 308, 616, 2464]),
        (-0.9074, 0.2592, 2.0526, 2.3561, [3, 6, 12, 48]),
    ],
)
def test_identical_slabs_are_not_converged(v1, v2, k, total, ns):
    # eps = -1 makes both slabs v1 + i v2: the stack is one uniform barrier
    # for every N and the deviations are rounding noise (these cases drew
    # noise that happened to decrease), which carries no convergence signal.
    res = generalized_limit_study(v1, v2, -1.0, total, ns, k)
    assert abs(res.effective_height - complex(v1, v2)) <= 1e-9 * abs(complex(v1, v2))
    assert not res.converged


def test_generalized_study_reaches_a_million_cells():
    ns = [10**3, 10**4, 10**5, 10**6]
    res = generalized_limit_study(7.0, 40.0, 1.0, 1.0, ns, 3.0)
    assert res.converged
    assert abs(res.effective_height - 7.0) <= 1e-6
    devs = [r.deviation_inf for r in res.records]
    assert -1.05 <= fit_loglog_slope(ns, devs) <= -0.95


# effective_height and converged as the earlier Levenberg-Marquardt fit
# returned them; the Gauss-Newton fit must land on the same barrier.  The
# "cli" case also pins the exit code of `general` at its defaults.
PINNED_FITS = [
    pytest.param(
        (0.0, 40.0, 1.0, 1.0, [64, 128, 256, 512], 3.0),
        complex(0.00011027139165969066, -1.5986731365779948e-13), True, id="balanced",
    ),
    pytest.param(
        (7.0, 40.0, 1.0, 1.0, [128, 256, 512, 1024, 2048], 3.0),
        complex(7.000009786587576, 2.959171068494494e-11), True, id="real-barrier",
    ),
    pytest.param(
        (0.0, 40.0, 0.5, 1.0, [128, 256, 512, 1024, 2048], 3.0),
        complex(6.1367981241872746e-06, 9.999997844261728), True, id="unbalanced",
    ),
    pytest.param(
        (2.0, 10.0, 0.3, 1.0, [64, 128, 256], 1.5),
        complex(2.0000293547899295, 3.4999918174801223), True, id="records",
    ),
    pytest.param(
        ("general", "--v1", "7", "--v2", "40", "--eps", "1", "--k", "3"),
        complex(7.000009786587576, 2.959171068494494e-11), True, id="cli",
    ),
]


@pytest.mark.parametrize("case, height, converged", PINNED_FITS)
def test_fit_matches_pinned_height(case, height, converged, tmp_path):
    if case[0] == "general":
        from ptstack.cli import main

        out = tmp_path / "general.json"
        code = main([*case, "--format", "json", "--output", str(out)])
        summary = json.loads(out.read_text(encoding="utf-8"))["summary"]
        fitted = complex(*summary["effective_height"])
        assert summary["converged"] is converged
        assert code == (0 if converged else 3)
    else:
        res = generalized_limit_study(*case)
        fitted = res.effective_height
        assert res.converged is converged
    assert abs(fitted - height) <= 1e-9 * max(1.0, abs(height))

