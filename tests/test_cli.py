"""CLI tests.  ``GOLDEN`` invocations are compared byte for byte against the
files under ``tests/data/cli/`` (stdout in ``<case>.<format>``, stderr and
exit code in ``results.json``).  After a deliberate output change, rewrite
them with ``PYTHONPATH=src python tests/test_cli.py --record`` and review the
diff.
"""

import hashlib
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ptstack import (
    NonFiniteMatrixError, PeriodicSpec, convergence_study, periodic_matrix, scattering_from_matrix, unit_cell_elements,
)
from ptstack.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


def test_cell_matches_library(capsys):
    code, out, _ = run_cli(capsys, "cell", "--k", "1", "--v", "40", "--b", "0.05")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert len(rows) == 1
    p = unit_cell_elements(1.0, 40.0, 0.05)
    row = rows[0]
    assert float(row["xi"]) == p.xi
    assert float(row["chi"]) == p.chi
    assert float(row["eta"]) == p.eta
    assert float(row["tau"]) == p.tau
    assert "m11_re" in header and "m11_im" in header


def test_cell_rejects_nonpositive_v(capsys):
    code, _, err = run_cli(capsys, "cell", "--k", "1", "--v", "0", "--b", "0.1")
    assert code == 1
    assert "V must be" in err


def test_cell_rejects_nonpositive_k(capsys):
    code, _, err = run_cli(capsys, "cell", "--k", "0", "--v", "40", "--b", "0.1")
    assert code == 1
    assert "wave number" in err


def test_missing_required_option(capsys):
    code, _, err = run_cli(capsys, "cell", "--k", "1", "--v", "40")
    assert code == 1
    assert "--b" in err


def test_unknown_option(capsys):
    code, _, err = run_cli(capsys, "cell", "--nope", "1")
    assert code == 1


def test_sweep_rows_match_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--v", "40", "--n-min", "10", "--n-max", "20", "--n-count", "2",
        "--k-min", "1", "--k-max", "5", "--k-count", "3",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["N", "k", "T", "R_left", "R_right", "absdet_err"]
    assert [(r["N"], r["k"]) for r in rows][:3] == [("10", "1.0"), ("10", "3.0"), ("10", "5.0")]
    spot = scattering_from_matrix(periodic_matrix(PeriodicSpec(v=40.0, n_cells=20, total_length=1.0), 3.0))
    row = next(r for r in rows if r["N"] == "20" and r["k"] == "3.0")
    assert float(row["T"]) == spot.big_t


def test_sweep_near_zero_v_is_free_space(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--v", "1e-12", "--n-min", "5", "--n-max", "50", "--n-count", "2",
        "--k-min", "0.5", "--k-max", "9.5", "--k-count", "4",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows
    for row in rows:
        assert abs(float(row["T"]) - 1.0) <= 1e-10


def test_sweep_fig3_preset(capsys, tmp_path):
    out_path = tmp_path / "fig3.csv"
    code, _, _ = run_cli(capsys, "sweep", "--fig3", "--n-count", "4", "--output", str(out_path))
    assert code == 0
    meta, _, rows = parse_csv(out_path.read_text())
    assert meta["v"] == "40.0"
    assert meta["n_min"] == "500" and meta["n_max"] == "2000"
    assert "default" in meta["k_grid_provenance"]
    assert len(rows) == 4 * 181
    for row in rows:
        if float(row["k"]) >= 2.0:
            assert 0.9995 <= float(row["T"]) <= 1.0005


def test_sweep_flag_overrides_preset(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--fig3", "--v", "1e-12", "--n-count", "2", "--k-count", "2"
    )
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["v"] == "1e-12"
    for row in rows:
        assert abs(float(row["T"]) - 1.0) <= 1e-10


def test_output_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--v", "40", "--n-min", "7", "--n-max", "31", "--n-count", "3",
            "--k-min", "1", "--k-max", "4", "--k-count", "5"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_json_format_complex_pairs(capsys):
    code, out, _ = run_cli(capsys, "cell", "--k", "1", "--v", "40", "--b", "0.05",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert isinstance(row["m11"], list) and len(row["m11"]) == 2
    assert doc["metadata"]["command"] == "cell"


def test_converge_summary_lines(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--k", "5", "--v", "40",
        "--n-min", "100", "--n-max", "10000", "--n-count", "5",
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert "loglog_slope" in meta
    slope = float(meta["loglog_slope"])
    assert -1.1 <= slope <= -0.9
    assert float(meta["offdiag_ratio_at_n_max"]) == pytest.approx(1.0, abs=0.05)
    assert "absdet_err" in header
    assert len(rows) == 5


def test_converge_json_summary(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--k", "5", "--v", "40",
        "--n-min", "100", "--n-max", "1000", "--n-count", "3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert -1.2 <= doc["summary"]["loglog_slope"] <= -0.8


def test_general_real_barrier(capsys):
    code, out, _ = run_cli(
        capsys, "general", "--v1", "7", "--v2", "40", "--eps", "1", "--k", "3",
        "--n-min", "128", "--n-max", "1024", "--n-count", "4",
    )
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert float(meta["effective_height_re"]) == pytest.approx(7.0, abs=0.05)
    assert abs(float(meta["effective_height_im"])) <= 0.05
    assert meta["converged"] == "True"


def test_general_nonconvergence_exit_code(capsys):
    # eps = -1 makes both slabs identical: the stack is one uniform barrier
    # for every N, so the schedule carries no convergence signal.
    code, out, _ = run_cli(
        capsys, "general", "--v1", "0", "--v2", "40", "--eps", "-1", "--k", "1",
        "--n-min", "2", "--n-max", "8", "--n-count", "3",
    )
    assert code == 3
    meta, _, _ = parse_csv(out)
    assert meta["converged"] == "False"


def test_oracle_check_quick(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--quick")
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert float(meta["max_deviation"]) <= 1e-7
    assert meta["verdict"] == "ok"
    assert {"slab_vs_closed", "ode_vs_closed", "t_lr_diff"} <= set(header)
    skipped = [r for r in rows if r["ode_vs_closed"] == "nan"]
    assert skipped, "quick mode should skip large-N ODE runs"
    # the summary locates the worst gated deviation; ode_vs_slab is gated too
    column = meta["max_deviation_column"]
    assert column in ("slab_vs_closed", "ode_vs_closed", "ode_vs_slab")
    worst = [
        r for r in rows
        if (r["k"], r["v"], r["N"]) == (meta["max_deviation_k"], meta["max_deviation_v"], meta["max_deviation_n"])
    ]
    assert len(worst) == 1 and worst[0][column] == meta["max_deviation"]
    gated = [float(r[c]) for r in rows for c in ("slab_vs_closed", "ode_vs_closed", "ode_vs_slab") if r[c] != "nan"]
    assert float(meta["max_deviation"]) == max(gated)


def test_oracle_check_rejects_negative_ode_n_max(capsys, tmp_path):
    cfg = tmp_path / "ode.cfg"
    cfg.write_text("ode_n_max = -1\n")
    for args in (("--ode-n-max", "-1"), ("--config", str(cfg))):
        code, out, err = run_cli(capsys, "oracle-check", *args)
        assert (code, out) == (1, "")
        assert err == "ptstack: error: --ode-n-max must be >= 0 (0 runs no ODE tier), got -1\n"


def test_oracle_check_ode_n_max_0_runs_no_ode_tier(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--ode-n-max", "0")
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["ode_n_max"] == "0" and meta["max_deviation_column"] == "slab_vs_closed"
    assert {r[c] for r in rows for c in ("ode_vs_closed", "ode_vs_slab", "t_lr_diff")} == {"nan"}


def test_converge_needs_two_distinct_n_before_the_study(capsys, monkeypatch):
    # Both study commands judge convergence over their N grid, so one N is
    # invalid input for either, rejected before the study runs.
    def study(*args):
        raise AssertionError("the study ran")

    monkeypatch.setattr("ptstack.limits.convergence_study", study)
    monkeypatch.setattr("ptstack.limits.generalized_limit_study", study)
    code, out, err = run_cli(capsys, "converge", "--k", "5", "--v", "40",
                             "--n-min", "100", "--n-max", "100", "--n-count", "3")
    assert (code, out) == (1, "")
    assert err == (
        "ptstack: error: converge fits a slope over at least two distinct N; "
        "--n-min/--n-max/--n-count give N = [100]\n"
    )
    code, out, err = run_cli(capsys, "general", "--v1", "7", "--v2", "40", "--eps", "1", "--k", "3",
                             "--n-min", "128", "--n-max", "128", "--n-count", "3")
    assert (code, out) == (1, "")
    assert err == (
        "ptstack: error: general judges convergence over at least two distinct N; "
        "--n-min/--n-max/--n-count give N = [128]\n"
    )


@pytest.mark.parametrize("option, value", [("v1", "inf"), ("v2", "nan"), ("eps", "nan"), ("eps", "-inf")])
def test_general_names_a_non_finite_option(capsys, option, value):
    # The message names the option, not the slab height derived from it.
    args = {"v1": "7", "v2": "40", "eps": "1", "k": "3", option: value}
    code, out, err = run_cli(capsys, "general", *(f"--{key}={val}" for key, val in args.items()))
    assert (code, out) == (1, "")
    assert err == f"ptstack: error: {option} must be finite, got {value}\n"


def test_general_names_an_overflowing_eps_times_v2(capsys):
    # Every option is finite, but the loss slab's height -eps * v2 is not: a
    # numerical failure, not a usage error.
    code, out, err = run_cli(capsys, "general", "--v1", "0", "--v2", "1e308", "--eps", "2", "--k", "1")
    assert (code, out) == (2, "")
    assert err == "ptstack: numerical failure: eps * v2 leaves the double range at v1 = 0.0, v2 = 1e+308, eps = 2.0\n"


@pytest.mark.parametrize(
    "args, n",
    [
        (("converge", "--k", "1", "--v", "40"), 3162),
        # kL/N underflows to 0 first, at N = 1000, where b does not.
        (("converge", "--k", "0.001", "--v", "40"), 3162),
        (("sweep", "--v", "40", "--n-min", "1", "--n-max", "100000", "--n-count", "3", "--k-count", "2"), 50000),
        (("general", "--v1", "0", "--v2", "40", "--eps", "1", "--k", "1"), 2048),
    ],
    ids=["converge", "converge-small-k", "sweep", "general"],
)
def test_an_underflowing_slab_width_is_a_numerical_failure(capsys, args, n):
    # Every option is finite and valid, but the slab width L/(2N) underflows
    # to 0 at the N named.
    code, out, err = run_cli(capsys, *args, "--total-length", "1e-320")
    assert (code, out) == (2, "")
    assert err == f"ptstack: numerical failure: slab width b = L/(2N) underflows to 0 at L = 1e-320, N = {n}\n"


@pytest.mark.parametrize("k_max", ["inf", "nan", "1e309"])
def test_sweep_rejects_a_non_finite_k_bound(capsys, k_max):
    # An infinite bound must not reach the grid, where it becomes NaN points.
    code, out, err = run_cli(capsys, "sweep", "--v", "40", "--n-min", "5", "--n-max", "10", "--k-max", k_max)
    assert (code, out) == (1, "")
    assert err == f"ptstack: error: bad k range: min=1.0 max={float(k_max)} count=181\n"


@pytest.mark.parametrize("k", ["1e-160", "1e-310"])
def test_general_names_the_point_where_its_rows_overflow(capsys, k):
    # The stack matrix's entries grow like 1/k and stay finite, but the
    # products in its determinant overflow, so |det - 1| is NaN at the
    # first N.
    code, out, err = run_cli(capsys, "general", "--v1", "0", "--v2", "40", "--eps", "1", "--k", k)
    assert (code, out) == (2, "")
    assert err == f"ptstack: numerical failure: absdet_err leaves the double range at N = 128, k = {float(k)}\n"
    assert run_cli(capsys, "general", "--v1", "0", "--v2", "40", "--eps", "1", "--k", "1e-60")[0] == 0


def test_general_at_a_million_cells(capsys):
    code, out, _ = run_cli(
        capsys, "general", "--v1", "7", "--v2", "40", "--eps", "1", "--k", "3", "--n-max", "1000000",
    )
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["converged"] == "True"
    assert rows[-1]["N"] == "1000000"


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep defaults\nv = 40\nn_min = 5\nn_max = 10\nn_count = 2\nk_min = 1\nk_max = 2\nk_count = 2\n")
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["v"] == "40.0"
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--v", "7")
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["v"] == "7.0"


def test_preset_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("v = 7\nn_count = 1\nk_count = 2\n")
    code, out, _ = run_cli(capsys, "sweep", "--fig3", "--config", str(cfg))
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["v"] == "40.0"
    assert meta["n_count"] == "1" and len(rows) == 2


@pytest.mark.parametrize(
    "config, provenance",
    [
        ("k_min = 1\nk_max = 2\n", "user"),
        ("k_count = 3\n", "user"),
        ("n_count = 2\n", "tool default (no externally specified range)"),
    ],
    ids=["config-range", "config-count", "config-without-k"],
)
def test_k_grid_provenance(capsys, tmp_path, config, provenance):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--v", "7",
                           "--n-min", "5", "--n-max", "10")
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["k_grid_provenance"] == provenance


def test_config_bad_choice(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_spacing = cubic\n")
    code, out, err = run_cli(capsys, "sweep", "--v", "40", "--n-min", "5", "--n-max", "10",
                             "--config", str(cfg))
    assert (code, out) == (1, "")
    # the words of the flag's message, with the config key for the argument
    assert err == "ptstack: error: config key n_spacing: invalid choice: 'cubic' (choose from 'linear', 'log')\n"


def test_config_bad_int(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_count = 1e3\n")
    code, out, err = run_cli(capsys, "sweep", "--v", "40", "--n-min", "5", "--n-max", "10",
                             "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == "ptstack: error: config key n_count: invalid int value: '1e3'\n"
    code, out, err = run_cli(capsys, "sweep", "--v", "40", "--n-min", "5", "--n-max", "10", "--n-count", "1e3")
    assert err == "ptstack: error: argument --n-count: invalid int value: '1e3'\n"


def test_oracle_check_tolerance_is_fixed(capsys, tmp_path):
    # The ODE tier runs at one tolerance; neither a flag nor a config key sets it.
    code, out, err = run_cli(capsys, "oracle-check", "--quick", "--rel-tol", "1e-12")
    assert (code, out) == (1, "")
    assert "--rel-tol" in err
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("abs_tol = 1e-14\n")
    code, out, err = run_cli(capsys, "oracle-check", "--quick", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert "unknown config keys: abs_tol" in err


def test_non_integer_n_exits_1(capsys, tmp_path):
    cfg = tmp_path / "n.cfg"
    cfg.write_text("n_min = 2.5\n")
    code, out, err = run_cli(capsys, "converge", "--k", "5", "--v", "40", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert "n_min" in err


def test_config_not_utf8_names_the_file(capsys, tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"v = 40\xff\n")
    code, out, err = run_cli(capsys, "sweep", "--n-min", "5", "--n-max", "10", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == (f"ptstack: error: cannot read config file {cfg}: 'utf-8' codec can't decode byte 0xff"
                   " in position 6: invalid start byte\n")


def test_config_line_without_equals_names_the_line(capsys, tmp_path):
    cfg = tmp_path / "junk.cfg"
    cfg.write_text("v = 40\njunk\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"ptstack: error: {cfg}:2: expected key = value, got 'junk'\n"


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("vv = 40\n")
    code, _, err = run_cli(capsys, "cell", "--k", "1", "--v", "40", "--b", "0.1",
                           "--config", str(cfg))
    assert code == 1
    assert "unknown config key" in err


def test_unwritable_output(capsys):
    code, _, err = run_cli(capsys, "cell", "--k", "1", "--v", "40", "--b", "0.1",
                           "--output", "/nonexistent-dir/x.csv")
    assert code == 1


@pytest.mark.parametrize("option, value", [("v1", "-1e1"), ("eps", "-1.5e0"), ("total_length", "-1E-1")])
def test_negative_value_in_exponent_form(capsys, option, value):
    # "-1e1" follows its flag as its own token, as "-10" and "-1.5" do.
    args = {"v1": "7", "v2": "40", "eps": "1", "k": "3", option: value}
    joined = run_cli(capsys, "general", *(f"--{key.replace('_', '-')}={val}" for key, val in args.items()))
    spaced = run_cli(capsys, "general", *(part for key, val in args.items()
                                          for part in (f"--{key.replace('_', '-')}", val)))
    assert spaced == joined
    assert "expected one argument" not in joined[2]


def test_negative_non_finite_value(capsys):
    code, out, err = run_cli(capsys, "general", "--v1", "7", "--v2", "40", "--eps", "-inf", "--k", "3")
    assert (code, out, err) == (1, "", "ptstack: error: eps must be finite, got -inf\n")


@pytest.mark.parametrize("args, message", [
    (("cell", "--k", "1", "--v", "40", "--b", "-x"), "argument --b: expected one argument"),
    (("sweep", "--v", "40", "--n-min", "5", "--n-max", "10", "--n-spacing", "-1e1"),
     "argument --n-spacing: expected one argument"),
    # the choice is reported once -1e1 is read as the value of --v1
    (("general", "--v1", "-1e1", "--v2", "40", "--eps", "1", "--k", "3", "--n-spacing", "cubic"),
     "argument --n-spacing: invalid choice: 'cubic' (choose from 'linear', 'log')"),
])
def test_only_numbers_join_typed_options(capsys, args, message):
    # A token that is no number, or follows a choice option, stays an option.
    assert run_cli(capsys, *args) == (1, "", f"ptstack: error: {message}\n")


def test_k_range_must_be_positive(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--v", "40", "--n-min", "5", "--n-max", "10",
        "--k-min", "0", "--k-max", "2",
    )
    assert code == 1
    assert "k range" in err


def test_n_range_below_one_exits_1(capsys):
    code, out, err = run_cli(capsys, "converge", "--k", "1", "--v", "40", "--n-min", "0")
    assert (code, out) == (1, "")
    assert err == "ptstack: error: bad N range: min=0 max=100000 count=13\n"


def test_converge_free_space_floor(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--k", "2", "--v", "1e-12",
        "--n-min", "10", "--n-max", "1000", "--n-count", "3",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    for row in rows:
        assert float(row["deviation_inf"]) <= 1e-12


def test_numerical_failure_maps_to_exit_2(capsys, monkeypatch):
    # The pole/tolerance-failure contract: distinct exit code 2.
    # The command imports transmission_surface from its module when it runs.
    import ptstack.scattering
    from ptstack import SpectralPoleError

    def boom(*args, **kwargs):
        raise SpectralPoleError("synthetic pole")

    monkeypatch.setattr(ptstack.scattering, "transmission_surface", boom)
    code, _, err = run_cli(capsys, "sweep", "--v", "40", "--n-min", "5", "--n-max", "10")
    assert code == 2
    assert "numerical failure" in err


def _on_cpus(monkeypatch, count):
    # sweep and oracle-check start one worker per CPU in their affinity mask
    # after the first.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counting_forks(monkeypatch) -> list:
    forks, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "n_count, cpus, workers", [(7, 3, 2), (7, 1, 0), (1, 3, 0)], ids=["7N-3cpu", "7N-1cpu", "1N-3cpu"]
)
def test_sweep_bytes_do_not_depend_on_cpu_count(capsys, monkeypatch, fmt, n_count, cpus, workers):
    # 7 N on 3 CPUs: ranges of 2, 2 and 3 N, the last two run by workers.
    args = ("sweep", "--v", "40", "--n-min", "1", "--n-max", "1000", "--n-count", str(n_count),
            "--n-spacing", "log", "--k-min", "1", "--k-max", "5", "--k-count", "3", "--format", fmt)
    _on_cpus(monkeypatch, 1)
    expected = run_cli(capsys, *args)
    code, out, err = expected
    rows = json.loads(out)["rows"] if fmt == "json" else parse_csv(out)[2]
    assert (code, err, len(rows)) == (0, "", 3 * n_count)
    _on_cpus(monkeypatch, cpus)
    forks, fds = _counting_forks(monkeypatch), _open_fds()
    assert run_cli(capsys, *args) == expected
    assert len(forks) == workers
    assert _open_fds() == fds
    _assert_no_worker_left()


def _sweep_failing(monkeypatch, first=None, later=None, cpus=2):
    """transmission_surface runs ``first`` where it computes N = 5 and
    ``later`` where it computes N = 8, whichever process computes them; a
    forked worker inherits the replacement."""
    import ptstack.scattering

    surface = ptstack.scattering.transmission_surface

    def failing_surface(v, total_length, n_values, k_values):
        for n, action in ((5, first), (8, later)):
            if n in n_values and action:
                action()
        return surface(v, total_length, n_values, k_values)

    monkeypatch.setattr(ptstack.scattering, "transmission_surface", failing_surface)
    _on_cpus(monkeypatch, cpus)


# N = 5..10 on 2 CPUs: this process runs N = 5..7, a worker N = 8..10.
FAILING_SWEEP = ("sweep", "--v", "40", "--n-min", "5", "--n-max", "10")


def _raises(exc):
    def action():
        raise exc

    return action


def _raises_in_worker(exc):
    parent = os.getpid()

    def action():
        if os.getpid() != parent:
            raise exc

    return action


@pytest.mark.parametrize(
    "first, later, code, err",
    [
        (None, _raises(NonFiniteMatrixError("later range")), 2, "ptstack: numerical failure: later range\n"),
        (None, _raises(ValueError("later range")), 1, "ptstack: error: later range\n"),
        (_raises(NonFiniteMatrixError("first range")), _raises(NonFiniteMatrixError("later range")), 2,
         "ptstack: numerical failure: first range\n"),
        (None, lambda: os._exit(1), 1,
         "ptstack: error: sweep worker for N = 8..10 failed (exit code 1)\n"),
        # The range computes here without raising: the computation is not
        # deterministic, and no exception can be reproduced.
        (None, _raises_in_worker(ValueError("worker only")), 1,
         "ptstack: error: sweep worker for N = 8..10 failed (exit code 2)\n"),
    ],
    ids=["numerical", "value", "first-range-wins", "no-status", "not-reproduced"],
)
def test_failing_worker_writes_nothing(capsys, monkeypatch, tmp_path, first, later, code, err):
    _sweep_failing(monkeypatch, first, later)
    assert run_cli(capsys, *FAILING_SWEEP) == (code, "", err)
    _assert_no_worker_left()
    path = tmp_path / "rows.csv"
    assert run_cli(capsys, *FAILING_SWEEP, "--output", str(path)) == (code, "", err)
    assert not path.exists()
    _assert_no_worker_left()


def _assert_rendering_failure_writes_nothing(capsys, monkeypatch, tmp_path, action, err):
    """A worker that runs ``action`` where it would render its rows fails the
    run with ``err``, although every range has computed and this process has
    rendered its own rows: no row is written and no --output file created."""
    import ptstack.commands.sweep

    render_rows, parent = ptstack.commands.sweep._render_rows, os.getpid()

    def failing_render_rows(fmt, fields, first):
        if os.getpid() != parent:  # a worker's rows
            action()
        return render_rows(fmt, fields, first)

    monkeypatch.setattr(ptstack.commands.sweep, "_render_rows", failing_render_rows)
    _on_cpus(monkeypatch, 2)
    fds = _open_fds()
    assert run_cli(capsys, *FAILING_SWEEP) == (1, "", err)
    path = tmp_path / "rows.csv"
    assert run_cli(capsys, *FAILING_SWEEP, "--output", str(path)) == (1, "", err)
    assert not path.exists()
    assert _open_fds() == fds
    _assert_no_worker_left()


def test_worker_failing_to_write_its_rows(capsys, monkeypatch, tmp_path):
    _assert_rendering_failure_writes_nothing(
        capsys, monkeypatch, tmp_path, lambda: os._exit(3),
        "ptstack: error: sweep worker for N = 8..10 failed (exit code 3)\n",
    )


def test_worker_killed_while_rendering(capsys, monkeypatch, tmp_path):
    _assert_rendering_failure_writes_nothing(
        capsys, monkeypatch, tmp_path, lambda: os.kill(os.getpid(), signal.SIGKILL),
        "ptstack: error: sweep worker for N = 8..10 failed (exit code -9)\n",
    )


def test_failing_workers_report_the_serial_error(capsys, monkeypatch, tmp_path):
    # N = 1..10 on 3 CPUs: this process runs N = 1..3, the workers N = 4..6
    # and N = 7..10, and both workers' ranges fail.  The earlier range's
    # error is reported, as on one CPU.
    args = ("sweep", "--v", "40", "--n-min", "1", "--n-max", "10")
    _sweep_failing(monkeypatch, _raises(NonFiniteMatrixError("first range")),
                   _raises(NonFiniteMatrixError("later range")), cpus=1)
    expected = run_cli(capsys, *args)
    assert expected == (2, "", "ptstack: numerical failure: first range\n")
    _on_cpus(monkeypatch, 3)
    forks, fds, path = _counting_forks(monkeypatch), _open_fds(), tmp_path / "rows.csv"
    assert run_cli(capsys, *args, "--output", str(path)) == expected
    assert not path.exists()
    assert len(forks) == 2
    assert _open_fds() == fds
    _assert_no_worker_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_needs_a_writable_temporary_directory(capsys, monkeypatch, tmp_path, cpus):
    # Every N range renders into a temporary file, also on one CPU, and the
    # files are made before any worker forks.
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    _on_cpus(monkeypatch, cpus)
    forks, fds, path = _counting_forks(monkeypatch), _open_fds(), tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, *FAILING_SWEEP, "--output", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("ptstack: error: ") and err.endswith("\n") and err.count("\n") == 1
    assert not path.exists()
    assert forks == []
    assert _open_fds() == fds
    _assert_no_worker_left()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("ode", [("--quick",), ("--ode-n-max", "16")], ids=["quick", "ode-n-max-16"])
def test_oracle_check_bytes_do_not_depend_on_cpu_count(capsys, monkeypatch, fmt, ode):
    args = ("oracle-check", *ode, "--format", fmt)
    _on_cpus(monkeypatch, 1)
    forks = _counting_forks(monkeypatch)
    expected = run_cli(capsys, *args)
    assert expected[0] == 0 and expected[2] == "" and forks == []
    for cpus in (2, 3):
        _on_cpus(monkeypatch, cpus)
        forks, fds = _counting_forks(monkeypatch), _open_fds()
        assert run_cli(capsys, *args) == expected
        assert len(forks) == cpus - 1
        assert _open_fds() == fds
        _assert_no_worker_left()


# The (V, N, k) of each oracle-check row, in row order.  On 2 CPUs this
# process computes the even rows and a worker the odd ones; on 3 CPUs row i
# goes to share i mod 3.
def _oracle_grid():
    from ptstack.commands.oracle_check import ORACLE_GRID_K, ORACLE_GRID_N, ORACLE_GRID_V

    return [(v, n, k) for v in ORACLE_GRID_V for n in ORACLE_GRID_N for k in ORACLE_GRID_K]


def _oracle_failing(monkeypatch, action):
    """integrate_transfer_matrix calls ``action(row)`` with the index of the
    oracle-check row it integrates; a forked worker inherits the replacement."""
    import ptstack.oracle

    integrate, grid = ptstack.oracle.integrate_transfer_matrix, _oracle_grid()

    def failing_integrate(stack, k):
        action(grid.index((stack.layers[0].height.imag, len(stack.layers) // 2, k)))
        return integrate(stack, k)

    monkeypatch.setattr(ptstack.oracle, "integrate_transfer_matrix", failing_integrate)


def _fails_at(*rows):
    def action(row):
        if row in rows:
            from ptstack.oracle import IntegrationFailureError

            raise IntegrationFailureError(f"synthetic failure at row {row}")

    return action


@pytest.mark.parametrize(
    "cpus, rows",
    [(2, (3,)), (2, (2,)), (2, (4, 3)), (3, (4, 2))],
    ids=["worker-row", "own-row", "worker-row-first", "later-worker-row-first"],
)
def test_oracle_check_failing_row_is_the_serial_one(capsys, monkeypatch, tmp_path, cpus, rows):
    # Whichever process computes it, the first failing row in row order is
    # the one reported, as on one CPU: rows 2 and 4 are this process's on 2
    # CPUs, 3 a worker's; on 3 CPUs, 4 is the first worker's, 2 the second's.
    _oracle_failing(monkeypatch, _fails_at(*rows))
    _on_cpus(monkeypatch, 1)
    expected = run_cli(capsys, "oracle-check", "--quick")
    assert expected == (2, "", f"ptstack: numerical failure: synthetic failure at row {min(rows)}\n")
    _on_cpus(monkeypatch, cpus)
    forks = _counting_forks(monkeypatch)
    path = tmp_path / "rows.csv"
    assert run_cli(capsys, "oracle-check", "--quick", "--output", str(path)) == expected
    assert not path.exists()
    assert len(forks) == cpus - 1
    _assert_no_worker_left()


@pytest.mark.parametrize(
    "action, err",
    [
        (lambda: os._exit(1), "exit code 1"),
        # The rows compute here without raising: the computation is not
        # deterministic, and no exception can be reproduced.
        (_raises(ValueError("worker only")), "exit code 2"),
    ],
    ids=["no-status", "not-reproduced"],
)
def test_oracle_check_failing_worker_writes_nothing(capsys, monkeypatch, tmp_path, action, err):
    # A worker runs ``action`` at its first row that runs the ODE tier.
    parent = os.getpid()
    _oracle_failing(monkeypatch, lambda row: os.getpid() != parent and action())
    _on_cpus(monkeypatch, 2)
    fds, path = _open_fds(), tmp_path / "rows.csv"
    assert run_cli(capsys, "oracle-check", "--quick", "--output", str(path)) == (
        1, "", f"ptstack: error: oracle-check worker for grid rows 1..39 in steps of 2 failed ({err})\n"
    )
    assert not path.exists()
    assert _open_fds() == fds
    _assert_no_worker_left()


@pytest.mark.parametrize(
    "args",
    [
        # math.sinh overflows inside the cell elements
        ("sweep", "--v", "1e5", "--total-length", "50", "--n-min", "1", "--n-max", "2"),
        ("cell", "--k", "1", "--v", "1e5", "--b", "25"),
        # k*k underflows to 0 inside the cell elements
        ("cell", "--k", "1e-200", "--v", "1e300", "--b", "1"),
        # the elements fit, but the N-cell matrix overflows to NaN
        ("sweep", "--v", "1e5", "--total-length", "50", "--n-min", "50", "--n-max", "50",
         "--n-count", "1", "--k-min", "1", "--k-max", "1", "--k-count", "1"),
        ("converge", "--k", "1", "--v", "1e5", "--total-length", "50"),
        # the N-cell power of the alternating cell overflows before any row is measured
        ("general", "--v1", "0", "--v2", "1e5", "--eps", "1", "--k", "1", "--total-length", "50"),
        # cmath.cos overflows inside one wide slab of the alternating cell
        ("general", "--v1", "0", "--v2", "1e5", "--eps", "1", "--k", "1", "--total-length", "50",
         "--n-min", "1", "--n-max", "2", "--n-count", "2"),
        # rho (V*V), alpha (b*rho) or q*b reach inf, where math/cmath raise a domain error
        ("cell", "--k", "1", "--v", "1e300", "--b", "1"),
        ("converge", "--k", "5", "--v", "1e300"),
        ("sweep", "--v", "1e300", "--n-min", "1", "--n-max", "2"),
        ("cell", "--k", "1e10", "--v", "40", "--b", "1e300"),
        ("general", "--v1", "7", "--v2", "40", "--eps", "1", "--k", "1e10", "--total-length", "1e308",
         "--n-min", "1", "--n-max", "2", "--n-count", "2"),
        # 2*alpha alone reaches inf; k*L alone reaches inf
        ("cell", "--k", "1e77", "--v", "1e-300", "--b", "1e231"),
        ("converge", "--k", "1e10", "--v", "1e-300", "--total-length", "1e299",
         "--n-min", "1000", "--n-max", "2000", "--n-count", "2"),
        # the matrix fits, but det (cell) or |det - 1| and T, R (sweep) do not
        ("cell", "--k", "0.5", "--v", "40", "--b", "50"),
        ("sweep", "--v", "40", "--total-length", "100", "--n-min", "1", "--n-max", "1",
         "--k-min", "0.5", "--k-max", "0.5", "--k-count", "1"),
        ("sweep", "--v", "3000", "--total-length", "10", "--n-min", "1", "--n-max", "1",
         "--k-min", "5.9", "--k-max", "5.9", "--k-count", "1"),
        ("converge", "--k", "5.9", "--v", "3000", "--total-length", "10", "--n-min", "1",
         "--n-max", "2", "--n-count", "2"),
    ],
    ids=["sweep-overflow", "cell-overflow", "cell-underflow", "sweep-nan", "converge-nan", "general-nan",
         "general-overflow", "cell-domain-v", "converge-domain", "sweep-domain", "cell-domain-b",
         "general-domain", "cell-domain-2alpha", "converge-domain-kl", "cell-absdet-nan",
         "sweep-absdet-inf", "sweep-hyperbolic-wide", "converge-absdet-nan"],
)
def test_out_of_range_input_exits_2(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("ptstack: numerical failure: ")
    assert "k = " in err
    assert err.count("\n") == 1


def test_nonfinite_sweep_row_names_its_point(capsys):
    # The entries reach 1e160, so |det - 1| overflows.
    code, out, err = run_cli(
        capsys, "sweep", "--v", "3000", "--total-length", "10", "--n-min", "1", "--n-max", "2",
        "--n-count", "2", "--k-min", "5.8", "--k-max", "5.9", "--k-count", "2",
    )
    assert (code, out) == (2, "")
    assert err == (
        "ptstack: numerical failure: T, R or absdet_err leaves the double range at N = 1, k = 5.8\n"
    )


# Command lines that once ended in NaN rows with exit 0, each with the one
# line it ends with now.
NONFINITE_ROWS = {
    # The deviations reach 1e147, so every |det - 1| is NaN.
    "general-absdet-nan": (
        ("general", "--v1", "-7.42e-09", "--v2", "291496883.5", "--eps", "1e-160", "--k", "1e-160",
         "--n-min", "19", "--n-max", "115", "--n-count", "3", "--n-spacing", "linear",
         "--total-length", "4.2e-09"),
        "ptstack: numerical failure: absdet_err leaves the double range at N = 19, k = 1e-160\n",
    ),
    "converge-absdet-nan": (
        ("converge", "--k", "5.9", "--v", "3000", "--total-length", "10", "--n-min", "1",
         "--n-max", "2", "--n-count", "2"),
        "ptstack: numerical failure: absdet_err leaves the double range at N = 1, k = 5.9\n",
    ),
}


@pytest.mark.parametrize("args, stderr", list(NONFINITE_ROWS.values()), ids=list(NONFINITE_ROWS))
def test_nonfinite_study_row_names_its_column_and_n(capsys, args, stderr):
    assert run_cli(capsys, *args) == (2, "", stderr)


def test_converge_offdiag_ratio_is_nan_where_the_prediction_is_0(capsys):
    # The one non-finite column by design: offdiag_predicted is 0, the ratio 0/0.
    code, out, err = run_cli(capsys, "converge", "--k", "1", "--v", "1e-320", "--n-count", "3")
    meta, _, rows = parse_csv(out)
    assert (code, err) == (0, "")
    assert [(row["offdiag_predicted"], row["offdiag_ratio"]) for row in rows[1:]] == [("0.0", "nan")] * 2
    assert all(math.isfinite(float(value)) for row in rows for name, value in row.items()
               if name != "offdiag_ratio")
    assert meta["offdiag_ratio_at_n_max"] == "nan"


def test_converge_wide_hyperbolic_gap():
    # |gap| ~ 1e160 at N = 1: U_0 = 1 must survive the overflow of gap^2.
    # Only |det - 1| overflows, so the CLI exits 2 (converge-absdet-nan).
    record = convergence_study(5.9, 3000.0, 10.0, [1, 2])[0]
    assert record.n == 1
    assert 1e160 < record.offdiag_measured < math.inf
    assert math.isnan(record.absdet_err)


def test_cell_count_beyond_double_range_exits_2(capsys):
    code, out, err = run_cli(capsys, "converge", "--k", "1", "--v", "40", "--n-min", "1",
                             "--n-max", "1" + "0" * 400)
    assert (code, out) == (2, "")
    assert err == "ptstack: numerical failure: n_cells = 1.000e+400 is beyond the double range\n"


COUNT_BEYOND_DOUBLES = str(10**400)


@pytest.mark.parametrize("args, n_values", [
    (("converge", "--k", "1", "--v", "40", "--n-min", "100", "--n-max", "200"), list(range(100, 201))),
    (("sweep", "--v", "40", "--n-min", "1", "--n-max", "4", "--k-count", "2"), [1, 1, 2, 2, 3, 3, 4, 4]),
], ids=["converge", "sweep"])
def test_n_count_beyond_double_range_is_every_n(capsys, args, n_values):
    # Every gap of such a grid lies below 0.5, so it holds every N from
    # N_min to N_max, and the count is never converted to a float.
    code, out, err = run_cli(capsys, *args, "--n-count", COUNT_BEYOND_DOUBLES)
    assert (code, err) == (0, "")
    assert [int(row["N"]) for row in parse_csv(out)[2]] == n_values


@pytest.mark.parametrize("args, option", [
    (("sweep", "--v", "40", "--n-min", "1", "--n-max", "4", "--k-count", COUNT_BEYOND_DOUBLES), "--k-count"),
    (("converge", "--k", "1", "--v", "40", "--n-min", "1", "--n-max", "9007199254740993",
      "--n-count", COUNT_BEYOND_DOUBLES), "--n-count"),
], ids=["k-count", "n-count"])
def test_count_no_list_can_hold_is_a_usage_error(capsys, args, option):
    # Named at once, before any point is built.
    assert run_cli(capsys, *args) == (
        1, "", f"ptstack: error: {option} = 1.000e+400 is more points than a list can hold\n")


@pytest.mark.parametrize("spacing", ["log", "linear"])
@pytest.mark.parametrize(
    "command",
    [
        ("converge", "--k", "1", "--v", "40"),
        ("general", "--v1", "7", "--v2", "40", "--eps", "1", "--k", "3"),
        ("sweep", "--v", "40", "--n-min", "1", "--k-count", "3"),
    ],
    ids=lambda command: command[0],
)
def test_n_max_beyond_64_bits_runs(capsys, command, spacing):
    # An N past 2**64 is still within the double range, so the grid is
    # computed like any other and ends at the exact N_max.
    for n_max in (2**64, 10**20):
        code, out, err = run_cli(capsys, *command, "--n-max", str(n_max), "--n-spacing", spacing)
        assert (code, err) == (0, "")
        assert int(parse_csv(out)[2][-1]["N"]) == n_max


def _perfbench_n_grids(monkeypatch):
    """The (n-min, n-max, n-count) log grids the benchmark's workloads run."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return [module.SURFACE_N, module.UNBALANCED_N, module.GENERAL_DEFAULT_N, module.CONVERGE_DEFAULT_N]


def test_grids_match_numpy(monkeypatch):
    # The CLI computes numpy's linspace and geomspace in plain Python: the
    # float grid to the bit and the N grid after rounding.  N stays below
    # 1e7 here; far above it the floats are spaced so widely that a one-ulp
    # difference from numpy's own log10 and power can change a rounded N.
    import random

    import numpy as np
    from ptstack.commands.common import _float_grid, _n_grid

    def spaced(lo, hi, count, spacing):
        return np.geomspace(lo, hi, count) if spacing == "log" else np.linspace(lo, hi, count)

    rng = random.Random(20261018)
    grids = [(*grid, "log") for grid in _perfbench_n_grids(monkeypatch)]
    for _ in range(2000):
        lo = max(1, int(10 ** rng.uniform(0, 6)))
        grids.append((lo, lo + int(10 ** rng.uniform(0, 7)), rng.randint(1, 200), rng.choice(["log", "linear"])))
    for lo, hi, count, spacing in grids:
        expected = sorted({int(round(x)) for x in spaced(lo, hi, count, spacing)})
        assert _n_grid({"n_min": lo, "n_max": hi, "n_count": count, "n_spacing": spacing}) == expected
    for _ in range(2000):
        lo = 10 ** rng.uniform(-5, 5)
        hi = lo + rng.choice([0.0, 5e-324, 10 ** rng.uniform(-20, 5)])
        count = rng.randint(1, 300)
        assert list(map(repr, _float_grid(lo, hi, count))) == list(map(repr, np.linspace(lo, hi, count).tolist()))
    # Grids on which no two neighbouring points lie more than 0.5 apart,
    # which round to every integer from lo to hi.
    dense = [(1, 2, 3, "linear"), (10, 20, 21, "linear"), (7, 7, 5, "log")]
    while len(dense) < 300:
        count = int(10 ** rng.uniform(0.5, 5))
        lo = max(1, int(10 ** rng.uniform(0, 7)))
        grid = (lo, lo + int(rng.uniform(0, 0.5) * (count - 1)), count, rng.choice(["log", "linear"]))
        if np.diff(spaced(*grid)).max() <= 0.5:
            dense.append(grid)
    for lo, hi, count, spacing in dense:
        expected = np.unique(np.rint(spaced(lo, hi, count, spacing))).astype(int).tolist()
        assert expected == list(range(lo, hi + 1))
        assert _n_grid({"n_min": lo, "n_max": hi, "n_count": count, "n_spacing": spacing}) == expected


def test_json_writer_matches_json_dumps():
    # The writer must print what json.dumps(doc, indent=2) prints, with
    # complex values as [re, im] and a NaN row or summary value as null,
    # from the rows as one text and as files rendered one after another.
    import math
    from ptstack.cli import _write_table
    from ptstack.commands.common import _column, _render_rows, _rows_text

    inf, nan = math.inf, math.nan
    meta = [("tool", "ptstack"), ("note", 'quote " \\ é \n'), ("flag", False), ("count", 3), ("v", 1e-300)]
    rows = [(1, 0.5, complex(1.5, -0.0), nan, inf), (2, 1e22, complex(nan, inf), -inf, 2.0)]
    summary = [("slope", -1.0), ("height", complex(7.0, 0.25)), ("verdict", "ok"), ("missing", nan), ("converged", True)]
    columns = ("N", "k", "m11", "err", "x")

    def rendered(part, first):
        fields = [field for name, values in zip(columns, zip(*part)) for field in _column("json", name, values)]
        return _render_rows("json", fields, first)

    files = [io.StringIO(rendered(rows[:1], True)), io.StringIO(rendered(rows[1:], False))]
    out, out_files = io.StringIO(), io.StringIO()
    _write_table(out, "json", meta, _rows_text("json", columns, rows), summary)
    _write_table(out_files, "json", meta, files, summary)

    def plain(value):
        if isinstance(value, complex):
            return [value.real, value.imag]
        return None if isinstance(value, float) and math.isnan(value) else value

    doc = {
        "metadata": dict(meta),
        "rows": [{c: plain(v) for c, v in zip(columns, row)} for row in rows],
        "summary": {k: plain(v) for k, v in summary},
    }
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"
    assert out_files.getvalue() == out.getvalue()


GOLDEN_DIR = Path(__file__).parent / "data" / "cli"

GOLDEN = {
    "cell": ("cell", "--k", "1", "--v", "40", "--b", "0.05"),
    "sweep": ("sweep", "--v", "40", "--n-min", "10", "--n-max", "20", "--n-count", "2",
              "--k-min", "1", "--k-max", "5", "--k-count", "3"),
    "sweep-fig3": ("sweep", "--fig3", "--n-count", "1"),
    "converge": ("converge", "--k", "5", "--v", "40", "--n-min", "100", "--n-max", "10000",
                 "--n-count", "5"),
    "general": ("general", "--v1", "7", "--v2", "40", "--eps", "1", "--k", "3",
                "--n-min", "128", "--n-max", "1024", "--n-count", "4"),
    "general-nonconverged": ("general", "--v1", "0", "--v2", "40", "--eps", "-1", "--k", "1",
                             "--n-min", "2", "--n-max", "8", "--n-count", "3"),
    "oracle-check": ("oracle-check",),
    "oracle-check-quick": ("oracle-check", "--quick"),
    # k range from the config file, v from the flag
    "sweep-config": ("sweep", "--config", str(GOLDEN_DIR / "sweep.cfg"), "--v", "7"),
    # the preset's v = 40 beats the config's v = 7
    "sweep-fig3-config": ("sweep", "--fig3", "--config", str(GOLDEN_DIR / "fig3.cfg")),
    "usage-missing-option": ("cell", "--k", "1", "--v", "40"),
    "usage-bad-choice": ("sweep", "--v", "40", "--n-min", "5", "--n-max", "10",
                         "--n-spacing", "cubic"),
}


def _golden_run(name, fmt):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*GOLDEN[name], "--format", fmt])
    return out.getvalue(), err.getvalue(), code


def _check_golden(name, fmt):
    out, err, code = _golden_run(name, fmt)
    expected = json.loads((GOLDEN_DIR / "results.json").read_text(encoding="utf-8"))[f"{name}.{fmt}"]
    assert out.encode("utf-8") == (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()
    assert (err, code) == (expected["stderr"], expected["exit"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, fmt):
    _check_golden(name, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(name for name in GOLDEN if name.startswith("sweep")))
def test_golden_sweep_on_one_cpu(monkeypatch, name, fmt):
    # The same files as test_golden_output, which forks where the host has
    # several CPUs; on one CPU no worker starts.
    _on_cpus(monkeypatch, 1)
    forks = _counting_forks(monkeypatch)
    _check_golden(name, fmt)
    assert forks == []


# The grid of the benchmark's `surface` workload (perfbench/workloads.py),
# with its drawn V and k_min fixed at 40 and 1.2: 46,000 points, 92 distinct
# N by 500 k.  The sha256 of each output was recorded from the per-point call
# chain that the sweep's straight-line loop replaced.
SURFACE = ("sweep", "--v", "40", "--total-length", "1", "--n-min", "1", "--n-max", "1000000", "--n-count", "100",
           "--n-spacing", "log", "--k-min", "1.2", "--k-max", "10.2", "--k-count", "500")
SURFACE_SHA256 = {
    "csv": "44ce0e19ed79afa362b08f5424b188707c0f54d4c7998c4f7bf8892477d65cdc",
    "json": "4267e0225356e19f6a552d0f529d11ff15b67c5d5e5e73846a6da91ccf44815e",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_benchmark_surface_digest(fmt):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*SURFACE, "--format", fmt])
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == SURFACE_SHA256[fmt]


def test_benchmark_surface_takes_no_error_path(capsys, monkeypatch):
    # Every point of the benchmark's grid computes in the straight-line loop;
    # none is computed again by the scalar chain that is its error path.
    import ptstack.scattering

    _on_cpus(monkeypatch, 1)
    calls, surface_point = [], ptstack.scattering._surface_point

    def counting_point(*args):
        calls.append(args)
        return surface_point(*args)

    monkeypatch.setattr(ptstack.scattering, "_surface_point", counting_point)
    code, _, err = run_cli(capsys, *SURFACE)
    assert (code, err, calls) == (0, "", [])


SRC = Path(__file__).resolve().parent.parent / "src"


def _process(argv, unbuffered=False, **kwargs) -> subprocess.CompletedProcess:
    """Run ``argv`` as a process with ptstack on its path and, unless
    ``unbuffered``, with buffered standard output: ``PYTHONUNBUFFERED`` would
    write every byte at once and hide a missing flush."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(argv, env=env, stderr=subprocess.PIPE, check=False, timeout=120, **kwargs)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_as_a_process(name, fmt):
    # The same files as test_golden_output, through run(), which ends the
    # process without teardown: a byte left unflushed would be lost.
    run = _process([sys.executable, "-m", "ptstack.cli", *GOLDEN[name], "--format", fmt, "--output", "-"],
                   stdout=subprocess.PIPE)
    expected = json.loads((GOLDEN_DIR / "results.json").read_text(encoding="utf-8"))[f"{name}.{fmt}"]
    assert run.stdout == (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()
    assert (run.stderr.decode("utf-8"), run.returncode) == (expected["stderr"], expected["exit"])


CELL = ("cell", "--k", "1", "--v", "40", "--b", "0.05")
# About 330 kB of rows, more than a pipe holds (64 kB on Linux), so the
# write fails before the final flush.
BIG_SWEEP = ("sweep", "--v", "40", "--n-min", "10", "--n-max", "100", "--n-count", "20")


# --help and --version print to standard output like a table.
HELP = {"help": ("--help",), "sweep-help": ("sweep", "--help"), "version": ("--version",)}
UNWRITABLE_HELP = [
    pytest.param(stdout, args, errno_text, unbuffered, id=f"{name}-{where}-{'un' if unbuffered else ''}buffered")
    for name, args in HELP.items()
    for stdout, where, errno_text in [
        ("/dev/full", "dev-full", "[Errno 28] No space left on device"),
        ("closed", "closed", "standard output is closed"),
    ]
    for unbuffered in (False, True)
]


@pytest.mark.parametrize("stdout, args, errno_text, unbuffered", [
    pytest.param("/dev/full", CELL, "[Errno 28] No space left on device", False, id="dev-full"),
    pytest.param("closed-pipe", CELL, "[Errno 32] Broken pipe", False, id="closed-pipe-cell"),
    pytest.param("closed-pipe", BIG_SWEEP, "[Errno 32] Broken pipe", False, id="closed-pipe-sweep"),
    pytest.param("closed", CELL, "standard output is closed", False, id="closed-at-start"),
    *UNWRITABLE_HELP,
])
def test_unwritable_stdout_exits_1(stdout, args, errno_text, unbuffered):
    argv = [sys.executable, "-m", "ptstack.cli", *args]
    if stdout == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "wb") as full:
            run = _process(argv, unbuffered, stdout=full)
    elif stdout == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first byte
        try:
            run = _process(argv, stdout=write_end)
        finally:
            os.close(write_end)
    else:
        run = _process(["sh", "-c", '"$@" >&-', "sh", *argv], unbuffered)
    assert (run.returncode, run.stderr.decode("utf-8")) == (1, f"ptstack: error: {errno_text}\n")


# A grid whose points cannot fit in memory: the list of points grows until
# an allocation fails.  (A count far beyond the distinct N of a narrow range
# costs only the distinct N.)
HUGE_COUNT = {
    "converge": ("converge", "--k", "1", "--v", "40", "--n-min", "1", "--n-max", "1000000000000000",
                 "--n-count", "1000000000000"),
    "sweep": ("sweep", "--v", "40", "--n-min", "1", "--n-max", "10", "--k-count", "1000000000000"),
}


@pytest.mark.parametrize("args", list(HUGE_COUNT.values()), ids=list(HUGE_COUNT))
def test_out_of_memory_is_one_line(args):
    # Only under a limit on the address space: without one the grid would
    # take the machine's memory before it failed.
    limit = 512 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    run = _process([sys.executable, "-m", "ptstack.cli", *args], stdout=subprocess.PIPE, preexec_fn=limit_memory)
    assert (run.returncode, run.stdout, run.stderr) == (1, b"", b"ptstack: error: out of memory\n")


@pytest.mark.parametrize("args", list(HELP.values()), ids=list(HELP))
def test_help_and_version_return_0(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (0, "")
    assert out.startswith("ptstack " if args == ("--version",) else "usage: ptstack ")


_RUN_WITH_MAIN = (
    "import sys, ptstack.cli as cli\n"
    "cli.main = lambda: {body}\n"
    "cli.run()\n"
)


@pytest.mark.parametrize("body, code, stderr", [
    ("3", 3, ""),
    # a failed final flush never ends a run with 0, and prints nothing more
    ("sys.stdout.write('x' * 100) and 0", 1, ""),
    # a bug keeps its traceback
    ("1 / 0", 1, "ZeroDivisionError: division by zero\n"),
], ids=["code", "unflushed-to-full", "bug"])
def test_run_exit_code(body, code, stderr):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as full:
        run = _process([sys.executable, "-c", _RUN_WITH_MAIN.format(body=body)], stdout=full)
    assert run.returncode == code
    assert run.stderr.decode("utf-8").endswith(stderr)


@pytest.mark.parametrize("args", [CELL, BIG_SWEEP, ("oracle-check", "--quick", "--format", "json")],
                         ids=["cell", "sweep", "oracle-check"])
def test_main_leaves_nothing_for_teardown(tmp_path, args):
    # What run() relies on to skip teardown: after main, no exit handler,
    # thread, child process or open file that was not there before.
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd")
    code = (
        "import atexit, os, threading\n"
        "handlers, fds = atexit._ncallbacks(), sorted(os.listdir('/proc/self/fd'))\n"
        "from ptstack.cli import main\n"
        f"code = main([*{args!r}, '--output', {str(tmp_path / 'out')!r}])\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    child = True\n"
        "except ChildProcessError:\n"
        "    child = False\n"
        "print(code, atexit._ncallbacks() - handlers, threading.active_count(), child,\n"
        "      sorted(os.listdir('/proc/self/fd')) == fds)\n"
    )
    run = _process([sys.executable, "-c", code], stdout=subprocess.PIPE)
    assert (run.stdout, run.stderr) == (b"0 0 1 False True\n", b"")


def _record_golden():
    results = {}
    for name in sorted(GOLDEN):
        for fmt in ("csv", "json"):
            out, err, code = _golden_run(name, fmt)
            (GOLDEN_DIR / f"{name}.{fmt}").write_bytes(out.encode("utf-8"))
            results[f"{name}.{fmt}"] = {"exit": code, "stderr": err}
    text = json.dumps(results, indent=2, sort_keys=True) + "\n"
    (GOLDEN_DIR / "results.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli.py --record")
    _record_golden()
