"""Benchmark of the ptstack CLI: end-to-end workloads and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload surface --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # every workload

Every CLI invocation runs in a fresh ``python -m ptstack.cli`` process that
writes its table to a file; invocations run one after another (closed loop,
one client).  A workload's invocations are repeated for ``--seconds``, every
output is checked (exit code, parse, row count, finiteness, byte-identical
repeats, the independent oracle) and each failure counts against the run.

``--trace 0`` reports the end-to-end metrics.  Their times are normalised
to a reference host speed: every measured process is flanked by two runs of
``perfbench/probe.py``, a fixed pure-Python load in a fresh process, and its
wall time is scaled by (PROBE_REF_S / mean of the two probe times) **
PROBE_EXPONENT.  The raw wall times are printed and saved as well.
``--trace 1`` alternates untraced passes with traced ones
(``perfbench/trace.py``) and reports the per-layer metrics, import times
from ``python -X importtime`` and the tracing overhead.  Human-readable lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A results file with the environment record is written under
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from statistics import median
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
TRACE_SCRIPT = Path(__file__).resolve().parent / "trace.py"
WORKLOADS_SCRIPT = Path(__file__).resolve().parent / "workloads.py"
PROBE_SCRIPT = Path(__file__).resolve().parent / "probe.py"
PYTHON = sys.executable

DEFAULT_SEED = 1
SETUP_RUNS = 5  # fresh `import ptstack` processes per run; setup_s is their median
PROBE_REF_S = 0.2  # probe.py wall time on the reference host; normalised times are in its seconds
# How a fresh ptstack process's wall time follows the probe's, fitted on the
# baseline host: the log-log slope was 0.75-0.88 per workload.  Over 25 runs
# per workload at different host speeds, 1.0 spread less on surface and
# unbalanced but more on short-runs and set-up; 0.8 spread more on all.
PROBE_EXPONENT = 0.9
IMPORTTIME_RUNS = 3
MIN_PASSES = 3  # untraced passes per --trace 0 run, even past --seconds
RUN_SLACK_S = 140.0  # per workload, past --seconds: a child still running then is killed and counted as failed
TAIL_BEYOND = 10  # wall_tail_s: highest sample with at least this many above it
IMPORTS = ("ptstack", "ptstack.limits", "ptstack.oracle", "scipy.optimize", "scipy.integrate")
BRANCHES = ("oscillatory", "hyperbolic", "reflected")


class ChildTimeout(Exception):
    pass


@dataclass
class Child:
    wall: float
    code: int
    rss_mb: float
    stdout: str
    stderr: str


def _alarm(signum, frame):
    raise ChildTimeout


def run_child(argv: list, deadline: float) -> Child:
    """Run one process to completion; wall time and its own peak RSS (wait4).

    Linux carries the parent's peak RSS into a child across fork and exec, so
    this process must stay smaller than the children it measures: output
    checks run in a child of their own (``workloads.py``).
    """
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise ChildTimeout
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_path, err_path = OUT / "stdout.txt", OUT / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        previous = signal.signal(signal.SIGALRM, _alarm)
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            # wait4, not Popen.wait: it returns this child's own resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        except ChildTimeout:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above, not by Popen
    # ru_maxrss is in KiB on Linux.
    return Child(
        wall,
        proc.returncode,
        usage.ru_maxrss / 1024.0,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


def _digest(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


class Runner:
    """Runs one workload's invocations and checks every output.

    Each invocation's first output is kept and checked once, after the
    passes; every later output of the same invocation must have the same
    digest, so the verdict holds for it too.
    """

    def __init__(self, workload: workloads.Workload, deadline: float) -> None:
        self.workload = workload
        self.deadline = deadline
        self.attempts = []  # (invocation name, digest or None, problems)
        self.first: dict[str, tuple] = {}  # invocation name -> (digest, kept output)
        self.peak_rss_mb = 0.0
        self.run_problems = []  # failures of the run itself, not of one invocation
        self.failed = 0
        self.problems: dict[str, int] = {}

    def fail(self, problem: str) -> None:
        self.run_problems.append(problem)

    @property
    def attempted(self) -> int:
        return len(self.attempts)

    def output(self, inv: workloads.Invocation) -> Path:
        return OUT / f"{self.workload.name}-{inv.name}.csv"

    def invoke(self, inv: workloads.Invocation, trace_path: Path | None = None) -> Child:
        out = self.output(inv)
        out.unlink(missing_ok=True)
        args = [*inv.args, "--output", str(out)]
        if trace_path is None:
            argv = [PYTHON, "-m", "ptstack.cli", *args]
        else:
            argv = [PYTHON, str(TRACE_SCRIPT), str(trace_path), "--", *args]
        try:
            child = run_child(argv, self.deadline)
        except ChildTimeout:
            self.attempts.append((inv.name, None, ["killed at the run's time limit"]))
            raise
        if trace_path is None:
            self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        self.attempts.append((inv.name, *self._verify(inv, child, out)))
        return child

    def _verify(self, inv: workloads.Invocation, child: Child, out: Path) -> tuple:
        """(digest or None, problems) of one invocation; keeps its first output."""
        if child.code != 0:
            last = child.stderr.strip().splitlines()[-1:] or [""]
            return None, [f"exit {child.code} (expected 0): {last[0]}"]
        try:
            digest = _digest(out)
        except OSError as exc:
            return None, [f"no output: {exc}"]
        if inv.name not in self.first:
            kept = out.with_suffix(".first.csv")
            shutil.copyfile(out, kept)
            self.first[inv.name] = (digest, kept)
        if self.first[inv.name][0] != digest:
            return digest, ["output differs from an earlier identical invocation"]
        return digest, []

    def finish(self) -> None:
        """Check the kept outputs in a child process and count the failures."""
        verdicts = {}
        if self.first:
            argv = [PYTHON, str(WORKLOADS_SCRIPT), self.workload.name, str(self.workload.seed)]
            argv += [f"{name}={kept}" for name, (_, kept) in self.first.items()]
            try:
                child = run_child(argv, self.deadline)
                verdicts = json.loads(child.stdout) if child.code == 0 else {}
            except (ChildTimeout, ValueError):
                child = None
            if child is None or child.code != 0:
                verdicts = {name: ["output check did not complete"] for name in self.first}
        failures = list(self.run_problems)
        for name, digest, problems in self.attempts:
            if digest is not None and digest == self.first[name][0]:
                problems = problems + verdicts.get(name, [])
            if problems:
                failures.append(f"{name}: " + "; ".join(problems))
        self.failed = len(failures)
        for problem in failures:
            self.problems[problem] = self.problems.get(problem, 0) + 1


def tail(samples: list):
    """(value, percentile) of the highest sample with TAIL_BEYOND samples above it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank in ascending order
    return sorted(samples)[rank - 1], 100.0 * rank / n


def import_ptstack(deadline: float) -> float:
    """Wall time of one fresh ``import ptstack`` process."""
    child = run_child([PYTHON, "-c", "import ptstack"], deadline)
    if child.code != 0:
        raise RuntimeError(f"`import ptstack` failed: {child.stderr.strip()}")
    return child.wall


def probe(deadline: float) -> float:
    """Wall time of one fresh ``probe.py`` process: the host's current speed."""
    child = run_child([PYTHON, str(PROBE_SCRIPT)], deadline)
    if child.code != 0:
        raise RuntimeError(f"probe.py exited {child.code}: {child.stderr.strip()}")
    return child.wall


def normalise(walls: list, probes: list) -> list:
    """Wall times in reference seconds; probes[i] ran right before walls[i], probes[i + 1] right after."""
    return [w * (2.0 * PROBE_REF_S / (probes[i] + probes[i + 1])) ** PROBE_EXPONENT for i, w in enumerate(walls)]


def measure_setup(deadline: float) -> tuple:
    """(raw, probes) of SETUP_RUNS fresh ``import ptstack`` processes, each between two probes."""
    walls, probes = [], [probe(deadline)]
    for _ in range(SETUP_RUNS):
        walls.append(import_ptstack(deadline))
        probes.append(probe(deadline))
    return walls, probes


def measure_imports(deadline: float) -> dict:
    """Cumulative import time of IMPORTS, median over IMPORTTIME_RUNS."""
    runs = {name: [] for name in IMPORTS}
    for _ in range(IMPORTTIME_RUNS):
        child = run_child([PYTHON, "-X", "importtime", "-c", "import ptstack"], deadline)
        cumulative = {}
        for line in child.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        for name in IMPORTS:
            runs[name].append(cumulative.get(name, 0.0))
    return {name: median(values) for name, values in runs.items()}


def run_passes(runner: Runner, seconds: float, one_pass, min_passes: int) -> list:
    """Closed loop: passes back to back until the next would end past ``seconds``."""
    results = []
    start = perf_counter()
    while True:
        try:
            results.append(one_pass())
        except ChildTimeout:
            break
        elapsed = perf_counter() - start
        expected = elapsed / len(results)
        if len(results) >= min_passes and elapsed + expected > seconds:
            break
        if perf_counter() + expected > runner.deadline:
            break
    if not results:
        raise RuntimeError(f"{runner.workload.name}: no pass finished within the run's time limit")
    return results


def end_to_end(workload: workloads.Workload, seconds: float, setup: tuple, deadline: float):
    runner = Runner(workload, deadline)
    walls, probes = [], [probe(deadline)]  # every invocation, each followed by a probe

    def one_pass():
        for inv in workload.mix:
            walls.append(runner.invoke(inv).wall)
            probes.append(probe(deadline))

    passes = len(run_passes(runner, seconds, one_pass, MIN_PASSES))
    runner.finish()
    size = len(workload.mix)
    walls = walls[: passes * size]  # drop a pass cut short by the run's time limit
    scaled = normalise(walls, probes)
    raw = [sum(walls[i * size:(i + 1) * size]) for i in range(passes)]
    samples = [sum(scaled[i * size:(i + 1) * size]) for i in range(passes)]
    setup_samples = normalise(*setup)
    wall = median(samples)
    metrics = {
        "wall_s": (wall, "s"),
        "throughput_per_s": (workload.work_per_pass / wall, "1/s"),
        "setup_s": (median(setup_samples), "s"),
        "peak_rss_mb": (runner.peak_rss_mb, "MB"),
    }
    details = {
        "samples_s": samples,
        "setup_samples_s": setup_samples,
        "wall_tail": tail(samples),
        "raw_wall_s": median(raw),
        "raw_setup_s": median(setup[0]),
        "probe_s": median(probes + setup[1]),
        "raw_samples_s": raw,
        "raw_setup_samples_s": setup[0],
        "probe_samples_s": probes,  # probe i ran before invocation i, probe i + 1 after it
        "setup_probe_samples_s": setup[1],
    }
    return runner, metrics, details


def _pass_totals(records: list) -> dict:
    """Sum the traced invocations of one pass: calls/total/self per layer and counters."""
    calls, total, self_s, by_parent, counters = {}, {}, {}, {}, {}
    rows = bytes_out = spans = 0
    for rec in records:
        rows += rec["rows"]
        bytes_out += rec["bytes"]
        for name, parent, count, tot, slf in rec["totals"]:
            calls[name] = calls.get(name, 0) + count
            total[name] = total.get(name, 0.0) + tot
            self_s[name] = self_s.get(name, 0.0) + slf
            by_parent[(name, parent)] = by_parent.get((name, parent), 0) + count
            spans += count
        for name, counter in rec["counters"].items():
            for key, value in counter.items():
                counters[f"{name}.{key}"] = counters.get(f"{name}.{key}", 0) + value
    return {
        "calls": calls, "total": total, "self": self_s, "by_parent": by_parent,
        "counters": counters, "rows": rows, "bytes": bytes_out, "spans": spans,
    }


def layer_metrics(t: dict) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    calls, total, self_s, ctr = t["calls"], t["total"], t["self"], t["counters"]

    def per(value, count, scale=1.0):
        return value / count * scale if count else 0.0

    def self_us(name):
        return per(self_s.get(name, 0.0), calls.get(name, 0), 1e6)

    branch = {b: ctr.get(f"chebyshev.cheb_pair_from_gap.{b}", 0) for b in BRANCHES}
    compose_layers = ctr.get("stack.compose_stack.layers", 0)
    metrics = {
        "cli.main.self_s": (self_s.get("cli.main", 0.0), "s"),
        "cli.render_us_per_row": (per(self_s.get("cli.main", 0.0), t["rows"], 1e6), "us"),
        "cli.bytes_out": (t["bytes"], "bytes"),
        "scattering.transmission_surface.self_s": (self_s.get("scattering.transmission_surface", 0.0), "s"),
        "scattering.scattering_from_matrix.self_us": (self_us("scattering.scattering_from_matrix"), "us"),
        "scattering.points": (ctr.get("scattering.transmission_surface.points", 0), "count"),
        "stack.periodic_matrix.self_us": (self_us("stack.periodic_matrix"), "us"),
        "stack.periodic_matrix.calls": (calls.get("stack.periodic_matrix", 0), "count"),
        "stack.compose_stack.self_us_per_layer": (
            per(self_s.get("stack.compose_stack", 0.0), compose_layers, 1e6), "us"),
        "stack.compose_stack.layers": (compose_layers, "count"),
        "stack.build_alternating.us_per_layer": (
            per(total.get("stack.build_alternating", 0.0), ctr.get("stack.build_alternating.layers", 0), 1e6),
            "us"),
        "cell.unit_cell_elements.self_us": (self_us("cell.unit_cell_elements"), "us"),
        "cell.unit_cell_elements.calls": (calls.get("cell.unit_cell_elements", 0), "count"),
        "cell.barrier_matrix.self_us": (self_us("cell.barrier_matrix"), "us"),
        "cell.barrier_matrix.calls": (calls.get("cell.barrier_matrix", 0), "count"),
        "cell.barrier_matrix.calls.compose_stack": (
            t["by_parent"].get(("cell.barrier_matrix", "stack.compose_stack"), 0), "count"),
        "chebyshev.cheb_pair_from_gap.self_us": (self_us("chebyshev.cheb_pair_from_gap"), "us"),
        "core.mat_multiply.self_us": (self_us("core.mat_multiply"), "us"),
        "core.mat_multiply.calls": (calls.get("core.mat_multiply", 0), "count"),
        "limits.generalized_limit_study.self_s": (self_s.get("limits.generalized_limit_study", 0.0), "s"),
        "limits.convergence_study.self_s": (self_s.get("limits.convergence_study", 0.0), "s"),
        "limits.fit.barrier_calls": (
            t["by_parent"].get(("cell.barrier_matrix", "limits.generalized_limit_study"), 0), "count"),
        "oracle.slab_propagation_matrix.us_per_layer": (
            per(total.get("oracle.slab_propagation_matrix", 0.0),
                ctr.get("oracle.slab_propagation_matrix.layers", 0), 1e6), "us"),
        "oracle.integrate_transfer_matrix.s_per_call": (
            per(total.get("oracle.integrate_transfer_matrix", 0.0), calls.get("oracle.integrate_transfer_matrix", 0)),
            "s"),
        "oracle.incidence_scattering.s_per_call": (
            per(total.get("oracle.incidence_scattering", 0.0), calls.get("oracle.incidence_scattering", 0)), "s"),
        "oracle.solve_ivp.calls": (calls.get("oracle.solve_ivp", 0), "count"),
        "oracle.solve_ivp.nfev": (ctr.get("oracle.solve_ivp.nfev", 0), "count"),
        "trace.spans": (t["spans"], "count"),
    }
    for b in BRANCHES:
        metrics[f"chebyshev.calls.{b}"] = (branch[b], "count")
    return metrics


def traced(workload: workloads.Workload, seconds: float, deadline: float):
    imports = measure_imports(deadline)
    runner = Runner(workload, deadline)

    def one_pass():
        untraced = sum(runner.invoke(inv).wall for inv in workload.mix)
        wall, records = 0.0, []
        for inv in workload.mix:
            trace_path = OUT / f"{workload.name}-{inv.name}.trace.json"
            trace_path.unlink(missing_ok=True)
            child = runner.invoke(inv, trace_path)
            wall += child.wall
            if child.code != 0:
                continue  # already counted as a failed invocation
            out = runner.output(inv)
            try:
                record = json.loads(trace_path.read_text(encoding="utf-8"))
                with open(out, "rb") as fh:
                    record["rows"] = sum(1 for line in fh if not line.startswith(b"#")) - 1
                record["bytes"] = out.stat().st_size
            except (OSError, ValueError) as exc:
                runner.fail(f"{inv.name}: trace unreadable: {exc}")
                continue
            records.append(record)
        return untraced, wall, records

    passes = run_passes(runner, seconds, one_pass, 1)
    per_pass = [layer_metrics(_pass_totals(records)) for _, _, records in passes]
    counts = [{k: v for k, (v, unit) in m.items() if unit == "count"} for m in per_pass]
    if any(c != counts[0] for c in counts):
        runner.fail("per-layer counts differ between identical traced passes")
    runner.finish()
    metrics = {
        name: (median([m[name][0] for m in per_pass]), unit) for name, (_, unit) in per_pass[0].items()
    }
    for name in IMPORTS:
        metrics[f"import.{name}_s"] = (imports[name], "s")
    untraced_wall = median([p[0] for p in passes])
    traced_wall = median([p[1] for p in passes])
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    branch = {b: metrics[f"chebyshev.calls.{b}"][0] for b in BRANCHES}
    details = {
        "regime_share_pct": {b: 100.0 * n / sum(branch.values()) for b, n in branch.items() if n},
        "cli_rows": sum(record["rows"] for record in passes[0][2]),
        "passes": len(passes),
        "untraced_s": [p[0] for p in passes],
        "traced_s": [p[1] for p in passes],
        "trace_first_pass": passes[0][2],
    }
    return runner, metrics, details


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return "not installed"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "commit": git_commit(),
        "seed": seed,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, runner, metrics, details, trace: int) -> None:
    print(f"workload {workload.name}  seed {workload.seed}  inputs {workload.inputs}")
    for name, (value, unit) in metrics.items():
        note = f"  ({workload.work_unit}/s)" if name == "throughput_per_s" else ""
        print(f"  {name:44s} {_fmt(value):>14s} {unit}{note}")
    if trace == 0:
        samples = details["samples_s"]
        if details["wall_tail"] is None:
            tail_text = f"n/a: {len(samples)} samples, needs more than {TAIL_BEYOND}"
        else:
            value, pct = details["wall_tail"]
            tail_text = f"{_fmt(value)} s (p{pct:.0f} of {len(samples)} samples)"
        print(f"  {'wall_tail_s':44s} {tail_text}")
        print(f"  {'samples':44s} {len(samples)} passes of {len(workload.mix)} invocation(s)")
        print(f"  {'raw wall_s / setup_s on this host':44s} {_fmt(details['raw_wall_s'])} s / {_fmt(details['raw_setup_s'])} s")
        print(f"  {'probe.py median (reference ' + str(PROBE_REF_S) + ' s)':44s} {_fmt(details['probe_s']):>14s} s")
    else:
        print(f"  {'cli.rows (base of cli.render_us_per_row)':44s} {details['cli_rows']:>14d} count")
        shares = ", ".join(f"{b} {pct:.2f} %" for b, pct in details["regime_share_pct"].items())
        print(f"  {'chebyshev regime share':44s} {shares or 'no chebyshev calls'}")
        print(f"  {'traced passes':44s} {details['passes']}")
    frac = runner.failed / runner.attempted
    print(f"  {'failed_frac':44s} {_fmt(frac):>14s} ({runner.failed}/{runner.attempted})")
    for problem, count in runner.problems.items():
        print(f"  FAILED x{count}: {problem}", file=sys.stderr)


def save(name: str, doc: dict) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ptstack" / "__init__.py").is_file():
        print(f"perfbench: no ptstack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = perf_counter() + (args.seconds + RUN_SLACK_S) * len(names)
    env = environment(args.seed)
    import_ptstack(deadline)  # warm-up: the first import in a fresh checkout writes bytecode caches
    setup = measure_setup(deadline) if args.trace == 0 else None

    attempted = failed = 0
    combined, docs = {}, {}
    for name in names:
        workload = workloads.WORKLOADS[name](args.seed)
        if args.trace == 0:
            runner, metrics, details = end_to_end(workload, args.seconds, setup, deadline)
        else:
            runner, metrics, details = traced(workload, args.seconds, deadline)
        report(workload, runner, metrics, details, args.trace)
        attempted += runner.attempted
        failed += runner.failed
        prefix = "" if len(names) == 1 else f"{name}/"
        combined.update({f"{prefix}{k}": {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        docs[name] = {
            "inputs": workload.inputs,
            "invocations": [list(inv.args) for inv in workload.mix],
            "work_per_pass": workload.work_per_pass,
            "work_unit": workload.work_unit,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "attempted": runner.attempted,
            "failed": runner.failed,
            "failed_frac": runner.failed / runner.attempted,
            "problems": runner.problems,
            **details,
        }
    save(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"environment": env, "seconds": args.seconds, "trace": args.trace, "workloads": docs},
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
