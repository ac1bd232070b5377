"""Traced in-process run of one ptstack CLI invocation.

    python3 perfbench/trace.py TRACE.json -- <ptstack.cli arguments>

Before calling ``ptstack.cli.main(argv)``, every function in ``TRACED`` is
replaced by a timing wrapper in each ptstack module that holds it by name
(``ptstack.scattering.periodic_matrix``, ``ptstack.stack.mat_multiply``,
``ptstack.oracle.solve_ivp`` and so on), so calls between layers pass through
the wrappers.  The program itself is not changed.

Each wrapped call is a span with a name, start, end and parent (the nearest
enclosing wrapped call).  Spans of the coarse layers are kept whole; the
per-point layers run hundreds of thousands of times in a sweep, so their
spans are aggregated into count / total / self time per (name, parent) to
keep memory bounded.  Self time is a span's duration minus the time covered
by its child spans.  Everything stays in memory and is written to TRACE.json
when the invocation ends; the exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _branch(args, kwargs) -> str:
    # The branch cheb_pair_from_gap's _eval_pair takes for this gap.
    gap = float(args[1] if len(args) > 1 else kwargs["gap"])
    if gap > 1.0:
        return "reflected"
    return "hyperbolic" if gap < 0.0 else "oscillatory"


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# (module, function, keep whole spans, counter hook on (args, kwargs), counter hook on result)
TRACED = (
    ("ptstack.cli", "main", True, None, None),
    ("ptstack.scattering", "transmission_surface", True, None, lambda rows: {"points": len(rows)}),
    ("ptstack.scattering", "scattering_from_matrix", False, None, None),
    ("ptstack.stack", "periodic_matrix", False, None, None),
    ("ptstack.stack", "compose_stack", True,
     lambda a, kw: {"layers": len(_first_arg(a, kw, "stack").layers)}, None),
    ("ptstack.stack", "build_alternating", True,
     lambda a, kw: {"layers": 2 * int(a[3] if len(a) > 3 else kw["n_cells"])}, None),
    ("ptstack.cell", "unit_cell_elements", False, None, None),
    ("ptstack.cell", "barrier_matrix", False, None, None),
    ("ptstack.chebyshev", "cheb_pair_from_gap", False, lambda a, kw: {_branch(a, kw): 1}, None),
    ("ptstack.core", "mat_multiply", False, None, None),
    ("ptstack.limits", "convergence_study", True, None, None),
    ("ptstack.limits", "generalized_limit_study", True, None, None),
    ("ptstack.oracle", "slab_propagation_matrix", True,
     lambda a, kw: {"layers": len(_first_arg(a, kw, "stack").layers)}, None),
    ("ptstack.oracle", "integrate_transfer_matrix", True, None, None),
    ("ptstack.oracle", "incidence_scattering", True, None, None),
    ("ptstack.oracle", "solve_ivp", False, None, lambda r: {"nfev": int(r.nfev)}),
)


class Tracer:
    """Span stack plus the records written out at the end of the run."""

    def __init__(self) -> None:
        self.open = []  # [name, time covered by children] per open span
        self.spans = []  # (name, parent, start, end) of the coarse layers
        self.totals = {}  # (name, parent) -> [count, total_s, self_s]
        self.counters = {}  # name -> Counter
        self.t0 = perf_counter()

    def wrap(self, name, fn, keep_spans, count_args, count_result):
        open_spans, totals = self.open, self.totals
        counters = self.counters.setdefault(name, Counter())

        def traced(*args, **kwargs):
            parent = open_spans[-1][0] if open_spans else None
            if count_args is not None:
                counters.update(count_args(args, kwargs))
            frame = [name, 0.0]
            open_spans.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                duration = end - start
                if open_spans:
                    open_spans[-1][1] += duration
                entry = totals.get((name, parent))
                if entry is None:
                    entry = totals[(name, parent)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if keep_spans:
                    self.spans.append((name, parent, start - self.t0, end - self.t0))
            if count_result is not None:
                counters.update(count_result(result))
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function wherever a ptstack module holds it."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ptstack"]
        for module_name, fn_name, keep, count_args, count_result in TRACED:
            original = getattr(importlib.import_module(module_name), fn_name)
            label = f"{module_name.split('.')[-1]}.{fn_name}"
            wrapper = self.wrap(label, original, keep, count_args, count_result)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def record(self) -> dict:
        return {
            "spans": self.spans,
            "totals": [[name, parent, *entry] for (name, parent), entry in self.totals.items()],
            "counters": {name: dict(c) for name, c in self.counters.items() if c},
        }


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace.py TRACE.json -- <ptstack.cli arguments>")
    sys.path.insert(0, str(ROOT / "src"))
    import ptstack.cli

    tracer = Tracer()
    tracer.install()
    code = ptstack.cli.main(argv)
    Path(out).write_text(json.dumps(tracer.record()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
