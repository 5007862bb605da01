"""Traced CLI child: runs ``catalania.cli.main`` with timing wrappers.

Usage, with the package importable (``PYTHONPATH=src``)::

    python benchmarks/bench_trace.py SPANS_PATH CLI_ARG...

behaves like ``python -m catalania.cli CLI_ARG...``: same stdout, same exit
code.  Before running, it wraps each function in ``TARGETS`` and rebinds the
wrapper wherever a ``catalania`` module holds the original, both in module
namespaces (``from .exact import binom`` binds ``binom`` in five modules) and
in function defaults (``eq2_lhs(..., catalan=catalan_gen)``), so internal
calls are seen too.  The package source is not touched.

Every call becomes a span (name, start, end, parent) kept in memory and
written to SPANS_PATH on exit; counters record work at the same boundaries.
``Profile`` reads span files back and derives per-function self time: a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import Counter
from typing import Callable, Optional

Hook = Callable[..., None]  # hook(counters, result, *args, **kwargs)


def _binom_work(counters: Counter, result, x, k) -> None:
    counters["exact.binom.steps"] += k
    if getattr(x, "denominator", 1) != 1:
        counters["exact.binom.nonint"] += 1


def _series_mul_work(counters: Counter, result, a, b) -> None:
    n = min(a.order, b.order)
    counters["riordan.series_mul.products"] += (n + 1) * (n + 2) // 2


def _count_result(key: str) -> Hook:
    def hook(counters: Counter, result, *args, **kwargs) -> None:
        counters[key] += len(result)
    return hook


def _classify_work(counters: Counter, result, *args, **kwargs) -> None:
    if result.kind == "exceptional":
        counters["involution.classify.exceptional"] += 1


# The public functions timed as layer boundaries ("module.function").
TARGETS: dict[str, Optional[Hook]] = {
    "exact.binom": _binom_work,
    "exact.multinomial": None,
    "counting.catalan_gen": None,
    "counting.catalan_vector": None,
    "identities.run_suite": None,
    "identities.eq2_lhs": None,
    "identities.eq10_lhs": None,
    "identities.verify_eq2": None,
    "identities.verify_eq3": None,
    "identities.verify_eq4": None,
    "identities.verify_eq10": None,
    "identities.closed_form_reduction_check": None,
    "riordan.series_mul": _series_mul_work,
    "riordan.series_compose": None,
    "riordan.series_div_unit": None,
    "riordan.riordan_theorem_check": None,
    "riordan.modified_riordan_check": None,
    "riordan.catalan_gf": None,
    "forest.generate_forests": _count_result("forest.generate_forests.structs"),
    "forest.encode": None,
    "involution.enumerate_colored": _count_result("involution.enumerate_colored.structs"),
    "involution.classify": _classify_work,
    "involution.involute": None,
    "involution.encode_colored": None,
    "cli.main": None,
}

# identities.points counts calls of these per-point grid checkers.
POINT_CHECKERS = ("identities.verify_eq2", "identities.verify_eq3", "identities.verify_eq4",
                  "identities.verify_eq10", "identities.closed_form_reduction_check")


class Tracer:
    """In-memory span store: parallel arrays indexed by span number."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, result, *args, **kwargs)
            return result

        return traced

    def write(self, path: str) -> None:
        header = {"names": self.names, "counters": dict(self.counters), "count": len(self.starts)}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(handle)


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind the wrappers across the package."""
    import catalania.cli  # noqa: F401  (imports every layer)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "catalania" or name.startswith("catalania.")]
    functions = [v for m in modules for v in vars(m).values()
                 if isinstance(v, types.FunctionType) and v.__defaults__]
    for qualname, hook in TARGETS.items():
        module_name, attr = qualname.split(".")
        original = getattr(sys.modules[f"catalania.{module_name}"], attr)
        wrapper = tracer.wrap(qualname, original, hook)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
        for fn in functions:
            if any(d is original for d in fn.__defaults__):
                fn.__defaults__ = tuple(wrapper if d is original else d for d in fn.__defaults__)


class Profile:
    """Per-function calls, inclusive time and self time, summed over span files."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counters: Counter = Counter()

    def add_file(self, path: str, scale: float = 1.0) -> None:
        """Add one span file, its durations multiplied by ``scale``."""
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            count = header["count"]
            columns = []
            for typecode in "iidd":
                column = array(typecode)
                column.fromfile(handle, count)
                columns.append(column)
        name_ids, parents, starts, ends = columns
        names = header["names"]
        durations = [(e - s) * scale for s, e in zip(starts, ends)]
        covered = [0.0] * count
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += durations[index]
        for index, name_id in enumerate(name_ids):
            name = names[name_id]
            self.calls[name] += 1
            self.total[name] += durations[index]
            self.self_time[name] += durations[index] - covered[index]
        self.counters.update(header["counters"])


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import catalania.cli as cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
