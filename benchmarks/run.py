"""catalania benchmark: runs one workload and prints its metrics.

Run from the repository root::

    python3 benchmarks/run.py --workload verify|enumerate|series \\
        --seed N --seconds S --trace 0|1

A closed loop with one client: each op is a fresh ``python -m catalania.cli``
child, exactly as a user runs it, and the next op starts when the previous
one exits, so per-process caches and peak RSS are what users get.  The
workload's seeded pass (bench_ops.py) repeats until S seconds have passed;
every answer is checked by an independent oracle (bench_oracle.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (bench_trace.py wraps the package's public
functions in the child), prints per-layer metrics, and checks that each op's
traced stdout is byte-identical to its untraced stdout.

Times are reported in *reference seconds*.  The speed of a shared machine
drifts by tens of percent over seconds to minutes, so between children the
benchmark also times a reference child, ``python -c REFERENCE_CODE``: interpreter
start-up plus a fixed stdlib-only computation, no catalania code, sampled at
most once a second.  Each child's wall time is scaled by REF_NOMINAL_S / the
reference time around it (the mean of "before" and "after", each the median
of the samples of the last REF_WINDOW_S seconds).  On a machine where the
reference takes REF_NOMINAL_S, reference seconds are seconds; the "detail"
line also gives the unscaled times and the measured speed.

Every metric is printed as "name value unit", then a "detail" JSON line
(fail_ratio, op_tail_s, unscaled times), an "env" JSON line (interpreter, CPU
count, git SHA, load averages) and, last, the result JSON
{"correct", "attempted", "failed", "metrics"}.  Exit status 2, with no
result, means the program could not be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import bench_ops
import bench_oracle
import bench_trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_CHILD = Path(__file__).resolve().parent / "bench_trace.py"
# Set-up samples taken before the first pass and after every pass, so that
# they spread over the run like the ops do.
SETUP_SAMPLES_FIRST = 5
SETUP_SAMPLES_PER_PASS = 3
OP_TIMEOUT_S = 150
REF_NOMINAL_S = 0.0625
REF_REUSE_S = 1.0   # no new reference sample while one is this recent
REF_WINDOW_S = 3.0  # "now" is the median of the samples this recent
REFERENCE_CODE = """\
from fractions import Fraction
acc = Fraction(0)
for i in range(1, 1500):
    acc += Fraction(1, i) * Fraction(i + 1, i + 2)
table = {}
for i in range(30000):
    table[i % 97] = table.get(i % 97, 0) + i
"""


class SetupError(RuntimeError):
    """The program under test cannot be started."""


@dataclass
class Child:
    seconds: float  # spawn to exit, unscaled
    scale: float    # REF_NOMINAL_S / the reference time measured around it
    code: int
    stdout: bytes
    stderr: bytes

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


@dataclass
class OpResult:
    op: bench_ops.Op
    child: Child
    error: Optional[str]  # None when the oracle accepts the answer


class Runner:
    """Spawns children one at a time; temporary files live in ``workdir``."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "CATALANIA_MAX_STRUCTS"}
        self.env["PYTHONPATH"] = str(SRC)
        self._configs: dict[int, Path] = {}
        self._references: list[tuple[float, float]] = []  # (taken at, seconds)

    def _config_path(self, op: bench_ops.Op) -> Path:
        path = self._configs.get(id(op))
        if path is None:
            path = self.workdir / f"config-{len(self._configs)}.json"
            path.write_text(json.dumps(op.config), encoding="utf-8")
            self._configs[id(op)] = path
        return path

    def _reference_seconds(self) -> float:
        """The reference child's current time: the median of the recent
        samples, taking a new one unless the last is very recent."""
        now = time.perf_counter()
        if not self._references or now - self._references[-1][0] >= REF_REUSE_S:
            seconds, code, _, err = self._run(["-c", REFERENCE_CODE])
            if code != 0:
                raise SetupError(f"reference child exited {code}: {err[-300:]!r}")
            now = time.perf_counter()
            self._references.append((now, seconds))
        return statistics.median(s for t, s in self._references if now - t <= REF_WINDOW_S)

    def _run(self, args: list[str]) -> tuple[float, int, bytes, bytes]:
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=self.env, cwd=ROOT) as proc:
            try:
                out, err = proc.communicate(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
                err += b"\n[benchmark] killed after timeout"
        return time.perf_counter() - start, proc.returncode, out, err

    def spawn(self, args: list[str]) -> Child:
        """Run ``python ARGS`` to completion, timed from spawn to exit."""
        before = self._reference_seconds()
        seconds, code, out, err = self._run(args)
        after = self._reference_seconds()
        return Child(seconds, 2 * REF_NOMINAL_S / (before + after), code, out, err)

    def run(self, op: bench_ops.Op, spans: Optional[Path] = None) -> OpResult:
        argv = list(op.argv)
        if op.config is not None:
            argv += ["--config", str(self._config_path(op))]
        prefix = ["-m", "catalania.cli"] if spans is None else [str(TRACE_CHILD), str(spans)]
        child = self.spawn(prefix + argv)
        error = bench_oracle.check(op.kind, op.params, child.code, child.stdout)
        if error is not None:
            tail = child.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            error = f"{' '.join(op.argv)}: {error}" + (f" ({tail[0]})" if tail else "")
        return OpResult(op, child, error)

    def setup_samples(self, count: int) -> list[Child]:
        """Children that import the CLI, build its parser and exit (``--help``)."""
        samples = []
        for _ in range(count):
            child = self.spawn(["-m", "catalania.cli", "--help"])
            if child.code != 0:
                raise SetupError(f"catalania.cli --help exited {child.code}: "
                                 f"{child.stderr.decode('utf-8', 'replace').strip()[-300:]}")
            samples.append(child)
        return samples


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail_latency(latencies: list[float]) -> Optional[dict]:
    """The highest standard percentile with at least ten ops beyond it, or
    None when the run has too few ops."""
    ordered = sorted(latencies)
    for pct in (99.9, 99.0, 95.0, 90.0):
        if len(ordered) * (100 - pct) / 100 >= 10:
            return {"percentile": pct, "value": percentile(ordered, pct), "samples": len(ordered)}
    return None


def _git_sha() -> Optional[str]:
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
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "loadavg_start": list(os.getloadavg()),
    }


def _pass_seconds(passes: list[list[OpResult]], key) -> float:
    """A pass's wall time robust to slow spells: each op's median over the
    passes, summed over the pass."""
    return sum(statistics.median(key(p[slot].child) for p in passes)
               for slot in range(len(passes[0])))


def run_untraced(runner: Runner, ops: list[bench_ops.Op],
                 seconds: float) -> tuple[dict, dict, list[OpResult]]:
    setup = runner.setup_samples(SETUP_SAMPLES_FIRST)
    passes: list[list[OpResult]] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append([runner.run(op) for op in ops])
        setup += runner.setup_samples(SETUP_SAMPLES_PER_PASS)
    results = [r for p in passes for r in p]
    latencies = [r.child.ref_seconds for r in results]
    wall_s = _pass_seconds(passes, lambda c: c.ref_seconds)
    metrics = {
        "wall_s": (wall_s, "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "work_per_s": (sum(op.work for op in ops) / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(c.ref_seconds for c in setup), "s"),
    }
    children = [r.child for r in results] + setup
    detail = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "op_tail_s": tail_latency(latencies),
        "unscaled": {
            "wall_s": _pass_seconds(passes, lambda c: c.seconds),
            "op_p50_s": statistics.median(r.child.seconds for r in results),
            "setup_s": statistics.median(c.seconds for c in setup),
        },
        "speed": statistics.median(c.scale for c in children),
    }
    return metrics, detail, results


def _run_traced_op(runner: Runner, op: bench_ops.Op, profile: bench_trace.Profile) -> OpResult:
    spans = runner.workdir / "spans.bin"
    spans.unlink(missing_ok=True)
    result = runner.run(op, spans)
    if spans.exists():
        profile.add_file(spans, result.child.scale)
    elif result.error is None:
        result.error = f"{' '.join(op.argv)}: traced child wrote no spans"
    return result


def run_traced(runner: Runner, ops: list[bench_ops.Op], sections: list[bench_ops.Op],
               seconds: float) -> tuple[dict, dict, list[OpResult]]:
    profile = bench_trace.Profile()
    results: list[OpResult] = []
    plain_s = traced_s = 0.0
    stdout_bytes = 0
    passes = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes += 1
        for op in ops:
            plain = runner.run(op)
            traced = _run_traced_op(runner, op, profile)
            if traced.error is None and traced.child.stdout != plain.child.stdout:
                traced.error = f"{' '.join(op.argv)}: traced stdout differs from untraced"
            results += [plain, traced]
            plain_s += plain.child.ref_seconds
            traced_s += traced.child.ref_seconds
            stdout_bytes += len(traced.child.stdout)

    section_totals = {}
    for op in sections:
        section = bench_trace.Profile()
        results.append(_run_traced_op(runner, op, section))
        section_totals[op.params["ids"][0]] = section.total["identities.run_suite"]

    metrics = layer_metrics(profile, passes, section_totals,
                            stdout_bytes / passes, traced_s / plain_s)
    return metrics, {"passes": passes, "ops_per_pass": len(ops)}, results


def layer_metrics(profile: bench_trace.Profile, passes: int, section_totals: dict,
                  stdout_bytes: float, overhead_ratio: float) -> dict:
    """Per-layer metrics per traced pass, from the summed span profile."""
    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    calls = {name: profile.calls[name] / passes for name in bench_trace.TARGETS}
    counters = {name: value / passes for name, value in profile.counters.items()}
    out: dict = {}
    for name, fields in (
        ("exact.binom", ("calls", "self_s")),
        ("exact.multinomial", ("calls", "self_s")),
        ("counting.catalan_gen", ("calls", "self_s")),
        ("counting.catalan_vector", ("calls", "self_s")),
        ("identities.eq2_lhs", ("calls", "self_s")),
        ("identities.eq10_lhs", ("calls",)),
        ("identities.run_suite", ("total_s",)),
        ("riordan.series_mul", ("calls", "self_s")),
        ("riordan.series_compose", ("calls", "self_s")),
        ("riordan.series_div_unit", ("calls", "self_s")),
        ("riordan.riordan_theorem_check", ("total_s",)),
        ("riordan.modified_riordan_check", ("total_s",)),
        ("riordan.catalan_gf", ("total_s",)),
        ("forest.generate_forests", ("calls", "self_s")),
        ("forest.encode", ("calls", "self_s")),
        ("involution.enumerate_colored", ("calls", "self_s")),
        ("involution.classify", ("calls", "self_s")),
        ("involution.involute", ("calls", "self_s")),
        ("involution.encode_colored", ("self_s",)),
        ("cli.main", ("self_s",)),
    ):
        if "calls" in fields:
            out[f"{name}.calls"] = (calls[name], "count")
        if "self_s" in fields:
            out[f"{name}.self_s"] = (profile.self_time[name] / passes, "s")
        if "total_s" in fields:
            out[f"{name}.total_s"] = (profile.total[name] / passes, "s")
    out["exact.binom.steps"] = (counters.get("exact.binom.steps", 0), "count")
    out["exact.binom.nonint_share"] = (
        share(counters.get("exact.binom.nonint", 0), calls["exact.binom"]), "ratio")
    out["identities.points"] = (sum(calls[name] for name in bench_trace.POINT_CHECKERS), "count")
    for identity in bench_oracle.IDENTITY_IDS:
        out[f"identities.{identity}.total_s"] = (section_totals.get(identity, 0.0), "s")
    out["riordan.series_mul.products"] = (counters.get("riordan.series_mul.products", 0), "count")
    for key in ("forest.generate_forests.structs", "involution.enumerate_colored.structs"):
        out[key] = (counters.get(key, 0), "count")
    out["involution.exceptional_share"] = (
        share(counters.get("involution.classify.exceptional", 0), calls["involution.classify"]),
        "ratio")
    out["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="catalania benchmark")
    parser.add_argument("--workload", choices=bench_ops.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "catalania" / "cli.py").is_file():
        print(f"error: no catalania package under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    ops = bench_ops.make_pass(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        try:
            if args.trace:
                sections = bench_ops.section_ops(args.seed) if args.workload == "verify" else []
                metrics, detail, results = run_traced(runner, ops, sections, args.seconds)
            else:
                metrics, detail, results = run_untraced(runner, ops, args.seconds)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    env["loadavg_end"] = list(os.getloadavg())

    errors = [r.error for r in results if r.error is not None]
    for error in errors[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    detail["fail_ratio"] = len(errors) / len(results)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(results),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
