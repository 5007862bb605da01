"""Tests of the benchmark itself: its pinned inputs, its oracle, its tracer.

Run with ``PYTHONPATH=src python -m pytest benchmarks``; the ops run as
``python -m catalania.cli`` children against ``src/``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

import bench_ops
import bench_oracle
import bench_trace
import run as bench_run

BENCHMARK_JSON = bench_run.ROOT / "BENCHMARK.json"

# One small op of every kind the workloads use.
SMALL_OPS = [
    bench_ops.verify_op({"eq4": {"alpha": {"min": "1", "max": "2", "step": "1"},
                                 "beta": {"min": "2", "max": "3", "step": "1"},
                                 "gamma": {"min": "1", "max": "1", "step": "1"},
                                 "n_max": 3}}),
    bench_ops.trees_op("count", {"beta": 2, "n": 4, "gamma": 2}),
    bench_ops.trees_op("list", {"beta": 3, "n": 3, "gamma": 2}),
    bench_ops.involution_op({"beta": 2, "n": 3, "gamma": 1, "alpha": 2}, dump=False),
    bench_ops.involution_op({"beta": 2, "n": 2, "gamma": 1, "alpha": 3}, dump=True),
    bench_ops.Op("riordan_check", ["riordan", "check", "--alpha=-5/2", "--beta=4/3",
                                   "--gamma=3/4", "--order=8"], {}, 9),
    bench_ops.Op("riordan_entry", ["riordan", "entry", "--alpha=3/2", "--beta=7/3",
                                   "--n=7", "--k=3"],
                 {"alpha": "3/2", "beta": "7/3", "n": 7, "k": 3}, 1),
    bench_ops.Op("seq", ["seq", "--beta=5/3", "--gamma=-1/4", "--n=9"],
                 {"beta": "5/3", "gamma": "-1/4", "n": 9}, 10),
]


@pytest.fixture
def runner():
    with tempfile.TemporaryDirectory() as tmp:
        yield bench_run.Runner(Path(tmp))


def _declared(section: str) -> list[str]:
    return [m["name"] for m in json.loads(BENCHMARK_JSON.read_text())[section]]


def test_pinned_grid_matches_package_default():
    from catalania.identities import DEFAULT_CONFIG

    assert bench_ops.PINNED_DEFAULT_CONFIG == DEFAULT_CONFIG


def test_passes_are_seeded():
    for workload in bench_ops.WORKLOADS:
        first = bench_ops.make_pass(workload, 7)
        assert [op.argv for op in first] == [op.argv for op in bench_ops.make_pass(workload, 7)]
    assert ([op.argv for op in bench_ops.make_pass("series", 1)]
            != [op.argv for op in bench_ops.make_pass("series", 2)])


def test_identity_rows_counts_points_times_rows():
    assert bench_ops.identity_rows({"eq1": {"n_max": 8}}) == 9
    assert bench_ops.identity_rows(SMALL_OPS[0].config) == 2 * 2 * 1 * 4


def test_oracle_closed_forms():
    assert [bench_oracle.forest_count(2, n, 1) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert bench_oracle.forest_count(3, 9, 2) == 690_690
    # 2 pairs + 1 exceptional: the census of the README's --dump-pairs example.
    assert bench_oracle.census_size(2, 1, 1, 2) == 3


@pytest.mark.parametrize("kind,params,stdout", [
    ("trees_count", {"beta": 2, "n": 3, "gamma": 1}, b"5 != 6 MISMATCH\n"),
    ("trees_list", {"beta": 2, "n": 2, "gamma": 1}, b"((oo)o)\n((oo)o)\n"),
    ("involution", {"beta": 2, "n": 2, "gamma": 1, "alpha": 3}, b"sum=0 rhs=0 OK\n"),
    ("dump_pairs", {"beta": 2, "n": 1, "gamma": 1, "alpha": 2},
     b"sum=-1 rhs=-1 OK\nexceptional P[1:0]|o\n"),
    ("riordan_entry", {"alpha": "1", "beta": "2", "n": 2, "k": 1}, b"2\n"),
    ("seq", {"beta": "2", "gamma": "1", "n": 3}, b"1\n1\n2\n4\n"),
    ("verify", {"ids": ["Eq1"]}, b'[{"identity_id": "Eq1", "status": "fail"}]\n'),
])
def test_oracle_rejects_wrong_answers(kind, params, stdout):
    assert bench_oracle.check(kind, params, 0, stdout) is not None


def test_small_ops_pass_the_oracle(runner):
    for op in SMALL_OPS:
        assert runner.run(op).error is None


def test_corrupted_verify_counts_as_failed(runner):
    corrupt = bench_ops.verify_op({"eq1": {"n_max": 8}, "corrupt_catalan": True})
    metrics, detail, results = bench_run.run_untraced(runner, [SMALL_OPS[1], corrupt], 0)
    assert [r.error is None for r in results] == [True, False]
    assert list(metrics) == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_stdout_is_byte_identical_and_layers_are_seen(runner):
    section = bench_ops.verify_op({"eq1": {"n_max": 4}})
    metrics, detail, results = bench_run.run_traced(runner, SMALL_OPS, [section], 0)
    assert [r.error for r in results] == [None] * len(results)
    assert len(results) == 2 * len(SMALL_OPS) + 1
    assert sorted(metrics) == sorted(_declared("per_layer"))
    value = {name: v for name, (v, _) in metrics.items()}
    # Seen only through rebinding: eq4 calls eq2_lhs with its default
    # ``catalan=catalan_gen``, and catalan_gen calls binom by module name.
    assert value["counting.catalan_gen.calls"] > 0
    assert value["exact.binom.calls"] > 0
    assert 0 < value["exact.binom.nonint_share"] < 1
    assert value["identities.points"] == 4  # the eq4 grid's 2 x 2 x 1 points
    assert value["identities.Eq1.total_s"] > 0
    assert value["riordan.series_mul.products"] > 0
    assert value["forest.encode.calls"] == bench_oracle.forest_count(3, 3, 2)
    assert 0 < value["involution.exceptional_share"] < 1


def test_tracer_self_time_excludes_children(tmp_path):
    tracer = bench_trace.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)), None)
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)], None)
    outer()
    tracer.write(tmp_path / "spans.bin")
    profile = bench_trace.Profile()
    profile.add_file(tmp_path / "spans.bin")
    assert profile.calls == {"outer": 1, "inner": 3}
    assert profile.self_time["outer"] == pytest.approx(
        profile.total["outer"] - profile.total["inner"])
    assert profile.self_time["inner"] == pytest.approx(profile.total["inner"])


def test_missing_program_exits_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_run, "SRC", tmp_path / "src")
    assert bench_run.main(["--workload", "series", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
