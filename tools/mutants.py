"""Mutation check: each row of MUTANTS breaks the program in one place, and
each test it names must then fail.

    python tools/mutants.py          # every row
    python tools/mutants.py 0 3      # rows 0 and 3

Each row is applied to a fresh temporary copy of ``src/`` and ``tests/``,
never to the checkout, and only the row's tests run there, under the
``mutants`` Hypothesis profile of ``tests/conftest.py`` (no shrinking, no
explaining, no example database).  A row is killed when every test it
names fails (one failing parametrized case is enough).  JOBS rows run at a
time, and the script prints killed or survived per row, in row order, and
exits 1 if any row survives, if its tests cannot run, or if a row's ``old``
text does not occur exactly once in its file.  It is opt-in: the test suite
checks only that every ``old`` text still occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2  # rows at a time: each row's pytest process keeps about one core busy


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # exact text, which must occur once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


MUTANTS = (
    Mutant("the size table drops each pool's first split",
           "src/catalania/census.py",
           "_total(sizes, tree_plan(sub, p))",
           "_total(sizes, tree_plan(sub, p)[1:])",
           ("tests/test_forest.py::TestCountForests::test_counts_at_any_cap",
            "tests/test_forest.py::TestCountForests::test_counts_near_the_budget")),
    Mutant("a split's size product is off by one",
           "src/catalania/census.py",
           "sum(prod(map(sizes.__getitem__, split)) for split in splits)",
           "sum(prod(map(sizes.__getitem__, split)) + 1 for split in splits)",
           ("tests/test_forest.py::TestCountForests::test_counts_the_generated_forests",
            "tests/test_forest.py::TestCountForests::test_counts_near_the_budget")),
    Mutant("a slice's coloring names its leaf of color j > 1 j - 1 places to the right",
           "src/catalania/involution.py",
           "sorted((i, j) for j, chosen in enumerate(classes, 1) for i in chosen)",
           "sorted((i + j - 1, j) for j, chosen in enumerate(classes, 1) for i in chosen)",
           ("tests/test_involution.py::TestGeneratedStructures::"
            "test_slices_match_addresses_found_per_forest",
            "tests/test_identities.py::TestGoldenEnumerations::test_two_class_census_order_is_pinned")),
    Mutant("Record equality, which Tree and Forest use, compares a value's fields with themselves",
           "src/catalania/exact.py",
           "return self._values() == other._values()",
           "return self._values() == self._values()",
           ("tests/test_data_model.py::test_equal_iff_structurally_equal",
            "tests/test_data_model.py::test_deep_trees_compare_and_hash")),
    Mutant("closed_form accepts n_max 0, whose grid checks nothing",
           "src/catalania/identities.py",
           '    if n_max < 1:\n'
           '        raise ValueError("closed_form rows are 1 <= n <= n_max: need n_max >= 1")\n',
           "",
           ("tests/test_identities.py::TestReadBeforeEvaluate::test_each_mistake_is_found_by_the_read"
            "[closed_form-n_max]",)),
    Mutant("the signed census drops one slot from multi-class slices",
           "src/catalania/census.py",
           "slots = residual.leaf_count(gamma) - gamma + alpha\n",
           "slots = residual.leaf_count(gamma) - gamma + alpha - (len(marks) > 1)\n",
           ("tests/test_involution.py::TestSignedSums::test_counted_sums_match_the_built_census",)),
    Mutant("the census builds its first slice before the budget check",
           "src/catalania/involution.py",
           "    return [_colorings(residual, gamma, alpha - gamma, marks)\n",
           "    from .census import census_sizes\n"
           "    residual, marks, _ = census_sizes(profile, gamma, alpha)[0]\n"
           "    _colorings(residual, gamma, alpha - gamma, marks)\n"
           "    return [_colorings(residual, gamma, alpha - gamma, marks)\n",
           ("tests/test_involution.py::TestCensusBudget::test_scalar_census_sums_its_slices",)),
    Mutant("the dump walk skips each forest's last coloring",
           "src/catalania/involution.py",
           "                for leaves, roots, indices, prefix in colorings:\n",
           "                for leaves, roots, indices, prefix in colorings[:-1]:\n",
           ("tests/test_encoding.py::TestPairLines::test_edge_shapes",
            "tests/test_cli.py::test_dump_pairs_output_golden")),
    Mutant("the dump's slice check never fires",
           "src/catalania/involution.py",
           "            if walked != size:\n",
           "        if False:\n",
           ("tests/test_involution.py::TestPairings::"
            "test_a_slice_that_walks_other_than_its_count_raises",
            "tests/test_cli.py::TestInvolution::"
            "test_a_dump_slice_that_walks_other_than_its_count_fails")),
    Mutant("a regenerated pool's tree text drops its closing ')'",
           "src/catalania/forest.py",
           "zip(*map(itertools.repeat, head), _trees(large, p), *tail)",
           "zip(*map(itertools.repeat, head), (text[:-1] for text in _trees(large, p)), *tail)",
           ("tests/test_forest.py::TestStreaming::test_beta_ary_stream_matches_held_pools",
            "tests/test_forest.py::TestStreaming::test_any_cap_yields_the_canonical_sequence",
            "tests/test_encoding.py::TestTupleModel::test_forests_from_pools_over_the_cap")),
    Mutant("the Eq9 identity skips its off-diagonal entries",
           "src/catalania/identities.py",
           "for n, row in enumerate(backward) for k in range(n + 1))",
           "for n, row in enumerate(backward) for k in range(n, n + 1))",
           ("tests/test_identities.py::TestEq9Failures::test_failure_report_bytes_are_pinned",
            "tests/test_identities.py::TestEq9Failures::"
            "test_the_identity_and_the_seeded_round_trips_agree")),
    Mutant("the Eq9 identity drops the den factor on the diagonal",
           "src/catalania/identities.py",
           "(den * row[k] if k == n else 0)",
           "(row[k] if k == n else 0)",
           ("tests/test_identities.py::TestGoldenReports::test_report_bytes_are_pinned",
            "tests/test_identities.py::TestPairKernel::"
            "test_eq9_decides_inverse_pairs_without_drawing_a_sequence",
            "tests/test_identities.py::TestEq9Failures::"
            "test_the_identity_and_the_seeded_round_trips_agree")),
    Mutant("involute grows the leaf one index to the right of the candidate",
           "src/catalania/involution.py",
           '        grown = text[:pos] + "(" + "o" * degree + ")" + text[pos + 1:]\n',
           "        pos = shape.leaves[(leaf + 1) % len(shape.leaves)]\n"
           '        grown = text[:pos] + "(" + "o" * degree + ")" + text[pos + 1:]\n',
           ("tests/test_involution.py::TestRenumbering::test_pairs_renumber_the_other_colored_leaves",
            "tests/test_involution.py::TestInvolute::test_roundtrip_grid",
            "tests/test_encoding.py::TestPairLines::test_small_censuses")),
    Mutant("growing a leaf moves the later colored leaves one index too far",
           "src/catalania/involution.py",
           "moved = [(i + degree - 1, j) for i, j in c.leaf_colors[k + 1:]]",
           "moved = [(i + degree, j) for i, j in c.leaf_colors[k + 1:]]",
           ("tests/test_involution.py::TestRenumbering::test_pairs_renumber_the_other_colored_leaves",
            "tests/test_involution.py::TestInvolute::test_later_leaves_are_renumbered",
            "tests/test_encoding.py::TestPairLines::test_small_censuses")),
    Mutant("pruning an incumbent moves the later colored leaves by its outdegree",
           "src/catalania/involution.py",
           "moved = [(i - degree + 1, j) for i, j in c.leaf_colors[k:]]",
           "moved = [(i - degree, j) for i, j in c.leaf_colors[k:]]",
           ("tests/test_involution.py::TestRenumbering::test_pairs_renumber_the_other_colored_leaves",
            "tests/test_involution.py::TestInvolute::test_later_leaves_are_renumbered")),
    Mutant("a rational Gould row entry drops the z denominator's power from its denominator",
           "src/catalania/identities.py",
           "dens = [(q * z.denominator) ** j * factorial(j) for j in range(length)]",
           "dens = [q ** j * factorial(j) for j in range(length)]",
           ("tests/test_identities.py::TestPairKernel::test_rows_match_binom_and_fraction_powers",
            "tests/test_identities.py::TestPairKernel::test_transforms_match_the_textbook_sums")),
    Mutant("the counted census reads every slice's forests at the whole profile",
           "src/catalania/census.py",
           "_total(sizes, vector_compositions(residual.n, gamma))",
           "_total(sizes, vector_compositions(profile.n, gamma))",
           ("tests/test_involution.py::TestSignedSums::test_counted_sums_match_the_built_census",
            "tests/test_identities.py::TestCrossRoute::test_a_wrong_census_is_the_counterexample")),
    Mutant("a row sum leaves column 1 unscaled to the common denominator",
           "src/catalania/riordan.py",
           "up = ak * (den // column.den)",
           "up = ak * (den // column.den if k != 1 else 1)",
           ("tests/test_riordan.py::TestIntegerKernel::test_row_sums_add_over_one_denominator",
            "tests/test_riordan.py::TestIntegerKernel::test_row_sums")),
    Mutant("the counted census skips its budget check",
           "src/catalania/census.py",
           "    slices = census_slices(profile, gamma, alpha)\n",
           "    slices = census_sizes(profile, gamma, alpha)\n",
           ("tests/test_involution.py::TestCensusBudget::test_counted_census_checks_before_any_count",
            "tests/test_identities.py::TestEvaluationErrors::"
            "test_the_cross_census_is_sized_before_it_counts")),
    Mutant("a generating function reads the run's counts at another gamma",
           "src/catalania/identities.py",
           "lambda: Series(_catalans(beta, gamma, order, catalan)))",
           "lambda: Series(_catalans(beta, gamma + 1, order, catalan)))",
           ("tests/test_identities.py::TestSeriesTables::test_generating_functions_are_catalan_gf",
            "tests/test_identities.py::TestGoldenReports::test_report_bytes_are_pinned")),
)


def occurrences(mutant: Mutant) -> int:
    """How often the row's old text occurs in its file in the checkout."""
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def run(mutant: Mutant) -> str:
    """'killed', or why not: the named tests that passed on the mutant, or
    pytest's exit status when it ran no test to a verdict."""
    with tempfile.TemporaryDirectory(prefix="catalania-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp, mutant.file)
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                          encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")), "PYTHONDONTWRITEBYTECODE": "1",
               "CATALANIA_HYPOTHESIS_PROFILE": "mutants"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        return f"error: pytest exited {proc.returncode}"
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    survivors = [test for test in mutant.tests
                 if not any(f == test or f.startswith(test + "[") for f in failed)]
    return "killed" if not survivors else "survived: " + ", ".join(survivors)


def verdict(mutant: Mutant) -> str:
    """run(mutant), once its old text is known to occur exactly once."""
    found = occurrences(mutant)
    return run(mutant) if found == 1 else f"old text occurs {found} times, not once"


def main(argv: list[str]) -> int:
    rows = [int(arg) for arg in argv] if argv else range(len(MUTANTS))
    ok = True
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for i, result in zip(rows, pool.map(verdict, (MUTANTS[i] for i in rows))):
            ok = ok and result == "killed"
            print(f"{i}: {result} -- {MUTANTS[i].name} ({MUTANTS[i].file})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
