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


# The tests that a fault in the table of forest counts must fail.
COUNT_TESTS = ("tests/test_forest.py::TestCountForests::test_counts_the_generated_forests",
               "tests/test_forest.py::TestCountForests::test_mixed_count_is_the_stream_length",
               "tests/test_forest.py::TestCountForests::test_a_count_walks_no_split")

MUTANTS = (
    Mutant("the count table drops each row's first class of first vertex",
           "src/catalania/census.py",
           "for mj, pj, stride in zip(m, p, strides) if mj]",
           "for mj, pj, stride in zip(m, p, strides) if mj][1:]",
           ("tests/test_forest.py::TestCountForests::test_counts_at_any_cap",
            "tests/test_forest.py::TestCountForests::test_counts_near_the_budget")),
    Mutant("a count table cell's first-vertex sum is off by one",
           "src/catalania/census.py",
           "zip(repeat(0, top), *rests)",
           "zip(repeat(1, top), *rests)",
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
           '_n_max(1, "closed_form rows',
           '_n_max(0, "closed_form rows',
           ("tests/test_identities.py::TestReadBeforeEvaluate::test_each_mistake_is_found_by_the_read"
            "[closed_form-n_max]",)),
    Mutant("the signed census drops one slot from multi-class slices",
           "src/catalania/census.py",
           "_count_colorings(free_slots + alpha, marks)",
           "_count_colorings(free_slots + alpha - (len(marks) > 1), marks)",
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
           "                for indices, prefix in colorings:\n",
           "                for indices, prefix in colorings[:-1]:\n",
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
           "zip(_splits(profile, gamma), reversed(table))",
           "zip(_splits(profile, gamma), repeat(table[-1]))",
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
           "    census_slices(profile, gamma, alpha)\n",
           "    census_sizes(profile, gamma, alpha)\n",
           ("tests/test_involution.py::TestCensusBudget::test_counted_census_checks_before_any_count",
            "tests/test_identities.py::TestEvaluationErrors::"
            "test_the_cross_census_is_sized_before_it_counts")),
    Mutant("a generating function reads the run's counts at another gamma",
           "src/catalania/identities.py",
           "lambda: Series(_catalans(beta, gamma, order)))",
           "lambda: Series(_catalans(beta, gamma + 1, order)))",
           ("tests/test_identities.py::TestSeriesTables::test_generating_functions_are_catalan_gf",
            "tests/test_identities.py::TestGoldenReports::test_report_bytes_are_pinned")),
    Mutant("the console entry ends without flushing stdout",
           "src/catalania/cli.py",
           "        sys.stdout.flush()\n",
           "",
           ("tests/test_cli.py::test_a_piped_listing_ends_flushed",)),
    Mutant("the console entry ends argparse's usage errors with status 0",
           "src/catalania/cli.py",
           "            code = exc.code\n",
           "            code = 0\n",
           ("tests/test_cli.py::test_the_console_ends_as_main_returns[buffered-usage-error]",)),
    Mutant("the split successor skips the last split, whose first part is the whole vector",
           "src/catalania/census.py",
           "            yield prefix + (head, tuple(map(sub, rest, head)))\n",
           "            if t or head != rest:\n"
           "                yield prefix + (head, tuple(map(sub, rest, head)))\n",
           ("tests/test_identities.py::TestGoldenEnumerations::test_cli_output_is_pinned",)),
    Mutant("the read phase lets a plain ValueError through, not as a ConfigError",
           "src/catalania/identities.py",
           "    except (KeyError, TypeError, ValueError) as exc:\n",
           "    except (KeyError, TypeError) as exc:\n",
           ("tests/test_identities.py::TestReadBeforeEvaluate::test_each_mistake_is_found_by_the_read",
            "tests/test_cli.py::TestVerify::test_each_config_check_is_a_usage_error")),
    Mutant("each section is evaluated as soon as it is read",
           "src/catalania/identities.py",
           "        read = [(section, _read(section, _object(cfg[section.key], f\"config section "
           "{section.key}\")))\n"
           "                for section in _SECTIONS if section.key in cfg]\n",
           "        read = ((section, _read(section, _object(cfg[section.key], f\"config section "
           "{section.key}\")))\n"
           "                for section in _SECTIONS if section.key in cfg)\n",
           ("tests/test_identities.py::TestReadBeforeEvaluate::"
            "test_malformed_last_section_stops_the_run_before_any_work",)),
    Mutant("an error raised while evaluating reads as a config error, exit 2",
           "src/catalania/identities.py",
           "                raise RuntimeError(f\"{section.identity_id} raised",
           "                raise ConfigError(f\"{section.identity_id} raised",
           ("tests/test_cli.py::test_an_error_raised_while_verify_evaluates_is_internal",
            "tests/test_identities.py::TestEvaluationErrors::"
            "test_error_raised_while_evaluating_propagates[error2]")),
    Mutant("Eq4's record holds verify_eq4 as imported, which the trace cannot rebind",
           "src/catalania/identities.py",
           "lambda run, v, *point: None if (*point, v.n_max) in run.eq2_passed",
           "lambda run, v, *point, verify_eq4=verify_eq4: None if (*point, v.n_max) in run.eq2_passed",
           ("tests/test_identities.py::TestCheckersAreReadByName::"
            "test_each_checker_is_called_once_per_evaluated_point",)),
    Mutant("a zero denominator in a config list escapes the read as a ZeroDivisionError",
           "src/catalania/identities.py",
           "        return as_rat(value)\n    except ZeroDivisionError:\n",
           "        return as_rat(value)\n    except ():\n",
           tuple(f"tests/test_cli.py::TestVerify::test_each_config_check_is_a_usage_error[{case}]"
                 for case in ("family-zero-denominator", "eq8-zero-denominator",
                              "eq9-zero-denominator"))),
    Mutant("a ZeroDivisionError reaching main reads as a usage error, exit 2",
           "src/catalania/cli.py",
           "return 2 if isinstance(exc, ValueError) else 3",
           "return 2 if isinstance(exc, (ValueError, ZeroDivisionError)) else 3",
           ("tests/test_cli.py::test_a_zero_division_in_a_layer_is_internal",)),
    Mutant("the CLI imports fractions as it loads",
           "src/catalania/cli.py",
           "import sys\n",
           "import sys\nfrom fractions import Fraction\n",
           ("tests/test_cli.py::test_subcommand_runs_only_its_layers[help]",
            "tests/test_cli.py::test_subcommand_runs_only_its_layers[usage-error]")),
    Mutant("the table of counts ignores the run's oracle",
           "src/catalania/identities.py",
           "    catalan = catalan_gen if run is None else run.catalan\n",
           "    catalan = catalan_gen\n",
           ("tests/test_identities.py::TestSuite::"
            "test_corrupt_catalan_reaches_every_section_that_reads_the_counts",)),
    Mutant("ClosedForm's link (iii) asks the oracle again instead of reading the run's counts",
           "src/catalania/identities.py",
           "        if recombined != cats[n]:\n",
           "        if recombined != catalan_gen(n, beta, gamma):\n",
           ("tests/test_identities.py::TestSuite::"
            "test_corrupt_catalan_reaches_every_section_that_reads_the_counts[closed_form-False]",
            "tests/test_identities.py::TestRunScope::test_each_table_entry_is_built_once_per_run")),
    Mutant("a config list accepts a string, read as its characters",
           "src/catalania/identities.py",
           "isinstance(value, (list, tuple)) and",
           "isinstance(value, (list, tuple, str)) and",
           tuple(f"tests/test_cli.py::TestVerify::test_each_config_check_is_a_usage_error[{case}]"
                 for case in ("family-axis-string", "eq8-pair-string", "eq9-pair-string"))),
    Mutant("the count table drops the forests whose first vertex is a leaf",
           "src/catalania/census.py",
           "list(itertools.accumulate(inner, initial=int(not any(m))))",
           "[int(not any(m)), *inner]",
           COUNT_TESTS),
    Mutant("a class-j first vertex leaves k + p_j components",
           "src/catalania/census.py",
           "window[-stride][pj:pj + top]",
           "window[-stride][pj + 1:pj + 1 + top]",
           COUNT_TESTS),
    Mutant("a count is read at gamma - 1 components",
           "src/catalania/census.py",
           "yield row[gamma]",
           "yield row[gamma - 1]",
           COUNT_TESTS),
    Mutant("the count table's window keeps one row too few",
           "src/catalania/census.py",
           "deque(maxlen=strides[0])",
           "deque(maxlen=strides[0] - 1)",
           COUNT_TESTS),
    Mutant("a count reads the entry before the last",
           "src/catalania/census.py",
           "maxlen=1).pop()",
           "maxlen=2).popleft()",
           COUNT_TESTS),
    Mutant("the vector Catalan closed form is one too large at the residual (1, 1)",
           "src/catalania/counting.py",
           "    return Fraction(count, total)\n",
           "    return Fraction(count, total) + (profile.n == (1, 1))\n",
           ("tests/test_identities.py::TestEq3::test_rational_alpha_grid",
            "tests/test_identities.py::TestGoldenReports::test_report_bytes_are_pinned")),
    Mutant("Eq3's census terms read the table forwards",
           "src/catalania/census.py",
           "reversed(table)",
           "table",
           ("tests/test_identities.py::TestEq3::test_point_values",
            "tests/test_identities.py::TestEq3::test_rational_alpha_grid",
            "tests/test_identities.py::TestGoldenReports::test_report_bytes_are_pinned")),
    Mutant("the counted census terms drop the no-mark slice",
           "src/catalania/census.py",
           "zip(_splits(profile, gamma), reversed(table))]",
           "zip(_splits(profile, gamma), reversed(table))][1:]",
           ("tests/test_identities.py::TestEq3::test_point_values",
            "tests/test_involution.py::TestSignedSums::test_counted_sums_match_the_built_census")),
    Mutant("the coloring check lets a repeated index through",
           "src/catalania/involution.py",
           "        if idx in seen:\n",
           "        if idx in seen and idx < 0:\n",
           ("tests/test_involution.py::TestColoredForestChecks::test_inconsistent_coloring_rejected",)),
    Mutant("the coloring check returns the pairs unsorted",
           "src/catalania/involution.py",
           "    return tuple(sorted(pairs))\n",
           "    return pairs\n",
           ("tests/test_involution.py::TestGeneratedStructures::test_user_input_is_still_checked",)),
    Mutant("the dump classifies with the colored positions of its slice's first coloring",
           "src/catalania/involution.py",
           "cls = classify(None, shape, colored)",
           "cls = classify(None, shape, [shape.leaves[i] for i in colorings[0][0]])",
           ("tests/test_encoding.py::TestPairLines::test_small_censuses",
            "tests/test_cli.py::test_dump_pairs_output_golden")),
    Mutant("the count table's inner loop stops one count short",
           "src/catalania/census.py",
           "for last in range(counts[-1] + 1):",
           "for last in range(counts[-1]):",
           COUNT_TESTS),
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
