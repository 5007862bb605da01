import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catalania
from catalania.cli import main
from catalania.forest import encode, generate_forests


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeq:
    def test_binary_catalan(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--beta", "2", "--gamma", "1", "--n", "5")
        assert code == 0
        assert out == "1\n1\n2\n5\n14\n42\n"

    def test_single_value(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--beta", "2", "--gamma", "1", "--n", "0")
        assert code == 0
        assert out == "1\n"

    def test_json_format_uses_rational_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--beta", "1/2", "--gamma", "3", "--n", "3", "--format", "json"
        )
        assert code == 0
        values = json.loads(out)
        assert values[0] == "1" and all(isinstance(v, str) for v in values)

    def test_bad_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "--beta", "x", "--n", "3"])
        assert exc.value.code == 2

    def test_float_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "--beta", "1.5", "--n", "3"])
        assert exc.value.code == 2


class TestTrees:
    def test_count_with_formula(self, capsys):
        code, out, _ = run_cli(
            capsys, "trees", "count", "--beta", "3", "--n", "2", "--gamma", "1",
            "--check-formula",
        )
        assert code == 0
        assert out == "3 == 3 OK\n"

    def test_plain_count(self, capsys):
        code, out, _ = run_cli(capsys, "trees", "count", "--beta", "2", "--n", "3")
        assert code == 0
        assert out == "5\n"

    def test_list_single_tree(self, capsys):
        code, out, _ = run_cli(capsys, "trees", "list", "--beta", "2", "--n", "1")
        assert code == 0
        assert out == "(oo)\n"

    def test_list_forest_components(self, capsys):
        code, out, _ = run_cli(
            capsys, "trees", "list", "--beta", "2", "--n", "1", "--gamma", "2"
        )
        assert code == 0
        assert out == "o;(oo)\n(oo);o\n"

    def test_paren_format_alias(self, capsys):
        code, out, _ = run_cli(
            capsys, "trees", "list", "--beta", "2", "--n", "2", "--format", "paren"
        )
        assert code == 0
        assert out == "(o(oo))\n((oo)o)\n"

    def test_empty_forest_corner(self, capsys):
        code, out, _ = run_cli(
            capsys, "trees", "count", "--beta", "2", "--n", "0", "--gamma", "0"
        )
        assert code == 0
        assert out == "1\n"

    def test_size_bound_exit(self, capsys):
        code, out, err = run_cli(capsys, "trees", "count", "--beta", "2", "--n", "40")
        assert code == 2
        assert "structures" in err

    def test_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "4")
        code, _, err = run_cli(capsys, "trees", "count", "--beta", "2", "--n", "3")
        assert code == 2 and "limit of 4" in err

    def test_json_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "trees", "count", "--beta", "2", "--n", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"count": "2"}

    # 1,430 forests span more than one block of written lines; the empty
    # forest prints an empty line, and no forest prints nothing.
    @pytest.mark.parametrize("beta,n,gamma", [(2, 8, 1), (2, 0, 0), (2, 1, 0)])
    @pytest.mark.parametrize("fmt", ["text", "paren"])
    def test_list_prints_one_line_per_forest(self, capsys, beta, n, gamma, fmt):
        code, out, _ = run_cli(capsys, "trees", "list", "--beta", str(beta), "--n", str(n),
                               "--gamma", str(gamma), "--format", fmt)
        assert code == 0
        assert out == "".join(encode(f) + "\n" for f in generate_forests(beta, n, gamma))

    def test_deep_unary_forests(self, capsys):
        # One structure each, hundreds of levels deep.
        assert run_cli(capsys, "trees", "count", "--beta", "1", "--n", "500") == (0, "1\n", "")
        code, out, err = run_cli(capsys, "trees", "list", "--beta", "1", "--n", "335")
        assert (code, out, err) == (0, "(" * 335 + "o" + ")" * 335 + "\n", "")

    @pytest.mark.parametrize("action", ["count", "list"])
    @pytest.mark.parametrize("fmt", ["text", "paren", "json"])
    def test_over_budget_prints_nothing(self, capsys, monkeypatch, action, fmt):
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "1000")
        code, out, err = run_cli(capsys, "trees", action, "--beta", "3", "--n", "9",
                                 "--gamma", "2", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == ("error: enumeration would produce 690690 structures, over the limit "
                       "of 1000 (set CATALANIA_MAX_STRUCTS to raise it)\n")

    def test_count_holds_no_forest(self):
        # The child reports its own peak RSS: 45 MB when the count held all
        # 120,175 forests, about 19 MB streamed (Python 3.11, Linux).  On
        # Linux a process's ru_maxrss keeps the peak of the process that
        # started it, so a bare interpreter starts the child, not pytest.
        pytest.importorskip("resource")
        child = (
            "import resource, sys\n"
            "from catalania.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
        env = {**os.environ, "PYTHONPATH": str(Path(catalania.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-c", launcher, sys.executable, "-c", child,
             "trees", "count", "--beta", "3", "--n", "8", "--gamma", "2", "--check-formula"],
            env=env, capture_output=True, text=True, check=False,
        )
        assert (proc.returncode, proc.stdout) == (0, "120175 == 120175 OK\n")
        # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
        unit = 1 if sys.platform == "darwin" else 1024
        peak_mb = int(proc.stderr.split()[-1]) * unit / 2**20
        assert peak_mb < 30


class TestInvolution:
    def test_ternary_zero_sum(self, capsys):
        code, out, _ = run_cli(
            capsys, "involution", "--beta", "3", "--n", "3", "--alpha", "1", "--gamma", "1"
        )
        assert code == 0
        assert out == "sum=0 rhs=0 OK\n"

    def test_empty_index(self, capsys):
        code, out, _ = run_cli(
            capsys, "involution", "--beta", "2", "--n", "0", "--alpha", "1", "--gamma", "1"
        )
        assert code == 0
        assert out == "sum=1 rhs=1 OK\n"

    def test_planted_sum(self, capsys):
        code, out, _ = run_cli(
            capsys, "involution", "--beta", "2", "--n", "2", "--alpha", "3", "--gamma", "1"
        )
        assert code == 0
        assert out == "sum=1 rhs=1 OK\n"

    def test_alpha_below_gamma_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "involution", "--beta", "2", "--n", "1", "--alpha", "1", "--gamma", "2"
        )
        assert code == 2 and "alpha" in err

    def test_dump_pairs(self, capsys):
        code, out, _ = run_cli(
            capsys, "involution", "--beta", "2", "--n", "1", "--alpha", "1",
            "--gamma", "1", "--dump-pairs",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sum=0 rhs=0 OK"
        assert lines[1] == "pair P[0:]|o* <-> P[0:]|(oo)"
        assert len(lines) == 2  # one orbit, listed once

    def test_dump_pairs_shows_exceptional(self, capsys):
        code, out, _ = run_cli(
            capsys, "involution", "--beta", "2", "--n", "1", "--alpha", "2",
            "--gamma", "1", "--dump-pairs",
        )
        assert code == 0
        assert "exceptional P[1:0]|o" in out

    def test_deep_unary_dump(self, capsys):
        code, out, _ = run_cli(capsys, "involution", "--beta", "1", "--n", "400", "--dump-pairs")
        path = "(" * 399 + "o*" + ")" * 399
        assert (code, out) == (0, f"sum=0 rhs=0 OK\npair P[0:]|{path} <-> P[0:]|({path.replace('o*', 'o')})\n")

    def test_budget_covers_the_whole_census(self, capsys, monkeypatch):
        # The three slices hold 2, 3 and 1 structures; each fits the budget alone.
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "4")
        code, out, err = run_cli(
            capsys, "involution", "--beta", "2", "--n", "2", "--gamma", "1", "--alpha", "2"
        )
        assert (code, out) == (2, "")
        assert err == ("error: enumeration would produce 6 structures, over the limit "
                       "of 4 (set CATALANIA_MAX_STRUCTS to raise it)\n")


@pytest.mark.parametrize("argv", [
    ("trees", "count", "--beta", "0", "--n", "2"),
    ("trees", "list", "--beta", "0", "--n", "2"),
    ("involution", "--beta", "0", "--n", "2"),
], ids=["trees-count", "trees-list", "involution"])
def test_zero_beta_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: beta must be an integer >= 1, got 0\n")


@pytest.mark.parametrize("argv", [
    ("seq", "--beta", "1/0", "--n", "3"),
    ("riordan", "check", "--alpha", "1", "--beta", "1/0", "--gamma", "1"),
], ids=["seq", "riordan-check"])
def test_zero_denominator_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "argument --beta: zero denominator: '1/0'" in capsys.readouterr().err


class TestRiordan:
    def test_entry(self, capsys):
        code, out, _ = run_cli(
            capsys, "riordan", "entry", "--alpha", "1", "--beta", "2", "--n", "2", "--k", "1"
        )
        assert code == 0
        assert out == "-2\n"

    def test_entry_triangularity(self, capsys):
        code, out, _ = run_cli(
            capsys, "riordan", "entry", "--alpha", "1", "--beta", "2", "--n", "1", "--k", "3"
        )
        assert code == 0
        assert out == "0\n"

    def test_check_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "riordan", "check", "--alpha", "2", "--beta", "3", "--gamma", "1",
            "--order", "12",
        )
        assert code == 0
        assert out == "Eq5 OK, Eq6 OK\n"

    def test_check_detects_wrong_target(self, capsys, tmp_path):
        wrong = tmp_path / "l.json"
        wrong.write_text(json.dumps({"order": 6, "coeffs": ["1", "9", "0", "0", "0", "0", "0"]}))
        code, out, _ = run_cli(
            capsys, "riordan", "check", "--alpha", "2", "--beta", "2", "--gamma", "1",
            "--order", "6", "--l-json", str(wrong),
        )
        assert code == 1
        assert out == "Eq5 FAIL, Eq6 FAIL\n"

    def test_series_files(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        f = tmp_path / "f.json"
        g.write_text(json.dumps({"order": 3, "coeffs": ["1", "-1", "0", "0"]}))
        f.write_text(json.dumps({"order": 3, "coeffs": ["0", "1", "-1", "0"]}))
        code, out, _ = run_cli(
            capsys, "riordan", "entry", "--g-json", str(g), "--f-json", str(f),
            "--n", "2", "--k", "1",
        )
        assert code == 0
        assert out == "-2\n"

    def test_lone_series_file_replaces_its_half_of_the_family(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        f = tmp_path / "f.json"
        g.write_text(json.dumps({"order": 0, "coeffs": ["5"]}))
        f.write_text(json.dumps({"order": 3, "coeffs": ["0", "1", "0", "0"]}))
        family = ("--alpha", "1", "--beta", "2")
        assert run_cli(capsys, "riordan", "entry", "--g-json", str(g), *family,
                       "--n", "0", "--k", "0") == (0, "5\n", "")
        # g = 1 - x from the family, f = x from the file: [x^2] (1 - x) * x = -1
        assert run_cli(capsys, "riordan", "entry", "--f-json", str(f), *family,
                       "--n", "2", "--k", "1") == (0, "-1\n", "")

    @pytest.mark.parametrize("flag", ["--g-json", "--f-json"])
    def test_lone_series_file_without_family_is_usage_error(self, capsys, tmp_path, flag):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"order": 3, "coeffs": ["0", "1", "0", "0"]}))
        code, out, err = run_cli(capsys, "riordan", "entry", flag, str(path), "--n", "1", "--k", "0")
        assert (code, out) == (2, "")
        assert err == "error: entry needs --alpha/--beta or --g-json/--f-json\n"

    def test_malformed_series_file(self, capsys, tmp_path):
        bad = tmp_path / "g.json"
        bad.write_text("{nope")
        code, _, err = run_cli(
            capsys, "riordan", "entry", "--g-json", str(bad), "--f-json", str(bad),
            "--n", "1", "--k", "0",
        )
        assert code == 2 and "JSON" in err

    @pytest.mark.parametrize("coeff", [1.5, True, None, [1], "1/0"])
    def test_bad_series_coefficient_is_usage_error(self, capsys, tmp_path, coeff):
        bad = tmp_path / "g.json"
        bad.write_text(json.dumps({"order": 1, "coeffs": [coeff, 2]}))
        code, out, err = run_cli(
            capsys, "riordan", "entry", "--g-json", str(bad), "--f-json", str(bad),
            "--n", "1", "--k", "0",
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: series file {bad}: series JSON coeffs ")

    def test_entry_ignores_order(self, capsys):
        # Entry (n, k) reads the series up to x**n, so --order changes nothing.
        argv = ("riordan", "entry", "--alpha", "3/2", "--beta", "7/3", "--n", "5", "--k", "3")
        plain = run_cli(capsys, *argv)
        assert plain == (0, "99/8\n", "")
        assert run_cli(capsys, *argv, "--order", "2000") == plain

    def test_missing_pieces_rejected(self, capsys):
        code, _, err = run_cli(capsys, "riordan", "entry", "--n", "1", "--k", "0")
        assert code == 2


class TestVerify:
    def test_fast_config_passes_and_is_byte_stable(self, capsys, tmp_path):
        config = {
            "eq1": {"n_max": 6},
            "eq9": {
                "length": 6,
                "sequences": 3,
                "seed": 7,
                "pairs": [["2", "0", "1"], ["1", "1/2", "-1"]],
            },
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(config))
        code1, out1, _ = run_cli(capsys, "verify", "--config", str(path))
        code2, out2, _ = run_cli(capsys, "verify", "--config", str(path))
        assert code1 == code2 == 0
        assert out1 == out2
        parsed = json.loads(out1)
        assert [r["identity_id"] for r in parsed] == ["Eq1", "Eq9_roundtrip"]
        assert all(r["status"] == "pass" for r in parsed)

    def test_corrupted_oracle_config(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"eq1": {"n_max": 5}, "corrupt_catalan": True}))
        code, out, _ = run_cli(capsys, "verify", "--config", str(path))
        assert code == 1
        parsed = json.loads(out)
        assert parsed[0]["status"] == "fail"
        assert parsed[0]["counterexample"]["params"]["n"] == "2"

    def test_missing_config(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--config", "/nonexistent/grid.json")
        assert code == 2 and "config" in err

    def test_invalid_config_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run_cli(capsys, "verify", "--config", str(path))
        assert code == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"eq42": {}}))
        code, _, err = run_cli(capsys, "verify", "--config", str(path))
        assert code == 2

    def test_non_object_section_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"eq1": 5}))
        code, out, err = run_cli(capsys, "verify", "--config", str(path))
        assert (code, out, err) == (2, "", "error: config section eq1 must be a JSON object\n")


# A subprocess runs one subcommand and prints the catalania modules whose
# code ran: a lazily registered layer is in sys.modules from the start, but
# its type is ModuleType only once something has read from it.  It also
# prints "dataclasses" when that stdlib module (with inspect, dis and
# tokenize behind it) was imported.
LAYERS_CHILD = """\
import json, sys, types
from catalania import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps(sorted(name for name, module in sys.modules.items()
                        if name.partition(".")[0] == "catalania"
                        and type(module) is types.ModuleType
                        or name == "dataclasses")), file=sys.stderr)
sys.exit(code)
"""
BASE = ["catalania", "catalania.cli"]
SEQ = BASE + ["catalania.counting", "catalania.exact"]
SERIES = SEQ + ["catalania.riordan"]
TREES = SEQ + ["catalania.forest"]


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], BASE),
    (["seq", "--beta", "2", "--n", "3"], SEQ),
    (["riordan", "entry", "--alpha", "1", "--beta", "2", "--n", "2", "--k", "1"], SERIES),
    (["riordan", "check", "--alpha", "2", "--beta", "3", "--gamma", "1", "--order", "4"], SERIES),
    (["trees", "count", "--beta", "2", "--n", "3", "--check-formula"], TREES),
    (["involution", "--beta", "2", "--n", "2", "--alpha", "2", "--dump-pairs"],
     TREES + ["catalania.involution"]),
    (["verify", "--config", "CONFIG"],
     TREES + ["catalania.identities", "catalania.involution", "catalania.riordan"]),
], ids=["help", "seq", "riordan-entry", "riordan-check", "trees-count", "involution", "verify"])
def test_subcommand_runs_only_its_layers(tmp_path, argv, loaded):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"eq1": {"n_max": 3}}))
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(catalania.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", LAYERS_CHILD, *argv],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == sorted(loaded)
