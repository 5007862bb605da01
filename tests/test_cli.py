import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catalania
from catalania import involution, riordan
from catalania.cli import main
from catalania.forest import encode, generate_forests
from catalania.identities import DEFAULT_CONFIG


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

    def test_json_list_holds_no_forest_list(self):
        # 38 MB when the list was built before it printed, about 16 MB
        # written as it is made (Python 3.11, Linux); 4 MB of output.
        code, out, peak_mb = child_peak_rss(
            "trees", "list", "--beta", "3", "--n", "8", "--gamma", "2", "--format", "json")
        assert (code, out) == (0, LIST_GOLDENS[3, 8, 2][1])
        assert peak_mb < 25

    def test_count_holds_no_forest(self):
        # 45 MB when the count held all 120,175 forests, about 19 MB streamed
        # (Python 3.11, Linux).
        code, out, peak_mb = child_peak_rss(
            "trees", "count", "--beta", "3", "--n", "8", "--gamma", "2", "--check-formula")
        assert (code, out) == (0, hashlib.sha1(b"120175 == 120175 OK\n").hexdigest())
        assert peak_mb < 30

    def test_unary_count_keeps_a_window_of_rows(self):
        # 80 MB when each of the 400,001 pools' sizes was kept with its count
        # vector, about 46 MB when the table kept one count per row, about 30
        # MB when the count kept only the last but itertools.product held the
        # range of counts as a tuple of 400,001 ints, and about 15 MB, a bare
        # interpreter's, now that the last class runs in a plain range
        # (Python 3.11, Linux); about 1 s.
        code, out, peak_mb = child_peak_rss("trees", "count", "--beta", "1", "--n", "400000",
                                            "--gamma", "2")
        assert (code, out) == (0, hashlib.sha1(b"400001\n").hexdigest())
        assert peak_mb < 20


def child_peak_rss(*argv):
    """Run the CLI on ``argv`` in a child; return its exit code, the sha1 of
    its stdout and its own peak RSS in MB.  On Linux a process's ru_maxrss
    keeps the peak of the process that started it, so a bare interpreter
    starts the child, not pytest, and the output is hashed as it arrives, so
    that nothing holds it."""
    pytest.importorskip("resource")
    child = (
        "import resource, sys\n"
        "from catalania.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    env = {**os.environ, "PYTHONPATH": str(Path(catalania.__file__).parent.parent)}
    proc = subprocess.Popen([sys.executable, "-c", launcher, sys.executable, "-c", child, *argv],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    digest = hashlib.sha1()
    while block := proc.stdout.read(1 << 16):
        digest.update(block)
    err = proc.stderr.read()
    code = proc.wait()
    proc.stdout.close()
    proc.stderr.close()
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    unit = 1 if sys.platform == "darwin" else 1024
    return code, digest.hexdigest(), int(err.split()[-1]) * unit / 2**20


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
        # The three slices hold 2, 3 and 1 structures; each fits the budget
        # alone.  The dump checks the same census, so it prints nothing either.
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "4")
        for dump in ((), ("--dump-pairs",)):
            code, out, err = run_cli(
                capsys, "involution", "--beta", "2", "--n", "2", "--gamma", "1", "--alpha", "2",
                *dump)
            assert (code, out) == (2, "")
            assert err == ("error: enumeration would produce 6 structures, over the limit "
                           "of 4 (set CATALANIA_MAX_STRUCTS to raise it)\n")

    def test_dump_holds_one_forest_at_a_time(self):
        # 32.6 MB when the dump held its lines until the sum printed, about
        # 17 MB streamed (Python 3.11, Linux); 7 MB of output.
        code, out, peak_mb = child_peak_rss(
            "involution", "--beta", "3", "--n", "7", "--gamma", "2", "--alpha", "4", "--dump-pairs")
        assert (code, out) == (0, "5697163dc4b0e485647e6c9da77b202cd45fedad")
        assert peak_mb < 25

    def test_a_dump_slice_that_walks_other_than_its_count_fails(self):
        # The sum line prints first; the walk then stops at the slice that
        # misses a coloring, an internal error (status 3) that names it.
        child = (
            "from catalania import cli, involution\n"
            "original = involution._slice_colorings\n"
            "involution._slice_colorings = lambda *args: original(*args)[:-1]\n"
            "cli.entrypoint()\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(catalania.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-c", child, "involution", "--beta", "2", "--n", "3", "--alpha", "2",
             "--dump-pairs"], env=env, capture_output=True, text=True, check=False)
        assert (proc.returncode, proc.stdout) == (3, "sum=0 rhs=0 OK\n")
        assert proc.stderr == (
            "error: the dump walked 0 structures of the slice with marks (0,), which "
            "counts 5; internal error\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("trees", "list", "--beta", "3", "--n", "8", "--gamma", "2"),
    ("trees", "list", "--beta", "3", "--n", "8", "--gamma", "2", "--format", "json"),
    ("involution", "--beta", "3", "--n", "7", "--gamma", "2", "--alpha", "4", "--dump-pairs"),
], ids=["trees-list", "trees-list-json", "dump"])
def test_a_closed_pipe_ends_quietly(argv, unbuffered):
    # A reader that closes after the first line of a multi-MB output, as
    # `| head -1` does: the CLI stops with status 141 and writes no error.
    # The JSON list is one line of 4 MB, so there the reader takes 4 KB.
    proc = subprocess.Popen([sys.executable, "-m", "catalania.cli", *argv],
                            env=console_env(unbuffered),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    as_json = "json" in argv
    first = proc.stdout.read(4096) if as_json else proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")
    if as_json:
        assert len(first) == 4096 and first.startswith(b'["o;(') and b"\n" not in first
    else:
        assert first.endswith(b"\n") and len(first) > 1


# How a console process ends, case by case: its argv, its extra environment
# and its status.  CONFIG names a config whose counts are corrupted.
EXIT_CASES = {
    "help": (("--help",), {}, 0),
    "usage-error": (("seq", "--beta", "x", "--n", "3"), {}, 2),
    "config-error": (("involution", "--beta", "2", "--n", "1", "--alpha", "1", "--gamma", "2"),
                     {}, 2),
    "budget-error": (("trees", "count", "--beta", "2", "--n", "3"),
                     {"CATALANIA_MAX_STRUCTS": "4"}, 2),
    "mismatch": (("verify", "--config", "CONFIG"), {}, 1),
    "internal-error": (("involution", "--beta", "2", "--n", "3", "--alpha", "2", "--dump-pairs"),
                       {}, 3),
    "closed-pipe": (("trees", "list", "--beta", "2", "--n", "10"), {}, 141),
}

# The internal-error case runs the CLI module as `-m` does, with the dump's
# slice colorings patched to miss one, in the child as in process.
BROKEN_DUMP_CHILD = """\
import runpy
from catalania import involution
original = involution._slice_colorings
involution._slice_colorings = lambda *args: original(*args)[:-1]
runpy.run_module("catalania.cli", run_name="__main__", alter_sys=True)
"""


def console_env(unbuffered, extra=()):
    """The environment of a console child: the package on its path, a
    fixed help width, and a stdout that is unbuffered or block-buffered."""
    env = {**os.environ, "PYTHONPATH": str(Path(catalania.__file__).parent.parent),
           "COLUMNS": "80", **dict(extra)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("case", list(EXIT_CASES))
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_the_console_ends_as_main_returns(capsys, monkeypatch, tmp_path, case, unbuffered):
    # `python -m catalania.cli` ends through entrypoint's os._exit with the
    # status, stdout and stderr of main() in process (argparse's SystemExit
    # for --help and a usage error); a closed pipe ends it with 141 and no
    # error after the lines the reader took.
    argv, extra, status = EXIT_CASES[case]
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"eq1": {"n_max": 5}, "corrupt_catalan": True}))
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    child = ["-c", BROKEN_DUMP_CHILD] if case == "internal-error" else ["-m", "catalania.cli"]
    proc = subprocess.Popen([sys.executable, *child, *argv], env=console_env(unbuffered, extra),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if case == "closed-pipe":
        out = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
    else:
        out, err = proc.communicate()
    code = proc.wait()

    monkeypatch.setenv("COLUMNS", "80")
    for name, value in extra.items():
        monkeypatch.setenv(name, value)
    if case == "internal-error":
        original = involution._slice_colorings
        monkeypatch.setattr(involution, "_slice_colorings", lambda *args: original(*args)[:-1])
    try:
        expected = main(argv)
    except SystemExit as exc:
        expected = exc.code
    captured = capsys.readouterr()
    if case == "closed-pipe":
        assert (code, out, err) == (status, captured.out.splitlines(True)[0].encode(), b"")
    else:
        assert (code, out, err) == (expected, captured.out.encode(), captured.err.encode())
        assert code == status


def test_a_piped_listing_ends_flushed():
    # Several MB through a block-buffered stdout: the final flush before
    # os._exit writes the last, partly filled buffer.
    proc = subprocess.run(
        [sys.executable, "-m", "catalania.cli", "trees", "list", "--beta", "3", "--n", "8",
         "--gamma", "2"], env=console_env(False), capture_output=True, check=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert len(proc.stdout) > 2**21
    assert hashlib.sha1(proc.stdout).hexdigest() == LIST_GOLDENS[3, 8, 2][0]


# Loads every layer through the public names, runs each subcommand through
# main, and prints what was handed to atexit.register meanwhile: a console
# process ends in os._exit, which runs no atexit hook.
ATEXIT_CHILD = """\
import atexit, contextlib, io, json, sys
registered = []
atexit.register = lambda func, *args, **kwargs: registered.append(repr(func))
import catalania
from catalania import cli
for name in catalania.__all__:
    getattr(catalania, name)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
print(json.dumps(registered))
"""


def test_the_package_registers_no_atexit_hook():
    argvs = [
        ["--help"],
        ["seq", "--beta", "2", "--n", "3", "--format", "json"],
        ["trees", "count", "--beta", "2", "--n", "3", "--check-formula"],
        ["trees", "list", "--beta", "2", "--n", "3", "--format", "json"],
        ["involution", "--beta", "2", "--n", "2", "--alpha", "2", "--dump-pairs"],
        ["riordan", "entry", "--alpha", "1", "--beta", "2", "--n", "2", "--k", "1"],
        ["riordan", "check", "--alpha", "2", "--beta", "3", "--gamma", "1", "--order", "4"],
        ["verify"],
    ]
    proc = subprocess.run([sys.executable, "-c", ATEXIT_CHILD, json.dumps(argvs)],
                          env=console_env(False), capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == []


# sha1 of stdout, as the per-vertex encoders with one print per line wrote
# it.  "text" and "paren" print the same lines.  (3, 8, 2) and (2, 10, 1)
# draw their trees from a pool over the cap.
LIST_GOLDENS = {
    (4, 5, 5): ("59e967c26eba5be68b0316f5821cc6f618ea7c59", "7001ce2670a32a070168174d6868f58a041449e6"),
    (5, 5, 3): ("705e83ad2470949ce78a4af5b611bc1cc0e8fc2b", "5ab84041c0867cc67cc0c99e71d6c874969d2029"),
    (3, 8, 2): ("b137b94893c69e6c902dbe0d1b64607cd765fb7a", "2936db51bba8e50fb5380c6d2f1be0ee8729ff75"),
    (2, 10, 1): ("092f96a07e181ed24694456be65efb2c6758474b", "f9711d29b69c6047528a69983327bd555c953a24"),
    (3, 0, 2): ("9810e1b1264fb95d0023a3acbdbac9a1e3af5aac", "1d816d419bff7229241c69f1d3f393c5b0bdf32e"),
    (2, 0, 0): ("adc83b19e793491b1c6ea0fd8b46cd9f32e592fc", "ad98df6fb7066077a7b33f8c156c7b6f412a4fd5"),
    (2, 3, 0): ("da39a3ee5e6b4b0d3255bfef95601890afd80709", "cd0d4cc32346750408f7d4f5e78ec9a6e5b79a0d"),
}

# The benchmark's three --dump-pairs shapes, then one more census of over
# 1,024 lines: (beta, n, gamma, alpha) -> sha1 of stdout.
DUMP_GOLDENS = {
    (3, 6, 1, 3): "8e5ce970dd1c807df6eee8d8bfcb8cc1bac208f6",
    (3, 5, 3, 5): "68972999672e9046a07a85f2520e2ee4b3d1c514",
    (2, 7, 2, 2): "6db72c2f181ae49bf02ea181538287f212f662b1",
    (2, 6, 2, 4): "36fe6b46a689fecb357f3119ec24f2cca495a14e",
}


def _shape_id(shape):
    return "-".join(map(str, shape))


@pytest.mark.parametrize("shape", list(LIST_GOLDENS), ids=_shape_id)
@pytest.mark.parametrize("fmt", ["text", "paren", "json"])
def test_list_output_golden(capsys, shape, fmt):
    beta, n, gamma = shape
    code, out, err = run_cli(capsys, "trees", "list", f"--beta={beta}", f"--n={n}",
                             f"--gamma={gamma}", f"--format={fmt}")
    assert (code, err) == (0, "")
    lines, as_json = LIST_GOLDENS[shape]
    assert hashlib.sha1(out.encode()).hexdigest() == (as_json if fmt == "json" else lines)


@pytest.mark.parametrize("shape", list(DUMP_GOLDENS), ids=_shape_id)
def test_dump_pairs_output_golden(shape):
    # A child with an unbuffered stdout, as the benchmark runs it.
    beta, n, gamma, alpha = shape
    env = {**os.environ, "PYTHONPATH": str(Path(catalania.__file__).parent.parent),
           "PYTHONUNBUFFERED": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "catalania.cli", "involution", f"--beta={beta}", f"--n={n}",
         f"--gamma={gamma}", f"--alpha={alpha}", "--dump-pairs"],
        env=env, capture_output=True, check=False,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha1(proc.stdout).hexdigest() == DUMP_GOLDENS[shape]


@pytest.mark.parametrize("argv, out", [
    (("trees", "count", "--beta", "2", "--n", "0", "--gamma", "1000"), "1\n"),
    (("trees", "count", "--beta", "1000", "--n", "1", "--gamma", "1"), "1\n"),
    (("trees", "list", "--beta", "2", "--n", "0", "--gamma", "2000"), ";".join("o" * 2000) + "\n"),
    (("involution", "--beta", "2", "--n", "1", "--gamma", "2000", "--alpha", "2000"),
     "sum=0 rhs=0 OK\n"),
    (("trees", "count", "--beta", "2", "--n", "3", "--gamma", "100"), "182000\n"),
    (("involution", "--beta", "2", "--n", "2", "--gamma", "300", "--alpha", "310"),
     "sum=45 rhs=45 OK\n"),
], ids=["count-1000-trees", "count-1000-children", "list-2000-trees", "census-2000-trees",
        "count-100-trees", "census-300-trees"])
def test_thousands_of_parts(capsys, argv, out):
    # A split into thousands of parts, of a forest or of a root's children,
    # takes no recursion per part, and a count or a census walks no split.
    assert run_cli(capsys, *argv) == (0, out, "")


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

    def test_routes_that_disagree_are_an_internal_error(self, capsys, monkeypatch):
        # A wrong a(f) breaks only the functional route of the summation
        # check, which then raises: status 3 and one error line, no traceback.
        compose = riordan.series_compose

        def wrong(a, f):
            coeffs = compose(a, f).coeffs
            return riordan.Series(coeffs[:2] + (coeffs[2] + 1,) + coeffs[3:])

        monkeypatch.setattr(riordan, "series_compose", wrong)
        assert run_cli(capsys, "riordan", "check", "--alpha", "2", "--beta", "3", "--gamma", "1",
                       "--order", "12") == (
            3, "", "error: row-sum and functional routes disagree; internal error\n")

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

    def test_series_file_that_is_not_utf8_is_named(self, capsys, tmp_path):
        bad = tmp_path / "g.json"
        bad.write_bytes(b'\xff{"order": 1, "coeffs": ["1", "2"]}')
        code, out, err = run_cli(capsys, "riordan", "check", "--alpha", "1", "--beta", "2",
                                 "--gamma", "1", "--g-json", str(bad))
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read series file {bad}: 'utf-8' codec can't decode"
                       " byte 0xff in position 0: invalid start byte\n")

    def test_entry_ignores_order(self, capsys):
        # Entry (n, k) reads the series up to x**n, so --order changes nothing.
        argv = ("riordan", "entry", "--alpha", "3/2", "--beta", "7/3", "--n", "5", "--k", "3")
        plain = run_cli(capsys, *argv)
        assert plain == (0, "99/8\n", "")
        assert run_cli(capsys, *argv, "--order", "2000") == plain

    def test_missing_pieces_rejected(self, capsys):
        code, _, err = run_cli(capsys, "riordan", "entry", "--n", "1", "--k", "0")
        assert code == 2


def _interval(lo, hi):
    return {"min": lo, "max": hi, "step": "1"}


_POINT = {"alpha": _interval("1", "1"), "beta": _interval("2", "2"), "gamma": _interval("1", "1"),
          "n_max": 1}
_CROSS = {"betas": [2], "gammas": [1], "alpha_offsets": [0], "n_max": 2}
_FAMILY = {"alphas": ["0"], "betas": ["1"], "gammas": ["1"], "order": 3}
_EMPTY = "has an empty {} axis"

# The config checks of verify that raise a plain ValueError: each config
# and the text that follows "malformed config: ".
VERIFY_CONFIG_CHECKS = {
    "cross-empty": ({"eq2": {**_POINT, "cross": {}}}, "eq2 cross is empty"),
    "family-empty": ({"eq2": {**_POINT, "family": {}}}, "eq2 family is empty"),
    "cross-axis": ({"eq2": {**_POINT, "cross": {**_CROSS, "gammas": []}}},
                   "eq2 cross " + _EMPTY.format("gammas")),
    "family-axis": ({"eq2": {**_POINT, "family": {**_FAMILY, "alphas": []}}},
                    "eq2 family " + _EMPTY.format("alphas")),
    "family-order": ({"eq2": {**_POINT, "family": {**_FAMILY, "order": 0}}},
                     "the family needs order >= 1"),
    "eq7-order": ({"eq7": {"beta": _interval("1", "2"), "gamma": _interval("0", "1"), "order": 0}},
                  "need order >= 1"),
    "eq8-pairs": ({"eq8": {"beta": _interval("1", "2"), "alpha_pairs": [], "order": 3}},
                  "need at least one alpha pair"),
    "eq9-pairs": ({"eq9": {"length": 3, "sequences": 1, "seed": 1, "pairs": [["1", "-1", "1"]]}},
                  "eq9 needs length >= 1, sequences >= 1 and at least one pair without a pole"),
    "eq10-rows": ({"eq10": {**_POINT, "n_max": 0}},
                  "eq10 rows are 1 <= n <= n_max: need n_max >= 1"),
    "closed-form-rows": (
        {"closed_form": {"beta": _interval("1", "2"), "gamma": _interval("0", "1"), "n_max": 0}},
        "closed_form rows are 1 <= n <= n_max: need n_max >= 1"),
    "cross-alpha-gamma": (
        {"eq2": {**_POINT, "cross": {**_CROSS, "gammas": [2], "alpha_offsets": [1, -1]}}},
        "need alpha >= gamma >= 1, got alpha=1, gamma=2"),
    "cross-arity": ({"eq2": {**_POINT, "cross": {**_CROSS, "betas": [2, 0]}}},
                    "beta must be an integer >= 1, got 0"),
    # A zero denominator in each list of rationals, worded as for a flag.
    "family-zero-denominator": ({"eq2": {**_POINT, "family": {**_FAMILY, "alphas": ["1/0"]}}},
                                "zero denominator: '1/0'"),
    "eq8-zero-denominator": (
        {"eq8": {"beta": _interval("1", "2"), "alpha_pairs": [["1", "1/0"]], "order": 3}},
        "zero denominator: '1/0'"),
    "eq9-zero-denominator": (
        {"eq9": {"length": 3, "sequences": 1, "seed": 1, "pairs": [["1", "1/0", "1"]]}},
        "zero denominator: '1/0'"),
    # A list is a JSON array, never a string read as its characters, and a
    # pair has its own number of entries.
    "family-axis-string": ({"eq2": {**_POINT, "family": {**_FAMILY, "alphas": "123"}}},
                           "alphas must be an array, got '123'"),
    "cross-axis-number": ({"eq2": {**_POINT, "cross": {**_CROSS, "betas": 2}}},
                          "betas must be an array, got 2"),
    "eq8-pair-string": (
        {"eq8": {"beta": _interval("1", "2"), "alpha_pairs": ["12"], "order": 3}},
        "eq8 alpha pair must be an array of 2 entries, got '12'"),
    "eq8-pair-length": (
        {"eq8": {"beta": _interval("1", "2"), "alpha_pairs": [["1", "2", "3"]], "order": 3}},
        "eq8 alpha pair must be an array of 2 entries, got ['1', '2', '3']"),
    "eq9-pair-string": ({"eq9": {"length": 3, "sequences": 1, "seed": 1, "pairs": ["123"]}},
                        "eq9 pair must be an array of 3 entries, got '123'"),
    "eq9-pair-length": ({"eq9": {"length": 3, "sequences": 1, "seed": 1, "pairs": [["1", "1"]]}},
                        "eq9 pair must be an array of 3 entries, got ['1', '1']"),
}


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

    def test_corrupted_oracle_fails_eq7_eq10_and_closed_form(self, capsys, tmp_path):
        sections = ("eq7", "eq10", "closed_form")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**{key: DEFAULT_CONFIG[key] for key in sections},
                                    "corrupt_catalan": True}))
        code, out, _ = run_cli(capsys, "verify", "--config", str(path))
        assert code == 1
        parsed = json.loads(out)
        assert [r["identity_id"] for r in parsed] == ["Eq7", "Eq10", "ClosedForm"]
        assert all(r["status"] == "fail" and r["counterexample"] for r in parsed)
        assert [r["counterexample"]["params"].get("n") for r in parsed] == [None, "2", "2"]

    def test_missing_config(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--config", "/nonexistent/grid.json")
        assert code == 2 and "config" in err

    def test_config_that_is_not_utf8_is_named(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        path.write_bytes(b'\xff{"eq1": {"n_max": 5}}')
        code, out, err = run_cli(capsys, "verify", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read config {path}: 'utf-8' codec can't decode"
                       " byte 0xff in position 0: invalid start byte\n")

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

    def test_zero_denominator_interval_names_the_literal(self, capsys, tmp_path):
        interval = {"min": "1", "max": "2", "step": "1/0"}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"eq7": {"beta": interval, "gamma": _interval("0", "1"), "order": 3}}))
        assert run_cli(capsys, "verify", "--config", str(path)) == (
            2, "", f"error: bad interval {interval!r}: zero denominator: '1/0'\n")

    @pytest.mark.parametrize("section,message", VERIFY_CONFIG_CHECKS.values(),
                             ids=list(VERIFY_CONFIG_CHECKS))
    def test_each_config_check_is_a_usage_error(self, capsys, tmp_path, section, message):
        # Each check of the read phase that raises a plain ValueError: the
        # message is the one verify has always printed, and the status is 2.
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(section))
        assert run_cli(capsys, "verify", "--config", str(path)) == (
            2, "", f"error: malformed config: {message}\n")


# A console child whose identities checker argv[1] raises argv[2] (a
# ValueError or ZeroDivisionError with argv[3] as its text); the rest of
# argv is the CLI's.
BROKEN_CHECKER_CHILD = """\
import runpy, sys
from catalania import identities
name, error, text = sys.argv[1:4]
del sys.argv[1:4]
identities.run_suite  # load the module before its checker is replaced

def broken(*args):
    raise {"ValueError": ValueError, "ZeroDivisionError": ZeroDivisionError}[error](text)

setattr(identities, name, broken)
runpy.run_module("catalania.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("checker,error,section,identity_id", [
    ("verify_eq2", "ValueError", {"eq1": {"n_max": 2}}, "Eq1"),
    ("closed_form_reduction_check", "ZeroDivisionError",
     {"closed_form": {"beta": _interval("1", "2"), "gamma": _interval("0", "1"), "n_max": 2}},
     "ClosedForm"),
], ids=["value-error", "zero-division"])
def test_an_error_raised_while_verify_evaluates_is_internal(tmp_path, checker, error, section,
                                                            identity_id):
    # The config is read whole and holds no mistake, so an error raised by a
    # checker is the program's: status 3 and one error line, not a usage error.
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(section))
    proc = subprocess.run([sys.executable, "-c", BROKEN_CHECKER_CHILD, checker, error,
                           "internal bug", "verify", "--config", str(path)],
                          env=console_env(False), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", f"error: {identity_id} raised {error}: internal bug; internal error\n")


# A console child whose counting.catalan_sequence raises ZeroDivisionError;
# the rest of argv is the CLI's.
BROKEN_SEQ_CHILD = """\
import runpy
from catalania import counting
counting.catalan_sequence  # load the module before its function is replaced

def broken(*args):
    raise ZeroDivisionError("internal bug")

counting.catalan_sequence = broken
runpy.run_module("catalania.cli", run_name="__main__", alter_sys=True)
"""


def test_a_zero_division_in_a_layer_is_internal():
    # Every flag and config value with a zero denominator is a usage error
    # before any layer computes, so a ZeroDivisionError is the program's.
    proc = subprocess.run([sys.executable, "-c", BROKEN_SEQ_CHILD, "seq", "--beta", "2",
                           "--n", "3"], env=console_env(False), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: internal bug\n")


def test_a_budget_error_raised_while_verify_evaluates_is_a_usage_error():
    # Eq2's cross route counts a census of 12 structures at n = 3.
    proc = subprocess.run([sys.executable, "-m", "catalania.cli", "verify"],
                          env=console_env(False, {"CATALANIA_MAX_STRUCTS": "4"}),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: enumeration would produce 12 structures, over the limit of 4 "
               "(set CATALANIA_MAX_STRUCTS to raise it)\n")


# A subprocess runs one subcommand and prints the catalania modules whose
# code ran: a lazily registered layer is in sys.modules from the start, but
# its type is ModuleType only once something has read from it.  It also
# prints "dataclasses" when that stdlib module (with inspect, dis and
# tokenize behind it) was imported, and "fractions" (with decimal and
# numbers) when that one was.
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
                        or name in ("dataclasses", "fractions"))), file=sys.stderr)
sys.exit(code)
"""
BASE = ["catalania", "catalania.cli"]
SEQ = BASE + ["catalania.counting", "catalania.exact", "fractions"]
SERIES = SEQ + ["catalania.riordan"]
# What counts without building: no forest and no colored structure.
COUNTS = SEQ + ["catalania.census"]
TREES = COUNTS + ["catalania.forest"]


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], BASE),
    (["bogus"], BASE),
    (["seq", "--beta", "2", "--n", "3"], SEQ),
    (["riordan", "entry", "--alpha", "1", "--beta", "2", "--n", "2", "--k", "1"], SERIES),
    (["riordan", "check", "--alpha", "2", "--beta", "3", "--gamma", "1", "--order", "4"], SERIES),
    (["trees", "count", "--beta", "2", "--n", "3", "--check-formula"], COUNTS),
    (["trees", "list", "--beta", "2", "--n", "3"], TREES),
    (["involution", "--beta", "2", "--n", "2", "--alpha", "2"], COUNTS),
    (["involution", "--beta", "2", "--n", "2", "--alpha", "2", "--dump-pairs"],
     TREES + ["catalania.involution"]),
    (["verify", "--config", "CONFIG"], COUNTS + ["catalania.identities", "catalania.riordan"]),
    (["verify"], COUNTS + ["catalania.identities", "catalania.riordan"]),
], ids=["help", "usage-error", "seq", "riordan-entry", "riordan-check", "trees-count",
        "trees-list", "involution-count", "involution", "verify", "verify-default"])
def test_subcommand_runs_only_its_layers(tmp_path, argv, loaded):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"eq1": {"n_max": 3}}))
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(catalania.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", LAYERS_CHILD, *argv],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == (2 if argv == ["bogus"] else 0), proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == sorted(loaded)


# Unlike LAYERS_CHILD, this child imports nothing but the CLI before it looks.
JSON_CHILD = """\
import sys
from catalania import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print("json" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv, loads_json", [
    (["seq", "--beta", "2", "--n", "3"], False),
    (["riordan", "entry", "--alpha", "3/2", "--beta", "7/3", "--n", "5", "--k", "3"], False),
    (["riordan", "check", "--alpha", "2", "--beta", "3", "--gamma", "1", "--order", "4"], False),
    (["riordan", "entry", "--g-json", "G", "--f-json", "F", "--n", "1", "--k", "1"], True),
], ids=["seq", "riordan-entry", "riordan-check", "series-file"])
def test_json_is_loaded_only_for_a_series_file(tmp_path, argv, loads_json):
    files = {"G": tmp_path / "g.json", "F": tmp_path / "f.json"}
    files["G"].write_text('{"order": 1, "coeffs": ["1", "1"]}')
    files["F"].write_text('{"order": 1, "coeffs": ["0", "1"]}')
    argv = [str(files.get(arg, arg)) for arg in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(catalania.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", JSON_CHILD, *argv],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == str(loads_json)
