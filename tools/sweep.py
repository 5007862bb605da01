"""Output sweep: the stdout, stderr and exit code of a fixed grid of CLI calls.

    python tools/sweep.py

Each call runs ``python -m catalania.cli`` in a fresh process, JOBS at a
time, against the ``src/`` beside this script, with COLUMNS=80, as argparse
wraps its usage and help to the terminal's width.  The grid runs once with
the default structure budget and once under CATALANIA_MAX_STRUCTS=4:

* ``trees count`` as text, as json and with ``--check-formula``, and
  ``trees list`` as text and as json, over beta 0-4, n 0-7 and gamma 0-3;
* ``involution`` over beta 1-4, n 0-6, gamma 1-3 and alpha gamma..gamma+3,
  and with ``--dump-pairs`` for beta <= 3 and n <= 4;
* ``verify`` on the default config.

Then the calls that the grid lacks (``extra_calls``) run under the default
budget: ``seq``, ``riordan entry`` and ``riordan check`` with integral and
rational flags, usage errors, and ``--help`` for the program and for each
subcommand.

For each of the two lists it prints one line per call, the sha256 of its
exit code, stdout and stderr followed by its budget and arguments, then the
sha256 of all those lines.  Two checkouts whose totals agree behave byte
for byte alike on every call.
It is opt-in: ``tests/test_sweep.py`` runs the same calls through the
console entry in one process and checks the same total, and this script
checks that they also hold as separate processes.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGETS = (None, "4")  # None: the default budget
COLUMNS = "80"
JOBS = 4


def calls() -> list[list[str]]:
    """The CLI arguments of every call of the grid, in a fixed order."""
    out = []
    for beta, n, gamma in itertools.product(range(5), range(8), range(4)):
        shape = [f"--beta={beta}", f"--n={n}", f"--gamma={gamma}"]
        out += [["trees", "count", *shape], ["trees", "count", *shape, "--format=json"],
                ["trees", "count", *shape, "--check-formula"],
                ["trees", "list", *shape], ["trees", "list", *shape, "--format=json"]]
    for beta, n, gamma, extra in itertools.product(range(1, 5), range(7), range(1, 4), range(4)):
        census = ["involution", f"--beta={beta}", f"--n={n}", f"--gamma={gamma}",
                  f"--alpha={gamma + extra}"]
        out.append(census)
        if beta <= 3 and n <= 4:
            out.append([*census, "--dump-pairs"])
    out.append(["verify"])
    return out


def extra_calls() -> list[list[str]]:
    """The CLI arguments of every call that the grid lacks, in a fixed order,
    each run under the default budget alone."""
    out = []
    for beta, gamma in (("2", "1"), ("3", "2"), ("1/2", "3"), ("-3/2", "1/3")):
        seq = ["seq", f"--beta={beta}", f"--gamma={gamma}", "--n=7"]
        out += [seq, [*seq, "--format=json"]]
    for alpha, beta, gamma in (("1", "2", "1"), ("3", "3", "2"), ("1/2", "3/2", "1/3"),
                               ("5/2", "-2/3", "3/4")):
        family = [f"--alpha={alpha}", f"--beta={beta}"]
        out += [["riordan", "entry", *family, "--n=6", "--k=2"],
                ["riordan", "check", *family, f"--gamma={gamma}", "--order=8"],
                ["riordan", "check", *family, f"--gamma={gamma}"]]
    out += [[], ["frobnicate"], ["seq", "--n=3"], ["seq", "--beta=x", "--n=3"],
            ["seq", "--beta=1/0", "--n=3"], ["trees", "count", "--beta=2", "--n", "-1"],
            ["trees", "sort", "--beta=2", "--n=1"], ["riordan", "entry", "--alpha=1", "--beta=2"],
            ["riordan", "check", "--alpha=1", "--beta=2"],
            ["involution", "--beta=2", "--n=3", "--gamma=2", "--alpha=1"]]
    out += [["--help"], *([command, "--help"] for command in
                          ("seq", "trees", "involution", "riordan", "verify"))]
    return out


def digest(code: int, stdout: bytes, stderr: bytes) -> str:
    """The sha256 of one call's exit code, stdout and stderr, each of the
    outputs prefixed by its length."""
    head = b"%d %d %d\n" % (code, len(stdout), len(stderr))
    return hashlib.sha256(head + stdout + stderr).hexdigest()


def line(call_digest: str, argv: list[str], budget: str | None) -> str:
    """One call's line: its digest, then its budget and arguments."""
    return f"{call_digest}  budget={budget or 'default'} {' '.join(argv)}\n"


def summary(lines: list[str]) -> str:
    """The last line: the sha256 of all the call lines, and their number."""
    return f"total {hashlib.sha256(''.join(lines).encode()).hexdigest()} over {len(lines)} calls"


def run(argv: list[str], budget: str | None) -> str:
    """The digest of one call, run as ``python -m catalania.cli`` in a fresh
    process."""
    env = {key: value for key, value in os.environ.items() if key != "CATALANIA_MAX_STRUCTS"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", COLUMNS=COLUMNS)
    if budget is not None:
        env["CATALANIA_MAX_STRUCTS"] = budget
    proc = subprocess.run([sys.executable, "-m", "catalania.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, check=False)
    return digest(proc.returncode, proc.stdout, proc.stderr)


def main() -> int:
    grids = ([(args, budget) for budget in BUDGETS for args in calls()],
             [(args, None) for args in extra_calls()])
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for grid in grids:
            lines = []
            for (args, budget), call_digest in zip(grid, pool.map(lambda call: run(*call), grid)):
                lines.append(line(call_digest, args, budget))
                sys.stdout.write(lines[-1])
            print(summary(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
