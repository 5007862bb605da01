"""Output sweep: the stdout, stderr and exit code of a fixed grid of CLI calls.

    python tools/sweep.py

Each call runs ``python -m catalania.cli`` in a fresh process, JOBS at a
time, against the ``src/`` beside this script, once with the default
structure budget and once under CATALANIA_MAX_STRUCTS=4.  The grid:

* ``trees count`` as text, as json and with ``--check-formula``, and
  ``trees list`` as text and as json, over beta 0-4, n 0-7 and gamma 0-3;
* ``involution`` over beta 1-4, n 0-6, gamma 1-3 and alpha gamma..gamma+3,
  and with ``--dump-pairs`` for beta <= 3 and n <= 4;
* ``verify`` on the default config.

It prints one line per call, the sha256 of its exit code, stdout and stderr
followed by its budget and arguments, then the sha256 of all those lines.
Two checkouts whose totals agree behave byte for byte alike on every call.
It is opt-in: the test suite does not run it.
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


def digest(argv: list[str], budget: str | None) -> str:
    """The sha256 of one call's exit code, stdout and stderr, each of the
    outputs prefixed by its length."""
    env = {key: value for key, value in os.environ.items() if key != "CATALANIA_MAX_STRUCTS"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    if budget is not None:
        env["CATALANIA_MAX_STRUCTS"] = budget
    proc = subprocess.run([sys.executable, "-m", "catalania.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, check=False)
    head = b"%d %d %d\n" % (proc.returncode, len(proc.stdout), len(proc.stderr))
    return hashlib.sha256(head + proc.stdout + proc.stderr).hexdigest()


def main() -> int:
    grid = [(args, budget) for budget in BUDGETS for args in calls()]
    total = hashlib.sha256()
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for (args, budget), call_digest in zip(grid, pool.map(lambda call: digest(*call), grid)):
            line = f"{call_digest}  budget={budget or 'default'} {' '.join(args)}\n"
            total.update(line.encode())
            sys.stdout.write(line)
    print(f"total {total.hexdigest()} over {len(grid)} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
