"""The byte contract of tools/sweep.py, in one process.

Every call of the sweep's grid runs through ``cli.entrypoint`` under both
budgets, and every one of its extra calls under the default budget, with
COLUMNS set as the tool sets it, its stdout and stderr captured as UTF-8
bytes and ``os._exit`` raising its status, so that a status is mapped as
the console maps it.  The lines and their totals are the tool's own, so a
total pinned here is one that ``python tools/sweep.py`` prints; the tool
stays the opt-in run in fresh processes."""

import importlib.util
import io
import os
import sys
from pathlib import Path

from catalania import cli

_PATH = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"
_SPEC = importlib.util.spec_from_file_location("sweep", _PATH)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)

TOTAL = "total 80c9e10ce683592b159115808d8e7c328838776c9316eba9ca136cbd1c638d0f over 2634 calls"
EXTRA_TOTAL = "total 6a9cf34f0600cc7297b93915aeaa6cc4783da7bc857b730f7a8175393e17054f over 36 calls"


class _Exited(Exception):
    """The status that cli.entrypoint hands to os._exit."""


def _exit(code):
    raise _Exited(code)


def _call(monkeypatch, argv, budget):
    """sweep.digest of one call through cli.entrypoint, in this process."""
    monkeypatch.setenv("COLUMNS", sweep.COLUMNS)
    if budget is None:
        monkeypatch.delenv("CATALANIA_MAX_STRUCTS", raising=False)
    else:
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", budget)
    out, err = io.BytesIO(), io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="utf-8"))
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(err, encoding="utf-8"))
    monkeypatch.setattr(sys, "argv", ["catalania", *argv])
    try:
        cli.entrypoint()
    except _Exited as exited:
        (code,) = exited.args
    return sweep.digest(code, out.getvalue(), err.getvalue())


def test_every_call_keeps_its_bytes(monkeypatch):
    monkeypatch.setattr(os, "_exit", _exit)
    lines = [sweep.line(_call(monkeypatch, args, budget), args, budget)
             for budget in sweep.BUDGETS for args in sweep.calls()]
    assert sweep.summary(lines) == TOTAL


def test_every_extra_call_keeps_its_bytes(monkeypatch):
    monkeypatch.setattr(os, "_exit", _exit)
    lines = [sweep.line(_call(monkeypatch, args, None), args, None) for args in sweep.extra_calls()]
    assert sweep.summary(lines) == EXTRA_TOTAL
