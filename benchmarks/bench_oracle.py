"""Independent answer oracle for every benchmark op kind.

Each check recomputes the expected answer from closed forms written here
with ``math.comb`` and ``fractions`` alone; nothing from the catalania
package is imported, so a defect in its kernel cannot vouch for itself.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial
from typing import Optional

IDENTITY_IDS = ("Eq1", "Eq2", "Eq3", "Eq4", "Eq7", "Eq8", "Eq9_roundtrip", "Eq10", "ClosedForm")


def gbinom(x: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient x(x-1)...(x-k+1) / k!."""
    num = Fraction(1)
    for i in range(k):
        num *= x - i
    return num / factorial(k)


def forest_count(beta: int, n: int, gamma: int) -> int:
    """Ordered forests of gamma beta-ary trees with n internal vertices."""
    if n == 0:
        return 1
    size = beta * n + gamma
    return gamma * comb(size, n) // size


def census_size(beta: int, n: int, gamma: int, alpha: int) -> int:
    """Colored planted forests with internal + colored objects = n: the
    forests with n - i internal vertices times the ways to color i of their
    (beta-1)(n-i) + gamma leaves and alpha - gamma planted roots."""
    return sum(forest_count(beta, n - i, gamma) * comb((beta - 1) * (n - i) + alpha, i)
               for i in range(n + 1))


def catalan_value(n: int, beta: Fraction, gamma: Fraction) -> Fraction:
    """C(n; beta, gamma) = gamma/(beta n + gamma) * binom(beta n + gamma, n),
    continued to beta n + gamma = 0 by gamma/n * binom(beta n + gamma - 1, n - 1)."""
    if n == 0:
        return Fraction(1)
    size = beta * n + gamma
    if size != 0:
        return gamma / size * gbinom(size, n)
    return gamma / n * gbinom(size - 1, n - 1)


def riordan_entry_value(alpha: Fraction, beta: Fraction, n: int, k: int) -> Fraction:
    """Entry (n, k) of [(1-x)^alpha, x(1-x)^(beta-1)]: the coefficient of
    x^(n-k) in (1-x)^(alpha + k(beta-1))."""
    if k > n:
        return Fraction(0)
    return (-1) ** (n - k) * gbinom(alpha + k * (beta - 1), n - k)


def _census_line(n: int, gamma: int, alpha: int) -> str:
    rhs = (-1) ** n * comb(alpha - gamma, n)
    return f"sum={rhs} rhs={rhs} OK"


def check(kind: str, params: dict, returncode: int, stdout: bytes) -> Optional[str]:
    """None when the op's exit code and stdout are right, else the reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return "stdout is not UTF-8"
    if not text.endswith("\n"):
        return "stdout does not end with a newline"
    lines = text[:-1].split("\n")
    return _CHECKS[kind](params, lines)


def _check_verify(params: dict, lines: list[str]) -> Optional[str]:
    try:
        reports = json.loads("\n".join(lines))
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    ids = [r.get("identity_id") for r in reports]
    if ids != list(params["ids"]):
        return f"identity ids {ids}, expected {list(params['ids'])}"
    failing = [r["identity_id"] for r in reports if r.get("status") != "pass"]
    return f"identities not passing: {failing}" if failing else None


def _check_trees_count(params: dict, lines: list[str]) -> Optional[str]:
    count = forest_count(params["beta"], params["n"], params["gamma"])
    expected = f"{count} == {count} OK"
    return None if lines == [expected] else f"got {lines[:2]!r}, expected {expected!r}"


def _check_trees_list(params: dict, lines: list[str]) -> Optional[str]:
    beta, n, gamma = params["beta"], params["n"], params["gamma"]
    count = forest_count(beta, n, gamma)
    if len(lines) != count:
        return f"{len(lines)} forests listed, expected {count}"
    if len(set(lines)) != count:
        return "listed forests are not distinct"
    leaves = (beta - 1) * n + gamma
    for line in lines:
        if (line.count("(") != n or line.count(")") != n
                or line.count("o") != leaves or line.count(";") != gamma - 1):
            return f"forest {line!r} has the wrong shape"
    return None


def _check_involution(params: dict, lines: list[str]) -> Optional[str]:
    expected = _census_line(params["n"], params["gamma"], params["alpha"])
    return None if lines == [expected] else f"got {lines[:2]!r}, expected {expected!r}"


def _check_dump_pairs(params: dict, lines: list[str]) -> Optional[str]:
    beta, n, gamma, alpha = params["beta"], params["n"], params["gamma"], params["alpha"]
    expected = _census_line(n, gamma, alpha)
    if lines[0] != expected:
        return f"got {lines[0]!r}, expected {expected!r}"
    pairs = sum(1 for line in lines[1:] if line.startswith("pair ") and " <-> " in line)
    exceptional = sum(1 for line in lines[1:] if line.startswith("exceptional "))
    if pairs + exceptional != len(lines) - 1:
        return "unrecognised dump line"
    size = census_size(beta, n, gamma, alpha)
    if 2 * pairs + exceptional != size:
        return f"2*{pairs} pairs + {exceptional} exceptional != census size {size}"
    return None


def _check_riordan_entry(params: dict, lines: list[str]) -> Optional[str]:
    value = riordan_entry_value(Fraction(params["alpha"]), Fraction(params["beta"]),
                                params["n"], params["k"])
    return None if lines == [str(value)] else f"got {lines[:2]!r}, expected {str(value)!r}"


def _check_riordan_check(params: dict, lines: list[str]) -> Optional[str]:
    expected = "Eq5 OK, Eq6 OK"
    return None if lines == [expected] else f"got {lines[:2]!r}, expected {expected!r}"


def _check_seq(params: dict, lines: list[str]) -> Optional[str]:
    beta, gamma = Fraction(params["beta"]), Fraction(params["gamma"])
    expected = [str(catalan_value(k, beta, gamma)) for k in range(params["n"] + 1)]
    if len(lines) != len(expected):
        return f"{len(lines)} values printed, expected {len(expected)}"
    for k, (got, want) in enumerate(zip(lines, expected)):
        if got != want:
            return f"C({k}) printed as {got!r}, expected {want!r}"
    return None


_CHECKS = {
    "verify": _check_verify,
    "trees_count": _check_trees_count,
    "trees_list": _check_trees_list,
    "involution": _check_involution,
    "dump_pairs": _check_dump_pairs,
    "riordan_entry": _check_riordan_entry,
    "riordan_check": _check_riordan_check,
    "seq": _check_seq,
}
