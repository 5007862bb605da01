"""Command-line surface.

Subcommands: seq, trees (count|list), involution, riordan (entry|check),
verify.  Numeric flags take exact rationals as "p/q" strings; there is no
float parsing anywhere.  Exit codes: 0 success / all checks pass, 1 a
mathematical mismatch, 2 usage or resource errors, 3 an internal error,
141 (128 + SIGPIPE) a reader that closed stdout early.  Listings are
written as they are made, and the census sum is always counted.  All
output is UTF-8 and newline-terminated, and identical invocations print
identical bytes.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence

# Layer modules load on first use (see the package docstring), so a
# subcommand runs only the layers it calls.
from . import census, counting, exact, forest, identities, involution, riordan


def rat_flag(text: str) -> Fraction:
    try:
        return exact.as_rat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {text!r}") from None


def nat_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catalania",
        description="Exact generalized-Catalan enumeration and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="print a generalized Catalan sequence")
    p_seq.add_argument("--beta", type=rat_flag, required=True)
    p_seq.add_argument("--gamma", type=rat_flag, default=Fraction(1))
    p_seq.add_argument("--n", type=nat_flag, required=True, help="largest index")
    p_seq.add_argument("--format", choices=("text", "json"), default="text")

    p_trees = sub.add_parser("trees", help="enumerate forests exhaustively")
    p_trees.add_argument("action", choices=("count", "list"))
    p_trees.add_argument("--beta", type=nat_flag, required=True)
    p_trees.add_argument("--n", type=nat_flag, required=True, help="internal vertices")
    p_trees.add_argument("--gamma", type=nat_flag, default=1, help="components")
    p_trees.add_argument("--check-formula", action="store_true",
                         help="compare the count with the closed form")
    p_trees.add_argument("--format", choices=("text", "paren", "json"), default="text",
                         help='"paren" is the text parenthesis encoding')

    p_inv = sub.add_parser("involution", help="alternating census of colored forests")
    p_inv.add_argument("--beta", type=nat_flag, required=True)
    p_inv.add_argument("--n", type=nat_flag, required=True, help="total index")
    p_inv.add_argument("--gamma", type=nat_flag, default=1)
    p_inv.add_argument("--alpha", type=nat_flag, default=1)
    p_inv.add_argument("--dump-pairs", action="store_true",
                       help="print matched pairs and exceptional structures")

    p_rio = sub.add_parser("riordan", help="array entries and summation checks")
    p_rio.add_argument("action", choices=("entry", "check"))
    p_rio.add_argument("--alpha", type=rat_flag)
    p_rio.add_argument("--beta", type=rat_flag)
    p_rio.add_argument("--gamma", type=rat_flag)
    p_rio.add_argument("--n", type=nat_flag)
    p_rio.add_argument("--k", type=nat_flag)
    p_rio.add_argument("--order", type=nat_flag)
    p_rio.add_argument("--g-json", metavar="PATH", help="series file overriding g")
    p_rio.add_argument("--f-json", metavar="PATH", help="series file overriding f")
    p_rio.add_argument("--a-json", metavar="PATH", help="series file overriding A")
    p_rio.add_argument("--l-json", metavar="PATH", help="series file overriding L")

    p_verify = sub.add_parser("verify", help="run the identity suite, emit a JSON report")
    p_verify.add_argument("--config", metavar="PATH", help="grid config JSON")

    return parser


def _print_json(value: object) -> None:
    import json  # loaded here: most commands print no JSON

    print(json.dumps(value))


def _write_lines(lines: Iterable[str], sep: str = "\n", end: str = "\n") -> None:
    """Write ``lines`` to stdout joined by ``sep``, and ``end`` after the
    last, 1,024 lines to a write: with an unbuffered stdout, one write per
    line would cost a system call each.  No line, no ``end``."""
    lines = iter(lines)
    lead = ""
    while block := list(itertools.islice(lines, 1024)):
        sys.stdout.write(lead + sep.join(block))
        lead = sep
    if lead:
        sys.stdout.write(end)


def _cmd_seq(args: argparse.Namespace) -> int:
    values = counting.catalan_sequence(args.beta, args.gamma, args.n)
    if args.format == "json":
        _print_json([exact.rat_str(v) for v in values])
    else:
        for v in values:
            print(exact.rat_str(v))
    return 0


def _cmd_trees(args: argparse.Namespace) -> int:
    if args.action == "list":
        texts = map(forest.encode, forest.iter_forests(args.beta, args.n, args.gamma))
        if args.format == "json":  # json.dumps of the list, written as it is made
            import json

            sys.stdout.write("[")
            _write_lines(map(json.encoder.encode_basestring_ascii, texts), ", ", "")
            sys.stdout.write("]\n")
            return 0
        _write_lines(texts)
        return 0
    count = census.count_forests(args.beta, args.n, args.gamma)
    if args.check_formula:
        formula = counting.catalan_gen(args.n, args.beta, args.gamma)
        match = formula == count
        verdict = "OK" if match else "MISMATCH"
        if args.format == "json":
            _print_json({"count": str(count), "formula": exact.rat_str(formula), "match": match})
        else:
            relation = "==" if match else "!="
            print(f"{count} {relation} {exact.rat_str(formula)} {verdict}")
        return 0 if match else 1
    if args.format == "json":
        _print_json({"count": str(count)})
    else:
        print(count)
    return 0


def _cmd_involution(args: argparse.Namespace) -> int:
    if not args.alpha >= args.gamma >= 1:
        raise exact.ConfigError("need --alpha >= --gamma >= 1")
    total = census.signed_sum(args.beta, args.n, args.gamma, args.alpha)
    rhs = counting.eq2_rhs(args.alpha, args.gamma, args.n)
    verdict = "OK" if total == rhs else "MISMATCH"
    print(f"sum={total} rhs={exact.rat_str(rhs)} {verdict}")
    if args.dump_pairs:
        _write_lines(involution.pair_lines(args.beta, args.n, args.gamma, args.alpha))
    return 0 if total == rhs else 1


def _load_series_file(path: str):
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise exact.ConfigError(f"cannot read series file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise exact.ConfigError(f"series file {path} is not valid JSON: {exc}") from None
    try:
        return riordan.series_from_json(payload)
    except ValueError as exc:
        raise exact.ConfigError(f"series file {path}: {exc}") from None


def _riordan_array(args: argparse.Namespace, order: int) -> riordan.RiordanArray:
    """The Catalan family at --alpha/--beta truncated to ``order``, with
    --g-json and --f-json each replacing its half; with both files the family
    flags are not needed."""
    family = None
    if not (args.g_json and args.f_json):
        if args.alpha is None or args.beta is None:
            raise exact.ConfigError(f"{args.action} needs --alpha/--beta or --g-json/--f-json")
        family = riordan.catalan_family(args.alpha, args.beta, order)
    g = _load_series_file(args.g_json) if args.g_json else family.g
    f = _load_series_file(args.f_json) if args.f_json else family.f
    return riordan.RiordanArray(g, f)


def _cmd_riordan(args: argparse.Namespace) -> int:
    if args.action == "entry":
        if args.n is None or args.k is None:
            raise exact.ConfigError("entry needs --n and --k")
        # Entry (n, k) reads coefficients up to x**n only, whatever --order says.
        array = _riordan_array(args, max(args.n, 1))
        print(exact.rat_str(riordan.riordan_entry(array, args.n, args.k)))
        return 0

    order = args.order if args.order is not None else 12
    if order < 1:
        raise exact.ConfigError("--order must be >= 1")
    array = _riordan_array(args, order)
    if args.a_json:
        a = _load_series_file(args.a_json)
    elif args.beta is not None and args.gamma is not None:
        a = riordan.catalan_gf(args.beta, args.gamma, order)
    else:
        raise exact.ConfigError("check needs --gamma (with --beta) or --a-json")
    if args.l_json:
        l = _load_series_file(args.l_json)
    elif args.alpha is not None and args.gamma is not None:
        l = riordan.series_binpow(args.alpha - args.gamma, order)
    else:
        raise exact.ConfigError("check needs --alpha and --gamma, or --l-json")
    plain = riordan.riordan_theorem_check(array, a, l)
    modified = riordan.modified_riordan_check(array, a, l)
    print(f"Eq5 {'OK' if plain else 'FAIL'}, Eq6 {'OK' if modified else 'FAIL'}")
    return 0 if plain and modified else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    config = None
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                config = identities.load_config(handle.read())
        except OSError as exc:  # its text names the file
            raise exact.ConfigError(f"cannot read config: {exc}") from None
        except UnicodeDecodeError as exc:
            raise exact.ConfigError(f"cannot read config {args.config}: {exc}") from None
    reports = identities.run_suite(config)
    print(identities.reports_to_json(reports))
    return 0 if all(r.ok for r in reports) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "seq": _cmd_seq,
        "trees": _cmd_trees,
        "involution": _cmd_involution,
        "riordan": _cmd_riordan,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:  # covers ConfigError, EnumerationBudgetError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # an internal consistency check failed
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does.  Writes go to devnull
        # from here on, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
