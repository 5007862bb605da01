"""Benchmark workloads: seeded op sequences for the catalania CLI.

An op is one ``python -m catalania.cli ...`` invocation.  A workload turns a
seed into a *pass*, a fixed-length list of ops; run.py repeats the pass
for the run's duration.  The seed picks parameters inside per-slot windows
of nearly equal work, so passes from different seeds cost about the same
and the run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from bench_oracle import IDENTITY_IDS, census_size, forest_count

# A pinned copy of catalania.identities.DEFAULT_CONFIG, so that a change to
# the package default cannot silently change the work `verify` measures
# (test_benchmark.py asserts the two are still equal).
PINNED_DEFAULT_CONFIG: dict = {
    "eq1": {"n_max": 8},
    "eq2": {
        "alpha": {"min": "-3", "max": "5", "step": "1"},
        "beta": {"min": "0", "max": "4", "step": "1"},
        "gamma": {"min": "-2", "max": "4", "step": "1"},
        "n_max": 12,
        "cross": {"betas": [2, 3], "gammas": [1, 2], "alpha_offsets": [0, 1, 2], "n_max": 4},
        "family": {
            "alphas": ["0", "1", "2", "3"],
            "betas": ["1", "2", "3"],
            "gammas": ["1", "2"],
            "order": 15,
        },
    },
    "eq3": {
        "p": [2, 3],
        "gamma": {"min": "0", "max": "2", "step": "1"},
        "alpha": {"min": "-1", "max": "4", "step": "1/2"},
        "n_total_max": 3,
    },
    "eq4": {
        "alpha": {"min": "-3", "max": "5", "step": "1"},
        "beta": {"min": "0", "max": "4", "step": "1"},
        "gamma": {"min": "-2", "max": "4", "step": "1"},
        "n_max": 12,
    },
    "eq7": {
        "beta": {"min": "1", "max": "4", "step": "1"},
        "gamma": {"min": "0", "max": "3", "step": "1"},
        "order": 20,
    },
    "eq8": {
        "beta": {"min": "1", "max": "3", "step": "1"},
        "alpha_pairs": [["1", "1"], ["2", "3"], ["1/2", "3/2"], ["1/2", "1/2"]],
        "order": 15,
    },
    "eq9": {
        "length": 10,
        "sequences": 20,
        "seed": 20250808,
        "pairs": [
            ["2", "0", "1"],
            ["1", "1", "1"],
            ["1", "1/2", "-1"],
            ["0", "1", "2"],
            ["2", "-1", "1/3"],
            ["-1", "1/2", "2"],
        ],
    },
    "eq10": {
        "alpha": {"min": "-2", "max": "3", "step": "1"},
        "beta": {"min": "0", "max": "3", "step": "1"},
        "gamma": {"min": "-1", "max": "3", "step": "1"},
        "n_max": 10,
    },
    "closed_form": {
        "beta": {"min": "-1", "max": "3", "step": "1"},
        "gamma": {"min": "-2", "max": "3", "step": "1"},
        "n_max": 10,
    },
}

# Config section -> the report id it produces, in suite order.
SECTION_IDS = dict(zip(PINNED_DEFAULT_CONFIG, IDENTITY_IDS))

WORKLOADS = ("verify", "enumerate", "series")


@dataclass
class Op:
    """One CLI invocation, what the oracle needs to check it, and its work."""

    kind: str
    argv: list[str]
    params: dict
    work: int
    config: Optional[dict] = None  # verify: written to a file, passed as --config


def make_pass(workload: str, seed: int) -> list[Op]:
    """The seeded op sequence of one pass of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng)


# ---------------------------------------------------------------------------
# verify: the default identity suite, as users run it
# ---------------------------------------------------------------------------

def _interval_size(spec: dict) -> int:
    lo, hi, step = (Fraction(spec[key]) for key in ("min", "max", "step"))
    return int((hi - lo) // step) + 1


def _grid(cfg: dict, *keys: str) -> int:
    out = 1
    for key in keys:
        out *= _interval_size(cfg[key])
    return out


def identity_rows(config: dict) -> int:
    """Parameter points x rows that ``catalania verify`` checks for a config."""
    rows = 0
    if "eq1" in config:
        rows += config["eq1"]["n_max"] + 1
    if "eq2" in config:
        cfg = config["eq2"]
        rows += _grid(cfg, "alpha", "beta", "gamma") * (cfg["n_max"] + 1)
        cross, family = cfg.get("cross"), cfg.get("family")
        if cross:
            rows += (len(cross["betas"]) * len(cross["gammas"]) * len(cross["alpha_offsets"])
                     * (cross["n_max"] + 1))
        if family:
            rows += (len(family["alphas"]) * len(family["betas"]) * len(family["gammas"])
                     * (family["order"] + 1))
    if "eq3" in config:
        cfg = config["eq3"]
        parts = len(cfg["p"])
        rows += _grid(cfg, "gamma", "alpha") * comb(cfg["n_total_max"] + parts, parts)
    if "eq4" in config:
        cfg = config["eq4"]
        rows += _grid(cfg, "alpha", "beta", "gamma") * (cfg["n_max"] + 1)
    if "eq7" in config:
        cfg = config["eq7"]
        rows += _grid(cfg, "beta", "gamma") * (cfg["order"] + 1)
    if "eq8" in config:
        cfg = config["eq8"]
        rows += _grid(cfg, "beta") * len(cfg["alpha_pairs"]) * (cfg["order"] + 1)
    if "eq9" in config:
        cfg = config["eq9"]
        rows += 2 * cfg["sequences"] * len(cfg["pairs"]) * cfg["length"]
    if "eq10" in config:
        cfg = config["eq10"]
        rows += _grid(cfg, "alpha", "beta", "gamma") * cfg["n_max"]
    if "closed_form" in config:
        cfg = config["closed_form"]
        rows += _grid(cfg, "beta", "gamma") * cfg["n_max"]
    return rows


def verify_op(config: dict) -> Op:
    ids = [SECTION_IDS[key] for key in config if key in SECTION_IDS]
    return Op("verify", ["verify"], {"ids": ids}, identity_rows(config), config)


def seeded_default_config(rng: random.Random) -> dict:
    config = copy.deepcopy(PINNED_DEFAULT_CONFIG)
    config["eq9"]["seed"] = rng.randrange(2**31)
    return config


def section_ops(seed: int) -> list[Op]:
    """One ``verify`` op per config section, for per-identity timings."""
    config = seeded_default_config(random.Random(f"verify:{seed}"))
    return [verify_op({key: config[key]}) for key in config]


def _verify_pass(rng: random.Random) -> list[Op]:
    return [verify_op(seeded_default_config(rng))]


# ---------------------------------------------------------------------------
# enumerate: exhaustive forests and colored censuses
# ---------------------------------------------------------------------------

# The ROADMAP's tracked memory case: 690,690 forests built just to count them.
# Fixed rather than drawn so that peak RSS compares across seeds.
ANCHOR = {"beta": 3, "n": 9, "gamma": 2}


def _forest_shapes(lo: int, hi: int) -> list[dict]:
    return [{"beta": b, "n": n, "gamma": g}
            for b in range(2, 6) for g in range(1, 7) for n in range(1, 16)
            if lo <= forest_count(b, n, g) <= hi]


def _census_shapes(lo: int, hi: int) -> list[dict]:
    return [{"beta": b, "n": n, "gamma": g, "alpha": a}
            for b in range(2, 5) for g in range(1, 4) for a in range(g, g + 5)
            for n in range(1, 12) if lo <= census_size(b, n, g, a) <= hi]


# The pass's median-latency op, the list, draws from two shapes that print
# about the same number of lines of about the same length.  The heavy slots
# draw from shapes of matched cost, not just matched size: their CPU times
# lie within about 10% of each other (Python 3.11, 2-vCPU x86 VM), where the
# size windows alone spread 2x.
LIST_SHAPES = [{"beta": 5, "n": 5, "gamma": 3}, {"beta": 4, "n": 5, "gamma": 5}]
CENSUS_SHAPES = [{"beta": 2, "n": 7, "gamma": 3, "alpha": 3},
                 {"beta": 3, "n": 6, "gamma": 2, "alpha": 2},
                 {"beta": 4, "n": 5, "gamma": 3, "alpha": 4},
                 {"beta": 3, "n": 6, "gamma": 2, "alpha": 3}]
DUMP_SHAPES = [{"beta": 3, "n": 6, "gamma": 1, "alpha": 3},
               {"beta": 3, "n": 5, "gamma": 3, "alpha": 5},
               {"beta": 2, "n": 7, "gamma": 2, "alpha": 2}]


def trees_op(action: str, shape: dict) -> Op:
    argv = ["trees", action] + [f"--{k}={v}" for k, v in shape.items()]
    if action == "count":
        argv.append("--check-formula")
        kind = "trees_count"
    else:
        argv.append("--format=paren")
        kind = "trees_list"
    return Op(kind, argv, dict(shape), forest_count(**shape))


def involution_op(shape: dict, dump: bool) -> Op:
    argv = ["involution"] + [f"--{k}={v}" for k, v in shape.items()]
    if dump:
        argv.append("--dump-pairs")
    return Op("dump_pairs" if dump else "involution", argv, dict(shape), census_size(**shape))


def _enumerate_pass(rng: random.Random) -> list[Op]:
    ops = [
        trees_op("count", ANCHOR),
        trees_op("count", rng.choice(_forest_shapes(20_000, 26_000))),
        trees_op("count", rng.choice(_forest_shapes(5_000, 8_000))),
        trees_op("list", rng.choice(LIST_SHAPES)),
        involution_op(rng.choice(CENSUS_SHAPES), dump=False),
        involution_op(rng.choice(_census_shapes(3_000, 5_000)), dump=False),
        involution_op(rng.choice(DUMP_SHAPES), dump=True),
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# series: Riordan arrays and generating-function coefficients
# ---------------------------------------------------------------------------

# Narrow draws: a parameter's size sets the size of every coefficient, and
# so the op's cost.  Fixed denominators, numerators coprime to them.
def _integer_params(rng: random.Random) -> dict:
    return {"alpha": str(rng.choice([-4, -3])), "beta": str(rng.choice([3, 4])),
            "gamma": str(rng.choice([2, 3]))}


def _rational_params(rng: random.Random) -> dict:
    return {"alpha": f"{rng.choice([-7, -5, 5, 7])}/2",
            "beta": f"{rng.choice([7, 8])}/3",
            "gamma": f"{rng.choice([5, 7])}/4"}


def _flags(params: dict, *keys: str) -> list[str]:
    # "--key=value" keeps argparse from reading "-5/2" as an option.
    return [f"--{k}={params[k]}" for k in keys]


def _series_pass(rng: random.Random) -> list[Op]:
    # The 10 entry and seq ops cost about the same (mostly start-up), so the
    # pass's median op is always one of them.
    ops = []
    for size, rational in ((30, False), (30, True), (40, False), (40, True)):
        params = _rational_params(rng) if rational else _integer_params(rng)
        ops.append(Op("riordan_check",
                      ["riordan", "check", *_flags(params, "alpha", "beta", "gamma"),
                       f"--order={size}"],
                      params, size + 1))
    for _ in range(5):
        params = _rational_params(rng)
        ops.append(Op("riordan_entry",
                      ["riordan", "entry", *_flags(params, "alpha", "beta"), "--n=36", "--k=18"],
                      {**params, "n": 36, "k": 18}, 1))
    for _ in range(5):
        params = _integer_params(rng)
        ops.append(Op("seq", ["seq", *_flags(params, "beta", "gamma"), "--n=20"],
                      {**params, "n": 20}, 21))
    rng.shuffle(ops)
    return ops


_BUILDERS = {"verify": _verify_pass, "enumerate": _enumerate_pass, "series": _series_pass}
