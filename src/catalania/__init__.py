"""Exact enumeration toolkit: generalized Catalan numbers, forests with a
weight-reversing pairing, truncated rational power series, Riordan arrays,
and an identity verification suite with a CLI.

What counts without building, the structure budget, the forest counts and
the counted colored census, is a layer of its own, ``census``, below the
generators of ``forest`` and the pairing of ``involution``: ``verify``,
``trees count`` and ``involution`` without ``--dump-pairs`` count, and load
neither of those two.

The layer modules are imported lazily: each one is in ``sys.modules`` and
bound on the package from the start, but its code runs on first attribute
access.  A CLI subcommand therefore runs only the layers it calls, and a
public name such as ``catalania.binom`` loads its module when first read.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Public names by the module that defines them.
_PUBLIC = {
    "exact": ("Rat", "as_rat", "binom", "multinomial", "rat_str"),
    "counting": ("VecProfile", "catalan_gen", "catalan_sequence", "catalan_vector"),
    "census": ("count_forests", "count_mixed_forests", "signed_sum", "signed_sum_vector"),
    "forest": ("Forest", "Tree", "decode", "encode", "generate_forests", "generate_mixed_forests",
               "iter_forests", "iter_mixed_forests"),
    "involution": ("ColoredForest", "Classification", "check_signed_matching", "classify",
                   "enumerate_colored", "involute", "pairings"),
    "riordan": ("RiordanArray", "Series", "catalan_gf", "modified_riordan_check",
                "riordan_entry", "riordan_theorem_check", "row_sums"),
    "identities": ("GouldPair", "IdentityReport", "closed_form_reduction_check",
                   "gould_backward", "gould_forward", "run_suite",
                   "verify_eq2", "verify_eq3", "verify_eq10"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_HOME, "__version__"]

for _name in _PUBLIC:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
