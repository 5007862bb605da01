"""Exact enumeration toolkit: generalized Catalan numbers, forests with a
weight-reversing pairing, truncated rational power series, Riordan arrays,
and an identity verification suite with a CLI."""

from .exact import Rat, as_rat, binom, kronecker, multinomial, rat_str
from .counting import VecProfile, catalan_gen, catalan_sequence, catalan_vector
from .forest import (
    Forest,
    Tree,
    VertexAddr,
    count_forests,
    count_leaves,
    decode,
    encode,
    generate_forests,
    generate_kary,
    generate_mixed_forests,
    iter_forests,
    iter_mixed_forests,
)
from .involution import (
    ColoredForest,
    Classification,
    check_signed_matching,
    classify,
    enumerate_colored,
    involute,
    pairings,
    signed_sum,
    signed_sum_vector,
)
from .riordan import (
    RiordanArray,
    Series,
    catalan_gf,
    convolution_check,
    modified_riordan_check,
    riordan_entry,
    riordan_theorem_check,
    row_sums,
)
from .identities import (
    GouldPair,
    IdentityReport,
    closed_form_reduction_check,
    gould_backward,
    gould_forward,
    run_suite,
    verify_eq2,
    verify_eq3,
    verify_eq10,
)

__version__ = "0.1.0"

__all__ = [
    "Rat", "as_rat", "binom", "kronecker", "multinomial", "rat_str",
    "VecProfile", "catalan_gen", "catalan_sequence", "catalan_vector",
    "Forest", "Tree", "VertexAddr", "count_forests", "count_leaves", "decode", "encode",
    "generate_forests", "generate_kary", "generate_mixed_forests",
    "iter_forests", "iter_mixed_forests",
    "ColoredForest", "Classification", "check_signed_matching", "classify",
    "enumerate_colored", "involute", "pairings", "signed_sum", "signed_sum_vector",
    "RiordanArray", "Series", "catalan_gf", "convolution_check",
    "modified_riordan_check", "riordan_entry", "riordan_theorem_check", "row_sums",
    "GouldPair", "IdentityReport", "closed_form_reduction_check",
    "gould_backward", "gould_forward", "run_suite",
    "verify_eq2", "verify_eq3", "verify_eq10",
    "__version__",
]
