"""Exact q-enumeration of circular Dyck paths and cyclic sieving verification.

Everything is integer arithmetic: q-polynomials with arbitrary-precision
coefficients, root-of-unity evaluation by cyclotomic reduction, exhaustive
oracles next to every closed formula, and exact-rational homomesy averages.

The names below are exported lazily (PEP 562): `cyclicsieve.X` and
`from cyclicsieve import X` import X's submodule on first use, so importing
the package, or the CLI on a cache hit, loads none of the math kernels.
Each access reads the submodule's attribute afresh, so a wrapper installed
on a submodule attribute is seen through the package too.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "qpoly": (
        "IntPolynomial",
        "NonConstant",
        "ExactDivisionError",
        "cyclotomic",
        "divisors",
        "eval_at_unity",
        "mod_cyclic",
        "q_binomial",
        "q_factorial",
        "q_int",
        "q_lucas_eval",
        "q_multinomial",
    ),
    "paths": (
        "AreaSequence",
        "LatticeWord",
        "MobiusWord",
        "area_to_path",
        "cdp_necklaces",
        "cdp_values",
        "enumerate_avl",
        "enumerate_cdp",
        "enumerate_cmp",
        "enumerate_dyck",
        "inv_zero_one",
        "maj",
        "validate_area_sequence",
    ),
    "genfunc": (
        "DiagonalSpec",
        "avl_q_closed",
        "bw_q",
        "carlitz_q_catalan",
        "cdp_count",
        "cdp_q_bruteforce",
        "cdp_q_closed",
        "cdp_q_wide",
        "cmp_q",
        "gen_q_ballot",
        "h_bruteforce",
        "h_closed",
        "lr_count",
    ),
    "actions": (
        "CyclicAction",
        "OrbitDecomposition",
        "mobius_shift",
        "orbit_decompose",
        "orbit_poly",
        "twisted_shift",
        "word_rotate",
        "word_shift_two",
    ),
    "csp": (
        "CspReport",
        "FeasibilityReport",
        "HomomesyReport",
        "LyndonParameters",
        "LyndonReport",
        "TARGETS",
        "check_cdp_fixed_points",
        "csp_feasibility",
        "homomesy_check",
        "lyndon_check",
        "lyndon_construct",
        "lyndon_params",
        "verify_csp",
        "verify_subset_csp",
        "verify_target",
    ),
}

# Exported name -> the submodule that defines it.
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
