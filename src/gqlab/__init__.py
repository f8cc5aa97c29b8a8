"""gqlab: the generalized quadrangle GQ(2,4) built from the 27 invertible
non-identity symmetric 3x3 matrices over GF(2), with every structural claim
verified by exhaustive computation.

The public names are resolved on first access (PEP 562), so ``import gqlab``
loads no submodule and each command pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_LAZY = {
    "run_suite": "gqlab.checks",
    "build_double_six_model": "gqlab.quadrangle",
    "build_matrix_quadrangle": "gqlab.quadrangle",
    "build_quadric_quadrangle": "gqlab.quadrangle",
    "find_isomorphism": "gqlab.quadrangle",
    "verify_gq_axioms": "gqlab.quadrangle",
}

__all__ = ["__version__", *_LAZY]


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(module), name)
