"""Cyclic codes generated by cyclotomic polynomials, with machine checks
of their parameters (distances lpf(n), 2*lpf(n), 2^omega(n)) and of the
CRT/tensor permutation equivalence of their duals."""

from . import codes, cyclotomic, field, poly, tensor, verify  # noqa: F401
from .codes import (  # noqa: F401
    CyclicCode,
    DistanceReport,
    GenMatrix,
    build_Cn,
    build_Cn1,
    build_repetition,
    dual,
    from_generator,
    min_distance,
    same_code,
    sum_codes,
    weight_distribution,
    zeros_and_nonzeros,
)
from .cyclotomic import (  # noqa: F401
    cosets,
    cyclotomic_poly,
    minimal_poly,
    profile,
    verify_factorization,
)
from .field import (  # noqa: F401
    FieldCtx,
    make_extension,
    make_prime_field,
    nth_root_of_unity,
    parse_field,
)
from .poly import Poly, is_irreducible, reciprocal  # noqa: F401
from .tensor import apply_psi, crt_map, kronecker  # noqa: F401
from .verify import SweepConfig, sweep  # noqa: F401

__version__ = "0.1.0"
