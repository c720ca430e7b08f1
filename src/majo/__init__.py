"""Exact majorization on step functions and the stochastic operator hierarchy.

Decide and certify f majorized-by g on finite or sigma-finite measure
spaces, in exact rational arithmetic; classify and construct Markov,
semi-doubly stochastic and doubly stochastic operators and kernels; produce
doubly stochastic T-transform witnesses; and quantify equi-integrability.
"""

from .diagnostics import (
    EquiIntegrabilityReport,
    equi_modulus,
    l1_distance,
    small_set_modulus,
)
from .errors import MajoError, ParseError
from .extended import INF, ExtendedRational, Infinity, as_fraction, fraction_gcd
from .kernels import StepKernel, kernel_apply, kernel_classify, matrix_to_kernel
from .majorize import (
    CheckPoint,
    Criterion,
    CrossCheckReport,
    MajorizationVerdict,
    Relation,
    cross_check,
    hinge_criterion,
    majorize,
    tail_distribution_criterion,
    weak_majorize,
)
from .operators import (
    AlignedStep,
    OperatorClass,
    OperatorMatrix,
    Partition,
    Tail,
    TTransform,
    WitnessChain,
    align,
    apply_matrix,
    classify_matrix,
    ds_witness,
    lift,
    lift_apply,
    partition_average,
    partition_average_matrix,
    phi,
    psi,
    sequence_apply,
)
from .stepfn import Piece, StepFunction, canonicalize, indicator

__version__ = "0.1.0"

__all__ = [
    "AlignedStep",
    "CheckPoint",
    "Criterion",
    "CrossCheckReport",
    "EquiIntegrabilityReport",
    "ExtendedRational",
    "INF",
    "Infinity",
    "MajoError",
    "MajorizationVerdict",
    "OperatorClass",
    "OperatorMatrix",
    "ParseError",
    "Partition",
    "Piece",
    "Relation",
    "StepFunction",
    "StepKernel",
    "Tail",
    "TTransform",
    "WitnessChain",
    "align",
    "apply_matrix",
    "as_fraction",
    "canonicalize",
    "classify_matrix",
    "cross_check",
    "ds_witness",
    "equi_modulus",
    "fraction_gcd",
    "hinge_criterion",
    "indicator",
    "kernel_apply",
    "kernel_classify",
    "l1_distance",
    "lift",
    "lift_apply",
    "majorize",
    "matrix_to_kernel",
    "partition_average",
    "partition_average_matrix",
    "phi",
    "psi",
    "sequence_apply",
    "small_set_modulus",
    "tail_distribution_criterion",
    "weak_majorize",
]
