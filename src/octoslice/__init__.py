"""Octonionic slice analysis at desk scale.

Slice functions on octonion domains, the slice Fueter operator and its
Bers-Vekua form, circular liftings of paths, coupled-circular-lifting
equivalence, and sampled quotient Riemann domains.
"""

from .algebra import (
    Octonion,
    OrthoPair,
    UnitImaginary,
    angle_between,
    basis_product,
    cd_split,
    mul,
    tau,
    unit_imaginary_of,
)

__all__ = [
    "Octonion",
    "OrthoPair",
    "UnitImaginary",
    "angle_between",
    "basis_product",
    "cd_split",
    "mul",
    "tau",
    "unit_imaginary_of",
]

__version__ = "0.1.0"
