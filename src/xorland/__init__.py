"""Random k-regular XORSAT instances and exact energy-landscape analytics."""

from .ensemble import estimate_simple_probability, sample_k_regular
from .gf2 import (
    BitMatrix,
    BitVector,
    State,
    enumerate_kernel,
    kernel_basis,
    mul_vec,
    rank,
    solve_standard_basis,
)
from .landscape import (
    BarrierResult,
    Instance,
    barriers_to_ground,
    bottleneck_height,
    energy,
    enumerate_local_minima,
    ground_states,
    is_local_minimum,
)
from .rng import RngSpec

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BitVector",
    "State",
    "Instance",
    "BarrierResult",
    "RngSpec",
    "mul_vec",
    "rank",
    "kernel_basis",
    "enumerate_kernel",
    "solve_standard_basis",
    "sample_k_regular",
    "estimate_simple_probability",
    "energy",
    "ground_states",
    "is_local_minimum",
    "enumerate_local_minima",
    "bottleneck_height",
    "barriers_to_ground",
    "__version__",
]
