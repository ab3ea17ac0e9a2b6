"""Construction, simulation, and verification of quantum circuits that
prepare valence-bond-solid states, with resource accounting."""

from .lattice import (
    Lattice,
    SiteEncoding,
    assign_qubits,
    build_chain,
    build_honeycomb_patch,
    build_three_link_pair,
)
from .spinops import symmetrizer
from .statesim import Statevector

__version__ = "0.1.0"

__all__ = [
    "Lattice",
    "SiteEncoding",
    "Statevector",
    "assign_qubits",
    "build_chain",
    "build_honeycomb_patch",
    "build_three_link_pair",
    "symmetrizer",
    "__version__",
]
