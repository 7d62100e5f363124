"""Simulator for differentially private federated learning over a multi-cell
wireless uplink with inter-cell interference."""

from .config import load_config
from .dp import leakage_report
from .harness import ALGORITHMS, allocate
from .topology import generate_topology

__version__ = "0.1.0"
