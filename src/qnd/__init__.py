"""Capacity bounds and waiting-time statistics for quantum repeater networks.

Two tool families share one package:

* linear-programming bounds on how much entanglement or key a network of
  noisy channels can distribute (:mod:`qnd.netmodel`, :mod:`qnd.lpcore`,
  :mod:`qnd.flows`, :mod:`qnd.capbounds`);
* waiting-time and fidelity statistics of repeater chains, computed five
  mutually cross-validating ways: closed forms
  (:mod:`qnd.chainformulas`), exact distribution tracking
  (:mod:`qnd.disttrack`), absorbing Markov chains
  (:mod:`qnd.markovchain`), Monte Carlo sampling (:mod:`qnd.montecarlo`),
  and a discrete-event simulator (:mod:`qnd.deskernel`).

The ``qnd`` command line exposes the bound computations, the chain engines,
and cross-engine comparison tables.
"""

from .chainformulas import ChainParams
from .disttrack import ChainProtocol, TruncatedDistribution
from .netmodel import (Edge, Explicit, Lossy, Measure, NetworkSpec,
                       WeightedUGraph, parse_network, serialize_network)

__version__ = "0.1.0"

__all__ = [
    "ChainParams",
    "ChainProtocol",
    "TruncatedDistribution",
    "Edge",
    "Explicit",
    "Lossy",
    "Measure",
    "NetworkSpec",
    "WeightedUGraph",
    "parse_network",
    "serialize_network",
    "__version__",
]
