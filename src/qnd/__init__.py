"""Capacity bounds and waiting-time statistics for quantum repeater networks.

Two tool families share one package:

* flow bounds (max-flows, shortest paths and linear programs) on how much
  entanglement or key a network of noisy channels can distribute
  (:mod:`qnd.netmodel`, :mod:`qnd.lpcore`, :mod:`qnd.flows`,
  :mod:`qnd.capbounds`);
* waiting-time and fidelity statistics of repeater chains, computed five
  mutually cross-validating ways: closed forms
  (:mod:`qnd.chainformulas`), exact distribution tracking
  (:mod:`qnd.disttrack`), absorbing Markov chains
  (:mod:`qnd.markovchain`), Monte Carlo sampling (:mod:`qnd.montecarlo`),
  and a discrete-event simulator (:mod:`qnd.deskernel`).

The ``qnd`` command line exposes the bound computations, the chain engines,
and cross-engine comparison tables.

Importing ``qnd`` sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is already
set.  It must come before numpy's first import to take effect.  The dense
solves here are small: one BLAS thread makes their results the same bytes
on every host and the import faster.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
