"""Closed-form waiting-time and fidelity-decay expressions for repeater
chains.

A chain with ``n`` nesting levels spans ``2**n`` elementary segments; each
segment generates fresh entanglement in discrete attempts with success
probability ``p_g``, and each level merges two neighbouring links with an
entanglement swap succeeding with probability ``p_s``.  The attempt duration
is the time unit, and local operations take no time.

Exact results exist for a single repeater (n = 1) and for chains with
deterministic swapping (p_s = 1); higher levels are covered by a hierarchy of
approximations: the mean-only product, the 3-over-2 refinement, and the
level-by-level geometric approximation, which is exact at level 1 and feeds
each level's mean back in as an effective generation probability.  The
deterministic-swap mean is a lower bound on the exact mean for any p_s.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainParams",
    "SingleRepeaterStats",
    "mean_only",
    "three_over_two",
    "geometric_level_mean",
    "single_repeater",
    "det_swap_mean",
    "det_swap_mean_harmonic",
    "det_swap_mean_cutoff",
    "partial_links_mean",
    "decay_factor",
]

# det_swap_mean stops once N q**t drops below this: the dropped tail is at
# most N q**t / p_g and the mean at least 1 / p_g, so it bounds the relative
# truncation error.
_DET_SWAP_TOL = 1e-16
_DET_SWAP_BLOCK = 1 << 16
# partial_links_mean stops once the survival function drops below this.
_PARTIAL_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class ChainParams:
    """Protocol parameters of a nested repeater chain.

    Parameters
    ----------
    n : int
        Nesting levels; the chain has ``2**n`` segments.
    p_g : float
        Success probability of one elementary generation attempt, in (0, 1].
    p_s : float
        Success probability of an entanglement swap, in (0, 1].
    t_coh : float
        Memory coherence time in attempt units; ``math.inf`` disables
        storage decay.
    tau : int or None
        Cut-off threshold: a stored link older than ``tau`` attempts is
        discarded.  None disables cut-offs.
    """

    n: int
    p_g: float
    p_s: float = 1.0
    t_coh: float = math.inf
    tau: int | None = None

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise ValueError(f"n must be a nonnegative integer, got {self.n!r}")
        if not (0.0 < self.p_g <= 1.0):
            raise ValueError(f"p_g must be in (0, 1], got {self.p_g!r}")
        if not (0.0 < self.p_s <= 1.0):
            raise ValueError(f"p_s must be in (0, 1], got {self.p_s!r}")
        if not (self.t_coh > 0.0):
            raise ValueError(f"t_coh must be positive, got {self.t_coh!r}")
        if self.tau is not None and (self.tau < 1 or self.tau != int(self.tau)):
            raise ValueError(f"tau must be a positive integer, got {self.tau!r}")

    @property
    def segments(self):
        return 2 ** self.n

    @property
    def decay_per_step(self):
        """Werner-parameter decay of one stored attempt, exp(-1/t_coh)."""
        if math.isinf(self.t_coh):
            return 1.0
        return math.exp(-1.0 / self.t_coh)


def mean_only(params):
    """Mean-only estimate of the end-to-end waiting time.

    Treats every level as delivering after its mean duration, giving
    ``1 / (p_s**n * p_g)``.  A reasonable approximation only deep in the
    small-probability regime; always below the exact mean.
    """
    return 1.0 / (params.p_s ** params.n * params.p_g)


def three_over_two(params):
    """The 3-over-2 refinement of the mean-only estimate.

    Waiting for two links in parallel costs about 3/2 of one link when
    success probabilities are small, giving
    ``(3/2)**n / (p_s**n * p_g)``.
    """
    n = params.n
    return 3.0 ** n / (2.0 ** n * params.p_s ** n * params.p_g)


def geometric_level_mean(params):
    """Level-by-level geometric approximation of the mean waiting time.

    Each level's waiting time is approximated as geometric with the mean
    computed from the previous level:

        T_i = (3 - 2 p) / ((2 - p) p p_s),   p = 1 / T_{i-1},

    seeded with ``T_0 = 1 / p_g``.  Exact at one nesting level; the error
    grows with the level but vanishes as the success probabilities shrink.
    """
    mean = 1.0 / params.p_g
    for _ in range(params.n):
        p = 1.0 / mean
        mean = (3.0 - 2.0 * p) / ((2.0 - p) * p * params.p_s)
    return mean


def decay_factor(p_g, decay_per_step):
    """Mean storage decay of the earlier of two parallel geometric links.

    While the second link is still being generated the first sits in
    memory; its Werner parameter shrinks by ``decay_per_step`` each
    attempt of age.  Averaging over the age distribution gives

        p_g / (2 - p_g) * (2 / (1 - (1 - p_g) * decay_per_step) - 1).

    Equals 1 when generation is deterministic or the memory is perfect.
    """
    if not (0.0 < p_g <= 1.0):
        raise ValueError(f"p_g must be in (0, 1], got {p_g!r}")
    if not (0.0 <= decay_per_step <= 1.0):
        raise ValueError(
            f"decay_per_step must be in [0, 1], got {decay_per_step!r}")
    q = 1.0 - p_g
    return p_g / (2.0 - p_g) * (2.0 / (1.0 - q * decay_per_step) - 1.0)


@dataclass(frozen=True)
class SingleRepeaterStats:
    """Exact statistics of the single-repeater (n = 1) chain.

    ``mean_m0`` is the mean time until both elementary links exist,
    ``mean_t1`` the mean end-to-end time including swap retries, and
    ``gamma`` the mean decay factor of the earlier link's Werner parameter
    while it waits for the later one.
    """

    p_g: float
    mean_m0: float
    mean_t1: float
    gamma: float

    def storage_pmf(self, j):
        """One-sided distribution of the storage age |T - T'| at the swap.

        ``j = 0`` carries the both-finish-together mass
        ``p_g / (2 - p_g)``; each ``j >= 1`` carries
        ``p_g * (1 - p_g)**j / (2 - p_g)`` for one of the two symmetric
        orderings, so the total over all signed ages is
        ``pmf(0) + 2 * sum_{j>=1} pmf(j) = 1``.
        """
        if j < 0 or j != int(j):
            raise ValueError(f"age must be a nonnegative integer, got {j!r}")
        q = 1.0 - self.p_g
        return self.p_g * q ** j / (2.0 - self.p_g)


def single_repeater(params):
    """Exact single-repeater record: means, storage-age law, decay factor.

    Requires ``params.n == 1``.
    """
    if params.n != 1:
        raise ValueError("single_repeater requires exactly one nesting level")
    p = params.p_g
    mean_m0 = (3.0 - 2.0 * p) / ((2.0 - p) * p)
    mean_t1 = mean_m0 / params.p_s
    gamma = decay_factor(p, params.decay_per_step)
    return SingleRepeaterStats(p_g=p, mean_m0=mean_m0, mean_t1=mean_t1,
                               gamma=gamma)


def det_swap_mean(n_segments, p_g):
    """Exact mean time until all segments hold a link (deterministic swaps).

    With p_s = 1 the chain completes as soon as the slowest of the
    ``n_segments`` independent geometric generations finishes, whose mean
    is the survival sum, with q = 1 - p_g:

        sum_{t>=0} 1 - (1 - q**t)**N.

    Every term is positive, so the sum is stable in double precision for
    any N; each term is evaluated as ``-expm1(N * log1p(-q**t))`` in numpy
    blocks over t, about ``ln(N / 1e-16) / p_g`` terms in all.  Also a
    lower bound on the exact mean of a chain with probabilistic swapping.
    """
    n_segments = int(n_segments)
    if n_segments < 1:
        raise ValueError("need at least one segment")
    if not (0.0 < p_g <= 1.0):
        raise ValueError(f"p_g must be in (0, 1], got {p_g!r}")
    if p_g == 1.0:
        return 1.0
    log_q = math.log1p(-p_g)
    t_end = math.ceil(math.log(_DET_SWAP_TOL / n_segments) / log_q) + 1
    blocks = []
    for start in range(0, t_end, _DET_SWAP_BLOCK):
        t = np.arange(start, min(start + _DET_SWAP_BLOCK, t_end))
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf at t = 0
            terms = -np.expm1(n_segments * np.log1p(-np.exp(t * log_q)))
        blocks.append(float(terms.sum()))
    return math.fsum(blocks)


def det_swap_mean_harmonic(n_segments, p_g):
    """Harmonic-number approximation ``H(N) / p_g`` of :func:`det_swap_mean`.

    Accurate for small generation probabilities.
    """
    n_segments = int(n_segments)
    if n_segments < 1:
        raise ValueError("need at least one segment")
    if not (0.0 < p_g <= 1.0):
        raise ValueError(f"p_g must be in (0, 1], got {p_g!r}")
    harmonic = math.fsum(1.0 / k for k in range(1, n_segments + 1))
    return harmonic / p_g


def det_swap_mean_cutoff(n_segments, p_g, tau):
    """Mean completion time of N parallel generations under a memory
    cut-off, for deterministic swapping.

    Closed form, with q = 1 - p_g:

        [ 1 - (1 - q**tau)**N
          + (1 - q**N) * (tau - sum_{j=1..tau-1} (1 - q**j)**N) ]
        / [ (1 - q**(tau+1))**N - q**N (1 - q**tau)**N ]

    Converges to :func:`det_swap_mean` as the cut-off grows, and equals 1
    exactly when generation is deterministic.
    """
    n_segments = int(n_segments)
    tau = int(tau)
    if n_segments < 1:
        raise ValueError("need at least one segment")
    if tau < 1:
        raise ValueError(f"tau must be a positive integer, got {tau!r}")
    if not (0.0 < p_g <= 1.0):
        raise ValueError(f"p_g must be in (0, 1], got {p_g!r}")
    q = 1.0 - p_g
    n = n_segments
    partial = math.fsum((1.0 - q ** j) ** n for j in range(1, tau))
    numerator = (1.0 - (1.0 - q ** tau) ** n
                 + (1.0 - q ** n) * (tau - partial))
    denominator = (1.0 - q ** (tau + 1)) ** n - q ** n * (1.0 - q ** tau) ** n
    return numerator / denominator


def partial_links_mean(n_segments, k, p_g):
    """Mean time until the first ``k`` of ``n_segments`` parallel
    generations have succeeded.

    Summed from the survival function, truncating once the residual tail
    drops below 1e-12.  ``k = n_segments`` coincides with
    :func:`det_swap_mean`; ``k = 1`` is the minimum of the generations,
    itself geometric.
    """
    n_segments = int(n_segments)
    k = int(k)
    if not (1 <= k <= n_segments):
        raise ValueError(
            f"k must be between 1 and {n_segments}, got {k!r}")
    if not (0.0 < p_g <= 1.0):
        raise ValueError(f"p_g must be in (0, 1], got {p_g!r}")
    if p_g == 1.0:
        return 1.0
    q = 1.0 - p_g
    n = n_segments

    def cdf(t):
        # At least k generations done by t: at most n - k still missing.
        c = 1.0 - q ** t
        miss = 1.0 - c
        return math.fsum(math.comb(n, j) * miss ** j * c ** (n - j)
                         for j in range(0, n - k + 1))

    mean = 0.0
    t = 0
    while True:
        survival = 1.0 - cdf(t)
        mean += survival
        t += 1
        if survival < _PARTIAL_TAIL_TOL:
            return mean
