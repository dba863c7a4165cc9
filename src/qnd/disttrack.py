"""Exact tracking of waiting-time distributions and delivered state quality
for nested repeater protocols.

The engine propagates, level by level, the truncated probability mass
function of the delivery time together with the mean Werner parameter of the
state conditioned on each delivery time.  A protocol is a fixed sequence of
units; each unit prepares two independent copies of the current link and
merges them:

* ``swap``    merges the copies into a link spanning twice the distance,
              succeeding with the constant probability ``p_s``;
* ``distill`` converts the two copies into one higher-quality link on the
              same span, succeeding with a probability that depends on the
              two input states.

Waiting for the second copy stores the first in memory, multiplying its
Werner parameter by ``exp(-age / t_coh)``.  An optional cut-off discards a
stored link whose age would exceed ``tau``: the combine round fails, the
elapsed ``min(T, T') + tau`` steps are wasted, and both sides restart from
scratch.  A failed swap or distillation likewise restarts both sides.  These
restart rounds are independent and identically distributed, so each unit is
the geometric-sum of convolutions of its failure rounds with one success
round; the sums are evaluated in Fourier space on zero-padded arrays.

Werner-parameter algebra: storage decay multiplies ``w`` (the deviation from
the maximally mixed state decays exponentially), swapping multiplies the two
input parameters, and distillation follows the two-pair recurrence on Werner
states with the output twirled back to Werner form.  Because every update is
bilinear in the input parameters and the copies are independent, propagating
conditional means is exact: the tracked ``mean_w`` equals the true expected
Werner parameter of the delivered state at each delivery time.

Delivery times start at 1 (one attempt minimum); index 0 of every array is
an unused zero slot.  Mass beyond the truncation horizon is dropped, never
renormalized; the captured mass is reported and enforced against a floor.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

__all__ = [
    "TruncatedDistribution",
    "WernerParam",
    "ChainProtocol",
    "HorizonError",
    "geometric_pmf",
    "max_combine",
    "compound_geometric",
    "swap_quality",
    "distill_step",
    "distill_success_prob",
    "distill_output_w",
    "chain_distribution",
    "werner_to_fidelity",
    "fidelity_to_werner",
    "distribution_csv",
    "distribution_summary",
]

#: Default lower limit on the probability mass a chain computation must
#: capture within its truncation horizon.
DEFAULT_MASS_FLOOR = 1.0 - 1e-6

#: Default horizon, as a multiple of the estimated mean delivery time.
HORIZON_FACTOR = 40


class HorizonError(RuntimeError):
    """The truncation horizon captured too little probability mass."""


def werner_to_fidelity(w):
    """Fidelity (1 + 3w) / 4 of a Werner state with parameter w."""
    return (1.0 + 3.0 * np.asarray(w)) / 4.0


def fidelity_to_werner(fidelity):
    """Werner parameter (4F - 1) / 3 of a Werner state with fidelity F."""
    return (4.0 * np.asarray(fidelity) - 1.0) / 3.0


@dataclass(frozen=True)
class WernerParam:
    """State of a noisy Bell pair, ``w * target + (1 - w) * I/4``."""

    w: float

    def __post_init__(self):
        if not (0.0 <= self.w <= 1.0):
            raise ValueError(f"Werner parameter out of [0, 1]: {self.w!r}")

    @property
    def fidelity(self):
        return float(werner_to_fidelity(self.w))


def swap_quality(w1, w2):
    """Werner parameter after an entanglement swap of two Werner pairs.

    The parameters multiply; a maximally mixed input absorbs everything.
    """
    w1 = w1.w if isinstance(w1, WernerParam) else w1
    w2 = w2.w if isinstance(w2, WernerParam) else w2
    return WernerParam(w1 * w2)


def distill_success_prob(w1, w2):
    """Success probability of two-pair distillation on Werner inputs.

    Expanding the recurrence on fidelities F = (1 + 3w) / 4,

        p = F1 F2 + F1 (1 - F2)/3 + F2 (1 - F1)/3 + 5 (1 - F1)(1 - F2)/9,

    collapses to ``(1 + w1 w2) / 2``; in particular at least one half.
    """
    return (1.0 + w1 * w2) / 2.0


def distill_output_w(w1, w2):
    """Werner parameter delivered by a successful distillation.

    The post-selected fidelity ``(F1 F2 + (1-F1)(1-F2)/9) / p`` expressed
    back as a Werner parameter:  (w1 + w2 + 4 w1 w2) / (3 (1 + w1 w2)).
    """
    return (w1 + w2 + 4.0 * w1 * w2) / (3.0 * (1.0 + w1 * w2))


def distill_step(w1, w2):
    """One distillation attempt on two Werner pairs.

    Returns ``(success_prob, WernerParam)`` where the state is the output
    on success, twirled back to Werner form.
    """
    w1 = w1.w if isinstance(w1, WernerParam) else w1
    w2 = w2.w if isinstance(w2, WernerParam) else w2
    if not (0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0):
        raise ValueError("Werner parameters must lie in [0, 1]")
    return (distill_success_prob(w1, w2),
            WernerParam(distill_output_w(w1, w2)))


@dataclass
class TruncatedDistribution:
    """Waiting-time PMF on t = 1..t_trunc with per-time mean quality.

    ``pmf[t]`` is the delivery probability at time t (``pmf[0]`` is an
    unused zero), ``mean_w[t]`` the mean Werner parameter of the state
    conditioned on delivery at t (zero where ``pmf`` is zero; None for
    engines that do not track state quality).  ``sum(pmf)`` is the captured
    mass; the remainder lies beyond the horizon.
    """

    pmf: np.ndarray
    mean_w: np.ndarray | None = None

    def __post_init__(self):
        self.pmf = np.asarray(self.pmf, dtype=float)
        if self.pmf.ndim != 1 or len(self.pmf) < 2:
            raise ValueError("pmf must be a 1-D array with t_trunc >= 1")
        if self.pmf[0] != 0.0:
            raise ValueError("delivery times start at 1; pmf[0] must be 0")
        if self.pmf.min() < -1e-12:
            raise ValueError("negative probability mass")
        if self.pmf.sum() > 1.0 + 1e-12:
            raise ValueError("captured mass exceeds 1")
        if self.mean_w is not None:
            self.mean_w = np.asarray(self.mean_w, dtype=float)
            if self.mean_w.shape != self.pmf.shape:
                raise ValueError("mean_w and pmf shapes differ")
            support = self.pmf > 0
            band = self.mean_w[support]
            if band.size and (band.min() < -1e-9 or band.max() > 1.0 + 1e-9):
                raise ValueError("mean_w outside [0, 1] on the support")

    @property
    def t_trunc(self):
        return len(self.pmf) - 1

    @property
    def captured_mass(self):
        return float(self.pmf.sum())

    def cdf(self):
        return np.cumsum(self.pmf)

    def mean(self):
        """Mean delivery time conditioned on delivery within the horizon."""
        times = np.arange(len(self.pmf))
        return float((times * self.pmf).sum() / self.pmf.sum())

    def stddev(self):
        times = np.arange(len(self.pmf))
        mass = self.pmf.sum()
        mu = (times * self.pmf).sum() / mass
        var = ((times - mu) ** 2 * self.pmf).sum() / mass
        return float(math.sqrt(max(var, 0.0)))

    def mean_werner(self):
        """Mean delivered Werner parameter, averaged over delivery times."""
        if self.mean_w is None:
            raise ValueError("this distribution does not track state quality")
        return float((self.pmf * self.mean_w).sum() / self.pmf.sum())

    def mean_fidelity(self):
        return float(werner_to_fidelity(self.mean_werner()))

    def extended(self, t_trunc):
        """Zero-padded copy with a larger horizon."""
        if t_trunc < self.t_trunc:
            raise ValueError("cannot shrink the horizon")
        n = t_trunc + 1
        mean_w = None if self.mean_w is None else _pad(self.mean_w, n)
        return TruncatedDistribution(pmf=_pad(self.pmf, n), mean_w=mean_w)


@dataclass(frozen=True)
class ChainProtocol:
    """A fixed sequence of combine units applied bottom-up.

    ``plan`` entries are ``"swap"`` or ``"distill"``; each unit merges two
    independent copies of the link produced so far.  ``w0`` is the Werner
    parameter of a fresh elementary link.  The number of swaps must equal
    the chain's nesting level.
    """

    plan: tuple
    w0: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "plan", tuple(self.plan))
        for op in self.plan:
            if op not in ("swap", "distill"):
                raise ValueError(f"unknown protocol unit {op!r}")
        if not (0.0 <= self.w0 <= 1.0):
            raise ValueError(f"w0 out of [0, 1]: {self.w0!r}")

    @property
    def n_swaps(self):
        return sum(1 for op in self.plan if op == "swap")

    @classmethod
    def for_chain(cls, params, protocol=None):
        """``protocol``, or the doubling protocol when it is None; its
        swap count must equal the chain's nesting level ``params.n``."""
        if protocol is None:
            protocol = cls.swap_only(params.n)
        if protocol.n_swaps != params.n:
            raise ValueError(f"protocol has {protocol.n_swaps} swaps but "
                             f"params.n = {params.n}")
        return protocol

    @classmethod
    def swap_only(cls, n, w0=1.0):
        """The plain doubling protocol with n nesting levels."""
        return cls(plan=("swap",) * n, w0=w0)

    @classmethod
    def with_distillation(cls, n, rounds, w0=1.0):
        """Doubling protocol with distillation rounds before each swap.

        ``rounds`` is either one integer applied at every level or a
        sequence giving, per level, how many distillation rounds purify
        the links entering that level's swap.
        """
        if isinstance(rounds, int):
            rounds = [rounds] * n
        rounds = list(rounds)
        if len(rounds) != n:
            raise ValueError(f"need {n} per-level round counts")
        plan = []
        for r in rounds:
            if r < 0:
                raise ValueError("distillation rounds must be >= 0")
            plan.extend(["distill"] * r)
            plan.append("swap")
        return cls(plan=tuple(plan), w0=w0)


def geometric_pmf(p, t_trunc, w0=1.0):
    """Waiting time of elementary link generation: geometric on t >= 1.

    ``pmf[t] = p (1 - p)**(t-1)``; the delivered state is the fresh-link
    Werner parameter ``w0`` regardless of the delivery time.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must be in (0, 1], got {p!r}")
    if t_trunc < 1:
        raise ValueError("t_trunc must be at least 1")
    t = np.arange(t_trunc + 1, dtype=float)
    pmf = np.zeros(t_trunc + 1)
    pmf[1:] = p * (1.0 - p) ** (t[1:] - 1.0)
    mean_w = np.full(t_trunc + 1, float(w0))
    mean_w[0] = 0.0
    mean_w[pmf == 0.0] = 0.0
    return TruncatedDistribution(pmf=pmf, mean_w=mean_w)


# --- internal array machinery ----------------------------------------------

def _pad(a, length):
    """``a`` extended with zeros to ``length`` entries."""
    return np.concatenate([a, np.zeros(length - len(a))])


def _fft_len(n):
    return 1 << int(math.ceil(math.log2(max(2 * n, 2))))


def _renewal_sum(kernel, firsts, round_prob=None):
    """Geometric sum of failure-round convolutions.

    Evaluates ``sum_k kernel^(*k) * first`` for each array in ``firsts``,
    truncated to the common horizon.  With ``round_prob`` = p the kernel is
    additionally weighted by (1 - p) per round and the result by p, i.e.
    the compound-geometric split ``sum_k p (1-p)^k kernel^(*k) * first``.
    The sums are evaluated in Fourier space on arrays zero-padded to twice
    the horizon; wrap-around mass is negligible whenever the horizon itself
    captures the distribution, which the caller's mass accounting checks.
    """
    n = len(kernel)
    size = _fft_len(n)
    khat = np.fft.rfft(kernel, size)
    if round_prob is not None:
        denom = 1.0 - (1.0 - round_prob) * khat
        scale = round_prob
    else:
        denom = 1.0 - khat
        scale = 1.0
    if abs(denom[0]) < 1e-9:
        raise HorizonError(
            "failure rounds carry almost all probability mass; the unit "
            "cannot complete within any horizon")
    out = []
    for first in firsts:
        fhat = np.fft.rfft(first, size)
        res = np.fft.irfft(scale * fhat / denom, size)[:n]
        out.append(np.clip(res, 0.0, None))
    return out


def _decayed_window_sum(u, x, tau):
    """exp-weighted trailing window sums.

    Returns A with ``A[t] = sum_{t1 = max(1, t - tau)}^{t - 1}
    u[t1] * x**(t - t1)``; ``tau`` None means an unbounded window.
    """
    n = len(u)
    v = np.zeros(n)
    v[1:] = x * u[:-1]
    full = lfilter([1.0], [1.0, -x], v)
    if tau is None:
        return full
    a = full.copy()
    shift = tau + 1
    if shift < n:
        correction = x ** shift * (full[:-shift] + u[:-shift])
        a[shift:] -= correction
    return np.clip(a, 0.0, None)


def _window_sum(p, tau):
    """Plain trailing window sums of ``p`` over the same window."""
    c = np.cumsum(p)
    w = np.zeros(len(p))
    w[1:] = c[:-1]
    if tau is not None:
        shift = tau + 1
        if shift < len(p):
            w[shift:] -= c[:-shift]
    return np.clip(w, 0.0, None)


def _join(p1, u1, p2, u2, x, tau):
    """Merge two independent links: both must exist before the unit fires.

    ``p_i`` are delivery PMFs, ``u_i = pmf * mean_w`` the unnormalized
    quality masses, ``x`` the per-step storage decay.  Returns
    ``(ready, m_prod, m_sum, fail)``:

    ready[t]   probability both links coexist at t with storage age <= tau,
    m_prod[t]  E[w' * w'' ; ready at t]  (earlier link decayed by its age),
    m_sum[t]   E[w' + w'' ; ready at t],
    fail[t]    probability the first link arrived at t and the partner
               stayed absent past t + tau (None when tau is None).
    """
    w1 = _window_sum(p1, tau)
    w2 = _window_sum(p2, tau)
    a1 = _decayed_window_sum(u1, x, tau)
    a2 = _decayed_window_sum(u2, x, tau)

    ready = p2 * w1 + p1 * w2 + p1 * p2
    m_prod = u2 * a1 + u1 * a2 + u1 * u2
    m_sum = (p2 * a1 + u2 * w1) + (p1 * a2 + u1 * w2) + (u1 * p2 + p1 * u2)

    fail = None
    if tau is not None:
        n = len(p1)
        c1 = np.cumsum(p1)
        c2 = np.cumsum(p2)
        # Survival of the partner beyond t + tau; indices past the horizon
        # keep the full uncaptured tail.
        idx = np.minimum(np.arange(n) + tau, n - 1)
        fail = p1 * (1.0 - c2[idx]) + p2 * (1.0 - c1[idx])
    return ready, m_prod, m_sum, fail


def _resolve_cutoff(ready, m_prod, m_sum, fail, tau):
    """Fold cut-off failure rounds into the ready-time distribution.

    A failed round wastes the earlier arrival plus ``tau`` steps and both
    sides restart, so the rounds are independent; the resolved arrays are
    the geometric sum over failure rounds convolved with one success.
    """
    if fail is None:
        return ready, m_prod, m_sum
    n = len(ready)
    kernel = np.zeros(n)
    if tau < n:
        kernel[tau:] = fail[:n - tau]
    return tuple(_renewal_sum(kernel, [ready, m_prod, m_sum]))


def _combine(p1, u1, p2, u2, x, tau):
    """``_join`` of two links with the cut-off rounds folded in; returns
    (ready, m_prod, m_sum)."""
    ready, m_prod, m_sum, fail = _join(p1, u1, p2, u2, x, tau)
    return _resolve_cutoff(ready, m_prod, m_sum, fail, tau)


def _swap_unit(ready, m_prod, p_s):
    """Compound-geometric over swap rounds: each round prepares the pair
    and swaps with probability p_s; failure restarts everything."""
    return _renewal_sum(ready, [ready, m_prod], round_prob=p_s)


def _distill_unit(ready, m_prod, m_sum):
    """Distillation rounds with state-dependent success.

    Per prepared pair the success probability is (1 + w'w'')/2, so the
    per-round success and failure masses are bilinear in the tracked
    quality masses; the delivered quality mass follows from
    ``w_out * p_success = (w' + w'' + 4 w'w'') / 6``.
    """
    success = 0.5 * (ready + m_prod)
    failure = 0.5 * (ready - m_prod)
    w_out_mass = (m_sum + 4.0 * m_prod) / 6.0
    return _renewal_sum(failure, [success, w_out_mass])


def _as_masses(dist):
    pmf = dist.pmf
    if dist.mean_w is None:
        raise ValueError("input distribution must track state quality")
    return pmf, pmf * dist.mean_w


def _finish(pmf, wmass):
    pmf = np.clip(pmf, 0.0, None)
    pmf[0] = 0.0  # delivery starts at 1; slot 0 only ever holds FFT noise
    total = pmf.sum()
    if total > 1.0:
        # Clipping negatives adds mass at the e-13 level; scale the float
        # noise back out (tail mass is still dropped, never redistributed).
        pmf = pmf / total
        wmass = wmass / total
    mean_w = np.zeros_like(pmf)
    support = pmf > 0
    mean_w[support] = np.clip(wmass[support] / pmf[support], 0.0, 1.0)
    return TruncatedDistribution(pmf=pmf, mean_w=mean_w)


def max_combine(d1, d2, t_coh=math.inf, tau=None):
    """Distribution of the time until two independent links coexist.

    Without a cut-off this is the maximum of the two delivery times, with
    the earlier link's Werner parameter decayed by ``exp(-age / t_coh)``
    for the age it spent in memory; ``mean_w`` is the expected product of
    the two input parameters at that moment (the pre-swap pair quality).
    With ``tau`` set, rounds whose age would exceed the cut-off restart
    both sides after wasting ``min + tau`` steps.
    """
    if d1.t_trunc != d2.t_trunc:
        raise ValueError("input horizons differ")
    if tau is not None and tau < 1:
        raise ValueError("tau must be a positive integer")
    x = 1.0 if math.isinf(t_coh) else math.exp(-1.0 / t_coh)
    p1, u1 = _as_masses(d1)
    p2, u2 = _as_masses(d2)
    ready, m_prod, _ = _combine(p1, u1, p2, u2, x, tau)
    return _finish(ready, m_prod)


def compound_geometric(d, p_s):
    """Total time over geometrically many independent draws of ``d``.

    The number of draws is the number of swap attempts until the first
    success (probability ``p_s`` each); every failed attempt consumes one
    full draw of ``d`` and restarts.  The delivered quality is that of the
    final, successful draw.
    """
    if not (0.0 < p_s <= 1.0):
        raise ValueError(f"p_s must be in (0, 1], got {p_s!r}")
    pmf, wmass = _as_masses(d)
    out_pmf, out_w = _swap_unit(pmf, wmass, p_s)
    return _finish(out_pmf, out_w)


def _estimate_unit_means(params, protocol):
    """Crude per-unit mean estimates used to size truncation horizons."""
    means = []
    mean = 1.0 / params.p_g
    for op in protocol.plan:
        p = min(1.0, 1.0 / mean)
        pair = (3.0 - 2.0 * p) / ((2.0 - p) * p)
        success = params.p_s if op == "swap" else 0.5
        mean = pair / success
        if params.tau is not None:
            mean *= 2.0  # restart slack; the mass floor audits the result
        means.append(mean)
    return means


def default_horizon(params, protocol=None):
    """Default truncation horizon: HORIZON_FACTOR times the estimated mean."""
    protocol = ChainProtocol.for_chain(params, protocol)
    means = _estimate_unit_means(params, protocol)
    target = means[-1] if means else 1.0 / params.p_g
    return max(8, int(math.ceil(HORIZON_FACTOR * target)))


def chain_distribution(params, protocol=None, t_trunc=None,
                       mass_floor=DEFAULT_MASS_FLOOR):
    """Exact waiting-time PMF and per-time mean Werner parameter of a
    nested repeater chain.

    Parameters
    ----------
    params : ChainParams
    protocol : ChainProtocol, optional
        Defaults to the plain doubling protocol with ``params.n`` swaps.
        The plan's swap count must equal ``params.n``.
    t_trunc : int, optional
        Truncation horizon; defaults to ``HORIZON_FACTOR`` times the
        estimated mean delivery time.
    mass_floor : float or None
        Minimum captured probability mass; a shortfall raises
        :class:`HorizonError` rather than silently biasing results.

    Intermediate levels run on horizons matched to their own time scale
    and are zero-extended upward, which keeps the cost polynomial in the
    horizon and the nesting level.
    """
    protocol = ChainProtocol.for_chain(params, protocol)
    if t_trunc is None:
        t_trunc = default_horizon(params, protocol)
    if t_trunc < 1:
        raise ValueError("t_trunc must be at least 1")

    unit_means = _estimate_unit_means(params, protocol)
    x = params.decay_per_step
    horizon = min(t_trunc, max(8, int(math.ceil(
        HORIZON_FACTOR / params.p_g))))
    dist = geometric_pmf(params.p_g, horizon, w0=protocol.w0)
    pmf, wmass = _as_masses(dist)

    for op, unit_mean in zip(protocol.plan, unit_means):
        goal = max(8, int(math.ceil(HORIZON_FACTOR * unit_mean)))
        horizon = min(t_trunc, max(horizon, goal))
        if horizon + 1 > len(pmf):
            pmf, wmass = _pad(pmf, horizon + 1), _pad(wmass, horizon + 1)
        ready, m_prod, m_sum = _combine(pmf, wmass, pmf, wmass, x,
                                        params.tau)
        if op == "swap":
            pmf, wmass = _swap_unit(ready, m_prod, params.p_s)
        else:
            pmf, wmass = _distill_unit(ready, m_prod, m_sum)

    if horizon < t_trunc:
        pmf, wmass = _pad(pmf, t_trunc + 1), _pad(wmass, t_trunc + 1)
    result = _finish(pmf, wmass)
    if mass_floor is not None and result.captured_mass < mass_floor:
        raise HorizonError(
            f"captured mass {result.captured_mass:.9f} is below the floor "
            f"{mass_floor}; increase t_trunc (current {t_trunc})")
    return result


# --- exports ----------------------------------------------------------------

def distribution_csv(dist):
    """CSV rendering: columns t, pmf, cdf, mean_w, mean_F."""
    lines = ["t,pmf,cdf,mean_w,mean_F"]
    cdf = dist.cdf()
    for t in range(1, dist.t_trunc + 1):
        if dist.mean_w is None:
            w_txt, f_txt = "", ""
        else:
            w = float(dist.mean_w[t])
            w_txt = repr(w)
            f_txt = repr(float(werner_to_fidelity(w)))
        lines.append(
            f"{t},{float(dist.pmf[t])!r},{float(cdf[t])!r},{w_txt},{f_txt}")
    return "\n".join(lines) + "\n"


def distribution_summary(dist):
    """Summary dict: mean, stddev, captured_mass (JSON-ready)."""
    return {
        "mean": dist.mean(),
        "stddev": dist.stddev(),
        "captured_mass": dist.captured_mass,
    }
