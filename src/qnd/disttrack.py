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
one geometric sum of convolutions of its failure rounds with one success
round; the sums are evaluated in Fourier space on arrays zero-padded to a
5-smooth length.  The two copies of a level share their window sums, and
without decay a quality mass equal to its pmf (w = 1) shares its transform.

Werner-parameter algebra: storage decay multiplies ``w`` (the deviation from
the maximally mixed state decays exponentially), swapping multiplies the two
input parameters, and distillation follows the two-pair recurrence on Werner
states with the output twirled back to Werner form.  Because every update is
bilinear in the input parameters and the copies are independent, propagating
conditional means is exact: the tracked ``mean_w`` equals the true expected
Werner parameter of the delivered state at each delivery time.

Delivery times start at 1 (one attempt minimum); index 0 of every array is
an unused zero slot.  Each level is certified on its own: the elementary
horizon by its closed-form geometric tail, every unit level's horizon from
the exact mean of its output (mass and first moment of the round arrays),
with the level redone on a doubled horizon until it captures, up to float
rounding, the mass its inputs imply.  A given ``t_trunc`` only cuts or
zero-pads the certified output, so a cut head is exactly the head of the
full run.  Mass beyond the output is dropped, never renormalized; the
captured mass is reported and enforced against a floor.

A chain's summary statistics need no last level: :func:`chain_statistics`
tracks the protocol minus its last unit and takes mean, variance, mean
Werner parameter and mass from that unit's renewal law, whose moments
follow exactly from the rounds of one join of the level below.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "TruncatedDistribution",
    "ChainProtocol",
    "HorizonError",
    "geometric_pmf",
    "max_combine",
    "compound_geometric",
    "distill_success_prob",
    "distill_output_w",
    "default_horizon",
    "chain_distribution",
    "chain_statistics",
    "werner_to_fidelity",
    "distribution_csv",
    "distribution_summary",
]

#: Default lower limit on the probability mass a chain computation must
#: capture within its truncation horizon.
DEFAULT_MASS_FLOOR = 1.0 - 1e-6

class HorizonError(RuntimeError):
    """A level's horizon exceeds the limit, or the output captured too
    little probability mass."""


def werner_to_fidelity(w):
    """Fidelity (1 + 3w) / 4 of a Werner state with parameter w."""
    return (1.0 + 3.0 * np.asarray(w)) / 4.0


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
        """Doubling protocol with ``rounds`` distillation rounds purifying
        the links before every swap; a per-level schedule is a ``plan``."""
        if rounds < 0:
            raise ValueError("distillation rounds must be >= 0")
        return cls(plan=(("distill",) * rounds + ("swap",)) * n, w0=w0)


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
    """Least 5-smooth length (2^i 3^j 5^k) of at least 2n.

    pocketfft transforms such lengths about as fast as powers of two; the
    least of them lies a few percent above 2n, the next power of two up to
    twice as far.
    """
    target = max(2 * n, 2)
    best = 1 << (target - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            best = min(best, odd << (-(-target // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _check_rounds(denominator):
    """Raise when the renewal denominator ``1 - (failure-round mass)``
    leaves a unit no realistic chance to complete."""
    if abs(denominator) < 1e-9:
        raise HorizonError(
            "failure rounds carry almost all probability mass; the unit "
            "cannot complete within any horizon")


def _renewal_sum(kernel, firsts, n, round_prob=None, restarts=None):
    """Geometric sum of failure-round convolutions on ``n`` entries.

    Evaluates ``sum_k kernel^(*k) * first`` for each array in ``firsts``,
    truncated to t = 0..n-1; shorter inputs are zero-extended.  With
    ``round_prob`` = p the kernel is additionally weighted by (1 - p) per
    round and the result by p, i.e. the compound-geometric split
    ``sum_k p (1-p)^k kernel^(*k) * first``.  ``restarts`` holds further
    failure rounds, unweighted: cut-off discards, which restart a unit
    before it is attempted.

    The sums are evaluated in Fourier space on arrays zero-padded to at
    least twice the horizon; wrap-around mass is negligible whenever the
    horizon itself captures the distribution, which the caller's mass
    accounting checks.  Each distinct first is transformed once: the
    kernel itself, as in every swap unit, reuses its transform, and a
    repeated first (a quality mass that is the pmf) the earlier output.
    Transforms are released as soon as they are used, which bounds the
    memory of long horizons.  A unit with no failure rounds (``round_prob``
    1 and no restarts) returns its firsts as they are, zero-extended: the
    transforms would only add rounding noise, which the clip to
    nonnegative values turns into spurious tail mass.
    """
    if round_prob == 1.0 and restarts is None:
        return [_pad(first[:n], n) for first in firsts]
    size = _fft_len(n)
    khat = np.fft.rfft(kernel[:n], size)
    # gain = scale / (1 - weighted kernel - restarts), built in place.
    gain = khat * (-1.0 if round_prob is None else round_prob - 1.0)
    if restarts is not None:
        gain -= np.fft.rfft(restarts[:n], size)
    gain += 1.0
    _check_rounds(gain[0].real)
    np.divide(1.0 if round_prob is None else round_prob, gain, out=gain)
    if not any(first is kernel for first in firsts):
        khat = None
    out = {}
    for first in firsts:
        if id(first) in out:
            continue
        if first is kernel:
            fhat, khat = khat, None
        else:
            fhat = np.fft.rfft(first[:n], size)
        fhat *= gain
        out[id(first)] = np.clip(np.fft.irfft(fhat, size)[:n], 0.0, None)
        fhat = None
    return [out[id(first)] for first in firsts]


def _renewal_law(kernel, first, round_prob=None, restarts=None):
    """Law of the first array's renewal sum in ``_renewal_sum`` on an
    unbounded horizon, G(z) = s F(z) / (1 - K(z)): s is ``round_prob`` (1
    when None), F the first and K the failure rounds, the kernel weighted
    by 1 - s plus the restarts.  Returns its mass s F_0 / d, mean and
    variance, from the moments of the inputs, and d = 1 - K_0, the share
    of rounds that end the unit, which scales the float rounding of the
    mass.  The mean is that of one success plus the expected time lost to
    failure rounds, m_F + K_1 / d; the variance Var_F + K_2 / d + (K_1 /
    d)^2 adds positive terms only (K_j = sum t^j k_t)."""
    k_mass, k_moment, k_square = _moments(kernel)
    scale = 1.0
    if round_prob is not None:
        k_mass, k_moment, k_square = ((1.0 - round_prob) * m
                                      for m in (k_mass, k_moment, k_square))
        scale = round_prob
    if restarts is not None:
        r_mass, r_moment, r_square = _moments(restarts)
        k_mass += r_mass
        k_moment += r_moment
        k_square += r_square
    f_mass, f_moment, _ = _moments(first)
    f_mean = f_moment / f_mass
    f_spread = _moments(first, f_mean)[2]
    d = 1.0 - k_mass
    _check_rounds(d)
    lost = k_moment / d
    return (scale * f_mass / d, f_mean + lost,
            f_spread / f_mass + k_square / d + lost * lost, d)


def _moments(a, center=0.0):
    """(mass, first moment, second moment about ``center``) of an array
    indexed by delivery time."""
    # einsum, not a BLAS dot: threaded BLAS start-up costs more than the
    # whole sum at these lengths.
    t = np.arange(len(a), dtype=float)
    first = float(np.einsum("i,i", t, a))
    t -= center
    return float(a.sum()), first, float(np.einsum("i,i,i", t, t, a))


def _decayed_window_sum(u, x, tau):
    """exp-weighted trailing window sums.

    Returns A with ``A[t] = sum_{t1 = max(1, t - tau)}^{t - 1}
    u[t1] * x**(t - t1)``; ``tau`` None means an unbounded window.
    """
    if x == 1.0:
        return _window_sum(u, tau)  # the same sums, as u[0] is always 0
    if x == 0.0:
        return np.zeros(len(u))  # the decay underflows within one step
    a = _decayed_scan(np.concatenate(([0.0], x * u[:-1])), x)
    if tau is None:
        return a
    shift = tau + 1
    if shift < len(u):
        a[shift:] -= x ** shift * (a[:-shift] + u[:-shift])
    return np.clip(a, 0.0, None)


def _decayed_scan(v, x):
    """``y[t] = x * y[t - 1] + v[t]`` for ``0 < x < 1``: within each block
    ``y[j] = x**j * cumsum(v * x**-j)[j]``, with blocks short enough that
    ``x**-j`` stays below e^345, plus the carry of the block before,
    decayed by ``x**(j + 1)``; only the loop over carries runs in Python.
    """
    n = len(v)
    rate = -math.log(x)
    block = max(1, min(n, int(345.0 / rate)))
    rows = -(-n // block)
    rise = np.exp(rate * np.arange(block))
    fall = 1.0 / rise
    y = np.zeros((rows, block))
    y.ravel()[:n] = v
    y *= rise
    np.cumsum(y, axis=1, out=y)
    y *= fall
    if rows > 1:
        step, carry, carries = x ** block, 0.0, [0.0]
        for end in y[:-1, -1].tolist():
            carry = end + carry * step
            carries.append(carry)
        y += np.array(carries)[:, None] * (x * fall)
    return y.ravel()[:n]


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


def _join(p1, u1, p2, u2, x, tau, with_sum=False):
    """Merge two independent links: both must exist before the unit fires.

    ``p_i`` are delivery PMFs, ``u_i = pmf * mean_w`` the unnormalized
    quality masses, ``x`` the per-step storage decay.  Returns
    ``(ready, m_prod, m_sum, fail)``:

    ready[t]   probability both links coexist at t with storage age <= tau,
    m_prod[t]  E[w' * w'' ; ready at t]  (earlier link decayed by its age),
    m_sum[t]   E[w' + w'' ; ready at t]; only distillation reads it, so it
               is None unless ``with_sum`` is set,
    fail[t]    probability the first link arrived at t and the partner
               stayed absent past t + tau (None when tau is None).

    Copies of one level (the same objects) share their window sums.  With
    no decay and quality masses equal to the pmfs, ``m_prod`` is ``ready``.
    """
    copies = p2 is p1 and u2 is u1
    w1 = _window_sum(p1, tau)
    w2 = w1 if copies else _window_sum(p2, tau)
    a1 = _decayed_window_sum(u1, x, tau)
    a2 = a1 if copies else _decayed_window_sum(u2, x, tau)

    ready = p2 * w1 + p1 * w2 + p1 * p2
    plain = x == 1.0 and all(u is p or np.array_equal(u, p)
                             for p, u in ((p1, u1), (p2, u2)))
    m_prod = ready if plain else u2 * a1 + u1 * a2 + u1 * u2
    m_sum = None
    if with_sum:
        m_sum = ((p2 * a1 + u2 * w1) + (p1 * a2 + u1 * w2)
                 + (u1 * p2 + p1 * u2))

    fail = None
    if tau is not None:
        n = len(p1)
        c1 = np.cumsum(p1)
        c2 = c1 if copies else np.cumsum(p2)
        # Survival of the partner beyond t + tau; indices past the horizon
        # keep the full uncaptured tail.
        idx = np.minimum(np.arange(n) + tau, n - 1)
        fail = p1 * (1.0 - c2[idx]) + p2 * (1.0 - c1[idx])
    return ready, m_prod, m_sum, fail


def _restarts(fail, tau):
    """Cut-off failure rounds: a round that discards the stored link ends
    ``tau`` steps after the earlier arrival (None without a cut-off)."""
    return None if fail is None else np.concatenate([np.zeros(tau), fail])


def _unit_rounds(op, p1, u1, p2, u2, x, tau, p_s=None):
    """One protocol unit as a single renewal sum over its rounds.

    A round joins the two links (``_join``) and either fails on the
    cut-off or attempts the unit, which succeeds or fails; every failure
    restarts both sides, so the rounds are independent.  Returns the
    ``_renewal_sum`` arguments ``(kernel, firsts, round_prob, restarts)``;
    the firsts are the delivered pmf and quality mass.

    A swap succeeds with the constant probability p_s.  Distillation
    succeeds with probability (1 + w'w'')/2 per prepared pair, so the
    per-round success and failure masses are bilinear in the tracked
    quality masses; the delivered quality mass follows from
    ``w_out * p_success = (w' + w'' + 4 w'w'') / 6``.
    """
    ready, m_prod, m_sum, fail = _join(p1, u1, p2, u2, x, tau,
                                       with_sum=op == "distill")
    restarts = _restarts(fail, tau)
    if op == "swap":
        return ready, [ready, m_prod], p_s, restarts
    success = 0.5 * (ready + m_prod)
    failure = 0.5 * (ready - m_prod)
    w_out_mass = (m_sum + 4.0 * m_prod) / 6.0
    return failure, [success, w_out_mass], None, restarts


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
    ready, m_prod, _, fail = _join(p1, u1, p2, u2, x, tau)
    if fail is None:
        return _finish(ready, m_prod)
    return _finish(*_renewal_sum(_restarts(fail, tau), [ready, m_prod],
                                 len(p1)))


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
    return _finish(*_renewal_sum(pmf, [pmf, wmass], len(pmf),
                                 round_prob=p_s))


# --- certified level horizons ----------------------------------------------

#: Tail mass a level may leave beyond its horizon: double-precision
#: resolution.  A level runs on ln(1 / TAIL_MASS) ~ 36.8 times its exact
#: mean delivery time.
TAIL_MASS = 1e-16

#: Shortfall of a level's captured mass against the mass its inputs imply
#: that counts as float rounding rather than truncation, before division
#: by the share of rounds that end the unit: the renewal denominator
#: amplifies the rounding of the failure-round mass.
ROUNDING_MASS = 16 * np.finfo(float).eps

#: Largest horizon any level may take.  A level peaks at about 90 bytes
#: per step (n=3, p_g=0.01, p_s=0.5, t_coh=100, tau=50: 1.76 GB on a last
#: level of 1.94e7 steps), so 2^25 steps need about 3 GB.  Swap-only
#: chains at p_g=0.1, p_s=0.5 stay below it up to n=10 (1.37e7 steps); a
#: small p_g, or a cut-off that makes restarts dominate, can push a chain
#: past it, which is then reported instead of attempted.  The limit binds
#: the tracked levels: :func:`chain_statistics` builds none beyond the
#: last but one, so it summarises chains one level deeper (n=11 there).
HORIZON_LIMIT = 1 << 25


def _level_horizon(span):
    """``span`` steps rounded up, refused beyond ``HORIZON_LIMIT``."""
    if not span <= HORIZON_LIMIT:
        raise HorizonError(
            f"a level needs a horizon of {span:.3g} steps, beyond the "
            f"default limit {HORIZON_LIMIT}")
    return math.ceil(span)


def _certify(level, horizon, mass, tolerance):
    """Run ``level(horizon)``, which returns (pmf, quality mass) on
    ``horizon + 1`` entries, doubling the horizon until the captured mass
    falls short of ``mass`` by at most ``tolerance``.  A horizon whose
    doubling captured at most ``tolerance`` more is accepted too: what is
    still missing then is rounding in ``mass``, which no horizon recovers.
    Returns (horizon, pmf, quality mass)."""
    captured = -math.inf
    while True:
        pmf, wmass = level(horizon)
        gained, captured = pmf.sum() - captured, pmf.sum()
        if mass - captured <= tolerance or gained <= tolerance:
            return horizon, pmf, wmass
        horizon = _level_horizon(2 * horizon)


def _track(params, protocol):
    """(pmf, quality mass) of the protocol's output on its last level's
    certified horizon.

    The elementary level runs on ``ln(1 / TAIL_MASS) / p_g`` steps, which
    leaves at most ``(1 - p_g)^h <= exp(-p_g h) = TAIL_MASS`` beyond it.
    Every unit level first runs on ``ln(1 / TAIL_MASS)`` times the exact
    mean of its own output, computed from its join arrays.  Its renewal
    sum is then audited: when the captured mass falls short of the mass
    its inputs imply by more than float rounding, the horizon doubles and
    the level is redone.  Every horizon is refused beyond
    ``HORIZON_LIMIT`` before its arrays exist.
    """
    span = math.log(1.0 / TAIL_MASS)
    horizon = _level_horizon(span / params.p_g)
    pmf, wmass = _as_masses(geometric_pmf(params.p_g, horizon,
                                          w0=protocol.w0))
    for op in protocol.plan:
        kernel, firsts, round_prob, restarts = _unit_rounds(
            op, pmf, wmass, pmf, wmass, params.decay_per_step, params.tau,
            params.p_s)
        mass, mean, _, ending = _renewal_law(kernel, firsts[0], round_prob,
                                             restarts)
        horizon, pmf, wmass = _certify(
            lambda h: _renewal_sum(kernel, firsts, h + 1, round_prob,
                                   restarts),
            max(horizon, _level_horizon(span * mean)), mass,
            ROUNDING_MASS / ending)
    return pmf, wmass


def default_horizon(params, protocol=None):
    """Default output length of :func:`chain_distribution`: the certified
    horizon of the protocol's last level.  Computing it runs the tracker.
    """
    protocol = ChainProtocol.for_chain(params, protocol)
    pmf, _ = _track(params, protocol)
    return len(pmf) - 1


def chain_distribution(params, protocol=None, t_trunc=None):
    """Exact waiting-time PMF and per-time mean Werner parameter of a
    nested repeater chain.

    Parameters
    ----------
    params : ChainParams
    protocol : ChainProtocol, optional
        Defaults to the plain doubling protocol with ``params.n`` swaps.
        The plan's swap count must equal ``params.n``.
    t_trunc : int, optional
        Output length; defaults to the last level's certified horizon
        (:func:`default_horizon`).  A shorter output is the head of the
        full one, bit for bit, and a longer one is zero-padded.

    Each level is certified on its own: it runs on a horizon sized from
    the exact mean of its output, and a unit level is redone on a doubled
    horizon until it captures the mass its inputs imply.  Levels are
    zero-extended upward, which keeps the cost polynomial in the horizon
    and the nesting level.  An output that captures less than
    ``DEFAULT_MASS_FLOOR`` raises :class:`HorizonError` rather than
    silently biasing results.
    """
    protocol = ChainProtocol.for_chain(params, protocol)
    if t_trunc is not None and t_trunc < 1:
        raise ValueError("t_trunc must be at least 1")
    result = _finish(*_track(params, protocol))
    if t_trunc is not None:
        if t_trunc < result.t_trunc:
            result = TruncatedDistribution(pmf=result.pmf[:t_trunc + 1],
                                           mean_w=result.mean_w[:t_trunc + 1])
        else:
            result = result.extended(t_trunc)
    if result.captured_mass < DEFAULT_MASS_FLOOR:
        raise HorizonError(
            f"captured mass {result.captured_mass:.9f} is below the floor "
            f"{DEFAULT_MASS_FLOOR}; increase t_trunc (current "
            f"{result.t_trunc})")
    return result


def chain_statistics(params, protocol=None):
    """Summary of :func:`chain_distribution`'s output without building its
    last level: a dict of ``mean``, ``stddev``, ``mean_w`` (the mean Werner
    parameter) and ``captured_mass``.

    The last unit's delivery time has the law G(z) = s F(z) / (1 - K(z))
    of its rounds (``_renewal_law``), whose moments follow exactly from
    the rounds of one join of the level below, which
    :func:`chain_distribution` tracks.  Its mass is the mass the unit
    implies: a float excess over 1 within the rounding of the round
    masses is capped at 1, and a larger one raises :class:`HorizonError`,
    as does a mass below ``DEFAULT_MASS_FLOOR``.
    ``mean_w`` is the delivered quality mass of one successful round over
    its probability.  An empty plan summarises the elementary level.
    """
    protocol = ChainProtocol.for_chain(params, protocol)
    if not protocol.plan:
        dist = chain_distribution(params, protocol)
        return {**distribution_summary(dist), "mean_w": dist.mean_werner()}
    *head, op = protocol.plan
    below = chain_distribution(
        replace(params, n=params.n - (op == "swap")),
        ChainProtocol(plan=tuple(head), w0=protocol.w0))
    pmf, wmass = _as_masses(below)
    kernel, firsts, round_prob, restarts = _unit_rounds(
        op, pmf, wmass, pmf, wmass, params.decay_per_step, params.tau,
        params.p_s)
    mass, mean, variance, ending = _renewal_law(kernel, firsts[0],
                                                round_prob, restarts)
    # The round masses sum N entries built from prefix sums, whose
    # rounding grows about as sqrt(N) times that of one sum.
    if mass - 1.0 > ROUNDING_MASS * math.sqrt(len(pmf)) / ending:
        raise HorizonError(f"implied mass {mass!r} exceeds 1 by more than "
                           f"float rounding")
    mass = min(mass, 1.0)
    if mass < DEFAULT_MASS_FLOOR:
        raise HorizonError(f"implied mass {mass:.9f} is below the floor "
                           f"{DEFAULT_MASS_FLOOR}")
    return {"mean": mean, "stddev": math.sqrt(variance),
            "mean_w": float(firsts[1].sum() / firsts[0].sum()),
            "captured_mass": mass}


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
