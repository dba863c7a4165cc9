"""Absorbing Markov chain of a swap-only nested repeater chain.

A network state is the set of links currently alive, encoded as half-open
segment intervals; one tick lets every empty segment attempt generation and
lets sibling links of the doubling scheme swap.  The two swap-timing
conventions differ on when a swap charges time:

* ZERO_STEP resolves swaps instantly, cascading within the tick in which
  the second input appears (the convention of the analytical engines);
* ONE_STEP charges one tick per swap round: pairs complete at the start of
  a tick resolve during that tick, and freshly generated or freshly merged
  links wait for the next one.

A failed swap destroys its two input links; links elsewhere in the chain
persist.  So the two halves of a chain evolve independently until their top
swap, and the chain is built as a product: the transition matrix of 2S
segments is the Kronecker product of two copies of the S-segment matrix,
with the one state where both halves are finished rewired to the top swap.
Reaching the end-to-end link is absorption, and waiting-time statistics
follow from the standard absorbing-chain linear systems and from iterated
vector-matrix products.  The PMF follows the tracker's tail rule: it runs
until at most ``TAIL_MASS`` is still transient, and HorizonError refuses a
chain whose exact mean times ln(1 / TAIL_MASS) exceeds ``HORIZON_LIMIT``.
"""

import enum
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .chainformulas import ChainParams
from .disttrack import (HORIZON_LIMIT, TAIL_MASS, HorizonError,
                        TruncatedDistribution)

__all__ = [
    "SwapTimeMode",
    "RepeaterMarkovChain",
    "StateLimitError",
    "AbsorptionError",
    "build_chain",
    "absorption_stats",
    "waiting_pmf",
    "to_dot",
]

DEFAULT_TRANSITION_LIMIT = 2 ** 20


class StateLimitError(RuntimeError):
    """A chain would exceed ``DEFAULT_TRANSITION_LIMIT`` outcomes."""


class AbsorptionError(RuntimeError):
    """The absorbing state is unreachable; hitting-time systems are
    singular."""


class SwapTimeMode(str, enum.Enum):
    ZERO_STEP = "zero-step"
    ONE_STEP = "one-step"


@dataclass
class RepeaterMarkovChain:
    """States and transition matrix of a repeater chain.

    ``states`` are sorted tuples of link intervals, in the row-major order
    of the level-by-level product (left half major), restricted to the
    states reachable from the start.  Index 0 is the empty start state and
    the last index is the end-to-end link, the one absorbing state.
    ``tpm`` is a dense row-stochastic matrix whose absorbing row is
    identity.
    """

    states: tuple
    tpm: np.ndarray
    swap_time_mode: SwapTimeMode
    params: ChainParams

    @property
    def n_states(self):
        return len(self.states)


def _doubled(states, tpm, p_s, mode):
    """T(2S) from the chain T(S) of one half.

    The halves evolve independently until both hold their full link, so
    the pair chain is ``kron(T(S), T(S))`` over the product states in
    row-major order; the last of them holds both finished links.  Under
    ZERO_STEP the top swap resolves in the tick that finishes the second
    half: that state becomes the end-to-end link, and the mass entering it
    is split into ``p_s`` kept there and ``1 - p_s`` moved to the empty
    start state.  Under ONE_STEP the pair waits one tick: the state is kept
    and its row swaps to the end-to-end link, appended last.
    """
    span = states[-1][0][1]  # the finished half's link is (0, span)
    shifted = [tuple((a + span, b + span) for a, b in s) for s in states]
    pairs = [left + right for left in states for right in shifted]
    tpm = np.kron(tpm, tpm)
    both = len(pairs) - 1
    full = ((0, 2 * span),)
    if mode is SwapTimeMode.ZERO_STEP:
        tpm[:, 0] += (1.0 - p_s) * tpm[:, both]
        tpm[:, both] *= p_s
        tpm[both] = 0.0
        tpm[both, both] = 1.0
        pairs[both] = full
    else:
        tpm = np.pad(tpm, ((0, 1), (0, 1)))
        tpm[both, both] = 0.0
        tpm[both, 0] = 1.0 - p_s
        tpm[both, -1] = p_s
        tpm[-1, -1] = 1.0
        pairs.append(full)
    return pairs, tpm


def build_chain(params, swap_time_mode=SwapTimeMode.ZERO_STEP):
    """Build the state space and transition matrix level by level.

    Swap-only protocols: a cut-off in ``params`` is rejected (the Markov
    engine neither discards links nor tracks their age).

    One segment is the chain ``[[1 - p_g, p_g], [0, 1]]`` over the empty
    state and its link; each level doubles the chain (``_doubled``), and
    the states unreachable from the empty start are dropped at the end.

    A state is a set of disjoint aligned dyadic links, which on 2S segments
    is either the link over all of them or a pair of such sets on the two
    halves.  So g(2S) = g(S)**2 + 1 with g(1) = 2, and the dense ``tpm``
    grows with the square of that count.  The guard bounds it: a chain
    whose 3**S generation outcomes (2**e for each state with e empty
    segments, summed over the 2**S occupancy patterns) exceed
    ``DEFAULT_TRANSITION_LIMIT`` is refused with StateLimitError before
    any matrix is built.  That admits at most 8 segments, so at most
    g(8) = 677 states and a 3.7 MB ``tpm``; 16 segments would have 458330.
    """
    mode = SwapTimeMode(swap_time_mode)
    if params.tau is not None:
        raise ValueError(
            "the Markov engine covers swap-only protocols without cut-off")
    n_segments = params.segments
    if 3 ** n_segments > DEFAULT_TRANSITION_LIMIT:
        raise StateLimitError(
            f"{n_segments} segments have 3**{n_segments} generation "
            f"outcomes, over the limit of {DEFAULT_TRANSITION_LIMIT}")

    p_g = params.p_g
    states = [(), ((0, 1),)]
    tpm = np.array([[1.0 - p_g, p_g], [0.0, 1.0]])
    for _ in range(params.n):
        states, tpm = _doubled(states, tpm, params.p_s, mode)
    keep = np.flatnonzero(_closure(tpm.T > 0.0, [0]))
    tpm = tpm[np.ix_(keep, keep)]
    states = tuple(states[i] for i in keep)

    bad = np.flatnonzero(np.abs(tpm.sum(axis=1) - 1.0) > 1e-12)
    if bad.size:
        raise AssertionError(f"rows {bad.tolist()} do not sum to 1")
    # p_g, p_s > 0: the end-to-end link, last in every level's order, is
    # reachable.
    return RepeaterMarkovChain(states=states, tpm=tpm, swap_time_mode=mode,
                               params=params)


def _closure(edges, seed):
    """The states that reach ``seed`` along the boolean matrix ``edges``:
    a state joins once one positive entry of its row leads into the set;
    grow the set to its fixed point."""
    reach = np.zeros(len(edges), dtype=bool)
    reach[seed] = True
    while True:
        grown = reach | edges[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def _transient_block(chain):
    """Q, the transitions among the transient states (all but the last)."""
    last = chain.n_states - 1
    if last < 1:
        raise AbsorptionError("no transient states")
    # Every transient state must be able to reach absorption or the
    # hitting-time system is singular.
    stuck = np.flatnonzero(~_closure(chain.tpm > 0.0, [last]))
    if stuck.size:
        raise AbsorptionError(
            f"state {chain.states[stuck[0]]!r} cannot reach absorption")
    return chain.tpm[:last, :last].copy()


def absorption_stats(chain):
    """Mean and variance of the absorption (waiting) time from the start.

    Solves the fundamental systems ``(I - Q) m = 1`` and
    ``(I - Q) s = 1 + 2 Q m`` on the transient block.
    """
    q = _transient_block(chain)
    ones = np.ones(len(q))
    iq = np.eye(len(q)) - q
    m = np.linalg.solve(iq, ones)
    s = np.linalg.solve(iq, ones + 2.0 * (q @ m))
    mean = float(m[0])  # the start state 0 is the first transient state
    variance = float(s[0] - mean ** 2)
    return {"mean": mean, "variance": max(variance, 0.0)}


def waiting_pmf(chain):
    """PMF of the first-absorption tick, without state-quality tracking:
    ``pmf[t]`` is the transient mass, propagated on the transient block,
    times each state's one-step absorption probability, a sum of positive
    terms that keeps its relative accuracy in the tail.  It ends once at
    most ``TAIL_MASS`` is still transient (see the module docstring)."""
    span = math.log(1.0 / TAIL_MASS) * absorption_stats(chain)["mean"]
    if not span <= HORIZON_LIMIT:
        raise HorizonError(f"the Markov PMF needs about {span:.3g} steps, "
                           f"beyond the default limit {HORIZON_LIMIT}")
    q = _transient_block(chain)
    r = chain.tpm[:-1, -1].copy()
    dist = np.zeros(len(q))
    dist[0] = 1.0  # the start state 0 is the first transient state
    pmf = array("d", [0.0])
    while dist.sum() > TAIL_MASS:
        if len(pmf) > HORIZON_LIMIT:
            raise HorizonError(f"the Markov PMF reached the default limit "
                               f"{HORIZON_LIMIT} with {dist.sum():.3g} left")
        pmf.append(dist @ r)
        dist = dist @ q
    return TruncatedDistribution(pmf=np.array(pmf), mean_w=None)


def _state_label(state, n_segments):
    """Compact occupancy label: 0/1 per segment, merged spans bracketed."""
    state = sorted(state)
    label = []
    seg = 0
    for a, b in state:
        label.extend("0" * (a - seg))
        if b - a == 1:
            label.append("1")
        else:
            label.append("[" + "1" * (b - a) + "]")
        seg = b
    label.extend("0" * (n_segments - seg))
    return "".join(label)


def to_dot(chain):
    """DOT rendering of the chain graph, suitable for small chains."""
    n_segments = chain.params.segments
    lines = ["digraph repeater_chain {", "  rankdir=TB;"]
    for i, state in enumerate(chain.states):
        label = _state_label(state, n_segments)
        shape = "doublecircle" if i == chain.n_states - 1 else "circle"
        lines.append(f'  s{i} [label="{label}", shape={shape}];')
    for i, j in zip(*np.nonzero(chain.tpm)):
        if i == chain.n_states - 1:
            continue
        v = chain.tpm[i, j]
        lines.append(f'  s{i} -> s{j} [label="{v:.6g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
