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
persist.  Reaching the end-to-end link is absorption, and waiting-time
statistics follow from the standard absorbing-chain linear systems and from
iterated vector-matrix products.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .chainformulas import ChainParams
from .disttrack import TruncatedDistribution

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
    """States, transition matrix, and absorbing set of a repeater chain.

    ``states`` are canonically sorted tuples of link intervals; index 0 is
    the empty start state.  ``tpm`` is a dense row-stochastic matrix whose
    absorbing rows are identity.
    """

    states: tuple
    tpm: np.ndarray
    absorbing: frozenset
    swap_time_mode: SwapTimeMode
    params: ChainParams

    @property
    def n_states(self):
        return len(self.states)


def _empty_segments(state, n_segments):
    covered = np.zeros(n_segments, dtype=bool)
    for a, b in state:
        covered[a:b] = True
    return [i for i in range(n_segments) if not covered[i]]


def _sibling(interval, n_segments):
    a, b = interval
    length = b - a
    if length >= n_segments:
        return None
    if (a // length) % 2 == 0:
        return (b, b + length)
    return (a - length, a)


def _mergeable_pairs(state, n_segments):
    """Sibling link pairs ready to swap; each link has one unique sibling,
    so the pairs are disjoint."""
    pairs = []
    for interval in sorted(state):
        sib = _sibling(interval, n_segments)
        if sib is not None and sib in state and interval < sib:
            pairs.append((interval, sib))
    return pairs


def _subsets(items, p):
    """(probability, chosen items) over every subset of independent events,
    each item chosen with probability ``p``.  The factors multiply in item
    order; zero-probability subsets are dropped."""
    out = []
    for mask in range(1 << len(items)):
        prob = 1.0
        chosen = []
        for i, item in enumerate(items):
            if (mask >> i) & 1:
                prob *= p
                chosen.append(item)
            else:
                prob *= 1.0 - p
        if prob > 0.0:
            out.append((prob, chosen))
    return out


def _gen_outcomes(empty, p_g):
    """(probability, new elementary links) over generation subsets."""
    return [(prob, [(seg, seg + 1) for seg in done])
            for prob, done in _subsets(empty, p_g)]


def _resolve_round(state, pairs, p_s):
    """One simultaneous round of swap resolutions over disjoint pairs."""
    rest = frozenset(state).difference(*pairs)
    return [(prob, rest | {(left[0], right[1]) for left, right in merged})
            for prob, merged in _subsets(pairs, p_s)]


def _cascade_leaves(state, p_s, n_segments, factors, leaves):
    """Resolve swap rounds within one tick until no pair remains: append
    each end state to ``leaves`` in depth-first order, with the tuple of
    branch probabilities on its path."""
    pairs = _mergeable_pairs(state, n_segments)
    if not pairs:
        leaves.append((state, factors))
        return
    for branch_prob, next_state in _resolve_round(state, pairs, p_s):
        _cascade_leaves(next_state, p_s, n_segments,
                        factors + (branch_prob,), leaves)


def _transitions(state, params, mode, n_segments, cascades):
    """Distribution over successor states for one tick.

    ``cascades`` memoises the swap cascade of each post-generation state
    for one build.  A leaf's probability is replayed as the product of the
    generation probability and its branch factors, left to right, so every
    product and sum is the one an unmemoised cascade computes.
    """
    acc = {}
    p_g, p_s = params.p_g, params.p_s
    empty = _empty_segments(state, n_segments)
    if mode is SwapTimeMode.ZERO_STEP:
        for gen_prob, links in _gen_outcomes(empty, p_g):
            post = frozenset(state) | frozenset(links)
            leaves = cascades.get(post)
            if leaves is None:
                leaves = cascades[post] = []
                _cascade_leaves(post, p_s, n_segments, (), leaves)
            for leaf, factors in leaves:
                prob = gen_prob
                for factor in factors:
                    prob *= factor
                acc[leaf] = acc.get(leaf, 0.0) + prob
    else:
        pairs = _mergeable_pairs(state, n_segments)
        for swap_prob, mid_state in _resolve_round(state, pairs, p_s):
            for gen_prob, links in _gen_outcomes(empty, p_g):
                next_state = mid_state | frozenset(links)
                prob = swap_prob * gen_prob
                acc[next_state] = acc.get(next_state, 0.0) + prob
    return acc


def build_chain(params, swap_time_mode=SwapTimeMode.ZERO_STEP):
    """Enumerate the reachable state space and transition matrix.

    Swap-only protocols: a cut-off in ``params`` is rejected (the Markov
    engine neither discards links nor tracks their age).

    The work lies in the generation outcomes: a state with e empty
    segments has 2**e of them, and summed over the 2**S occupancy patterns
    of S segments they number 3**S.  A chain whose count exceeds
    ``DEFAULT_TRANSITION_LIMIT`` is refused with StateLimitError before
    any state is enumerated, so at most 8 segments are built.

    That caps the state count too: a state is a set of disjoint aligned
    dyadic links, which on 2S segments is either the link over all of
    them or a pair of such sets on the two halves.  So g(2S) = g(S)**2 + 1
    with g(1) = 2, and g(8) = 677 states bound a dense ``tpm`` by 3.7 MB.
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
    done = (0, n_segments)

    index = {}
    states = []
    rows = []
    cascades = {}

    def intern(state_fs):
        key = tuple(sorted(state_fs))
        if key not in index:
            index[key] = len(states)
            states.append(key)
            rows.append(None)
        return index[key]

    start = intern(frozenset())
    frontier = [start]
    while frontier:
        i = frontier.pop()
        if rows[i] is not None:
            continue
        state = frozenset(states[i])
        if done in state:
            rows[i] = {i: 1.0}
            continue
        acc = _transitions(state, params, mode, n_segments, cascades)
        row = {}
        for next_state, prob in acc.items():
            j = intern(next_state)
            row[j] = row.get(j, 0.0) + prob
        rows[i] = row
        for j in row:
            if rows[j] is None:
                frontier.append(j)

    n = len(states)
    tpm = np.zeros((n, n))
    for i, row in enumerate(rows):
        tpm[i, list(row)] = list(row.values())
    bad = np.flatnonzero(np.abs(tpm.sum(axis=1) - 1.0) > 1e-12)
    if bad.size:
        raise AssertionError(f"rows {bad.tolist()} do not sum to 1")
    absorbing = frozenset(i for i, s in enumerate(states)
                          if done in frozenset(s))
    return RepeaterMarkovChain(states=tuple(states), tpm=tpm,
                               absorbing=absorbing, swap_time_mode=mode,
                               params=params)


def _transient_block(chain):
    """Q, the transitions among the transient states in index order."""
    transient = [i for i in range(chain.n_states) if i not in chain.absorbing]
    if not transient:
        raise AbsorptionError("no transient states")
    # Reverse reachability from the absorbing set: every transient state
    # must be able to reach absorption or the hitting-time system is
    # singular.  A state reaches it once one positive entry of its row
    # leads to a state that does; grow that set to its fixed point.
    edges = chain.tpm > 0.0
    reach = np.zeros(chain.n_states, dtype=bool)
    reach[sorted(chain.absorbing)] = True
    while True:
        grown = reach | edges[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            break
        reach = grown
    for s in transient:
        if not reach[s]:
            raise AbsorptionError(
                f"state {chain.states[s]!r} cannot reach absorption")
    return chain.tpm[np.ix_(transient, transient)]


def absorption_stats(chain):
    """Mean and variance of the absorption (waiting) time from the start.

    Solves the fundamental systems ``(I - Q) m = 1`` and
    ``(I - Q) s = 1 + 2 Q m`` on the transient block.
    """
    q = _transient_block(chain)
    if 0 in chain.absorbing:
        return {"mean": 0.0, "variance": 0.0}
    ones = np.ones(len(q))
    iq = np.eye(len(q)) - q
    m = np.linalg.solve(iq, ones)
    s = np.linalg.solve(iq, ones + 2.0 * (q @ m))
    mean = float(m[0])  # the start state 0 is the first transient state
    variance = float(s[0] - mean ** 2)
    return {"mean": mean, "variance": max(variance, 0.0)}


def waiting_pmf(chain, t_max):
    """PMF of the first-absorption tick, without state-quality tracking:
    ``pmf[t]`` is the transient mass, propagated on the transient block,
    times each state's one-step absorption probability, a sum of positive
    terms that keeps its relative accuracy in the tail."""
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    absorbing = sorted(chain.absorbing)
    transient = np.setdiff1d(np.arange(chain.n_states), absorbing)
    q = chain.tpm[np.ix_(transient, transient)]
    r = chain.tpm[np.ix_(transient, absorbing)].sum(axis=1)
    dist = np.zeros(len(transient))
    if 0 not in chain.absorbing:
        dist[0] = 1.0  # the start state 0 is the first transient state
    pmf = np.zeros(t_max + 1)
    for t in range(1, t_max + 1):
        pmf[t] = dist @ r
        dist = dist @ q
    return TruncatedDistribution(pmf=pmf, mean_w=None)


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
        shape = "doublecircle" if i in chain.absorbing else "circle"
        lines.append(f'  s{i} [label="{label}", shape={shape}];')
    for i, j in zip(*np.nonzero(chain.tpm)):
        if i in chain.absorbing:
            continue
        v = chain.tpm[i, j]
        lines.append(f'  s{i} -> s{j} [label="{v:.6g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
