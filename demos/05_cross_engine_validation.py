"""Five engines, one protocol: the cross-validation story.

The same nested repeater protocol is evaluated by closed forms, exact
distribution tracking, an absorbing Markov chain, direct Monte Carlo
sampling, and a discrete-event simulation.  Agreement across independent
machinery is the strongest correctness evidence this domain offers, since
no experiment is available to calibrate against.
"""

import numpy as np

from qnd.chainformulas import ChainParams, geometric_level_mean
from qnd.deskernel import simulate_batch
from qnd.disttrack import chain_distribution
from qnd.markovchain import (SwapTimeMode, absorption_stats, build_chain,
                             to_dot, waiting_pmf)
from qnd.montecarlo import run_batch

params = ChainParams(n=2, p_g=0.5, p_s=0.5)
print(f"protocol: {params.segments} segments, p_g = {params.p_g}, "
      f"p_s = {params.p_s}, perfect memory\n")

tracked = chain_distribution(params, t_trunc=800)
chain = build_chain(params, SwapTimeMode.ZERO_STEP)
markov = absorption_stats(chain)
mc = run_batch(params, n_samples=50_000, seed=1)
des = simulate_batch(params, n_samples=50_000, seed=2)

print("engine            mean waiting time")
print(f"  geometric-level   {geometric_level_mean(params):10.4f}  "
      "(approximation)")
print(f"  tracking          {tracked.mean():10.4f}  (exact)")
print(f"  markov chain      {markov['mean']:10.4f}  (exact, "
      f"{chain.n_states} states)")
print(f"  monte carlo       {mc.mean_t:10.4f}  +- {mc.stderr_t:.4f}")
print(f"  discrete events   {des.mean_t:10.4f}  +- {des.stderr_t:.4f}")

# Each PMF ends at its own horizon; compare them where both are defined.
pmf_markov = waiting_pmf(chain)
common = min(len(pmf_markov.pmf), len(tracked.pmf))
gap = np.abs(pmf_markov.pmf[:common] - tracked.pmf[:common]).max()
print(f"\nmarkov vs tracking, entrywise PMF gap: {gap:.2e} over "
      f"{common} ticks")

hist = dict(mc.histogram)
emp = np.array([hist.get(t, 0) / mc.n_samples
                for t in range(len(tracked.pmf))])
tv = 0.5 * np.abs(emp - tracked.pmf).sum()
print(f"monte carlo vs tracking, total variation: {tv:.4f} "
      f"at {mc.n_samples} samples")

ks = np.abs(np.cumsum(emp) - tracked.cdf()).max()
print(f"monte carlo vs tracking, KS statistic:    {ks:.5f}")

print("\nthe single-repeater Markov chain, as DOT:")
small = build_chain(ChainParams(n=1, p_g=0.5, p_s=0.5),
                    SwapTimeMode.ONE_STEP)
print(to_dot(small))
