import math

import numpy as np
import pytest

from qnd.chainformulas import ChainParams
from qnd.deskernel import (ChainSimulation, EmptyQueueError, Event,
                           EventKind, SimState, pop_next, run_until,
                           schedule, simulate_batch)
from qnd.disttrack import ChainProtocol
from qnd.montecarlo import run_batch


class TestKernel:
    def test_time_ordering(self):
        state = SimState()
        schedule(state, 5, EventKind.END)
        schedule(state, 3, EventKind.END)
        first = pop_next(state)
        assert first.time == 3
        assert state.clock == 3
        assert pop_next(state).time == 5

    def test_tie_break_by_scheduling_order(self):
        state = SimState()
        a = schedule(state, 3, EventKind.END, ("a",))
        b = schedule(state, 3, EventKind.END, ("b",))
        assert a.sequence < b.sequence
        assert pop_next(state).payload == ("a",)
        assert pop_next(state).payload == ("b",)

    def test_clock_never_decreases(self):
        state = SimState()
        schedule(state, 4, EventKind.END)
        pop_next(state)
        with pytest.raises(ValueError):
            schedule(state, 2, EventKind.END)

    def test_run_until_immediate_when_condition_holds(self):
        state = SimState()
        result = run_until(state, lambda s: True, lambda e: None)
        assert result.clock == 0

    def test_run_until_empty_queue_error(self):
        state = SimState()
        with pytest.raises(EmptyQueueError):
            run_until(state, lambda s: False, lambda e: None)

    def test_events_are_immutable(self):
        event = Event(time=1, sequence=0, kind=EventKind.END)
        with pytest.raises(Exception):
            event.time = 2


class TestChainSimulation:
    def test_deterministic_protocol(self):
        params = ChainParams(n=1, p_g=1.0, p_s=1.0)
        protocol = ChainProtocol.swap_only(1, w0=0.9)
        rec = ChainSimulation(params, protocol, seed=0).run()
        assert rec.t == 1
        assert rec.w == pytest.approx(0.81)

    def test_trace_hash_seed_stable(self):
        params = ChainParams(n=2, p_g=0.4, p_s=0.6, t_coh=9.0, tau=4)
        hashes = set()
        for _ in range(3):
            sim = ChainSimulation(params, seed=123, trace=True)
            sim.run()
            hashes.add(sim.trace_hash())
        assert len(hashes) == 1
        other = ChainSimulation(params, seed=124, trace=True)
        other.run()
        assert other.trace_hash() not in hashes

    def test_second_run_replays_the_run(self):
        params = ChainParams(n=2, p_g=0.4, p_s=0.6, t_coh=9.0, tau=4)
        sim = ChainSimulation(params, seed=123, trace=True)

        def snapshot():
            state = sim.state
            return (sim.run(), list(state.trace), sorted(state.queue),
                    state.clock, list(sim.links), list(sim.epochs))

        assert snapshot() == snapshot()

    @pytest.mark.parametrize("seed", (0, 9, 2 ** 64 - 1))
    def test_run_is_sample_zero_of_the_batch(self, seed):
        params = ChainParams(n=2, p_g=0.3, p_s=0.5, t_coh=20.0, tau=8)
        rec = ChainSimulation(params, seed=seed).run()
        batch = simulate_batch(params, n_samples=1, seed=seed)
        assert (batch.mean_t, batch.mean_w) == (rec.t, rec.w)

    def test_seed_must_be_an_int(self):
        sim = ChainSimulation(ChainParams(n=1, p_g=0.5),
                              seed=np.random.default_rng(0))
        with pytest.raises(TypeError):
            sim.run()

    def test_trace_format(self):
        sim = ChainSimulation(ChainParams(n=1, p_g=1.0, p_s=1.0),
                              seed=1, trace=True)
        sim.run()
        for line in sim.state.trace:
            time, seq, kind, payload = line.split("\t")
            assert int(time) >= 0
            assert int(seq) >= 0
            assert kind in [k.value for k in EventKind]

    def test_registry_holds_one_link_per_slot(self):
        params = ChainParams(n=2, p_g=0.5, p_s=0.5)
        sim = ChainSimulation(params, seed=5)
        sim.run()
        # links list holds at most one entry per node by construction;
        # after absorption only the root may still carry its output.
        assert all(link is None or len(link) == 2 for link in sim.links)

    def test_mean_within_4_sigma(self):
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        batch = simulate_batch(params, n_samples=20_000, seed=5)
        assert abs(batch.mean_t - 16.0 / 3.0) < 4.0 * batch.stderr_t

    def test_communication_delay_shifts_mean(self):
        params = ChainParams(n=1, p_g=0.5, p_s=1.0)
        for delay in (1, 3):
            batch = simulate_batch(params, n_samples=20_000, seed=6,
                                   delay=delay)
            assert abs(batch.mean_t - (8.0 / 3.0 + delay)) < \
                4.0 * batch.stderr_t

    def test_batch_determinism(self):
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        assert simulate_batch(params, n_samples=1500, seed=11) == \
            simulate_batch(params, n_samples=1500, seed=11)

    def test_zero_delay_matches_monte_carlo(self):
        # Two-sample Kolmogorov-Smirnov between the engines at 1e4 runs,
        # 1% critical value.
        params = ChainParams(n=1, p_g=0.5, p_s=0.5)
        n = 10_000
        des = simulate_batch(params, n_samples=n, seed=31)
        mc = run_batch(params, n_samples=n, seed=32)
        tmax = max(max(t for t, _ in des.histogram),
                   max(t for t, _ in mc.histogram))
        c_des = np.zeros(tmax + 1)
        c_mc = np.zeros(tmax + 1)
        for t, c in des.histogram:
            c_des[t] = c / n
        for t, c in mc.histogram:
            c_mc[t] = c / n
        ks = np.abs(np.cumsum(c_des) - np.cumsum(c_mc)).max()
        critical = 1.63 * math.sqrt(2.0 / n)
        assert ks < critical

    def test_zero_delay_matches_monte_carlo_with_cutoff(self):
        params = ChainParams(n=2, p_g=0.4, p_s=0.6, t_coh=10.0, tau=6)
        n = 10_000
        des = simulate_batch(params, n_samples=n, seed=21)
        mc = run_batch(params, n_samples=n, seed=22)
        tmax = max(max(t for t, _ in des.histogram),
                   max(t for t, _ in mc.histogram))
        c_des = np.zeros(tmax + 1)
        c_mc = np.zeros(tmax + 1)
        for t, c in des.histogram:
            c_des[t] = c / n
        for t, c in mc.histogram:
            c_mc[t] = c / n
        ks = np.abs(np.cumsum(c_des) - np.cumsum(c_mc)).max()
        assert ks < 1.63 * math.sqrt(2.0 / n)
        assert abs(des.mean_w - mc.mean_w) < \
            4.0 * math.hypot(des.stderr_w, mc.stderr_w)

    def test_cutoff_age_never_exceeded(self):
        # The resolve handler checks ages at consumption; run a stressy
        # configuration to exercise it.
        params = ChainParams(n=2, p_g=0.6, p_s=0.5, t_coh=5.0, tau=2)
        batch = simulate_batch(params, n_samples=3000, seed=8)
        assert batch.n_samples == 3000

    def test_over_age_swap_raises_under_python_optimize(self, run_optimized):
        # Both leaves of a one-swap chain hold links born at t=0; a resolve
        # at t=10 with tau=2 would consume them past the cut-off age.
        script = (
            "from qnd.chainformulas import ChainParams\n"
            "from qnd.deskernel import ChainSimulation, Event, EventKind\n"
            "assert False, 'asserts are live'  # stripped by -O\n"
            "sim = ChainSimulation(ChainParams(n=1, p_g=0.5, tau=2))\n"
            "sim.links[0] = sim.links[1] = (0, 1.0)\n"
            "sim.state.clock = 10\n"
            "try:\n"
            "    sim._on_resolve(Event(10, 0, EventKind.SWAP_RESOLVE, "
            "(2, 0)))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
        assert run_optimized(script) == \
            "swap consumed a link past its cut-off age"

    def test_distillation_protocol_runs(self):
        params = ChainParams(n=1, p_g=0.5, p_s=0.5, t_coh=6.0)
        protocol = ChainProtocol.with_distillation(1, 1)
        des = simulate_batch(params, protocol, n_samples=20_000, seed=3)
        mc = run_batch(params, protocol, n_samples=20_000, seed=4)
        assert abs(des.mean_t - mc.mean_t) < \
            4.0 * math.hypot(des.stderr_t, mc.stderr_t)
        assert abs(des.mean_w - mc.mean_w) < \
            4.0 * math.hypot(des.stderr_w, mc.stderr_w)

    def test_delay_validation(self):
        with pytest.raises(ValueError):
            ChainSimulation(ChainParams(n=1, p_g=0.5), delay=-1)
