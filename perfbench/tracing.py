"""Traced runs: spans and counts at the boundaries between qnd modules.

The tracer replaces public functions of each ``qnd`` module on the module
object, which is where the layer above looks them up (``cli`` calls
``capbounds.bipartite_bounds``, ``capbounds`` calls ``lpcore.solve``,
``montecarlo.run_batch`` calls its module-global ``substream``).  Spans
record name, start, end, parent and thread; they stay in memory, in
per-thread arrays, until the run ends.  A name listed in ``WRAPS`` that no
longer exists is skipped, and the metrics that need it are left out.
"""

import array
import contextlib
import functools
import importlib
import math
import statistics
import threading
import time

SPAN, COUNT = "span", "count"


def _fft_len(n):
    return 1 << int(math.ceil(math.log2(max(2 * n, 2))))


def _lp_hook(counters, minima, args, kwargs, result):
    """Pivots, and the bytes of the phase-1 tableau of an m x n program
    ((m + 1) x (n + m + 1) doubles), computed from the program's shape."""
    lp = args[0] if args else kwargs["lp"]
    m, n = lp.A.shape
    tableau = 8 * (m + 1) * (n + m + 1)
    _add(counters, "lpcore.pivots", result.iterations)
    _add(counters, "lpcore.tableau_bytes", tableau)
    _add(counters, "lpcore.pivot_bytes", tableau * result.iterations)


def _track_hook(counters, minima, args, kwargs, result):
    """Horizon, FFT points (one transform of the final horizon per protocol
    unit, an upper estimate computed from the returned horizon) and the
    least captured mass."""
    params = args[0] if args else kwargs["params"]
    protocol = args[1] if len(args) > 1 else kwargs.get("protocol")
    units = params.n if protocol is None else len(protocol.plan)
    _add(counters, "disttrack.horizon_sum", result.t_trunc)
    _add(counters, "disttrack.fft_points", units * _fft_len(result.t_trunc + 1))
    mass = result.captured_mass
    minima["disttrack.min_captured_mass"] = min(
        mass, minima.get("disttrack.min_captured_mass", math.inf))


def _states_hook(counters, minima, args, kwargs, result):
    _add(counters, "markovchain.states", result.n_states)


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


# (module, attribute, kind, hook)
WRAPS = (
    ("qnd.netmodel", "parse_network", SPAN, None),
    ("qnd.capbounds", "bipartite_bounds", SPAN, None),
    ("qnd.capbounds", "multipair_bounds", SPAN, None),
    ("qnd.capbounds", "multipartite_bounds", SPAN, None),
    ("qnd.lpcore", "from_inequalities", SPAN, None),
    ("qnd.lpcore", "solve", SPAN, _lp_hook),
    ("qnd.flows", "max_flow", SPAN, None),
    ("qnd.flows", "multicommodity_flow", SPAN, None),
    ("qnd.flows", "min_cut_bruteforce", SPAN, None),
    ("qnd.flows", "min_multicut_bruteforce", SPAN, None),
    ("qnd.flows", "min_cut_ratio_bruteforce", SPAN, None),
    ("qnd.flows", "s_connectivity", SPAN, None),
    ("qnd.flows", "steiner_packing_bruteforce", SPAN, None),
    ("qnd.disttrack", "chain_distribution", SPAN, _track_hook),
    ("qnd.chainformulas", "mean_only", SPAN, None),
    ("qnd.chainformulas", "three_over_two", SPAN, None),
    ("qnd.chainformulas", "geometric_level_mean", SPAN, None),
    ("qnd.chainformulas", "det_swap_mean", SPAN, None),
    ("qnd.chainformulas", "det_swap_mean_cutoff", SPAN, None),
    ("qnd.chainformulas", "decay_factor", SPAN, None),
    ("qnd.markovchain", "build_chain", SPAN, _states_hook),
    ("qnd.markovchain", "absorption_stats", SPAN, None),
    ("qnd.montecarlo", "run_batch", SPAN, None),
    ("qnd.montecarlo", "sample_chain", SPAN, None),
    ("qnd.montecarlo", "substream", SPAN, None),
    ("qnd.deskernel", "simulate_batch", SPAN, None),
    # deskernel imports substream by name: a binding of its own.
    ("qnd.deskernel", "substream", SPAN, None),
    ("qnd.deskernel", "run_until", SPAN, None),
    ("qnd.deskernel", "pop_next", COUNT, None),
    ("qnd.deskernel", "schedule", COUNT, None),
)

ROOT_SPAN = "cli.main"


class _Buffer:
    """Spans and counters of one thread."""

    def __init__(self, index, thread_id):
        self.index = index
        self.thread_id = thread_id
        self.names = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.stack = []
        self.counters = {}
        self.minima = {}


class Tracer:
    """Installs the wrappers, records spans while installed, and reduces
    them to per-layer metrics."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._names = []
        self._name_ids = {}
        self._installed = []
        self.wrapped = set()
        self.root = -1

    # -- recording ------------------------------------------------------

    def _buf(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers), threading.get_ident())
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def begin(self, name_id):
        buf = self._buf()
        idx = len(buf.names)
        buf.names.append(name_id)
        buf.parent.append(buf.stack[-1] if buf.stack else self.root)
        buf.end.append(0.0)
        buf.stack.append((buf.index << 40) | idx)
        buf.start.append(time.perf_counter())
        return buf, idx

    def finish(self, buf, idx):
        buf.end[idx] = time.perf_counter()
        buf.stack.pop()

    def root_call(self, fn, *args):
        """Run ``fn`` as the root span that pool-thread spans attach to."""
        buf, idx = self.begin(self._name_id(ROOT_SPAN))
        self.root = (buf.index << 40) | idx
        try:
            return fn(*args)
        finally:
            self.finish(buf, idx)
            self.root = -1

    # -- installing -----------------------------------------------------

    def install(self):
        for module_name, attr, kind, hook in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            short = module_name.split(".")[-1]
            name = f"{short}.{attr}"
            setattr(module, attr, self._wrap(original, name, kind, hook))
            self._installed.append((module, attr, original))
            self.wrapped.add(name)

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, fn, name, kind, hook):
        if kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                _add(self._buf().counters, name, 1)
                return fn(*args, **kwargs)
            return counted

        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf, idx = self.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(buf, idx)
            if hook is not None:
                hook(buf.counters, buf.minima, args, kwargs, result)
            return result
        return traced

    # -- reduction ------------------------------------------------------

    def spans(self):
        """All spans as (id, name, start, end, parent, thread id)."""
        for buf in self._buffers:
            for idx in range(len(buf.names)):
                yield ((buf.index << 40) | idx, self._names[buf.names[idx]],
                       buf.start[idx], buf.end[idx], buf.parent[idx],
                       buf.thread_id)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,thread\n")
            for sid, name, start, end, parent, tid in self.spans():
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{tid}\n")

    def totals(self):
        """Per span name: summed duration, summed self time (duration less
        the union of its children's intervals), call count, and summed
        duration of the spans not nested in a span of the same module."""
        spans = list(self.spans())
        name_of = {sid: name for sid, name, *_ in spans}
        children = {}
        for sid, name, start, end, parent, _ in spans:
            children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, name, start, end, parent, _ in spans:
            dur = end - start
            covered = _union(children.get(sid, ()), start, end)
            layer = name.split(".")[0]
            outer = name_of.get(parent, "").split(".")[0] != layer
            acc = out.setdefault(name, [0.0, 0.0, 0, 0.0])
            acc[0] += dur
            acc[1] += dur - covered
            acc[2] += 1
            acc[3] += dur if outer else 0.0
        return out

    def counters(self):
        merged, minima = {}, {}
        for buf in self._buffers:
            for key, value in buf.counters.items():
                _add(merged, key, value)
            for key, value in buf.minima.items():
                minima[key] = min(value, minima.get(key, math.inf))
        return merged, minima


def _union(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def unit_replay(n, p_g, p_s, reps=5):
    """Median times of the two public unit steps at nesting level ``n``:
    the join (``max_combine``) of two level n-1 outputs, and the FFT
    renewal sum over failed swaps (``compound_geometric``), on the level
    n horizon."""
    from qnd import disttrack
    from qnd.chainformulas import ChainParams
    below = disttrack.chain_distribution(ChainParams(n=n - 1, p_g=p_g, p_s=p_s))
    horizon = disttrack.default_horizon(ChainParams(n=n, p_g=p_g, p_s=p_s))
    d = below.extended(max(horizon, below.t_trunc))
    join_s, renewal_s = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        joined = disttrack.max_combine(d, d)
        t1 = time.perf_counter()
        disttrack.compound_geometric(joined, p_s)
        t2 = time.perf_counter()
        join_s.append(t1 - t0)
        renewal_s.append(t2 - t1)
    return statistics.median(join_s), statistics.median(renewal_s)


# Per-layer metrics: name -> (unit, better, span or counter names needed,
# reducer over (totals, counters, minima)).  Times are per traced pass.
def _dur(name):
    return lambda t, c, m: t.get(name, (0.0,))[0]


def _self(*names):
    return lambda t, c, m: sum(t.get(n, (0.0, 0.0))[1] for n in names)


def _calls(*names):
    return lambda t, c, m: sum(t.get(n, (0, 0, 0))[2] for n in names)


def _outer(layer):
    return lambda t, c, m: sum(v[3] for k, v in t.items()
                               if k.split(".")[0] == layer)


def _counter(key):
    return lambda t, c, m: c.get(key, 0)


_CAP = ("capbounds.bipartite_bounds", "capbounds.multipair_bounds",
        "capbounds.multipartite_bounds")
_FLOWS = tuple(f"flows.{a}" for mod, a, *_ in WRAPS if mod == "qnd.flows")
_FORMULAS = tuple(f"chainformulas.{a}" for mod, a, *_ in WRAPS
                  if mod == "qnd.chainformulas")
_SUBSTREAM = ("montecarlo.substream", "deskernel.substream")

LAYER_METRICS = {
    "cli.self_s": ("s", (ROOT_SPAN,), _self(ROOT_SPAN)),
    "netmodel.parse_s": ("s", ("netmodel.parse_network",),
                         _dur("netmodel.parse_network")),
    "capbounds.assembly_s": ("s", _CAP, _self(*_CAP)),
    "capbounds.calls": ("count", _CAP, _calls(*_CAP)),
    "lpcore.from_inequalities_s": ("s", ("lpcore.from_inequalities",),
                                   _dur("lpcore.from_inequalities")),
    "lpcore.solve_s": ("s", ("lpcore.solve",), _dur("lpcore.solve")),
    "lpcore.lps": ("count", ("lpcore.solve",), _calls("lpcore.solve")),
    "lpcore.pivots": ("count", ("lpcore.solve",),
                      _counter("lpcore.pivots")),
    "lpcore.tableau_bytes": ("bytes_computed", ("lpcore.solve",),
                             _counter("lpcore.tableau_bytes")),
    "lpcore.pivot_bytes": ("bytes_computed", ("lpcore.solve",),
                           _counter("lpcore.pivot_bytes")),
    "flows.s": ("s", _FLOWS, _outer("flows")),
    "disttrack.s": ("s", ("disttrack.chain_distribution",),
                    _outer("disttrack")),
    "disttrack.calls": ("count", ("disttrack.chain_distribution",),
                        _calls("disttrack.chain_distribution")),
    "disttrack.horizon_sum": ("count", ("disttrack.chain_distribution",),
                              _counter("disttrack.horizon_sum")),
    "disttrack.fft_points": ("count", ("disttrack.chain_distribution",),
                             _counter("disttrack.fft_points")),
    "chainformulas.s": ("s", _FORMULAS, _outer("chainformulas")),
    "chainformulas.det_swap_s": ("s", ("chainformulas.det_swap_mean",),
                                 _dur("chainformulas.det_swap_mean")),
    "markovchain.build_s": ("s", ("markovchain.build_chain",),
                            _dur("markovchain.build_chain")),
    "markovchain.solve_s": ("s", ("markovchain.absorption_stats",),
                            _dur("markovchain.absorption_stats")),
    "markovchain.states": ("count", ("markovchain.build_chain",),
                           _counter("markovchain.states")),
    "montecarlo.substream_s": ("s", _SUBSTREAM,
                               lambda t, c, m: sum(t.get(n, (0.0,))[0]
                                                   for n in _SUBSTREAM)),
    "montecarlo.substreams": ("count", _SUBSTREAM, _calls(*_SUBSTREAM)),
    "montecarlo.trajectory_s": ("s", ("montecarlo.sample_chain",),
                                _dur("montecarlo.sample_chain")),
    "montecarlo.batch_self_s": ("s", ("montecarlo.run_batch",),
                                _self("montecarlo.run_batch")),
    "deskernel.run_s": ("s", ("deskernel.run_until",),
                        _dur("deskernel.run_until")),
    "deskernel.events": ("count", ("deskernel.pop_next",),
                         _counter("deskernel.pop_next")),
    "deskernel.scheduled": ("count", ("deskernel.schedule",),
                            _counter("deskernel.schedule")),
    "deskernel.batch_self_s": ("s", ("deskernel.simulate_batch",),
                               _self("deskernel.simulate_batch")),
}


def layer_metrics(tracer, passes):
    """Per-pass values of every LAYER_METRICS entry with at least one of
    its wrapped names installed, plus the least captured mass."""
    totals = tracer.totals()
    counters, minima = tracer.counters()
    available = tracer.wrapped | {ROOT_SPAN}
    out = {}
    for name, (unit, needs, reduce) in LAYER_METRICS.items():
        if any(n in available for n in needs):
            out[name] = (reduce(totals, counters, minima) / passes, unit)
    if "disttrack.chain_distribution" in available:
        out["disttrack.min_captured_mass"] = (
            minima.get("disttrack.min_captured_mass", math.nan), "fraction")
    return out
