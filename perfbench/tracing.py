"""Traced mode: spans around the lab's public calls, patched in from outside.

``Tracer.install`` replaces each traced function with a wrapper wherever a
module global or a class attribute binds it: in its own module, in modules
that copied it with ``from .x import f``, and under class aliases such as
``__rmul__ = __mul__``.  References held in other containers (such as the
suite table ``cli.SUITES``) are not rebound, so the suite commands are not
traced; their time counts toward ``cli.self_s`` through ``cli.run_suites``.
Each wrapped call records its duration and the time its wrapped children
took; self time is the difference.  Calls of a span-kind name also append a
span (id, name, start, end, parent id, run id) to an in-memory list.  Leaf
operators that run hundreds of thousands of times are aggregate-kind: they
add to per-name totals only, so the trace stays small.

Nothing in ``src/`` is edited; cache sizes and hit counts are read through
``cache_info()`` and ``CertificateTable.fallback_count``.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import math
import sys
import time

SPAN, AGG = "span", "agg"

# (module, attribute path, metric name, kind).  Every name here counts toward
# its module's self_s roll-up; only the ones listed in BENCHMARK.json are
# also reported on their own.
TARGETS = (
    ("scalars", "CycNumber.__mul__", "scalars.mul", AGG),
    ("scalars", "CycNumber.__add__", "scalars.add", AGG),
    ("scalars", "CycContext.reduce_groupring", "scalars.reduce", AGG),
    ("scalars", "Backend.root_combination", "scalars.root_combination", AGG),
    ("scalars", "Backend.root_combination_vec", "scalars.root_combination_vec", AGG),
    ("scalars", "ScaledScalar.__mul__", "scalars.scaled_mul", AGG),
    ("scalars", "ScaledScalar.__add__", "scalars.scaled_add", AGG),
    ("kloosterman", "kl_via_dft", "kloosterman.kl_via_dft", SPAN),
    ("kloosterman", "kl_direct", "kloosterman.kl_direct", SPAN),
    ("kloosterman", "build_gauss_table", "kloosterman.gauss_table", SPAN),
    ("local_factors", "eps_gl1", "local_factors.eps_gl1", SPAN),
    ("local_factors", "eps_rep_twisted", "local_factors.eps_rep_twisted", SPAN),
    ("local_factors", "stability_check", "local_factors.stability_check", SPAN),
    ("local_factors", "gl1_stability_check", "local_factors.gl1_stability_check", SPAN),
    ("local_factors", "stability_rhs", "local_factors.stability_rhs", SPAN),
    ("local_factors", "gauss_sum", "local_factors.gauss_sum", SPAN),
    ("local_factors", "root_number", "local_factors.root_number", SPAN),
    ("local_factors", "CertificateTable.__init__", "local_factors.certificate_init", SPAN),
    ("local_factors", "CertificateTable.check_pairs", "local_factors.check_pairs", SPAN),
    ("local_factors", "enumerate_reps", "local_factors.enumerate_reps", SPAN),
    ("characters", "chars_with_conductor", "characters.chars_with_conductor", SPAN),
    ("characters", "enumerate_chars", "characters.enumerate_chars", AGG),
    ("characters", "represent_at_level", "characters.represent_at_level", AGG),
    ("characters", "MultChar.__post_init__", "characters.multchar", AGG),
    ("characters", "MultChar.value_exponent", "characters.value_exponent", AGG),
    ("characters", "MultChar.induce", "characters.induce", AGG),
    ("characters", "MultChar.mul", "characters.char_mul", AGG),
    ("padic", "unit_group", "padic.unit_group", AGG),
    ("padic", "valuation", "padic.valuation", AGG),
    ("padic", "unit_part_mod", "padic.unit_part_mod", AGG),
    ("padic", "psi_eval", "padic.psi_eval", AGG),
    ("bessel", "bessel_charsum", "bessel.bessel_charsum", SPAN),
    ("bessel", "bessel_closedform", "bessel.bessel_closedform", SPAN),
    ("bessel", "duality_check", "bessel.duality_check", SPAN),
    ("bessel", "measure_prefactor", "bessel.measure_prefactor", SPAN),
    ("bessel", "gauss_integral", "bessel.gauss_integral", SPAN),
    ("cli", "run_suites", "cli.run_suites", SPAN),
)

# extra counts gathered from call arguments and results
COUNTERS = ("scalars.mul.coeff_ops", "scalars.reduce.object_calls",
            "kloosterman.kl_direct.terms", "local_factors.check_pairs.pairs")

MODULES = ("scalars", "kloosterman", "local_factors", "characters", "padic", "bessel", "cli")


def _num_len(x) -> int:
    return len(x.num) if hasattr(x, "num") else 1


class Tracer:
    """Spans and per-name totals of one traced sweep in one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # (id, name, start, end, parent id, run id)
        self.calls = {name: 0 for _m, _p, name, _k in TARGETS}
        self.self_s = {name: 0.0 for _m, _p, name, _k in TARGETS}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.tables: dict = {}  # id -> CertificateTable seen by check_pairs
        self._ids = itertools.count(1)
        # frame = [time covered by wrapped children, id of the enclosing span]
        self._stack: list = [[0.0, 0]]
        self._caches: dict = {}

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str, count=None):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        ids, run_id, clock, counts = self._ids, self.run_id, time.perf_counter, self.counts
        is_span = kind == SPAN

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids) if is_span else parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counts, args, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                parent[0] += t1 - t0
                calls[name] += 1
                self_s[name] += t1 - t0 - frame[0]
                if is_span:
                    spans.append((frame[1], name, t0, t1, parent[1], run_id))

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Aggregate over every resumption; one call per generator created."""
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [0.0, parent[1]]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    parent[0] += t1 - t0
                    self_s[name] += t1 - t0 - frame[0]
                yield item

        return wrapper

    def _counter(self, name: str):
        if name == "scalars.mul":
            # computed, not measured: len(a.num) * len(b.num) multiply-adds per product
            def count(c, args, result):
                if result is not NotImplemented:
                    c["scalars.mul.coeff_ops"] += _num_len(args[0]) * _num_len(args[1])
        elif name == "scalars.reduce":
            def count(c, args, result):
                c["scalars.reduce.object_calls"] += result.dtype == object
        elif name == "kloosterman.kl_direct":
            def count(c, args, result):
                q = args[0]
                c["kloosterman.kl_direct.terms"] += (q.p ** (q.t - 1) * (q.p - 1)) ** (q.n - 1)
        elif name == "local_factors.check_pairs":
            tables = self.tables

            def count(c, args, result):
                tables[id(args[0])] = args[0]
                c["local_factors.check_pairs.pairs"] += len(args[2])
        else:
            return None
        return count

    def install(self) -> None:
        """Wrap every TARGETS name wherever the lab binds it."""
        mods = {m: importlib.import_module("epsilonlab." + m) for m in MODULES}
        self._caches = {
            "scalars.context_cache": mods["scalars"].get_context,
            "padic.unit_group_cache": mods["padic"].unit_group,
            "characters.conductor_cache": mods["characters"]._conductor_exponent,
            "local_factors.gauss_cache": mods["local_factors"]._gauss_sum_at_level,
            "bessel.charsum_profile_cache": mods["bessel"]._charsum_profile,
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "epsilonlab" or name.startswith("epsilonlab.")]
        for mod, path, name, kind in TARGETS:
            owner = mods[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, kind, self._counter(name))
            for target in modules + ([owner] if outer else []):
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)

    # -- measuring ---------------------------------------------------------------

    def measure(self, fn):
        """Run fn as the root of the trace; returns (result, traced wall seconds)."""
        root = self._stack[0]
        root[0] = 0.0
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.unattributed_s = wall - root[0]
        return result, wall

    def metrics(self, wall: float) -> dict:
        """Per-layer numbers of one traced sweep, named as in BENCHMARK.json."""
        out = {}
        for name in self.calls:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        for mod in MODULES:
            out[mod + ".self_s"] = sum(v for k, v in self.self_s.items()
                                       if k.split(".")[0] == mod)
        out.update(self.counts)
        out["kloosterman.gauss_table.builds"] = self.calls["kloosterman.gauss_table"]
        out["characters.multchar.created"] = self.calls["characters.multchar"]

        durations = sorted(s[3] - s[2] for s in self.spans if s[1] == "kloosterman.kl_via_dft")
        out["kloosterman.kl_via_dft.p50_us"] = _nearest_rank(durations, 0.50) * 1e6
        out["kloosterman.kl_via_dft.p99_us"] = _nearest_rank(durations, 0.99) * 1e6
        busy = sum(s[3] - s[2] for s in self.spans if s[1] == "local_factors.check_pairs")
        pairs = self.counts["local_factors.check_pairs.pairs"]
        out["local_factors.check_pairs.pairs_per_s"] = pairs / busy if busy else 0.0
        out["local_factors.certificate.fallbacks"] = sum(
            t.fallback_count for t in self.tables.values())

        info = {k: f.cache_info() for k, f in self._caches.items()}
        for k, ci in info.items():
            out[k + ".size"] = ci.currsize
            out[k + ".hits"] = ci.hits
            out[k + ".misses"] = ci.misses
        g = info["local_factors.gauss_cache"]
        out["local_factors.gauss_cache.hit_ratio"] = (
            g.hits / (g.hits + g.misses) if g.hits + g.misses else 0.0)

        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = self.unattributed_s
        out["trace.spans"] = len(self.spans)
        return out


def _nearest_rank(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]
