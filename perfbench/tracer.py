"""Times calls into cbbench's public functions from outside the package.

cbbench modules import each other's functions by name (``protocol`` binds
``schemes.compare``, ``schemes`` binds ``numerics.gram_schmidt``, ...), so a
wrapper installed only where a function is defined would miss most calls.
``Tracer.install`` therefore rebinds every ``cbbench.*`` module attribute that
is the original function, in every module that holds it.

Each call of a span-level function becomes a span (name, start, end, parent
span). Hot leaf functions (hundreds of thousands of calls) are aggregated
into a count and a total per parent span instead. Every function also gets
process-wide totals: calls, inclusive busy time and self time (busy time
minus the time of traced children).
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) -> trace name; the RandomStream draw methods share one name
SPAN_FUNCTIONS = {
    ("cli", "main"): "cli.main",
    ("io", "load_config"): "io.load_config",
    ("io", "read_templates"): "io.read_templates",
    ("io", "write_det_points"): "io.write_det_points",
    ("io", "write_report"): "io.write_report",
    ("core", "validate_dataset"): "core.validate_dataset",
    ("synthdata", "generate"): "synthdata.generate",
    ("synthdata", "unprotected_scores"): "synthdata.unprotected_scores",
    ("protocol", "run_scenario"): "protocol.run_scenario",
    ("metrics", "protected_matrix"): "metrics.protected_matrix",
    ("metrics", "compute_det"): "metrics.compute_det",
    ("metrics", "unlinkability"): "metrics.unlinkability",
    ("metrics", "mutual_information"): "metrics.mutual_information",
    ("numerics", "pca_fit"): "numerics.pca_fit",
    ("numerics", "gaussian_entropy"): "numerics.gaussian_entropy",
    ("schemes", "instantiate"): "schemes.instantiate",
}
HOT_FUNCTIONS = {
    ("protocol", "derive_key"): "protocol.derive_key",
    ("schemes", "protect"): "schemes.protect",
    ("schemes", "compare"): "schemes.compare",
    ("numerics", "gram_schmidt"): "numerics.gram_schmidt",
    ("numerics", "derive_stream"): "numerics.derive_stream",
}
STREAM_DRAWS = ("words", "normals", "uniforms", "integers", "permutation")

# which argument names the scheme (and scenario) a call belongs to
_LABELS = {
    "schemes.instantiate": lambda args: args[0].scheme_id.value,
    "schemes.protect": lambda args: args[1].scheme_id.value,
    "schemes.compare": lambda args: args[0].scheme_id.value,
    "protocol.run_scenario": lambda args: f"{args[1].scheme_id.value}/{args[1].scenario.value}",
}


class Tracer:
    """In-memory spans, per-function totals and the layer counters."""

    def __init__(self) -> None:
        # (name, scheme label or None) -> [calls, busy s, self s]
        self.stats: defaultdict = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.spans: list[list] = []  # [name, start, end, parent span index or -1]
        self.leaves: defaultdict = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, s]
        self._stack: list[list] = [[-1, 0.0]]  # [span index, traced child time]
        # distinct work per CLI command, for the useful ratios
        self._keys: set = set()
        self._protected: set = set()
        self._inst_key: dict[int, tuple] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced cbbench function in every module holding it."""
        from cbbench import numerics

        modules = [m for n, m in sys.modules.items() if n == "cbbench" or n.startswith("cbbench.")]
        for table, hot in ((SPAN_FUNCTIONS, False), (HOT_FUNCTIONS, True)):
            for (mod_name, fn_name), name in table.items():
                original = getattr(sys.modules[f"cbbench.{mod_name}"], fn_name)
                traced = self.wrap(name, original, hot=hot)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
        for method in STREAM_DRAWS:
            original = getattr(numerics.RandomStream, method)
            setattr(numerics.RandomStream, method,
                    self.wrap("numerics.stream.draw", original, hot=True))

    def wrap(self, name: str, fn, hot: bool = False):
        """Wrap ``fn``. Its busy time is the bare call; the wrapper's own
        bookkeeping is charged to nobody, so parents' self times stay clean.
        A call that raises is left in its parent's self time; such a run
        fails the correctness gate anyway."""
        stack, spans, leaves, stats = self._stack, self.spans, self.leaves, self.stats
        label_of = _LABELS.get(name)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf_counter()
            parent = stack[-1]
            if hot:
                frame = [parent[0], 0.0]
            else:
                frame = [len(spans), 0.0]
                spans.append([name, 0.0, 0.0, parent[0]])
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dt = end - start
                stat = stats[(name, label_of(args) if label_of is not None else None)]
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if hot:
                    leaf = leaves[(parent[0], name)]
                    leaf[0] += 1
                    leaf[1] += dt
                else:
                    spans[frame[0]][1:3] = start, end
            if after is not None:
                after(args, result)
            parent[1] += perf_counter() - t_in
            return result

        return traced

    # -- layer counters, fed after successful calls -------------------------

    def _after_schemes_instantiate(self, args, inst) -> None:
        key, dim = args[0], args[1]
        ident = (key.seed, key.scheme_id, key.params, dim)
        self._keys.add(ident)
        self._inst_key[id(inst)] = ident

    def _after_schemes_protect(self, args, _result) -> None:
        t, inst = args[0], args[1]
        self._protected.add((t.subject_id, t.sample_id, self._inst_key.get(id(inst))))

    def _after_protocol_run_scenario(self, _args, scores) -> None:
        self.counts["protocol.pairs_scored"] += scores.mated.size + scores.nonmated.size

    def _after_io_read_templates(self, args, _result) -> None:
        self.counts["io.read_templates.bytes"] += os.path.getsize(args[0])

    def _after_io_write_det_points(self, args, _result) -> None:
        self.counts["io.write_det_points.bytes"] += os.path.getsize(args[1])

    def end_command(self) -> None:
        """Close one CLI command: its distinct keys and protections count as
        useful work, repeats within the command as waste."""
        self.counts["schemes.instantiate.distinct"] += len(self._keys)
        self.counts["schemes.protect.distinct"] += len(self._protected)
        self._keys.clear()
        self._protected.clear()
        self._inst_key.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function totals, per-(function, scheme) totals and counters."""
        totals: defaultdict = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _label), stat in self.stats.items():
            total = totals[name]
            for i, v in enumerate(stat):
                total[i] += v
        return {
            "functions": dict(totals),
            "by_label": [[name, label, *stat] for (name, label), stat in self.stats.items()
                         if label is not None],
            "counts": dict(self.counts),
        }

    def span_dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[parent, name, n, s] for (parent, name), (n, s) in self.leaves.items()],
        }
