"""Spans and counters recorded from outside signedposets.

`Tracer.install` replaces chosen public functions with wrappers wherever the
package's modules look them up (every module attribute bound to the original
function object, plus the entries of `verify.ALL_CHECKS`), and `restore`
puts the originals back.  A span is `[name, start, end, parent, op]`; the
first part of the name, up to the dot, is the layer (the module).  Spans stay
in memory until `dump`.  Functions called once per lattice point or per LP
probe are counted instead of spanned, so the traced run stays close to the
untraced one.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function) -> span name, for functions that get a span.
SPANNED = {
    ("linalg", "solve_standard"): "linalg.solve_standard",
    ("posets", "plc"): "posets.plc",
    ("posets", "minimal_representation"): "posets.minimal_representation",
    ("geometry", "row_is_necessary"): "geometry.row_is_necessary",
    ("jordan", "jordan_holder"): "jordan.jordan_holder",
    ("chains", "chain_polytope"): "chains.chain_polytope",
    ("gorenstein", "fischer_representation"): "gorenstein.fischer_representation",
    ("posetfile", "parse_poset"): "posetfile.parse_poset",
}
# Hot inner calls: counted only.
COUNTED = {
    ("posets", "cone_contains"): "posets.cone_contains",
    ("jordan", "half_open_contains"): "jordan.half_open_contains",
    ("chains", "enumerate_chains"): "chains.enumerate_chains",
}
COUNT_POINTS = "ehrhart.count_points"
LAYERS = (
    "verify", "linalg", "posets", "geometry", "ehrhart", "jordan",
    "chains", "gorenstein", "posetfile", "cli",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None  # operation id; None while setting up
        self._stack: list[int] = []
        self._counts = {True: Counter(), False: Counter()}  # keyed by "in set-up"
        self._cells: dict[str, list[int]] = {}  # counts since the last install
        self._setup = True  # whether the current install covers the set-up
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def wrap_span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def wrap_count(self, name, fn):
        cell = self._cells.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap_cached(self, name, fn):
        """Span plus a miss counter read from the lru_cache statistics."""
        inner = self.wrap_span(name, fn)
        info, cell = fn.cache_info, self._cells.setdefault(name + ".misses", [0])

        def cached(*args, **kwargs):
            before = info().misses
            try:
                return inner(*args, **kwargs)
            finally:
                cell[0] += info().misses - before

        return cached

    def run_span(self, name, fn, *args, **kwargs):
        """A span around one call made by the benchmark itself."""
        return self.wrap_span(name, fn)(*args, **kwargs)

    # -- patching ----------------------------------------------------------
    def _replace(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "signedposets" and not modname.startswith("signedposets."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self, setup: bool = False) -> None:
        """Wrap the functions; counts made until `restore` belong to the set-up if `setup`."""
        from signedposets import ehrhart, verify

        self._setup = setup
        pkg = sys.modules["signedposets"]
        for (mod, fn), name in SPANNED.items():
            self._replace(getattr(getattr(pkg, mod), fn),
                          self.wrap_span(name, getattr(getattr(pkg, mod), fn)))
        for (mod, fn), name in COUNTED.items():
            self._replace(getattr(getattr(pkg, mod), fn),
                          self.wrap_count(name, getattr(getattr(pkg, mod), fn)))
        self._replace(ehrhart.count_points, self.wrap_cached(COUNT_POINTS, ehrhart.count_points))
        checks = []
        for check, fn in verify.ALL_CHECKS:
            wrapped = self.wrap_span(f"verify.{check}", fn)
            self._replace(fn, wrapped)
            checks.append((check, wrapped))
        self._patches.append((verify, "ALL_CHECKS", verify.ALL_CHECKS))
        verify.ALL_CHECKS = tuple(checks)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        for name, cell in self._cells.items():
            self._counts[self._setup][name] += cell[0]
        self._cells.clear()

    # -- reading -----------------------------------------------------------
    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "span_fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": {"setup": self._counts[True], "ops": self._counts[False]},
                },
                handle,
            )

    def _child_time(self) -> dict:
        """Span index -> seconds covered by its child spans (which never overlap)."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        return child

    def per_op_metrics(self, op_span: str, check_names) -> dict:
        """Per-operation means over the spans recorded with an operation id."""
        ops = sorted({s[4] for s in self.spans if s[4] is not None and s[0] == op_span})
        nops = len(ops) or 1
        dur = defaultdict(float)  # span name -> total seconds
        calls = Counter()
        child = self._child_time()
        self_time = defaultdict(float)
        op_time = defaultdict(float)  # op id -> op span seconds
        check_time = defaultdict(float)  # op id -> seconds in the checks
        checks = {f"verify.{c}" for c in check_names}
        for k, s in enumerate(self.spans):
            if s[4] is None:
                continue
            d = s[2] - s[1]
            dur[s[0]] += d
            calls[s[0]] += 1
            self_time[s[0].split(".")[0]] += d - child[k]
            if s[0] == op_span:
                op_time[s[4]] += d
            elif s[0] in checks:
                check_time[s[4]] += d
        remainders = [op_time[o] - check_time[o] for o in ops] or [0.0]
        ops_counts = self._counts[False]

        def ms(total):
            return 1000.0 * total / nops

        m = {}
        for c in check_names:
            m[f"verify.{c}.ms"] = (ms(dur[f"verify.{c}"]), "ms")
        m["trace.op.ms"] = (ms(sum(op_time.values())), "ms")
        m["trace.remainder.ms"] = (ms(sum(remainders)), "ms")
        m["trace.remainder_max.ms"] = (1000.0 * max(remainders), "ms")
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = (ms(self_time[layer]), "ms")
        for name in ("linalg.solve_standard", "posets.plc", "geometry.row_is_necessary",
                     COUNT_POINTS, "jordan.jordan_holder"):
            m[f"{name}.calls"] = (calls[name] / nops, "count")
            m[f"{name}.ms"] = (ms(dur[name]), "ms")
        for name in ("posets.minimal_representation", "chains.chain_polytope",
                     "gorenstein.fischer_representation", "posetfile.parse_poset"):
            m[f"{name}.ms"] = (ms(dur[name]), "ms")
        for name in COUNTED.values():
            m[f"{name}.calls"] = (ops_counts[name] / nops, "count")
        misses = ops_counts[COUNT_POINTS + ".misses"]
        m[f"{COUNT_POINTS}.misses"] = (misses / nops, "count")
        total = calls[COUNT_POINTS]
        m[f"{COUNT_POINTS}.hit_ratio"] = ((total - misses) / total if total else 0.0, "ratio")
        return m, len(ops)

    def setup_metrics(self, setups: int) -> dict:
        """Per-set-up figures from the spans and counts recorded with no operation id."""
        calls = Counter(s[0] for s in self.spans if s[4] is None)
        child = self._child_time()
        enum = [k for k, s in enumerate(self.spans)
                if s[4] is None and s[0] == "catalog.iter_signed_posets"]
        durations = [self.spans[k][2] - self.spans[k][1] for k in enum] or [0.0]
        own = [d - child[k] for k, d in zip(enum, durations)] or [0.0]
        return {
            "catalog.enumerate_s": (statistics.median(durations), "s"),
            "catalog.self_s": (statistics.median(own), "s"),
            "setup.linalg.solve_standard.calls": (calls["linalg.solve_standard"] / setups, "count"),
            "setup.posets.plc.calls": (calls["posets.plc"] / setups, "count"),
            "setup.posets.cone_contains.calls": (
                self._counts[True]["posets.cone_contains"] / setups, "count"),
        }
