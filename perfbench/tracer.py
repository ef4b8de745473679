"""Spans around rccs's public functions, installed from outside the program.

``equivalences``, ``encoding`` and ``cli`` import ``machine`` and
``structures`` functions by name, so a wrapper on the defining module
alone would miss most calls. ``install`` replaces every module-level
binding of each traced function in every rccs module, records each
patched site in ``sites``, and ``uninstall`` puts the originals back.

A span is (function, start, end, parent span, operation). Spans are kept
in flat arrays in memory and written out when the run ends. A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from time import perf_counter

from rccs import cli, encoding, equivalences, machine, structures, terms

MODULES = {
    "cli": cli,
    "terms": terms,
    "machine": machine,
    "structures": structures,
    "encoding": encoding,
    "equivalences": equivalences,
}

# The public functions the traced run times, by layer.
TRACED = {
    "cli": ("run",),
    "terms": ("parse_term", "canonical_term"),
    "machine": (
        "parse_process",
        "exec_form",
        "normal_form",
        "fwd_steps",
        "bwd_steps",
        "rollback",
        "origin",
        "replay",
    ),
    "structures": (
        "product",
        "parallel",
        "validate_axioms",
        "iso",
        "to_json",
        "from_json",
    ),
    "encoding": ("encode_ccs", "encode_rccs", "is_singly_labelled"),
    "equivalences": (
        "matchings",
        "hhpb",
        "rccs_bfb_bisim",
        "bounded_congruence",
        "discriminating_context",
    ),
}

# machine's unbounded lru_caches, whose hit ratios the run reports.
CACHED = ("exec_form", "normal_form", "fwd_steps", "bwd_steps")

FUNCTIONS = [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]


def _product_events(a, b) -> int:
    return len(a.events) + len(b.events) + len(a.events) * len(b.events)


def _bijections(a, x1, b, x2) -> int:
    """Label-preserving bijections between x1 and x2."""
    left = Counter(a.labels[e] for e in x1)
    if len(x1) != len(x2) or left != Counter(b.labels[e] for e in x2):
        return 0
    return math.prod(math.factorial(n) for n in left.values())


class Tracer:
    def __init__(self):
        self.fid = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.counts = Counter()
        self.capped_ops: set[int] = set()  # ops where a product hit the cap
        self.refused_ops: set[int] = set()
        self.sites: dict[str, list[str]] = {}
        self._patched: list[tuple] = []
        self._originals: dict = {}
        self._cache_before: dict = {}
        self._cache_after: dict = {}

    # -- hooks that count work where it happens -------------------------

    def _on_product(self, args, result, exc):
        self.counts["structures.product.events"] += _product_events(*args[:2])
        if isinstance(exc, structures.EventCapExceeded):
            self.capped_ops.add(self.current_op)

    def _on_parallel(self, args, result, exc):
        if result is not None:
            self.counts["parallel.kept"] += len(result.events)

    def _on_validate_axioms(self, args, result, exc):
        self.counts["structures.validate_axioms.configs"] += len(args[0].configs)

    def _on_matchings(self, args, result, exc):
        self.counts["matchings.bijections"] += _bijections(*args[:4])
        if result is not None:
            self.counts["equivalences.matchings.results"] += len(result)

    # -- installation ---------------------------------------------------

    def _wrap(self, original, fid: int, hook):
        fids, parents, ops = self.fid, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack
        tracer = self

        def traced(*args, **kwargs):
            index = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            begin = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                ends[index] = perf_counter()
                starts[index] = begin
                stack.pop()
                if hook is not None:
                    hook(args, None, exc)
                raise
            ends[index] = perf_counter()
            starts[index] = begin
            stack.pop()
            if hook is not None:
                hook(args, result, None)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "structures.product": self._on_product,
            "structures.parallel": self._on_parallel,
            "structures.validate_axioms": self._on_validate_axioms,
            "equivalences.matchings": self._on_matchings,
        }
        for fid, qualified in enumerate(FUNCTIONS):
            layer, name = qualified.split(".")
            original = getattr(MODULES[layer], name, None)
            if original is None:  # gone from the program: its metrics read 0
                continue
            self._originals[qualified] = original
            wrapper = self._wrap(original, fid, hooks.get(qualified))
            self.sites[qualified] = []
            for module_name, module in MODULES.items():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
                        self.sites[qualified].append(f"{module_name}.{attr}")
        self._cache_before = self._cache_info()

    def _cache_info(self) -> dict:
        """(hits, misses, entries) of each of machine's caches still there."""
        out = {}
        for name in CACHED:
            info = getattr(self._originals.get(f"machine.{name}"), "cache_info", None)
            if info is not None:
                hits, misses, _, entries = info()
                out[name] = (hits, misses, entries)
        return out

    def uninstall(self) -> None:
        self._cache_after = self._cache_info()
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def begin_op(self, index: int) -> None:
        """Mark an operation boundary; a span cut short by a timeout
        cannot unbalance the next operation's parents."""
        self.current_op = index
        del self.stack[1:]

    def op_refused(self, index: int) -> None:
        self.refused_ops.add(index)

    # -- results --------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Self time per traced function: the durations of its spans minus
        the durations of their child spans. A span left open by a timeout
        counts as empty."""
        fid, parent, start, end = self.fid, self.parent, self.start, self.end
        n = len(fid)
        duration = array("d", (end[i] - start[i] if end[i] else 0.0 for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += duration[i]
        totals = [0.0] * len(FUNCTIONS)
        for i in range(n):
            totals[fid[i]] += duration[i] - child[i]
        return totals

    def metrics(self) -> dict:
        self_s = self.self_seconds()
        calls = Counter(self.fid)
        out: dict = {}
        layer_s = Counter()
        for fid, qualified in enumerate(FUNCTIONS):
            out[f"{qualified}.calls"] = (calls[fid], "count")
            out[f"{qualified}.self_ms"] = (self_s[fid] * 1e3, "ms")
            layer_s[qualified.split(".")[0]] += self_s[fid]
        for layer in TRACED:
            out[f"{layer}.self_ms"] = (layer_s[layer] * 1e3, "ms")
        delta = {
            name: (after[0] - self._cache_before[name][0], after[1] - self._cache_before[name][1])
            for name, after in self._cache_after.items()
        }
        for name in CACHED:
            hits, misses = delta.get(name, (0, 0))
            out[f"machine.{name}.hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0,
                "ratio",
            )
        out["machine.states"] = (delta.get("fwd_steps", (0, 0))[1], "count")
        out["machine.cache_entries"] = (
            sum(entries for _, _, entries in self._cache_after.values()),
            "count",
        )
        c = self.counts
        out["structures.product.events"] = (c["structures.product.events"], "count")
        # Events parallel kept per product event built (product is called
        # only by parallel); with no product built nothing was wasted.
        built = c["structures.product.events"]
        out["structures.parallel.kept_ratio"] = (
            c["parallel.kept"] / built if built else 1.0,
            "ratio",
        )
        out["structures.validate_axioms.configs"] = (
            c["structures.validate_axioms.configs"],
            "count",
        )
        intermediate = len(self.refused_ops & self.capped_ops)
        out["structures.refusals.intermediate"] = (intermediate, "count")
        out["structures.refusals.final"] = (len(self.refused_ops) - intermediate, "count")
        out["equivalences.matchings.results"] = (c["equivalences.matchings.results"], "count")
        out["equivalences.matchings.useful_ratio"] = (
            c["equivalences.matchings.results"] / c["matchings.bijections"]
            if c["matchings.bijections"]
            else 0.0,
            "ratio",
        )
        self.bases = {
            "parallel_events_built": built,
            "parallel_events_kept": c["parallel.kept"],
            "matchings_bijections": c["matchings.bijections"],
        }
        return out

    def write_spans(self, path: str) -> dict:
        """Write the spans as five raw arrays after a one-line JSON header."""
        header = {
            "functions": FUNCTIONS,
            "count": len(self.fid),
            "arrays": [["fid", "H"], ["parent", "i"], ["op", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for values in (self.fid, self.parent, self.op, self.start, self.end):
                values.tofile(handle)
        return {"path": path, "count": len(self.fid)}
