"""Span tracing of cheegerlab's layers from outside the package.

A traced run replaces each public function listed in WRAPPED with a
wrapper under the name its callers look it up by (``from .x import f``
binds ``f`` in the caller's module, so the wrapper is installed there).
Each call records one span (name, start, end, parent) in memory; spans
are written out once the run ends.  Nothing under ``src/`` changes.

A layer's self time is the summed duration of its spans minus the time
their child spans cover.  The op span that the benchmark opens around
each operation belongs to the layer ``harness``: its self time is the
benchmark's own share, so the self times of all layers plus the harness
add up to the traced op time exactly.
"""

import collections
import contextlib
import importlib
import json
import time

# (module the caller looks the name up in, attribute, layer).  Span names
# are "cheegerlab.<module>.<attribute>".
WRAPPED = (
    ("cli", "main", "cli"),
    ("cli", "run_corpus", "bounds"),
    ("cli", "run_checks_on_graph", "bounds"),
    ("cli", "check_product_theorem", "bounds"),
    ("cli", "rho_exact", "cheeger.search"),
    ("cli", "rho_signed_exact", "cheeger.signed_search"),
    ("cli", "rho_upper_nodal_sweep", "cheeger.sweep"),
    ("cli", "genericity_frequency", "perturb"),
    ("cli", "laplacian_spectrum", "spectral"),
    ("cli", "adjacency_eta", "spectral"),
    ("cli", "load_graph", "graph"),
    ("cli", "validate", "graph"),
    ("cli", "classify", "graph"),
    ("cli", "cyclomatic", "graph"),
    ("cli", "degree_profile", "graph"),
    ("cli", "generate", "graph"),
    ("cli", "to_json_dict", "graph"),
    ("bounds", "run_checks_on_graph", "bounds"),
    ("bounds", "check_theorem_main", "bounds"),
    ("bounds", "check_nodal_count_bounds", "bounds"),
    ("bounds", "check_lemma_nodal_cheeger", "bounds"),
    ("bounds", "check_lower_bound", "bounds"),
    ("bounds", "check_basics", "bounds"),
    ("bounds", "check_product_theorem", "bounds"),
    ("bounds", "rho_profile", "cheeger.profile"),
    ("bounds", "rho_signed_profile", "cheeger.signed_profile"),
    ("bounds", "rho_exact", "cheeger.search"),
    ("bounds", "rho_signed_exact", "cheeger.signed_search"),
    ("bounds", "rho_upper_nodal_sweep", "cheeger.sweep"),
    ("bounds", "laplacian_spectrum", "spectral"),
    ("bounds", "adjacency_eta", "spectral"),
    ("bounds", "strong_nodal", "nodal"),
    ("bounds", "weak_nodal", "nodal"),
    ("bounds", "perturb", "perturb"),
    ("bounds", "genericity_report", "perturb"),
    ("bounds", "require_valid", "graph"),
    ("bounds", "classify", "graph"),
    ("bounds", "cyclomatic", "graph"),
    ("bounds", "degree_profile", "graph"),
    ("bounds", "generate", "graph"),
    ("bounds", "is_complete", "graph"),
    ("bounds", "product", "graph"),
    ("bounds", "with_random_signature", "graph"),
    ("perturb", "perturb", "perturb"),
    ("perturb", "genericity_report", "perturb"),
    ("perturb", "laplacian_spectrum", "spectral"),
    ("perturb", "require_valid", "graph"),
    ("spectral", "eig_sym", "spectral"),
    ("spectral", "require_valid", "graph"),
    ("cheeger", "strong_nodal", "nodal"),
    ("cheeger", "require_valid", "graph"),
)

LAYERS = (
    "graph",
    "spectral",
    "nodal",
    "cheeger.profile",
    "cheeger.signed_profile",
    "cheeger.search",
    "cheeger.signed_search",
    "cheeger.sweep",
    "perturb",
    "bounds",
    "cli",
)
HARNESS = "harness"
_CHECKS = {
    "check_theorem_main",
    "check_nodal_count_bounds",
    "check_lemma_nodal_cheeger",
    "check_lower_bound",
    "check_basics",
    "check_product_theorem",
}
_SOLVES = {"laplacian_spectrum", "adjacency_eta"}
# The lru caches in cheegerlab.bounds whose hit counts are reported.
BOUNDS_CACHES = ("_spectrum", "_profile_dp", "_signed_profile_dp")


class Tracer:
    """In-memory span recorder plus the per-layer work counters."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list[tuple[int, float, float, int, int]] = []  # name, start, end, parent, op
        self.stack: list[int] = []
        self.op = -1
        # "<layer>.iters", "<layer>.states", "bounds.records", "spectral.solves"
        self.work: collections.Counter = collections.Counter()
        self.solve_inputs: set = set()
        self.harness_id = self._name_id("op", HARNESS)
        # (module, attribute, original, wrapper); absent names are reported.
        self._wrappers = []
        self.missing = []
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(f"cheegerlab.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"cheegerlab.{module_name}.{attr}")
                continue
            wrapper = self._wrap(fn, f"cheegerlab.{module_name}.{attr}", layer, attr)
            self._wrappers.append((module, attr, fn, wrapper))

    # -- spans ---------------------------------------------------------
    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def open(self, name_id: int) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name_id, time.perf_counter(), 0.0, parent, self.op))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name_id, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name_id, start, end, parent, op)

    @contextlib.contextmanager
    def op_span(self, op: int):
        """The root span of one benchmark operation."""
        self.op = op
        idx = self.open(self.harness_id)
        try:
            yield
        finally:
            self.close(idx)
            self.op = -1

    # -- wrapping ------------------------------------------------------
    def install(self) -> None:
        for module, attr, _, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._wrappers:
            setattr(module, attr, fn)

    def _wrap(self, fn, name: str, layer: str, attr: str):
        name_id = self._name_id(name, layer)
        count = self._counter(layer, attr)

        def wrapper(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, layer: str, attr: str):
        work = self.work
        if layer in ("cheeger.profile", "cheeger.signed_profile"):
            def count(result, args, kwargs):
                work[f"{layer}.iters"] += result[0].states
            return count
        if layer in ("cheeger.search", "cheeger.signed_search"):
            def count(result, args, kwargs):
                work[f"{layer}.states"] += result.states
            return count
        if attr in _CHECKS:
            def count(result, args, kwargs):
                work["bounds.records"] += len(result) if isinstance(result, list) else 1
            return count
        if attr in _SOLVES:
            def count(result, args, kwargs):
                work["spectral.solves"] += 1
                # The matrix is a function of the kind of solve and the graph.
                self.solve_inputs.add((attr, args[0] if args else kwargs.get("g")))
            return count
        return None

    # -- reporting -----------------------------------------------------
    def layer_table(self) -> dict:
        """Per-layer calls (entries from another layer) and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS + (HARNESS,)}
        op_time = 0.0
        for idx, (name_id, start, end, parent, _) in enumerate(self.spans):
            layer = self.layer_of[name_id]
            row = table[layer]
            row["self_s"] += (end - start) - child_time[idx]
            if parent < 0:
                op_time += end - start
                row["calls"] += 1
            elif self.layer_of[self.spans[parent][0]] != layer:
                row["calls"] += 1
        table[HARNESS]["op_s"] = op_time
        return table

    def write(self, path: str) -> None:
        """One JSON object per span: name, start, end, parent index, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": self.names[name_id], "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                )
                fh.write("\n")

