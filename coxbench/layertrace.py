"""Per-layer self time and counts, by wrapping the program's public functions.

`install()` replaces each traced function with a wrapper everywhere the
function object is bound: in its own module, in every `coxcoh` module that
imported it by name, and on its class for methods.  A span's self time is
its duration minus the time of the traced spans it called.  Totals stay in
memory; `Tracer.metrics()` turns them into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute, layer).  A layer of None only counts calls.
SPANS = [
    ("cli", "main", "cli.main"),
    ("fan", "parse_fan", "fan.parse"),
    ("fan", "validate_fan", "fan.validate"),
    ("fan", "irrelevant_generators", "fan.irrelevant"),
    ("grading", "GradingGroup.__init__", "grading.group"),
    ("grading", "GradingGroup.enumerate_degrees", "grading.enumerate_degrees"),
    ("sheaf", "cohomology_of_U", "sheaf.cohomology_of_U"),
    ("sheaf", "sheaf_cohomology_dim", "sheaf.cohomology_dim"),
    ("localcoh", "pattern_table", "localcoh.pattern_table"),
    ("localcoh", "pattern_cohomology", None),
    ("kernels", "surviving_masks", "kernels.surviving_masks"),
    ("linalg", "rational_rank", "linalg.rational_rank"),
    ("linalg", "sparse_rank_exact", "linalg.sparse_rank_exact"),
    ("ring", "component_dimension", "ring.component_dimension"),
    ("homalg", "free_resolution", "homalg.free_resolution"),
    ("homalg", "minimal_generators", "homalg.minimal_generators"),
    ("homalg", "ext_presentation", "homalg.ext_presentation"),
    ("homalg", "hilbert_function_box", "homalg.hilbert_function_box"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "syzygy", "groebner.syzygy"),
    ("groebner", "kernel_of_quotient_map", "groebner.kernel_of_quotient_map"),
    ("groebner", "divide", None),
]

# the degree-0 consistency check is sheaf_cohomology_dim called by cohomology_of_U
RENAME_UNDER = {("sheaf.cohomology_dim", "sheaf.cohomology_of_U"): "sheaf.degree0_check"}

TIMES = [
    "cli.main", "fan.parse", "fan.validate", "fan.irrelevant", "grading.group",
    "sheaf.cohomology_of_U", "sheaf.degree0_check", "sheaf.cohomology_dim",
    "localcoh.pattern_table",
    "kernels.surviving_masks", "linalg.sparse_rank_exact", "grading.enumerate_degrees",
    "ring.component_dimension", "linalg.rational_rank", "homalg.free_resolution",
    "homalg.minimal_generators",
    "homalg.ext_presentation", "homalg.hilbert_function_box", "groebner.buchberger",
    "groebner.syzygy", "groebner.kernel_of_quotient_map",
]
COUNTS = [
    "localcoh.pattern_cohomology_calls", "grading.enumerate_degrees_calls",
    "grading.points_returned", "linalg.rational_rank_calls",
    "homalg.resolution_rank_sum", "homalg.hilbert_degrees",
    "groebner.buchberger_calls", "groebner.divide_calls",
]
# counts taken from a layer's results: layer -> (counter, size of one result)
RESULT_COUNTS = {
    "grading.enumerate_degrees": ("grading.points_returned", len),
    "homalg.free_resolution": ("homalg.resolution_rank_sum", lambda res: sum(res.ranks)),
    "homalg.hilbert_function_box": ("homalg.hilbert_degrees", len),
}
CALL_COUNTS = {
    "localcoh.pattern_cohomology": "localcoh.pattern_cohomology_calls",
    "grading.enumerate_degrees": "grading.enumerate_degrees_calls",
    "linalg.rational_rank": "linalg.rational_rank_calls",
    "groebner.buchberger": "groebner.buchberger_calls",
    "groebner.divide": "groebner.divide_calls",
}


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(TIMES, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []  # [layer, time spent in traced children]

    def _span(self, layer, fn):
        stack, clock = self._stack, time.perf_counter
        result_count = RESULT_COUNTS.get(layer)
        call_count = CALL_COUNTS.get(layer)

        def traced(*args, **kwargs):
            name = layer
            if stack:
                name = RENAME_UNDER.get((layer, stack[-1][0]), layer)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if call_count:
                self.counts[call_count] += 1
            if result_count:
                self.counts[result_count[0]] += result_count[1](result)
            return result

        return traced

    def _counter(self, counter, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every function in SPANS, importing the modules that hold them."""
        for mod_name, _, _ in SPANS:
            importlib.import_module("coxcoh." + mod_name)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "coxcoh" or name.startswith("coxcoh."))]
        for mod_name, attr, layer in SPANS:
            module = sys.modules["coxcoh." + mod_name]
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, method or attr)
            if layer is None:
                wrapped = self._counter(CALL_COUNTS["%s.%s" % (mod_name, attr)], original)
            else:
                wrapped = self._span(layer, original)
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def metrics(self):
        out = {"%s_s" % k: {"value": v, "unit": "s"} for k, v in self.self_s.items()}
        out.update({k: {"value": v, "unit": "count"} for k, v in self.counts.items()})
        return out
