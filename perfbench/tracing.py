"""Layer spans for the traced benchmark run.

`install` wraps the calls into each `equifuse` module from outside the
program: every module attribute that refers to a wrapped function is
rebound, so `fusion.character_table` and `mackey.double_coset_reps` are
traced as well as `chartab.character_table`.  The fusion stages have no
public entry point, so three `fusion._Engine` methods are patched on the
class.  Per-element helpers (`Subgroup` methods, `inner_product`,
`_Engine.component_at`, `MackeyFamily.conjugation`, `AxiomReport.record`)
are left unwrapped: their time counts as self time of the calling layer.

Spans stay in memory as `[name, parent index, start, end]` and are written
out by the worker when the job ends; `layer_metrics` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# layer -> (module under `equifuse`, wrapped callables in that module)
TARGETS = {
    "cli": ("cli", ["main"]),
    "presets": ("presets", [
        "parse_group_spec", "group_preset", "group_from_json_dict", "load_action",
    ]),
    "permgrp": ("permgrp", [
        "Group.__init__", "build_group", "subgroup_lattice", "double_coset_reps",
    ]),
    "chartab": ("chartab", [
        "make_context", "character_table", "restrict", "induce", "decompose",
        "conjugate_cf", "pointwise_product",
    ]),
    "kernels": ("_kernels", [
        "mult_table", "class_matrix", "induced_sums", "rref_mod", "nullspace_mod",
        "matmul_mod",
    ]),
    "fusion": ("fusion", [
        "fusion_ring", "fuse", "simples", "invariant_basis", "eq_restrict",
        "eq_induce", "eq_conjugate", "_Engine.m_irr", "_Engine.fuse_pair",
        "_Engine.fuse_invariants",
    ]),
    "mackey": ("mackey", [
        "char_ring_family", "equivariant_k0_family", "verify_mackey_axioms",
        "verify_green_axioms",
    ]),
}
LAYERS = tuple(TARGETS)
EQ_MAPS = ("fusion.eq_restrict", "fusion.eq_induce", "fusion.eq_conjugate")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _span_name(layer: str, attr: str) -> str:
    parts = attr.split(".")
    return f"{layer}.{parts[0] if parts[-1] == '__init__' else parts[-1]}"


class Tracer:
    """Span list plus cache-hit counters for the two cached entry points."""

    def __init__(self):
        self.spans = []
        self.hits = Counter()
        self._stack = [-1]
        self._m_keys = set()

    def _table_hit(self, G, ctx, *_args, **_kwargs) -> bool:
        return ctx.p in G._char_tables

    def _m_irr_hit(self, _engine, H, g, h, i, j) -> bool:
        key = (H.key, g, h, i, j)
        if key in self._m_keys:
            return True
        self._m_keys.add(key)
        return False

    def wrap(self, fn, name, hit=None):
        spans, stack, hits = self.spans, self._stack, self.hits

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hit is not None and hit(*args, **kwargs):
                hits[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = [name, parent, t0, _now()]
                stack.pop()

        return traced


def install() -> Tracer:
    """Wrap every target in the imported `equifuse` package; returns the
    tracer that collects the spans."""
    tracer = Tracer()
    hit_fns = {
        "chartab.character_table": tracer._table_hit,
        "fusion.m_irr": tracer._m_irr_hit,
    }
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "equifuse" or n.startswith("equifuse."))]
    for layer, (modname, attrs) in TARGETS.items():
        module = sys.modules[f"equifuse.{modname}"]
        for attr in attrs:
            name = _span_name(layer, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(original, name, hit_fns.get(name)))
                continue
            original = getattr(module, attr)
            traced = tracer.wrap(original, name, hit_fns.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
    return tracer


def layer_metrics(spans, hits) -> dict:
    """Per-layer metrics from one traced job.

    A span's exclusive time is its duration minus that of its direct
    children, so the exclusive times of all spans partition the root span
    (`cli.main`).  A layer's `self_s` sums the exclusive time of its spans;
    a function's inclusive `.s` counts only its outermost spans, so
    recursion is not counted twice.
    """
    child = [0.0] * len(spans)
    for _name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s = dict.fromkeys(LAYERS, 0.0)
    exclusive = defaultdict(float)
    inclusive = defaultdict(float)
    calls = Counter()
    for idx, (name, parent, t0, t1) in enumerate(spans):
        ex = (t1 - t0) - child[idx]
        self_s[name.split(".", 1)[0]] += ex
        exclusive[name] += ex
        calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            inclusive[name] += t1 - t0

    def ratio(name):
        return hits.get(name, 0) / calls[name] if calls[name] else 0.0

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for name in (
        "permgrp.build_group", "permgrp.subgroup_lattice", "permgrp.double_coset_reps",
        "chartab.character_table", "chartab.induce", "chartab.decompose",
        "kernels.mult_table", "fusion.m_irr", "fusion.fuse_pair",
        "fusion.fuse_invariants",
    ):
        out[f"{name}.s"] = inclusive[name]
    for name in (
        "permgrp.double_coset_reps", "chartab.character_table", "chartab.induce",
        "chartab.decompose", "kernels.induced_sums", "kernels.rref_mod",
        "fusion.m_irr", "fusion.fuse_pair", "fusion.fuse_invariants",
    ):
        out[f"{name}.calls"] = calls[name]
    out["chartab.character_table.hit_ratio"] = ratio("chartab.character_table")
    out["fusion.m_irr.hit_ratio"] = ratio("fusion.m_irr")
    out["fusion.ring_checks_s"] = exclusive["fusion.fusion_ring"]
    out["fusion.eq_maps.s"] = sum(inclusive[n] for n in EQ_MAPS)
    return out
