"""Span recorder for the traced run.

The traced run wraps public steinkit functions from outside: each name is
replaced in its defining module and in every steinkit module that
imported it by name, so internal calls are traced too.  A span records
(name, start, end, parent span, operation id); spans stay in memory and
are reduced to per-layer metrics when the run ends.  ExtRational and
MobiusMap constructions are counted, not spanned, and not while harness
code runs inside an operation (``Recorder.paused``).  Nothing here is
installed during untraced runs.
"""

import contextlib
import sys
import time
from collections import Counter

# (module, function, span name); the presentation rewrites share one name
TRACED = (
    ("front", "parse_front", "front.parse_front"),
    ("front", "component_stats", "front.component_stats"),
    ("front", "apply_move", "front.apply_move"),
    ("front", "stabilize", "front.stabilize"),
    ("front", "surger_handles", "front.surger_handles"),
    ("front", "serialize_front", "front.serialize_front"),
    ("invariants", "theta", "invariants.theta"),
    ("invariants", "theta_f0_and_d", "invariants.theta_f0_and_d"),
    ("invariants", "characteristic_sublinks", "invariants.characteristic_sublinks"),
    ("invariants", "gamma", "invariants.gamma"),
    ("numerics", "smith_normal_form", "numerics.smith_normal_form"),
    ("numerics", "inertia", "numerics.inertia"),
    ("numerics", "solve_gf2_affine", "numerics.solve_gf2_affine"),
    ("numerics", "neg_continued_fraction", "numerics.neg_continued_fraction"),
    ("presentation", "parse_surgery", "presentation.parse_surgery"),
    ("presentation", "h1", "presentation.h1"),
    ("presentation", "expand_rational", "presentation.expand_rational"),
    ("presentation", "linking_form", "presentation.linking_form"),
    ("presentation", "stein_plan", "presentation.stein_plan"),
    ("presentation", "rolfsen_twist", "presentation.rewrite"),
    ("presentation", "slam_dunk", "presentation.rewrite"),
    ("presentation", "slam_dunk_inverse", "presentation.rewrite"),
    ("presentation", "blow_down", "presentation.rewrite"),
    ("families", "decide_seifert", "families.decide_seifert"),
    ("families", "n_function", "families.n_function"),
    ("families", "brieskorn", "families.brieskorn"),
    ("families", "decide_borromean", "families.decide_borromean"),
    ("cli", "main", "cli.main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACED))

# per-layer metrics of the traced run: name -> unit
PER_LAYER = {}
for _name in SPAN_NAMES:
    PER_LAYER[_name + ".calls"] = "count"
    PER_LAYER[_name + ".self_pct"] = "%"
PER_LAYER.update({
    "front.apply_move.applied_ratio": "ratio",
    "front.events_max": "count",
    "front.components_max": "count",
    "invariants.theta.dim_max": "count",
    "invariants.characteristic_sublinks.count": "count",
    "numerics.smith_normal_form.dim_max": "count",
    "numerics.smith_normal_form.witness_bits_max": "bits",
    "numerics.neg_continued_fraction.terms_max": "count",
    "numerics.ExtRational.new": "count",
    "numerics.MobiusMap.new": "count",
    "presentation.h1.failed": "count",
    "presentation.expand_rational.dim_max": "count",
    "presentation.rewrite.applied_ratio": "ratio",
    "families.verdict.YES": "count",
    "families.verdict.UNKNOWN": "count",
    "cli.spawn_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_pct": "%",
})


def _bits(rows):
    return max((abs(v).bit_length() for row in rows for v in row), default=0)


def _observe(name, args, result, sizes):
    """Size counters read off arguments and results."""
    def peak(key, value):
        sizes[key] = max(sizes.get(key, 0), value)

    if name.startswith("front."):
        d = result if name == "front.parse_front" else args[0] if args else None
        if hasattr(d, "events"):
            peak("front.events_max", len(d.events))
        if name == "front.component_stats":
            peak("front.components_max", len(result))
    elif name == "invariants.theta":
        peak("invariants.theta.dim_max", args[0].m + args[0].n1)
    elif name == "invariants.characteristic_sublinks":
        sizes["invariants.characteristic_sublinks.count"] = (
            sizes.get("invariants.characteristic_sublinks.count", 0) + len(result)
        )
    elif name == "numerics.smith_normal_form":
        peak("numerics.smith_normal_form.dim_max", max(len(result.left), len(result.right)))
        peak("numerics.smith_normal_form.witness_bits_max", max(_bits(result.left), _bits(result.right)))
    elif name == "numerics.neg_continued_fraction":
        peak("numerics.neg_continued_fraction.terms_max", len(result.terms))
    elif name == "presentation.expand_rational":
        peak("presentation.expand_rational.dim_max", result.m)
    elif name in ("families.decide_seifert", "families.decide_borromean"):
        key = f"families.verdict.{result.verdict}"
        sizes[key] = sizes.get(key, 0) + 1


class Recorder:
    """Collects spans and counts while installed; restores everything on uninstall."""

    def __init__(self, modules):
        self.modules = modules  # short name -> steinkit module object
        self.spans = []  # [name, start, end, parent, op]
        self.stack = []
        self.raised = Counter()
        self.sizes = {}
        self.constructed = Counter()
        self.counting = True
        self.op_id = -1
        self._undo = []

    @contextlib.contextmanager
    def paused(self):
        """Constructions made inside are the harness's, not the program's."""
        self.counting = False
        try:
            yield
        finally:
            self.counting = True

    def _wrap(self, name, fn):
        spans, stack, raised, sizes = self.spans, self.stack, self.raised, self.sizes
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            _observe(name, args, result, sizes)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, cls, key):
        orig = cls.__post_init__
        constructed = self.constructed

        def counted(obj):
            if self.counting:
                constructed[key] += 1
            orig(obj)

        cls.__post_init__ = counted
        self._undo.append(lambda: setattr(cls, "__post_init__", orig))

    def install(self):
        wrappers = {}
        for mod, attr, name in TRACED:
            fn = getattr(self.modules[mod], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("steinkit"):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._undo.append(lambda m=module, a=attr, v=value: setattr(m, a, v))
        numerics = self.modules["numerics"]
        self._count(numerics.ExtRational, "numerics.ExtRational.new")
        self._count(numerics.MobiusMap, "numerics.MobiusMap.new")

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def counts(self):
        """Everything that should repeat exactly between two traced runs."""
        calls = Counter(s[0] for s in self.spans)
        return dict(calls), dict(self.raised), dict(self.sizes), dict(self.constructed)

    def self_times(self):
        """Self time per span name: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        per_op = Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            own = end - start - child[i]
            out[name] += own
            per_op[op] += own
        return out, per_op

    def metrics(self, traced_wall, op_walls):
        """Per-layer metrics; self time as a share of the traced wall time."""
        self_s, per_op = self.self_times()
        calls, raised, sizes, constructed = self.counts()
        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = calls.get(name, 0)
            out[name + ".self_pct"] = 100.0 * self_s.get(name, 0.0) / traced_wall
        for name in ("front.apply_move", "presentation.rewrite"):
            n = calls.get(name, 0)
            out[name + ".applied_ratio"] = (n - raised.get(name, 0)) / n if n else 0.0
        out["presentation.h1.failed"] = raised.get("presentation.h1", 0)
        for key, unit in PER_LAYER.items():
            if key not in out and unit in ("count", "bits") and not key.startswith("cli."):
                out[key] = sizes.get(key, constructed.get(key, 0))
        worst = max((per_op[i] / w for i, w in enumerate(op_walls) if w > 0), default=0.0)
        return out, worst
