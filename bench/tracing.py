"""Spans at skewmon's layer boundaries, recorded from outside the program.

``Tracer.install`` replaces each boundary in ``BOUNDARIES`` with a wrapper in
every ``skewmon`` module namespace (or on the class) where it is bound, and
``uninstall`` puts the originals back.  Each call records one span (name,
start, end, parent) in flat arrays; self time is computed at the end as a
span's duration minus the durations of its child spans, so the self times of
all spans add up to the time spent inside the outermost spans.  A few
boundaries also count work (term pairs, trivial gcd inputs, accepted reducer
rows, ``act_key`` paths) from their arguments and results.

A layer is a skewmon module; ``randomized`` only drives trials and is not
wrapped, so its time counts as self time of ``cli.run_scenario``.
"""

import functools
import json
import sys
import time
from array import array

LAYERS = ("arith", "actions", "skewring", "analysis", "constructors")

#: (span name, module, attribute path, private).  A private boundary that no
#: longer exists is skipped and its metrics are absent; a missing public one
#: is an error.
BOUNDARIES = [
    ("arith.poly_mul", "arith", "Polynomial.__mul__", False),
    ("arith.poly_add", "arith", "Polynomial.__add__", False),
    ("arith.poly_gcd", "arith", "poly_gcd", False),
    ("arith.ratfunc_mul", "arith", "RatFunc.__mul__", False),
    ("arith.ratfunc_add", "arith", "RatFunc.__add__", False),
    ("arith.ratfunc_normalize", "arith", "RatFunc.__init__", False),
    ("arith.substitute_var", "arith", "Polynomial.substitute_var", False),
    ("arith.permute_vars", "arith", "Polynomial.permute_vars", False),
    ("actions.act_key", "actions", "Context.act_key", False),
    ("actions.conjugate_key", "actions", "Context.conjugate_key", False),
    ("actions.group_closure", "actions", "Group.from_generators", False),
    ("actions.aut_apply", "actions", "ShiftAut.apply", False),
    ("actions.aut_apply", "actions", "ScalingAut.apply", False),
    ("actions.aut_apply", "actions", "PermutationAut.apply", False),
    ("actions.aut_apply", "actions", "GeneralAut.apply", False),
    ("skewring.mul", "skewring", "SkewElement.__mul__", False),
    ("skewring.add", "skewring", "SkewElement.__add__", False),
    ("skewring.g_action", "skewring", "g_action", False),
    ("skewring.orbit_sum", "skewring", "orbit_sum", False),
    ("skewring.is_invariant", "skewring", "is_invariant", False),
    ("analysis.reducer_add", "analysis", "_SpanReducer.add", True),
    ("analysis.element_vectors", "analysis", "_element_vectors", True),
    ("analysis.growth_profile", "analysis", "growth_profile", False),
    ("analysis.verify_relations", "analysis", "verify_relations", False),
    ("analysis.ore_witness", "analysis", "ore_witness", False),
    ("analysis.standard_identity", "analysis", "standard_identity", False),
    ("analysis.center_candidates", "analysis", "center_candidates", False),
    ("analysis.smith_normal_form", "analysis", "smith_normal_form", False),
    ("constructors.build_shift_algebra", "constructors", "build_shift_algebra", False),
    ("constructors.build_qshift_algebra", "constructors", "build_qshift_algebra", False),
    ("constructors.gwa_embed", "constructors", "gwa_embed", False),
    ("constructors.verify_gwa", "constructors", "verify_gwa", False),
    ("constructors.witten_woronowicz_spec", "constructors", "witten_woronowicz_spec", False),
    ("constructors.gt_embedding", "constructors", "gt_embedding", False),
    ("constructors.demazure_elements", "constructors", "demazure_elements", False),
    ("constructors.hecke_membership_check", "constructors", "hecke_membership_check", False),
    ("cli.run_scenario", "cli", "run_scenario", False),
    ("reports.dump_json", "reports", "dump_json", False),
]

ACT_KEY_PATHS = ("shift", "scaling", "permutation", "generic", "identity")

#: The per-layer metrics: the stats reported for each boundary or layer.
#: ``self_s`` is self time in seconds; a ratio is 0 when its boundary was
#: never called.
PER_LAYER = {
    "arith.poly_mul": ("calls", "self_s", "term_pairs"),
    "arith.poly_add": ("calls", "self_s"),
    "arith.poly_gcd": ("calls", "self_s", "trivial_ratio"),
    "arith.ratfunc_mul": ("calls", "self_s"),
    "arith.ratfunc_add": ("calls", "self_s"),
    "arith.ratfunc_normalize": ("calls", "self_s"),
    "arith.substitute_var": ("calls", "self_s"),
    "arith.permute_vars": ("calls", "self_s"),
    "arith": ("self_s",),
    "actions.act_key": ("calls", "self_s") + tuple(f"path_{p}" for p in ACT_KEY_PATHS),
    "actions.conjugate_key": ("calls", "self_s"),
    "actions.aut_apply": ("calls", "self_s"),
    "actions.group_closure": ("self_s",),
    "actions": ("self_s",),
    "skewring.mul": ("calls", "self_s", "term_pairs"),
    "skewring.add": ("calls",),
    "skewring.g_action": ("calls", "self_s"),
    "skewring.orbit_sum": ("calls",),
    "skewring": ("self_s",),
    "analysis.reducer_add": ("calls", "self_s", "accept_ratio"),
    "analysis.element_vectors": ("self_s",),
    "analysis.growth_profile": ("self_s",),
    "analysis.verify_relations": ("self_s",),
    "analysis.ore_witness": ("self_s",),
    "analysis.standard_identity": ("self_s",),
    "analysis.center_candidates": ("self_s",),
    "analysis.smith_normal_form": ("self_s",),
    "analysis": ("self_s",),
    "constructors": ("self_s",),
    "cli.run_scenario": ("self_s",),
    "reports.dump_json": ("self_s",),
    "trace": ("overhead_ratio", "coverage_ratio"),
}


def _unit(stat):
    return "s" if stat == "self_s" else "ratio" if stat.endswith("_ratio") else "count"


#: (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
METRICS = [
    (f"{where}.{stat}", _unit(stat),
     "higher" if stat in ("accept_ratio", "coverage_ratio") else "lower")
    for where, stats in PER_LAYER.items() for stat in stats
]


def _is_constant(p):
    return len(p.terms) <= 1 and not any(any(e) for e in p.terms)


class Tracer:
    """Wraps the boundaries of an imported skewmon and records spans."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        # named like the metrics they feed; the two ratio numerators are not
        # metrics themselves
        self.counts = dict.fromkeys(
            ["arith.poly_mul.term_pairs", "arith.poly_gcd.trivial", "skewring.mul.term_pairs",
             "analysis.reducer_add.accepted"]
            + [f"actions.act_key.path_{p}" for p in ACT_KEY_PATHS], 0)
        self.skipped = []
        self._saved = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, func, pre=None, post=None):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counts, clock = self.counts, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(counts, args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(counts, result)
            return result

        return wrapper

    def _hooks(self, name, skewmon):
        actions = skewmon.actions

        def gcd_pre(counts, args):
            p, q = args[0], args[1]
            if _is_constant(p) or _is_constant(q):
                counts["arith.poly_gcd.trivial"] += 1

        def poly_mul_pre(counts, args):
            other = args[1]
            if isinstance(other, skewmon.arith.Polynomial):
                counts["arith.poly_mul.term_pairs"] += len(args[0].terms) * len(other.terms)

        def skew_mul_pre(counts, args):
            other = args[1]
            n = len(other.coeffs) if isinstance(other, skewmon.skewring.SkewElement) else 1
            counts["skewring.mul.term_pairs"] += len(args[0].coeffs) * n

        def act_key_pre(counts, args):
            ctx, key = args[0], args[1]
            if ctx.mode == actions.FINITE_GROUP:
                path = "permutation"
            elif not any(key):
                path = "identity"
            elif all(isinstance(s, actions.ShiftAut) for s in ctx.generators):
                path = "shift"
            elif all(isinstance(s, actions.ScalingAut) for s in ctx.generators):
                path = "scaling"
            else:
                path = "generic"
            counts[f"actions.act_key.path_{path}"] += 1

        def reducer_post(counts, result):
            if result:
                counts["analysis.reducer_add.accepted"] += 1

        return {
            "arith.poly_gcd": (gcd_pre, None),
            "arith.poly_mul": (poly_mul_pre, None),
            "skewring.mul": (skew_mul_pre, None),
            "actions.act_key": (act_key_pre, None),
            "analysis.reducer_add": (None, reducer_post),
        }.get(name, (None, None))

    def install(self, skewmon):
        """Wrap every boundary of the imported ``skewmon`` package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "skewmon" or n.startswith("skewmon."))]
        for name, module, path, private in BOUNDARIES:
            owner = getattr(skewmon, module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if raw is None:
                if private:
                    self.skipped.append(path)
                    continue
                raise AttributeError(f"boundary skewmon.{module}.{path} does not exist")
            pre, post = self._hooks(name, skewmon)
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, pre, post))
                else:
                    wrapped = self._wrap(name, raw, pre, post)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, raw, pre, post)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._saved.append((mod, key, raw))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = [e - s for s, e in zip(starts, ends)]
        for i, p in enumerate(parents):
            if p >= 0:
                own[p] -= ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, t in zip(self.span_name, own):
            calls[nid] += 1
            self_s[nid] += t
        return {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}

    def metrics(self, traced_s, overhead_ratio):
        """Every per-layer metric in ``METRICS`` that this trace can give.

        ``traced_s`` is the wall time of the traced pass; ``overhead_ratio``
        is its time over the untraced median.
        """
        per_name = self.self_times()
        out = {}
        for name, (calls, self_s) in per_name.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s for n, (_, s) in per_name.items()
                                         if n.split(".")[0] == layer)
        out.update(self.counts)
        out["arith.poly_gcd.trivial_ratio"] = _ratio(out["arith.poly_gcd.trivial"],
                                                     out["arith.poly_gcd.calls"])
        if "analysis.reducer_add.calls" in out:
            out["analysis.reducer_add.accept_ratio"] = _ratio(
                out["analysis.reducer_add.accepted"], out["analysis.reducer_add.calls"])
        out["trace.overhead_ratio"] = overhead_ratio
        out["trace.coverage_ratio"] = sum(s for _, s in per_name.values()) / traced_s
        units = {name: unit for name, unit, _ in METRICS}
        return {name: {"value": out[name], "unit": units[name]}
                for name, _, _ in METRICS if name in out}

    def write(self, path):
        """Write the spans: one JSON header line, then the four raw arrays."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": ["name int32", "parent int32", "start float64", "end float64"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def _ratio(part, whole):
    return part / whole if whole else 0.0
