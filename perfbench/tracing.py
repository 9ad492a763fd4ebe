"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces every binding of a public function of the
traced modules, in every module namespace that holds it (``cli.moment_profile``,
``functionals.moment_profile`` and ``witness.moment_profile`` are three
bindings of ``grid_field.moment_profile``), with a wrapper that records a
span: function, start, end and the index of the enclosing span.  Spans stay
in memory; ``collect`` turns them into per-function calls, total and self
time (span time minus the time of its direct children) and clears them.
``uninstall`` puts the original objects back, so untraced passes run the
package exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types
from collections import Counter, defaultdict

PACKAGE = "strichartz_gls"
MODULES = ("grid_field", "propagators", "spaces", "functionals", "witness", "cli")


def public_functions(module) -> dict:
    """name -> function for the functions a module defines without a leading underscore."""
    return {
        name: obj for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType) and not name.startswith("_")
        and obj.__module__ == module.__name__ and obj.__name__ == name
    }


class Tracer:
    def __init__(self):
        self.spans = []          # (name index, start, end, parent span index)
        self.names = []          # name index -> "module.function"
        self._index = {}
        self._stack = []
        self._patched = []       # (namespace, attribute, original object)
        self.via = Counter()     # "binding_module.function" -> calls through that binding
        self.counters = defaultdict(float)
        self._seen_pairs = []    # (f, psi) pairs given to space_norm in the current cli.run

    # ------------------------------------------------------------ install

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        originals = {}
        for short, mod in mods.items():
            for name, fn in public_functions(mod).items():
                originals[fn] = f"{short}.{name}"
        namespaces = [importlib.import_module(PACKAGE)] + list(mods.values())
        for ns in namespaces:
            binding = ns.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in originals:
                    qual = originals[obj]
                    wrapper = self._wrap(obj, qual, f"{binding}.{attr}")
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched = []

    def _wrap(self, fn, qual: str, via_name: str):
        if qual not in self._index:
            self._index[qual] = len(self.names)
            self.names.append(qual)
        idx = self._index[qual]
        hook = _HOOKS.get(qual)
        spans, stack, via, clock = self.spans, self._stack, self.via, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            via[via_name] += 1
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[me] = (idx, t0, t1, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------ results

    def collect(self) -> dict:
        """Per-function {calls, total_s, self_s} for the spans so far; clears spans and counters."""
        n = len(self.names)
        calls, total, child = [0] * n, [0.0] * n, [0.0] * n
        spans = self.spans
        for idx, t0, t1, parent in spans:
            d = t1 - t0
            calls[idx] += 1
            total[idx] += d
            if parent >= 0:
                child[spans[parent][0]] += d
        table = {
            self.names[i]: {"calls": calls[i], "total_s": total[i], "self_s": total[i] - child[i]}
            for i in range(n) if calls[i]
        }
        out = {"functions": table, "via": dict(self.via), "counters": dict(self.counters)}
        self.spans.clear()
        self.via.clear()
        self.counters.clear()
        return out

    def dump_spans(self, path) -> None:
        """Write the spans recorded so far, one per line: name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("# name_index start_s end_s parent_span\n")
            fh.write("# names: " + " ".join(self.names) + "\n")
            for idx, t0, t1, parent in self.spans:
                fh.write(f"{idx} {t0:.9f} {t1:.9f} {parent}\n")


# ------------------------------------------------------------ counters


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _moment_profile(tr, args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    values = f.values
    nodes = values.size
    finite = int((result.p_grid != float("inf")).sum())
    tr.counters["moment_profile.nodes"] += nodes
    tr.counters["moment_profile.zero_nodes"] += nodes - int(_count_nonzero(values))
    tr.counters["moment_profile.node_exponents"] += nodes * finite


def _count_nonzero(values):
    import numpy as np
    return np.count_nonzero(values)


def _propagate(tr, args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    tr.counters["propagate.nodes"] += f.values.size
    # computed, not measured: the input and output arrays the call must touch
    tr.counters["propagate.bytes_computed"] += f.values.nbytes + result.values.nbytes


def _space_norm(tr, args, kwargs, result):
    f, psi = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "psi")
    if any(f is g and psi is q for g, q in tr._seen_pairs):
        tr.counters["space_norm.repeats"] += 1
    else:
        tr._seen_pairs.append((f, psi))


def _sweep(tr, args, kwargs, result):
    tr.counters["sweep.excluded"] += len(result.exclusions)


def _cli_run(tr, args, kwargs, result):
    tr._seen_pairs = []
    out = _arg(args, kwargs, 1, "out_dir")
    if out and os.path.isdir(out):
        tr.counters["cli.bytes_written"] += sum(
            e.stat().st_size for e in os.scandir(out) if e.is_file())


_HOOKS = {
    "grid_field.moment_profile": _moment_profile,
    "propagators.propagate": _propagate,
    "functionals.space_norm": _space_norm,
    "functionals.w_sp_curve": _sweep,
    "functionals.v_sr_curve": _sweep,
    "cli.run": _cli_run,
}


# ------------------------------------------------------------ per-layer metrics

# The end-to-end metrics and the workload that a change in each module's
# per-layer metrics should move; a change that moves them elsewhere needs a reason.
TARGETS = {
    "grid_field": "wall_s, experiment_s_p50 on sweep-1d",
    "propagators": "wall_s, peak_rss_mb on spectral",
    "spaces": "experiment_s_p50, experiment_s_p90 on small-batch",
    "functionals": "wall_s on sweep-1d",
    "witness": "wall_s on spectral",
    "cli": "experiment_s_p50, experiment_s_p90 on small-batch",
    "trace": "none (the cost of tracing, on every workload)",
}

_METRICS = (
    ("grid_field.moment_profile.calls", "count"),
    ("grid_field.moment_profile.self_s", "s"),
    ("grid_field.moment_profile.node_exponents", "count"),
    ("grid_field.moment_profile.zero_node_share", "frac"),
    ("grid_field.moment_profile.ns_per_node_exponent", "ns"),
    ("grid_field.lp_norm.calls", "count"),
    ("grid_field.lp_norm.self_s", "s"),
    ("propagators.propagate.calls", "count"),
    ("propagators.propagate.self_s", "s"),
    ("propagators.propagate.nodes", "count"),
    ("propagators.propagate.bytes_computed", "bytes"),
    ("spaces.gls_norm.calls", "count"),
    ("spaces.gls_norm.self_s", "s"),
    ("spaces.fundamental_gls.calls", "count"),
    ("spaces.fundamental_gls.self_s", "s"),
    ("spaces.exponent_grid.calls", "count"),
    ("spaces.exponent_grid.self_s", "s"),
    ("functionals.space_norm.calls", "count"),
    ("functionals.space_norm.repeat_share", "frac"),
    ("functionals.w_sp.self_s", "s"),
    ("functionals.v_sr.self_s", "s"),
    ("functionals.fit_rate.self_s", "s"),
    ("functionals.sweep.excluded", "count"),
    ("witness.sp_witness.self_s", "s"),
    ("witness.sr_witness.self_s", "s"),
    ("witness.gaussian_moment_law_check.self_s", "s"),
    ("witness.gaussian_lp_exact.calls", "count"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.run.bytes_written", "bytes"),
    ("cli.run.expected_rejections", "count"),
) + tuple((f"{m}.self_share", "frac") for m in MODULES) + (
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
)

# (name, unit, target): every per-layer metric with what it should move.
PER_LAYER = tuple((name, unit, TARGETS[name.split(".")[0]]) for name, unit in _METRICS)


def pass_metrics(collected: dict, wall_s: float, expected_rejections: int) -> dict:
    """Per-layer metrics of one traced pass (everything except trace.overhead_frac)."""
    fns, ctr, via = collected["functions"], collected["counters"], collected["via"]

    def stat(qual, key):
        return fns.get(qual, {}).get(key, 0)

    m = {}
    for name, _unit, _target in PER_LAYER:
        mod, rest = name.split(".", 1)
        if rest.count(".") == 1:
            fn, key = rest.split(".")
            if key in ("calls", "self_s"):
                m[name] = float(stat(f"{mod}.{fn}", key))
    node_exp = ctr.get("moment_profile.node_exponents", 0.0)
    nodes = ctr.get("moment_profile.nodes", 0.0)
    m["grid_field.moment_profile.node_exponents"] = node_exp
    m["grid_field.moment_profile.zero_node_share"] = (
        ctr.get("moment_profile.zero_nodes", 0.0) / nodes if nodes else 0.0)
    m["grid_field.moment_profile.ns_per_node_exponent"] = (
        1e9 * stat("grid_field.moment_profile", "self_s") / node_exp if node_exp else 0.0)
    m["propagators.propagate.nodes"] = ctr.get("propagate.nodes", 0.0)
    m["propagators.propagate.bytes_computed"] = ctr.get("propagate.bytes_computed", 0.0)
    sn_calls = stat("functionals.space_norm", "calls")
    m["functionals.space_norm.repeat_share"] = (
        ctr.get("space_norm.repeats", 0.0) / sn_calls if sn_calls else 0.0)
    m["functionals.sweep.excluded"] = ctr.get("sweep.excluded", 0.0)
    # grid_field.gaussian_lp_exact as called through the witness module
    m["witness.gaussian_lp_exact.calls"] = float(via.get("witness.gaussian_lp_exact", 0))
    m["cli.run.bytes_written"] = ctr.get("cli.bytes_written", 0.0)
    m["cli.run.expected_rejections"] = float(expected_rejections)
    for mod in MODULES:
        self_s = sum(v["self_s"] for q, v in fns.items() if q.split(".")[0] == mod)
        m[f"{mod}.self_share"] = self_s / wall_s
    m["trace.wall_s"] = wall_s
    return m
