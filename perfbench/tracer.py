"""Per-layer tracing of one call into regulartri.

The tracer wraps the names the package's own callers look up (for example
`regulartri.search.find_flips`, which reverse search calls, or the
`Triangulation.canonical` method) and restores them afterwards.  Each wrapper
keeps a call count, the inclusive time of its spans and their self time: a
span's duration minus the part covered by the spans it caused.  Spans are
folded into these totals as they close, so a trace of millions of calls
stays small.  Untraced runs never create a Tracer.

A hook target that a refactor has removed is listed in `missing`; its
counts stay at zero and the consistency checks that need it are skipped.
"""

from __future__ import annotations

import functools
import importlib
import time

#: Layer name -> the "module:attribute" sites its callers look up.  A site
#: may name a class attribute as "module:Class.method".
LAYERS = (
    ("cli.main", ("regulartri.cli:main",)),
    ("search.enumerate_triangulations", (
        "regulartri:enumerate_triangulations",
        "regulartri.cli:enumerate_triangulations",
    )),
    ("search.reverse_search", (
        "regulartri:reverse_search",
        "regulartri.search:reverse_search",
    )),
    ("search.find_root", ("regulartri.search:find_root",)),
    ("search.neighbors", ("regulartri.search:NeighborProvider.neighbors",)),
    ("search.predecessor", ("regulartri.search:predecessor",)),
    ("flips.find_flips", ("regulartri.search:find_flips",)),
    ("flips.apply_flip", ("regulartri.search:apply_flip",)),
    ("points.circuit_or_none", ("regulartri.points:PointConfiguration.circuit_or_none",)),
    ("points.reduced", ("regulartri.points:CorankOneConfig.reduced",)),
    ("points.normalized_volume", ("regulartri.points:PointConfiguration.normalized_volume",)),
    ("exact.kernel_vector", ("regulartri.exact:kernel_vector",)),
    ("exact.determinant", ("regulartri.exact:determinant",)),
    ("triangulation.canonical", ("regulartri.triangulation:Triangulation.canonical",)),
    ("triangulation.gkz", ("regulartri.search:gkz",)),
    ("triangulation.parse_triangulation", ("regulartri.cli:parse_triangulation",)),
    ("regularity.regular_flips", ("regulartri.search:regular_flips",)),
    ("regularity.screen_rays", ("regulartri.regularity:screen_rays",)),
    ("lp.nonneg_combination", ("regulartri.regularity:nonneg_combination",)),
    ("symmetry.canonical_form", ("regulartri.cli:canonical_form",)),
    ("symmetry.expand_group", ("regulartri.cli:expand_group",)),
)

#: Search counters every workload reports, as named in `SearchStats`/`RayStats`.
COUNTERS = (
    "nodes", "flips_evaluated", "cache_hits", "cache_misses",
    "r1", "r2", "r3", "r4", "scalar_tests", "lps_solved",
)

#: Self times must add up to the traced wall time within this share.
SELF_SUM_TOLERANCE = 0.03


class Tracer:
    """Wraps the layer sites while installed; see the module docstring."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        #: layer -> [calls, self seconds, inclusive seconds]
        self.records = {name: [0, 0.0, 0.0] for name, _ in self.layers}
        self.group_order = 0
        self.missing = []
        self._stack = []
        self._patched = []

    def install(self):
        for name, sites in self.layers:
            for site in sites:
                target = _resolve(site)
                if target is None:
                    self.missing.append(site)
                    continue
                owner, attr, original = target
                setattr(owner, attr, self._wrap(name, original))
                self._patched.append((owner, attr, original))
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def missing_layers(self):
        return {name for name, sites in self.layers
                if any(site in self.missing for site in sites)}

    def _wrap(self, name, original):
        if isinstance(original, (staticmethod, classmethod)):
            return type(original)(self._wrap(name, original.__func__))
        record = self.records[name]
        stack = self._stack
        clock = time.perf_counter
        keep_group = name == "symmetry.expand_group"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if keep_group:
                    self.group_order = len(result)
                return result
            finally:
                span = clock() - start
                record[0] += 1
                record[1] += span - stack.pop()
                record[2] += span
                if stack:
                    stack[-1] += span

        return traced


def _resolve(site):
    """(owner, attribute, current value) for a site, or None if it is gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # Class attributes are read raw, so static and class methods stay so.
    value = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None or not (callable(value) or isinstance(value, (staticmethod, classmethod))):
        return None
    return owner, attr, value


def layer_metrics(tracer, counters, wall_s):
    """Per-layer metrics of one traced call, and the consistency violations.

    `counters` maps the names in COUNTERS to the run's search counters; a
    counter the program no longer reports is absent and listed as missing.
    """
    metrics = {}
    for name, (calls, self_s, _) in tracer.records.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    c = {key: counters.get(key, 0) for key in COUNTERS}
    lookups = c["cache_hits"] + c["cache_misses"]
    find_flips_calls = tracer.records["flips.find_flips"][0]
    metrics.update({
        "search.nodes": c["nodes"],
        "search.flips_evaluated": c["flips_evaluated"],
        "search.cache_hits": c["cache_hits"],
        "search.cache_misses": c["cache_misses"],
        "search.cache_hit_ratio": c["cache_hits"] / lookups if lookups else 0.0,
        "search.root_walk_s": tracer.records["search.find_root"][2],
        "flips.flips_per_call": (
            c["flips_evaluated"] / find_flips_calls if find_flips_calls else 0.0),
        "regularity.scalar_tests": c["scalar_tests"],
        "regularity.lps_solved": c["lps_solved"],
        "regularity.lp_ratio": (
            c["lps_solved"] / c["flips_evaluated"] if c["flips_evaluated"] else 0.0),
        "symmetry.group_order": tracer.group_order,
        "trace.self_sum_frac": (
            sum(r[1] for r in tracer.records.values()) / wall_s if wall_s else 0.0),
    })
    for rule in ("r1", "r2", "r3", "r4"):
        metrics[f"regularity.{rule}"] = c[rule]

    gone = tracer.missing_layers() | {key for key in COUNTERS if key not in counters}
    checks = (
        ("flips.find_flips.calls", "cache_misses", c["cache_misses"],
         {"flips.find_flips", "cache_misses"}),
        ("search.neighbors.calls", "cache_hits + cache_misses", lookups,
         {"search.neighbors", "cache_hits", "cache_misses"}),
        ("lp.nonneg_combination.calls", "lps_solved", c["lps_solved"],
         {"lp.nonneg_combination", "lps_solved"}),
    )
    violations = []
    for metric, counter, want, needs in checks:
        if not needs & gone and metrics[metric] != want:
            violations.append(f"{metric} = {metrics[metric]} but {counter} = {want}")
    if abs(metrics["trace.self_sum_frac"] - 1) > SELF_SUM_TOLERANCE:
        violations.append(
            f"self times add up to {metrics['trace.self_sum_frac']:.4f} of the wall time")
    missing = sorted(tracer.missing) + sorted(k for k in COUNTERS if k not in counters)
    return metrics, violations, missing
