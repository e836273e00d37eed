"""Workloads of the regulartri benchmark, and the process that runs one call.

Each workload makes one timed call into a public entry point of the package
and checks what it returns.  `run.py` starts this file once per call, so
every call pays its own imports and fills its own lazy caches, as a user's
run does:

    python3 perfbench/workloads.py --workload NAME --seed N \\
        --mode setup|timed|traced --workdir DIR

It prints one JSON line.  The package is found on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import COUNTERS, Tracer, layer_metrics


@dataclasses.dataclass(frozen=True)
class Spec:
    """One workload.

    `kind` selects the entry point: "enumerate" calls
    `enumerate_triangulations`, "cli" runs `regulartri.cli.main` in-process
    with `--orbits --stats`, and "prefix" runs `reverse_search` until
    `count` nodes have been visited.  `catalog` names a configuration in
    `regulartri.catalog` that has a `<name>_symmetry_generators` companion.
    `symmetric_relabel` makes the seed relabel by a symmetry (see relabel),
    for a workload whose work would otherwise depend on the labels.
    """

    kind: str
    catalog: str
    args: tuple
    count: int
    orbits: int = 0
    symmetric_relabel: bool = False


WORKLOADS = {
    "regular_d2d3": Spec("enumerate", "simplex_product", (2, 3), 4488),
    "orbits_d2d3_cli": Spec("cli", "simplex_product", (2, 3), 4488, orbits=35),
    "lp_d2d4_prefix": Spec("prefix", "simplex_product", (2, 4), 3000, symmetric_relabel=True),
}


#: Generators multiplied together for a symmetric relabelling.
SYMMETRIC_STEPS = 64
#: The reference loop: REF_SAMPLES runs of REF_STEPS steps (about 0.03 s
#: each on the hardware in README.md).
REF_STEPS = 300_000
REF_SAMPLES = 5


class CheckFailed(Exception):
    """The call returned, but not the right answer."""


class StopPrefix(Exception):
    """Raised by the prefix workload's visitor to end the search."""


def relabel(points, generators, seed, symmetric=False):
    """Seeded relabelling: point i gets label perm[i], where perm is the
    identity for seed 0 and a seeded shuffle otherwise.  Each generator g is
    conjugated to perm∘g∘perm⁻¹, so it stays a symmetry of the new points.

    With `symmetric`, perm is a seeded product of the generators instead: a
    symmetry, so the new configuration is an affine image of the old one
    with the same labels, and every search on it takes the same steps.
    """
    n = len(points)
    perm = list(range(n))
    if seed:
        rng = random.Random(seed)
        if symmetric:
            for _ in range(SYMMETRIC_STEPS):
                g = rng.choice(generators)
                perm = [g[p] for p in perm]
        else:
            rng.shuffle(perm)
    new_points = [None] * n
    for i, p in enumerate(points):
        new_points[perm[i]] = p
    new_generators = []
    for g in generators:
        h = [None] * n
        for i in range(n):
            h[perm[i]] = perm[g[i]]
        new_generators.append(h)
    return new_points, new_generators


def prepare(spec, seed, workdir):
    """Set-up: import the package and build the call's inputs.

    Returns (call, verify): `call()` is the timed call, and `verify(raw)`
    turns its result into (count, counters) or raises CheckFailed.  Lazy
    caches of the configuration are left cold.
    """
    import regulartri

    base = getattr(regulartri, spec.catalog)(*spec.args)
    gens = getattr(regulartri, spec.catalog + "_symmetry_generators")(*spec.args)
    points, gens = relabel(base.points, gens, seed, spec.symmetric_relabel)

    if spec.kind == "enumerate":
        config = regulartri.new_configuration(points)

        def call():
            return regulartri.enumerate_triangulations(config)

        def verify(raw):
            count, stats = raw
            _expect("triangulations", count, spec.count)
            return count, _stats_counters(stats)

    elif spec.kind == "cli":
        import regulartri.cli

        path = Path(workdir) / f"input-{seed}.txt"
        path.write_text(f"points: {_literal(points)}\nsymmetry: {_literal(gens)}\n",
                        encoding="utf-8")
        argv = ["enumerate", "--input", str(path), "--orbits", "--stats"]

        def call():
            out = io.StringIO()
            return regulartri.cli.main(argv, out=out), out.getvalue()

        def verify(raw):
            code, text = raw
            _expect("exit code", code, 0)
            counters = {}
            for line in text.splitlines():
                key, _, value = line.partition(": ")
                if value.isdigit():
                    counters[key.removeprefix("reductions_")] = int(value)
            _expect("triangulations", counters.get("triangulations"), spec.count)
            _expect("orbits", counters.get("orbits"), spec.orbits)
            return spec.count, counters

    elif spec.kind == "prefix":
        from regulartri.search import GeometricFlipOracle, NeighborProvider

        config = regulartri.new_configuration(points)
        stats = regulartri.SearchStats()
        provider = NeighborProvider(
            GeometricFlipOracle(config, regulartri.SearchMode.REGULAR_ONLY, stats), stats)
        visited = []

        def visitor(canonical, gkz, depth):
            visited.append(gkz)
            if len(visited) == spec.count:
                raise StopPrefix

        def call():
            try:
                regulartri.reverse_search(provider, visitor)
            except StopPrefix:
                return True
            return False

        def verify(stopped):
            if not stopped:
                raise CheckFailed(f"search ended after {len(visited)} of {spec.count} nodes")
            _expect("nodes counted", stats.nodes, spec.count)
            _expect("distinct GKZ vectors", len(set(visited)), spec.count)
            root = visited[0]
            if any(g >= root for g in visited[1:]):
                raise CheckFailed("a visited GKZ vector is not lex-smaller than the root's")
            if any(sum(g) != sum(root) for g in visited):
                raise CheckFailed("visited GKZ vectors differ in their sum")
            return spec.count, _stats_counters(stats)

    else:
        raise ValueError(f"unknown workload kind {spec.kind!r}")
    return call, verify


def _expect(what, got, want):
    if got != want:
        raise CheckFailed(f"{what}: expected {want}, got {got}")


def _literal(rows):
    return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"


def _stats_counters(stats):
    """The COUNTERS a SearchStats holds; one the program dropped is left out."""
    fields = dict(vars(stats))
    fields.update(vars(fields.get("rays", stats)))
    return {name: fields[name] for name in COUNTERS if name in fields}


def reference_s():
    """The machine's current speed: the median time of REF_SAMPLES runs of a
    fixed pure-Python loop that does not touch the package."""
    samples = []
    for _ in range(REF_SAMPLES):
        start = time.perf_counter()
        total = 0
        for i in range(REF_STEPS):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def measure(spec, seed, workdir, mode="timed"):
    """Set up and, unless `mode` is "setup", make one call in this process.

    Returns the result record.  `ref_s` is the mean of reference_s() taken
    before the set-up and after the call.
    """
    ref_before = reference_s()
    start = time.perf_counter()
    call, verify = prepare(spec, seed, workdir)
    record = {"setup_s": time.perf_counter() - start}
    if mode != "setup":
        record.update(_call(call, verify, traced=mode == "traced"))
    record["ref_s"] = (ref_before + reference_s()) / 2
    return record


def _call(call, verify, traced):
    """Time and check one call.  A failed check or an exception marks the
    record `ok: false` with the reason; it is reported, never retried."""
    tracer = Tracer().install() if traced else None
    error = raw = None
    start = time.perf_counter()
    try:
        raw = call()
    except Exception:  # the call's failure is the measurement's result
        error = traceback.format_exc(limit=-3).strip()
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    count, counters = 0, {}
    if error is None:
        try:
            count, counters = verify(raw)
        except CheckFailed as e:
            error = f"check failed: {e}"
    record = {"wall_s": wall_s, "count": count,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        layers, violations, missing = layer_metrics(tracer, counters, wall_s)
        record.update(layers=layers, violations=violations, missing=missing)
        if violations and error is None:
            error = "trace inconsistent: " + "; ".join(violations)
    record.update(ok=error is None, error=error)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    record = measure(WORKLOADS[args.workload], args.seed, args.workdir, args.mode)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
