"""Self-tests of the benchmark harness on small catalog inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py

They cover the seeded relabelling, the per-run output checks and how a
failure is marked, and the traced counters' cross-checks.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import regulartri  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import Spec, measure, prepare, relabel  # noqa: E402

SMALL = {
    "cube3": (("cube", (3,)), 74, 6),
    "d2d2": (("simplex_product", (2, 2)), 108, 5),
}


def spec(kind, name, **changes):
    (catalog, args), count, orbits = SMALL[name]
    return dataclasses.replace(Spec(kind, catalog, args, count, orbits), **changes)


def test_seed_zero_is_catalog_order():
    config = regulartri.cube(3)
    gens = regulartri.cube_symmetry_generators(3)
    points, new_gens = relabel(config.points, gens, 0)
    assert points == list(config.points)
    assert new_gens == [list(g) for g in gens]


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_conjugated_generators_are_symmetries(seed):
    config = regulartri.simplex_product(2, 2)
    gens = regulartri.simplex_product_symmetry_generators(2, 2)
    points, new_gens = relabel(config.points, gens, seed)
    assert sorted(points) == sorted(config.points) and points != list(config.points)
    relabelled = regulartri.new_configuration(points)
    assert all(regulartri.is_symmetry(relabelled, g) for g in new_gens)
    assert len(regulartri.expand_group(relabelled, new_gens)) == 36


def test_symmetric_relabelling_keeps_the_search(tmp_path):
    config = regulartri.simplex_product(2, 2)
    gens = regulartri.simplex_product_symmetry_generators(2, 2)
    points, _ = relabel(config.points, gens, 4, symmetric=True)
    assert points != list(config.points)
    assert regulartri.is_symmetry(config, [points.index(p) for p in config.points])
    layers = [measure(spec("prefix", "d2d2", count=60, symmetric_relabel=True),
                      seed, tmp_path, mode="traced")["layers"] for seed in (0, 4, 9)]
    counters = [{k: v for k, v in m.items() if not k.endswith("_s") and "frac" not in k}
                for m in layers]
    assert counters[0] == counters[1] == counters[2]


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("kind", ["enumerate", "cli"])
def test_counts_do_not_depend_on_labels(tmp_path, kind, name, seed):
    record = measure(spec(kind, name), seed, tmp_path)
    assert record["ok"], record["error"]
    assert record["count"] == SMALL[name][1]


@pytest.mark.parametrize("kind", ["enumerate", "cli", "prefix"])
def test_traced_counters_agree(tmp_path, kind):
    record = measure(spec(kind, "d2d2", count=60 if kind == "prefix" else 108),
                     3, tmp_path, mode="traced")
    assert record["ok"], record["error"]
    assert record["violations"] == [] and record["missing"] == []
    layers = record["layers"]
    assert layers["flips.find_flips.calls"] == layers["search.cache_misses"] > 0
    assert layers["search.neighbors.calls"] == (
        layers["search.cache_hits"] + layers["search.cache_misses"])
    assert layers["search.nodes"] == (60 if kind == "prefix" else 108)
    assert layers["trace.self_sum_frac"] == pytest.approx(1, abs=0.03)
    if kind == "cli":
        assert layers["symmetry.group_order"] == 36
        assert layers["symmetry.canonical_form.calls"] == 108


def test_lp_calls_match_lps_solved(tmp_path):
    record = measure(Spec("prefix", "simplex_product", (2, 4), 300), 0, tmp_path,
                     mode="traced")
    assert record["ok"], record["error"]
    layers = record["layers"]
    assert layers["lp.nonneg_combination.calls"] == layers["regularity.lps_solved"] > 0


def test_every_per_layer_metric_is_reported(tmp_path):
    record = measure(spec("cli", "cube3"), 0, tmp_path, mode="traced")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in bench["per_layer"]}
    assert names - set(record["layers"]) == {"trace.overhead_frac"}


def test_wrong_answer_marks_the_run_failed(tmp_path):
    record = measure(spec("enumerate", "cube3", count=75), 0, tmp_path)
    assert not record["ok"]
    assert "expected 75, got 74" in record["error"]
    record = measure(spec("cli", "d2d2", orbits=4), 0, tmp_path)
    assert not record["ok"] and "orbits" in record["error"]


def test_exception_marks_the_run_failed(tmp_path):
    record = measure(spec("prefix", "d2d2", count=500), 0, tmp_path)
    assert not record["ok"]
    assert "ended after 108 of 500 nodes" in record["error"]
    failed = run.result([{"ok": True}, record], {}, [{"name": "wall_s", "unit": "s"}])
    assert (failed["correct"], failed["attempted"], failed["failed"]) == (False, 2, 1)


def test_crashed_child_is_a_failed_call(tmp_path):
    record = run.run_child("no_such_workload", 0, "timed", tmp_path, time.monotonic() + 60)
    assert record["ok"] is False and "exited with code" in record["error"]


def test_missing_hook_is_reported_not_raised(tmp_path):
    original = regulartri.search.find_flips
    layers = [(name, sites) for name, sites in LAYERS if name != "flips.find_flips"]
    layers += [("flips.find_flips", ("regulartri.search:find_flips_renamed",))]
    call, verify = prepare(spec("enumerate", "cube3"), 0, tmp_path)
    tracer = Tracer(layers).install()
    try:
        raw = call()
    finally:
        tracer.uninstall()
    assert regulartri.search.find_flips is original
    count, counters = verify(raw)
    metrics, violations, missing = layer_metrics(tracer, counters, 1.0)
    assert missing == ["regulartri.search:find_flips_renamed"]
    assert metrics["flips.find_flips.calls"] == 0
    assert not any("find_flips" in v for v in violations)


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regular_d2d3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
