"""The traced run: counters repeat exactly for one seed, across processes and
hash seeds; traced answers equal untraced ones; every paper switch gives the
default engine's answers; the metric names match BENCHMARK.json."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent

# a short traced pass: ten random grammars, the five smallest requests of
# every other workload
_PROBE = """
import json, random, sys
sys.setrecursionlimit(20000)
import measure, tracing, workloads as W
out = {}
for name in sorted(W.WORKLOADS):
    rng = random.Random(f"{name}:4")
    if name == "random_grammars":
        wl = W.random_grammars(rng, n_grammars=10)
    else:
        wl = W.WORKLOADS[name](rng)
        wl.requests = sorted(wl.requests, key=lambda r: len(r.tokens))[:5]
    _, grammars = measure.load_all(wl)
    plain, failed, _ = tracing._pass(wl, lambda r: measure.serve(r, grammars[r.grammar]))
    traced, traced_failed, counts = tracing.traced_pass(wl, tracing.Tracer())
    out[name] = {"counts": counts.exact(), "same": plain == traced,
                 "failed": failed + traced_failed}
print(json.dumps(out, sort_keys=True))
"""


def _probe(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE), str(HERE.parent / "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=HERE,
                         capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout)


def test_two_traced_runs_report_identical_counters():
    a, b = _probe("1"), _probe("2")
    assert a == b
    for name, res in a.items():
        assert res["same"] and res["failed"] == 0, name
        counts = res["counts"]
        assert counts["nodes_created"] > 0 and counts["forest.count_calls"] > 0
        assert sum(counts["compaction_firings"].values()) > 0


@pytest.mark.parametrize("name", ["left_nested", "forest_consumers"])
def test_paper_switches_change_work_not_answers(name):
    wl = W.WORKLOADS[name](random.Random(f"{name}:4"))
    metrics, failed = tracing.ablation(wl)
    assert failed == 0
    assert metrics["ablation.compaction_off.nodes_ratio"] > 1
    assert metrics["ablation.naive_nullability.visits_ratio"] > 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(run.UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.unit(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
