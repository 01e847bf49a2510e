"""Tests of the benchmark itself:  python -m pytest -q bench

The last test runs every workload's traced run twice at the pinned seed
(about three minutes on two cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CATALOG = json.loads((BENCH / "workloads.json").read_text())
WORKLOADS = CATALOG["workloads"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def test_catalog_items_match_closed_forms():
    for spec in WORKLOADS.values():
        items = [child.expected_counts(i["driver"], i["n"], i["p"] ** i["k"])["checked"]
                 for i in spec["instances"]]
        assert items == [i["items"] for i in spec["instances"]]
        assert sum(items) == spec["items"]
    assert child.expected_counts("main2", 2, 7)["exceptional_pairs"] == 64
    assert child.expected_counts("main2", 2, 4)["exceptional_pairs"] == 20
    assert child.expected_counts("main2", 4, 2)["exceptional_pairs"] == 0
    assert child.expected_counts("main1", 2, 5) == {"checked": 480, "singer_cycles": 80,
                                                    "witnesses": 400}


def test_gate_fails_items():
    expected = child.expected_counts("main2", 2, 4)
    good = {"checked": 220, "exceptional_pairs": [{}] * 20, "violations": []}
    assert child.gate(expected, good, 0) == (0, [])
    failed, problems = child.gate(expected, {**good, "violations": [{}, {}]}, 0)
    assert failed == 2 and len(problems) == 1
    assert child.gate(expected, {**good, "checked": 219}, 0)[0] == 220
    assert child.gate(expected, {**good, "exceptional_pairs": []}, 0)[0] == 220
    assert child.gate(expected, good, 1)[0] == 220
    assert child.gate(expected, {"checked": 220, "exceptional_pairs": [{}] * 20}, 0)[0] == 220


def test_benchmark_json_names_what_run_reports():
    record = {"setup_s": 0.2, "import_s": 0.1, "make_field_s": 0.01, "sweep_s": 1.0,
              "peak_rss_mb": 30.0, "instances": [],
              "spans": tracer.Tracer().spans, "counts": {}}
    names = [child.instance_name(i) for w in WORKLOADS.values() for i in w["instances"]]
    produced = {**run.end_to_end([record], [record]),
                **run.per_layer([record], [record], [record], names)}
    listed = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert listed == {name: unit for name, (_, unit, _) in produced.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    pinned = set(run.CALL_COUNTS) | set(run.COUNTERS)
    assert all(set(w["pinned_counts"]) == pinned for w in WORKLOADS.values())


def test_install_rebinds_every_imported_name():
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import singerlab.cli, tracer\n"
        "originals = {}\n"
        "for mod, attr, _ in tracer.CALLS + tracer.GENERATORS:\n"
        "    if '.' not in attr:\n"
        "        originals[id(getattr(sys.modules[mod], attr))] = attr\n"
        "tracer.install()\n"
        "left = [f'{n}.{k}' for n, m in sys.modules.items() if n.startswith('singerlab')\n"
        "        for k, v in vars(m).items() if id(v) in originals]\n"
        "assert not left, left\n")
    env = run.child_env(ROOT)
    subprocess.run([sys.executable, "-c", script, str(BENCH)], env=env, check=True, timeout=60)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench_run("gen_sweep", 0, 0, cwd=tmp_path)
    assert code != 0 and lines == []


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_are_pinned_and_repeat(workload):
    seen = []
    for _ in range(2):
        code, lines = bench_run(workload, CATALOG["pinned_seed"], 1)
        result = json.loads(lines[-1])
        assert code == 0 and result["correct"] and result["failed"] == 0, lines[:-1]
        seen.append({k: result["metrics"][k]["value"] for k in WORKLOADS[workload]["pinned_counts"]})
    assert seen[0] == seen[1] == WORKLOADS[workload]["pinned_counts"]
