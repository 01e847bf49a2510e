"""singerlab benchmark: theorem-driver sweeps timed end to end, and a traced
run that times each layer.

    python3 bench/run.py --workload gen_sweep --seed 0 --seconds 45 --trace 0

Run it from the root of a checkout; it imports singerlab from src/.  Every
pass and every set-up sample runs in a fresh interpreter (bench/child.py)
with a pinned environment, so no lru_cache carries over between passes.
Passes repeat, one child at a time, while another fits in --seconds.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics; it also requires the
traced reports to equal the untraced ones and the traced counts to repeat.
The workloads, their instances and the pinned counts are in
bench/workloads.json.

The last line on stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, stamped with the
environment, is written to .bench_results/.  The exit code is 0 only when
every pass passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import instance_name

BENCH = Path(__file__).resolve().parent
SETUPS_PER_PASS = 2  # spread over the run, so that one slow moment skews few samples
RUN_LIMIT_S = 170  # a run must end within 180 s

MODULES = ("groupgen", "reflect", "matrix", "poly", "singer")
CALL_COUNTS = {  # metric: span whose calls it counts
    "groupgen.closure.calls": "groupgen.closure",
    "groupgen.cache.lookups": "groupgen.cache",
    "reflect.enumerate.calls": "reflect.enumerate",
    "reflect.is_reflection.calls": "reflect.is_reflection",
    "matrix.fixed_space.calls": "matrix.fixed_space",
    "matrix.inverse.calls": "matrix.inverse",
    "poly.powmod.calls": "poly.powmod",
}
COUNTERS = ("groupgen.closure.elements", "groupgen.cache.hits",
            "reflect.factorizations", "reflect.search_nodes")
SELF_TIMES = {  # metric: span whose self time it reports
    "groupgen.closure.self_s": "groupgen.closure",
    "groupgen.normalizer.self_s": "groupgen.normalizer",
    "groupgen.classify_qc.self_s": "groupgen.classify_qc",
    "reflect.enumerate.self_s": "reflect.enumerate",
    "reflect.witness.self_s": "reflect.witness",
    "matrix.fixed_space.self_s": "matrix.fixed_space",
    "matrix.inverse.self_s": "matrix.inverse",
    "matrix.matrix_order.self_s": "matrix.matrix_order",
    "matrix.char_poly.self_s": "matrix.char_poly",
    "matrix.enumerate_gl.self_s": "matrix.enumerate_gl",
    "poly.powmod.self_s": "poly.powmod",
    "poly.is_irreducible.self_s": "poly.is_irreducible",
    "poly.is_primitive_poly.self_s": "poly.is_primitive_poly",
    "singer.is_singer.self_s": "singer.is_singer",
    "singer.singer_oracles.self_s": "singer.singer_oracles",
    "singer.normalizing_reflections.self_s": "singer.normalizing_reflections",
    "cli.self_s": "cli",
}


def counts_of(record: dict) -> dict:
    """The deterministic counts of one traced pass; bench/workloads.json pins them."""
    out = {metric: record["spans"][span][0] for metric, span in CALL_COUNTS.items()}
    out.update({name: record["counts"].get(name, 0) for name in COUNTERS})
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(setups: list, passes: list) -> dict:
    """metric: (median, unit, samples)."""
    setup = [r["setup_s"] for r in setups + passes]
    sweep = [r["sweep_s"] for r in passes]
    rss = [r["peak_rss_mb"] for r in passes]
    return {"setup_s": (statistics.median(setup), "s", len(setup)),
            "sweep_s": (statistics.median(sweep), "s", len(sweep)),
            "peak_rss_mb": (statistics.median(rss), "MB", len(rss))}


def per_layer(setups: list, plain: list, traced: list, instance_names: list) -> dict:
    """metric: (median over the traced passes, unit, samples)."""
    out = {}

    def put(metric, unit, values):
        values = list(values)
        out[metric] = (statistics.median(values), unit, len(values))

    children = setups + plain + traced
    put("singerlab.import_s", "s", (r["import_s"] for r in children))
    put("ff.make_field_s", "s", (r["make_field_s"] for r in children))
    counts = [counts_of(r) for r in traced]
    for metric in [*CALL_COUNTS, *COUNTERS]:
        put(metric, "count", (c[metric] for c in counts))
    for metric, span in SELF_TIMES.items():
        put(metric, "s", (r["spans"][span][2] for r in traced))
    for module in MODULES:
        put(f"{module}.self_s", "s", (sum(s[2] for name, s in r["spans"].items()
                                          if name.startswith(module + "."))
                                      for r in traced))
    put("reflect.enumerate_reflections_s", "s",
        (r["spans"]["reflect.enumerate_reflections"][1] for r in traced))
    put("groupgen.closure.elements_per_s", "1/s",
        (_ratio(c["groupgen.closure.elements"], r["spans"]["groupgen.closure"][1])
         for c, r in zip(counts, traced)))
    put("groupgen.cache.hit_ratio", "ratio",
        (_ratio(c["groupgen.cache.hits"], c["groupgen.cache.lookups"]) for c in counts))
    put("reflect.yield_ratio", "ratio",
        (_ratio(c["reflect.factorizations"], c["reflect.search_nodes"]) for c in counts))
    for name in instance_names:
        put(f"instance_s.{name}", "s",
            (sum((i["seconds"] for i in r["instances"] if i["name"] == name), 0.0)
             for r in plain))
    put("trace.sweep_s", "s", (r["sweep_s"] for r in traced))
    out["trace.overhead_ratio"] = (
        out["trace.sweep_s"][0] / statistics.median(r["sweep_s"] for r in plain),
        "ratio", len(traced))
    return out


def transparency_problems(plain: list, traced: list) -> list[str]:
    """Traced reports must equal untraced ones, and traced counts must repeat."""
    problems = []
    shas = {i["name"]: i["report_sha"] for r in plain for i in r["instances"]}
    for r in traced:
        problems += [f"traced report of {i['name']} differs from the untraced one"
                     for i in r["instances"] if i["report_sha"] != shas.get(i["name"])]
    if any(counts_of(r) != counts_of(traced[0]) for r in traced[1:]):
        problems.append("traced counts differ between passes")
    return problems


def child_env(root: Path) -> dict:
    """The caller's environment without anything that changes what is measured.

    SINGERLAB_CAP would replace the built-in closure cap, PYTHONOPTIMIZE
    would strip the contract asserts in src/, and other PYTHON* variables
    (dev mode, import-time profiling, a foreign PYTHONPATH) change the run.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SINGERLAB_", "PYTHON")) or k == "PYTHONHOME"}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha(root: Path) -> str | None:
    """HEAD's commit from .git, without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class ChildFailed(Exception):
    pass


class Runner:
    """Starts the child interpreters of one run, one at a time."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.env = child_env(root)
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, run_pass: bool, trace: bool = False) -> dict:
        remaining = RUN_LIMIT_S - self.elapsed()
        if remaining <= 0:
            raise ChildFailed("no time left in the run")
        job = {"workload": self.workload, "seed": self.seed, "pass": run_pass,
               "trace": trace, "spawned": time.monotonic()}
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(job)],
                                  cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise ChildFailed(f"child timed out after {exc.timeout:.0f} s") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise ChildFailed(f"child exited with code {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])


def measure(runner: Runner, seconds: float, trace: bool) -> tuple:
    """Set-up samples, untraced passes, traced passes, and the crash that
    ended the run early, if one did."""
    setups, plain, traced, walls = [], [], [], []
    try:
        runner.child(run_pass=False)  # unmeasured: compiles bytecode on a fresh checkout
        while True:
            traced_pass = trace and len(plain) > len(traced)
            began = time.monotonic()
            setups += [runner.child(run_pass=False) for _ in range(SETUPS_PER_PASS)]
            (traced if traced_pass else plain).append(
                runner.child(run_pass=True, trace=traced_pass))
            walls.append(time.monotonic() - began)
            enough = plain and (traced or not trace)
            if enough and runner.elapsed() + statistics.median(walls) > seconds:
                return setups, plain, traced, None
    except ChildFailed as exc:
        return setups, plain, traced, f"pass {len(walls) + 1}: {exc}"


def summarize(metrics: dict) -> list[str]:
    return [f"{name}: {value:.6g} {unit} (median of {n})"
            for name, (value, unit, n) in metrics.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "singerlab" / "__init__.py").is_file():
        print("bench/run.py: run from the root of a singerlab checkout "
              "(src/singerlab not found)", file=sys.stderr)
        return 2
    catalog = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    if args.workload not in catalog:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(catalog)}")
    spec = catalog[args.workload]

    runner = Runner(root, args.workload, args.seed)
    setups, plain, traced, crash = measure(runner, args.seconds, bool(args.trace))
    passes = plain + traced
    problems = [crash] if crash else []
    attempted = spec["items"] * (len(passes) + len(problems))
    failed = spec["items"] * len(problems)
    failed += sum(i["failed"] for r in passes for i in r["instances"])
    problems += [f"{i['name']}: {p}" for r in passes for i in r["instances"]
                 for p in i["problems"]]
    if args.trace and plain and traced:
        problems += transparency_problems(plain, traced)
        names = [instance_name(i) for w in catalog.values() for i in w["instances"]]
        metrics = per_layer(setups, plain, traced, names)
    elif passes:
        metrics = end_to_end(setups, plain)
    else:
        metrics = {}
    correct = failed == 0 and not problems and bool(metrics)

    stamp = {"git_sha": git_sha(root), "python": platform.python_version(),
             "cpu_count": os.cpu_count(),
             "numpy": next((r["numpy"] for r in setups), None),
             "traced": bool(args.trace), "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds}
    out_dir = root / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    record = {"stamp": stamp, "correct": correct, "attempted": attempted, "failed": failed,
              "problems": problems,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()},
              "setups": setups, "passes": passes}
    path = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps(stamp))
    for line in problems + summarize(metrics):
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
