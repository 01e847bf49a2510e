"""One benchmark child: set up singerlab, then optionally run one pass.

Run by bench/run.py in a fresh interpreter, so that every lru_cache in
singerlab starts cold, as it does for every CLI invocation.  Its single
argument is a JSON job:

    {"workload": name, "seed": n, "pass": bool, "trace": bool, "spawned": t}

where `spawned` is the parent's time.monotonic() just before the spawn
(CLOCK_MONOTONIC is shared by all processes), so setup_s covers
interpreter start, the import of singerlab and building every field the
workload uses.  The last line on stdout is one JSON record of the child.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def instance_name(inst: dict) -> str:
    return f"{inst['driver']}.GL{inst['n']}F{inst['p'] ** inst['k']}"


def expected_counts(driver: str, n: int, q: int) -> dict:
    """Closed-form values every report of the driver must carry."""
    def phi(m):
        return sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)

    singer_classes = phi(q**n - 1) // n
    gl = math.prod(q**n - q**i for i in range(n))
    if driver == "main2":
        reflections = (q**n - 1) // (q - 1) * (q ** (n - 1) * (q - 1) - 1)
        return {"checked": singer_classes * reflections,
                "exceptional_pairs": singer_classes * (q + 1) if n == 2 and q > 2 else 0}
    if driver == "gill":
        return {"checked": singer_classes * ((q - 1) * q ** (n - 1) - 1)}
    singers = singer_classes * gl // (q**n - 1)
    out = {"checked": gl, "singer_cycles": singers}
    if driver == "main1":
        out["witnesses"] = gl - singers
    return out


def gate(expected: dict, report: dict, code: int) -> tuple[int, list[str]]:
    """Failed items of one instance, and what failed.

    Each violation fails one item; a missed closed-form count or a nonzero
    exit code fails every item of the instance.
    """
    got = dict(report)
    if "exceptional_pairs" in expected:
        got["exceptional_pairs"] = len(report.get("exceptional_pairs", ()))
    if "witnesses" in expected:
        got["witnesses"] = sum(report.get("witnesses", {}).values())
    problems = [f"{key}: expected {value}, got {got.get(key)}"
                for key, value in expected.items() if got.get(key) != value]
    if code != 0:
        problems.append(f"exit code {code}")
    violations = report.get("violations")
    if not isinstance(violations, list):
        problems.append("report has no violations list")
        violations = []
    failed = expected["checked"] if problems else min(len(violations), expected["checked"])
    if violations:
        problems.append(f"violations: {violations!r:.200}")
    return failed, problems


def run_instance(singerlab, fields: dict, inst: dict, seed: int) -> tuple[dict, int]:
    """The driver's report and its exit code (0 for a direct API call)."""
    driver, n, p, k = inst["driver"], inst["n"], inst["p"], inst["k"]
    if inst["via"] == "cli":
        argv = ["verify", driver, "--n", str(n), "--p", str(p), "--k", str(k),
                "--output", "json"]
        if driver == "main1":
            argv += ["--seed", str(seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = singerlab.cli.main(argv)
        return json.loads(out.getvalue()), code
    field = fields[(p, k)]
    groupgen = singerlab.groupgen  # looked up per call, so traced wrappers apply
    if driver == "main1":
        return groupgen.verify_main1(n, field, seed=seed), 0
    if driver == "main2":
        return groupgen.verify_main2(n, field), 0
    return groupgen.verify_gill(n, field), 0


def digest(report: dict) -> str:
    stable = {k: v for k, v in report.items() if k != "elapsed_ms"}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def sweep(singerlab, fields: dict, spec: dict, seed: int) -> dict:
    """One pass over the workload's instances, in their listed order.

    The seed is main1's seed for its randomized conjugation spot checks;
    main2, gill and singer-equiv make no random choice.  The order is
    fixed because peak memory depends on it.
    """
    records = []
    cpu = time.process_time()
    start = time.perf_counter()
    for inst in spec["instances"]:
        expected = expected_counts(inst["driver"], inst["n"], inst["p"] ** inst["k"])
        t = time.perf_counter()
        try:
            report, code = run_instance(singerlab, fields, inst, seed)
        except Exception as exc:  # an instance that raises fails all its items
            traceback.print_exc()
            failed, problems, sha = expected["checked"], [f"raised {exc!r}"], None
        else:
            failed, problems = gate(expected, report, code)
            sha = digest(report)
        records.append({"name": instance_name(inst), "seconds": time.perf_counter() - t,
                        "failed": failed, "problems": problems, "report_sha": sha})
    return {"sweep_s": time.perf_counter() - start, "cpu_s": time.process_time() - cpu,
            "instances": records}


def main() -> None:
    job = json.loads(sys.argv[1])
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)["workloads"][job["workload"]]
    t0 = time.monotonic()
    import singerlab.cli
    t1 = time.monotonic()
    fields = {(i["p"], i["k"]): singerlab.make_field(i["p"], i["k"])
              for i in spec["instances"]}
    t2 = time.monotonic()
    numpy = sys.modules.get("numpy")  # loaded by singerlab itself, never by the harness
    record = {"setup_s": t2 - job["spawned"], "import_s": t1 - t0, "make_field_s": t2 - t1,
              "numpy": getattr(numpy, "__version__", None)}
    if job["pass"]:
        tracer = None
        if job["trace"]:
            import tracer as tracing
            tracer = tracing.install()
        record.update(sweep(singerlab, fields, spec, job["seed"]))
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            record["spans"] = tracer.spans
            record["counts"] = dict(tracer.counts)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
