"""fanshift benchmark: cold-process jobs, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload orbit|sampling|enumeration|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory, and the
package is imported from its ``src/``.  Each job runs in a fresh interpreter
(``job.py``), one at a time, so every command pays its caches cold, as a CLI
invocation does.  Jobs repeat in workload order, each at least once, for as
long as the next one, at its last duration, ends within ``--seconds``.  With ``--trace 1``, whole untraced and
traced passes alternate instead, and the traced ones give the per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json untraced, its per-layer metrics traced.  The lines
before it are a readable summary, and the full result, with the
environment, is written to ``.bench_work/``.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
JOB_PY = os.path.join(HERE, "job.py")
RUN_LIMIT_S = 170.0  # no job may start or run past this; the contract allows 180

RENDERS = [f"render-{fig}" for fig in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "glue")]
WORKLOADS = {
    "orbit": ["verify-orbit", "orbit-seeded", "verify-impression"],
    "sampling": ["verify-decomposition", "verify-diam", "verify-hlavna",
                 "verify-quotient", "shift-check"],
    "enumeration": ["verify-cantor", "verify-juma", "verify-distinguish", *RENDERS,
                    "fan-census", "distinguish-all"],
}


def _mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Jobs and passes
# ---------------------------------------------------------------------------


def run_job(name: str, seed: int, trace: bool, deadline: float) -> dict:
    """Run one job in a fresh interpreter and return its parsed result.

    Adds ``wall_s`` (spawn to exit) and ``setup_s`` (spawn to first timed
    call); a job that crashes, times out or prints no result is failed.
    """
    cmd = [sys.executable, "-I", JOB_PY, name, "--seed", str(seed),
           "--trace", str(int(trace)), "--work", WORK]
    spawned = _mono()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        why = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
    except subprocess.TimeoutExpired:
        res, why = None, ["timed out"]
    wall = _mono() - spawned
    if res is None:
        res = {"job": name, "ok": False, "errors": why, "first_call": None,
               "times": {}, "items": {}, "rss_kb": 0, "trace": None}
    res["wall_s"] = wall
    res["setup_s"] = res["first_call"] - spawned if res["first_call"] else None
    return res


def run_pass(jobs, seed, trace, deadline) -> tuple[float, list[dict]]:
    start = _mono()
    results = [run_job(j, seed, trace, deadline) for j in jobs]
    return _mono() - start, results


def measure(jobs, seed, seconds, hard_deadline) -> list[dict]:
    """Untraced: cycle through the jobs, each at least once, while the next
    job, at its last duration, still ends within ``seconds``."""
    start = _mono()
    last: dict[str, float] = {}
    results: list[dict] = []
    i = 0
    while True:
        job = jobs[i % len(jobs)]
        if i >= len(jobs) and _mono() - start + last[job] > seconds:
            break
        if _mono() >= hard_deadline:
            break
        results.append(run_job(job, seed, False, hard_deadline))
        last[job] = results[-1]["wall_s"]
        i += 1
    return results


def measure_traced(jobs, seed, seconds, hard_deadline):
    """Alternate whole untraced and traced passes, at least one of each,
    while another pair, at the last pair's duration, ends within ``seconds``."""
    start = _mono()
    plain: list[tuple[float, list[dict]]] = []
    traced: list[tuple[float, list[dict]]] = []
    while True:
        pair_start = _mono()
        plain.append(run_pass(jobs, seed, False, hard_deadline))
        traced.append(run_pass(jobs, seed, True, hard_deadline))
        now = _mono()
        if now - start + (now - pair_start) > seconds or now >= hard_deadline:
            return plain, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(jobs, results) -> dict:
    """End-to-end metrics of one workload from its untraced job results."""
    by_job = {j: [r for r in results if r["job"] == j] for j in jobs}
    wall = {j: _median([r["wall_s"] for r in rs]) for j, rs in by_job.items()}
    failed = sum(1 for r in results if not r["ok"])
    out = {
        "setup_s": _median([r["setup_s"] for r in results if r["setup_s"] is not None]),
        "pass_s": sum(wall.values()),
        "peak_rss_mb": max(_median([r["rss_kb"] for r in rs]) for rs in by_job.values()) / 1024.0,
        "failed_share": failed / len(results),
    }
    # per-command times, for the summary: median over this run's samples
    per_metric: dict[str, list[float]] = {}
    for r in results:
        for name, t in r["times"].items():
            per_metric.setdefault(name, []).append(t)
    for name, ts in per_metric.items():
        out[name] = _median(ts)
    return out


def per_layer(plain, traced) -> dict:
    """Per-layer metrics: traced-pass sums of every job's spans and counters,
    median over the traced passes, plus derived ratios and the overhead."""
    passes = []
    for _, results in traced:
        merged: dict[str, float] = {}
        for r in results:
            for key, v in {**(r["trace"] or {}), **r["items"]}.items():
                merged[key] = merged.get(key, 0) + v
        passes.append(merged)
    keys = sorted({k for p in passes for k in p})
    out = {k: _median([p.get(k, 0) for p in passes]) for k in keys}
    tries = out.get("impression.transitive_orbit_builder.dist_window_calls", 0)
    visits = out.get("impression.transitive_orbit_builder.visits", 0)
    out["impression.connector_acceptance"] = visits / tries if tries else 0.0
    lookups = out.get("invariants.distinguish.profile_lookups", 0)
    misses = out.get("invariants.distinguish.profile_misses", 0)
    out["invariants.profile_cache_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    out["tracing_overhead_s"] = (_median([w for w, _ in traced])
                                 - _median([w for w, _ in plain]))
    return out


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, why: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
        with open("/proc/loadavg", encoding="utf-8") as fh:
            load1 = float(fh.read().split()[0])
    except OSError:
        load1 = -1.0
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": load1,
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "why": why.get(workload, ""),
    }


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name, seed, seconds, trace, bench, hard_deadline) -> dict:
    jobs = WORKLOADS[name]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if trace:
        plain, traced = measure_traced(jobs, seed, seconds, hard_deadline)
        results = [r for _, rs in plain + traced for r in rs]
        values = per_layer(plain, traced)
        wanted = [m["name"] for m in bench["per_layer"]]
    else:
        results = measure(jobs, seed, seconds, hard_deadline)
        values = end_to_end(jobs, results)
        wanted = [m["name"] for m in bench["end_to_end"]]
    failed = sum(1 for r in results if not r["ok"])
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    return {
        "env": environment(name, seed, why),
        "trace": bool(trace),
        "attempted": len(results),
        "failed": failed,
        "errors": sorted({f"{r['job']}: {e}" for r in results for e in r["errors"]}),
        "values": values,
        "metrics": {k: {"value": values.get(k, 0), "unit": units[k]} for k in wanted},
    }


def _unit(key: str, metrics: dict) -> str:
    if key in metrics:
        return metrics[key]["unit"]
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.endswith(("_share", "_ratio", "acceptance")) else "count"


def print_summary(res: dict) -> None:
    env = res["env"]
    print(f"# workload {env['workload']}  seed {env['seed']}  trace {int(res['trace'])}  "
          f"jobs {res['attempted']} ({res['failed']} failed)")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for err in res["errors"]:
        print(f"# FAILED {err}")
    for key in sorted(res["values"]):
        print(f"{key:60s} {res['values'][key]:.6g} {_unit(key, res['metrics'])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fanshift", "__init__.py")):
        print(f"no fanshift source under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    os.makedirs(WORK, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    limit = RUN_LIMIT_S * len(names)
    start = _mono()
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace, bench, start + limit)
        print_summary(res)
        out = os.path.join(WORK, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=2, sort_keys=True)
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['env']['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
