"""One benchmark job, run in a fresh interpreter so every cache starts cold.

    python3 -I benchmarks/job.py <job> --seed N --trace 0|1 --work DIR

The job imports fanshift from ``src/`` of the checkout, builds its inputs
from the seed, times its calls into the package, checks every output it
timed against ``expected.json``, and prints one JSON line:

    {"job", "ok", "errors", "first_call", "times", "items", "rss_kb", "trace"}

``first_call`` is the CLOCK_MONOTONIC reading taken as the first timed call
starts, so the parent can measure set-up (interpreter start, import, input
generation) from the moment it spawned this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import fanshift  # noqa: E402
from fanshift import cli, impression, invariants, mahavier, quotients  # noqa: E402
from fanshift.mahavier import MPoint, WindowConfig  # noqa: E402
from fanshift.quotients import AParam  # noqa: E402
from fanshift.xspace import XPoint  # noqa: E402

import tracing  # noqa: E402

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


def _mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Job:
    """Timing and checking state of one job."""

    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.seed = seed
        self.work = work
        self.first_call: float | None = None
        self.times: dict[str, float] = {}
        self.items: dict[str, int] = {}
        self.errors: list[str] = []

    def timed(self, metric: str, fn, *args, **kwargs):
        if self.first_call is None:
            self.first_call = _mono()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.times[metric] = self.times.get(metric, 0.0) + time.perf_counter() - start
        return result

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)


# ---------------------------------------------------------------------------
# Command-line jobs: the fanshift CLI at its defaults, or with the seed
# ---------------------------------------------------------------------------


def _cli(job: Job, argv: list[str], out: str, metric: str) -> int:
    """Run one fanshift command writing ``out``; a stale ``out`` is removed first."""
    if os.path.exists(out):
        os.remove(out)
    try:
        return job.timed(metric, cli.main, argv)
    except SystemExit as exc:  # argparse usage error
        return exc.code if isinstance(exc.code, int) else 2


def verify_job(name: str, seeded: bool = False):
    """``fanshift verify <name>``; seeded commands get the workload seed.

    A report is compared byte for byte with its recorded digest whenever the
    effective seed is the default (0); otherwise its verdict is checked.
    """

    def run(job: Job) -> dict:
        path = os.path.join(job.work, f"{name}.json")
        argv = ["verify", name, "--report", path]
        if seeded:
            argv += ["--seed", str(job.seed)]
        rc = _cli(job, argv, path, f"{name}_s")
        expect_pass = name not in EXPECTED["expected_fail"]
        job.check(rc == (0 if expect_pass else 1), f"exit code {rc}")
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        job.check(report["pass"] is expect_pass, f"verdict {report['pass']}")
        if not seeded or job.seed == 0:
            job.check(_sha256(path) == EXPECTED["digests"][f"verify-{name}"],
                      "report differs from the recorded digest")
        return report

    return run


def render_job(fig: str):
    def run(job: Job) -> None:
        path = os.path.join(job.work, f"{fig}.svg")
        rc = _cli(job, ["render", fig, "--out", path], path, f"render_{fig}_s")
        job.check(rc == 0, f"exit code {rc}")
        job.check(_sha256(path) == EXPECTED["digests"][f"render-{fig}"],
                  "SVG differs from the recorded digest")

    return run


def verify_orbit_cli(job: Job) -> None:
    report = verify_job("orbit")(job)
    check = report["extra"]["verify"]
    job.check(check["coverage"] == 1.0, f"coverage {check['coverage']}")
    job.check(check["max_dist"] <= report["params"]["eps"], f"max_dist {check['max_dist']}")


def verify_diam(job: Job) -> None:
    """diam FAILs by design: every witness must be a slice-rate witness."""
    report = verify_job("diam", seeded=True)(job)
    job.check(all(w["check"] == "slice" for w in report["witnesses"]),
              "diam failed for another reason than the stated slice rate")
    job.check(all(report["extra"]["within_attained_rate"].values()),
              "diam exceeded the attained rate 2^(1-k)")


# ---------------------------------------------------------------------------
# Library jobs: seeded or exhaustive inputs, timed calls into the modules
# ---------------------------------------------------------------------------

ORBIT_EPS = 0.125


def orbit_seeded(job: Job) -> None:
    """The default orbit net's words with heights drawn from the seed."""
    cfg = WindowConfig(2)
    rng = random.Random(job.seed)
    net = [
        p if p.is_all_infinity else MPoint(p.word, XPoint(p.t0.k, rng.random()))
        for p in impression.build_net(ORBIT_EPS, cfg)
    ]
    result = job.timed("orbit_seeded_s", impression.transitive_orbit_builder,
                       ORBIT_EPS, cfg, net=net)
    check = job.timed("orbit_seeded_s", impression.verify_orbit, result)
    job.check(result.passed and check["passed"], "orbit build or re-check failed")
    job.check(check["coverage"] == 1.0, f"coverage {check['coverage']}")
    job.check(check["max_dist"] <= ORBIT_EPS, f"max_dist {check['max_dist']}")


SHIFT_SAMPLES = 2000
NET_SAMPLES = 500


def shift_check(job: Job) -> None:
    """Conjugated-shift evidence and density transfer on seeded window points.

    The density net is the depth-2 model image of the first samples; its
    addresses are prefixes of the depth-4 ones, so every net point lies
    within 3^-5 of the cloud and the check must pass.
    """
    rng = random.Random(job.seed)
    samples = [mahavier.random_window_point(rng, rng.randint(1, 4), 8) for _ in range(SHIFT_SAMPLES)]
    rep = job.timed("shift_check_s", quotients.check_conjugated_shift, samples)
    cloud = job.timed("shift_check_s", lambda: [mahavier.model_map(p, 4) for p in samples])
    net = job.timed("shift_check_s", lambda: [mahavier.model_map(p, 2) for p in samples[:NET_SAMPLES]])
    dens = job.timed("shift_check_s", quotients.density_transfer_report, cloud, net, 2.0**-7)
    job.check(rep["passed"], f"conjugated shift check failed: {rep}")
    job.check(dens["passed"] and dens["gap_before"] <= 3.0**-5,
              f"density transfer failed: {dens}")


def fan_census(job: Job) -> None:
    """build_fan + profile + oracle_agreement for every parameter, kmax 1-4,
    at depths 3, 4 and 5 (90 fans), against the recorded verdicts."""
    rows = []

    def census():
        for depth in (3, 4, 5):
            for kmax in range(1, 5):
                kb = quotients.host_bundle(kmax) + 2 * kmax
                for a in AParam.all_params(kmax):
                    fan = quotients.build_fan(a, kb, depth)
                    prof = invariants.profile(fan)
                    agree = invariants.oracle_agreement(fan)
                    rows.append((depth, list(a.coords), prof, agree))

    job.timed("fan_census_s", census)
    known = EXPECTED["census"]
    failing = [[d, c] for d, c, _, agree in rows if not agree["passed"]]
    job.check(len(rows) == 90, f"{len(rows)} fans")
    job.check(failing == known["oracle_mismatch_fans"],
              "oracle verdicts differ from the recorded expected-FAIL list")
    first = next((agree["mismatches"][0]["leg"] for d, c, _, agree in rows
                  if not agree["passed"]), None)
    job.check(first == known["first_witness_leg"], f"first witness leg {first}")
    table = [[d, c, sorted(p.multiset().items()), agree["passed"]] for d, c, p, agree in rows]
    job.check(_digest(table) == known["profiles_digest"], "census profiles changed")
    job.items["invariants.oracle_mismatch_fans"] = len(failing)


def distinguish_all(job: Job) -> None:
    """distinguish over all 240 ordered pairs of kmax-4 parameters, depth 5."""
    params = AParam.all_params(4)
    pairs = [(a, b) for a in params for b in params if a != b]
    certs = job.timed("distinguish_s",
                      lambda: [invariants.distinguish(a, b, 4, 5) for a, b in pairs])
    for (a, b), cert in zip(pairs, certs):
        k = next(i for i in range(1, 5) if a[i] != b[i])
        ok = (cert.k == k and cert.first_value == a[k] + 1
              and cert.second_value == b[k] + 1
              and cert.first_value in cert.first_counts
              and cert.first_value not in cert.second_counts)
        job.check(ok, f"certificate for {a.coords} vs {b.coords}")
    job.check(len(certs) == 240, f"{len(certs)} pairs")
    job.check(_digest([c.to_dict() for c in certs]) == EXPECTED["distinguish_digest"],
              "certificates changed")


JOBS = {
    "verify-orbit": verify_orbit_cli,
    "orbit-seeded": orbit_seeded,
    "verify-impression": verify_job("impression"),
    "verify-decomposition": verify_job("decomposition", seeded=True),
    "verify-diam": verify_diam,
    "verify-hlavna": verify_job("hlavna"),
    "verify-quotient": verify_job("quotient", seeded=True),
    "shift-check": shift_check,
    "verify-cantor": verify_job("cantor"),
    "verify-juma": verify_job("juma"),
    "verify-distinguish": verify_job("distinguish"),
    **{f"render-{fig}": render_job(fig) for fig in cli.FIGURE_IDS},
    "fan-census": fan_census,
    "distinguish-all": distinguish_all,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("job", choices=sorted(JOBS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()

    if not os.path.abspath(fanshift.__file__).startswith(SRC + os.sep):
        print(f"fanshift imported from {fanshift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    job = Job(args.job, args.seed, args.work)
    try:
        JOBS[args.job](job)
    except Exception as exc:  # a raised job is a failed job, not a crash
        job.errors.append(f"{type(exc).__name__}: {exc}")
    out = {
        "job": job.name,
        "ok": not job.errors,
        "errors": job.errors,
        "first_call": job.first_call,
        "times": job.times,
        "items": job.items,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer is not None else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
