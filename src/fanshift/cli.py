"""Command-line entry point: verification experiments and figure rendering.

Usage:
    fanshift render <fig1|fig2|fig3|fig4|fig5|fig6|glue> --out PATH [--depth D]
    fanshift verify <name> [params] [--report PATH]
    fanshift schema

Exit codes: 0 when a command (and its check) succeeds, 1 when a
verification fails, 2 on usage errors, including invalid parameter values,
unreadable config files and unwritable output paths.  Reports are
deterministic for a fixed seed; wall-clock timings are only included with --timings since they
break byte-for-byte reproducibility.  Parameter precedence is flags over
config file (plain key=value lines, --config) over defaults; the seed can
also come from the FANSHIFT_SEED environment variable.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from . import impression, invariants, itinerary, quotients, relations
from .errors import FanshiftError, NotDistinguished
from .figures import FIGURE_IDS, render_figure
from .mahavier import (
    WindowConfig,
    diagonal_point,
    dist_window,
    fiber_length,
    random_window_point,
    shift,
    unshift,
)
from .quotients import AParam
from .reports import dump_report, make_report, schema_text
from .xspace import XPoint, embed, interval_diameter

VERIFY_NAMES = (
    "decomposition",
    "diam",
    "cantor",
    "impression",
    "hlavna",
    "quotient",
    "juma",
    "distinguish",
    "orbit",
)

_DEFAULTS = {
    "kmax": 8,
    "samples": 1000,
    "depth": 12,
    "eps": 0.0625,
    "window": 8,
    "seed": 0,
    "seed_t": 0.5,
    "grid": 2.0**-10,
    "u_cells": 12,
}


def _cast(key: str, cast, raw: str):
    """Convert a config or environment value, naming its key if invalid."""
    try:
        return cast(raw)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


class Params:
    """Effective parameters: flags beat config-file values beat defaults."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._config = _load_config(self._args.get("config"))

    def get(self, name: str, cast=None, default=None):
        flag = self._args.get(name)
        if flag is not None:
            return flag
        if name in self._config:
            raw = self._config[name]
            return _cast(name, cast, raw) if cast else raw
        if default is not None:
            return default
        return _DEFAULTS.get(name)

    def seed(self) -> int:
        flag = self._args.get("seed")
        if flag is not None:
            return flag
        if "seed" in self._config:
            return _cast("seed", int, self._config["seed"])
        env = os.environ.get("FANSHIFT_SEED")
        if env is not None:
            return _cast("FANSHIFT_SEED", int, env)
        return _DEFAULTS["seed"]


def _run_decomposition(p: Params):
    kmax = p.get("kmax", int)
    samples = p.get("samples", int)
    rep = relations.decomposition_check(kmax, samples, seed=p.seed())
    witnesses = [rep.first_counterexample] if rep.first_counterexample else []
    return rep.passed, witnesses, rep.to_dict(), {"kmax": kmax, "samples": samples}


def _run_diam(p: Params):
    kmax = p.get("kmax", int)
    samples = p.get("samples", int)
    n = p.get("window", int)
    rng = random.Random(p.seed())
    witnesses = []
    for k in range(1, kmax + 1):
        got = embed(XPoint(k, 1.0)) - embed(XPoint(k, 0.0))
        if got != interval_diameter(k):
            witnesses.append({"check": "interval", "k": k, "diameter": got})
    klim = min(kmax, 6)
    cfg = WindowConfig(n)
    worst = {}
    within_rate = {}
    for k in range(1, klim + 1):
        bound = fiber_length(k)
        top = 0.0
        seen = 0
        for _ in range(samples):
            a = random_window_point(rng, k, n)
            b = random_window_point(rng, k, n)
            d = dist_window(a, b, cfg)
            top = max(top, d)
            if d > bound and seen < 3:
                seen += 1
                witnesses.append({"check": "slice", "k": k, "dist": d, "bound": bound})
        worst[str(k)] = top
        # the provable slice rate is 2^(1-k): one weighted step down the
        # interval ray doubles the distance, so the stated 2^(1-2k) is only
        # attained by the base coordinate
        within_rate[str(k)] = top <= 2.0 ** (1 - k)
    passed = not witnesses
    return passed, witnesses, {
        "worst_slice_dist": worst,
        "within_attained_rate": within_rate,
    }, {
        "kmax": kmax,
        "samples": samples,
        "window": n,
    }


def _run_cantor(p: Params):
    kmax = p.get("kmax", int)
    depth = p.get("depth", int)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    witnesses = []
    min_branch = 3
    words = 0
    for k in range(1, kmax + 1):
        cert = itinerary.cantor_certificate(k, depth)
        words += cert.words_checked
        min_branch = min(
            min_branch, cert.min_right_branching, cert.min_left_branching
        )
        if not cert.passed:
            witnesses.append(cert.to_dict())
    return (
        not witnesses,
        witnesses,
        {"min_branching": min_branch, "words_checked": words},
        {"kmax": kmax, "depth": depth},
    )


def _run_impression(p: Params):
    seed_t = p.get("seed_t", float)
    eps = p.get("eps", float)
    depth = p.get("depth", int)
    k_cut = p.get("k_cut", int, default=impression.default_k_cut(eps))
    m_max = p.get("m_max", int, default=12)
    n_max = p.get("n_max", int, default=12)
    k_max = p.get("k_max", int, default=8)
    seed = XPoint(1, seed_t)
    cloud = impression.forward_reachable(seed, depth)
    cloud.update(
        sp.xpoint() for sp in impression.symbolic_family(seed_t, m_max, n_max, k_max)
    )
    rep = impression.eps_dense_check(cloud, eps, k_cut)
    return rep.passed, rep.uncovered, rep.to_dict(), {
        "seed_t": seed_t,
        "eps": eps,
        "depth": depth,
        "k_cut": k_cut,
        "m_max": m_max,
        "n_max": n_max,
        "k_max": k_max,
    }


def _run_hlavna(p: Params):
    reports = [
        quotients.check_hlavna(quotients.identity_map, name="identity"),
        quotients.check_hlavna(quotients.swap_digit_map, name="digit-swap"),
    ]
    crush = quotients.check_hlavna(quotients.vertex_crush_map, name="vertex-crush")
    witnesses = [r.to_dict() for r in reports if not r.passed]
    rejected = not crush.hypothesis_ok and crush.witness is not None
    if not rejected:
        witnesses.append({"check": "violator", "report": crush.to_dict()})
    passed = all(r.passed for r in reports) and rejected
    return passed, witnesses, {
        "maps": [r.to_dict() for r in reports],
        "violator": crush.to_dict(),
    }, {}


def _run_quotient(p: Params):
    a = AParam.parse(p.get("a", str, default="2,4"))
    samples = p.get("samples", int)
    rng = random.Random(p.seed())
    witnesses = []
    try:
        quotients.descend(shift, a, rng=rng, pairs=max(50, samples // 10))
    except FanshiftError as exc:
        witnesses.append({"check": "descend", "error": str(exc)})
    checked = 0
    for k in range(1, len(a) + 1):
        for i in range(1, a[k] + 1):
            for _ in range(max(1, samples // (4 * len(a) * a[k]))):
                x, y = quotients.glued_pair(k, i, rng.random())
                for tag, fx, fy in (
                    ("shift", shift(x), shift(y)),
                    ("unshift", unshift(x), unshift(y)),
                ):
                    checked += 1
                    if not quotients.sim_a(fx, fy, a):
                        witnesses.append({"check": tag, "k": k, "i": i})
    for j in (3, 4, 7):
        x = diagonal_point(j, rng.random())
        if not quotients.sim_a(shift(x), x, a):
            witnesses.append({"check": "diagonal-fixed", "j": j})
    return not witnesses, witnesses, {"pairs_checked": checked}, {
        "a": list(a.coords),
        "samples": samples,
    }


def _run_juma(p: Params):
    depth = p.get("depth", int, default=3)
    grid = p.get("grid", float)
    params = [
        AParam(()),
        AParam((1,)),
        AParam((2,)),
        AParam((1, 3)),
        AParam((2, 4)),
    ]
    witnesses = []
    for a in params:
        kb = quotients.host_bundle(max(1, len(a))) + 2 * max(1, len(a))
        fan = quotients.build_fan(a, kb, depth)
        rep = invariants.oracle_agreement(fan, grid)
        if not rep["passed"]:
            witnesses.append({"a": list(a.coords), "mismatches": rep["mismatches"]})
    return not witnesses, witnesses, {"fans_checked": len(params)}, {
        "depth": depth,
        "grid": grid,
    }


def _run_distinguish(p: Params):
    a = AParam.parse(p.get("a", str, default="1,4,5"))
    b = AParam.parse(p.get("b", str, default="2,4,5"))
    kmax = p.get("kmax", int, default=max(len(a), len(b)))
    depth = p.get("depth", int, default=4)
    try:
        cert = invariants.distinguish(a, b, kmax, depth)
    except NotDistinguished as exc:
        return False, [{"error": str(exc)}], {}, {
            "a": list(a.coords),
            "b": list(b.coords),
            "kmax": kmax,
            "depth": depth,
        }
    return True, [], {"certificate": cert.to_dict()}, {
        "a": list(a.coords),
        "b": list(b.coords),
        "kmax": kmax,
        "depth": depth,
    }


def _run_orbit(p: Params):
    eps = p.get("eps", float, default=0.125)
    n = p.get("window", int, default=2)
    u_cells = p.get("u_cells", int)
    cfg = WindowConfig(n)
    result = impression.transitive_orbit_builder(eps, cfg, u_cells=u_cells)
    check = impression.verify_orbit(result)
    passed = result.passed and check["passed"]
    witnesses = [] if passed else [check]
    return passed, witnesses, {"orbit": result.to_dict(), "verify": check}, {
        "eps": eps,
        "window": n,
        "u_cells": u_cells,
    }


_RUNNERS = {
    "decomposition": _run_decomposition,
    "diam": _run_diam,
    "cantor": _run_cantor,
    "impression": _run_impression,
    "hlavna": _run_hlavna,
    "quotient": _run_quotient,
    "juma": _run_juma,
    "distinguish": _run_distinguish,
    "orbit": _run_orbit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fanshift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser("render", help="write an SVG figure")
    render.add_argument("figure", choices=FIGURE_IDS)
    render.add_argument("--out", required=True)
    render.add_argument("--depth", type=int)
    render.add_argument("--a", type=str)
    render.add_argument("--seed", type=int)
    render.add_argument("--config", type=str)

    verify = sub.add_parser("verify", help="run a verification experiment")
    verify.add_argument("name", choices=VERIFY_NAMES)
    verify.add_argument("--report", type=str)
    verify.add_argument("--timings", action="store_true")
    verify.add_argument("--config", type=str)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--kmax", type=int)
    verify.add_argument("--samples", type=int)
    verify.add_argument("--depth", type=int)
    verify.add_argument("--eps", type=float)
    verify.add_argument("--window", type=int)
    verify.add_argument("--seed-t", dest="seed_t", type=float)
    verify.add_argument("--k-cut", dest="k_cut", type=int)
    verify.add_argument("--m-max", dest="m_max", type=int)
    verify.add_argument("--n-max", dest="n_max", type=int)
    verify.add_argument("--k-max", dest="k_max", type=int)
    verify.add_argument("--grid", type=float)
    verify.add_argument("--u-cells", dest="u_cells", type=int)
    verify.add_argument("--a", type=str)
    verify.add_argument("--b", type=str)

    sub.add_parser("schema", help="print the report JSON schema")
    return parser


def _write(parser: argparse.ArgumentParser, path: str, text: str) -> None:
    """Write an output file; an unwritable path is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(str(exc))  # exits 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "schema":
        sys.stdout.write(schema_text())
        return 0

    # invalid parameter values and unreadable config files are usage errors
    try:
        p = Params(args)
        seed = p.seed()
        if args.command == "render":
            a = AParam.parse(args.a) if args.a else None
            svg = render_figure(args.figure, depth=args.depth, seed=seed, a=a)
        else:
            started = time.perf_counter()
            try:
                passed, witnesses, extra, params = _RUNNERS[args.name](p)
            except FanshiftError as exc:
                passed = False
                witnesses = [{"error": type(exc).__name__, "message": str(exc)}]
                extra = {}
                params = {}
            elapsed = time.perf_counter() - started
    except (OSError, ValueError) as exc:
        parser.error(str(exc))  # exits 2

    if args.command == "render":
        _write(parser, args.out, svg)
        return 0
    params["seed"] = seed
    timings = {"wall_s": round(elapsed, 3)} if args.timings else {}
    report = make_report(args.name, params, passed, witnesses, timings, extra)
    text = dump_report(report)
    if args.report:
        _write(parser, args.report, text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
