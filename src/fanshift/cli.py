"""Command-line entry point: verification experiments and figure rendering.

Usage:
    fanshift render <fig1|fig2|fig3|fig4|fig5|fig6> --out PATH
                    [--depth D] [--seed S] [--config PATH]
    fanshift render glue --out PATH [--depth D] [--a A] [--seed S]
                    [--config PATH]
    fanshift verify <name> [params] [--report PATH] [--timings]
                    [--config PATH] [--seed S]
    fanshift schema

``COMMANDS`` lists every verify name with its runner and its parameters;
each parameter's flag, config key, cast and default come from that one
entry, and ``figures.FIGURES`` does the same per figure.  A flag the command
or figure does not read is a usage error.

Exit codes: 0 when a command (and its check) succeeds, 1 when a
verification fails, 2 on usage errors, including invalid parameter values,
unreadable config files and unwritable output paths.  Reports are
deterministic for a fixed seed; wall-clock timings are only included with
--timings since they break byte-for-byte reproducibility.  For verify and
render alike, parameter precedence is flags over config file (plain
key=value lines, --config; keys a command does not read are ignored) over
defaults; the seed can also come from the FANSHIFT_SEED environment
variable.  Every report carries its resolved parameters and seed, also
when the check ends in an error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from . import impression, invariants, itinerary, quotients, relations
from .errors import FanshiftError, NotDistinguished, ResourceCapExceeded
from .figures import FIGURE_IDS, FIGURES, render_figure
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

# a parameter is (name, cast, default); a callable default is computed
# from the values resolved before it
_SEED = ("seed", int, 0)

COMMANDS: dict[str, tuple] = {}


def _command(name: str, *params):
    """Register a verify runner under ``name`` with its ordered parameters.

    The runner takes the resolved values (and the seed) as keyword
    arguments and returns ``(passed, witnesses, extra)``.
    """

    def register(run):
        COMMANDS[name] = (run, params)
        return run

    return register


def _cast(key: str, cast, raw: str):
    """Convert a flag, config or environment value, naming its key if invalid."""
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


def _resolve(params, flags: dict, config: dict) -> dict:
    """Effective values of ``params`` plus the seed: flag, then config, then
    default; the seed alone falls back to FANSHIFT_SEED before its default."""
    values = {}
    for name, cast, default in (*params, _SEED):
        key, raw = name, flags.get(name)
        if raw is None:
            raw = config.get(name)
        if raw is None and name == "seed":
            key, raw = "FANSHIFT_SEED", os.environ.get("FANSHIFT_SEED")
        if raw is not None:
            values[name] = _cast(key, cast, raw)
        else:
            values[name] = default(values) if callable(default) else default
    return values


# a check result is a NamedTuple: its fields are its report form, serialized
# with ``_asdict()``
@_command("decomposition", ("kmax", int, 8), ("samples", int, 1000))
def _run_decomposition(kmax, samples, seed):
    rep = relations.decomposition_check(kmax, samples, seed=seed)
    witnesses = [rep.first_counterexample] if rep.first_counterexample else []
    # the always-empty ``notes`` keeps the recorded report digest until the
    # benchmark's expected digests are renewed (ROADMAP item 13)
    return rep.passed, witnesses, {**rep._asdict(), "notes": []}


@_command("diam", ("kmax", int, 8), ("samples", int, 1000), ("window", int, 8))
def _run_diam(kmax, samples, window, seed):
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    witnesses = []
    for k in range(1, kmax + 1):
        got = embed(XPoint(k, 1.0)) - embed(XPoint(k, 0.0))
        if got != interval_diameter(k):
            witnesses.append({"check": "interval", "k": k, "diameter": got})
    klim = min(kmax, 6)
    cfg = WindowConfig(window)
    worst = {}
    within_rate = {}
    for k in range(1, klim + 1):
        bound = fiber_length(k)
        top = 0.0
        seen = 0
        for _ in range(samples):
            a = random_window_point(rng, k, window)
            b = random_window_point(rng, k, window)
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
    return not witnesses, witnesses, {
        "worst_slice_dist": worst,
        "within_attained_rate": within_rate,
    }


@_command("cantor", ("kmax", int, 8), ("depth", int, 12))
def _run_cantor(kmax, depth, **_):
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
            witnesses.append(cert._asdict())
    return not witnesses, witnesses, {"min_branching": min_branch, "words_checked": words}


@_command(
    "impression",
    ("seed_t", float, 0.5),
    ("eps", float, 0.0625),
    ("depth", int, 12),
    ("k_cut", int, lambda v: impression.default_k_cut(v["eps"])),
    ("m_max", int, 12),
    ("n_max", int, 12),
    ("k_max", int, 8),
)
def _run_impression(seed_t, eps, depth, k_cut, m_max, n_max, k_max, **_):
    cloud = impression.forward_reachable(XPoint(1, seed_t), depth)
    cloud.update(
        sp.xpoint() for sp in impression.symbolic_family(seed_t, m_max, n_max, k_max)
    )
    rep = impression.eps_dense_check(cloud, eps, k_cut)
    return rep.passed, rep.uncovered, rep._asdict()


@_command("hlavna")
def _run_hlavna(**_):
    reports = [
        quotients.check_hlavna(quotients.identity_map, name="identity"),
        quotients.check_hlavna(quotients.swap_digit_map, name="digit-swap"),
    ]
    crush = quotients.check_hlavna(quotients.vertex_crush_map, name="vertex-crush")
    witnesses = [r._asdict() for r in reports if not r.passed]
    rejected = not crush.hypothesis_ok and crush.witness is not None
    if not rejected:
        witnesses.append({"check": "violator", "report": crush._asdict()})
    passed = all(r.passed for r in reports) and rejected
    return passed, witnesses, {
        "maps": [r._asdict() for r in reports],
        "violator": crush._asdict(),
    }


@_command("quotient", ("a", AParam.parse, AParam((2, 4))), ("samples", int, 1000))
def _run_quotient(a, samples, seed):
    if not a:
        raise ValueError("a must have at least one coordinate")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
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
    return not witnesses, witnesses, {"pairs_checked": checked}


@_command("juma", ("depth", int, 3), ("grid", float, 2.0**-10))
def _run_juma(depth, grid, **_):
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
    return not witnesses, witnesses, {"fans_checked": len(params)}


@_command(
    "distinguish",
    ("a", AParam.parse, AParam((1, 4, 5))),
    ("b", AParam.parse, AParam((2, 4, 5))),
    ("kmax", int, lambda v: max(len(v["a"]), len(v["b"]))),
    ("depth", int, 4),
)
def _run_distinguish(a, b, kmax, depth, **_):
    try:
        cert = invariants.distinguish(a, b, kmax, depth)
    except NotDistinguished as exc:
        return False, [{"error": str(exc)}], {}
    return True, [], {"certificate": cert.to_dict()}


@_command("orbit", ("eps", float, 0.125), ("window", int, 2), ("u_cells", int, 12))
def _run_orbit(eps, window, u_cells, **_):
    cfg = WindowConfig(window)
    net = impression.build_net(eps, cfg, u_cells=u_cells)
    result = impression.transitive_orbit_builder(eps, cfg, net=net)
    check = impression.verify_orbit(result)
    passed = result.passed and check["passed"]
    witnesses = [] if passed else [check]
    return passed, witnesses, {"orbit": result.to_dict(), "verify": check}


def _add_params(parser: argparse.ArgumentParser, params) -> None:
    """One string flag per parameter (cast later by ``_resolve``), plus --config."""
    for name, _, _ in (*params, _SEED):
        parser.add_argument("--" + name.replace("_", "-"), dest=name)
    parser.add_argument("--config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fanshift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser("render", help="write an SVG figure")
    figures = render.add_subparsers(dest="figure", required=True)
    for fig in FIGURE_IDS:
        cmd = figures.add_parser(fig)
        cmd.add_argument("--out", required=True)
        _add_params(cmd, FIGURES[fig][1])

    verify = sub.add_parser("verify", help="run a verification experiment")
    names = verify.add_subparsers(dest="name", required=True)
    for name, (_, params) in COMMANDS.items():
        cmd = names.add_parser(name)
        cmd.add_argument("--report")
        cmd.add_argument("--timings", action="store_true")
        _add_params(cmd, params)

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

    if args.command == "render":
        _, params = FIGURES[args.figure]
    else:
        run, params = COMMANDS[args.name]
    # invalid values, unreadable config files and capped renders are usage errors
    try:
        values = _resolve(params, vars(args), _load_config(args.config))
        if args.command == "render":
            svg = render_figure(args.figure, **values)
        else:
            started = time.perf_counter()
            try:
                passed, witnesses, extra = run(**values)
            except FanshiftError as exc:
                passed = False
                witnesses = [{"error": type(exc).__name__, "message": str(exc)}]
                extra = {}
            elapsed = time.perf_counter() - started
    except (OSError, ValueError, ResourceCapExceeded) as exc:
        parser.error(str(exc))  # exits 2

    if args.command == "render":
        _write(parser, args.out, svg)
        return 0
    report_params = {
        name: list(v.coords) if isinstance(v, AParam) else v
        for name, v in values.items()
    }
    timings = {"wall_s": round(elapsed, 3)} if args.timings else {}
    report = make_report(args.name, report_params, passed, witnesses, timings, extra)
    text = dump_report(report)
    if args.report:
        _write(parser, args.report, text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
