"""Deterministic SVG renderings of the spaces the package computes with.

Every figure is a pure function of its parameters; coordinates are rounded
to six decimals so identical inputs yield byte-identical files.
"""

from __future__ import annotations

import math
from itertools import product as iter_product

from . import itinerary
from .itinerary import address_value, capped, iter_addresses, letters_with_domain
from .itinerary import word_count
from .mahavier import chunk_x, fiber_length
from .quotients import AParam, build_fan, host_bundle
from .xspace import XPoint, embed


def _fmt(v: float) -> str:
    return f"{v:.6f}"


class Svg:
    """Tiny append-only SVG document."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, *, width, stroke="#1f3552", dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
            f' stroke="{stroke}" stroke-width="{_fmt(width)}"{d} />'
        )

    def polyline(self, pts, stroke, width):
        body = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{body}" fill="none" stroke="{stroke}"'
            f' stroke-width="{_fmt(width)}" />'
        )

    def circle(self, cx, cy, r):
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="#8c2d19" />'
        )

    def text(self, x, y, s, size):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}"'
            f' font-family="sans-serif" fill="#333333">{s}</text>'
        )

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}"'
            f' height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="#ffffff" />\n'
        )
        return head + "\n".join(self.parts) + "\n</svg>\n"


def _doublings(depth: int, what: str) -> int:
    """2^depth through ``capped``, the power stopped at the first one past the cap."""
    return capped(2 ** min(depth, itinerary.ENUMERATION_CAP.bit_length()), what)


def _cantor_addresses(depth: int) -> list[float]:
    _doublings(depth, f"Cantor addresses (depth={depth})")
    return sorted(address_value("".join(d)) for d in iter_product("02", repeat=depth))


def fig_cantor_fan(depth: int, **_) -> str:
    """Straight legs from one apex to the points of a Cantor-set cross-bar."""
    svg = Svg(1000, 700)
    apex = (500.0, 660.0)
    for c in _cantor_addresses(depth):
        svg.line(apex[0], apex[1], 50.0 + 900.0 * c, 50.0, width=0.7)
    svg.circle(apex[0], apex[1], 3.0)
    return svg.render()


def fig_dense_endpoint_fan(depth: int, seed: int) -> str:
    """Decorative fan with endpoint heights smeared over the legs."""
    svg = Svg(1000, 700)
    apex = (500.0, 660.0)
    for i, c in enumerate(_cantor_addresses(depth)):
        h = (((i + 1) * 2654435761 + seed * 97) % 2**32) / 2**32
        h = 0.12 + 0.88 * h
        svg.line(
            apex[0],
            apex[1],
            apex[0] + (50.0 + 900.0 * c - apex[0]) * h,
            apex[1] + (50.0 - apex[1]) * h,
            width=0.7,
        )
    svg.circle(apex[0], apex[1], 3.0)
    return svg.render()


def fig_star_of_fans(depth: int, **_) -> str:
    """Six shrinking fan copies joined at a common apex."""
    svg = Svg(1000, 700)
    apex = (500.0, 360.0)
    for n in range(1, 7):
        r = 560.0 * 2.0**-n
        theta0 = -95.0 + 57.0 * n
        for c in _cantor_addresses(depth):
            ang = math.radians(theta0 + 36.0 * (c - 0.5))
            svg.line(
                apex[0],
                apex[1],
                apex[0] + r * math.cos(ang),
                apex[1] + r * math.sin(ang),
                width=0.6,
            )
    svg.circle(apex[0], apex[1], 3.0)
    return svg.render()


def fig_product_and_wedge(depth: int, **_) -> str:
    """Left: Cantor set times interval; right: its vertical compression."""
    svg = Svg(1000, 700)

    def ly(t):
        return 630.0 - 560.0 * t

    for c in _cantor_addresses(depth):
        x = 70.0 + 360.0 * c
        svg.line(x, ly(0.0), x, ly(1.0), width=0.8)
        x = 570.0 + 360.0 * c
        svg.line(x, ly(0.0), x, ly(c), width=0.8, stroke="#245c36")
    svg.text(230.0, 670.0, "product", size=16)
    svg.text(700.0, 670.0, "compressed wedge", size=16)
    return svg.render()


def fig_relation(depth: int, **_) -> str:
    """The relation's letters over intervals 1-7 in chart coordinates, each
    applied through ``Letter.piece``: the bends, which take exponent steps,
    as curves of 2^depth samples, then the up, down and identity strokes."""
    samples = _doublings(depth, f"samples (depth={depth})")
    svg = Svg(1000, 1000)

    def pt(lt, u, v):  # u on the letter's domain, v on its range
        x, y = embed(XPoint(lt.ell, u)), embed(XPoint(lt.range_index, v))
        return 60.0 + 880.0 * x, 940.0 - 880.0 * y

    svg.line(60.0, 940.0, 940.0, 940.0, stroke="#bbbbbb", width=0.6)
    svg.line(60.0, 940.0, 60.0, 60.0, stroke="#bbbbbb", width=0.6)
    letters = [
        lt for d in range(1, 8) for lt in letters_with_domain(d) if lt.range_index <= 7
    ]
    bends = [lt for lt in letters if lt.steps != (0, 0)]
    grid = [i / samples for i in range(samples + 1)]
    for lt, stroke in zip(bends, ("#8c2d19", "#b4741e")):
        svg.polyline([pt(lt, u, lt.piece(u)) for u in grid], stroke=stroke, width=1.6)
    for j, stroke in ((3, "#245c36"), (1, "#2b5f8a"), (2, "#5a3a78")):
        for lt in letters:
            if lt.j == j and lt not in bends:
                ends = (*pt(lt, 0.0, lt.piece(0.0)), *pt(lt, 1.0, lt.piece(1.0)))
                svg.line(*ends, stroke=stroke, width=1.4)
    svg.circle(940.0, 60.0, 4.0)
    return svg.render()


def fig_model_space(depth: int, **_) -> str:
    """Cantor bundles 1-7 of shrinking heights plus the compactification dot."""
    svg = Svg(1000, 700)

    def pt(c, tau):
        return 40.0 + 920.0 * c, 640.0 - 1100.0 * tau

    capped(word_count(7, depth), f"words in bundle 7 (depth={depth})")  # the largest
    for k in range(1, 8):
        h = fiber_length(k)
        for addr in iter_addresses(k, depth):
            c = chunk_x(k, addr)
            svg.line(*pt(c, 0.0), *pt(c, h), width=0.7)
    svg.circle(*pt(1.0, 0.0), 3.5)
    return svg.render()


def fig_gluing(a: AParam, depth: int, **_) -> str:
    """Host arcs with their glued guests, one panel per parameter block."""
    if not a:
        raise ValueError("a must have at least one coordinate")
    kmax_bundle = host_bundle(len(a)) + 2 * len(a)
    fan = build_fan(a, kmax_bundle, depth)
    svg = Svg(1000, 700)
    panel_w = 960.0 / len(a)
    for k in range(1, len(a) + 1):
        x0 = 20.0 + (k - 1) * panel_w
        jh = host_bundle(k)
        host_len = fiber_length(jh)

        def hy(tau):
            return 620.0 - 520.0 * (tau / host_len)

        cols = 2 + a[k]
        step = panel_w / cols
        host_leg = next(
            g.host for g in fan.gluings if fan.legs[g.host].bundle == str(jh)
        )
        hx = x0 + step
        svg.line(hx, hy(0.0), hx, hy(host_len), width=2.4, stroke="#8c2d19")
        for n, gi in enumerate(fan.guests_of(host_leg), start=1):
            gx = x0 + step * (1 + n)
            glen = fan.legs[gi].length
            svg.line(gx, hy(0.0), gx, hy(glen), width=1.6, dash="5,3")
            svg.line(hx, hy(glen), gx, hy(glen), width=0.8, stroke="#999999")
        svg.text(x0 + 8.0, 660.0, f"block {k}: {a[k]} guests", size=13)
    return svg.render()


# a figure is its drawing function and its parameters as (name, cast,
# default), read by the command line as it reads ``cli.COMMANDS``; every
# drawing function also takes the seed, and only fig2 reads it
FIGURES: dict[str, tuple] = {
    "fig1": (fig_cantor_fan, (("depth", int, 6),)),
    "fig2": (fig_dense_endpoint_fan, (("depth", int, 7),)),
    "fig3": (fig_star_of_fans, (("depth", int, 5),)),
    "fig4": (fig_product_and_wedge, (("depth", int, 5),)),
    "fig5": (fig_relation, (("depth", int, 7),)),
    "fig6": (fig_model_space, (("depth", int, 4),)),
    "glue": (fig_gluing, (("depth", int, 3), ("a", AParam.parse, AParam((2, 4))))),
}
FIGURE_IDS = tuple(FIGURES)


def render_figure(figure_id: str, **values) -> str:
    """Draw ``figure_id`` from its resolved parameters and the seed; a depth
    below 1 raises ValueError."""
    if values["depth"] < 1:
        raise ValueError(f"depth must be >= 1, got {values['depth']}")
    return FIGURES[figure_id][0](**values)
