"""Shared sample generators and reference metrics for the test suite."""

import math
import random

from fanshift.invariants import leg_x
from fanshift.itinerary import letters_with_domain, random_word
from fanshift.mahavier import MPoint
from fanshift.xspace import INFINITY, XPoint


def rng(seed=0):
    return random.Random(seed)


def random_xpoint(r, kmax=10, p_inf=0.05):
    if r.random() < p_inf:
        return INFINITY
    return XPoint(r.randint(1, kmax), r.random())


def random_letter(r, ell_max=8):
    ell = r.randint(1, ell_max)
    return r.choice(letters_with_domain(ell))


def random_letter_chain(r, length, ell_max=8):
    """Admissible chain (for words); starts at a random domain."""
    chain = [random_letter(r, ell_max)]
    for _ in range(length - 1):
        chain.append(r.choice(letters_with_domain(chain[-1].range_index)))
    return chain


def random_mpoint(r, k=None, half_width=8):
    if k is None:
        k = r.randint(1, 5)
    word = random_word(r, k, left=half_width, right=half_width)
    return MPoint(word, XPoint(k, r.random()))


def hausdorff_dist(points_a, points_b, metric=None) -> float:
    """Hausdorff distance between two finite nonempty point sets."""
    a = list(points_a)
    b = list(points_b)
    if not a or not b:
        raise ValueError("point sets must be nonempty")
    if metric is None:
        metric = lambda p, q: math.dist(p, q)
    forward = max(min(metric(p, q) for q in b) for p in a)
    backward = max(min(metric(p, q) for q in a) for p in b)
    return max(forward, backward)


def arc_sample(fan, leg_index, tau, cells=64):
    """Sample points of the arc from the top to height tau on a leg."""
    x = leg_x(fan.legs[leg_index])
    return [(x, tau * i / cells) for i in range(cells + 1)]


def fan_point_dist(p, q):
    """Planar distance in the glued picture: direct, or through the top."""
    return min(math.dist(p, q), p[1] + q[1])


__all__ = [
    "arc_sample",
    "fan_point_dist",
    "hausdorff_dist",
    "letters_with_domain",
    "random_letter",
    "random_letter_chain",
    "random_mpoint",
    "random_word",
    "random_xpoint",
    "rng",
]
