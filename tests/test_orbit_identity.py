"""Orbit identity guard: the orbits of seeded-height nets and of three
non-default configurations are pinned by digest, and the two frontier
failures by message, so a change to the orbit kernel that is meant to be
faster cannot change an orbit it builds.  Two more orbits pin the path of a
connector that misses, which no default net takes: each is built with a
window metric that misses the first measurement against every finite net
element after the seed.

Each digest is the sha256 of the JSON of the orbit's letters as
``(ell, j)``, its visits and the ``verify_orbit`` dict, with sorted keys.
"""

import hashlib
import json
import math
import random

import pytest

from fanshift import impression
from fanshift.errors import PathNotFound
from fanshift.impression import build_net, transitive_orbit_builder, verify_orbit
from fanshift.itinerary import Word, random_word
from fanshift.mahavier import MPoint, WindowConfig, _run_window
from fanshift.xspace import XPoint

SEEDED = {
    1: "de3a4e09e66cfeffd62ff04debebe02b08ee1c0d6835a2085c19b2b5bf603037",
    2: "3c5c1d76046c95eaa8f5dd81d23774bee1c7d6788e123275f0fc68320152aeb4",
    3: "7bb4db7c060269936a4fee47228f926682c2c445baa803075b7cbca685cc6a6d",
}

# (eps, window, u_cells) as the flags of ``fanshift verify orbit`` set them
CONFIGURED = {
    (0.25, 1, 12): "913aa8279131274afee759ede944b1e11bca1ab9c21eb6e351b247e834b2b7f4",
    (0.2, 2, 5): "b35ced304538cabba4025599ac89ee1fb10e66502f2b5bdf95fd761dfd8263ac",
    (0.3, 3, 7): "017e865e9f6f67b6ff3d1fd8ec5c89e17b3e814d03228fcf5e882f2d12e39fa0",
}

# (eps, window, u_cells): orbits whose first connector to each finite net
# element after the seed misses (101,380 and 7,314 letters)
MISSED = {
    (0.125, 2, 12): "2fb2744cbf633a3e79bfcf2dc6ec6c009ba260feba2dd95f3380f0268b4a2570",
    (0.25, 1, 12): "cae262fe2fec52510582cc188ec8f96fc1808fed06adc0b35395df896d6865bc",
}

FRONTIER = {
    (0.0625, 2): (
        "no connector reached net element 65 (d_left = 1, pull-back target 0.0) "
        "within eps: the exponent candidates inside INTERIOR_GUARD = 1e-14 ran "
        "out after 600 tries"
    ),
    (0.125, 3): (
        "no connector reached net element 169 (d_left = 1, pull-back target 0.0) "
        "within eps: the exponent candidates inside INTERIOR_GUARD = 1e-14 ran "
        "out after 600 tries"
    ),
}


def _digest(result) -> str:
    blob = json.dumps(
        [
            [[lt.ell, lt.j] for lt in result.point.word.letters],
            [list(v) for v in result.visits],
            verify_orbit(result),
        ],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(SEEDED))
def test_seeded_height_orbit_is_unchanged(seed):
    # the default net's words with heights drawn from the seed
    cfg = WindowConfig(2)
    rng = random.Random(seed)
    net = [
        p if p.is_all_infinity else MPoint(p.word, XPoint(p.t0.k, rng.random()))
        for p in build_net(0.125, cfg)
    ]
    assert _digest(transitive_orbit_builder(0.125, cfg, net=net)) == SEEDED[seed]


@pytest.mark.parametrize("eps, window, u_cells", sorted(CONFIGURED))
def test_configured_orbit_is_unchanged(eps, window, u_cells):
    cfg = WindowConfig(window)
    result = transitive_orbit_builder(eps, cfg, net=build_net(eps, cfg, u_cells=u_cells))
    assert _digest(result) == CONFIGURED[eps, window, u_cells]


@pytest.mark.parametrize("eps, window", sorted(FRONTIER))
def test_frontier_failure_is_unchanged(eps, window):
    with pytest.raises(PathNotFound) as exc:
        transitive_orbit_builder(eps, WindowConfig(window))
    assert str(exc.value) == FRONTIER[eps, window]


@pytest.mark.parametrize("eps, window, u_cells", sorted(MISSED))
def test_orbit_after_a_missed_connector_is_unchanged(eps, window, u_cells, monkeypatch):
    measure, measured = impression.dist_window, set()

    def first_miss(p, q, cfg):
        # the seed's window is measured first, and must hit
        miss = bool(measured) and not q.is_all_infinity and id(q) not in measured
        measured.add(id(q))
        return math.inf if miss else measure(p, q, cfg)

    monkeypatch.setattr(impression, "dist_window", first_miss)
    cfg = WindowConfig(window)
    result = transitive_orbit_builder(eps, cfg, net=build_net(eps, cfg, u_cells=u_cells))
    assert result.passed
    assert _digest(result) == MISSED[eps, window, u_cells]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_run_window_is_the_checked_window_point(n):
    rng = random.Random(n)
    for _ in range(50):
        run = random_word(rng, rng.randint(1, 6), left=n, right=n).letters
        u = rng.random()
        checked = MPoint(Word(run, -n), XPoint(run[n].domain_index, u))
        window = _run_window(run, u)
        assert window == checked
