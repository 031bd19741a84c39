import itertools
import random

import pytest

from equifuse import chartab
from equifuse.presets import group_from_json_dict, group_preset


@pytest.fixture(scope="session")
def trivial():
    return group_preset("cyclic:1")


@pytest.fixture(scope="session")
def z2():
    return group_preset("cyclic:2")


@pytest.fixture(scope="session")
def z4():
    return group_preset("cyclic:4")


@pytest.fixture(scope="session")
def klein4():
    return group_preset("klein4")


@pytest.fixture(scope="session")
def s3():
    return group_preset("sym:3")


@pytest.fixture(scope="session")
def s4():
    return group_preset("sym:4")


@pytest.fixture(scope="session")
def d4():
    return group_preset("dihedral:4")


@pytest.fixture(scope="session")
def q8():
    return group_preset("quaternion8")


@pytest.fixture(scope="session")
def a4():
    return group_preset("alt:4")


@pytest.fixture(scope="session")
def ctx_s3(s3):
    return chartab.make_context([s3])


@pytest.fixture(scope="session")
def ctx_s4(s4):
    return chartab.make_context([s4])


@pytest.fixture(scope="session")
def s4_moved_json():
    """Group JSON of sym:4 acting on its six pairs of points, the pairs
    numbered in a seeded order.  Its elements sort in another order than
    those of sym:4.  A relabelling of the four points would not do that:
    the group would still be all permutations of its points, with the same
    sorted element list and multiplication table."""
    pairs = list(itertools.combinations(range(4), 2))
    random.Random(1).shuffle(pairs)
    number = {pair: i for i, pair in enumerate(pairs)}
    gens = [
        [number[tuple(sorted((g.images[a], g.images[b])))] for a, b in pairs]
        for g in group_preset("sym:4").generators
    ]
    return {"degree": 6, "generators": gens}


@pytest.fixture(scope="session")
def s4_moved(s4_moved_json):
    return group_from_json_dict(s4_moved_json)
