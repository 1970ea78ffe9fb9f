"""A corpus of worked examples exercising the whole pipeline.

Each fixture is a read-only mapping of ready-made objects: GIT data with a
partition, a scaffolding, a Laurent model, a polytope, or a dual-vector
collection, depending on what the example is about.  A value is built the
first time it is read, at most once per fixture object, and a membership
test builds nothing; every fixture(name) call returns fresh objects.
Vertex lists and weight matrices are stored verbatim; derived objects are
built through the public constructors so the corpus stays consistent with
the library.
"""

from collections.abc import Mapping

from .amenable import scaffolding_from_amenable
from .forward import ConvexPartitionWithBasis, przyjalkowski
from .mutations import mutate_scaffolding, segment_factor
from .polyhedra import Polytope, normal_fan
from .scaffolding import Scaffolding, Strut, product_fan, scaffolding_from_forward
from .inversion import anticanonical_scaffolding
from .toric import GitData

HEXAGON = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
PENTAGON = ((0, 1), (-1, 1), (-1, 0), (0, -1), (2, -1))
HEPTAGON = ((-1, 2), (1, 1), (3, -1), (3, -2), (1, -2), (-1, -1), (-2, 1))
SQUARE = ((-1, -1), (-1, 1), (1, -1), (1, 1))


class Fixture(Mapping):
    """One fixture: builds each value from its builder on first read.

    `entries` maps each key to a builder, a function of this fixture that
    reads the values it depends on through it; "description" maps to its
    plain string.
    """

    def __init__(self, entries):
        self._entries = entries
        self._values = {"description": entries["description"]}

    def __getitem__(self, key):
        if key not in self._values:
            self._values[key] = self._entries[key](self)
        return self._values[key]

    def __contains__(self, key):
        return key in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


def _quotient(git_args, partition_args):
    """Builders of GIT data, a partition and its forward Laurent model."""
    return {
        "git": lambda fx: GitData(*git_args),
        "partition": lambda fx: ConvexPartitionWithBasis(*partition_args),
        "laurent": lambda fx: przyjalkowski(fx["git"], fx["partition"]),
    }


def _forward_scaffolding(fx):
    return scaffolding_from_forward(fx["git"], fx["partition"])


def cubic_surface():
    """One basis column, one group of three: the plane cubic model."""
    return {
        "description": "cubic surface model from a single bracketed group",
        **_quotient((1, 4, [(1,)] * 4, (1,)), ((0,), ((1, 2, 3),), (), (3,))),
        "polytope": lambda fx: Polytope.from_points([(-1, -1), (2, -1), (-1, 2)]),
        "scaffolding": _forward_scaffolding,
    }


def projective_bundle():
    """Rank-two quotient with one shift column and two groups of two."""
    chars = [(1, 0), (0, 1), (0, 1), (1, 0), (-1, 1), (1, 0), (1, 0)]
    return {
        "description": "projective bundle model with a shift column",
        **_quotient((2, 7, chars, (1, 1)), ((0, 1), ((2, 3), (4, 5)), (6,), (2, 4))),
        "scaffolding": _forward_scaffolding,
    }


def dp6_triangles():
    """The hexagon presented by three divisors on the plane."""
    struts = (Strut((1, 0, 0)), Strut((0, 1, 0)), Strut((0, 0, 1)))
    chars = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return {
        "description": "hexagon scaffolded by three divisors on the plane",
        "scaffolding": lambda fx: Scaffolding(
            product_fan([(0, 1)]), 0, struts, Polytope.from_points(HEXAGON)
        ),
        **_quotient((3, 6, chars, (1, 1, 1)), ((0, 1, 2), ((3, 4, 5),), (), (5,))),
    }


def dp6_squares():
    """The hexagon presented by two unit squares."""
    struts = (Strut((0, 1, 0, 1)), Strut((1, 0, 1, 0)))
    chars = [(1, 0), (0, 1), (0, 1), (1, 0), (0, 1), (1, 0)]
    return {
        "description": "hexagon scaffolded by two squares on a product of lines",
        "scaffolding": lambda fx: Scaffolding(
            product_fan([(0,), (1,)]), 0, struts, Polytope.from_points(HEXAGON)
        ),
        **_quotient((2, 6, chars, (1, 1)), ((0, 1), ((2, 3), (4, 5)), (), (2, 5))),
    }


def dp6_squares_mutated():
    """The square scaffolding transported through one mutation."""
    w = (1, 0)
    return {
        "description": "square scaffolding of the hexagon after one mutation",
        "scaffolding": lambda fx: mutate_scaffolding(
            Fixture(dp6_squares())["scaffolding"], w, fx["mutation"]["factor"]
        ),
        "mutation": lambda fx: {"w": w, "factor": segment_factor(w)},
    }


def rank_three_threefold():
    """Rank-three threefold data with one shift column."""
    chars = [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 0, 0),
        (1, 1, 0),
        (0, 0, 1),
        (1, 1, 1),
    ]
    return {
        "description": "rank-three threefold with one group of three",
        **_quotient((3, 7, chars, (3, 2, 1)), ((0, 1, 2), ((4, 5, 6),), (3,), (4,))),
        "scaffolding": _forward_scaffolding,
    }


def shifted_fourfold():
    """Fourfold model whose three shift columns stay honest variables."""
    chars = [(1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (1, 1), (1, -1)]
    return {
        "description": "fourfold with three shift columns and one group",
        **_quotient((2, 7, chars, (3, 2)), ((0, 1), ((5, 6),), (2, 3, 4), (5,))),
        "scaffolding": _forward_scaffolding,
    }


def dp7_anticanonical():
    """A reflexive pentagon carrying its boundary scaffolding."""
    return {
        "description": "reflexive pentagon with its boundary scaffolding",
        "polytope": lambda fx: Polytope.from_points(PENTAGON),
        "scaffolding": lambda fx: anticanonical_scaffolding(fx["polytope"]),
    }


def square_product():
    """The square presented by one boundary strut on a product of lines."""
    struts = (Strut((1, 1, 1, 1)),)
    return {
        "description": "square scaffolded by its boundary on a product of lines",
        "polytope": lambda fx: Polytope.from_points(SQUARE),
        "scaffolding": lambda fx: Scaffolding(
            product_fan([(0,), (1,)]), 0, struts, fx["polytope"]
        ),
    }


def circulant_two():
    """Rank-two circulant weight data on five columns."""
    chars = [(1, 0), (0, 1), (2, 1), (1, 2), (1, -1)]
    return {
        "description": "five-column circulant quotient with one group of three",
        **_quotient((2, 5, chars, (1, 1)), ((0, 1), ((2, 3, 4),), (), (4,))),
        "scaffolding": _forward_scaffolding,
    }


def circulant_three():
    """Rank-three circulant weight data on six columns."""
    chars = [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (2, 1, 1),
        (1, 2, 1),
        (1, 1, 2),
    ]
    return {
        "description": "six-column circulant quotient with one group of three",
        **_quotient((3, 6, chars, (1, 1, 1)), ((0, 1, 2), ((3, 4, 5),), (), (5,))),
        "scaffolding": _forward_scaffolding,
    }


def circulant_five():
    """Five boundary-plus-vertex divisors on the pentagon's normal fan."""
    struts = tuple(
        Strut(tuple(1 + (1 if k == b else 0) for k in range(5))) for b in range(5)
    )
    return {
        "description": "heptagon scaffolded by five divisors on a pentagon fan",
        "scaffolding": lambda fx: Scaffolding(
            normal_fan(Polytope.from_points(PENTAGON)), 0, struts,
            Polytope.from_points(HEPTAGON),
        ),
        "weights": lambda fx: ((0, 1), (-1, -1)),
    }


def amenable_quadrics():
    """Four-space data whose collection cuts out two quadric binomials."""
    return {
        "description": "four-space collection presenting a two-stage tower",
        "git": lambda fx: GitData(1, 5, [(1,)] * 5, (1,)),
        "partition": lambda fx: ConvexPartitionWithBasis((0,), ((1, 2), (3, 4))),
        "vectors": lambda fx: ((-1, -1, 0, 2), (0, 0, -1, -1)),
        "scaffolding": lambda fx: scaffolding_from_amenable(
            fx["git"], fx["partition"], fx["vectors"]
        ),
    }


FIXTURES = {
    "cubic-surface": cubic_surface,
    "projective-bundle": projective_bundle,
    "dp6-triangles": dp6_triangles,
    "dp6-squares": dp6_squares,
    "dp6-squares-mutated": dp6_squares_mutated,
    "rank-three-threefold": rank_three_threefold,
    "shifted-fourfold": shifted_fourfold,
    "dp7-anticanonical": dp7_anticanonical,
    "square-product": square_product,
    "circulant-two": circulant_two,
    "circulant-three": circulant_three,
    "circulant-five": circulant_five,
    "amenable-quadrics": amenable_quadrics,
}


def fixture(name):
    """One named fixture, a fresh read-only mapping that builds on first read."""
    return Fixture(FIXTURES[name]())


def fixture_names():
    return tuple(sorted(FIXTURES))
