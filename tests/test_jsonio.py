"""Encoders and decoders are inverse to each other and reject junk."""

from fractions import Fraction

import pytest

from fanoscaffold import jsonio
from fanoscaffold.fixtures import fixture
from fanoscaffold.forward import ConvexPartitionWithBasis
from fanoscaffold.laurent import LaurentPolynomial
from fanoscaffold.polyhedra import Fan, Polytope
from fanoscaffold.toric import GitData


def test_polytope_round_trip_with_rational_vertices():
    p = Polytope.from_points([(0, 0), (1, 0), (0, Fraction(3, 2))])
    obj = jsonio.encode_polytope(p)
    assert obj["vertices"] == [[0, 0], [0, "3/2"], [1, 0]]
    assert jsonio.decode_polytope(obj) == p


def test_fan_round_trip():
    fan = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    assert jsonio.decode_fan(jsonio.encode_fan(fan)) == fan


def test_git_round_trip_keeps_fractional_stability():
    git = GitData(2, 4, [(1, 0), (0, 1), (1, 1), (1, 2)], (1, Fraction(1, 2)))
    obj = jsonio.encode_git(git)
    assert obj["omega"] == [1, "1/2"]
    assert jsonio.decode_git(obj) == git


# An exponent, a decimal point and surrounding spaces: Fraction reads all
# three, and "1e2000000" would build a 6.6-million-bit integer.
@pytest.mark.parametrize("text", ["1e2000000", "1.5", " 3/4 "])
def test_number_strings_are_integers_or_p_over_q(text):
    obj = jsonio.encode_git(GitData(2, 4, [(1, 0), (0, 1), (1, 1), (1, 2)], (1, 1)))
    obj["omega"] = [1, text]
    with pytest.raises(ValueError):
        jsonio.decode_git(obj)


def test_integral_fractions_encode_and_decode_as_ints():
    chars = [(1, 0), (0, 1), (1, 1), (1, 2)]
    by_fraction = GitData(2, 4, chars, (Fraction(2), Fraction(1, 2)))
    by_int = GitData(2, 4, chars, (2, Fraction(1, 2)))
    assert jsonio.dumps(jsonio.encode_git(by_fraction)) == jsonio.dumps(jsonio.encode_git(by_int))
    points = [(0, 0), (2, 0), (0, 3), (1, Fraction(1, 2))]
    p = Polytope.from_points([tuple(map(Fraction, v)) for v in points])
    q = Polytope.from_points(points)
    assert jsonio.dumps(jsonio.encode_polytope(p)) == jsonio.dumps(jsonio.encode_polytope(q))
    decoded = jsonio.decode_polytope({"dim": 2, "vertices": [[0, 0], ["4/2", 0], [0, "3"]]})
    assert decoded.vertices == ((0, 0), (0, 3), (2, 0))
    assert {type(c) for v in decoded.vertices for c in v} == {int}


def test_laurent_round_trip_sorts_terms():
    f = LaurentPolynomial(2, {(1, 0): 2, (-1, -1): 1, (0, 1): 3})
    obj = jsonio.encode_laurent(f)
    assert [entry["e"] for entry in obj["terms"]] == [[-1, -1], [0, 1], [1, 0]]
    assert jsonio.decode_laurent(obj) == f


def test_repeated_exponents_are_rejected():
    obj = {"vars": 2, "terms": [{"e": [1, 0], "c": 1}, {"e": [1, 0], "c": 2}]}
    with pytest.raises(ValueError, match=r"\[1, 0\]"):
        jsonio.decode_laurent(obj)


def test_zero_coefficients_are_rejected():
    # The encoder writes only nonzero terms.
    obj = {"vars": 1, "terms": [{"e": [1], "c": 1}, {"e": [2], "c": 0}]}
    with pytest.raises(ValueError, match=r"\[2\]"):
        jsonio.decode_laurent(obj)


def test_partition_round_trip():
    part = ConvexPartitionWithBasis((0, 1), ((2, 3), (4, 5)), (6,), (2, 4))
    obj = jsonio.encode_partition(part)
    back = jsonio.decode_partition(obj)
    assert back == part
    bare = jsonio.decode_partition({"B": [0, 1], "S": [[2, 3], [4, 5]]})
    assert bare.U == () and bare.choices == (3, 5)


def test_scaffolding_round_trip():
    scaf = fixture("dp6-squares")["scaffolding"]
    back = jsonio.decode_scaffolding(jsonio.encode_scaffolding(scaf))
    assert back.shape == scaf.shape
    assert back.u == scaf.u
    assert back.struts == scaf.struts
    assert back.target == scaf.target


def test_mutation_decoding():
    obj = {"w": [1, 0], "factor": {"dim": 2, "vertices": [[0, 0], [0, 1]]}}
    w, factor = jsonio.decode_mutation(obj)
    assert w == (1, 0)
    assert factor == Polytope.from_points([(0, 0), (0, 1)])


def test_numbers_reject_floats_and_booleans():
    with pytest.raises(ValueError):
        jsonio.decode_polytope({"dim": 1, "vertices": [[0.5], [1]]})
    with pytest.raises(ValueError):
        jsonio.decode_polytope({"dim": 1, "vertices": [[True], [0]]})
    with pytest.raises(ValueError):
        jsonio.decode_polytope({"dim": 1, "vertices": [["1/0"], [0]]})


def test_malformed_shapes_are_rejected():
    with pytest.raises(ValueError):
        jsonio.decode_polytope({"vertices": [[0, 0]]})
    with pytest.raises(ValueError):
        jsonio.decode_polytope({"dim": 2, "vertices": [[0, 0, 0]]})
    with pytest.raises(ValueError):
        jsonio.decode_laurent({"vars": 2, "terms": [{"e": [1], "c": 1}]})
    with pytest.raises(ValueError):
        jsonio.decode_fan({"dim": 2, "rays": [[1, 0]], "max_cones": [["a"]]})


def test_dumps_is_key_sorted_and_stable():
    scaf = fixture("dp6-triangles")["scaffolding"]
    a = jsonio.dumps(jsonio.encode_scaffolding(scaf))
    b = jsonio.dumps(jsonio.encode_scaffolding(scaf))
    assert a == b
    assert a.index('"shape"') < a.index('"struts"') < a.index('"target"')
