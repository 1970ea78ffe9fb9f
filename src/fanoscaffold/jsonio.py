"""JSON encoding and decoding for the public object types.

Every encoder returns plain lists, dicts, ints, and strings, arranged so
that dumps() is byte-identical across runs: object fields are emitted in
canonical order and rational numbers become "p/q" strings.  Decoders accept
exactly the shapes the encoders produce and raise ValueError on anything
else; domain validation is left to the object constructors.
"""

import json
import re
from fractions import Fraction

from .exact import as_exact
from .forward import ConvexPartitionWithBasis
from .laurent import LaurentPolynomial
from .polyhedra import Fan, Polytope
from .scaffolding import Scaffolding, Strut
from .toric import GitData


def _encode_number(x):
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError("cannot encode %r as a number" % (x,))
    x = as_exact(x)
    return x if type(x) is int else "%d/%d" % (x.numerator, x.denominator)


# A number string is an integer or p/q, the form the encoders write.
# Fraction also reads exponents, and "1e2000000" alone would build a
# 6.6-million-bit integer.
_NUMBER = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _decode_number(x):
    if isinstance(x, bool):
        raise ValueError("expected a number, got %r" % (x,))
    if isinstance(x, int):
        return x
    if isinstance(x, str) and _NUMBER.fullmatch(x):
        try:
            return as_exact(Fraction(x))
        except ZeroDivisionError:
            raise ValueError("bad fraction string %r" % (x,))
    raise ValueError("expected an integer or a fraction string, got %r" % (x,))


def _decode_int(x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError("expected an integer, got %r" % (x,))
    return x


def _list(x, what):
    if not isinstance(x, list):
        raise ValueError("expected a list of %s, got %r" % (what, x))
    return x


def _int_vector(row):
    return tuple(_decode_int(x) for x in _list(row, "integers"))


def _number_vector(row):
    return tuple(_decode_number(x) for x in _list(row, "numbers"))


def _field(obj, key):
    if not isinstance(obj, dict):
        raise ValueError("expected an object, got %r" % (obj,))
    if key not in obj:
        raise ValueError("missing field %r" % (key,))
    return obj[key]


def encode_polytope(p):
    return {
        "dim": p.dim,
        "vertices": [[_encode_number(x) for x in v] for v in p.vertices],
    }


def decode_polytope(obj):
    vertices = _list(_field(obj, "vertices"), "vertices")
    if not vertices:
        raise ValueError("vertices must be a non-empty list")
    dim = _decode_int(_field(obj, "dim"))
    points = [_number_vector(v) for v in vertices]
    if any(len(v) != dim for v in points):
        raise ValueError("vertex length does not match dim")
    return Polytope.from_points(points)


def encode_fan(fan):
    """Works for Fan and StackyFan alike; ray order is preserved."""
    return {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def decode_fan(obj):
    return Fan(
        _decode_int(_field(obj, "dim")),
        [_int_vector(r) for r in _list(_field(obj, "rays"), "rays")],
        [_int_vector(c) for c in _list(_field(obj, "max_cones"), "cones")],
    )


def encode_cone(cone):
    out = {"rays": [list(r) for r in cone.rays]}
    if cone.lineality:
        out["lineality"] = [list(r) for r in cone.lineality]
    return out


def encode_git(git):
    return {
        "r": git.r,
        "R": git.R,
        "characters": [list(c) for c in git.characters],
        "omega": [_encode_number(x) for x in git.omega],
    }


def decode_git(obj):
    return GitData(
        _decode_int(_field(obj, "r")),
        _decode_int(_field(obj, "R")),
        [_int_vector(c) for c in _list(_field(obj, "characters"), "characters")],
        _number_vector(_field(obj, "omega")),
    )


def encode_laurent(f):
    terms = [
        {"e": list(e), "c": c} for e, c in sorted(f.terms.items())
    ]
    return {"vars": f.nvars, "terms": terms}


def decode_laurent(obj):
    nvars = _decode_int(_field(obj, "vars"))
    terms = {}
    for entry in _list(_field(obj, "terms"), "terms"):
        e = _int_vector(_field(entry, "e"))
        if len(e) != nvars:
            raise ValueError("exponent length does not match vars")
        if e in terms:
            raise ValueError("exponent %s appears twice" % (list(e),))
        c = _decode_int(_field(entry, "c"))
        if c == 0:
            raise ValueError("exponent %s has coefficient 0" % (list(e),))
        terms[e] = c
    return LaurentPolynomial(nvars, terms)


def encode_partition(part):
    return {
        "B": list(part.B),
        "S": [list(g) for g in part.S],
        "U": list(part.U),
        "choices": list(part.choices),
    }


def decode_partition(obj):
    choices = obj.get("choices") if isinstance(obj, dict) else None
    return ConvexPartitionWithBasis(
        _int_vector(_field(obj, "B")),
        [_int_vector(g) for g in _list(_field(obj, "S"), "index groups")],
        _int_vector(obj.get("U", [])) if isinstance(obj, dict) else (),
        None if choices is None else _int_vector(choices),
    )


def encode_scaffolding(scaf):
    return {
        "shape": encode_fan(scaf.shape),
        "u": scaf.u,
        "struts": [
            {"coeffs": list(s.coeffs), "chi": list(s.chi)} for s in scaf.struts
        ],
        "target": encode_polytope(scaf.target),
    }


def decode_scaffolding(obj):
    """A Scaffolding; its shape's rays must be in canonical order.

    Strut coefficients follow the rays as written, so rays that Fan would
    make primitive, merge or reorder raise ValueError instead.
    """
    shape = decode_fan(_field(obj, "shape"))
    if [list(r) for r in shape.rays] != obj["shape"]["rays"]:
        raise ValueError("shape rays must be primitive, distinct and lex sorted")
    struts = [
        Strut(_int_vector(_field(s, "coeffs")), _int_vector(s.get("chi", [])))
        for s in _list(_field(obj, "struts"), "struts")
    ]
    return Scaffolding(
        shape,
        _decode_int(_field(obj, "u")),
        struts,
        decode_polytope(_field(obj, "target")),
    )


def decode_polytopes(obj):
    return [decode_polytope(entry) for entry in _list(obj, "polytopes")]


def decode_mutation(obj):
    """MutationData: a weight vector and a factor polytope."""
    return _int_vector(_field(obj, "w")), decode_polytope(_field(obj, "factor"))


def decode_int_rows(obj):
    """A list of integer lists, such as index groups or dual vectors."""
    return tuple(_int_vector(row) for row in _list(obj, "integer lists"))


def read_json(path):
    with open(path, "r", encoding="ascii") as handle:
        return json.load(handle)


def dumps(obj):
    """Serialize with sorted keys so equal objects give equal bytes."""
    return json.dumps(obj, sort_keys=True)
