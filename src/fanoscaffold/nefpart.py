"""Nef partitions, Cayley polytopes and divisor-level models of a scaffolding.

A nef partition splits the vertices of a reflexive polytope into groups whose
indicator divisors are piecewise linear on the spanning fan; the section
polytopes of the groups then Minkowski-sum to the dual polytope.  The same
idea on the ambient side splits the rays of a complete fan into a base part
and spanning parts whose union generates a Gorenstein cone.  This module
checks both notions, builds Cayley polytopes, and follows a scaffolding's
divisor-level model through a chain of mutations down to the hull of its
ambient rays.
"""

from itertools import product

from .errors import DomainError
from .exact import dot, identity_matrix, integer_solution, solve_linear, to_int_vector
from .inversion import _relation_basis, ambient_rays
from .mutations import mutate_polytope
from .polyhedra import Cone, Polytope, _fan_face, lattice_isomorphic, spanning_fan
from .scaffolding import _pieces, product_structure
from .toric import git_to_stacky_fan, positivity, sections_polytope


# ---------------------------------------------------------------------------
# nef partitions of a reflexive polytope
# ---------------------------------------------------------------------------

def _require_partition(parts, rest, n, items):
    """Raise bad_partition unless parts and rest split range(n), each index
    once, and parts is a nonempty tuple of nonempty parts."""
    flat = sorted(i for p in parts + rest for i in p)
    if not parts or not all(parts) or flat != list(range(n)):
        raise DomainError("bad_partition", f"parts must partition the {items} indices")


def check_nef_partition(delta, parts):
    """Check a partition of a reflexive polytope's vertices for nef-ness.

    Each part induces the divisor with coefficient one on its vertices' rays
    and zero elsewhere.  The report records whether all the indicator
    functions are piecewise linear on the spanning fan, the section polytopes
    of the parts, whether those Minkowski-sum to the dual polytope, and a
    tuple of integral sections summing to zero (or None).  The partition is
    valid when the functions exist, the sum recovers the dual, and the
    sections are found.
    """
    if not delta.is_reflexive():
        raise DomainError("not_reflexive", "nef partitions need a reflexive polytope")
    parts = tuple(map(to_int_vector, parts))
    _require_partition(parts, (), len(delta.vertices), "vertex")
    fan = spanning_fan(delta)
    indicators = []
    for part in parts:
        coeffs = [0] * len(fan.rays)
        for i in part:
            coeffs[fan.ray_index(delta.vertices[i])] = 1
        indicators.append(tuple(coeffs))
    # An indicator's linear piece on a maximal cone agrees with it on the
    # cone's rays; Cartier asks every piece to be integral.
    pieces = [
        solve_linear([fan.rays[i] for i in c], [coeffs[i] for i in c])
        for coeffs in indicators
        for c in fan.max_cones
    ]
    pl_ok = None not in pieces
    cartier = pl_ok and all(type(x) is int for piece in pieces for x in piece)
    nablas = tuple(sections_polytope(fan, coeffs) for coeffs in indicators)
    total = nablas[0]
    for nabla in nablas[1:]:
        total = total.minkowski_sum(nabla)
    minkowski_ok = total == delta.dual()
    points = None
    for combo in product(*[nabla.integral_points() for nabla in nablas]):
        if all(s == 0 for s in map(sum, zip(*combo))):
            points = combo
            break
    valid = pl_ok and minkowski_ok and points is not None
    return {
        "pl_ok": pl_ok,
        "cartier": cartier,
        "nablas": nablas,
        "minkowski_ok": minkowski_ok,
        "points": points,
        "valid": valid,
    }


# ---------------------------------------------------------------------------
# ray partitions of a quotient fan
# ---------------------------------------------------------------------------

class FanoNefPartition:
    """A partition of the coordinates of GIT data into a base part and
    spanning parts.

    Each coordinate is a ray of the quotient fan; the parts must cover
    every coordinate exactly once.  The base part may be empty, the
    spanning parts may not.
    """

    __slots__ = ("git", "e_parts", "f_part")

    def __init__(self, git, e_parts, f_part):
        e_parts = tuple(map(to_int_vector, e_parts))
        f_part = to_int_vector(f_part)
        _require_partition(e_parts, (f_part,), git.R, "ray")
        self.git = git
        self.e_parts = e_parts
        self.f_part = f_part

    def __repr__(self):
        return "FanoNefPartition(e_parts=%r, f_part=%r)" % (self.e_parts, self.f_part)


def fano_nef_partition_from_inversion(inv):
    """Read the ray partition off an inversion whose shape is a product.

    The strut and shift columns form the base part; each projective factor of
    the shape contributes its block of ray columns as one spanning part.
    """
    if inv.recovered is None:
        raise DomainError(
            "unsupported_shape", "shape is not a product of projective spaces"
        )
    f_part = tuple(inv.recovered.B) + tuple(inv.recovered.U)
    return FanoNefPartition(inv.git, inv.recovered.S, f_part)


def check_fano_nef_partition(fnp):
    """Ampleness, nef-ness and the Gorenstein condition for a ray partition.

    The base part must carry an ample divisor, each spanning part a nef one
    (toric.positivity, on the class of each part: the sum of its weights),
    and the union of the spanning parts' rays must generate a cone of the
    quotient fan whose generators lie on an integral affine hyperplane at
    height one.
    """
    git = fnp.git
    fan = git_to_stacky_fan(git)
    classes = [
        tuple(sum(git.characters[j][k] for j in part) for k in range(git.r))
        for part in (fnp.f_part,) + fnp.e_parts
    ]
    (_, ample_base), *verdicts = positivity(git, classes)
    nef_parts = tuple(nef for nef, _ in verdicts)
    spanning = [i for p in fnp.e_parts for i in p]
    sigma = Cone.from_rays([fan.rays[i] for i in spanning], dim=fan.dim)
    # sigma is a cone of the fan exactly when it is the smallest one holding its rays.
    in_fan = sigma.is_pointed() and _fan_face(fan, sigma.rays) == sigma.rays
    level = None
    if sigma.is_pointed() and sigma.rays:
        level = integer_solution(sigma.rays, (1,) * len(sigma.rays))
    gorenstein = in_fan and level is not None
    valid = ample_base and all(nef_parts) and gorenstein
    return {
        "ample_base": ample_base,
        "nef_parts": nef_parts,
        "gorenstein_cone": gorenstein,
        "valid": valid,
    }


# ---------------------------------------------------------------------------
# Cayley polytopes
# ---------------------------------------------------------------------------

def cayley(polytopes):
    """Cayley polytope and cone of a tuple of polytopes in a common space.

    Each polytope is tagged with its own unit vector in as many extra
    coordinates as there are polytopes; the polytope is the hull of the
    tagged vertices and the cone is generated by them.
    """
    polys = tuple(polytopes)
    if not polys:
        raise DomainError("dimension_unknown", "at least one polytope required")
    n = polys[0].dim
    if any(p.dim != n for p in polys):
        raise DomainError("dimension_mismatch", "polytopes live in different spaces")
    r = len(polys)
    points = []
    for p, tag in zip(polys, identity_matrix(r)):
        for v in p.vertices:
            points.append(tuple(v) + tag)
    poly = Polytope.from_points(points)
    cone = Cone.from_rays(points, dim=n + r)
    return poly, cone


# ---------------------------------------------------------------------------
# divisor-level models of a scaffolding
# ---------------------------------------------------------------------------

def p_tilde(scaf):
    """Hull of the strut pieces, each placed at a height in an extra factor.

    The height of a strut is minus its divisor class, written in the
    canonical basis of ray relations of the shape.  Struts whose sections
    are empty contribute no points.
    """
    rel = _relation_basis(scaf.shape)
    heights = [tuple(-dot(row, s.coeffs) for row in rel) for s in scaf.struts]
    points = [
        v + height
        for piece, height in zip(_pieces(scaf), heights)
        if piece is not None
        for v in piece
    ]
    return Polytope.from_points(points)


def p_tilde_one(scaf):
    """The canonical height model with one extra vertex per height unit."""
    base = p_tilde(scaf)
    n = scaf.u + scaf.shape.dim
    k = base.dim - n
    points = list(base.vertices)
    points += [tuple(0 for _ in range(n)) + unit for unit in identity_matrix(k)]
    return Polytope.from_points(points)


def p_s_polytope(scaf):
    """Hull of the ambient rays and one unit point per shape ray coordinate."""
    u = scaf.u
    nrays = len(scaf.shape.rays)
    points = list(ambient_rays(scaf))
    points += [tuple(0 for _ in range(u)) + unit for unit in identity_matrix(nrays)]
    return Polytope.from_points(points)


def mutation_chain_check(scaf):
    """Mutate the height model once per shape factor and compare hulls.

    The weight of a factor's mutation is the corresponding height coordinate
    functional; its factor polytope is spanned by the origin and the unit
    points of the factor's shape coordinates.  Returns whether the final
    polytope is lattice isomorphic to the hull of the ambient rays.
    """
    factors = product_structure(scaf.shape)
    # On a product of projective spaces the canonical relation basis is
    # exactly the factors' indicator vectors, one row per factor.
    rel = _relation_basis(scaf.shape)
    k = len(rel)
    nrays = len(scaf.shape.rays)
    u = scaf.u
    n = u + scaf.shape.dim
    units = identity_matrix(n + k)
    model = p_tilde_one(scaf)
    for block, idx in factors:
        i = rel.index(tuple(1 if j in idx else 0 for j in range(nrays)))
        w = units[n + i]
        pts = [tuple(0 for _ in range(n + k))]
        pts += [units[u + c] for c in block]
        model = mutate_polytope(model, w, Polytope.from_points(pts))
    return lattice_isomorphic(model, p_s_polytope(scaf)) is not None
