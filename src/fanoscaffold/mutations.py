"""Polytope mutations and their action on scaffoldings.

A mutation is given by an integer weight vector w and a factor polytope
lying in the hyperplane w = 0.  Slices of the polytope at negative
heights must shed the dilated factor as an exact Minkowski summand;
slices at positive heights absorb it.  Both sides are read off the
polytope's own vertices and facets (_mutate_slices).  The same
transformation applied strut by strut moves a whole scaffolding,
changing its shape fan by the induced piecewise linear map.
"""

from .errors import DomainError
from .exact import dot, kernel_basis, to_int_vector, vadd, vscale
from .laurent import MAX_MUTATION_LEVEL
from .polyhedra import Fan, Polytope
from .scaffolding import Scaffolding, Strut, strut_polytope, validate_scaffolding
from .toric import sections_polytope


def _check_mutation_data(dim, w, factor):
    if len(w) != dim or factor.dim != dim:
        raise DomainError("dimension_mismatch",
                          "weight and factor must live in the polytope's space")
    if not any(w):
        raise DomainError("zero_vector", "mutation weight must be nonzero")
    if not factor.is_lattice():
        raise DomainError("not_lattice", "factor must be a lattice polytope")
    for v in factor.vertices:
        if dot(w, v) != 0:
            raise DomainError("factor_not_orthogonal",
                              "factor vertex off the weight hyperplane")


def _checked_heights(polytope, w, factor):
    """The vertex heights along w, once the mutation data has been checked."""
    _check_mutation_data(polytope.dim, w, factor)
    if not polytope.is_lattice():
        raise DomainError("not_lattice", "mutation needs a lattice polytope")
    heights = [dot(w, v) for v in polytope.vertices]
    if max(map(abs, heights)) > MAX_MUTATION_LEVEL:
        raise DomainError(
            "level_too_large", f"mutation levels capped at {MAX_MUTATION_LEVEL}"
        )
    return heights


def _mutate_slices(polytope, w, factor, heights):
    """The mutated polytope, read off the polytope's vertices and facets.

    P_h is the slice of P at height h along w, and F the factor.  Side
    h >= 0: a point x of P at height h >= 0 is a convex combination
    sum l_i u_i of the vertices of P meet {w >= 0}, which are the vertices
    of P with h_v >= 0 and those of P_0; as h = sum l_i w(u_i), x + h f is
    sum l_i (u_i + w(u_i) f).  So the hull of the P_h + hF over h >= 0 is
    that of the v + h_v f, for vertices v with h_v > 0 and f of F, and of
    the vertices of P_0 when 0 lies between the heights.

    Each level h < 0, in increasing order: G_h = {x : w(x) = h,
    x + |h|F in P} is one from_hrep of w = h and of P's facets and
    equations, each <a, x> >= rhs or = rhs moved to rhs - |h| min_f <a, f>.
    The level fails when G_h is empty, and is exact when the hull of
    G_h + |h|F has the vertices of P_h.  An equation on which <e, f> is
    not constant on F admits no x + |h|F in P; its moved form may keep
    points, but their hull then leaves P_h, so every level h < 0 fails.
    At the least and greatest heights P_h is a face of P, read off its
    vertices; any other slice is one conversion.
    """
    n = polytope.dim
    fverts = factor.vertices
    lo, hi = min(heights), max(heights)

    def slice_vertices(h):
        if h in (lo, hi):
            return tuple(v for v, hv in zip(polytope.vertices, heights) if hv == h)
        eqs = polytope.equations + ((w, h),)
        return Polytope.from_hrep(polytope.inequalities, eqs, dim=n).vertices

    def moved_in(rows, h):
        return [(a, rhs + h * min(dot(a, f) for f in fverts)) for a, rhs in rows]

    points = []
    for h in range(lo, min(hi + 1, 0)):
        eqs = moved_in(polytope.equations, h) + [(w, h)]
        try:
            eroded = Polytope.from_hrep(moved_in(polytope.inequalities, h), eqs, dim=n)
        except DomainError as exc:
            if exc.kind != "empty_polytope":
                raise
            eroded = None
        if eroded is None or Polytope.from_points(
            vadd(x, vscale(-h, f)) for x in eroded.vertices for f in fverts
        ).vertices != slice_vertices(h):
            raise DomainError("not_mutable", "summand failure at level %d" % h)
        points.extend(eroded.vertices)
    points.extend(
        vadd(v, vscale(h, f)) for v, h in zip(polytope.vertices, heights) if h > 0 for f in fverts
    )
    if lo <= 0 <= hi:
        points.extend(slice_vertices(0))
    result = Polytope.from_points(points)
    assert result.is_lattice()
    return result


def mutate_polytope(polytope, w, factor):
    """Mutate a lattice polytope by weight w and the given factor.

    Slices at height h < 0 must admit |h| copies of the factor as an
    exact Minkowski summand and are replaced by the complementary
    summand; slices at h > 0 gain h copies.  The hull of the transformed
    slices is returned.  Raises DomainError("not_mutable") naming the
    first failing level, and level_too_large when a vertex lies beyond
    height MAX_MUTATION_LEVEL.
    """
    w = to_int_vector(w)
    return _mutate_slices(polytope, w, factor, _checked_heights(polytope, w, factor))


def _transport_ray(ray, w, factor, u):
    """Image of a shape ray under the piecewise linear shape map.

    The shape part of a factor vertex pairs with shape rays; the map
    subtracts the minimum pairing times the shape part of the weight.
    """
    m = min(dot(ray, f[u:]) for f in factor.vertices)
    return tuple(a - m * b for a, b in zip(ray, w[u:]))


def mutate_shape(shape, w, factor, u):
    """Transport a shape fan along a mutation of the surrounding space.

    Each linear piece of the transport is unimodular (the factor is
    orthogonal to the weight), so ray images stay primitive and distinct.
    What can fail is a maximal cone straddling a crease of the piecewise
    linear map; the completeness check picks that up.
    """
    moved = [_transport_ray(r, w, factor, u) for r in shape.rays]
    fan = Fan(shape.dim, moved, shape.max_cones)
    if not fan.is_complete():
        raise DomainError("not_mutable", "transported shape fan is not complete")
    return fan


def mutate_scaffolding(scaf, w, factor):
    """Mutate every strut of a scaffolding together with its target.

    Raises DomainError("not_mutable") naming the first strut whose
    polytope misses a required summand; the output scaffolding is
    validated before being returned.
    """
    u = scaf.u
    w = to_int_vector(w)
    # The shape transport is cheap and can reject the mutation outright, so
    # it runs before the target's slices, after the data checks whose error
    # kinds take precedence.
    heights = _checked_heights(scaf.target, w, factor)
    shape = mutate_shape(scaf.shape, w, factor, u)
    target = _mutate_slices(scaf.target, w, factor, heights)
    struts = []
    pieces = []
    for i in range(len(scaf.struts)):
        piece = strut_polytope(scaf, i)
        if piece is None:
            raise DomainError("not_mutable",
                              "strut %d has no sections to mutate" % i)
        try:
            moved = mutate_polytope(piece, w, factor)
        except DomainError as exc:
            if exc.kind == "not_mutable":
                raise DomainError("not_mutable",
                                  "strut %d: %s" % (i, exc.detail))
            raise
        chi = set(v[:u] for v in moved.vertices)
        if len(chi) != 1:
            raise DomainError("not_mutable",
                              "strut %d loses its single shift" % i)
        # All vertices share the shift, so their shape parts keep the lex order.
        shifted = tuple(v[u:] for v in moved.vertices)
        coeffs = tuple(-min(dot(r, q) for q in shifted) for r in shape.rays)
        if sections_polytope(shape, coeffs).vertices != shifted:
            raise DomainError("not_mutable",
                              "strut %d is not a sections polytope" % i)
        struts.append(Strut(coeffs, chi.pop()))
        pieces.append(moved.vertices)
    out = Scaffolding(shape, u, struts, target)
    # The checked pieces are the ones validate_scaffolding would rebuild.
    out._pieces = tuple(pieces)
    ok, report = validate_scaffolding(out)
    if not ok:
        raise DomainError("not_mutable",
                          "; ".join(report["failures"]))
    return out


def segment_factor(w):
    """The canonical primitive segment inside a 2D weight's kernel."""
    if len(w) != 2:
        raise DomainError("unsupported_dimension",
                          "canonical segment factors are two dimensional")
    if not any(w):
        raise DomainError("zero_vector", "weight must be nonzero")
    gen = kernel_basis([list(w)], ncols=2)[0]
    origin = (0, 0)
    return Polytope.from_points([origin, gen])


def strut_mutability(scaf, weights):
    """Check each strut of a 2D scaffolding against each weight.

    For every strut polytope and every weight, all slices at negative
    heights must shed the canonical segment factor exactly.  Returns
    (ok, table) where table[i][j] reports strut i against weight j.
    """
    if scaf.u + scaf.shape.dim != 2:
        raise DomainError("unsupported_dimension",
                          "mutability table needs a two dimensional target")
    pieces = [strut_polytope(scaf, i) for i in range(len(scaf.struts))]
    factors = []
    table = []
    for piece in pieces:
        row = []
        for j, w in enumerate(weights):
            # The first row builds each factor just before its first use,
            # so errors keep the order of the strut and weight loops.
            if j == len(factors):
                factors.append(segment_factor(w))
            factor = factors[j]
            if piece is None:
                row.append(True)
                continue
            try:
                mutate_polytope(piece, w, factor)
                row.append(True)
            except DomainError as exc:
                if exc.kind != "not_mutable":
                    raise
                row.append(False)
        table.append(tuple(row))
    table = tuple(table)
    return all(all(row) for row in table), table
