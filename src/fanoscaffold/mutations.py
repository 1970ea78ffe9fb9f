"""Slice-wise polytope mutations and their action on scaffoldings.

A mutation is given by an integer weight vector w and a factor polytope
lying in the hyperplane w = 0.  Slices of the polytope at negative
heights must shed the dilated factor as an exact Minkowski summand;
slices at positive heights absorb it.  The same transformation applied
strut by strut moves a whole scaffolding, changing its shape fan by the
induced piecewise linear map.
"""

from .errors import DomainError
from .exact import dot, is_zero_vector, kernel_basis, to_int_vector, vadd, vscale
from .laurent import MAX_MUTATION_LEVEL
from .polyhedra import Fan, Polytope
from .scaffolding import Scaffolding, Strut, strut_polytope, validate_scaffolding
from .toric import sections_polytope


def _check_mutation_data(dim, w, factor):
    if len(w) != dim or factor.dim != dim:
        raise DomainError("dimension_mismatch",
                          "weight and factor must live in the polytope's space")
    if is_zero_vector(w):
        raise DomainError("zero_vector", "mutation weight must be nonzero")
    if not factor.is_lattice():
        raise DomainError("not_lattice", "factor must be a lattice polytope")
    for v in factor.vertices:
        if dot(w, v) != 0:
            raise DomainError("factor_not_orthogonal",
                              "factor vertex off the weight hyperplane")


def _slice_at_level(polytope, w, h):
    """The (possibly empty) slice of a polytope at height h along w."""
    eqs = polytope.equations + ((tuple(w), h),)
    try:
        return Polytope.from_hrep(polytope.inequalities, eqs,
                                  dim=polytope.dim)
    except DomainError as exc:
        if exc.kind == "empty_polytope":
            return None
        raise


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
    """The mutated polytope, built slice by slice between the heights."""
    points = []
    for h in range(min(heights), max(heights) + 1):
        piece = _slice_at_level(polytope, w, h)
        if piece is None:
            continue
        if h < 0:
            eroded, exact = piece.erode(factor.dilate(-h))
            if eroded is None or not exact:
                raise DomainError("not_mutable",
                                  "summand failure at level %d" % h)
            points.extend(eroded.vertices)
        else:
            # The final hull is canonical, so the sums need no hull of their own.
            points.extend(
                vadd(p, vscale(h, q)) for p in piece.vertices for q in factor.vertices
            )
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
        shifted = Polytope.from_points([v[u:] for v in moved.vertices])
        coeffs = tuple(-min(dot(r, q) for q in shifted.vertices) for r in shape.rays)
        check = sections_polytope(shape, coeffs)
        if check.vertices != shifted.vertices:
            raise DomainError("not_mutable",
                              "strut %d is not a sections polytope" % i)
        struts.append(Strut(coeffs, chi.pop()))
    out = Scaffolding(shape, u, struts, target)
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
    if is_zero_vector(w):
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
    table = []
    for i in range(len(scaf.struts)):
        piece = strut_polytope(scaf, i)
        row = []
        for w in weights:
            factor = segment_factor(w)
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
