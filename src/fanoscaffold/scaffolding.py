"""Scaffoldings: presentations of a polytope by divisor polytopes on a shape.

A scaffolding presents a target polytope in N = N_U x N_shape as the convex
hull of pieces {chi} x P_D, one per strut (D, chi).  The N_U block comes
first, matching the variable order of the forward construction.
"""

from itertools import combinations, product

from .errors import DomainError
from .exact import det, identity_matrix, to_int_vector
from .laurent import _bracket_sum
from .polyhedra import Cone, Fan, Polytope
from .toric import sections_polytope
from .forward import normalized_matrix


class Strut:
    """A divisor (as coefficients on the shape's rays) with a shift chi."""

    __slots__ = ("coeffs", "chi")

    def __init__(self, coeffs, chi=()):
        self.coeffs = to_int_vector(coeffs)
        self.chi = to_int_vector(chi)

    def is_unit(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Strut):
            return NotImplemented
        return self.coeffs == other.coeffs and self.chi == other.chi

    def __hash__(self):
        return hash((self.coeffs, self.chi))

    def __repr__(self):
        return f"Strut(coeffs={self.coeffs}, chi={self.chi})"


class Scaffolding:
    """Struts on a shape fan with u shift coordinates, presenting a target.

    The private slot ``_pieces`` holds the vertices of each strut's piece
    (None for a divisor with no sections), computed on first use by
    ``_pieces`` or stored by ``scaffolding_from_rows``, which already has
    them; every reader of a piece reads that one tuple.  The private slot
    ``_hull`` holds the Polytope of the pieces' hull, converted on first
    use by ``validate_scaffolding`` or stored by ``scaffolding_from_rows``,
    whose target is that hull.
    """

    __slots__ = ("shape", "u", "struts", "target", "_pieces", "_hull")

    def __init__(self, shape, u, struts, target):
        if not isinstance(shape, Fan):
            raise DomainError("bad_scaffolding", "shape must be a fan")
        (u,) = to_int_vector((u,))
        if u < 0:
            raise DomainError("bad_scaffolding", "negative shift rank")
        struts = tuple(struts)
        if not struts:
            raise DomainError("bad_scaffolding", "at least one strut required")
        nrays = len(shape.rays)
        for s in struts:
            if len(s.coeffs) != nrays:
                raise DomainError(
                    "bad_scaffolding",
                    f"strut has {len(s.coeffs)} coefficients, expected {nrays}",
                )
            if len(s.chi) != u:
                raise DomainError(
                    "bad_scaffolding",
                    f"strut shift has length {len(s.chi)}, expected {u}",
                )
        if target.dim != u + shape.dim:
            raise DomainError(
                "bad_scaffolding",
                f"target dimension {target.dim} != {u} + {shape.dim}",
            )
        self.shape = shape
        self.u = u
        self.struts = struts
        self.target = target
        self._pieces = None
        self._hull = None

    def __repr__(self):
        return (
            f"Scaffolding(shape dim {self.shape.dim}, u={self.u}, "
            f"{len(self.struts)} struts)"
        )


def _strut_points(shape, strut):
    """The vertices of the piece {chi} x P_D of a strut, lex sorted.

    They are chi followed by each vertex of the sections polytope P_D,
    which keeps P_D's lex order, so they need no conversion of their own.
    Raises empty_polytope when the divisor has no sections.
    """
    return tuple(strut.chi + v for v in sections_polytope(shape, strut.coeffs).vertices)


def _pieces(scaf):
    """_strut_points of each strut, None when its divisor has no sections.

    Computed once per Scaffolding; a raise caches nothing.
    """
    if scaf._pieces is None:
        scaf._pieces = tuple(_piece_or_none(scaf.shape, s) for s in scaf.struts)
    return scaf._pieces


def _piece_or_none(shape, strut):
    try:
        return _strut_points(shape, strut)
    except DomainError as exc:
        if exc.kind == "empty_polytope":
            return None
        raise


def strut_polytope(scaf, index):
    """The piece {chi} x P_D of one strut inside the target's lattice.

    None when the strut's divisor has no sections.
    """
    points = _pieces(scaf)[index]
    return None if points is None else Polytope.from_points(points)


def _piece_vertices(pieces):
    return [v for piece in pieces if piece is not None for v in piece]


def unit_strut_basis(scaf):
    """Indices of u unit struts whose shifts form a lattice basis, or None."""
    units = [i for i, s in enumerate(scaf.struts) if s.is_unit()]
    if scaf.u == 0:
        return ()
    for combo in combinations(units, scaf.u):
        if abs(det([scaf.struts[i].chi for i in combo])) == 1:
            return combo
    return None


def validate_scaffolding(scaf):
    """Direct validation: the pieces must fill the target exactly.

    Returns (ok, report).  Beyond the hull test, a lattice basis of shifts
    must be available among the unit struts.  Struts contributing no vertex
    of the target are legal but reported.  The hull is converted once per
    Scaffolding and kept in ``_hull``.
    """
    report = {"failures": [], "vertexless_struts": (), "unit_basis": None}
    basis = unit_strut_basis(scaf)
    if basis is None:
        report["failures"].append("no unit struts forming a basis of the shifts")
    report["unit_basis"] = basis
    pieces = _pieces(scaf)
    points = _piece_vertices(pieces)
    if not points:
        report["failures"].append("every strut is empty")
        return False, report
    if scaf._hull is None:
        scaf._hull = Polytope.from_points(points)
    if scaf._hull.vertices != scaf.target.vertices:
        report["failures"].append("strut hull differs from the target")
    target_vertices = set(scaf.target.vertices)
    vertexless = []
    for i, piece in enumerate(pieces):
        if piece is None or not target_vertices & set(piece):
            vertexless.append(i)
    report["vertexless_struts"] = tuple(vertexless)
    return not report["failures"], report


def require_valid_scaffolding(scaf):
    """The report of validate_scaffolding; raises invalid_scaffolding on failure."""
    ok, report = validate_scaffolding(scaf)
    if not ok:
        raise DomainError("invalid_scaffolding", "; ".join(report["failures"]))
    return report


def dual_cone_check(scaf):
    """Dual route: intersect the strut cones, compare with the target's.

    Equivalent to the hull test when the target contains the origin in its
    interior, but computed entirely on the dual side.  The target's polar
    dual keeps its cone, so only the strut side is converted, and the two
    cones are equal exactly when their canonical rays and lineality are.
    """
    normals = [q + (1,) for q in _piece_vertices(_pieces(scaf))]
    if not normals:
        return False
    return Cone.from_hrep(normals) == scaf.target.dual().cone


def product_fan(blocks):
    """Fan of a product of projective spaces.

    blocks lists, per factor, the coordinate positions it occupies; each
    factor contributes its unit rays plus the negated sum.
    """
    dim = sum(len(b) for b in blocks)
    seen = set()
    for b in blocks:
        for t in b:
            if t in seen or not 0 <= t < dim:
                raise DomainError("bad_index", "blocks must partition 0..dim-1")
            seen.add(t)
    units = identity_matrix(dim)
    rays = []
    factor_rays = []
    for b in blocks:
        mine = []
        for t in b:
            mine.append(len(rays))
            rays.append(units[t])
        neg = tuple(-1 if p in b else 0 for p in range(dim))
        mine.append(len(rays))
        rays.append(neg)
        factor_rays.append(mine)
    cones = []
    for omitted in product(*[range(len(m)) for m in factor_rays]):
        cone = []
        for m, om in zip(factor_rays, omitted):
            cone.extend(idx for k, idx in enumerate(m) if k != om)
        cones.append(tuple(cone))
    return Fan(dim, rays, cones)


def product_structure(fan):
    """The factors exhibiting the fan as a product of projective spaces.

    One (block, ray indices) pair per factor: the coordinate positions it
    occupies and the indices of the fan's rays supported there.  A factor
    has exactly one ray with a negative entry, minus the sum of its units,
    so the blocks are the supports of those rays; the fan is a product
    when they partition the coordinates and it is their product_fan.
    Raises when the fan is not such a product in its given coordinates.
    """
    blocks = sorted(
        tuple(p for p, c in enumerate(ray) if c) for ray in fan.rays if min(ray) < 0
    )
    if sorted(p for b in blocks for p in b) != list(range(fan.dim)) or (
        fan != product_fan(blocks)
    ):
        raise DomainError(
            "unsupported_shape", "shape is not a product of projective spaces"
        )
    # Each ray of a product fan is nonzero in exactly one block.
    return tuple(
        (b, tuple(j for j, ray in enumerate(fan.rays) if any(ray[p] for p in b)))
        for b in blocks
    )


def scaffolding_from_rows(shape, rows, position, shift_columns):
    """The scaffolding whose struts are the rows of a normalized weight matrix.

    Entry j of a row is the divisor coefficient on the shape ray with index
    position[j], and the negated entries on the shift columns form the
    strut's shift.  One unit strut per shift column follows, and the target
    is the hull of the strut pieces, so it is also kept as their hull.
    """
    nrays = len(shape.rays)
    struts = []
    for row in rows:
        coeffs = [0] * nrays
        for j, k in position.items():
            coeffs[k] = row[j]
        struts.append(Strut(coeffs, (-row[j] for j in shift_columns)))
    struts += [Strut((0,) * nrays, e) for e in identity_matrix(len(shift_columns))]
    pieces = tuple(_strut_points(shape, s) for s in struts)
    target = Polytope.from_points(_piece_vertices(pieces))
    scaf = Scaffolding(shape, len(shift_columns), struts, target)
    scaf._pieces = pieces
    scaf._hull = target
    return scaf


def scaffolding_from_forward(git, part):
    """The scaffolding presenting the model of a convex partition.

    One strut per basis row, whose divisor polytope is the row's bracket
    polytope shifted by the row's variable exponents: a group's unit ray
    carries the row's entry on its column, and the group's negated-sum ray
    the entry on the chosen column (every group level is nonnegative).  Its
    shift collects the exponents on the U block.  One unit strut per U
    column.  With no variable column the model is a constant, and this
    raises dimension_unknown.
    """
    norm = normalized_matrix(git, part)
    var_cols = part.variable_columns()
    if not var_cols:
        raise DomainError(
            "dimension_unknown", "no variable column, so the ambient dimension is zero"
        )
    u = len(part.U)
    coord = {j: p - u for p, j in enumerate(var_cols)}
    groups = [(s, c) for s, c in zip(part.S, part.choices) if len(s) > 1]
    blocks = [tuple(coord[j] for j in s if j != c) for s, c in groups]
    shape = product_fan(blocks)
    units = identity_matrix(shape.dim)
    position = {}
    for (s, c), block in zip(groups, blocks):
        for j in s:
            if j == c:
                ray = tuple(-1 if p in block else 0 for p in range(shape.dim))
            else:
                ray = units[coord[j]]
            position[j] = shape.ray_index(ray)
    return scaffolding_from_rows(shape, norm, position, part.U)


def laurent_from_scaffolding(scaf):
    """The Laurent polynomial a scaffolding on a product shape encodes.

    Each strut becomes a monomial times one bracket per factor, raised to
    the strut's degree on the factor; requires every such degree to be
    nonnegative.  The monomial is the shift, then minus the coefficient of
    the unit ray e_t at x_t.
    """
    factors = product_structure(scaf.shape)
    u = scaf.u
    dim = scaf.shape.dim
    positions = [tuple(u + t for t in block) for block, _ in factors]
    # The unit ray e_t is the one ray with an entry 1, at t.
    unit = {ray.index(1): k for k, ray in enumerate(scaf.shape.rays) if 1 in ray}
    terms = []
    for s_idx, strut in enumerate(scaf.struts):
        degrees = [sum(strut.coeffs[k] for k in idx) for _, idx in factors]
        for degree in degrees:
            if degree < 0:
                raise DomainError(
                    "negative_degree",
                    f"strut {s_idx} has degree {degree} on a factor",
                )
        expo = strut.chi + tuple(-strut.coeffs[unit[t]] for t in range(dim))
        terms.append((expo, list(zip(positions, degrees))))
    return _bracket_sum(u + dim, terms)
