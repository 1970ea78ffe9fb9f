"""Laurent inversion: from a scaffolding to an ambient toric embedding.

A valid scaffolding determines a bigger toric variety together with a
distinguished lattice inclusion theta of the target's space.  The ambient
lattice is the shift block, written in the basis formed by the shifts of
the unit strut basis, followed by one coordinate per shape ray.
_ambient_lattice derives that basis, the struts' ambient rays and theta
for every function below.  The weight matrix has one row per non-basis
strut and one column per non-basis strut, per shift coordinate and per
shape ray, in that order.
"""

from .errors import DomainError
from .exact import (
    _row_reduce,
    dot,
    identity_matrix,
    kernel_basis,
    mat_vec,
    primitive_vector,
    rank,
    row_space_equal,
    solve_linear,
    transpose,
    unimodular_inverse,
)
from .forward import ConvexPartitionWithBasis
from .polyhedra import (
    Cone,
    Fan,
    Polytope,
    _affine,
    _fan_face,
    dd_cone,
    normal_fan,
    placing_triangulation,
    spanning_fan,
)
from .scaffolding import (
    Scaffolding,
    Strut,
    product_structure,
    require_valid_scaffolding,
    unit_strut_basis,
)
from .toric import GitData


class InversionResult:
    """Weight matrix, GIT data and lattice maps produced by an inversion."""

    __slots__ = (
        "scaffolding",
        "matrix",
        "git",
        "row_struts",
        "theta",
        "recovered",
    )

    def __init__(self, scaffolding, matrix, git, row_struts, theta, recovered):
        self.scaffolding = scaffolding
        self.matrix = matrix
        self.git = git
        self.row_struts = row_struts
        self.theta = theta
        self.recovered = recovered

    def __repr__(self):
        return f"InversionResult({self.git.r} x {self.git.R})"


def _ambient_lattice(scaf, basis=None):
    """The unit strut basis, one ambient ray per strut, and theta.

    The ambient lattice is the shift block, written in the basis formed by
    the basis unit struts' shifts, followed by one coordinate per shape
    ray.  A strut's ambient ray is its shift in that basis followed by its
    negated divisor.  Theta has one row per target coordinate: a target
    point (n_U, n) maps to n_U in the unit-strut basis, followed by the
    pairings of n against the shape's rays.  A basis the caller already
    found is used as given.  Raises invalid_scaffolding when no unit struts
    form a basis of the shifts.
    """
    if basis is None:
        basis = unit_strut_basis(scaf)
    if basis is None:
        raise DomainError("invalid_scaffolding", "no unit strut basis")
    u = scaf.u
    cinv = unimodular_inverse([scaf.struts[i].chi for i in basis])
    cols = transpose(cinv)
    rays = tuple(
        tuple(dot(s.chi, col) for col in cols) + tuple(-c for c in s.coeffs)
        for s in scaf.struts
    )
    shape_rays = scaf.shape.rays
    theta = tuple(row + (0,) * len(shape_rays) for row in cinv) + tuple(
        (0,) * u + tuple(ray[k] for ray in shape_rays)
        for k in range(scaf.shape.dim)
    )
    return basis, rays, theta


def ambient_rays(scaf):
    """One ray per strut: the shift paired with the negated divisor.

    Coordinates are (shift block, ray block); the shift block is written in
    the basis formed by the unit struts' shifts.
    """
    return _ambient_lattice(scaf)[1]


def laurent_inversion(scaf, omega=None):
    """Invert a scaffolding into GIT data for the ambient variety.

    Columns: one per non-basis strut (unit block), then the shift block in
    the unit-strut basis, then one per shape ray in the fan's canonical
    order.  The row of a non-basis strut is its unit vector followed by its
    negated ambient ray.  By default omega is the sum of the strut columns.
    """
    report = require_valid_scaffolding(scaf)
    basis, rays, theta = _ambient_lattice(scaf, report["unit_basis"])
    row_struts = tuple(i for i in range(len(scaf.struts)) if i not in basis)
    u = scaf.u
    r = len(row_struts)
    R = r + u + len(scaf.shape.rays)
    matrix = tuple(
        unit + tuple(-c for c in rays[i])
        for unit, i in zip(identity_matrix(r), row_struts)
    )
    if omega is None:
        omega = (1,) * r
    else:
        omega = tuple(omega)
    chars = [tuple(matrix[b][j] for b in range(r)) for j in range(R)]
    git = GitData(r, R, chars, omega)
    try:
        factors = product_structure(scaf.shape)
    except DomainError:
        recovered = None
    else:
        groups = [tuple(r + u + j for j in idx) for _, idx in factors]
        recovered = ConvexPartitionWithBasis(
            tuple(range(r)), groups, tuple(range(r, r + u))
        )
    return InversionResult(scaf, matrix, git, row_struts, theta, recovered)


def _q_s_polytope(scaf, rhos):
    dim = scaf.u + len(scaf.shape.rays)
    ineqs = [(unit, 0) for unit in identity_matrix(dim)[scaf.u:]]
    ineqs += [(rho, -1) for rho in rhos]
    return Polytope.from_hrep(ineqs, dim=dim)


def _relation_basis(shape):
    """Canonical basis of the integer relations among the shape's rays."""
    return kernel_basis(transpose(shape.rays), ncols=len(shape.rays))


def _ray_relations(shape):
    """Integer relations among the shape's rays used for the binomials.

    Plane fans get one wall relation per ray j, from j's neighbours i and
    k, the other rays of its two maximal cones: det(v_j, v_k) e_i -
    det(v_i, v_k) e_j + det(v_i, v_j) e_k, up to sign.  Its entries at i
    and k are determinants of two rays spanning a maximal cone, so neither
    is zero, and a ray that does not lie on exactly two 2-cones raises
    unsupported_shape.  Anything else gets the canonical basis of the
    saturated relation lattice, which on a product of projective spaces
    is one indicator vector per factor.
    """
    rays = shape.rays
    if shape.dim != 2:
        return sorted(_relation_basis(shape))
    rels = set()
    for j, vj in enumerate(rays):
        walls = [c for c in shape.max_cones if j in c]
        if len(walls) != 2 or any(len(c) != 2 for c in walls):
            raise DomainError(
                "unsupported_shape",
                "ray (%s) of the plane shape does not lie on exactly two 2-cones"
                % ", ".join(map(str, vj)),
            )
        i, k = (c[1] if c[0] == j else c[0] for c in walls)
        vi, vk = rays[i], rays[k]
        w = [0] * len(rays)
        w[i] = vj[0] * vk[1] - vj[1] * vk[0]
        w[j] = vk[0] * vi[1] - vk[1] * vi[0]
        w[k] = vi[0] * vj[1] - vi[1] * vj[0]
        if next(c for c in w if c) < 0:
            w = [-c for c in w]
        rels.add(tuple(w))
    return sorted(rels)


def binomial_equations(inv):
    """Binomials cutting out the embedded image inside the ambient variety.

    Each relation among the shape's rays is turned into a difference of two
    monomials in the Cox coordinates; strut columns homogenise the relation
    and shift columns never appear.  Returned as (plus, minus) exponent
    pairs over all columns, sorted.
    """
    scaf = inv.scaffolding
    r = len(inv.row_struts)
    u = scaf.u
    nrays = len(scaf.shape.rays)
    R = r + u + nrays
    out = []
    for w in _ray_relations(scaf.shape):
        plus = [0] * R
        minus = [0] * R
        for j, c in enumerate(w):
            if c > 0:
                plus[r + u + j] = c
            elif c < 0:
                minus[r + u + j] = -c
        for pos, i in enumerate(inv.row_struts):
            coeffs = scaf.struts[i].coeffs
            a = -sum(wj * cj for wj, cj in zip(w, coeffs))
            if a > 0:
                plus[pos] = a
            elif a < 0:
                minus[pos] = -a
        out.append((tuple(plus), tuple(minus)))
    return tuple(sorted(set(out)))


def _lift_facet_normal(scaf, basis, normal):
    """Lift a facet normal of the target into ambient dual coordinates.

    The normal pairs to -1 with the facet.  The lift's shift block holds
    the pairings of its shift part n_U with the shifts of the basis unit
    struts, since the ambient shift block is written in their basis.
    Its shape part y lies in some maximal cone of the shape fan; writing it
    in that cone's ray basis gives nonnegative coordinates, one per ray.
    When no simplicial maximal cone holds y, y is written in the rays of
    the smallest face holding it of the first maximal cone that does
    (_face_coordinates).  Returns None when no maximal cone contains y.
    """
    shape = scaf.shape
    u = scaf.u
    y = list(normal[u:])
    for cone_indices in shape.max_cones:
        if len(cone_indices) != shape.dim:
            continue
        cols = [shape.rays[i] for i in cone_indices]
        sol = solve_linear(transpose(cols), y)
        if sol is not None and all(t >= 0 for t in sol):
            coords = zip(cone_indices, sol)
            break
    else:
        coords = _face_coordinates(shape, y)
        if coords is None:
            return None
    lifted = [dot(scaf.struts[b].chi, normal[:u]) for b in basis]
    lifted += [0] * len(shape.rays)
    for i, t in coords:
        lifted[u + i] = t
    return tuple(lifted)


def _face_coordinates(fan, y):
    """(ray index, coordinate) pairs of y in the smallest face holding it.

    The face is that of the first maximal cone that contains y.  The
    coordinates are unique only when its rays are independent; otherwise
    unsupported_shape is raised.  Returns None when no maximal cone
    contains y.
    """
    face = _fan_face(fan, [y])
    if face is None:
        return None
    if rank(face) < len(face):
        raise DomainError(
            "unsupported_shape",
            "the lift of (%s) is not unique: the smallest cone of the shape "
            "fan holding it is not simplicial" % ", ".join(map(str, y)),
        )
    sol = solve_linear([[v[k] for v in face] for k in range(fan.dim)], y)
    return [(fan.ray_index(v), t) for v, t in zip(face, sol)]


def verify_embedding(scaf):
    """Run the three embedding checks for a scaffolding.

    (a) the ambient fan, the normal fan of Q_S, has exactly the strut rays
        plus the ray block's units as rays;
    (b) the ambient fan pulled back along theta, the lattice inclusion, is
        the spanning fan of the target;
    (c) for every proper face of the target, the face's cone is recovered
        from the ambient data.

    All three read one lemma.  Let pi(x) = (<x, t>) over the rows t of
    theta, so that <theta y, x> = <y, pi(x)>.  Then q minimizes theta y
    over Q_S exactly when pi(q) minimizes y over pi(Q_S): the preimage
    along theta of the normal cone of Q_S at q is the normal cone of
    pi(Q_S) at pi(q) (compare Ziegler, Lectures on Polytopes, Lecture 7).
    So (a) reads the facet normals of Q_S, and (b) is one conversion, the
    hull of the projected vertices of Q_S: the pulled-back fan is the
    normal fan of that image when it is full dimensional, and has no full
    dimensional cone otherwise.  (c) reads each vertex's preimage off the
    incidences of both polytopes (see _face_cones_check).  Returns
    (ok, report) with one boolean per check; all are False when no unit
    struts form a basis of the shifts.  Raises unsupported_shape when the
    lift of a facet normal is not unique (_face_coordinates).
    """
    report = {"ambient_rays": False, "restricted_fan": False,
              "face_cones": False}
    try:
        basis, rhos, theta = _ambient_lattice(scaf)
    except DomainError:
        return False, report
    u = scaf.u
    dim = u + len(scaf.shape.rays)
    q_s = _q_s_polytope(scaf, rhos)
    expected = set()
    for rho in rhos:
        # a strut whose coefficients and shift are all 0 has ray 0, which is
        # never a fan ray
        expected.add(primitive_vector(rho) if any(rho) else rho)
    expected.update(identity_matrix(dim)[u:])
    report["ambient_rays"] = {primitive_vector(a) for a, _ in q_s.inequalities} == expected

    projected = [mat_vec(theta, q) for q in q_s.vertices]
    image = Polytope.from_points(projected)
    target_fan = spanning_fan(scaf.target)
    full = image.is_full_dimensional()
    report["restricted_fan"] = full and normal_fan(image) == target_fan

    # Each vertex q of Q_S, keyed by the facet normals through it, maps to
    # the rays of its normal cone's preimage: the facet normals of the
    # image through pi(q) when pi(q) is a vertex of a full dimensional
    # image, and None otherwise, since that preimage then has lineality or
    # is not full dimensional.
    vertex_of = {v: i for i, v in enumerate(image.vertices)} if full else {}
    preimages = {}
    for i, q in enumerate(projected):
        key = frozenset(_facet_normals_at(q_s, i))
        j = vertex_of.get(q)
        preimages[key] = None if j is None else tuple(sorted(_facet_normals_at(image, j)))
    report["face_cones"] = _face_cones_check(scaf, basis, rhos, theta, preimages)
    return all(report.values()), report


def _facet_normals_at(polytope, i):
    """The primitive normals of the facets through vertex i."""
    return [
        primitive_vector(a)
        for (a, _), mask in zip(polytope.inequalities, polytope.incidence)
        if mask >> i & 1
    ]


def _face_cones_check(scaf, basis, rhos, theta, preimages):
    """Check (c): every proper face's cone is recovered from the ambient data.

    Each facet of the target lifts to an ambient dual point, and a face G
    picks the ambient generators that the lifts of all facets containing
    G make tight; C_G is their cone.  G passes when theta^-1(C_G) is
    cone(G): pointed, with G's primitive vertex vectors as its rays.

    Facets and vertices suffice.  For a facet F containing G, G's
    generators are among F's, so C_G lies in C_F.  If every facet passes,
    theta^-1(C_G) lies in the intersection of the cone(F), which is cone(G)
    since the cones over the faces of a polytope with 0 inside form a fan
    (Ziegler, Lectures on Polytopes, 7.1).  The reverse inclusion needs
    theta(v) in C_G for each vertex v of G, and C_{v} lies in C_G because
    v's generators are among G's.  So the check holds exactly when every
    facet passes and every vertex v has theta(v) in C_{v}.

    preimages maps the ray set of each maximal ambient cone, the facet
    normals of Q_S through one of its vertices, to the rays of that
    cone's preimage along theta, or to None when the preimage is not a
    pointed full dimensional cone; verify_embedding reads them off the
    incidences with no conversion.  A facet whose primitive generators
    are exactly such a ray set reads its preimage there.  Any other facet
    takes two passes (_pull_back_cone).
    """
    u = scaf.u
    dim = u + len(scaf.shape.rays)
    target = scaf.target
    # lift the dual vertex of every facet of the target; spanning_fan has
    # already required 0 in its interior, so every facet normal (a, -rhs)
    # has -rhs > 0
    lifts = []
    for a in target.cone.ineq_normals:
        lifted = _lift_facet_normal(scaf, basis, _affine(a))
        if lifted is None:
            return False
        lifts.append(lifted)
    # a strut ray supports a face when it pairs to -1 with the lift of every
    # facet covering the face; a unit does when its coordinate vanishes on
    # all of those lifts.  Each generator records the facets it is tight at.
    # A zero strut ray pairs to 0 with every lift, so it is no generator.
    tight = [
        (primitive_vector(rho),
         frozenset(k for k, lift in enumerate(lifts) if dot(rho, lift) == -1))
        for rho in rhos
        if any(rho)
    ]
    for j, unit in enumerate(identity_matrix(dim)[u:]):
        tight.append((unit, frozenset(k for k, lift in enumerate(lifts) if not lift[u + j])))
    facet_sets = target.facet_vertex_sets()

    def generators(members):
        cover = {k for k, fset in enumerate(facet_sets) if members <= fset}
        return [g for g, at in tight if cover <= at]

    for fset in facet_sets:
        gens = generators(fset)
        key = frozenset(gens)
        rays = preimages[key] if key in preimages else _pull_back_cone(gens, dim, theta)
        if rays != tuple(sorted(primitive_vector(target.vertices[i]) for i in fset)):
            return False
    columns = transpose(theta)
    return all(
        _in_cone(generators({i}), mat_vec(columns, v))
        for i, v in enumerate(target.vertices)
    )


def _pull_back_cone(generators, dim, theta):
    """The rays of the preimage along theta of the cone the generators span.

    One dd_cone pass over the generators gives the cone's H-description;
    its normals pulled back along the rows of theta describe the preimage,
    and one more pass in the target's dimension gives its rays.  Returns
    None when the preimage has lineality.
    """
    normals, eq_normals = dd_cone(generators, dim=dim)
    rays, lineality = dd_cone(
        [mat_vec(theta, a) for a in normals],
        [mat_vec(theta, e) for e in eq_normals],
        dim=len(theta),
    )
    return None if lineality else rays


def _in_cone(gens, point):
    """Whether point lies in the cone spanned by the integer vectors gens.

    One elimination of [gens | point]: a pivot in the last column means
    point is outside their span, and when every generator column is a
    pivot the unique coefficients decide.  Dependent generators take one
    conversion for the cone's H-description and a sign test.
    """
    m = len(gens)
    M, pivots, _, piv = _row_reduce(transpose(list(gens) + [point]))
    if m in pivots:
        return False
    if len(pivots) == m:
        return all(M[i][m] * piv >= 0 for i in range(m))
    return Cone.from_rays(gens, dim=len(point)).contains(point)


def ci_data(scaf):
    """Complete-intersection data for a scaffolding on a product shape.

    Returns the factor functionals on the ambient lattice, the degree of
    each strut row on each factor, and whether the kernel of the
    functionals is exactly the embedded lattice.
    """
    factor_ray_idx = [idx for _, idx in product_structure(scaf.shape)]
    basis, _, theta = _ambient_lattice(scaf)
    u = scaf.u
    nrays = len(scaf.shape.rays)
    dim = u + nrays
    functionals = tuple(
        tuple(1 if p - u in idx and p >= u else 0 for p in range(dim))
        for idx in factor_ray_idx
    )
    row_struts = [i for i in range(len(scaf.struts)) if i not in basis]
    degrees = tuple(
        tuple(
            sum(scaf.struts[i].coeffs[j] for j in idx) for i in row_struts
        )
        for idx in factor_ray_idx
    )
    kernel = kernel_basis([list(f) for f in functionals], ncols=dim)
    lattice_ok = row_space_equal(
        [list(k) for k in kernel], [list(t) for t in theta]
    )
    return {
        "functionals": functionals,
        "degrees": degrees,
        "degrees_nonnegative": all(x >= 0 for row in degrees for x in row),
        "lattice_ok": lattice_ok,
    }


def anticanonical_scaffolding(polytope):
    """The single-strut scaffolding of a reflexive polytope.

    The shape's rays are all boundary lattice points of the dual.  The
    lattice points of each dual facet, flattened by dropping the coordinate
    its normal weighs most, are cut into cells by placing_triangulation,
    and each cell spans one cone.  The unique strut is the sum of all toric
    boundary divisors.
    """
    if polytope.dim not in (2, 3):
        raise DomainError(
            "unsupported_dimension", "only dimensions 2 and 3 are covered"
        )
    if not polytope.is_reflexive():
        raise DomainError("not_reflexive", "the target must be reflexive")
    dual = polytope.dual()
    origin = (0,) * polytope.dim
    boundary = [q for q in dual.integral_points() if q != origin]
    cones = []
    for a, rhs in dual.inequalities:
        on_facet = [i for i, q in enumerate(boundary) if dot(a, q) == rhs]
        drop = max(range(polytope.dim), key=lambda k: abs(a[k]))
        flat = [boundary[i][:drop] + boundary[i][drop + 1:] for i in on_facet]
        cones += [[on_facet[j] for j in cell] for cell in placing_triangulation(flat)]
    fan = Fan(polytope.dim, boundary, cones)
    strut = Strut((1,) * len(fan.rays), ())
    return Scaffolding(fan, 0, [strut], polytope)
