"""The four benchmark workloads: seeded inputs, ops and exact output checks.

Each workload is a fixed list of ops, one pass of which is a "cycle".  The
seed decides the inputs (and for ``cli-fixtures`` only the command order);
the library sees nothing but those inputs.  Every op returns its outputs and
a check compares them exactly with references captured by ``capture.py``
into ``data/reference.json``.

Library calls go through module attributes (``laurent.classical_period``),
never through names imported into this file, so that a traced run sees
every call the workload makes.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from fanoscaffold import (
    cli,
    fixtures,
    forward,
    inversion,
    laurent,
    polyhedra,
    scaffolding,
    toric,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "data", "reference.json")


# period-depth: the depth each corpus Laurent model's periods run to.  Every
# cycle runs every valid mutation of every model (listed in the reference
# data); the seed picks the unimodular substitutions and the op order.
# Letting the seed pick the mutations instead made a cycle's cost depend on
# the seed by up to a quarter, since mutations change the term count.
PERIOD_DEPTHS = {
    "circulant-three": 16,
    "circulant-two": 18,
    "cubic-surface": 20,
    "dp6-squares": 20,
    "dp6-triangles": 20,
    "projective-bundle": 14,
    "rank-three-threefold": 12,
    "shifted-fourfold": 12,
}

# quotient-roundtrip: every corpus fixture with GIT data and a convex
# partition, and how many seeded lattice changes of each one a cycle runs.
# Nine fixtures of three variants put the median op in the middle of one
# fixture's group of three rather than between two groups.
QUOTIENT_FIXTURES = (
    "amenable-quadrics",
    "circulant-three",
    "circulant-two",
    "cubic-surface",
    "dp6-squares",
    "dp6-triangles",
    "projective-bundle",
    "rank-three-threefold",
    "shifted-fourfold",
)
QUOTIENT_VARIANTS = 3

# polytope-geometry, per op kind: (dimension, ops per cycle, half-width of
# the box random points come from, random points per polytope).  Each
# polytope also gets a simplex around the origin.  Cycles are long and the
# point counts fixed so that a cycle's cost barely depends on the seed.
HULL_OPS = ((3, 60, 2, 5), (4, 36, 2, 5), (5, 18, 1, 6))
# At most 12 points, within the 12-vertex cap of lattice_isomorphic.
ISO_OPS = ((2, 12, 2, 6), (3, 12, 2, 3))
# Broken covers per corpus scaffolding.
COVERS_PER_SCAFFOLDING = 2

# cli-fixtures: every subcommand that accepts --fixtures, then the five
# that only read files.  "{name}" is replaced by the path of an input file
# written at set-up.
CLI_FIXTURE_COMMANDS = tuple(
    [name, "--fixtures"]
    for name in (
        "newton",
        "forward",
        "invert",
        "scaffold-validate",
        "scaffold-dual-check",
        "embed-check",
        "ci-data",
        "secondary-fan",
        "fano-nef-partition",
        "p-s",
        "amenable-validate",
        "amenable-tower",
        "amenable-binomials",
        "anticanonical",
        "mutability",
    )
) + (["period", "--fixtures", "--max-degree", "8"],)
CLI_FILE_COMMANDS = (
    ["mutate-polytope", "--polytope", "{hexagon}", "--mutation", "{mutation}"],
    ["mutate-laurent", "--f", "{laurent}", "--mutation", "{mutation}"],
    ["mutate-scaffolding", "--scaffolding", "{scaffolding}", "--mutation", "{mutation}"],
    ["nef-partition", "--polytope", "{square}", "--parts", "[[0,1],[2,3]]"],
    ["cayley", "--polytopes", "{squares}"],
)
CLI_COMMANDS = CLI_FIXTURE_COMMANDS + CLI_FILE_COMMANDS


class Op:
    """One unit of timed work: run() returns outputs that check() judges."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Workload:
    """The ops of one cycle and the digest of their generated inputs."""

    def __init__(self, ops, inputs):
        self.ops = ops
        self.digest = hashlib.sha256(repr(inputs).encode("ascii")).hexdigest()


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="ascii") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Plain forms: library objects as JSON-ready values, compared exactly.
# ---------------------------------------------------------------------------


def plain_number(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else str(x)


def plain_laurent(f):
    return [[list(e), c] for e, c in sorted(f.terms.items())]


def plain_fan(fan):
    return {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def plain_polytope(p):
    return [[plain_number(c) for c in v] for v in p.vertices]


def plain_scaffolding(scaf):
    return {
        "shape": plain_fan(scaf.shape),
        "u": scaf.u,
        "struts": [[list(s.coeffs), list(s.chi)] for s in scaf.struts],
        "target": plain_polytope(scaf.target),
    }


def plain_chambers(chambers, inverse=None):
    """Chamber rays, optionally pulled back by an integer matrix, sorted."""
    out = []
    for cone in chambers:
        rays = cone.rays if inverse is None else [mat_vec(inverse, r) for r in cone.rays]
        out.append(sorted(list(r) for r in rays))
    return sorted(out)


# ---------------------------------------------------------------------------
# Seeded integer linear algebra, kept out of the library under test.
# ---------------------------------------------------------------------------


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def transpose(m):
    return tuple(zip(*m))


def random_unimodular(n, rng, steps=8):
    """A random integer matrix of determinant +-1 and its inverse.

    Built from row shears, swaps and sign flips; the inverse applies the
    inverse moves in reverse order, so it is exact without any solving.
    """
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            # Row op on u is left multiplication by E; the inverse gets
            # E^-1 on the right, which is a column op.
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
            for row in inv:
                row[j] -= c * row[i]
        elif kind == 1 and i != j:
            u[i], u[j] = u[j], u[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        elif kind == 2:
            u[i] = [-a for a in u[i]]
            for row in inv:
                row[i] = -row[i]
    return tuple(map(tuple, u)), tuple(map(tuple, inv))


# ---------------------------------------------------------------------------
# period-depth
# ---------------------------------------------------------------------------


def _period_ops(seed, ref):
    rng = random.Random("period-depth/%d" % seed)
    ops, inputs = [], []
    for name, depth in sorted(PERIOD_DEPTHS.items()):
        f = fixtures.fixture(name)["laurent"]
        expected = tuple(ref["periods"][name][: depth + 1])
        for w, v in ref["mutations"][name]:
            u, uinv = random_unimodular(f.nvars, rng)
            # Pull the mutation through the substitution e -> U e: the
            # weight becomes U^-T w and the factor exponent U v.
            w2 = mat_vec(transpose(uinv), w)
            v2 = mat_vec(u, v)
            inputs.append((name, depth, u, w2, v2))
            ops.append(_period_op(f, depth, u, w2, v2, expected))
    return _shuffled(rng, ops, inputs)


def _shuffled(rng, ops, inputs):
    order = list(range(len(ops)))
    rng.shuffle(order)
    return [ops[i] for i in order], [inputs[i] for i in order]


def _period_op(f, depth, u, w, v, expected):
    n = f.nvars
    factor = laurent.LaurentPolynomial(n, {(0,) * n: 1, v: 1})

    def run():
        g = laurent.monomial_substitution(f, u)
        h = laurent.algebraic_mutation(g, w, factor)
        return laurent.classical_period(h, depth)

    def check(coeffs):
        return coeffs == expected

    return Op("period d=%d" % depth, run, check)


# ---------------------------------------------------------------------------
# quotient-roundtrip
# ---------------------------------------------------------------------------


def _quotient_ops(seed, ref):
    rng = random.Random("quotient-roundtrip/%d" % seed)
    ops, inputs = [], []
    for name in QUOTIENT_FIXTURES:
        fx = fixtures.fixture(name)
        git, part = fx["git"], fx["partition"]
        for _ in range(QUOTIENT_VARIANTS):
            u, uinv = random_unimodular(git.r, rng)
            chars = tuple(mat_vec(u, d) for d in git.characters)
            omega = mat_vec(u, git.omega)
            inputs.append((name, chars, tuple(map(plain_number, omega))))
            ops.append(_quotient_op(name, git, part, chars, omega, uinv, ref["quotient"][name]))
    return ops, inputs


def _quotient_op(name, git, part, chars, omega, uinv, expected):
    def run():
        g = toric.GitData(git.r, git.R, chars, omega)
        sfan = toric.git_to_stacky_fan(g)
        model = forward.przyjalkowski(g, part)
        scaf = scaffolding.scaffolding_from_forward(g, part)
        inv = inversion.laurent_inversion(scaf)
        embedded, _ = inversion.verify_embedding(scaf)
        chambers = toric.secondary_fan(g)
        inside = toric.in_chamber_interior(g, g.omega)
        return sfan, model, scaf, inv.matrix, embedded, chambers, inside

    def check(out):
        sfan, model, scaf, matrix, embedded, chambers, inside = out
        return (
            plain_fan(sfan) == expected["stacky_fan"]
            and plain_laurent(model) == expected["laurent"]
            and plain_scaffolding(scaf) == expected["scaffolding"]
            and [list(row) for row in matrix] == expected["matrix"]
            and embedded is True
            and plain_chambers(chambers, uinv) == expected["chambers"]
            and inside is expected["in_chamber"]
        )

    return Op("roundtrip " + name, run, check)


# ---------------------------------------------------------------------------
# polytope-geometry
# ---------------------------------------------------------------------------


def _random_points(rng, dim, extra, box):
    """A simplex around the origin plus `extra` random lattice points."""
    pts = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    pts.append((-1,) * dim)
    pts += [tuple(rng.randint(-box, box) for _ in range(dim)) for _ in range(extra)]
    return tuple(pts)


def _hull_op(points):
    def run():
        p = polyhedra.Polytope.from_points(points)
        back = p.dual().dual()
        lattice = p.integral_points()
        return p, back, lattice, polyhedra.normal_fan(p), polyhedra.spanning_fan(p)

    def check(out):
        p, back, lattice, nfan, sfan = out
        vertices = {tuple(int(c) for c in v) for v in p.vertices}
        facets = len(p.inequalities)
        return (
            back == p
            and vertices <= set(lattice)
            and (0,) * p.dim in lattice
            and len(nfan.rays) == facets
            and len(sfan.max_cones) == facets
        )

    return Op("hull dim %d" % len(points[0]), run, check)


def _iso_op(points, u):
    image = tuple(mat_vec(u, p) for p in points)

    def run():
        p = polyhedra.Polytope.from_points(points)
        q = polyhedra.Polytope.from_points(image)
        return p, q, polyhedra.lattice_isomorphic(p, q)

    def check(out):
        p, q, m = out
        if m is None:
            return False
        moved = {mat_vec(m, tuple(int(c) for c in v)) for v in p.vertices}
        return moved == {tuple(int(c) for c in v) for v in q.vertices}

    return Op("isomorphism dim %d" % len(points[0]), run, check)


def _broken_cover(rng, base):
    """A perturbed corpus scaffolding, as in the acceptance suite."""
    struts = list(base.struts)
    target = base.target
    kind = rng.randrange(3)
    if kind == 0:
        i = rng.randrange(len(struts))
        coeffs = list(struts[i].coeffs)
        j = rng.randrange(len(coeffs))
        coeffs[j] += rng.choice((-2, -1, 1, 2))
        struts[i] = scaffolding.Strut(tuple(coeffs), struts[i].chi)
        change = ("strut", i, j, coeffs[j])
    elif kind == 1 and len(struts) > 1:
        i = rng.randrange(len(struts))
        del struts[i]
        change = ("drop", i)
    else:
        target = target.dilate(2)
        change = ("dilate", 2)
    return scaffolding.Scaffolding(base.shape, base.u, struts, target), change


def _cover_op(scaf):
    def run():
        return (
            scaffolding.validate_scaffolding(scaf)[0],
            scaffolding.dual_cone_check(scaf),
        )

    def check(out):
        return out[0] == out[1]

    return Op("cover check", run, check)


def _polytope_ops(seed, ref):
    rng = random.Random("polytope-geometry/%d" % seed)
    ops, inputs = [], []
    for dim, count, box, extra in HULL_OPS:
        for _ in range(count):
            points = _random_points(rng, dim, extra, box)
            inputs.append(("hull", points))
            ops.append(_hull_op(points))
    for dim, count, box, extra in ISO_OPS:
        for _ in range(count):
            points = _random_points(rng, dim, extra, box)
            u, _ = random_unimodular(dim, rng)
            inputs.append(("iso", points, u))
            ops.append(_iso_op(points, u))
    for name in fixtures.fixture_names():
        fx = fixtures.fixture(name)
        if "scaffolding" not in fx:
            continue
        for _ in range(COVERS_PER_SCAFFOLDING):
            scaf, change = _broken_cover(rng, fx["scaffolding"])
            inputs.append(("cover", name, change))
            ops.append(_cover_op(scaf))
    return _shuffled(rng, ops, inputs)


# ---------------------------------------------------------------------------
# cli-fixtures
# ---------------------------------------------------------------------------


def write_cli_inputs(ref, workdir):
    """Write the file-only subcommands' inputs; returns name -> path."""
    paths = {}
    for name, obj in sorted(ref["cli"]["inputs"].items()):
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(json.dumps(obj, sort_keys=True))
        paths[name] = path
    return paths


def run_cli(argv):
    """cli.run in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def cli_argv(template, paths):
    return [arg.format(**paths) if arg.startswith("{") else arg for arg in template]


def _cli_ops(seed, ref, workdir):
    rng = random.Random("cli-fixtures/%d" % seed)
    paths = write_cli_inputs(ref, workdir)
    expected = {tuple(e["argv"]): e for e in ref["cli"]["commands"]}
    order = list(CLI_COMMANDS)
    rng.shuffle(order)
    ops = []
    for template in order:
        want = expected[tuple(template)]
        ops.append(_cli_op(cli_argv(template, paths), want["exit"], want["stdout"]))
    inputs = (order, sorted(ref["cli"]["inputs"].items()))
    return ops, inputs


def _cli_op(argv, want_code, want_stdout):
    def run():
        return run_cli(argv)

    def check(out):
        return out == (want_code, want_stdout)

    return Op(argv[0], run, check)


# ---------------------------------------------------------------------------


def build(name, seed, workdir):
    """Generate the inputs of one workload and return its Workload."""
    ref = load_reference()
    if name == "period-depth":
        ops, inputs = _period_ops(seed, ref)
    elif name == "quotient-roundtrip":
        ops, inputs = _quotient_ops(seed, ref)
    elif name == "polytope-geometry":
        ops, inputs = _polytope_ops(seed, ref)
    elif name == "cli-fixtures":
        ops, inputs = _cli_ops(seed, ref, workdir)
    else:
        raise ValueError("unknown workload %r" % (name,))
    return Workload(ops, inputs)
