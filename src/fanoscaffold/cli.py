"""Command-line interface producing deterministic JSON reports.

Every subcommand reads JSON files or inline JSON lists (or, with --fixtures
and no input flag, each bundled fixture), runs one library operation, and
prints a single JSON line with sorted keys, so identical inputs give
byte-identical output.
Domain failures exit with code 1 and an {"error": {"kind", "detail"}}
object; malformed input or usage exits with code 2.
"""

import argparse
import functools
import json
import sys

from . import jsonio
from .amenable import amenable_binomials, tower_from_amenable, validate_amenable
from .errors import DomainError
from .exact import vsub
from .fixtures import fixture, fixture_names
from .forward import przyjalkowski
from .inversion import anticanonical_scaffolding, ci_data, laurent_inversion, verify_embedding
from .laurent import LaurentPolynomial, algebraic_mutation, classical_period
from .mutations import mutate_polytope, mutate_scaffolding, strut_mutability
from .nefpart import (
    cayley,
    check_fano_nef_partition,
    check_nef_partition,
    fano_nef_partition_from_inversion,
    p_s_polytope,
)
from .scaffolding import (
    dual_cone_check,
    require_valid_scaffolding,
    validate_scaffolding,
)
from .toric import secondary_fan

# input kind -> (flag, decoder); a file flag names a JSON file, and an
# inline flag (parts, vectors, weights) carries its JSON list itself.
_INPUTS = {
    "laurent": ("--f", jsonio.decode_laurent),
    "git": ("--git", jsonio.decode_git),
    "partition": ("--partition", jsonio.decode_partition),
    "scaffolding": ("--scaffolding", jsonio.decode_scaffolding),
    "polytope": ("--polytope", jsonio.decode_polytope),
    "mutation": ("--mutation", jsonio.decode_mutation),
    "polytopes": ("--polytopes", jsonio.decode_polytopes),
    "parts": ("--parts", jsonio.decode_int_rows),
    "vectors": ("--vectors", jsonio.decode_int_rows),
    "weights": ("--weights", jsonio.decode_int_rows),
}


def _parse_omega(text):
    try:
        return tuple(jsonio._decode_number(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError("bad stability vector %r" % (text,))


def _indicator_polynomial(polytope):
    """The sum of one monomial per lattice point of the polytope."""
    points = polytope.integral_points()
    return LaurentPolynomial(polytope.dim, {p: 1 for p in points})


def _tikz_cycle(polytope):
    """Vertices of a polygon as a plot-ready boundary cycle.

    The cycle walks the edges counterclockwise, from the first vertex at or
    after angle 0 around the centroid.  An edge with inner normal a runs
    counterclockwise from p to q when cross(q - p, a) > 0.
    """
    if polytope.dim != 2 or not polytope.is_full_dimensional():
        raise DomainError(
            "dimension_mismatch", "tikz output needs a full-dimensional polygon"
        )
    vertices = polytope.vertices
    n = len(vertices)
    sx = sum(v[0] for v in vertices)
    sy = sum(v[1] for v in vertices)

    def upper(i):
        # At angle in [0, pi) around the centroid (sx, sy) / n.
        x, y = n * vertices[i][0] - sx, n * vertices[i][1] - sy
        return y > 0 or (y == 0 and x > 0)

    succ = {}
    for (a, _), edge in zip(polytope.inequalities, polytope.facet_vertex_sets()):
        p, q = edge
        dx, dy = vsub(vertices[q], vertices[p])
        if dx * a[1] - dy * a[0] < 0:
            p, q = q, p
        succ[p] = q
    order = [next(q for p, q in succ.items() if upper(q) and not upper(p))]
    while len(order) < n:
        order.append(succ[order[-1]])
    # Each coordinate is an int or a non-integral Fraction (the Polytope
    # invariant), so %s prints it as "3" or "1/2", the JSON layer's format.
    corners = " -- ".join("(%s,%s)" % vertices[i] for i in order)
    return corners + " -- cycle"


# ---------------------------------------------------------------------------
# subcommand handlers: (parsed args, input dict) -> JSON object or tikz text
# ---------------------------------------------------------------------------

def _cmd_period(args, data):
    return {"coeffs": classical_period(data["laurent"], args.max_degree)}


def _cmd_newton(args, data):
    polytope = data["laurent"].newton_polytope()
    if args.emit_tikz:
        return _tikz_cycle(polytope)
    return jsonio.encode_polytope(polytope)


def _cmd_forward(args, data):
    f = przyjalkowski(data["git"], data["partition"])
    if args.drop_constant:
        zero = (0,) * f.nvars
        f = LaurentPolynomial(f.nvars, {e: c for e, c in f.terms.items() if e != zero})
    return jsonio.encode_laurent(f)


def _cmd_invert(args, data):
    omega = None if args.omega is None else _parse_omega(args.omega)
    inv = laurent_inversion(data["scaffolding"], omega)
    return {
        "matrix": inv.matrix,
        "git": jsonio.encode_git(inv.git),
        "theta": inv.theta,
        "recovered": (
            jsonio.encode_partition(inv.recovered) if inv.recovered else None
        ),
    }


def _cmd_scaffold_validate(args, data):
    ok, report = validate_scaffolding(data["scaffolding"])
    return dict(report, ok=ok)


def _cmd_dual_check(args, data):
    return {"ok": dual_cone_check(data["scaffolding"])}


def _cmd_embed_check(args, data):
    ok, report = verify_embedding(data["scaffolding"])
    return dict(report, ok=ok)


def _cmd_ci_data(args, data):
    require_valid_scaffolding(data["scaffolding"])
    return ci_data(data["scaffolding"])


def _cmd_secondary_fan(args, data):
    chambers = secondary_fan(data["git"])
    return {"chambers": [jsonio.encode_cone(c) for c in chambers]}


def _cmd_mutate_polytope(args, data):
    w, factor = data["mutation"]
    out = mutate_polytope(data["polytope"], w, factor)
    if args.emit_tikz:
        return _tikz_cycle(out)
    return jsonio.encode_polytope(out)


def _cmd_mutate_laurent(args, data):
    w, factor = data["mutation"]
    out = algebraic_mutation(data["laurent"], w, _indicator_polynomial(factor))
    return jsonio.encode_laurent(out)


def _cmd_mutate_scaffolding(args, data):
    w, factor = data["mutation"]
    out = mutate_scaffolding(data["scaffolding"], w, factor)
    return jsonio.encode_scaffolding(out)


def _cmd_nef_partition(args, data):
    report = check_nef_partition(data["polytope"], data["parts"])
    return dict(report, nablas=[jsonio.encode_polytope(p) for p in report["nablas"]])


def _cmd_fano_nef_partition(args, data):
    inv = laurent_inversion(data["scaffolding"])
    partition = fano_nef_partition_from_inversion(inv)
    report = check_fano_nef_partition(partition)
    return dict(report, e_parts=partition.e_parts, f_part=partition.f_part)


def _cmd_cayley(args, data):
    polytope, cone = cayley(data["polytopes"])
    return {"polytope": jsonio.encode_polytope(polytope), "cone": jsonio.encode_cone(cone)}


def _cmd_p_s(args, data):
    require_valid_scaffolding(data["scaffolding"])
    out = p_s_polytope(data["scaffolding"])
    if args.emit_tikz:
        return _tikz_cycle(out)
    return jsonio.encode_polytope(out)


def _cmd_amenable_validate(args, data):
    ok, report = validate_amenable(data["git"], data["partition"], data["vectors"])
    return dict(report, ok=ok)


def _cmd_amenable_tower(args, data):
    tower = tower_from_amenable(data["git"], data["partition"], data["vectors"])
    return jsonio.encode_fan(tower)


def _cmd_amenable_binomials(args, data):
    pairs = amenable_binomials(data["git"], data["partition"], data["vectors"])
    return {"binomials": [{"plus": p, "minus": m} for p, m in pairs]}


def _cmd_anticanonical(args, data):
    return jsonio.encode_scaffolding(anticanonical_scaffolding(data["polytope"]))


def _cmd_mutability(args, data):
    ok, table = strut_mutability(data["scaffolding"], data["weights"])
    return {"ok": ok, "struts": table}


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fanoscaffold",
        description="Exact tools for scaffolded Fano polytopes and their mirrors.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_text, files=(), inline=(), fixtures=True,
            tikz=False, extra=None):
        sub = subs.add_parser(name, help=help_text)
        for key in files:
            sub.add_argument(_INPUTS[key][0], dest=key, metavar="FILE",
                             help="path to %s JSON" % key)
        for key in inline:
            sub.add_argument(_INPUTS[key][0], dest=key, metavar="JSON",
                             help="inline JSON list of integer vectors")
        if fixtures:
            sub.add_argument("--fixtures", action="store_true",
                             help="run over the bundled example corpus instead")
        if tikz:
            sub.add_argument("--emit-tikz", action="store_true", dest="emit_tikz",
                             help="print a 2D polygon as a boundary cycle")
        if extra is not None:
            extra(sub)
        sub.set_defaults(handler=handler, files=files, inline=inline)

    add("period", _cmd_period, "classical period coefficients",
        files=("laurent",),
        extra=lambda s: s.add_argument("--max-degree", type=int, required=True,
                                       metavar="D", help="last coefficient degree"))
    add("newton", _cmd_newton, "Newton polytope of a Laurent polynomial",
        files=("laurent",), tikz=True)
    add("forward", _cmd_forward, "Laurent model of quotient data with a partition",
        files=("git", "partition"),
        extra=lambda s: s.add_argument("--drop-constant", action="store_true",
                                       dest="drop_constant",
                                       help="remove the constant term"))
    add("invert", _cmd_invert, "weight matrix and quotient data of a scaffolding",
        files=("scaffolding",),
        extra=lambda s: s.add_argument("--omega", metavar="VEC",
                                       help="override stability, e.g. 3,2"))
    add("scaffold-validate", _cmd_scaffold_validate, "check the covering conditions",
        files=("scaffolding",))
    add("scaffold-dual-check", _cmd_dual_check, "dual-cone form of the covering check",
        files=("scaffolding",))
    add("embed-check", _cmd_embed_check, "verify the induced toric embedding",
        files=("scaffolding",))
    add("ci-data", _cmd_ci_data, "complete-intersection degrees of the embedding",
        files=("scaffolding",))
    add("secondary-fan", _cmd_secondary_fan, "maximal chambers of the character cone",
        files=("git",))
    add("mutate-polytope", _cmd_mutate_polytope, "mutate a polytope by weight and factor",
        files=("polytope", "mutation"), fixtures=False, tikz=True)
    add("mutate-laurent", _cmd_mutate_laurent, "mutate a Laurent polynomial",
        files=("laurent", "mutation"), fixtures=False)
    add("mutate-scaffolding", _cmd_mutate_scaffolding, "transport a scaffolding",
        files=("scaffolding", "mutation"), fixtures=False)
    add("nef-partition", _cmd_nef_partition, "check a nef partition of a polytope",
        files=("polytope",), inline=("parts",), fixtures=False)
    add("fano-nef-partition", _cmd_fano_nef_partition,
        "nef partition with ample residual induced by a scaffolding",
        files=("scaffolding",))
    add("cayley", _cmd_cayley, "Cayley polytope and cone of a list of polytopes",
        files=("polytopes",), fixtures=False)
    add("p-s", _cmd_p_s, "polytope spanning the ambient fan of a scaffolding",
        files=("scaffolding",), tikz=True)
    add("amenable-validate", _cmd_amenable_validate,
        "check the sign conditions of a dual-vector collection",
        files=("git", "partition"), inline=("vectors",))
    add("amenable-tower", _cmd_amenable_tower,
        "bundle tower fan carried by a dual-vector collection",
        files=("git", "partition"), inline=("vectors",))
    add("amenable-binomials", _cmd_amenable_binomials,
        "binomial equations cut out by a dual-vector collection",
        files=("git", "partition"), inline=("vectors",))
    add("anticanonical", _cmd_anticanonical,
        "boundary scaffolding of a reflexive polytope",
        files=("polytope",))
    add("mutability", _cmd_mutability, "check strut transport along weight vectors",
        files=("scaffolding",), inline=("weights",))
    return parser


def _load_inputs(args):
    data = {}
    for key in args.files + args.inline:
        flag, decode = _INPUTS[key]
        value = getattr(args, key)
        if value is None:
            raise ValueError("missing required %s" % (flag,))
        try:
            data[key] = decode(
                jsonio.read_json(value) if key in args.files else json.loads(value)
            )
        except ValueError as exc:
            raise ValueError("bad %s: %s" % (flag, exc))
    return data


def _dispatch(args):
    if getattr(args, "fixtures", False):
        given = [_INPUTS[key][0] for key in args.files + args.inline
                 if getattr(args, key) is not None]
        if getattr(args, "emit_tikz", False):
            given.append("--emit-tikz")
        if given:
            raise ValueError(" ".join(given) + " cannot be combined with --fixtures")
        results = {}
        for name in fixture_names():
            fx = fixture(name)
            if not all(key in fx for key in args.files + args.inline):
                continue
            try:
                results[name] = args.handler(args, fx)
            except DomainError as exc:
                results[name] = {"error": {"kind": exc.kind, "detail": exc.detail}}
        return {"fixtures": results}
    return args.handler(args, _load_inputs(args))


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        out = _dispatch(args)
    except DomainError as exc:
        print(jsonio.dumps({"error": {"kind": exc.kind, "detail": exc.detail}}))
        return 1
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if isinstance(out, str):
        print(out)
    else:
        print(jsonio.dumps(out))
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
