"""End-to-end checks of the command-line front end."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanoscaffold import jsonio
from fanoscaffold.cli import _INPUTS, _tikz_cycle, run
from fanoscaffold.fixtures import fixture
from fanoscaffold.laurent import LaurentPolynomial, algebraic_mutation
from fanoscaffold.mutations import segment_factor
from fanoscaffold.polyhedra import Polytope
from fanoscaffold.scaffolding import Scaffolding

from helpers import angular_order


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Every subcommand that accepts --fixtures.  tests/golden/ holds the stdout
# of each sweep (<subcommand>.out) and the exit codes (exit_codes.json);
# `PYTHONPATH=src python tests/test_cli.py` rewrites them, which is only
# right for an intended change of CLI output.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SWEEPS = tuple(
    (name, "--fixtures")
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
) + (("period", "--fixtures", "--max-degree", "8"),)


def sweep(argv):
    """cli.run in-process: (exit code, stdout as UTF-8 bytes)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue().encode("utf-8")


# The subcommands without --fixtures, on inputs built from the corpus;
# "{name}" stands for the path of file_inputs()[name] written as JSON.
# Each exits 0, and tests/golden/<subcommand>.out holds its stdout.
GOLDEN_FILE_COMMANDS = (
    ("mutate-polytope", "--polytope", "{hexagon}", "--mutation", "{mutation}"),
    ("mutate-laurent", "--f", "{laurent}", "--mutation", "{mutation}"),
    ("mutate-scaffolding", "--scaffolding", "{scaffolding}", "--mutation", "{mutation}"),
    ("nef-partition", "--polytope", "{square}", "--parts", "[[0,1],[2,3]]"),
    ("cayley", "--polytopes", "{squares}"),
)


def file_inputs():
    fx = fixture("dp6-squares")
    quadrics = fixture("amenable-quadrics")
    square = jsonio.encode_polytope(
        Polytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    return {
        "hexagon": jsonio.encode_polytope(fx["scaffolding"].target),
        "mutation": {"w": [1, 0], "factor": jsonio.encode_polytope(segment_factor((1, 0)))},
        "laurent": jsonio.encode_laurent(fx["laurent"]),
        "scaffolding": jsonio.encode_scaffolding(fx["scaffolding"]),
        "square": square,
        "squares": [square, square],
        "git": jsonio.encode_git(quadrics["git"]),
        "partition": jsonio.encode_partition(quadrics["partition"]),
    }


def file_command(template, directory, inputs=None):
    """template as an argv, with the inputs it names written to directory.

    inputs defaults to file_inputs().
    """
    paths = {}
    for name, obj in (inputs or file_inputs()).items():
        if "{%s}" % name in template:
            paths[name] = directory / (name + ".json")
            paths[name].write_text(json.dumps(obj))
    return [arg.format(**paths) for arg in template]


def capture_golden(directory):
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for argv in GOLDEN_SWEEPS:
        codes[argv[0]], out = sweep(argv)
        (GOLDEN / (argv[0] + ".out")).write_bytes(out)
    codes_json = json.dumps(codes, indent=1, sort_keys=True) + "\n"
    (GOLDEN / "exit_codes.json").write_text(codes_json)
    for template in GOLDEN_FILE_COMMANDS:
        code, out = sweep(file_command(template, directory))
        assert code == 0, template[0]
        (GOLDEN / (template[0] + ".out")).write_bytes(out)


@pytest.mark.parametrize("argv", GOLDEN_SWEEPS, ids=lambda argv: argv[0])
def test_fixture_sweep_matches_the_golden_snapshot(argv):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = sweep(argv)
    assert code == codes[argv[0]]
    assert out == (GOLDEN / (argv[0] + ".out")).read_bytes()


@pytest.mark.parametrize("template", GOLDEN_FILE_COMMANDS, ids=lambda argv: argv[0])
def test_file_command_matches_the_golden_snapshot(tmp_path, template):
    code, out = sweep(file_command(template, tmp_path))
    assert code == 0
    assert out == (GOLDEN / (template[0] + ".out")).read_bytes()


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_period_of_a_laurent_file(tmp_path, capsys):
    f = write_json(tmp_path, "f.json", jsonio.encode_laurent(fixture("cubic-surface")["laurent"]))
    code, out, _ = invoke(capsys, "period", "--f", f, "--max-degree", "3")
    assert code == 0
    assert json.loads(out) == {"coeffs": [1, 6, 90, 1680]}


def test_period_of_a_constant_in_no_variables(tmp_path, capsys):
    # A model in no variables, such as przyjalkowski can return, is a
    # constant c with period 1, c, c^2, ...
    f = write_json(tmp_path, "f.json", {"vars": 0, "terms": [{"e": [], "c": 3}]})
    code, out, err = invoke(capsys, "period", "--f", f, "--max-degree", "3")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"coeffs": [1, 3, 9, 27]}


def test_embed_check_of_a_dilated_target(tmp_path, capsys):
    # A failing embedding is a report, not an error: only the face cones
    # fail, and the command exits 0.
    scaf = fixture("cubic-surface")["scaffolding"]
    dilated = Scaffolding(scaf.shape, scaf.u, scaf.struts, scaf.target.dilate(2))
    path = write_json(tmp_path, "dilated.json", jsonio.encode_scaffolding(dilated))
    code, out, _ = invoke(capsys, "embed-check", "--scaffolding", path)
    assert code == 0
    assert out == (
        '{"ambient_rays": true, "face_cones": false, "ok": false, '
        '"restricted_fan": true}\n'
    )


def test_embed_check_of_a_zero_strut(tmp_path, capsys):
    # A strut with all coefficients 0 and an empty shift has the zero ray:
    # only the ambient rays fail, and the command exits 0 with the report.
    obj = jsonio.encode_scaffolding(fixture("cubic-surface")["scaffolding"])
    obj["struts"].append({"chi": [], "coeffs": [0, 0, 0]})
    path = write_json(tmp_path, "zero.json", obj)
    code, out, _ = invoke(capsys, "embed-check", "--scaffolding", path)
    assert code == 0
    assert out == (
        '{"ambient_rays": false, "face_cones": true, "ok": false, '
        '"restricted_fan": true}\n'
    )


def test_period_reports_the_zero_polynomial(tmp_path, capsys):
    f = write_json(tmp_path, "f.json", {"vars": 2, "terms": []})
    code, out, _ = invoke(capsys, "period", "--f", f, "--max-degree", "4")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "zero_polynomial"


def test_period_depth_is_capped(tmp_path, capsys):
    cubic = jsonio.encode_laurent(fixture("cubic-surface")["laurent"])
    f = write_json(tmp_path, "f.json", cubic)
    code, out, err = invoke(capsys, "period", "--f", f,
                            "--max-degree", "100000000000000000000000")
    assert code == 1 and "Traceback" not in err
    assert json.loads(out)["error"]["kind"] == "degree_too_large"


def test_period_work_is_capped(tmp_path, capsys):
    # x_i + 1/x_i over six variables: depth 32 once took 26 s; the step that
    # would form more than 5 * 10^5 term products raises instead.
    terms = [{"e": [s * (k == i) for k in range(6)], "c": 1} for i in range(6)
             for s in (1, -1)]
    f = write_json(tmp_path, "f.json", {"vars": 6, "terms": terms})
    code, out, err = invoke(capsys, "period", "--f", f, "--max-degree", "32")
    assert code == 1 and "Traceback" not in err
    assert json.loads(out)["error"]["kind"] == "period_too_large"


def test_powers_are_capped(tmp_path, capsys):
    # A model bracket and a mutation factor each raised until the power
    # would form more than 2 * 10^5 term products.
    git = write_json(tmp_path, "git.json", {
        "r": 1, "R": 4, "characters": [[1], [1], [1], [100]], "omega": [1]})
    part = write_json(tmp_path, "part.json", {"B": [0], "S": [[1, 2, 3]]})
    f = write_json(tmp_path, "f.json", {
        "vars": 3, "terms": [{"e": [0, 0, 8], "c": 1}, {"e": [1, 0, 0], "c": 1}]})
    square = [[0, 0, 0], [10, 0, 0], [0, 10, 0], [10, 10, 0]]
    mut = write_json(tmp_path, "m.json", {
        "w": [0, 0, 1], "factor": {"dim": 3, "vertices": square}})
    for argv in (
        ("forward", "--git", git, "--partition", part),
        ("mutate-laurent", "--f", f, "--mutation", mut),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and "Traceback" not in err, argv[0]
        assert json.loads(out)["error"]["kind"] == "power_too_large", argv[0]


def test_repeated_exponents_exit_with_two(tmp_path, capsys):
    # The encoder writes each exponent once; a second x must not overwrite
    # the first and leave the period of 2x + 1/x.
    f = write_json(tmp_path, "f.json", {"vars": 1, "terms": [
        {"e": [1], "c": 1}, {"e": [-1], "c": 1}, {"e": [1], "c": 2}]})
    code, out, err = invoke(capsys, "period", "--f", f, "--max-degree", "4")
    assert (code, out) == (2, "") and "[1]" in err


def test_zero_coefficients_exit_with_two(tmp_path, capsys):
    # x + 1/x + 0x^2: a term the encoder never writes.
    f = write_json(tmp_path, "f.json", {"vars": 1, "terms": [
        {"e": [1], "c": 1}, {"e": [-1], "c": 1}, {"e": [2], "c": 0}]})
    code, out, err = invoke(capsys, "period", "--f", f, "--max-degree", "4")
    assert (code, out) == (2, "") and "[2]" in err


def test_mutation_product_is_capped(tmp_path, capsys):
    # The level z^4 has the 961 points of [0, 30]^2 and the factor's 4th
    # power the 1,681 of [0, 40]^2: over 1.6 * 10^6 term products.
    terms = [{"e": [i, j, 4], "c": 1} for i in range(31) for j in range(31)]
    f = write_json(tmp_path, "f.json", {
        "vars": 3, "terms": terms + [{"e": [1, 0, 0], "c": 1}]})
    square = [[0, 0, 0], [10, 0, 0], [0, 10, 0], [10, 10, 0]]
    mut = write_json(tmp_path, "m.json", {
        "w": [0, 0, 1], "factor": {"dim": 3, "vertices": square}})
    code, out, err = invoke(capsys, "mutate-laurent", "--f", f, "--mutation", mut)
    assert code == 1 and "Traceback" not in err
    error = json.loads(out)["error"]
    assert error["kind"] == "power_too_large" and "mutation product" in error["detail"]


def test_usage_errors_exit_with_two(tmp_path, capsys):
    assert invoke(capsys, "no-such-command")[0] == 2
    code, _, err = invoke(capsys, "period", "--f", str(tmp_path / "gone.json"),
                          "--max-degree", "2")
    assert code == 2 and err
    bad = write_json(tmp_path, "bad.json", {"vars": 2})
    assert invoke(capsys, "period", "--f", bad, "--max-degree", "2")[0] == 2
    assert invoke(capsys, "p-s", "--fixtures", "--emit-tikz")[0] == 2


# input kind -> a subcommand taking its flag (with any other argument it
# needs) and a well-formed value, a JSON object for a file flag.  mutation,
# polytopes and parts only belong to subcommands without --fixtures.
FIXTURE_CONFLICTS = {
    "laurent": (("period", "--max-degree", "2"), "laurent"),
    "git": (("forward",), "git"),
    "partition": (("amenable-validate",), "partition"),
    "scaffolding": (("invert",), "scaffolding"),
    "polytope": (("anticanonical",), "square"),
    "mutation": (("mutate-scaffolding",), "mutation"),
    "polytopes": (("cayley",), "squares"),
    "parts": (("nef-partition",), "[[0,1],[2,3]]"),
    "vectors": (("amenable-tower",), "[[-1,-1,0,2],[0,0,-1,-1]]"),
    "weights": (("mutability",), "[[1,0]]"),
}


def test_every_input_kind_has_a_fixture_conflict_case():
    assert set(FIXTURE_CONFLICTS) == set(_INPUTS)


@pytest.mark.parametrize("kind", sorted(FIXTURE_CONFLICTS))
def test_an_input_flag_beside_fixtures_exits_with_two(tmp_path, capsys, kind):
    command, good = FIXTURE_CONFLICTS[kind]
    flag = _INPUTS[kind][0]
    if kind in ("parts", "vectors", "weights"):
        values = (good, "x")
    else:
        values = (write_json(tmp_path, "good.json", file_inputs()[good]),
                  str(tmp_path / "missing.json"))
    if kind in ("mutation", "polytopes", "parts"):
        message = "unrecognized arguments: --fixtures"
    else:
        message = flag + " cannot be combined with --fixtures"
    for value in values:
        code, out, err = invoke(capsys, command[0], "--fixtures", *command[1:], flag, value)
        assert code == 2 and not out
        assert message in err and "Traceback" not in err


# (subcommand, input kind, path to the field that becomes the integer 5)
MALFORMED_FIELDS = (
    ("secondary-fan", "git", ("characters",)),
    ("period", "laurent", ("terms",)),
    ("forward", "partition", ("B",)),
    ("forward", "partition", ("S",)),
    ("forward", "partition", ("U",)),
    ("forward", "partition", ("choices",)),
    ("embed-check", "scaffolding", ("struts",)),
    ("embed-check", "scaffolding", ("shape", "rays")),
    ("embed-check", "scaffolding", ("shape", "max_cones")),
    ("embed-check", "scaffolding", ("target", "vertices")),
    ("cayley", "polytopes", ()),
)


def encoded_inputs():
    fx = fixture("dp6-squares")
    square = jsonio.encode_polytope(Polytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)]))
    return {
        "git": jsonio.encode_git(fx["git"]),
        "laurent": jsonio.encode_laurent(fx["laurent"]),
        "partition": jsonio.encode_partition(fx["partition"]),
        "scaffolding": jsonio.encode_scaffolding(fx["scaffolding"]),
        "polytopes": [square, square],
    }


@pytest.mark.parametrize("command, kind, path", MALFORMED_FIELDS,
                         ids=lambda v: v if isinstance(v, str) else ".".join(v))
def test_a_field_that_is_not_a_list_exits_with_two(tmp_path, capsys, command, kind, path):
    inputs = encoded_inputs()
    if path:
        owner = inputs[kind]
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = 5
    else:
        inputs[kind] = 5
    argv = [command]
    needed = {"forward": ("git", "partition")}.get(command, (kind,))
    for key in needed:
        argv += [_INPUTS[key][0], write_json(tmp_path, key + ".json", inputs[key])]
    if command == "period":
        argv += ["--max-degree", "2"]
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and not out
    assert err and "Traceback" not in err


# flag -> (the subcommand's other arguments, a well-formed value)
INLINE_LISTS = {
    "--parts": (("nef-partition", "--polytope", "{square}"), "[[0,1],[2,3]]"),
    "--vectors": (("amenable-validate", "--git", "{git}", "--partition", "{partition}"),
                  "[[-1,-1,0,2],[0,0,-1,-1]]"),
    "--weights": (("mutability", "--scaffolding", "{scaffolding}"), "[[1,0]]"),
}


@pytest.mark.parametrize("value", ("not json", "5", "[5]", "[[true]]", "[[1.5]]", None))
@pytest.mark.parametrize("flag", sorted(INLINE_LISTS))
def test_a_malformed_inline_list_exits_with_two(tmp_path, capsys, flag, value):
    template, good = INLINE_LISTS[flag]
    argv = file_command(template, tmp_path)
    assert invoke(capsys, *argv, flag, good)[0] == 0
    if value is not None:
        argv += [flag, value]
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and not out
    assert flag[2:] in err and "Traceback" not in err


# One subcommand per file flag use; "{name}" as in GOLDEN_FILE_COMMANDS.
FUZZ_COMMANDS = GOLDEN_FILE_COMMANDS + (
    ("period", "--f", "{laurent}", "--max-degree", "4"),
    ("newton", "--f", "{laurent}"),
    ("forward", "--git", "{git}", "--partition", "{partition}"),
    ("secondary-fan", "--git", "{git}"),
    ("amenable-validate", "--git", "{git}", "--partition", "{partition}",
     "--vectors", "[[-1,-1,0,2],[0,0,-1,-1]]"),
    ("anticanonical", "--polytope", "{square}"),
    ("invert", "--scaffolding", "{scaffolding}"),
    ("scaffold-validate", "--scaffolding", "{scaffolding}"),
    ("embed-check", "--scaffolding", "{scaffolding}"),
    ("ci-data", "--scaffolding", "{scaffolding}"),
    ("fano-nef-partition", "--scaffolding", "{scaffolding}"),
)


def json_paths(obj, prefix=()):
    """The path of obj and of every value nested in it."""
    yield prefix
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from json_paths(value, prefix + (key,))


JSON_VALUES = st.one_of(
    st.integers(-3, 3), st.lists(st.integers(-3, 3), max_size=3), st.text(max_size=3)
)


@st.composite
def perturbed_command(draw):
    """(template, inputs): a FUZZ_COMMANDS template and the file_inputs() it
    names, with one value in one of them replaced, dropped or appended to."""
    template = draw(st.sampled_from(FUZZ_COMMANDS))
    inputs = {n: v for n, v in file_inputs().items() if "{%s}" % n in template}
    name = draw(st.sampled_from(sorted(inputs)))
    holder = [inputs[name]]
    *head, key = (0,) + draw(st.sampled_from(list(json_paths(inputs[name]))))
    owner = holder
    for step in head:
        owner = owner[step]
    action = draw(st.sampled_from(("replace", "drop", "append")))
    if action == "replace":
        owner[key] = draw(JSON_VALUES)
    elif action == "drop":
        del owner[key]
    elif isinstance(owner[key], list):
        owner[key].append(draw(JSON_VALUES))
    elif isinstance(owner[key], dict):
        owner[key][draw(st.text(max_size=3))] = draw(JSON_VALUES)
    else:
        owner[key] = [owner[key], draw(JSON_VALUES)]
    inputs[name] = holder[0] if holder else None
    return template, inputs


@settings(max_examples=150, deadline=None)
@given(perturbed_command())
def test_a_perturbed_input_file_exits_with_zero_one_or_two(case):
    # A decoder or a handler may reject the file (exit 2) or the data (exit
    # 1), but no exception escapes cli.run.
    template, inputs = case
    with tempfile.TemporaryDirectory() as directory:
        argv = file_command(template, Path(directory), inputs)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert run(argv) in (0, 1, 2)


def test_reports_reject_an_invalid_scaffolding(tmp_path, capsys):
    obj = jsonio.encode_scaffolding(fixture("dp6-squares")["scaffolding"])
    obj["target"]["vertices"] = [[2 * x for x in v] for v in obj["target"]["vertices"]]
    scaf = write_json(tmp_path, "s.json", obj)
    for command in ("invert", "ci-data", "p-s"):
        code, out, err = invoke(capsys, command, "--scaffolding", scaf)
        assert code == 1 and "Traceback" not in err
        assert json.loads(out)["error"] == {
            "kind": "invalid_scaffolding", "detail": "strut hull differs from the target"
        }


def test_invert_prints_the_weight_matrix(tmp_path, capsys):
    scaf = write_json(tmp_path, "s.json",
                      jsonio.encode_scaffolding(fixture("dp6-squares")["scaffolding"]))
    code, out, _ = invoke(capsys, "invert", "--scaffolding", scaf)
    assert code == 0
    report = json.loads(out)
    assert report["matrix"] == [[1, 0, 0, 1, 0, 1], [0, 1, 1, 0, 1, 0]]
    assert report["recovered"]["S"] == [[2, 5], [3, 4]]
    again = invoke(capsys, "invert", "--scaffolding", scaf)[1]
    assert again == out


def test_invert_accepts_a_stability_override(tmp_path, capsys):
    scaf = write_json(tmp_path, "s.json",
                      jsonio.encode_scaffolding(fixture("dp6-squares")["scaffolding"]))
    code, out, _ = invoke(capsys, "invert", "--scaffolding", scaf, "--omega", "2,3")
    assert code == 0
    assert json.loads(out)["git"]["omega"] == [2, 3]


@pytest.mark.parametrize("omega", ["1e2000000", "1.5", " 3/4 ", ""])
def test_invert_rejects_a_stability_override_in_another_number_form(tmp_path, capsys, omega):
    scaf = write_json(tmp_path, "s.json",
                      jsonio.encode_scaffolding(fixture("dp6-squares")["scaffolding"]))
    code, out, err = invoke(capsys, "invert", "--scaffolding", scaf, "--omega", omega)
    assert code == 2 and not out and "bad stability vector" in err


def test_newton_emits_a_tikz_cycle(tmp_path, capsys):
    f = write_json(tmp_path, "f.json", jsonio.encode_laurent(fixture("cubic-surface")["laurent"]))
    code, out, _ = invoke(capsys, "newton", "--f", f, "--emit-tikz")
    assert code == 0
    assert out.strip() == "(-1,2) -- (-1,-1) -- (2,-1) -- cycle"


def test_tikz_cycle_around_a_non_integral_centroid(tmp_path, capsys):
    # The centroid of the vertices is (3/4, 3/4); the cycle runs
    # counterclockwise from the first vertex above it.
    kite = LaurentPolynomial(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 2): 1})
    f = write_json(tmp_path, "f.json", jsonio.encode_laurent(kite))
    code, out, _ = invoke(capsys, "newton", "--f", f, "--emit-tikz")
    assert code == 0
    assert out.strip() == "(2,2) -- (0,1) -- (0,0) -- (1,0) -- cycle"


def tikz_cycle_by_angles(polygon):
    """The vertices in the angular order around their centroid."""
    vertices = polygon.vertices
    cx = Fraction(sum(v[0] for v in vertices), len(vertices))
    cy = Fraction(sum(v[1] for v in vertices), len(vertices))
    order = angular_order([(v[0] - cx, v[1] - cy) for v in vertices])
    return " -- ".join("(%s,%s)" % vertices[i] for i in order) + " -- cycle"


# Lattice polygons, and polygons with rational vertices.
POLYGON_POINTS = st.one_of(
    st.lists(st.tuples(c, c), min_size=3, max_size=8)
    for c in (st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3))
)


@settings(max_examples=200, deadline=None)
@given(POLYGON_POINTS)
@example([(-2, 0), (1, -1), (1, 1)])
@example([(2, 0), (-1, 1), (-1, -1)])
def test_tikz_cycle_against_the_angular_order(points):
    # The examples have a vertex level with the centroid (0, 0), on its
    # left and on its right.
    polygon = Polytope.from_points(points)
    assume(polygon.is_full_dimensional())
    assert _tikz_cycle(polygon) == tikz_cycle_by_angles(polygon)


def test_forward_can_drop_the_constant_term(tmp_path, capsys):
    fx = fixture("projective-bundle")
    git = write_json(tmp_path, "git.json", jsonio.encode_git(fx["git"]))
    part = write_json(tmp_path, "part.json", jsonio.encode_partition(fx["partition"]))
    code, out, _ = invoke(capsys, "forward", "--git", git, "--partition", part,
                          "--drop-constant")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert len(terms) == 6
    assert [0, 0, 0] not in [entry["e"] for entry in terms]


def test_scaffold_validate_sweeps_the_corpus(capsys):
    code, out, _ = invoke(capsys, "scaffold-validate", "--fixtures")
    assert code == 0
    results = json.loads(out)["fixtures"]
    assert len(results) >= 10
    assert all(entry["ok"] for entry in results.values())


def test_fano_nef_partition_sweep_embeds_domain_errors(capsys):
    code, out, _ = invoke(capsys, "fano-nef-partition", "--fixtures")
    assert code == 0
    results = json.loads(out)["fixtures"]
    assert results["dp7-anticanonical"]["error"]["kind"] == "unsupported_shape"
    assert results["dp6-squares"]["valid"] is True
    assert results["dp6-squares-mutated"]["error"]["kind"] == "unsupported_shape"


def test_mutate_polytope_and_scaffolding_files(tmp_path, capsys):
    fx = fixture("dp6-squares")
    hexagon = fx["scaffolding"].target
    mutation = {"w": [1, 0],
                "factor": jsonio.encode_polytope(segment_factor((1, 0)))}
    poly = write_json(tmp_path, "p.json", jsonio.encode_polytope(hexagon))
    mut = write_json(tmp_path, "m.json", mutation)
    code, out, _ = invoke(capsys, "mutate-polytope", "--polytope", poly, "--mutation", mut)
    assert code == 0
    moved = jsonio.decode_polytope(json.loads(out))

    scaf = write_json(tmp_path, "s.json", jsonio.encode_scaffolding(fx["scaffolding"]))
    code, out, _ = invoke(capsys, "mutate-scaffolding", "--scaffolding", scaf,
                          "--mutation", mut)
    assert code == 0
    expected = fixture("dp6-squares-mutated")["scaffolding"]
    assert json.loads(out) == jsonio.encode_scaffolding(expected)
    assert jsonio.decode_scaffolding(json.loads(out)).target == moved


def test_mutate_laurent_matches_the_library(tmp_path, capsys):
    fx = fixture("dp6-squares")
    f = write_json(tmp_path, "f.json", jsonio.encode_laurent(fx["laurent"]))
    mutation = {"w": [1, 0],
                "factor": jsonio.encode_polytope(segment_factor((1, 0)))}
    mut = write_json(tmp_path, "m.json", mutation)
    code, out, _ = invoke(capsys, "mutate-laurent", "--f", f, "--mutation", mut)
    assert code == 0
    one = LaurentPolynomial.monomial((0, 0))
    factor = one + LaurentPolynomial.monomial((0, 1))
    expected = algebraic_mutation(fx["laurent"], (1, 0), factor)
    assert jsonio.decode_laurent(json.loads(out)) == expected


def test_lattice_point_box_is_capped(tmp_path, capsys):
    f = write_json(tmp_path, "f.json", jsonio.encode_laurent(fixture("dp6-squares")["laurent"]))
    triangle = {"dim": 2, "vertices": [[0, 0], [0, 100000], [100000, 0]]}
    mut = write_json(tmp_path, "m.json", {"w": [1, 0], "factor": triangle})
    code, out, err = invoke(capsys, "mutate-laurent", "--f", f, "--mutation", mut)
    assert code == 1 and "Traceback" not in err
    error = json.loads(out)["error"]
    assert error["kind"] == "lattice_box_too_large"
    assert "10000200001" in error["detail"] and "1000000" in error["detail"]


def test_mutation_levels_are_capped(tmp_path, capsys):
    # Each level costs a slice or a power of the factor, so without the cap
    # a width of 10^5 along w ran for hours.
    wide = 10**5
    triangle = {"dim": 2, "vertices": [[0, 0], [0, wide], [wide, 0]]}
    plane = {"dim": 2, "rays": [[-1, -1], [0, 1], [1, 0]],
             "max_cones": [[0, 1], [0, 2], [1, 2]]}
    scaf = {"shape": plane, "u": 0, "target": triangle,
            "struts": [{"coeffs": [wide, 0, 0], "chi": []}]}
    polytope = write_json(tmp_path, "p.json", triangle)
    scaf = write_json(tmp_path, "s.json", scaf)
    f = write_json(tmp_path, "f.json", jsonio.encode_laurent(
        LaurentPolynomial(2, {(wide, 0): 1, (0, 1): 1})))
    mut = write_json(tmp_path, "m.json", {
        "w": [1, 0], "factor": jsonio.encode_polytope(segment_factor((1, 0)))})
    for argv in (
        ("mutate-polytope", "--polytope", polytope, "--mutation", mut),
        ("mutate-laurent", "--f", f, "--mutation", mut),
        ("mutate-scaffolding", "--scaffolding", scaf, "--mutation", mut),
        ("mutability", "--scaffolding", scaf, "--weights", "[[1, 0]]"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and "Traceback" not in err, argv[0]
        assert json.loads(out)["error"]["kind"] == "level_too_large", argv[0]


def test_nef_partition_with_inline_parts(tmp_path, capsys):
    square = Polytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    poly = write_json(tmp_path, "p.json", jsonio.encode_polytope(square))
    code, out, _ = invoke(capsys, "nef-partition", "--polytope", poly,
                          "--parts", "[[0,1],[2,3]]")
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert len(report["nablas"]) == 2


def test_cayley_of_two_squares(tmp_path, capsys):
    square = jsonio.encode_polytope(
        Polytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    )
    polys = write_json(tmp_path, "list.json", [square, square])
    code, out, _ = invoke(capsys, "cayley", "--polytopes", polys)
    assert code == 0
    report = json.loads(out)
    assert report["polytope"]["dim"] == 4
    assert len(report["cone"]["rays"]) == 8


def test_secondary_fan_of_the_square_model(tmp_path, capsys):
    git = write_json(tmp_path, "git.json", jsonio.encode_git(fixture("dp6-squares")["git"]))
    code, out, _ = invoke(capsys, "secondary-fan", "--git", git)
    assert code == 0
    assert json.loads(out) == {"chambers": [{"rays": [[0, 1], [1, 0]]}]}


def test_secondary_fan_caps_the_number_of_weights(tmp_path, capsys):
    rows = [[1, 0], [0, 1]] + [[1, k] for k in range(1, 16)]
    git = write_json(tmp_path, "git.json", {"r": 2, "R": 17, "characters": rows,
                                            "omega": [1, 1]})
    code, out, err = invoke(capsys, "secondary-fan", "--git", git)
    assert code == 1 and "Traceback" not in err
    assert json.loads(out)["error"]["kind"] == "too_many_coordinates"


def test_amenable_subcommands_with_inline_vectors(tmp_path, capsys):
    fx = fixture("amenable-quadrics")
    git = write_json(tmp_path, "git.json", jsonio.encode_git(fx["git"]))
    part = write_json(tmp_path, "part.json", jsonio.encode_partition(fx["partition"]))
    vectors = "[[-1,-1,0,2],[0,0,-1,-1]]"
    code, out, _ = invoke(capsys, "amenable-validate", "--git", git,
                          "--partition", part, "--vectors", vectors)
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = invoke(capsys, "amenable-tower", "--git", git,
                          "--partition", part, "--vectors", vectors)
    assert code == 0
    assert json.loads(out)["rays"] == [[-1, 2], [1, 0], [0, -1], [0, 1]]
    code, out, _ = invoke(capsys, "amenable-binomials", "--git", git,
                          "--partition", part, "--vectors", vectors)
    assert code == 0
    assert json.loads(out)["binomials"] == [
        {"plus": [0, 0, 0, 0, 2], "minus": [0, 1, 1, 0, 0]},
        {"plus": [2, 0, 0, 0, 0], "minus": [0, 0, 0, 1, 1]},
    ]


def test_anticanonical_matches_the_fixture(tmp_path, capsys):
    fx = fixture("dp7-anticanonical")
    poly = write_json(tmp_path, "p.json", jsonio.encode_polytope(fx["polytope"]))
    code, out, _ = invoke(capsys, "anticanonical", "--polytope", poly)
    assert code == 0
    assert json.loads(out) == jsonio.encode_scaffolding(fx["scaffolding"])


def test_embedding_reports_on_a_file(tmp_path, capsys):
    scaf = write_json(tmp_path, "s.json",
                      jsonio.encode_scaffolding(fixture("dp6-triangles")["scaffolding"]))
    code, out, _ = invoke(capsys, "embed-check", "--scaffolding", scaf)
    assert code == 0
    report = json.loads(out)
    assert report == {"ok": True, "ambient_rays": True, "restricted_fan": True,
                      "face_cones": True}
    code, out, _ = invoke(capsys, "scaffold-dual-check", "--scaffolding", scaf)
    assert code == 0 and json.loads(out) == {"ok": True}
    code, out, _ = invoke(capsys, "ci-data", "--scaffolding", scaf)
    assert code == 0
    assert json.loads(out)["degrees_nonnegative"] is True


def test_period_sweep_skips_fixtures_without_polynomials(capsys):
    code, out, _ = invoke(capsys, "period", "--fixtures", "--max-degree", "2")
    assert code == 0
    results = json.loads(out)["fixtures"]
    assert results["cubic-surface"] == {"coeffs": [1, 6, 90]}
    assert "dp7-anticanonical" not in results
    assert "amenable-quadrics" not in results


def test_mutability_sweep_hits_the_weighted_fixture(capsys):
    code, out, _ = invoke(capsys, "mutability", "--fixtures")
    assert code == 0
    results = json.loads(out)["fixtures"]
    assert set(results) == {"circulant-five"}
    assert results["circulant-five"]["ok"] is True


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        capture_golden(Path(directory))
