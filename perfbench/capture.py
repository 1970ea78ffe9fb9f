"""Capture the reference outputs the benchmark checks against.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/capture.py

It rewrites ``perfbench/data/reference.json``.  Run it only when a change
to the library's output is intended, and say so in the change.
"""

import itertools
import json
import math
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fanoscaffold import jsonio  # noqa: E402
from fanoscaffold.errors import DomainError  # noqa: E402
from fanoscaffold.fixtures import fixture  # noqa: E402
from fanoscaffold.forward import przyjalkowski  # noqa: E402
from fanoscaffold.inversion import laurent_inversion  # noqa: E402
from fanoscaffold.laurent import (  # noqa: E402
    LaurentPolynomial,
    algebraic_mutation,
    classical_period,
    classical_period_naive,
)
from fanoscaffold.mutations import segment_factor  # noqa: E402
from fanoscaffold.polyhedra import Polytope  # noqa: E402
from fanoscaffold.scaffolding import scaffolding_from_forward  # noqa: E402
from fanoscaffold.toric import git_to_stacky_fan, in_chamber_interior, secondary_fan  # noqa: E402

import workloads as wl  # noqa: E402

# Periods are checked against the independent naive oracle up to here.
NAIVE_DEPTH = 8


def small_primitive_vectors(n):
    values = (-2, -1, 0, 1, 2) if n <= 3 else (-1, 0, 1)
    for v in itertools.product(values, repeat=n):
        if any(v) and math.gcd(*v) == 1:
            yield v


def valid_mutations(f):
    """(w, v) pairs for which f mutates along w with factor 1 + x^v.

    Kept only when the mutation changes f and the inverse mutation
    returns f, so every op of period-depth runs a real, reversible move.
    """
    n = f.nvars
    found = []
    vectors = list(small_primitive_vectors(n))
    for w in vectors:
        for v in vectors:
            if sum(a * b for a, b in zip(w, v)) != 0 or (w, tuple(-c for c in v)) in found:
                continue
            factor = LaurentPolynomial(n, {(0,) * n: 1, v: 1})
            try:
                g = algebraic_mutation(f, w, factor)
            except DomainError:
                continue
            if g != f and algebraic_mutation(g, tuple(-c for c in w), factor) == f:
                found.append((w, v))
    return [[list(w), list(v)] for w, v in found]


def periods():
    out, mutations = {}, {}
    for name in sorted(wl.PERIOD_DEPTHS):
        f = fixture(name)["laurent"]
        coeffs = classical_period(f, max(wl.PERIOD_DEPTHS.values()))
        if coeffs[: NAIVE_DEPTH + 1] != classical_period_naive(f, NAIVE_DEPTH):
            raise SystemExit("period oracles disagree on %s" % name)
        out[name] = list(coeffs)
        mutations[name] = valid_mutations(f)
        if not mutations[name]:
            raise SystemExit("no valid mutation found for %s" % name)
    return out, mutations


def quotients():
    out = {}
    for name in wl.QUOTIENT_FIXTURES:
        fx = fixture(name)
        git, part = fx["git"], fx["partition"]
        scaf = scaffolding_from_forward(git, part)
        out[name] = {
            "stacky_fan": wl.plain_fan(git_to_stacky_fan(git)),
            "laurent": wl.plain_laurent(przyjalkowski(git, part)),
            "scaffolding": wl.plain_scaffolding(scaf),
            "matrix": [list(row) for row in laurent_inversion(scaf).matrix],
            "chambers": wl.plain_chambers(secondary_fan(git)),
            "in_chamber": in_chamber_interior(git, git.omega),
        }
    return out


def cli_inputs():
    squares = fixture("dp6-squares")
    square = Polytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    return {
        "hexagon": jsonio.encode_polytope(squares["scaffolding"].target),
        "mutation": {"w": [1, 0], "factor": jsonio.encode_polytope(segment_factor((1, 0)))},
        "laurent": jsonio.encode_laurent(squares["laurent"]),
        "scaffolding": jsonio.encode_scaffolding(squares["scaffolding"]),
        "square": jsonio.encode_polytope(square),
        "squares": [jsonio.encode_polytope(square)] * 2,
    }


def cli_snapshot(inputs):
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=os.path.dirname(HERE))
    try:
        paths = wl.write_cli_inputs({"cli": {"inputs": inputs}}, workdir)
        commands = []
        for template in wl.CLI_COMMANDS:
            code, stdout = wl.run_cli(wl.cli_argv(template, paths))
            commands.append({"argv": list(template), "exit": code, "stdout": stdout})
    finally:
        shutil.rmtree(workdir)
    return commands


def main():
    period_refs, mutations = periods()
    inputs = cli_inputs()
    ref = {
        "periods": period_refs,
        "mutations": mutations,
        "quotient": quotients(),
        "cli": {
            "inputs": inputs,
            "commands": cli_snapshot(inputs),
        },
    }
    os.makedirs(os.path.dirname(wl.REFERENCE_PATH), exist_ok=True)
    with open(wl.REFERENCE_PATH, "w", encoding="ascii") as handle:
        json.dump(ref, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
