"""Tests of the benchmark itself: generation, tracing and output checks.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import inspect

import pytest

import run
import tracing
import workloads

SEED = 11


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    return {
        name: workloads.build(name, SEED, str(tmp_path_factory.mktemp(name)))
        for name in run.WORKLOADS
    }


def _library_attributes():
    """Every module attribute and class-dict entry of the traced layers."""
    out = {}
    for layer in tracing.LAYERS + ("errors",):
        mod = importlib.import_module("fanoscaffold." + layer)
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith("fanoscaffold"):
                for key, raw in vars(obj).items():
                    out[(obj.__qualname__, key)] = raw
    return out


def _first_op(workload, label_prefix):
    return next(op for op in workload.ops if op.label.startswith(label_prefix))


# -- generation -------------------------------------------------------------


def test_generation_is_deterministic(built, tmp_path):
    for name, first in built.items():
        again = workloads.build(name, SEED, str(tmp_path))
        other = workloads.build(name, SEED + 1, str(tmp_path))
        assert again.digest == first.digest, name
        assert [op.label for op in again.ops] == [op.label for op in first.ops]
        assert other.digest != first.digest, name


def test_random_unimodular_inverse_is_exact():
    import random

    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            u, inv = workloads.random_unimodular(n, rng)
            for i in range(n):
                e = tuple(1 if j == i else 0 for j in range(n))
                assert workloads.mat_vec(u, workloads.mat_vec(inv, e)) == e


# -- tracing ----------------------------------------------------------------


def _tree():
    """op 0: a(0..10) > [b(1..4) > a(2..3)], c(5..9); op 1: b(20..21)."""
    log = tracing.SpanLog()
    a = log.add("exact.a", 0.0, 10.0, -1, 0)
    b = log.add("polyhedra.b", 1.0, 4.0, a, 0)
    log.add("exact.a", 2.0, 3.0, b, 0)
    log.add("toric.c", 5.0, 9.0, a, 0)
    log.add("polyhedra.b", 20.0, 21.0, -1, 1)
    return log


def test_self_time_on_a_synthetic_span_tree():
    log = _tree()
    assert tracing.self_times(log) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert tracing.layer_self_times(log) == {"exact": 4.0, "polyhedra": 3.0, "toric": 4.0}
    # Nested spans of the same name count once; spans under another
    # counted name count once too.
    assert tracing.outer_time(log, ["exact.a"]) == 10.0
    assert tracing.outer_time(log, ["polyhedra.b"]) == 4.0
    assert tracing.outer_time(log, ["polyhedra.b", "toric.c"]) == 8.0
    assert tracing.call_count(log, ["exact.a", "toric.c"]) == 3
    assert tracing.outer_time(log, ["absent.name"]) == 0.0


def test_untraced_runs_patch_nothing(built):
    before = _library_attributes()
    ops = built["polytope-geometry"].ops[:3]
    outcome = run.Outcome()
    run.run_cycle(ops, outcome)
    assert outcome.failed == 0
    after = _library_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_wraps_and_restores(built):
    from fanoscaffold import cli, laurent, toric

    before = _library_attributes()
    original = laurent.classical_period
    tracer = tracing.Tracer()
    names = tracer.install()
    try:
        assert laurent.classical_period is not original
        assert cli.classical_period is laurent.classical_period
        assert toric.dot is before[("fanoscaffold.toric", "dot")]
        assert "laurent.LaurentPolynomial.__mul__" in names
        assert not set(tracing.UNWRAPPED) & set(names)
        outcome = run.Outcome()
        run.run_cycle(built["period-depth"].ops[:2], outcome, tracer)
    finally:
        tracer.uninstall()
    assert outcome.failed == 0
    after = _library_attributes()
    assert all(after[key] is before[key] for key in before)
    metrics = tracer.metrics(1.0, 1.0)
    assert metrics["laurent.period_calls"][0] == 2
    assert metrics["exact.lp_calls"][0] == 0
    assert metrics["laurent.mul_terms_out"][0] > 0
    assert set(tracer.log.ops) == {0, 1}


# -- output checks ----------------------------------------------------------


def test_period_check_rejects_wrong_outputs(built):
    op = built["period-depth"].ops[0]
    coeffs = op.run()
    assert op.check(coeffs)
    assert not op.check(coeffs[:-1] + (coeffs[-1] + 1,))
    assert not op.check(coeffs[:-1])


def test_quotient_check_rejects_wrong_outputs(built):
    op = built["quotient-roundtrip"].ops[0]
    out = op.run()
    assert op.check(out)
    sfan, model, scaf, matrix, embedded, chambers, inside = out
    bad_matrix = (tuple(c + 1 for c in matrix[0]),) + tuple(matrix[1:])
    assert not op.check((sfan, model, scaf, bad_matrix, embedded, chambers, inside))
    assert not op.check((sfan, model * 2, scaf, matrix, embedded, chambers, inside))
    assert not op.check((sfan, model, scaf, matrix, False, chambers, inside))
    assert not op.check((sfan, model, scaf, matrix, embedded, chambers[1:], inside))
    assert not op.check((sfan, model, scaf, matrix, embedded, chambers, not inside))


def test_geometry_checks_reject_wrong_outputs(built):
    ops = built["polytope-geometry"].ops
    hull = _first_op(built["polytope-geometry"], "hull")
    p, back, lattice, nfan, sfan = hull.run()
    assert hull.check((p, back, lattice, nfan, sfan))
    assert not hull.check((p, back.dilate(2), lattice, nfan, sfan))
    assert not hull.check((p, back, lattice[1:], nfan, sfan))

    iso = _first_op(built["polytope-geometry"], "isomorphism")
    p, q, m = iso.run()
    assert iso.check((p, q, m))
    assert not iso.check((p, q, None))
    assert not iso.check((p, q, tuple(tuple(-c for c in row) for row in m)))

    cover = next(op for op in ops if op.label == "cover check")
    assert cover.check((True, True)) and cover.check((False, False))
    assert not cover.check((True, False))


def test_cli_check_rejects_wrong_outputs(built):
    op = built["cli-fixtures"].ops[0]
    code, stdout = op.run()
    assert op.check((code, stdout))
    assert not op.check((code, stdout + " "))
    assert not op.check((code + 1, stdout))


def test_failed_check_is_counted():
    op = workloads.Op("always wrong", lambda: 1, lambda out: out == 2)
    boom = workloads.Op("raises", lambda: 1 / 0, lambda out: True)
    outcome = run.Outcome()
    run.run_cycle([op, boom], outcome)
    assert (outcome.attempted, outcome.failed) == (2, 2)
