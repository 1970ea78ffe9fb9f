"""The bundled example corpus stays internally consistent."""

import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from fanoscaffold import fixtures
from fanoscaffold.cli import run
from fanoscaffold.errors import DomainError
from fanoscaffold.fixtures import FIXTURES, fixture, fixture_names
from fanoscaffold.scaffolding import laurent_from_scaffolding, validate_scaffolding


def test_every_fixture_builds_with_a_description():
    for name in fixture_names():
        fx = fixture(name)
        assert isinstance(fx["description"], str) and fx["description"]


def test_names_are_sorted_and_complete():
    assert fixture_names() == tuple(sorted(FIXTURES))
    assert "cubic-surface" in fixture_names()
    assert "amenable-quadrics" in fixture_names()


def test_scaffoldings_cover_their_targets():
    seen = 0
    for name in fixture_names():
        fx = fixture(name)
        if "scaffolding" not in fx:
            continue
        seen += 1
        scaf = fx["scaffolding"]
        ok, report = validate_scaffolding(scaf)
        assert ok, (name, report["failures"])
    assert seen >= 10


def test_forward_fixtures_agree_with_their_scaffoldings():
    for name in fixture_names():
        fx = fixture(name)
        if "laurent" not in fx or "scaffolding" not in fx:
            continue
        assert laurent_from_scaffolding(fx["scaffolding"]) == fx["laurent"]


def test_polytope_keys_match_newton_polytopes():
    cubic = fixture("cubic-surface")
    assert cubic["laurent"].newton_polytope() == cubic["polytope"]


def test_mutated_fixture_records_its_mutation():
    fx = fixture("dp6-squares-mutated")
    w, factor = fx["mutation"]["w"], fx["mutation"]["factor"]
    assert w == (1, 0)
    assert factor.dim == 2
    ok, _ = validate_scaffolding(fx["scaffolding"])
    assert ok


# Every constructor a fixture builder calls, by its name in the module.
BUILDERS = (
    "przyjalkowski",
    "scaffolding_from_forward",
    "scaffolding_from_amenable",
    "anticanonical_scaffolding",
    "mutate_scaffolding",
    "segment_factor",
    "normal_fan",
    "product_fan",
    "Scaffolding",
    "GitData",
    "ConvexPartitionWithBasis",
)


def count_builds(monkeypatch):
    """Wrap every fixture constructor in a call counter; returns the counts."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in BUILDERS:
        monkeypatch.setattr(fixtures, name, counted(name, getattr(fixtures, name)))
    from_points = counted("Polytope.from_points", fixtures.Polytope.from_points)
    monkeypatch.setattr(fixtures, "Polytope", SimpleNamespace(from_points=from_points))
    return calls


def test_membership_tests_build_nothing(monkeypatch):
    calls = count_builds(monkeypatch)
    keys = {key for name in fixture_names() for key in fixture(name)}
    for name in fixture_names():
        fx = fixture(name)
        assert all((key in fx) == (key in set(fx)) for key in keys | {"absent"})
        assert "absent" not in fx
        assert fx["description"]
    assert calls == Counter()


def test_a_value_is_built_once_with_its_dependencies(monkeypatch):
    calls = count_builds(monkeypatch)
    fx = fixture("cubic-surface")
    assert fx["laurent"] is fx["laurent"]
    assert calls == Counter(przyjalkowski=1, GitData=1, ConvexPartitionWithBasis=1)
    fx["scaffolding"]
    assert calls["GitData"] == 1 and calls["scaffolding_from_forward"] == 1


def test_mutated_fixture_builds_only_the_squares_scaffolding(monkeypatch):
    calls = count_builds(monkeypatch)
    fixture("dp6-squares-mutated")["scaffolding"]
    assert calls["przyjalkowski"] == calls["GitData"] == 0
    assert calls["mutate_scaffolding"] == calls["segment_factor"] == 1
    assert calls["Scaffolding"] == 1


def test_secondary_fan_sweep_builds_no_laurent_model(monkeypatch, capsys):
    calls = count_builds(monkeypatch)
    assert run(["secondary-fan", "--fixtures"]) == 0
    golden = Path(__file__).parent / "golden" / "secondary-fan.out"
    assert capsys.readouterr().out == golden.read_text()
    assert calls["przyjalkowski"] == 0
    assert calls["scaffolding_from_forward"] == calls["scaffolding_from_amenable"] == 0


def test_every_value_of_every_fixture_builds_fresh():
    for name in fixture_names():
        first, second = fixture(name), fixture(name)
        assert first is not second
        for key in first:
            value = first[key]
            assert value is not None
            # constant tuples and strings are immutable and may be shared
            if not isinstance(value, (str, tuple)):
                assert value is not second[key], (name, key)


def test_a_failing_builder_fails_only_its_fixture(monkeypatch, capsys):
    def broken():
        def fail(fx):
            raise DomainError("invalid_partition", "broken builder")

        return {**fixtures.cubic_surface(), "laurent": fail}

    monkeypatch.setitem(FIXTURES, "cubic-surface", broken)
    assert run(["period", "--fixtures", "--max-degree", "4"]) == 0
    out = json.loads(capsys.readouterr().out)["fixtures"]
    assert out["cubic-surface"] == {
        "error": {"kind": "invalid_partition", "detail": "broken builder"}
    }
    others = [v for k, v in out.items() if k != "cubic-surface"]
    assert others and all(set(v) == {"coeffs"} for v in others)
