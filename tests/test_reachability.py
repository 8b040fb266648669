"""The reachability gate (tests/reachability.py) and its self-test."""

from reachability import (
    ALLOWED_PATH,
    Def,
    budget_failure,
    gate_failures,
    line_counts,
    load_allowed,
    load_ceiling,
    package_defs,
    shipped_runs,
)


def test_every_function_is_reached_or_listed_with_its_reason():
    failures = gate_failures(package_defs(), shipped_runs().reached,
                             load_allowed())
    assert not failures, "\n".join(failures)


def test_the_listing_holds_methods_nested_and_decorated_functions():
    defs = package_defs()
    assert {"core.MomentumLattice.__init__", "core.LatticeField._one_sector",
            "amplitudes.boost_amplitude.wrap.boosted",
            "verify._check.deco"} <= defs.keys()
    assert defs["core._keeps_zero"].first == defs["core._keeps_zero"].line - 1


# planted cases: a def at line 10 (decorated from line 9), another at 20
_DEFS = {"m.f": Def("m.py", 10, 9, "f"), "m.C.g": Def("m.py", 20, 20, "g")}
_WHY = {"reason": "paper", "where": "tests/test_m.py::test_g"}


def test_gate_passes_a_reached_def_and_a_listed_one():
    assert gate_failures(_DEFS, {("m.py", 9, "f")}, {"m.C.g": _WHY}) == []


def test_gate_fails_an_unreached_unlisted_def():
    assert gate_failures(_DEFS, {("m.py", 9, "f")}, {}) == [
        "src/kgfield/m.py:20: m.C.g is reached by no shipped run and named "
        "by no entry"]
    # a code object that starts on the def line, not the decorator's, is
    # another function
    assert len(gate_failures(_DEFS, {("m.py", 10, "f")}, {"m.C.g": _WHY})) == 1


def test_gate_fails_a_listed_def_that_is_reached():
    reached = {("m.py", 9, "f"), ("m.py", 20, "g")}
    assert gate_failures(_DEFS, reached, {"m.C.g": _WHY}) == [
        "src/kgfield/m.py:20: m.C.g is reached, so its entry is stale"]


def test_gate_fails_an_entry_that_names_no_function():
    allowed = {"m.C.g": _WHY, "m.gone": _WHY}
    assert gate_failures(_DEFS, {("m.py", 9, "f")}, allowed) == [
        f"{ALLOWED_PATH.name}: m.gone names no function in src/kgfield"]


def test_gate_fails_an_entry_without_one_known_reason_and_a_where():
    for entry in ({"reason": "tests", "where": "x"}, {"reason": "paper"},
                  {"reason": "paper", "where": ""}):
        (failure,) = gate_failures(_DEFS, {("m.py", 9, "f")}, {"m.C.g": entry})
        assert "needs one reason of" in failure


def test_source_lines_equal_the_ceiling():
    failure = budget_failure(line_counts(), load_ceiling())
    assert failure is None, failure


def test_budget_fails_above_and_below_the_ceiling_naming_each_module():
    counts = {"a.py": 10, "b.py": 5}
    assert budget_failure(counts, 15) is None
    assert budget_failure(counts, 14) == (
        "src/kgfield has 15 lines, above the ceiling of 14 in "
        "line_budget.json: delete lines, or raise the ceiling and name the "
        "lines in CHANGES.md (per module: a.py 10, b.py 5)")
    assert budget_failure(counts, 16) == (
        "src/kgfield has 15 lines, below the ceiling of 16 in "
        "line_budget.json: lower the ceiling to 15 (per module: a.py 10, "
        "b.py 5)")
