"""Acceptance criteria A1-A9: the check registry of ghbasis.checks at level full.

Each test runs the criteria of one A-number, prints a [PASS]/[FAIL] line per
criterion (visible under pytest -s) and asserts that every row passes.
"""

from ghbasis.checks import REGISTRY, run


def verify(number: str) -> None:
    selected = [c for c in REGISTRY if c.label.startswith(number)]
    assert selected, f"no criterion labelled {number}"
    rows = run("full", selected)
    failed = []
    for crit in selected:
        mine = [check for c, check in rows if c is crit]
        bad = [check.name for check in mine if not check.passed]
        print(f"[{'FAIL' if bad or not mine else 'PASS'}] {crit.describe('full')} "
              f"({len(mine)} checks)")
        assert mine, f"{crit.label} produced no checks"
        failed += bad
    assert not failed, failed


# The least full bound of each criterion: a bound may go up, never down.
FULL_BOUND_FLOORS = {"A1": 7, "A2": 6, "A3": 6, "A6": 5, "A4": 5, "A5a": 7, "A5b": 6,
                     "A7a": 6, "A7b": 6, "A7c": 6, "A7d": 7, "A8a": 7, "A8b/A8c": 6, "A8d": 8}


def test_full_bounds_stay_at_or_above_their_floors():
    bounds = {c.label: c.full for c in REGISTRY if c.full is not None}
    assert bounds.keys() == FULL_BOUND_FLOORS.keys()
    assert {label: bound for label, bound in bounds.items()
            if bound < FULL_BOUND_FLOORS[label]} == {}


def test_a1_drawing_counts():
    verify("A1")


def test_a2_basis_independence_rank():
    verify("A2")


def test_a3_dimension_conjecture_for_hooks():
    verify("A3")


def test_a4_spanning_rewriting():
    verify("A4")


def test_a5_ideal_soundness():
    verify("A5")


def test_a6_ideal_completeness_dimension():
    verify("A6")


def test_a7_independence_machinery():
    verify("A7")


def test_a8_zero_x_degree_bases():
    verify("A8")


def test_a9_worked_fixtures():
    verify("A9")
