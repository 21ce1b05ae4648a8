"""The scripts under scripts/ run end to end through their main(argv)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, argv, capsys, module=None):
    status = (module or load_script(name)).main(argv)
    return status, capsys.readouterr().out


def test_rewrite_trace_reaches_an_oracle_checked_normal_form(capsys):
    status, out = run_script("rewrite_trace", ["--k", "1", "--l", "2", "y1*x2*x3"], capsys)
    assert status == 0
    assert "step 1:" in out and "oracle-checked" in out


def test_rewrite_trace_explains_a_null_operator(capsys):
    status, out = run_script("rewrite_trace", ["--k", "1", "--l", "1", "x1*y1"], capsys)
    assert status == 0
    assert out.splitlines() == ["x1*y1  [null-operator at place 1]",
                                "normal form of x1*y1 (0 drawing terms, oracle-checked):"]


def test_rewrite_trace_rewrites_the_descent_largest_monomial_first(capsys):
    # Rewriting x2^2*y3 first lets its -y1*x2^2 cancel the one from step 1;
    # the smallest-first order rewrites y1*x2^2 twice in four steps.
    status, out = run_script("rewrite_trace", ["--k", "1", "--l", "2", "x2^2*y4"], capsys)
    assert status == 0
    rewritten = [line.split()[2] for line in out.splitlines() if line.startswith("step ")]
    assert rewritten == ["x2^2*y4", "x2^2*y3"]


def test_rewrite_trace_rewrites_nothing_above_the_bidegree(capsys, monkeypatch):
    def no_rewrite(op, K, L):
        raise AssertionError(f"{op} was rewritten")

    module = load_script("rewrite_trace")
    monkeypatch.setattr(module, "reduce_step", no_rewrite)
    status, out = run_script("rewrite_trace", ["--k", "1", "--l", "1", "x1^5"], capsys, module)
    assert status == 0
    assert out.splitlines() == ["x1^5  [above Delta's bidegree (1, 1): acts as 0]",
                                "normal form of x1^5 (0 drawing terms, oracle-checked):"]


def refuse(*args):
    raise AssertionError("work done above the size cap")


def test_rewrite_trace_checks_the_cap_before_building_the_hook(capsys, monkeypatch):
    module = load_script("rewrite_trace")
    monkeypatch.setattr(module, "hook_partition", refuse)
    assert module.main(["--k", "1", "--l", str(10 ** 12), "x1"]) == 3
    assert module.main(["--k", "-1", "--l", str(10 ** 12), "x1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"rewrite_trace: size limit: n = {10 ** 12 + 2} exceeds the cap 7 of the scripts",
                   "rewrite_trace: error: hook parameters must be nonnegative"]


def test_graded_tables_checks_the_cap_before_any_closure(capsys, monkeypatch):
    module = load_script("graded_tables")
    monkeypatch.setattr(module, "derivative_closure", refuse)
    # 2,1 is within the cap, but no table is computed while 2,2,2,2 is not.
    assert module.main(["2,1", "2,2,2,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "graded_tables: size limit: n = 8 exceeds the cap 7 of the scripts\n"


@pytest.mark.parametrize("name,argv,status", [
    ("graded_tables", ["2,1", "2,x"], 2),
    ("graded_tables", ["5,5"], 3),
    ("rewrite_trace", ["--k", "1", "--l", "1", "x9"], 2),
    ("rewrite_trace", ["--k", "-1", "--l", "1", "x1"], 2),
    ("rewrite_trace", ["--k", "1", "--l", "1", "x1 + x2"], 2),
    ("rewrite_trace", ["--k", "1", "--l", "1", "5*x3"], 2),
    ("rewrite_trace", ["--k", "4", "--l", "4", "x1"], 3),
    ("rewrite_trace", ["--k", "1", "--l", "1", "x1^" + "9" * 5000], 2),
])
def test_bad_input_gives_one_stderr_line_and_the_ghbasis_exit_code(name, argv, status, capsys):
    assert load_script(name).main(argv) == status
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith(f"{name}: ")


def test_graded_tables_agree(capsys):
    # (2,1) and (3,1) are hooks, so their quotient table is compared too.
    status, out = run_script("graded_tables", ["2,1", "2,2", "3,1"], capsys)
    assert status == 0
    assert "DISAGREE" not in out
    assert out.count("(agree with row 0") == 3 and out.count("(tables agree)") == 2


def test_graded_tables_fails_when_a_comparison_disagrees(capsys, monkeypatch):
    module = load_script("graded_tables")
    monkeypatch.setattr(module, "x_degree_zero_closure", lambda delta: (0, {(0, 0): 2}))
    status, out = run_script("graded_tables", ["2,1"], capsys, module)
    assert status == 1
    assert "DISAGREE" in out
