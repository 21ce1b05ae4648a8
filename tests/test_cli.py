import json
from pathlib import Path

import pytest

from ghbasis import checks, cli, partitions, zerox
from ghbasis.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_SIZE_LIMIT, EXIT_USAGE, main, run
from ghbasis.errors import RewriteDefectError
from ghbasis.partitions import Partition

SMOKE_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "smoke_reference.json"

# Well-formed command lines whose values name no valid object.
BAD_INPUT = [
    ["delta", "--partition", "1,2"],
    ["zerox", "count", "--partition", "0"],
    ["hooks", "enumerate", "--k", "-1", "--l", "2"],
    ["ideal", "normal-form", "--k", "1", "--l", "1", "--op", "2*x1"],
    ["ideal", "normal-form", "--k", "1", "--l", "1", "--op", "x9"],
    # integers past int()'s 4300-digit limit: an exponent, an index, a coefficient
    ["ideal", "normal-form", "--k", "1", "--l", "1", "--op", "x1^" + "9" * 5000],
    ["ideal", "normal-form", "--k", "1", "--l", "1", "--op", "x" + "9" * 5000],
    ["ideal", "normal-form", "--k", "1", "--l", "1", "--op", "9" * 5000 + "*x1"],
]

# Command lines that argparse rejects, with the command its error names.
PARSE_ERRORS = [
    (["hooks", "enumerate", "--k", "1"], "hooks enumerate", "--l"),
    (["nonsense"], "", "nonsense"),
]


def test_delta_text(capsys):
    status = main(["delta", "--partition", "1,1"])
    out = capsys.readouterr().out
    assert status == EXIT_OK
    assert out.splitlines()[0] == "x2 - x1"


def test_verify_dim_json(capsys):
    status = main(["hooks", "verify-dim", "--k", "1", "--l", "1", "--output", "json"])
    out = capsys.readouterr().out
    assert status == EXIT_OK
    payload = json.loads(out)
    assert payload["command"] == "hooks verify-dim"
    assert payload["checks"] == [
        {"name": "hooks(1,1) dim M_mu", "expected": 6, "actual": 6, "pass": True}]
    assert set(payload) == {"command", "params", "checks", "runtime_ms", "seed"}


def test_zerox_count(capsys):
    status = main(["zerox", "count", "--partition", "2,2", "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == EXIT_OK
    count_check = payload["checks"][0]
    assert count_check["expected"] == 6 and count_check["actual"] == 6


def test_zerox_count_at_n_9_builds_no_drawing(capsys, monkeypatch):
    # The 362,880 drawings of (9) are counted from the bar orders, not built.
    def no_drawing(*args, **kwargs):
        raise AssertionError("a drawing was built")

    monkeypatch.setattr(zerox, "GeneralDrawing", no_drawing)
    status = main(["zerox", "count", "--partition", "9", "--limit-n", "9", "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == EXIT_OK
    assert payload["checks"][0]["expected"] == payload["checks"][0]["actual"] == 362880


def test_hooks_enumerate_list(capsys):
    status = main(["hooks", "enumerate", "--k", "1", "--l", "1", "--list"])
    out = capsys.readouterr().out
    assert status == EXIT_OK
    drawings = [json.loads(line) for line in out.splitlines()
                if line.startswith("{")]
    assert len(drawings) == 6
    assert all(set(p) == {"kind", "size", "crosses"}
               for d in drawings for p in d["places"])


def test_normal_form_command(capsys):
    status = main(["ideal", "normal-form", "--k", "1", "--l", "1", "--op", "x3"])
    out = capsys.readouterr().out
    assert status == EXIT_OK
    assert "-1 * d[x1]" in out and "-1 * d[x2]" in out


def test_usage_error_exit_code(capsys):
    # argparse's errors get the same one line, not its multi-line usage text.
    for argv, command, named in PARSE_ERRORS:
        prefix = f"ghbasis {command}".rstrip() + ": error: "
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert len(captured.err.splitlines()) == 1, (argv, captured.err)
        assert captured.err.startswith(prefix) and named in captured.err, argv
        assert main(argv + ["--output", "json"]) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["command"] == command and payload["checks"] == [], argv
        assert captured.err == prefix + payload["error"].removeprefix("error: ") + "\n", argv
    for argv in BAD_INPUT:
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert len(captured.err.splitlines()) == 1, (argv, captured.err)
        assert "Traceback" not in captured.err, argv
    # The JSON form of a stopped report carries the same one line.
    report, status = run(BAD_INPUT[0] + ["--output", "json"])
    error = json.loads(report.to_json())["error"]
    assert status == EXIT_USAGE and error.startswith("error: ")
    main(BAD_INPUT[0])
    assert capsys.readouterr().err == f"ghbasis delta: {error}\n"
    # With --output json, main also prints that report on stdout, as for exit 3.
    for argv in BAD_INPUT:
        assert main(argv + ["--output", "json"]) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["checks"] == [] and payload["error"].startswith("error: "), argv
        assert captured.err == f"ghbasis {payload['command']}: {payload['error']}\n", argv


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert main(["hooks", "enumerate", "--help"]) == EXIT_OK
    assert "usage: ghbasis hooks enumerate" in capsys.readouterr().out


def test_size_limit_exit_code(capsys):
    status = main(["hooks", "enumerate", "--k", "5", "--l", "5"])
    capsys.readouterr()
    assert status == EXIT_SIZE_LIMIT
    # delta caps at --limit-n like every other command
    assert main(["delta", "--partition", "2,1", "--limit-n", "2"]) == EXIT_SIZE_LIMIT
    assert main(["delta", "--partition", "2,1", "--limit-n", "3"]) == EXIT_OK
    capsys.readouterr()
    # The closing line of a stopped report gives the exit status, not "ok".
    assert main(["delta", "--partition", "2,2,2,2"]) == EXIT_SIZE_LIMIT
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("delta: size limit exceeded (0 checks") and "ok" not in last
    # A stopped JSON report says why; a report that ran has no "error" field.
    assert main(["delta", "--partition", "2,2,2,2", "--output", "json"]) == EXIT_SIZE_LIMIT
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"] == []
    assert payload["error"] == "size limit: n = 8 exceeds --limit-n = 7"
    assert main(["delta", "--partition", "2,1", "--output", "json"]) == EXIT_OK
    assert "error" not in json.loads(capsys.readouterr().out)
    # suite stops before any check when a bound of its level exceeds the cap.
    status = main(["suite", "--level", "smoke", "--limit-n", "2", "--output", "json"])
    assert status == EXIT_SIZE_LIMIT
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"] == []
    assert payload["error"] == "size limit: n = 4 (level smoke) exceeds --limit-n = 2"


@pytest.fixture
def no_hook_above_the_cap(monkeypatch):
    """hook_partition raises when asked for a hook above the default cap,
    wherever the front end reads it from, so no test allocates such a hook."""
    real = partitions.hook_partition

    def guarded(K, L):
        if K + L + 1 > cli.LIMIT_N:
            raise AssertionError(f"hook (K, L) = ({K}, {L}) built above the cap")
        return real(K, L)

    for module in (partitions, checks, cli):
        monkeypatch.setattr(module, "hook_partition", guarded, raising=False)


@pytest.mark.parametrize("argv", [
    ["hooks", "enumerate"],
    ["hooks", "verify-dim"],
    ["ideal", "verify"],
    ["ideal", "normal-form", "--op", "x1"],
])
def test_hook_size_cap_is_checked_before_the_hook_is_built(argv, no_hook_above_the_cap, capsys):
    big = ["--k", "1", "--l", str(10 ** 12)]
    assert main(argv + big + ["--output", "json"]) == EXIT_SIZE_LIMIT
    assert json.loads(capsys.readouterr().out)["error"] == (
        f"size limit: n = {10 ** 12 + 2} exceeds --limit-n = 7")
    # A negative K or L is still bad input, whatever the size of the other.
    assert main(argv + ["--k", "-1", "--l", str(10 ** 12)]) == EXIT_USAGE
    assert main(argv + ["--k", str(10 ** 12), "--l", "-1"]) == EXIT_USAGE


def test_limit_n_defaults_to_the_one_cap():
    report, status = run(["hooks", "enumerate", "--k", "1", "--l", "1"])
    assert status == EXIT_OK and report.params["limit_n"] == cli.LIMIT_N == 7


def test_check_failed_exit_code(monkeypatch):
    # Negative control for the check registry: one wrong closed form fails the suite.
    monkeypatch.setattr(checks, "closed_form_count", lambda K, L: 0)
    report, status = run(["suite", "--level", "smoke"])
    assert status == EXIT_CHECK_FAILED
    failed = [c.name for c in report.checks if not c.passed]
    assert failed and all(name.endswith(" closed form") for name in failed)


HOOK = checks.HookContext(1, 2)
BARS = Partition((2, 2, 1))

# Each per-object command and the registry rows it must print.
PER_OBJECT = {
    "hooks enumerate": lambda: checks.criterion("A1").rows(HOOK),
    "hooks verify-basis": lambda: checks.criterion("A2").rows(HOOK),
    "hooks verify-dim": lambda: checks.criterion("A3").rows(HOOK),
    "hooks descendants": lambda: (checks.criterion("A7b").rows(HOOK)
                                  + checks.criterion("A7c").rows(HOOK)),
    "ideal verify": lambda: (checks.criterion("A5a").rows(HOOK)
                             + checks.criterion("A5b").rows(HOOK)),
    "ideal quotient-dim": lambda: checks.criterion("A6").rows(HOOK),
    "zerox count": lambda: checks.criterion("A8a").rows(BARS) + checks.corner_identity(BARS),
    "zerox verify": lambda: checks.bar_basis_properties(BARS),
}


@pytest.mark.parametrize("command", sorted(PER_OBJECT))
def test_per_object_command_prints_registry_rows(command, capsys):
    target = ["--partition", "2,2,1"] if command.startswith("zerox") else ["--k", "1", "--l", "2"]
    status = main(command.split() + target + ["--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == EXIT_OK
    assert payload["checks"] == [row.to_dict() for row in PER_OBJECT[command]()]


def test_zerox_verify_rows_fold_into_the_suite_row():
    rows = checks.bar_basis_properties(BARS)
    assert len(rows) == 8 and all(row.passed for row in rows)
    assert checks.criterion("A8b/A8c").rows(BARS) == [checks.Check("zerox basis 2,2,1", True, True)]


def test_per_object_command_uses_the_registry(monkeypatch):
    # Negative control: a wrong closed form in the registry fails `hooks enumerate`.
    monkeypatch.setattr(checks, "closed_form_count", lambda K, L: 0)
    report, status = run(["hooks", "enumerate", "--k", "1", "--l", "1"])
    assert status == EXIT_CHECK_FAILED
    assert [c.name for c in report.checks if not c.passed] == ["hooks(1,1) closed form"]


def test_ideal_verify_notes_schema_rows_above_their_bound(capsys):
    bound = checks.criterion("A5b").full
    status = main(["ideal", "verify", "--k", "4", "--l", "2", "--limit-n", "7"])
    lines = capsys.readouterr().out.splitlines()
    assert status == EXIT_OK and bound < 7
    notes = [line for line in lines if "A5b" in line]
    assert notes == [f"{checks.criterion('A5b').describe('full')}: not run at n = 7"]
    assert f"n <= {bound}" in notes[0]
    assert [line for line in lines if line.startswith("[")] == [
        "[PASS] hooks(4,2) generators annihilate: expected 77, got 77"]


def test_rewrite_defect_is_a_failed_check(monkeypatch):
    def defect(*args, **kwargs):
        raise RewriteDefectError("normal form of x3 fails the oracle")

    monkeypatch.setattr(cli, "normal_form", defect)
    report, status = run(["ideal", "normal-form", "--k", "1", "--l", "1", "--op", "x3"])
    assert status == EXIT_CHECK_FAILED
    assert report.checks[-1].actual == "normal form of x3 fails the oracle"


def test_suite_smoke_passes_and_is_seed_stable(capsys):
    status = main(["suite", "--level", "smoke", "--seed", "7", "--output", "json"])
    first = capsys.readouterr().out
    assert status == EXIT_OK
    status = main(["suite", "--level", "smoke", "--seed", "7", "--output", "json"])
    second = capsys.readouterr().out
    assert status == EXIT_OK
    a = json.loads(first)
    b = json.loads(second)
    # runtime_ms is the one measured (hence non-deterministic) field
    a["runtime_ms"] = b["runtime_ms"] = 0
    assert json.dumps(a) == json.dumps(b)
    assert a["seed"] == 7
    # The same params, check names, values and order as the benchmark's reference.
    reference = json.loads(SMOKE_REFERENCE.read_text())
    for payload in (a, reference):
        payload.pop("runtime_ms", None)
        payload.pop("seed")
        payload["params"].pop("seed")
    assert a == reference


def test_run_returns_report_object():
    report, status = run(["zerox", "count", "--partition", "2,1"])
    assert status == EXIT_OK
    assert report.ok
    assert report.command == "zerox count"
    assert report.params["partition"] == "2,1"


TINY = (
    checks.Criterion("H", "one row per hook", checks.HOOK, 1, 2, lambda ctx: [
        checks.Check(ctx.name, 1, 1)]),
    checks.Criterion("P", "two rows per partition", checks.PARTITION, 1, 3, lambda mu: [
        checks.Check(f"{mu} a", 1, 1), checks.Check(f"{mu} b", 1, 1)]),
    checks.Criterion("O", "once", checks.ONCE, None, None, lambda bound: [
        checks.Check("once", 1, 1)]),
)


def test_run_reports_progress_per_hook_and_partition():
    seen = []
    rows = checks.run("full", TINY, progress=lambda *line: seen.append(line[:2]))
    assert [name for name, _ in seen] == [
        "hooks(0,0)", "hooks(0,1)", "hooks(1,0)",
        "P (1)", "P (2)", "P (1,1)", "P (3)", "P (2,1)", "P (1,1,1)"]
    assert [count for _, count in seen] == [1, 1, 1] + [2] * 6
    assert rows == checks.run("full", TINY)


@pytest.mark.parametrize("level", ["smoke", "full"])
def test_suite_prints_progress_to_stderr_at_full_only(level, monkeypatch, capsys):
    real = cli.run_checks
    monkeypatch.setattr(cli, "run_checks", lambda lvl, progress=None: real(lvl, TINY, progress))
    assert main(["suite", "--level", level, "--output", "json"]) == EXIT_OK
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert [c["name"] for c in payload["checks"]] == [row.name for _, row in real(level, TINY)]
    lines = captured.err.splitlines()
    if level == "smoke":
        assert lines == []
    else:
        assert len(lines) == 3 + 6
        assert lines[0].startswith("hooks(0,0): rows=1 time=") and lines[0].endswith("s")
        assert lines[-1].startswith("P (1,1,1): rows=2 time=")
