"""Command-line verification front end.

Subcommands: delta, hooks {enumerate, verify-dim, verify-basis, descendants},
ideal {verify, quotient-dim, normal-form}, zerox {count, verify}, suite.
Every run emits a report: text by default, or JSON of the shape
{"command", "params", "checks": [{"name", "expected", "actual", "pass"}],
"runtime_ms", "seed"}, plus "error" (the one-line reason) when the command
stopped; the exit status is 0 iff every check passes, 2 for usage errors and
input that names no valid object (a one-line message on stderr, and with
--output json the report on stdout as well), 3 when a size limit is exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from .annihilator import normal_form
from .checks import ONCE, REGISTRY, Check, HookContext, bar_basis_properties, corner_identity
from .checks import criterion, run as run_checks
from .delta import build_delta
from .errors import (
    NotAHookError,
    PartitionError,
    PolynomialSyntaxError,
    RewriteDefectError,
    SizeLimitError,
)
from .hooks import split
from .partitions import hook_size, parse_partition
from .poly import format_poly, format_monomial, parse_poly

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE_LIMIT = 3

LIMIT_N = 7  # the default --limit-n, and the cap on n of the scripts under scripts/


class UsageError(ValueError):
    """Command-line input that parses but names no valid object."""


_INPUT_ERRORS = (PartitionError, PolynomialSyntaxError, NotAHookError, UsageError)
_VERDICTS = {EXIT_OK: "ok", EXIT_CHECK_FAILED: "FAILED", EXIT_USAGE: "usage error",
             EXIT_SIZE_LIMIT: "size limit exceeded"}


@dataclass
class Report:
    command: str
    params: dict
    checks: list[Check] = field(default_factory=list)
    runtime_ms: int = 0
    seed: int = 0
    extra_lines: list[str] = field(default_factory=list)
    status: int = EXIT_OK
    error: str | None = None  # why the command stopped, if it did

    @property
    def ok(self) -> bool:
        return self.status == EXIT_OK

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "checks": [c.to_dict() for c in self.checks],
            "runtime_ms": self.runtime_ms,
            "seed": self.seed,
        }
        if self.error is not None:
            payload["error"] = self.error
        return json.dumps(payload, sort_keys=False)

    def to_text(self) -> str:
        lines = list(self.extra_lines)
        if self.error is not None:
            lines.append(self.error)
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}: expected {c.expected}, got {c.actual}")
        lines.append(f"{self.command}: {_VERDICTS[self.status]} "
                     f"({len(self.checks)} checks, {self.runtime_ms} ms, seed {self.seed})")
        return "\n".join(lines)


class _ParseError(UsageError):
    """An error argparse found; ``command`` is the subcommand path it was in."""

    def __init__(self, prog: str, message: str):
        super().__init__(message)
        self.command = prog.removeprefix("ghbasis").strip()


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises its errors instead of printing usage and exiting."""

    def error(self, message):
        raise _ParseError(self.prog, message)


def _parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--output", choices=["text", "json"], default="text")
    common.add_argument("--seed", type=int, default=0,
                        help="logged in the report; no check is randomized")
    common.add_argument("--threads", type=int, default=0,
                        help="ignored; kept so that every report logs it in params")
    common.add_argument("--limit-n", type=int, default=LIMIT_N, dest="limit_n",
                        help="safety cap on n for enumerative commands")

    top = _Parser(prog="ghbasis",
                  description="exact checks for monomial bases of Garsia-Haiman modules")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", parents=[common], help="print Delta_mu")
    p.add_argument("--partition", required=True)

    hooks = sub.add_parser("hooks", help="hook drawing family checks")
    hsub = hooks.add_subparsers(dest="subcommand", required=True)
    p = hsub.add_parser("enumerate", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--list", action="store_true", dest="list_drawings")
    for name in ("verify-dim", "verify-basis", "descendants"):
        p = hsub.add_parser(name, parents=[common])
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--l", type=int, required=True)

    ideal = sub.add_parser("ideal", help="annihilator ideal checks")
    isub = ideal.add_subparsers(dest="subcommand", required=True)
    for name in ("verify", "quotient-dim"):
        p = isub.add_parser(name, parents=[common])
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--l", type=int, required=True)
    p = isub.add_parser("normal-form", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--op", required=True, help="monomial operator, e.g. \"x3\"")

    zerox = sub.add_parser("zerox", help="zero-x-degree basis checks")
    zsub = zerox.add_subparsers(dest="subcommand", required=True)
    for name in ("count", "verify"):
        p = zsub.add_parser(name, parents=[common])
        p.add_argument("--partition", required=True)

    p = sub.add_parser("suite", parents=[common], help="verification suites")
    p.add_argument("--level", choices=["smoke", "full"], default="smoke")
    return top


# ---------------------------------------------------------------------------
# subcommand bodies: each fills a Report
# ---------------------------------------------------------------------------

def _check_n(n: int, args) -> None:
    """Raise SizeLimitError when n exceeds --limit-n."""
    if n > args.limit_n:
        raise SizeLimitError(f"n = {n} exceeds --limit-n = {args.limit_n}")


def _cmd_delta(args, report: Report) -> None:
    mu = parse_partition(args.partition)
    _check_n(mu.n, args)
    delta = build_delta(mu, limit=args.limit_n)
    text = format_poly(delta.value)
    report.extra_lines.append(text)
    report.checks.append(Check("bidegree (n(mu), n(mu'))",
                               list(delta.bidegree),
                               [delta.value.xdeg(), delta.value.ydeg()]))
    report.checks.append(Check("delta", text, text))


# The registry criteria whose rows each per-hook subcommand prints.
_HOOK_CRITERIA = {
    "enumerate": ("A1",),
    "verify-basis": ("A2",),
    "verify-dim": ("A3",),
    "descendants": ("A7b", "A7c"),
    "verify": ("A5a", "A5b"),
    "quotient-dim": ("A6",),
}


def _cmd_hooks(args, report: Report) -> None:
    """hooks and ideal subcommands: one HookContext, rows from the registry.

    n is checked against --limit-n before the hook is built."""
    _check_n(hook_size(args.k, args.l), args)
    ctx = HookContext(args.k, args.l, limit=args.limit_n)
    if args.subcommand == "normal-form":
        _normal_form(args, ctx, report)
        return
    for label in _HOOK_CRITERIA[args.subcommand]:
        crit = criterion(label)
        if label == "A5b" and ctx.n > crit.full:  # as in `suite --level full`
            report.extra_lines.append(f"{crit.describe('full')}: not run at n = {ctx.n}")
            continue
        report.checks.extend(crit.rows(ctx))
    if args.subcommand == "enumerate" and args.list_drawings:
        report.extra_lines.extend(json.dumps(d.to_json_dict()) for d in ctx.drawings)
    elif args.subcommand == "descendants":
        edges = ctx.son_edges
        report.extra_lines.append(
            f"{sum(len(v) for v in edges.values())} son edges over {len(edges)} drawings")
    elif args.subcommand == "quotient-dim":
        report.extra_lines.extend(f"dim at bidegree ({a},{b}): {v}"
                                  for (a, b), v in sorted(ctx.quotient.table.items()))


def _normal_form(args, ctx: HookContext, report: Report) -> None:
    poly = parse_poly(args.op, n=ctx.n)
    if len(poly.terms) != 1 or next(iter(poly.terms.values())) != 1:
        raise UsageError("--op must be a single monic monomial")
    op = next(iter(poly.terms))
    nf = normal_form(op, ctx.K, ctx.L, delta=ctx.delta, validate=True)
    for text, c in sorted((format_monomial(split(d)[0]) or "1", c) for d, c in nf.items()):
        report.extra_lines.append(f"{c} * d[{text}]")
    report.checks.append(Check("normal form applies back to op(d)Delta", True, True))
    report.extra_lines.append(f"{len(nf)} drawing terms")


def _cmd_zerox(args, report: Report) -> None:
    mu = parse_partition(args.partition)
    _check_n(mu.n, args)
    if args.subcommand == "count":
        report.checks.extend(criterion("A8a").rows(mu, limit=args.limit_n) + corner_identity(mu))
    else:
        report.checks.extend(bar_basis_properties(mu, limit=args.limit_n))


def _cmd_suite(args, report: Report) -> None:
    """Every registered criterion at its bound for --level (see ghbasis.checks).

    At --level full, one progress line per hook or partition goes to stderr.

    Stops before any check runs when a hook or partition bound of the level
    exceeds --limit-n; ONCE criteria enumerate nothing and are exempt.
    """
    nmax = max(c.bound(args.level) for c in REGISTRY if c.scope != ONCE)
    if nmax > args.limit_n:
        raise SizeLimitError(f"n = {nmax} (level {args.level}) exceeds --limit-n = {args.limit_n}")
    progress = _print_progress if args.level == "full" else None
    report.checks.extend(row for _, row in run_checks(args.level, progress=progress))


def _print_progress(name: str, rows: int, seconds: float) -> None:
    """One stderr line per hook or partition of `suite --level full`."""
    print(f"{name}: rows={rows} time={seconds:.2f}s", file=sys.stderr, flush=True)


_COMMANDS = {
    "delta": _cmd_delta,
    "hooks": _cmd_hooks,
    "ideal": _cmd_hooks,
    "zerox": _cmd_zerox,
    "suite": _cmd_suite,
}


def _run_parsed(args) -> tuple[Report, int]:
    name = args.command
    if getattr(args, "subcommand", None):
        name = f"{args.command} {args.subcommand}"
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "subcommand", "output") and v is not None}
    report = Report(command=name, params=params, seed=args.seed)
    started = time.monotonic()
    status = None
    try:
        _COMMANDS[args.command](args, report)
    except SizeLimitError as exc:
        report.error = f"size limit: {exc}"
        status = EXIT_SIZE_LIMIT
    except _INPUT_ERRORS as exc:
        report.error = f"error: {exc}"
        status = EXIT_USAGE
    except RewriteDefectError as exc:
        report.checks.append(Check("rewriting defect", None, str(exc)))
    report.runtime_ms = int((time.monotonic() - started) * 1000)
    if status is None:
        status = EXIT_OK if all(c.passed for c in report.checks) else EXIT_CHECK_FAILED
    report.status = status
    return report, status


def run(argv: list[str]) -> tuple[Report, int]:
    return _run_parsed(_parser().parse_args(argv))


def _requested_output(argv: list[str]) -> str:
    """The --output of an argv that fails to parse, as far as it can be read."""
    peek = _Parser(add_help=False)
    peek.add_argument("--output", choices=["text", "json"], default="text")
    try:
        return peek.parse_known_args(argv)[0].output
    except _ParseError:
        return "text"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
    except SystemExit:  # --help printed its text
        return EXIT_OK
    except _ParseError as exc:
        report = Report(command=exc.command, params={}, error=f"error: {exc}",
                        status=EXIT_USAGE)
        status, output = EXIT_USAGE, _requested_output(argv)
    else:
        report, status = _run_parsed(args)
        output = args.output
    if status == EXIT_USAGE:
        print(f"ghbasis {report.command}".rstrip() + f": {report.error}", file=sys.stderr)
    if output == "json":
        print(report.to_json())
    elif status != EXIT_USAGE:
        print(report.to_text())
    return status


if __name__ == "__main__":
    sys.exit(main())
