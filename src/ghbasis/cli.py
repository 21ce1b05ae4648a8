"""Command-line verification front end.

Subcommands: delta, hooks {enumerate, verify-dim, verify-basis, descendants},
ideal {verify, quotient-dim, normal-form}, zerox {count, verify}, suite.
Every run emits a report: text by default, or JSON of the shape
{"command", "params", "checks": [{"name", "expected", "actual", "pass"}],
"runtime_ms", "seed"}; the exit status is 0 iff every check passes, 2 for
usage errors and input that names no valid object (a one-line message on
stderr), 3 when a size limit is exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from math import factorial

from .annihilator import generators, annihilates, normal_form, proposition_instances, quotient_hilbert
from .checks import Check, criterion, run as run_checks
from .delta import build_delta
from .errors import (
    NotAHookError,
    PartitionError,
    PolynomialSyntaxError,
    RewriteDefectError,
    SizeLimitError,
)
from .hooks import descendant_graph, enumerate_drawings, closed_form_count, s_monomial
from .linalg import derivative_closure, homogeneous_family_rank
from .partitions import hook_partition, parse_partition
from .poly import apply_diff, format_poly, format_monomial, parse_poly
from .zerox import count_check, corner_recursion_check, verify_zero_x_degree_basis

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE_LIMIT = 3


class UsageError(ValueError):
    """Command-line input that parses but names no valid object."""


_INPUT_ERRORS = (PartitionError, PolynomialSyntaxError, NotAHookError, UsageError)


@dataclass
class Report:
    command: str
    params: dict
    checks: list[Check] = field(default_factory=list)
    runtime_ms: int = 0
    seed: int = 0
    extra_lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "checks": [c.to_dict() for c in self.checks],
            "runtime_ms": self.runtime_ms,
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=False)

    def to_text(self) -> str:
        lines = list(self.extra_lines)
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}: expected {c.expected}, got {c.actual}")
        lines.append(f"{self.command}: {'ok' if self.ok else 'FAILED'} "
                     f"({len(self.checks)} checks, {self.runtime_ms} ms, seed {self.seed})")
        return "\n".join(lines)


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=["text", "json"], default="text")
    common.add_argument("--seed", type=int, default=0,
                        help="logged in the report; no check is randomized")
    common.add_argument("--threads", type=int, default=0,
                        help="worker threads for independent checks (0 = sequential)")
    common.add_argument("--limit-n", type=int, default=7, dest="limit_n",
                        help="safety cap on n for enumerative commands")

    top = argparse.ArgumentParser(prog="ghbasis",
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

def _capped(mu, args):
    """mu itself, once its n is checked against --limit-n."""
    if mu.n > args.limit_n:
        raise SizeLimitError(f"n = {mu.n} exceeds --limit-n = {args.limit_n}")
    return mu


def _cmd_delta(args, report: Report) -> None:
    mu = _capped(parse_partition(args.partition), args)
    delta = build_delta(mu, limit=args.limit_n)
    text = format_poly(delta.value)
    report.extra_lines.append(text)
    report.checks.append(Check("bidegree (n(mu), n(mu'))",
                               list(delta.bidegree),
                               [delta.value.xdeg(), delta.value.ydeg()]))
    report.checks.append(Check("delta", text, text))


def _cmd_hooks(args, report: Report) -> None:
    mu = _capped(hook_partition(args.k, args.l), args)
    K, L, n = args.k, args.l, mu.n
    if args.subcommand == "enumerate":
        drawings = enumerate_drawings(K, L, limit=args.limit_n)
        if args.list_drawings:
            for d in drawings:
                report.extra_lines.append(json.dumps(d.to_json_dict()))
        report.checks.append(Check("drawing count = n!", factorial(n), len(drawings)))
        report.checks.append(Check("closed-form count = n!", factorial(n),
                                   closed_form_count(K, L)))
    elif args.subcommand == "verify-dim":
        delta = build_delta(mu)
        dim, _ = derivative_closure(delta)
        report.checks.append(Check("dim M_mu", factorial(n), dim))
    elif args.subcommand == "verify-basis":
        delta = build_delta(mu)
        drawings = enumerate_drawings(K, L, limit=args.limit_n)
        images = [apply_diff(s_monomial(d, n), delta.value) for d in drawings]
        report.checks.append(Check("rank of drawing images", factorial(n),
                                   homogeneous_family_rank(images)))
    elif args.subcommand == "descendants":
        delta = build_delta(mu)
        _, edges, acyclic = descendant_graph(K, L, delta, limit=args.limit_n)
        report.checks.append(Check("descendant graph acyclic", True, acyclic))
        report.extra_lines.append(
            f"{sum(len(v) for v in edges.values())} son edges over {len(edges)} drawings")


def _cmd_ideal(args, report: Report) -> None:
    mu = _capped(hook_partition(args.k, args.l), args)
    K, L, n = args.k, args.l, mu.n
    delta = build_delta(mu)
    if args.subcommand == "verify":
        gens = generators(K, L)
        bad = [tag for tag, p in gens.entries if not annihilates(p, delta)]
        report.checks.append(Check("generators annihilating Delta", len(gens), len(gens) - len(bad)))
        if n <= criterion("A5b").full:
            for which in (1, 2, 3, 4):
                seen = ok = 0
                for inst in proposition_instances(n, K, L, which):
                    seen += 1
                    ok += annihilates(inst, delta)
                report.checks.append(Check(f"schema-{which} instances annihilating", seen, ok))
    elif args.subcommand == "quotient-dim":
        qt = quotient_hilbert(K, L, limit=args.limit_n)
        report.checks.append(Check("quotient total", factorial(n), qt.total))
        report.checks.append(Check("shell dimensions vanish", True, qt.shell_zero))
        _, closure_table = derivative_closure(delta)
        report.checks.append(Check("graded table matches derivative closure", True,
                                   qt.table == closure_table))
        for (a, b), v in sorted(qt.table.items()):
            report.extra_lines.append(f"dim at bidegree ({a},{b}): {v}")
    elif args.subcommand == "normal-form":
        poly = parse_poly(args.op, n=n)
        if len(poly.terms) != 1 or next(iter(poly.terms.values())) != 1:
            raise UsageError("--op must be a single monic monomial")
        op = next(iter(poly.terms))
        nf = normal_form(op, K, L, delta=delta, validate=True)
        for d, c in sorted(nf.items(), key=lambda item: format_monomial(s_monomial(item[0], n))):
            report.extra_lines.append(f"{c} * d[{format_monomial(s_monomial(d, n)) or '1'}]")
        report.checks.append(Check("normal form applies back to op(d)Delta", True, True))
        report.extra_lines.append(f"{len(nf)} drawing terms")


def _cmd_zerox(args, report: Report) -> None:
    mu = _capped(parse_partition(args.partition), args)
    if args.subcommand == "count":
        count, expected = count_check(mu, limit=args.limit_n)
        report.checks.append(Check("drawing count = n!/mu'!", expected, count))
        report.checks.append(Check("corner recursion identity", True,
                                   corner_recursion_check(mu)))
    else:
        delta = build_delta(mu)
        result = verify_zero_x_degree_basis(mu, delta, limit=args.limit_n)
        expected = result["expected"]
        report.checks.append(Check("drawing count = n!/mu'!", expected, result["count"]))
        report.checks.append(Check("images have x-degree 0", True, result["x_degree_zero_ok"]))
        report.checks.append(Check("white images have top x-degree", True, result["x_degree_top_ok"]))
        report.checks.append(Check("minimal-monomial triangularity", True, result["triangularity_ok"]))
        report.checks.append(Check("distinct minimal monomials", True,
                                   result["distinct_minimal_monomials"]))
        report.checks.append(Check("rank of cross images", expected, result["rank_s"]))
        report.checks.append(Check("rank of white images", expected, result["rank_t"]))
        report.checks.append(Check("closure x-degree-0 slice", expected, result["dim_zero_slice"]))


def _cmd_suite(args, report: Report) -> None:
    """Every registered criterion at its bound for --level (see ghbasis.checks)."""
    report.checks.extend(row for _, row in run_checks(args.level, threads=args.threads))


_COMMANDS = {
    "delta": _cmd_delta,
    "hooks": _cmd_hooks,
    "ideal": _cmd_ideal,
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
        report.extra_lines.append(f"size limit: {exc}")
        status = EXIT_SIZE_LIMIT
    except _INPUT_ERRORS as exc:
        report.extra_lines.append(f"error: {exc}")
        status = EXIT_USAGE
    except RewriteDefectError as exc:
        report.checks.append(Check("rewriting defect", None, str(exc)))
    report.runtime_ms = int((time.monotonic() - started) * 1000)
    if status is None:
        status = EXIT_OK if report.ok else EXIT_CHECK_FAILED
    return report, status


def run(argv: list[str]) -> tuple[Report, int]:
    return _run_parsed(_parser().parse_args(argv))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_USAGE if code not in (0, None) else 0
    report, status = _run_parsed(args)
    if status == EXIT_USAGE:
        print(f"ghbasis {report.command}: {report.extra_lines[-1]}", file=sys.stderr)
    elif args.output == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return status


if __name__ == "__main__":
    sys.exit(main())
