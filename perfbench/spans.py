"""Per-layer spans and work counts, recorded from outside the library.

``Tracer.install()`` replaces each listed public function of ``ghbasis``, in
every ``ghbasis`` module that holds a reference to it, with a recorder;
``Polynomial.__mul__`` and ``Eliminator.add`` are replaced on their classes.
No source file is edited.  A function that no longer exists is reported as
absent (``None``) and the round goes on, so a later change that deletes or
renames one does not break the benchmark.

Every recorded call is a span with a name, start, end and parent.  Leaf calls
made up to hundreds of thousands of times a round (``AGGREGATED``) are summed
per enclosing span as a count and a total instead of being stored one by one.
Self time is a span's duration minus the time of its direct child spans.
Spans stay in memory and are returned by ``report()`` at the end of the round.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (metric stem, attribute path under ghbasis, aggregated)
TRACED = (
    ("delta.build_delta", "delta.build_delta", False),
    ("hooks.enumerate_drawings", "hooks.enumerate_drawings", False),
    ("hooks.descendant_graph", "hooks.descendant_graph", False),
    ("poly.apply_diff", "poly.apply_diff", True),
    ("poly.apply_diff_poly", "poly.apply_diff_poly", True),
    ("poly.mul", "poly.Polynomial.__mul__", True),
    ("linalg.derivative_closure", "linalg.derivative_closure", False),
    ("linalg.homogeneous_family_rank", "linalg.homogeneous_family_rank", False),
    ("linalg.eliminator_add", "linalg.Eliminator.add", True),
    ("annihilator.generators", "annihilator.generators", False),
    ("annihilator.annihilates", "annihilator.annihilates", True),
    ("annihilator.proposition_instances", "annihilator.proposition_instances", True),
    ("annihilator.normal_form", "annihilator.normal_form", False),
    ("annihilator.reduce_step", "annihilator.reduce_step", True),
    ("annihilator.quotient_hilbert", "annihilator.quotient_hilbert", False),
    ("zerox.enumerate_general", "zerox.enumerate_general", False),
    ("zerox.check_minimal_monomials", "zerox.check_minimal_monomials", False),
    ("zerox.verify_zero_x_degree_basis", "zerox.verify_zero_x_degree_basis", False),
    ("zerox.count_check", "zerox.count_check", False),
    ("zerox.corner_recursion_check", "zerox.corner_recursion_check", False),
    ("cli.run", "cli.run", False),
)

# Functions whose call count is reported as "<stem>.calls".
CALLS_REPORTED = ("poly.apply_diff", "poly.apply_diff_poly", "poly.mul",
                  "annihilator.annihilates", "annihilator.normal_form")


def _eliminator_add(counts, args, accepted):
    # A kept row is the newest pivot row: its coefficients are what the kernel produced.
    if accepted:
        counts["linalg.rows_accepted"] += 1
        elim = args[0]
        coeffs = elim.pivots[elim.trail[-1][1]].values()
        bits = max(max(coeffs), -min(coeffs)).bit_length()
        counts["poly.max_coeff_bits"] = max(counts["poly.max_coeff_bits"], bits)


def _adder(counter, measure):
    def observe(counts, args, result):
        counts[counter] += measure(result)
    return (counter,), observe


# stem -> (counters it feeds, observer(counts, args, result))
OBSERVERS = {
    "delta.build_delta": _adder("delta.terms", lambda r: len(r.value.terms)),
    "hooks.enumerate_drawings": _adder("hooks.drawings", len),
    "hooks.descendant_graph": _adder("hooks.son_edges",
                                     lambda r: sum(len(sons) for sons in r[1].values())),
    "poly.apply_diff": _adder("poly.apply_diff.terms_out", lambda r: len(r.terms)),
    "linalg.eliminator_add": (("linalg.rows_accepted", "poly.max_coeff_bits"), _eliminator_add),
    "linalg.derivative_closure": _adder("linalg.closure_dim", lambda r: r[0]),
    # Each recorded step of the generator returns one instance, or _DONE at the end.
    "annihilator.proposition_instances": _adder("annihilator.instances",
                                                lambda item: item is not _DONE),
    "annihilator.normal_form": _adder("annihilator.nf_terms", len),
    "zerox.enumerate_general": _adder("zerox.drawings", len),
    "cli.run": _adder("cli.checks", lambda r: len(r[0].checks)),
}

_DONE = object()


def _next_or_done(iterator):
    return next(iterator, _DONE)


def metric_names() -> list[str]:
    """Every per-layer metric a traced round reports, in a fixed order."""
    names = [f"{stem}.self_s" for stem, _, _ in TRACED]
    names += [f"{stem}.calls" for stem in CALLS_REPORTED]
    names += ["linalg.rows_offered", "linalg.row_yield", "annihilator.rewrite_steps"]
    names += [c for counters, _ in OBSERVERS.values() for c in counters]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"linalg.row_yield": "ratio", "poly.max_coeff_bits": "bits"}.get(name, "count")


class Tracer:
    def __init__(self, traced=TRACED):
        self.traced = traced
        self.stats = {stem: [0, 0.0] for stem, _, _ in traced}  # calls, self seconds
        self.counts = {c: 0 for counters, _ in OBSERVERS.values() for c in counters}
        self.absent: set[str] = set()
        self.spans: list[tuple] = []  # (id, stem, start, end, parent id)
        self.aggregates: dict[tuple[int, str], list] = {}  # (span id, stem) -> [calls, seconds]
        self.origin = time.perf_counter()
        self._stack = [[0.0, 0]]  # frames: [child seconds, id of the enclosing stored span]
        self._next_id = 1  # span 0 is the round itself

    def install(self) -> None:
        for stem, path, aggregated in self.traced:
            module_name, *attrs = path.split(".")
            try:
                owner = importlib.import_module(f"ghbasis.{module_name}")
            except ImportError:
                owner = None
            for attr in attrs[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, attrs[-1], None)
            if not callable(original):
                self.absent.add(stem)
                continue
            recorder = self._recorder(stem, original, aggregated)
            if isinstance(owner, type):
                setattr(owner, attrs[-1], recorder)
                continue
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "ghbasis" or name.startswith("ghbasis.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, recorder)

    def _recorder(self, stem, fn, aggregated):
        if inspect.isgeneratorfunction(fn):
            step = self._timed(stem, _next_or_done, aggregated)

            @functools.wraps(fn)
            def generator_recorder(*args, **kwargs):
                inner = fn(*args, **kwargs)  # creating the generator runs none of its body
                while (item := step(inner)) is not _DONE:
                    yield item

            return generator_recorder
        return functools.wraps(fn)(self._timed(stem, fn, aggregated))

    def _timed(self, stem, fn, aggregated):
        clock = time.perf_counter
        stack = self._stack
        stat = self.stats[stem]
        counters, observe = OBSERVERS.get(stem, ((), None))

        def recorder(*args, **kwargs):
            if aggregated:
                span = stack[-1][1]
            else:
                span = self._next_id
                self._next_id += 1
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                stack[-1][0] += elapsed
                if aggregated:
                    total = self.aggregates.setdefault((span, stem), [0, 0.0])
                    total[0] += 1
                    total[1] += elapsed
                else:
                    self.spans.append((span, stem, start - self.origin, end - self.origin,
                                       stack[-1][1]))
            if observe is not None and not self.absent.intersection(counters):
                try:
                    observe(self.counts, args, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # The library changed the shape of what this counter reads.
                    self.absent.update(counters)
            return result

        return recorder

    def metrics(self) -> dict:
        def calls(stem):
            return None if stem in self.absent else self.stats[stem][0]

        out = {f"{stem}.self_s": None if stem in self.absent else self.stats[stem][1]
               for stem, _, _ in self.traced}
        for stem in CALLS_REPORTED:
            out[f"{stem}.calls"] = calls(stem)
        offered = calls("linalg.eliminator_add")
        out["linalg.rows_offered"] = offered
        out["annihilator.rewrite_steps"] = calls("annihilator.reduce_step")
        for counters, _ in OBSERVERS.values():
            for c in counters:
                out[c] = None if c in self.absent else self.counts[c]
        accepted = out["linalg.rows_accepted"]
        if offered is None or accepted is None:
            out["linalg.row_yield"] = None
        else:  # 0 when the round offered no rows
            out["linalg.row_yield"] = accepted / offered if offered else 0.0
        return out

    def report(self) -> dict:
        return {
            "metrics": self.metrics(),
            "absent": sorted(self.absent),
            "spans": self.spans,
            "aggregates": [[span, stem, calls, seconds]
                           for (span, stem), (calls, seconds) in self.aggregates.items()],
        }
