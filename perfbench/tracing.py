"""Outside-in span tracing of rsfield's layers.

The tracer replaces public functions of the program's modules with
timing wrappers *at the binding the caller uses* (for example
``rsfield.cli.solve_modes`` rather than ``rsfield.casimir.solve_modes``),
so nothing under ``src/`` is edited.  Each wrapped call records one span
``(op, id, parent, name, start, end, extra)``; spans live in memory and
are written out once, after the last op.  An entry point that no longer
exists is reported as absent instead of failing the run, so a later
refactor loses a span but keeps every timed metric.

``analyse_op`` turns the spans of one op into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

# (span name, "module:attribute.path").  One function object reached
# through two bindings gets one wrapper, so a call is counted once
# whichever binding the caller used.
ENTRY_POINTS = (
    ("casimir.solve_modes", "rsfield.cli:solve_modes"),
    ("casimir.growth_law", "rsfield.cli:growth_law_residual"),
    ("casimir.closed_form", "rsfield.cli:casimir_generators_closed_form"),
    ("casimir.closed_form", "rsfield.casimir:casimir_generators_closed_form"),
    ("casimir.extracted", "rsfield.cli:casimir_generators_extracted"),
    ("symplectic.map", "rsfield.cli:casimir_map"),
    ("symplectic.bogoliubov_map", "rsfield.symplectic:BogoliubovMap.__post_init__"),
    ("symplectic.classicality", "rsfield.cli:is_classical_closed"),
    ("symplectic.classicality", "rsfield.cli:is_classical_open"),
    ("symplectic.verify", "rsfield.cli:verify_symplectic"),
    ("kinetics.extract_open", "rsfield.casimir:extract_open_generators"),
    ("kinetics.generators", "rsfield.kinetics:KineticGenerators.__post_init__"),
    ("numerics.solve_ivp", "rsfield.numerics:solve_ivp"),
    ("numerics.dense_at", "rsfield.numerics:DenseOdeSolution.at"),
    ("fock.evolve", "rsfield.fock:evolve"),
    ("fock.hamiltonian", "rsfield.fock:QuadraticHamiltonian.matrix"),
    ("fock.measure_rsf", "rsfield.fock:measure_rsf"),
    ("fock.measure_rsf", "rsfield.cli:measure_rsf"),
    ("rsf.from_moments", "rsfield.fock:from_state_moments"),
    ("rsf.expect_additive", "rsfield.cli:expect_additive"),
)

OP_SPAN = "cli.op"


def _solver_stats(result):
    return {"nfev": int(result.nfev), "steps": int(result.t.size - 1)}


def _matrix_dim(result):
    return {"dim": int(result.shape[0])}


def _state_dim(result):
    return {"dim": int(result.amplitudes.size)}


# Counts read off a call's result; a result of another shape (after a
# refactor) loses the count, not the op.
EXTRA = {
    "numerics.solve_ivp": _solver_stats,
    "fock.hamiltonian": _matrix_dim,
    "fock.evolve": _state_dim,
}


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._root = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        extra_of = EXTRA.get(name)
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            stack.append(sid)
            result = extra = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                if extra_of is not None and result is not None:
                    try:
                        extra = extra_of(result)
                    except (AttributeError, TypeError, ValueError):
                        extra = None
                spans.append((self._op, sid, parent, name, t0, t1, extra))

        return wrapper

    def install(self, entry_points=ENTRY_POINTS):
        wrappers = {}
        for name, target in entry_points:
            module_name, _, path = target.partition(":")
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            key = id(fn)
            if key not in wrappers:
                wrappers[key] = self._wrap(fn, name)
            setattr(owner, attr, wrappers[key])

    def begin_op(self, op):
        self._op = op
        self._root = next(self._ids)
        stack = self._stack()
        stack.clear()
        stack.append(self._root)
        return time.perf_counter()

    def end_op(self, t0):
        t1 = time.perf_counter()
        self._stack().clear()
        self.spans.append((self._op, self._root, 0, OP_SPAN, t0, t1, None))
        self._root = 0
        return t1 - t0


def _union(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def analyse_op(spans):
    """Per-layer metrics and layer shares of one traced op's spans."""
    by_name = {}
    children = {}
    root = None
    for span in spans:
        by_name.setdefault(span[3], []).append(span)
        children.setdefault(span[2], []).append(span)
        if span[3] == OP_SPAN:
            root = span
    op_wall = root[5] - root[4]

    def dur(name):
        return sum(s[5] - s[4] for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def self_time(span):
        return (span[5] - span[4]) - _union(
            (c[4], c[5]) for c in children.get(span[1], ())
        )

    def descendants(span):
        todo, out = [span[1]], []
        while todo:
            for c in children.get(todo.pop(), ()):
                out.append(c)
                todo.append(c[1])
        return out

    solves = by_name.get("numerics.solve_ivp", ())
    evolves = by_name.get("fock.evolve", ())
    evolve_nfev = 0
    evolve_bytes = 0
    for ev in evolves:
        dim = ev[6]["dim"] if ev[6] else 0
        nfev = sum(
            d[6]["nfev"] for d in descendants(ev)
            if d[3] == "numerics.solve_ivp" and d[6]
        )
        evolve_nfev += nfev
        # one dense complex128 mat-vec product per right-hand-side call
        evolve_bytes += nfev * dim * dim * 16
    # QuadraticHamiltonian.matrix forms ten real D x D matrix products
    flops = sum(
        20 * h[6]["dim"] ** 3 for h in by_name.get("fock.hamiltonian", ()) if h[6]
    )
    not_cli = [(s[4], s[5]) for s in spans if not s[3].startswith("cli.")]

    metrics = {
        "numerics.solve_ivp.s": dur("numerics.solve_ivp"),
        "numerics.solve_ivp.nfev": sum(s[6]["nfev"] for s in solves if s[6]),
        "numerics.solve_ivp.steps": sum(s[6]["steps"] for s in solves if s[6]),
        "numerics.dense_at.calls": count("numerics.dense_at"),
        "numerics.dense_at.s": dur("numerics.dense_at"),
        "casimir.solve_modes.self_s": sum(
            self_time(s) for s in by_name.get("casimir.solve_modes", ())
        ),
        "casimir.growth_law.s": dur("casimir.growth_law"),
        "casimir.closed_form.s": dur("casimir.closed_form"),
        "casimir.closed_form.calls": count("casimir.closed_form"),
        "casimir.extracted.s": dur("casimir.extracted"),
        "casimir.extracted.calls": count("casimir.extracted"),
        "kinetics.extract_open.s": dur("kinetics.extract_open"),
        "kinetics.generators_built": count("kinetics.generators"),
        "symplectic.map.s": dur("symplectic.map"),
        "symplectic.maps_built": count("symplectic.bogoliubov_map"),
        "symplectic.classicality.s": dur("symplectic.classicality"),
        "symplectic.verify.s": dur("symplectic.verify"),
        "fock.evolve.s": dur("fock.evolve"),
        "fock.evolve.nfev": evolve_nfev,
        "fock.evolve.bytes_computed": evolve_bytes,
        "fock.hamiltonian.s": dur("fock.hamiltonian"),
        "fock.hamiltonian.flops_computed": flops,
        "fock.measure_rsf.s": dur("fock.measure_rsf"),
        "rsf.s": dur("rsf.from_moments") + dur("rsf.expect_additive"),
        "cli.self_s": op_wall - _union(not_cli),
        "trace.op_wall_s": op_wall,
    }

    # Exclusive time per layer (the first component of the span name);
    # the op's own self time is the cli layer's.
    exclusive = {}
    for span in spans:
        layer = span[3].split(".")[0]
        exclusive[layer] = exclusive.get(layer, 0.0) + self_time(span)
    busy = sum(exclusive.values())
    per_sample = [
        (s[4], s[5]) for s in spans
        if s[3] in ("casimir.growth_law", "casimir.closed_form", "casimir.extracted")
        or s[3].startswith(("symplectic.", "kinetics."))
    ]
    shares = {
        "layers": {k: v / busy for k, v in sorted(exclusive.items())},
        "solve_ivp": metrics["numerics.solve_ivp.s"] / op_wall,
        "per_sample": _union(per_sample) / op_wall,
        "fock": _union((s[4], s[5]) for s in spans if s[3].startswith("fock.")) / op_wall,
        "casimir_spans": sum(1 for s in spans if s[3].startswith("casimir.")),
    }
    return metrics, shares
