"""Hooks into the program's layers, installed from outside the program.

``CountingBackend`` is the sub-solver the benchmark hands to
``run_portfolio(backend=...)``: it forwards to the reference branch and bound
and sums ``MipResult.nodes``. ``Tracer`` swaps each layer's public entry point
for a span-recording wrapper, at the name its caller looks it up by, and puts
the originals back on exit.
"""

import functools
import threading

import parlns.alns
import parlns.bandit
import parlns.operators
import parlns.orchestrator
import parlns.subsolver
from parlns.operators import EmptyNeighborhood, MissingRelaxation
from parlns.subsolver import Backend, get_backend


class CountingBackend:
    """Reference solver pair that counts B&B nodes; spans when a recorder is set."""

    def __init__(self, recorder=None):
        self.nodes = 0
        self.recorder = recorder
        self._lock = threading.Lock()
        reference = get_backend("reference")
        self.backend = Backend(
            "bench-counting",
            functools.partial(self._call, "subsolver.solve_mip", reference.solve_mip),
            functools.partial(
                self._call, "subsolver.find_first_feasible", reference.find_first_feasible
            ),
        )

    def _call(self, name, solve, *args, **kwargs):
        if self.recorder is None:
            result = solve(*args, **kwargs)
        else:
            with self.recorder.span(name) as span:
                result = solve(*args, **kwargs)
                span.attrs.update(
                    nodes=result.nodes,
                    status=result.status,
                    incumbent=result.incumbent is not None,
                )
        with self._lock:
            self.nodes += result.nodes
        return result


def _traced(recorder, name, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(result))
            return result

    return wrapper


def _lp_attrs(result):
    return {"pivots": result.iterations, "status": result.status}


def _traced_policy(recorder, cls):
    class Traced(cls):
        def select_arm(self, rng):
            with recorder.span("bandit.select_arm"):
                return super().select_arm(rng)

        def update(self, arm, outcome, rewards):
            with recorder.span("bandit.update"):
                return super().update(arm, outcome, rewards)

    Traced.__name__ = Traced.__qualname__ = cls.__name__
    return Traced


class Tracer:
    """Context manager that records spans for every layer call made inside it.

    ``request_prefix`` (the workload name) starts the request id of each
    worker span, which continues with instance and config id.
    """

    def __init__(self, recorder, request_prefix: str):
        self.recorder = recorder
        self.request_prefix = request_prefix
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, module, attr, replacement):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def __enter__(self):
        rec = self.recorder
        sub, alns = parlns.subsolver, parlns.alns
        try:
            self._patch(sub, "solve_relaxation", _traced(rec, "lp.solve_relaxation", sub.solve_relaxation, _lp_attrs))
            self._patch(sub, "build_relaxation", _traced(rec, "lp.build_relaxation", sub.build_relaxation))
            self._patch(alns, "solve_lp", _traced(rec, "lp.solve_lp", alns.solve_lp, _lp_attrs))
            self._patch(sub, "evaluate", _traced(rec, "model.evaluate", sub.evaluate))
            self._patch(alns, "evaluate", _traced(rec, "model.evaluate", alns.evaluate))
            self._patch(alns, "apply_neighborhood", _traced(rec, "model.apply_neighborhood", alns.apply_neighborhood))
            self._patch(parlns.operators, "build_neighborhood", self._build_neighborhood(parlns.operators.build_neighborhood))
            self._patch(parlns.orchestrator, "run_worker", self._run_worker(parlns.orchestrator.run_worker))
            for name in ("EpsilonGreedy", "Softmax", "ThompsonSampling"):
                self._patch(parlns.bandit, name, _traced_policy(rec, getattr(parlns.bandit, name)))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _build_neighborhood(self, fn):
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(spec, ctx, model):
            with rec.span("operators.build_neighborhood") as span:
                span.attrs["family"] = spec.family
                try:
                    return fn(spec, ctx, model)
                except (EmptyNeighborhood, MissingRelaxation) as exc:
                    span.attrs["skip"] = type(exc).__name__
                    raise

        return wrapper

    def _run_worker(self, fn):
        rec, prefix = self.recorder, self.request_prefix

        @functools.wraps(fn)
        def wrapper(model, config, *args, **kwargs):
            request = f"{prefix}/{model.name}/{config.id}"
            with rec.span("alns.run_worker", request=request) as span:
                result = fn(model, config, *args, **kwargs)
                span.attrs.update(iterations=result.iterations, skipped=result.skipped)
                return result

        return wrapper
