"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces chosen public functions of ``twincal`` modules with
timing wrappers, in every module namespace that holds them: the defining
module (so ``regress.fit_ridge`` attribute calls are seen) and every module
that imported the name (so ``calibrate.impute_dense`` is seen too). It also
counts ``np.linalg.svd`` and ``np.linalg.solve`` calls and credits each to
the module of the innermost open span. Spans are aggregated per
(name, parent) as they close, because ``project_simplex`` and the mirror
descent objective run 10^5 times per invocation. ``uninstall`` puts every
original back. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import warnings

import numpy as np

# (module, function) pairs to wrap. Counted-only functions still get a span;
# per-call cost stays near a microsecond.
LAYER_FUNCTIONS = {
    "matcore": ("read_matrix_csv", "write_matrix_csv", "pearson"),
    "completion": (
        "estimate_effective_rank", "impute_dense", "hard_impute", "soft_impute",
        "als_impute", "synthetic_prior_impute", "stacked_complete",
    ),
    "regress": ("fit_ridge", "fit_elastic_net", "fit_simplex", "project_simplex"),
    "calibrate": ("loo_evaluate", "sweep_thresholds"),
    "diagnostics": (
        "alignment_report", "variance_explained", "principal_angle_cosines",
        "projection_frobenius",
    ),
    "distcal": ("cross_table", "fit_weights", "objective_and_gradient",
                "evaluate_on_questions"),
    "synth": ("generate_latent_world", "generate_discrete_world"),
}

# regression fits whose ConvergenceWarnings are counted per family
WARNING_COUNTED = ("regress.fit_elastic_net", "regress.fit_simplex")

LINALG_COUNTED = ("svd", "solve")


class SpanStats:
    __slots__ = ("calls", "total", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


class Tracer:
    """Aggregated spans plus work counters for the wrapped functions.

    ``spans[(name, parent)]`` holds call count, total time and the time
    covered by child spans; ``counters[key]`` holds counts such as
    ``completion.svd_calls`` or ``regress.fit_simplex.not_converged``.
    """

    def __init__(self, modules=None) -> None:
        self.modules = dict(LAYER_FUNCTIONS if modules is None else modules)
        self.spans: dict[tuple[str, str | None], SpanStats] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, child_time]
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += duration
        stats = self.spans.get((name, parent))
        if stats is None:
            stats = self.spans[(name, parent)] = SpanStats()
        stats.calls += 1
        stats.total += duration
        stats.child += child

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the caller opens by hand (e.g. around ``cli.main``)."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _current_module(self) -> str:
        return self._stack[-1][0].split(".", 1)[0] if self._stack else "none"

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        if name in WARNING_COUNTED:
            from twincal.matcore import ConvergenceWarning

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer._enter(name)
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", ConvergenceWarning)
                        result = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                n_warn = sum(issubclass(w.category, ConvergenceWarning) for w in caught)
                tracer.count(name + ".not_converged", n_warn)
                return result

            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._observe(name, args, kwargs, result)
            return result

        return timed

    def _observe(self, name: str, args, kwargs, result) -> None:
        """Work counters read from a wrapped call's arguments or result."""
        if name == "matcore.read_matrix_csv":
            matrix = result[0] if isinstance(result, tuple) else result
            self.count(name + ".cells", int(matrix.values.size))
        elif name == "matcore.write_matrix_csv":
            matrix = args[1] if len(args) > 1 else kwargs["matrix"]
            self.count(name + ".cells", int(np.asarray(getattr(matrix, "values", matrix)).size))
        elif name == "calibrate.loo_evaluate":
            report = result[0] if isinstance(result, tuple) else result
            self.count("calibrate.targets", len(report.per_target))
            self.count("calibrate.targets_skipped", int(report.skipped_count))
        elif name == "calibrate.sweep_thresholds":
            human = args[0] if args else kwargs["human"]
            orientation = args[4] if len(args) > 4 else kwargs.get("orientation", "new_question")
            new_user = str(getattr(orientation, "value", orientation)) == "new_user"
            self.count("calibrate.targets", human.shape[0] if new_user else human.shape[1])
            # the sweep reports skips per tau; count those of the tau that skipped fewest
            self.count("calibrate.targets_skipped", min(r["skipped"] for r in result))

    def _wrap_linalg(self, op: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(f"{tracer._current_module()}.{op}_calls")
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        """Wrap every listed function in every twincal module that holds it."""
        import importlib

        originals = {}
        for module, functions in self.modules.items():
            mod = importlib.import_module(f"twincal.{module}")
            for fn_name in functions:
                originals[id(getattr(mod, fn_name))] = f"{module}.{fn_name}"
        wrappers = {}
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "twincal" or mod_name.startswith("twincal.")):
                continue
            for attr, value in list(vars(mod).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
                self._patch(mod, attr, wrappers[id(value)])
        for op in LINALG_COUNTED:
            self._patch(np.linalg, op, self._wrap_linalg(op, getattr(np.linalg, op)))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function totals, per-module self time and the counters.

        ``functions[name]`` has ``calls``, ``s`` (total) and ``self_s``;
        ``self_s`` of a module sums the self time of its spans, i.e. span
        time not covered by a child span of any module.
        """
        functions: dict[str, dict] = {}
        modules: dict[str, float] = {}
        for (name, _parent), stats in self.spans.items():
            entry = functions.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            self_s = stats.total - stats.child
            entry["calls"] += stats.calls
            entry["s"] += stats.total
            entry["self_s"] += self_s
            module = name.split(".", 1)[0]
            modules[module] = modules.get(module, 0.0) + self_s
        return {
            "functions": functions,
            "module_self_s": modules,
            "counters": dict(self.counters),
            "edges": [
                {"name": n, "parent": p, "calls": s.calls, "s": s.total, "child_s": s.child}
                for (n, p), s in sorted(self.spans.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
            ],
        }
