"""Spans and counters recorded from outside the cflat package.

The tracer replaces public functions and methods at the attribute their
callers look them up on (a module global, or the class in the MRO that
defines a method) and restores the originals on ``uninstall``. Nothing under
``src/`` changes.

A span is (id, parent id, iteration, name, start, end, self seconds). Self
time is the span's duration minus the time its direct child spans cover;
calls are single-threaded, so children nest strictly. Hot, tiny calls
(ParamVector construction and views, forward passes) are counters only.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

# Oracle entry points, traced on MlpOracle ("objective.*") and on
# DistillObjective, which lives in cflat.continual ("continual.distill.*").
_ORACLE_METHODS = ("loss", "grad", "hvp")

# Module functions: (module, attribute, span name). Each is patched in the
# namespace its caller resolves it from.
_FUNCTION_SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "cmd_run", "cli.run"),
    ("cli", "run_experiment_from_config", "cli.run"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "cmd_report", "cli.report"),
    ("cli", "cmd_landscape", "cli.landscape"),
    ("cli", "run_cl_experiment", "continual.run_cl_experiment"),
    ("cli", "synth_dataset", "continual.dataset"),
    ("cli", "make_stream", "continual.dataset"),
    ("continual", "buffer_update", "continual.dataset"),
    ("continual", "buffer_contents", "continual.dataset"),
    ("continual", "train_epochs", "continual.train_epochs"),
    ("continual", "gpm_extract_basis", "continual.gpm_basis"),
    ("continual", "gpm_update_basis", "continual.gpm_basis"),
    ("continual", "gpm_project", "continual.gpm_project"),
    ("cli", "flatness_report", "landscape.report"),
    ("landscape", "power_iter_lambda_max", "landscape.power_iter"),
    ("cli", "top2_eigenpairs", "landscape.power_iter"),
    ("landscape", "hutchinson_trace", "landscape.hutchinson"),
    ("landscape", "r0_bruteforce", "landscape.r0"),
    ("landscape", "r1_bruteforce", "landscape.r1"),
    ("cli", "landscape_slice_2d", "landscape.slice"),
    ("cli", "average_accuracy", "metrics"),
    ("cli", "last_accuracy", "metrics"),
    ("cli", "bwt", "metrics"),
    ("cli", "fwt", "metrics"),
    ("cli", "cflat_proportion", "metrics"),
    ("cli", "relative_return", "metrics"),
)

# Power-iteration runs per call, for the matvec budget (iters + 1 per run).
_POWER_RUNS = {"power_iter_lambda_max": 1, "top2_eigenpairs": 2}


class Tracer:
    """Per-iteration counters and self times; spans kept when ``keep_spans``."""

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []
        self.iteration = 0
        self.by_iteration: dict[int, tuple[Counter, Counter]] = {}
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._oracle_depth = 0
        self._next_id = 0
        self._patches: list[tuple] = []

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.counts, self.self_s = self.by_iteration.setdefault(
            iteration, (Counter(), Counter())
        )

    # ---- wrappers -----------------------------------------------------

    def _span(self, name: str, fn, hook=None, oracle: str | None = None):
        tracer = self
        clock = time.perf_counter
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            if oracle is not None:
                tracer._oracle_enter(oracle, name, args, kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            stack.append(frame)
            opened = tracer._open
            opened[name] += 1
            opened[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened[name] -= 1
                opened[layer] -= 1
                if oracle is not None:
                    tracer._oracle_depth -= 1
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                own = duration - frame[1]
                tracer.counts[name + ".calls"] += 1
                tracer.self_s[name] += own
                if tracer.keep_spans:
                    tracer.spans.append((
                        frame[0], parent[0] if parent is not None else 0,
                        tracer.iteration, name, start, end, own,
                    ))

        return traced

    def _oracle_enter(self, kind: str, name: str, args, kwargs) -> None:
        counts = self.counts
        if self._oracle_depth == 0:
            counts["oracle.top." + kind] += 1
            if kind != "loss":
                if self._open["optim.step"]:
                    counts["oracle.top.grad_evals_in_steps"] += 1
                if self._open["landscape.power_iter"] and kind == "hvp":
                    counts["landscape.power_iter.hvps"] += 1
            if self._open["landscape"]:
                counts["landscape.oracle_calls"] += 1
        self._oracle_depth += 1
        if name.startswith("objective."):
            batch_pos = 3 if kind == "hvp" else 2
            batch = args[batch_pos] if len(args) > batch_pos else kwargs.get("batch")
            if batch is not None:
                counts["objective.rows"] += batch.n
                counts["objective.rows_calls"] += 1

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # ---- install ------------------------------------------------------

    def install(self, cflat_modules: dict) -> None:
        """Patch the package; ``cflat_modules`` maps short names to modules."""
        numcore = cflat_modules["numcore"]
        objective = cflat_modules["objective"]
        optim = cflat_modules["optim"]
        continual = cflat_modules["continual"]
        tracer = self

        pv = numcore.ParamVector
        pv_init, pv_view = pv.__init__, pv.view

        def paramvector_init(obj, *args, **kwargs):
            pv_init(obj, *args, **kwargs)
            counts = tracer.counts
            counts["numcore.paramvector.constructions"] += 1
            counts["numcore.paramvector.bytes_copied"] += obj.data.nbytes

        def paramvector_view(obj, name):
            tracer.counts["numcore.view.calls"] += 1
            return pv_view(obj, name)

        self._patch(pv, "__init__", paramvector_init)
        self._patch(pv, "view", paramvector_view)
        self._patch(objective.Batch, "__init__",
                    self._span("objective.batch", objective.Batch.__init__))

        oracle_classes = (
            (objective.MlpOracle, "objective"),
            (continual.DistillObjective, "continual.distill"),
        )
        for cls, prefix in oracle_classes:
            for method in _ORACLE_METHODS:
                owner = _defining_class(cls, method)
                self._patch(owner, method, self._span(
                    f"{prefix}.{method}", owner.__dict__[method], oracle=method))

        mlp = objective.MlpOracle
        for method in ("logits", "grad_from_output_error"):
            owner = _defining_class(mlp, method)
            self._patch(owner, method, self._forward_counter(owner.__dict__[method], method))

        steppers = [optim.Stepper]
        while steppers:
            cls = steppers.pop()
            steppers.extend(cls.__subclasses__())
            if "step" in cls.__dict__ and cls is not optim.Stepper:
                self._patch(cls, "step", self._span("optim.step", cls.__dict__["step"]))

        for module_name, attr, span_name in _FUNCTION_SPANS:
            module = cflat_modules[module_name]
            fn = module.__dict__[attr]
            hook = None
            if attr in _POWER_RUNS:
                hook = self._power_budget_hook(fn, _POWER_RUNS[attr])
            self._patch(module, attr, self._span(span_name, fn, hook=hook))

    def _forward_counter(self, fn, method: str):
        tracer = self
        eval_span = self._span("continual.eval", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts = tracer.counts
            opened = tracer._open
            counts["objective.forward_passes"] += 1
            if opened["optim.step"]:
                counts["objective.forward_passes_in_steps"] += 1
            if (method == "logits" and tracer._oracle_depth == 0
                    and opened["continual.run_cl_experiment"]
                    and not opened["continual.train_epochs"]):
                return eval_span(*args, **kwargs)
            return fn(*args, **kwargs)

        return counted

    def _power_budget_hook(self, fn, runs: int):
        signature = inspect.signature(fn)

        def hook(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["landscape.power_iter.budget"] += runs * (bound.arguments["iters"] + 1)

        return hook

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- output -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Inclusive durations of every kept span with this name."""
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,iteration,name,start,end,self_s\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%s,%r,%r,%r\n" % span)


def _defining_class(cls, attr: str):
    return next(c for c in cls.__mro__ if attr in c.__dict__)
