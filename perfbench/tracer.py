"""Outside-in tracer: spans around calls into adialab's layer functions.

The library is not instrumented.  Instead each layer function is replaced,
in every adialab module that binds it, by a wrapper that records a span
(function, start, end, parent span, job id) and the work items computed
from its argument shapes.  `theorem`, `proofcheck`, `evolution` and `cli`
each hold their own `from .x import f` reference, so patching the defining
module alone would miss most calls.

A layer function that no longer exists under its name is reported as
missing: its metrics come out as null, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np


def _batch_count(mats) -> int:
    return int(np.prod(np.shape(mats)[:-2], dtype=np.int64))


def _product_flops(mats) -> int:
    # a complex d x d matmul is d^3 multiply-adds of 8 real flops each;
    # an ordered product of n matrices does n - 1 of them
    n, d = np.shape(mats)[0], np.shape(mats)[-1]
    return 8 * d**3 * max(n - 1, 0)


# "module.function" -> {stat: (argument name, count from the argument)}.
# Every function listed here is wrapped; its calls and self time are
# recorded, plus the stats named.
LAYER_FUNCTIONS: dict[str, dict] = {
    "_linalg.expm_i_hermitian": {"matrices": ("mats", _batch_count)},
    "_linalg.ordered_product": {
        "matrices": ("mats", lambda m: int(np.shape(m)[0])),
        "flops": ("mats", _product_flops),
    },
    "_linalg.opnorm_hermitian": {"matrices": ("mats", _batch_count)},
    "_linalg.opnorm": {},
    "hamiltonians.eval_batch": {"matrices": ("s_values", np.size)},
    "hamiltonians.derivative": {},
    "hamiltonians.norm_bundle": {},
    "spectral.track_eigenpath": {"points": ("grid_size", int)},
    "evolution.evolve_discrete": {"steps": ("cfg", lambda cfg: int(cfg.steps))},
    "evolution.evolve_adaptive": {},
    "theorem.verify": {},
    "proofcheck.run_proofcheck": {},
    "proofcheck.check_error_vector_taylor": {},
    "proofcheck.check_error_vector_norm": {},
    "proofcheck.check_error_vector_drift": {},
    "proofcheck.check_step_unitary_drift": {},
    "proofcheck.check_block_cancellation": {},
    "proofcheck.total_error_vector": {},
    "cli.main": {},
}

ADAPTIVE = "evolution.evolve_adaptive"
DISCRETE = "evolution.evolve_discrete"


def metric_prefix(function: str) -> str:
    """Metric name prefix of a layer function (names start with a letter)."""
    return function.lstrip("_")


def _argument_reader(fn, name: str):
    """Positional index and default of parameter ``name``, or None."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    for index, param in enumerate(params):
        if param.name == name:
            default = None if param.default is inspect.Parameter.empty else param.default
            return index, name, default
    return None


class Tracer:
    """Records spans for the layer functions while installed.

    ``job`` is the identifier stamped on every span; set it before each
    job.  Spans are kept in memory as
    [function index, start, end, parent span, job, stats, L_used].
    """

    def __init__(self, functions: dict[str, dict] | None = None):
        self.functions = dict(LAYER_FUNCTIONS if functions is None else functions)
        self.names = list(self.functions)
        self.missing: list[str] = []
        self.missing_stats: list[str] = []
        self.spans: list[list] = []
        self.job = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._bindings: dict[str, list[str]] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Resolve every layer function and wrap each module binding of it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing, self.missing_stats = [], []
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "adialab" or name.startswith("adialab."))
        ]
        for index, qualified in enumerate(self.names):
            module_name, _, attr = qualified.rpartition(".")
            try:
                module = importlib.import_module(f"adialab.{module_name}")
            except ImportError:
                self.missing.append(qualified)
                continue
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                self.missing.append(qualified)
                continue
            readers = {}
            for stat, (arg, count) in self.functions[qualified].items():
                reader = _argument_reader(original, arg)
                if reader is None:
                    self.missing_stats.append(f"{qualified}.{stat}")
                else:
                    readers[stat] = (reader, count)
            wrapper = self._wrap(index, original, readers, qualified == ADAPTIVE)
            bound_in = []
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, original))
                        bound_in.append(f"{mod.__name__}.{name}")
            self._bindings[qualified] = bound_in

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches = []

    @property
    def bindings(self) -> dict[str, list[str]]:
        """Module attributes wrapped for each resolved layer function."""
        return dict(self._bindings)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, index: int, fn, readers: dict, keep_l_used: bool):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = {}
            for stat, ((position, name, default), count) in readers.items():
                value = args[position] if position < len(args) else kwargs.get(name, default)
                stats[stat] = count(value)
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, self.job, stats, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if keep_l_used:
                record[6] = getattr(result, "L_used", None)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def layer_totals(self, job_prefix: str = "") -> dict[str, float | int | None]:
        """Per-layer metrics over the spans whose job starts with ``job_prefix``.

        For each function: ``calls``, ``self_s`` (span time not covered by
        its child spans) and the stats of its table entry, summed.  Adds
        ``evolution.evolve_adaptive.useful_step_ratio``: steps in the
        returned L_used over all steps evaluated under evolve_adaptive.
        Metrics of missing functions are None.
        """
        spans = self.spans
        selected = [i for i, s in enumerate(spans) if s[4].startswith(job_prefix)]
        duration = {i: spans[i][2] - spans[i][1] for i in selected}
        child_time = dict.fromkeys(selected, 0.0)
        for i in selected:
            parent = spans[i][3]
            if parent in child_time:
                child_time[parent] += duration[i]

        by_function: dict[int, list[int]] = {}
        for i in selected:
            by_function.setdefault(spans[i][0], []).append(i)

        out: dict[str, float | int | None] = {}
        for index, qualified in enumerate(self.names):
            prefix = metric_prefix(qualified)
            stats = list(self.functions[qualified])
            if qualified in self.missing:
                for stat in ["calls", "self_s"] + stats:
                    out[f"{prefix}.{stat}"] = None
                continue
            mine = by_function.get(index, [])
            out[f"{prefix}.calls"] = len(mine)
            out[f"{prefix}.self_s"] = float(
                sum(duration[i] - child_time[i] for i in mine)
            )
            for stat in stats:
                key = f"{prefix}.{stat}"
                if f"{qualified}.{stat}" in self.missing_stats:
                    out[key] = None
                else:
                    out[key] = int(sum(spans[i][5][stat] for i in mine))

        if ADAPTIVE in self.functions and DISCRETE in self.functions:
            out[f"{metric_prefix(ADAPTIVE)}.useful_step_ratio"] = self._useful_ratio(
                by_function
            )
        return out

    def _useful_ratio(self, by_function: dict[int, list[int]]) -> float | None:
        spans = self.spans
        if (
            DISCRETE in self.missing
            or ADAPTIVE in self.missing
            or f"{DISCRETE}.steps" in self.missing_stats
        ):
            return None
        adaptive, discrete = self.names.index(ADAPTIVE), self.names.index(DISCRETE)
        l_used = [spans[i][6] for i in by_function.get(adaptive, [])]
        if None in l_used:
            return None
        evaluated = 0
        for i in by_function.get(discrete, []):
            parent = spans[i][3]
            while parent >= 0 and spans[parent][0] != adaptive:
                parent = spans[parent][3]
            if parent >= 0:
                evaluated += spans[i][5]["steps"]
        # no evolve_adaptive call (calls == 0 says so) evaluates no step
        return sum(l_used) / evaluated if evaluated else 0.0

    def dump(self, path: Path) -> None:
        """Write every span recorded so far as one JSON document."""
        payload = {
            "functions": self.names,
            "missing": self.missing,
            "columns": ["function", "start", "end", "parent", "job", "stats", "L_used"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))
