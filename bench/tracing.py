"""Span tracer for umlr, installed from outside the package.

``Tracer.install`` wraps every public function of the six umlr modules
(``core``, ``learners``, ``diagnostics``, ``estimators``, ``simulation``,
``cli``) and rebinds the wrapper under every name in every ``umlr.*`` module
that refers to the original, so calls between modules are traced too. It
also wraps the methods ``Dataset.subset`` and ``FittedModel.predict``.
``Tracer.uninstall`` puts every original back.

Each call becomes one span: name, start, end, parent span, unit id and
whether it raised. ``span_table`` reduces the spans to per-name calls,
errors and self time, where a span's self time is its duration minus the
part of it that its child spans cover.

The tracer keeps one call stack, so it traces one thread; the benchmark
runs umlr with ``workers=1``.
"""

from __future__ import annotations

import functools
import inspect
import mmap
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("core", "learners", "diagnostics", "estimators", "simulation", "cli")

CHUNK_BITS = 18  # spans per storage chunk: 2**18
_COLUMNS = (("start", "d"), ("end", "d"), ("parent", "q"), ("unit", "q"),
            ("name", "i"), ("failed", "b"))
START, END, PARENT, UNIT, NAME, FAILED = range(len(_COLUMNS))


class SpanStore:
    """Append-only span columns in anonymous memory maps.

    The columns stay outside the malloc heap and hold no Python objects, so
    recording spans neither moves the program's own allocations nor gives
    the garbage collector more to scan. A Python list of spans did both:
    under glibc's default malloc thresholds it stopped heap trimming, and a
    traced ridge run ran about 25 % faster than an untraced one.
    """

    def __init__(self):
        self.n = 0
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._maps: list[list[mmap.mmap]] = []
        self._chunks: list[tuple[memoryview, ...]] = []

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def new_index(self) -> int:
        i = self.n
        if i >> CHUNK_BITS == len(self._chunks):
            maps = [mmap.mmap(-1, np.dtype(fmt).itemsize << CHUNK_BITS,
                              flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
                    for _, fmt in _COLUMNS]
            self._maps.append(maps)
            self._chunks.append(tuple(memoryview(m).cast(fmt)
                                      for m, (_, fmt) in zip(maps, _COLUMNS)))
        self.n = i + 1
        return i

    def chunk(self, i: int) -> tuple[tuple[memoryview, ...], int]:
        return self._chunks[i >> CHUNK_BITS], i & ((1 << CHUNK_BITS) - 1)

    def columns(self) -> dict[str, np.ndarray]:
        """Copies of the recorded columns, one array per field."""
        out = {}
        for c, (field, fmt) in enumerate(_COLUMNS):
            parts = [np.frombuffer(maps[c], dtype=fmt) for maps in self._maps]
            out[field] = np.concatenate(parts)[: self.n] if parts else np.empty(0, fmt)
        return out


class Tracer:
    """Records one span per traced call; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.store = SpanStore()
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.unit = 0  # id of the unit the next span belongs to
        self.unit_base = 0  # id of the first unit of the current call
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> int:
        store = self.store
        i = store.new_index()
        cols, k = store.chunk(i)
        cols[PARENT][k] = self._stack[-1] if self._stack else -1
        cols[UNIT][k] = self.unit
        cols[NAME][k] = store.code(name)
        self._stack.append(i)
        cols[START][k] = self.clock()
        return i

    def exit(self, i: int, failed: bool):
        now = self.clock()
        cols, k = self.store.chunk(i)
        cols[END][k] = now
        cols[FAILED][k] = failed
        self._stack.pop()

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {layer: sys.modules[f"umlr.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for name, mod in list(sys.modules.items()):
            if name != "umlr" and not name.startswith("umlr."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(mod, attr, wrappers[value])
        dataset = mods["core"].Dataset
        model = mods["learners"].FittedModel
        self._rebind(dataset, "subset", self._wrap("core.Dataset.subset", dataset.subset))
        self._rebind(model, "predict", self._wrap("learners.FittedModel.predict", model.predict))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _rebind(self, owner, attr: str, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, qualname: str, fn):
        """Wrapper recording one span per call of ``fn``.

        A few functions get a span name that depends on their arguments, or
        count the work they were handed, so that per-layer ratios are
        measured where the work happens.
        """
        tracer = self
        name_of = _NAMERS.get(qualname)
        before = _BEFORE.get(qualname)
        after = _AFTER.get(qualname)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = qualname if name_of is None else name_of(args, kwargs)
            if before is not None:
                args, kwargs = before(tracer, name, signature, args, kwargs)
            i = tracer.enter(name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                tracer.exit(i, failed)
            if after is not None:
                after(tracer, name, out)
            return out

        return traced


# -- per-function naming and counting -----------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _config_kind(prefix):
    def name_of(args, kwargs):
        return f"{prefix}.{_arg(args, kwargs, 0, 'config').kind}"
    return name_of


def _predict_kind(args, kwargs):
    return "learners.predict." + ("gbt" if args[0].coef is None else "linear")


def _count_cells(tracer, name, signature, args, kwargs):
    rows, cols = np.shape(_arg(args, kwargs, 1, "X"))
    tracer.counts[name + ".cells"] += rows * cols
    return args, kwargs


def _count_rows(tracer, name, signature, args, kwargs):
    tracer.counts[name + ".rows"] += np.shape(_arg(args, kwargs, 1, "X"))[0]
    return args, kwargs


def _count_resamples(tracer, name, signature, args, kwargs):
    # Counts every call of the estimator inside bootstrap_ci; that includes
    # the centre evaluation only when the caller passes no ``center``.
    bound = signature.bind(*args, **kwargs)
    estimator = bound.arguments["estimator"]

    def counted(data):
        tracer.counts[name + ".resamples"] += 1
        try:
            return estimator(data)
        except Exception:
            tracer.counts[name + ".failed_resamples"] += 1
            raise

    bound.arguments["estimator"] = counted
    return bound.args, bound.kwargs


def _count_folds(tracer, name, signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counts[name + ".folds"] += bound.arguments["folds"]
    return args, kwargs


def _mark_replicate(tracer, name, signature, args, kwargs):
    tracer.unit = tracer.unit_base + _arg(args, kwargs, 1, "rep_index")
    return args, kwargs


def _count_loaded_rows(tracer, name, out):
    tracer.counts[name + ".rows"] += out[0].n


_NAMERS = {
    "learners.fit": _config_kind("learners.fit"),
    "learners.fit_constrained_linear": _config_kind("learners.fit_constrained_linear"),
    "learners.FittedModel.predict": _predict_kind,
}
_BEFORE = {
    "learners.fit": _count_cells,
    "learners.fit_constrained_linear": _count_cells,
    "learners.FittedModel.predict": _count_rows,
    "estimators.bootstrap_ci": _count_resamples,
    "estimators.dml": _count_folds,
    "simulation.generate_replicate": _mark_replicate,
}
_AFTER = {"cli.load_csv": _count_loaded_rows}


# -- reduction ------------------------------------------------------------------

def self_times(start, end, parent) -> np.ndarray:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span itself. ``parent`` is -1 for a top-level span."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[int(p)].append((start[i], end[i]))
    out = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    for i, kids in children.items():
        covered, reach = 0.0, start[i]
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end[i])
            if b > a:
                covered += b - a
                reach = b
        out[i] -= covered
    return out


def span_table(store: SpanStore) -> dict[str, dict[str, float]]:
    """Per span name: calls, errors, inclusive seconds and self seconds."""
    cols = store.columns()
    own = self_times(cols["start"].tolist(), cols["end"].tolist(), cols["parent"].tolist())
    codes = cols["name"]
    k = len(store.names)
    calls = np.bincount(codes, minlength=k)
    errors = np.bincount(codes, weights=cols["failed"], minlength=k)
    total = np.bincount(codes, weights=cols["end"] - cols["start"], minlength=k)
    self_s = np.bincount(codes, weights=own, minlength=k)
    return {name: {"calls": int(calls[c]), "errors": int(errors[c]),
                   "total_s": float(total[c]), "self_s": float(self_s[c])}
            for c, name in enumerate(store.names)}


def root_seconds(store: SpanStore) -> float:
    """Wall time covered by top-level spans."""
    cols = store.columns()
    top = cols["parent"] < 0
    return float((cols["end"][top] - cols["start"][top]).sum())
