"""Host-time spans around calls into the program's layers.

The benchmark never edits the program.  For a traced pass it replaces
chosen functions and methods at runtime with wrappers that open a
span on entry and close it on return, and it restores every original
object afterwards (:meth:`Patcher.uninstall`).

Generators are timed per resume step: a traced generator opens a span
each time it is resumed and closes it when the inner generator yields
or finishes.  ``yield from`` chains nest naturally, so a resume of a
client process that runs into a protocol step that forces the log
yields three nested spans.

Spans live in flat arrays while the pass runs and are written out
when the benchmark ends.  A layer's self time is its span time minus
the time of its direct child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from types import GeneratorType, ModuleType
from typing import Any, Callable, Iterator, Optional, Sequence

_clock = time.perf_counter

#: Attribute marking a benchmark wrapper (and pointing at the original).
WRAPPED = "__perfbench_wrapped__"

#: Undo marker: the patched attribute was inherited, not the owner's own.
_ABSENT = object()


class SpanRecorder:
    """Append-only span store: layer, parent, start and end per span."""

    def __init__(self, layers: Sequence[str]) -> None:
        self.layers = tuple(layers)
        self.layer = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def enter(self, layer_id: int) -> int:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(_clock())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = _clock()
        self._stack.pop()

    @property
    def depth(self) -> int:
        """Open spans (0 between top-level calls)."""
        return len(self._stack) - 1

    def write(self, path: Path, meta: dict[str, Any]) -> None:
        """Write the spans as four raw arrays plus a JSON header."""
        header = dict(meta)
        header.update(
            layers=list(self.layers),
            spans=len(self),
            arrays=[
                ["layer", self.layer.typecode, self.layer.itemsize],
                ["parent", self.parent.typecode, self.parent.itemsize],
                ["start", self.start.typecode, self.start.itemsize],
                ["end", self.end.typecode, self.end.itemsize],
            ],
            byteorder=sys.byteorder,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(path, "wb") as handle:
            for column in (self.layer, self.parent, self.start, self.end):
                column.tofile(handle)


def self_times(
    layer: Sequence[int],
    parent: Sequence[int],
    start: Sequence[float],
    end: Sequence[float],
    n_layers: int,
) -> list[float]:
    """Per-layer self time: each span's duration minus its children's."""
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    totals = [0.0] * n_layers
    for i in range(n):
        totals[layer[i]] += end[i] - start[i] - child[i]
    return totals


# -- per-target statistics -----------------------------------------------------


@dataclass
class CallStats:
    """Calls of one wrapped target and their inclusive host time."""

    calls: int = 0
    seconds: float = 0.0
    #: Inclusive host seconds per call, kept only for targets whose
    #: metrics need a distribution.
    samples: Optional[list[float]] = None


class Probe:
    """Per-call observer of a traced generator (simulated-time facts).

    ``step`` runs before each resume with the resume index; ``finish``
    runs once when the generator returns or raises.
    """

    def step(self, index: int) -> None:  # pragma: no cover - interface
        pass

    def finish(self, exc: Optional[BaseException]) -> None:  # pragma: no cover
        pass


ProbeFactory = Callable[[tuple, dict], Optional[Probe]]


def traced_generator(
    inner: Iterator[Any],
    layer_id: int,
    rec: SpanRecorder,
    stats: Optional[CallStats] = None,
    probe: Optional[Probe] = None,
) -> Iterator[Any]:
    """Delegate to ``inner``, timing every resume step as a span."""
    send_value: Any = None
    pending: Optional[BaseException] = None
    step = 0
    while True:
        if probe is not None:
            probe.step(step)
        step += 1
        index = rec.enter(layer_id)
        try:
            if pending is None:
                out = inner.send(send_value)  # type: ignore[attr-defined]
            else:
                exc, pending = pending, None
                out = inner.throw(exc)  # type: ignore[attr-defined]
        except StopIteration as stop:
            rec.exit(index)
            if stats is not None:
                stats.seconds += rec.end[index] - rec.start[index]
            if probe is not None:
                probe.finish(None)
            return stop.value
        except BaseException as exc:
            rec.exit(index)
            if stats is not None:
                stats.seconds += rec.end[index] - rec.start[index]
            if probe is not None:
                probe.finish(exc)
            raise
        rec.exit(index)
        if stats is not None:
            stats.seconds += rec.end[index] - rec.start[index]
        try:
            send_value = yield out
        except GeneratorExit:
            inner.close()  # type: ignore[attr-defined]
            raise
        except BaseException as exc:  # forwarded into the inner generator
            pending = exc
            send_value = None


def timed_call(
    rec: SpanRecorder, layer_id: int, stats: CallStats, fn: Callable[..., Any],
    *args: Any, **kwargs: Any,
) -> Any:
    """Call ``fn`` inside one span, counting the call and its time."""
    stats.calls += 1
    index = rec.enter(layer_id)
    try:
        return fn(*args, **kwargs)
    finally:
        rec.exit(index)
        elapsed = rec.end[index] - rec.start[index]
        stats.seconds += elapsed
        if stats.samples is not None:
            stats.samples.append(elapsed)


def is_traced_generator(gen: Any) -> bool:
    return getattr(gen, "gi_code", None) is traced_generator.__code__


def _wrap_function(
    fn: Callable[..., Any],
    layer_id: int,
    rec: SpanRecorder,
    stats: CallStats,
    probe_factory: Optional[ProbeFactory],
    count_only: bool,
) -> Callable[..., Any]:
    if count_only:

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            stats.calls += 1
            return fn(*args, **kwargs)

        setattr(counted, WRAPPED, fn)
        return counted

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
            stats.calls += 1
            probe = probe_factory(args, kwargs) if probe_factory is not None else None
            inner = fn(*args, **kwargs)
            outer = traced_generator(inner, layer_id, rec, stats, probe)
            outer.__name__ = inner.__name__  # process names follow the generator
            return outer

        setattr(gen_wrapper, WRAPPED, fn)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = timed_call(rec, layer_id, stats, fn, *args, **kwargs)
        if type(result) is GeneratorType:
            wrapped = traced_generator(result, layer_id, rec)
            wrapped.__name__ = result.__name__
            return wrapped
        return result

    setattr(wrapper, WRAPPED, fn)
    return wrapper


# -- installing and removing wrappers ---------------------------------------------


@dataclass
class Target:
    """One function or method to wrap.

    ``owner`` is a class or a module; for a module function every
    module of the program that bound the same function object (``from
    x import f``) is patched too.
    """

    layer: str
    owner: Any
    name: str
    probe: Optional[ProbeFactory] = None
    count_only: bool = False
    keep_samples: bool = False
    #: Replace the wrapper with this factory's result instead of the
    #: generic span wrapper: ``custom(original, layer_id, rec, stats)``.
    custom: Optional[Callable[..., Callable[..., Any]]] = None

    @property
    def key(self) -> str:
        """``Class.method`` or ``package.module.function``."""
        owner = getattr(self.owner, "__qualname__", None) or self.owner.__name__
        return f"{owner}.{self.name}"


@dataclass
class Patcher:
    """Installs wrappers for a list of targets and removes them again."""

    rec: SpanRecorder
    module_prefix: str = "repro"
    stats: dict[str, CallStats] = field(default_factory=dict)
    #: ``(owner, name, original or _ABSENT)``, oldest first.
    _undo: list[tuple[Any, str, Any]] = field(default_factory=list)

    def install(self, targets: Sequence[Target]) -> None:
        layer_ids = {name: i for i, name in enumerate(self.rec.layers)}
        modules = program_modules(self.module_prefix)
        for target in targets:
            raw = inspect.getattr_static(target.owner, target.name)
            kind: Optional[type] = None
            fn = raw
            if isinstance(raw, (staticmethod, classmethod)):
                kind = type(raw)
                fn = raw.__func__
            if getattr(fn, WRAPPED, None) is not None:
                continue  # an inherited method already wrapped on a base
            stats = self.stats.setdefault(target.key, CallStats())
            if target.keep_samples and stats.samples is None:
                stats.samples = []
            layer_id = layer_ids[target.layer]
            if target.custom is not None:
                wrapper = target.custom(fn, layer_id, self.rec, stats)
                setattr(wrapper, WRAPPED, fn)
            else:
                wrapper = _wrap_function(
                    fn, layer_id, self.rec, stats, target.probe, target.count_only
                )
            new = kind(wrapper) if kind is not None else wrapper
            own = target.name in vars(target.owner)
            self._set(target.owner, target.name, raw if own else _ABSENT, new)
            if isinstance(target.owner, ModuleType):
                for module in modules:
                    if module is target.owner:
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._set(module, attr, value, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first.

        Modules first imported while wrappers were live may have bound
        a wrapper by name; those bindings are pointed back at the
        original too.
        """
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        for module in program_modules(self.module_prefix):
            for attr, value in list(vars(module).items()):
                original = getattr(value, WRAPPED, None) if callable(value) else None
                if original is not None:
                    setattr(module, attr, original)

    def _set(self, owner: Any, name: str, original: Any, new: Any) -> None:
        self._undo.append((owner, name, original))
        setattr(owner, name, new)


def program_modules(prefix: str) -> list[ModuleType]:
    """Every loaded module of the package ``prefix``."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == prefix or name.startswith(prefix + "."))
    ]


def leftover_wrappers(module_prefix: str = "repro") -> list[str]:
    """Names of any benchmark wrappers still reachable in the program.

    Scans every loaded module of the program: module-level functions
    and every attribute defined on its classes.  An empty list means
    an untraced pass runs the program's own code.
    """
    found = []
    for module in program_modules(module_prefix):
        mod_name = module.__name__
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPED, None) is not None:
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for name, member in list(vars(value).items()):
                    fn = getattr(member, "__func__", member)
                    if getattr(fn, WRAPPED, None) is not None:
                        found.append(f"{mod_name}.{value.__qualname__}.{name}")
    return found
