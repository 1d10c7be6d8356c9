"""Per-layer host self time for the traced run.

The program has no host-cost spans of its own, so the benchmark wraps
the calls into each layer from outside: every function and method
defined in a layer's modules (module-level public functions; class
methods, public or not, plus ``__init__`` and ``__call__``) is replaced
by a wrapper for the duration of one traced repetition, then restored.

A wrapper opens a span only when control *enters* the layer from
another one; a call within a layer opens none, and its time stays with
the enclosing span.  Span time is process CPU time read
through :class:`repro.speed.measure.Stopwatch`.  A layer's self time is
its spans' time minus the time of the child spans inside them.  Code
that belongs to no layer (RDO and promise plumbing, the benchmark's own
callbacks) is charged to whichever layer called it -- usually ``sim``,
whose event loop calls every scheduled callback.

The same wrappers count calls and layer entries per function, which
gives the work counts public state does not hold (codec calls and bytes, frames
handed to links, interpreter calls, scheduler dispatches, deltas).
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
from collections import Counter

from repro.speed.measure import Stopwatch

#: layer -> the modules that make it up (named as in the program).
LAYERS: dict[str, tuple[str, ...]] = {
    "sim": ("repro.sim.events",),
    "codec": ("repro.net.message",),
    "transport": ("repro.net.transport",),
    "simnet": ("repro.net.simnet", "repro.net.link"),
    "scheduler": ("repro.net.scheduler",),
    "access": ("repro.core.access_manager",),
    "log": ("repro.core.operation_log", "repro.storage.stable_log"),
    "server": ("repro.core.server",),
    "cache": ("repro.core.object_cache",),
    "interp": ("repro.core.interpreter",),
    "compact": ("repro.perf.compact",),
    "delta": ("repro.perf.delta",),
    "ha": ("repro.ha.group",),
    "obs": ("repro.obs.metrics", "repro.obs.trace"),
}

_KEPT_DUNDERS = ("__init__", "__call__")


def _encoded_bytes(args: tuple, result) -> int:
    return len(result)


def _premarshalled_bytes(args: tuple, result) -> int:
    return len(args[0].raw)


def _decoded_bytes(args: tuple, result) -> int:
    return len(args[0])


#: Codec entry points whose payload size is accounted:
#: qualified name -> (direction, size function).
_SIZED = {
    "repro.net.message.marshal": ("encode", _encoded_bytes),
    "repro.net.message.Premarshalled.__init__": ("encode", _premarshalled_bytes),
    "repro.net.message.unmarshal": ("decode", _decoded_bytes),
}


def _targets(module) -> list[tuple[object, str, object, object]]:
    """``(owner, attribute, original, function)`` for every callable
    the layer defines in ``module``."""
    found = []
    for name, value in vars(module).items():
        if inspect.isfunction(value):
            if value.__module__ == module.__name__ and not name.startswith("_"):
                found.append((module, name, value, value))
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            if issubclass(value, (BaseException, enum.Enum)):
                continue
            for attr, member in vars(value).items():
                if attr.startswith("__") and attr not in _KEPT_DUNDERS:
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    fn = member.__func__
                elif inspect.isfunction(member):
                    fn = member
                else:
                    continue
                found.append((value, attr, member, fn))
    return found


class LayerTracer:
    """Installs, accounts and removes the per-layer wrappers."""

    def __init__(self) -> None:
        #: layer -> CPU seconds spent in the layer's own code
        self.self_s: Counter = Counter()
        #: qualified function name -> calls, from any layer
        self.calls: Counter = Counter()
        #: qualified function name -> entries into its layer through it
        self.entries: Counter = Counter()
        #: qualified function name -> entries that ended in an exception
        self.raised: Counter = Counter()
        #: "encode"/"decode" -> codec payload bytes
        self.bytes: Counter = Counter()
        #: open spans, innermost last: [layer, child seconds]
        self._stack: list[list] = []
        #: (namespace, attribute, original value) to restore
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget what was accounted so far (spans must be closed)."""
        self.self_s.clear()
        self.calls.clear()
        self.entries.clear()
        self.raised.clear()
        self.bytes.clear()

    def _wrap(self, layer: str, qualname: str, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        entries = self.entries
        sized = _SIZED.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[qualname] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            entries[qualname] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            clock = Stopwatch()
            try:
                with clock:
                    result = fn(*args, **kwargs)
            except Exception:
                self.raised[qualname] += 1
                raise
            finally:
                stack.pop()
                self_s[layer] += clock.cpu_s - frame[1]
                if stack:
                    stack[-1][1] += clock.cpu_s
            if sized is not None:
                direction, size = sized
                self.bytes[direction] += size(args, result)
            return result

        return traced

    def install(self) -> None:
        replaced: dict[int, object] = {}
        for layer, modules in LAYERS.items():
            for modname in modules:
                module = importlib.import_module(modname)
                for owner, attr, original, fn in _targets(module):
                    prefix = owner.__name__ if owner is module else (
                        f"{module.__name__}.{owner.__qualname__}"
                    )
                    wrapped = self._wrap(layer, f"{prefix}.{attr}", fn)
                    if isinstance(original, (staticmethod, classmethod)):
                        setattr(owner, attr, type(original)(wrapped))
                    else:
                        setattr(owner, attr, wrapped)
                    self._patches.append((owner, attr, original))
                    if owner is module:
                        replaced[id(original)] = wrapped
        # Module functions are also bound by name wherever they were
        # imported with ``from ... import``; rebind those names too.
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("repro") or module is None:
                continue
            for name, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapped)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
