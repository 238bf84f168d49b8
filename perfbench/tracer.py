"""Per-function spans around the public API of the ``rectilib`` modules.

:class:`Tracer` replaces every public function of every ``rectilib``
module, and every public method of the classes those modules define,
with a wrapper that times the call.  Each module namespace that holds a
reference to an original (``from .space import doubling_estimate``) is
patched too, so calls between modules are seen.  The package itself is
not edited; :meth:`Tracer.uninstall` puts every original back.

Spans are not kept one per call: the ~10^5 ``dists_from`` calls of a
10k-point run would cost more than they show.  Calls are aggregated per
``(parent, name)`` edge into a count, an inclusive time and a self time
(inclusive time minus the time of the wrapped calls made inside it).
Self times therefore partition the time of the outermost traced call.

The stack is a plain list, so the tracer assumes one thread: the
benchmark runs the pipeline with ``RECTILIB_THREADS`` unset.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

# Vertex-key constructors and id lookups run once per vertex or edge
# (~10^5-10^6 calls) and do no work of their own; wrapping them would
# mostly measure the wrapper.  Their time stays in the caller's self time.
UNTRACED = frozenset(
    {
        "curve.ground_key",
        "curve.lifted_keys",
        "curve.key_str",
        "space.MetricMeasureSpace.index_of",
        "space.MetricMeasureSpace.indices_of",
    }
)


def package_modules() -> list:
    """``rectilib`` and all its submodules, imported."""
    root = importlib.import_module("rectilib")
    mods = [root]
    for info in pkgutil.iter_modules(root.__path__, "rectilib."):
        mods.append(importlib.import_module(info.name))
    return mods


def _targets(modules: list):
    """Yield (owner, attribute, span name, original) for each traced callable."""
    for mod in modules:
        short = mod.__name__.partition(".")[2]
        if not short:
            continue
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield mod, attr, f"{short}.{attr}", obj
            elif inspect.isclass(obj):
                for meth, raw in sorted(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                        yield obj, meth, f"{short}.{attr}.{meth}", raw


class Tracer:
    """Aggregated call spans over ``rectilib``; use as a context manager."""

    def __init__(self):
        # (parent span name or None, span name) -> [calls, inclusive s, self s]
        self.edges: dict[tuple[str | None, str], list] = {}
        self._stack: list[list] = []  # [name, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = edges.get((parent, name))
                if rec is None:
                    rec = edges[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        return traced

    def _wrapped(self, name: str, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, raw.__func__))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(name, raw.__func__))
        return self._wrap(name, raw)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        replacement: dict[int, object] = {}
        try:
            for owner, attr, name, raw in _targets(modules):
                if name in UNTRACED:
                    continue
                new = self._wrapped(name, raw)
                replacement[id(raw)] = new
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
            # re-exports: other modules' names bound to a traced original
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    new = replacement.get(id(obj))
                    if new is not None:
                        self._patches.append((mod, attr, obj))
                        setattr(mod, attr, new)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def records(self) -> list[dict]:
        """The aggregated edges, JSON-ready and in a stable order."""
        return [
            {"parent": parent, "name": name, "calls": c, "total_s": tot, "self_s": own}
            for (parent, name), (c, tot, own) in sorted(
                self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
            )
        ]
