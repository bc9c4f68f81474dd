"""In-memory span recorder that wraps the package's layer entry points.

Each layer is one or more public functions.  ``Tracer.install`` replaces
every binding of those functions -- module attributes and module-level
dict entries such as ``dirichlet._EVALUATORS`` -- in every loaded
``trigzeta`` module, because callers hold the names they imported.
``Tracer.uninstall`` puts the originals back.  No file under ``src/``
changes.

A span is (id, parent id, invocation, layer, start, end, self seconds,
key); self time is the span's duration minus the time its child spans
cover.  The key is what the layer's work depends on: the order ``s`` for
the plan, ``(s, a)`` for the kernel, the reported (method, terms) for
the oracle, the function name elsewhere, and "failed" when the call
raised.  ``pochhammer_sderiv`` is only counted.
"""

from __future__ import annotations

import itertools
import sys
import time

# layer -> (module, function) pairs whose bindings are wrapped
LAYERS = {
    "plan": [("trigzeta.hurwitz", "plan_for")],
    "kernel": [
        ("trigzeta.hurwitz", "hurwitz_zeta_sderiv"),
        ("trigzeta.hurwitz", "hurwitz_zeta"),
    ],
    "assembly": [
        ("trigzeta.closedforms", "closed_form_eval"),
        ("trigzeta.closedforms", "general_closed_form"),
    ],
    "oracle": [("trigzeta.oracles", "direct_sum")],
    "dirichlet": [
        ("trigzeta.dirichlet", "riemann_zeta"),
        ("trigzeta.dirichlet", "eta"),
        ("trigzeta.dirichlet", "dirichlet_lambda"),
        ("trigzeta.dirichlet", "beta_fn"),
    ],
}
COUNTED = ("trigzeta.foundations", "pochhammer_sderiv")


def _key(layer: str, fn, args: tuple, result):
    if layer == "plan":
        return args[0]
    if layer == "kernel":
        return args[0], args[1]
    if layer == "oracle":
        return result.method, result.terms_used
    return fn.__name__


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts = {"pochhammer": 0}
        self.invocation = 0
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def span(self, layer: str, fn):
        """Return fn wrapped so each call records one span of ``layer``."""
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            result = failed = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = "failed"
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                spans.append(
                    (frame[0], parent, self.invocation, layer, t0, t1,
                     duration - frame[1], failed or _key(layer, fn, args, result))
                )

        return traced

    def _counted(self, fn, counter: str):
        counts = self.counts

        def counted(*args):
            counts[counter] += 1
            return fn(*args)

        return counted

    def install(self) -> None:
        # id(original) -> wrapper; the originals stay alive in their modules
        wrappers = {}
        for layer, targets in LAYERS.items():
            for module, name in targets:
                original = getattr(sys.modules[module], name)
                wrappers[id(original)] = self.span(layer, original)
        original = getattr(sys.modules[COUNTED[0]], COUNTED[1])
        wrappers[id(original)] = self._counted(original, "pochhammer")
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("trigzeta"):
                continue
            namespace = vars(module)
            containers = [namespace] + [
                v for k, v in namespace.items() if isinstance(v, dict) and not k.startswith("__")
            ]
            for container in containers:
                for key, value in list(container.items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        container[key] = wrapper
                        self._patched.append((container, key, value))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()
