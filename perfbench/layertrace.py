"""Outside-in tracing of bolkit's public functions.

``install`` rebinds each traced function in every ``bolkit`` module that
holds it by name (``verify`` and ``iso`` keep their own bindings from
``from .x import f``), so calls between modules go through the wrapper.
The hottest functions are called about a million times in one verify job,
so the tracer keeps one aggregate per name instead of one span per call;
a stack of child-time accumulators makes self time exact.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable

# (module, function) pairs, grouped by layer
TRACED = (
    ("loop_core", "parse_table"),
    ("loop_core", "element_order"),
    ("structure", "check_identity"),
    ("structure", "nuclei"),
    ("structure", "commutant"),
    ("structure", "generated_subloop"),
    ("structure", "generating_sequence"),
    ("structure", "structure_report"),
    ("iso", "invariant_profile"),
    ("iso", "extend_partial_hom"),
    ("iso", "classify"),
    ("iso", "isomorphic"),
    ("oracle", "search_left_bol"),
    ("extensions", "build_extension"),
    ("extensions", "automorphism_group"),
    ("gf2", "enumerate_q9"),
)


class Stats:
    __slots__ = ("calls", "total", "self_time", "results")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.results = 0  # see Tracer.RESULT_COUNTS


class Tracer:
    """Calls, total time and self time per traced function."""

    # how a result adds to Stats.results: useful extend_partial_hom attempts
    # (a non-None closure) and tables found by the search
    RESULT_COUNTS: dict[str, Callable[[Any], int]] = {
        "iso.extend_partial_hom": lambda r: r is not None,
        "oracle.search_left_bol": len,
    }

    def __init__(self) -> None:
        self.stats = {f"{m}.{f}": Stats() for m, f in TRACED}
        self._stack: list[float] = []  # time spent in traced children, per open call

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        count = self.RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats.calls += 1
                stats.total += dt
                stats.self_time += dt - child
                if stack:
                    stack[-1] += dt
            if count is not None:
                stats.results += count(result)
            return result

        return traced

    def install(self) -> Callable[[], None]:
        """Rebind every traced function; returns the function that undoes it."""
        undo = []
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"bolkit.{mod_name}"], fn_name)
            undo.append(rebind(original, self.wrap(f"{mod_name}.{fn_name}", original)))

        def uninstall() -> None:
            for u in reversed(undo):
                u()

        return uninstall

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.total_s"] = s.total
            out[f"{name}.self_s"] = s.self_time
        hom = self.stats["iso.extend_partial_hom"]
        out["iso.extend_partial_hom.hit_ratio"] = hom.results / hom.calls if hom.calls else 0.0
        out["oracle.search_left_bol.tables"] = self.stats["oracle.search_left_bol"].results
        return out


def rebind(original: Callable[..., Any], replacement: Callable[..., Any]) -> Callable[[], None]:
    """Put replacement under every name that holds original in a bolkit module;
    returns the function that puts original back."""
    modules = [m for k, m in list(sys.modules.items()) if k == "bolkit" or k.startswith("bolkit.")]
    patched = [(m, a) for m in modules for a, v in list(vars(m).items()) if v is original]
    for m, attr in patched:
        setattr(m, attr, replacement)

    def undo() -> None:
        for m, attr in patched:
            setattr(m, attr, original)

    return undo
