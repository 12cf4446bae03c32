"""Fold a cProfile run into per-layer shares of host time.

This is the outside view of the layer ledger: no wrappers, only the
interpreter's own function accounting.  A function's ``tottime`` goes
to the layer owning its file.  Time in code outside the program
(builtins, the standard library) goes to the layers of its callers,
in proportion to the time each caller spent in it; time with no
program caller goes to ``other``.
"""

from __future__ import annotations

import pstats
from typing import Any

from perfbench.layers import LAYERS, layer_of_file

FuncKey = tuple[str, int, str]


def _is_program(key: FuncKey) -> bool:
    return "/repro/" in key[0].replace("\\", "/")


def fold(stats: dict[FuncKey, Any]) -> dict[str, float]:
    """Per-layer share of total ``tottime`` from ``pstats.Stats.stats``."""
    memo: dict[FuncKey, dict[str, float]] = {}

    def attribution(key: FuncKey, seen: frozenset[FuncKey]) -> dict[str, float]:
        if _is_program(key):
            return {layer_of_file(key[0]): 1.0}
        if key in memo:
            return memo[key]
        callers = stats[key][4] if key in stats else {}
        weights = {
            caller: (edge[2] if edge[2] > 0 else 0.0) for caller, edge in callers.items()
        }
        total = sum(weights.values())
        if total == 0.0:
            weights = {caller: float(edge[1]) for caller, edge in callers.items()}
            total = sum(weights.values())
        mix: dict[str, float] = {}
        for caller, weight in weights.items():
            if total == 0.0 or caller in seen:
                continue
            for layer, part in attribution(caller, seen | {key}).items():
                mix[layer] = mix.get(layer, 0.0) + part * weight / total
        if not mix:
            mix = {"other": 1.0}
        memo[key] = mix
        return mix

    totals = dict.fromkeys(LAYERS, 0.0)
    for key, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, part in attribution(key, frozenset()).items():
            totals[layer] += tottime * part
    grand = sum(totals.values())
    return {layer: (value / grand if grand else 0.0) for layer, value in totals.items()}


def profile_shares(run: Any) -> dict[str, float]:
    """Profile ``run()`` and fold the result by layer."""
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    return fold(pstats.Stats(profiler).stats)  # type: ignore[attr-defined]
