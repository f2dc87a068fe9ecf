"""Counter-exactness and burst-guard rules.

The stats registry is part of the reproduction's observable output:
counters must be exact across engine modes, which means (a) the registry
a component captured at construction is never rebound, (b) hot
tick-reachable code uses cached ``Counter`` objects (``self._ctr_x =
stats.counter(...)`` once, then ``self._ctr_x.value += n``) rather than
re-resolving string keys per cycle, (c) counter values are reset through
the ``Counter`` API, and (d) every ``send_burst`` call
site sits behind a barrier-aware guard (PR 7's truncation invariants).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.framework import (
    LintRule,
    ModuleUnderLint,
    Violation,
    call_name,
    identifiers_in,
    receiver_root,
    register_rule,
)
from repro.analysis.lint.rules.hotpath import HOT_TICK_MODULES, _TICK_ROOTS
from repro.analysis.lint.framework import tick_reachable_methods


@register_rule
class RegistryRebindRule(LintRule):
    """``self.stats`` is captured once, at construction, and never rebound.

    Counters cached from the registry (``self._ctr_x``) keep pointing at
    the old registry if ``self.stats`` is reassigned later; totals then
    silently fork.
    """

    rule_id = "ctr-registry-rebind"
    title = "stats registry rebound after construction"
    contract = "PERFORMANCE.md: the hot path (cached counters)"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr == "stats"
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    func = module.enclosing_function(node)
                    if func is not None and func.name == "__init__":
                        continue
                    yield self.violation(
                        module, node,
                        "self.stats rebound outside __init__; cached "
                        "counters keep pointing at the old registry")


@register_rule
class UncachedCounterRule(LintRule):
    """No string-keyed registry lookups in tick-reachable hot methods.

    ``self.stats.counter("name")`` does a dict lookup and may allocate on
    first use; in a tick-reachable method it also re-resolves the key
    every cycle.  Cache the Counter in ``__init__`` and bump
    ``self._ctr_name.value`` instead.
    """

    rule_id = "ctr-uncached-counter"
    title = "string-keyed counter lookup in a tick-reachable method"
    contract = "PERFORMANCE.md: the hot path (cached counters)"
    packages = HOT_TICK_MODULES

    _LOOKUPS = {"counter", "histogram", "latency", "rate"}

    def applies(self, module: ModuleUnderLint) -> bool:
        rel = module.repro_relpath
        if rel is None:
            return True
        return rel in HOT_TICK_MODULES

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for class_node in module.class_defs():
            reachable = tick_reachable_methods(class_node, roots=_TICK_ROOTS)
            for name, method in sorted(reachable.items()):
                for node in ast.walk(method):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    if (isinstance(func, ast.Attribute)
                            and func.attr in self._LOOKUPS
                            and isinstance(func.value, ast.Attribute)
                            and func.value.attr == "stats"
                            and receiver_root(func.value) == "self"):
                        yield self.violation(
                            module, node,
                            f"self.stats.{func.attr}(...) inside "
                            f"{class_node.name}.{name} (tick-reachable) "
                            "re-resolves the key per cycle; cache the "
                            "Counter in __init__ and bump .value")


@register_rule
class RawCounterResetRule(LintRule):
    """Counter values are reset through the API, not raw assignment.

    ``self._ctr_x.value += n`` is the sanctioned hot-path bump, but a
    plain ``ctr.value = 0`` bypasses ``Counter.reset()`` and any windowed
    bookkeeping layered on it.
    """

    rule_id = "ctr-raw-reset"
    title = "raw assignment to a counter's .value"
    contract = "sim/stats.py: Counter API"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (isinstance(target, ast.Attribute)
                        and target.attr == "value"):
                    continue
                receiver = target.value
                if isinstance(receiver, ast.Name) and receiver.id == "self":
                    # A literal `self.value = ...` is the Counter API
                    # implementing itself.
                    continue
                names = " ".join(identifiers_in(receiver)).lower()
                if "ctr" in names or "counter" in names:
                    yield self.violation(
                        module, node,
                        "raw assignment to a counter's .value bypasses "
                        "Counter.reset(); use the API")


#: Identifier substrings that indicate a barrier-aware burst guard.
_BURST_GUARDS = ("burst_length", "burst_barrier", "stop_barrier",
                 "staged_burst", "busy_until", "burst_allowance",
                 "burst_cap")


@register_rule
class UnguardedBurstRule(LintRule):
    """``send_burst`` call sites must sit in barrier-aware code.

    A burst delivered past a fault window, stop barrier, or tracer
    breakpoint diverges from per-flit semantics.  Every function calling
    ``send_burst`` must compute or consult a burst guard
    (``_burst_length``, ``burst_barrier``, ``busy_until`` windows, …) —
    the defining method itself is exempt.
    """

    rule_id = "ctr-burst-unguarded"
    title = "send_burst call without a barrier-aware guard"
    contract = "PERFORMANCE.md: burst-granularity simulation"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node,
                              (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "send_burst":
                continue  # the primitive itself
            burst_calls = [
                call for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and call_name(call) == "send_burst"]
            if not burst_calls:
                continue
            mentioned = set(identifiers_in(node))
            if any(any(guard in ident for guard in _BURST_GUARDS)
                   for ident in mentioned):
                continue
            yield self.violation(
                module, burst_calls[0],
                f"{node.name} calls send_burst without consulting a burst "
                "barrier/guard; bursts must truncate at fault, stop and "
                "tracer barriers (PERFORMANCE.md: burst-granularity)")
