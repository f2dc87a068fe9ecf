"""Wake-protocol rules.

An idle-skip clock only re-ticks a sleeping component when something
wakes it.  PERFORMANCE.md ("The wake-up protocol contract") requires
every externally reachable state mutation of an ``is_idle()``-overriding
component to go through a wake-hook primitive (``HardwareFifo.on_push``,
``Channel.add_credit``/``add_space``, ``NIKernel.write_register``, shell
``submit``, ``Link.send``…) or to call ``notify_active()`` explicitly.
PR 7's negative-control test showed what a single miss costs: flits
strand silently until an unrelated event happens to wake the clock.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.lint.framework import (
    LintRule,
    ModuleUnderLint,
    Violation,
    call_name,
    class_methods,
    defines_method,
    receiver_root,
    register_rule,
)

#: Mutating calls on ``self``-rooted state that change what tick() would do.
_PRODUCER_CALLS = {
    "append", "appendleft", "extend", "push", "push_many", "push_run",
    "add", "insert", "update", "reserve", "put",
}

#: Calls that count as routing the mutation through a wake hook.  These are
#: the documented wake primitives plus the component-level entry points that
#: wrap them (pushing through a HardwareFifo *is* the hook).
_WAKE_CALLS = {
    "notify_active", "wake",
    "add_credit", "add_space", "request_flush", "flush",
    "on_push", "_notify_tx", "notify_rx",
    "write_register", "push", "push_many", "push_run",
    "submit", "enqueue", "issue", "send", "send_burst", "_rx_stimulus",
}

#: Methods that are wiring-time by convention: they run before the engine
#: starts, on components whose clocks have not begun sleeping.
_WIRING_PREFIXES = ("connect", "attach", "register_", "_init", "__init__",
                    "configure", "build")

#: Methods the engine only calls while the clock is already awake — the
#: per-cycle entry points themselves need no wake hook.
_ENGINE_DRIVEN = {"tick", "post_tick"}


def _method_is_public_entry(name: str) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return name == "__init__"
    return not name.startswith("_")


def _mutations_in(method: ast.FunctionDef) -> Iterator[ast.AST]:
    """Producer mutations of self-rooted state inside ``method``."""
    for node in ast.walk(method):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if (name in _PRODUCER_CALLS
                    and isinstance(node.func, ast.Attribute)
                    and receiver_root(node.func.value) == "self"):
                yield node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and receiver_root(target.value) == "self"):
                    yield target
                    break


def _calls_wake(method: ast.FunctionDef) -> bool:
    for node in ast.walk(method):
        if isinstance(node, ast.Call) and call_name(node) in _WAKE_CALLS:
            return True
    return False


@register_rule
class MutateWithoutNotifyRule(LintRule):
    """Public mutators of idle-capable components must hit a wake hook.

    Flags public methods (and ``__init__``-excluded entry points) of
    classes that override ``is_idle()`` when the method mutates
    ``self``-rooted queues/registers/collections but neither calls
    ``notify_active()``/``wake()`` nor routes through a wake-hook
    primitive.  Wiring-time methods (``connect*``, ``attach*``, …) are
    exempt: they run before clocks sleep.
    """

    rule_id = "wake-mutate-no-notify"
    title = "state mutation bypasses the wake hooks"
    contract = "PERFORMANCE.md: the wake-up protocol contract"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for class_node in module.class_defs():
            if not defines_method(class_node, "is_idle"):
                continue
            for name, method in sorted(class_methods(class_node).items()):
                if not _method_is_public_entry(name) or name == "__init__":
                    continue
                if name in _ENGINE_DRIVEN or name.startswith(
                        _WIRING_PREFIXES):
                    continue
                mutations = list(_mutations_in(method))
                if not mutations:
                    continue
                if _calls_wake(method):
                    continue
                yield self.violation(
                    module, method,
                    f"{class_node.name}.{name} mutates component state but "
                    "never reaches a wake hook; call notify_active() or "
                    "route the write through a wake-hook primitive "
                    "(PERFORMANCE.md: wake-up protocol)")


_MUTATION_NODES = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)


@register_rule
class ImpureIsIdleRule(LintRule):
    """``is_idle()`` / ``is_quiescent()`` must be pure.

    The engine may call them any number of times per cycle (or skip them
    entirely in fused groups); a mutation inside makes idleness depend on
    polling frequency, which differs between engine modes.
    """

    rule_id = "wake-impure-is-idle"
    title = "is_idle()/is_quiescent() mutates state"
    contract = "PERFORMANCE.md: the wake-up protocol contract"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for class_node in module.class_defs():
            for name in ("is_idle", "is_quiescent"):
                method = class_methods(class_node).get(name)
                if method is None:
                    continue
                for node in ast.walk(method):
                    flagged = False
                    if isinstance(node, _MUTATION_NODES):
                        targets = node.targets if isinstance(
                            node, ast.Assign) else getattr(
                            node, "targets", [getattr(node, "target", None)])
                        for target in targets:
                            if target is not None and \
                                    receiver_root(target) == "self":
                                flagged = True
                                break
                    elif isinstance(node, ast.Call):
                        call = call_name(node)
                        if (call in _PRODUCER_CALLS | {"pop", "popleft",
                                                       "clear", "discard",
                                                       "remove"}
                                and isinstance(node.func, ast.Attribute)
                                and receiver_root(node.func.value) == "self"):
                            flagged = True
                    if flagged:
                        yield self.violation(
                            module, node,
                            f"{class_node.name}.{name} mutates self; "
                            "idleness probes must be side-effect free")
                        break


@register_rule
class SlotVersionRule(LintRule):
    """Versioned tables must bump ``self.version`` on every mutation.

    The kernel's slot cache is invalidated by ``SlotTable.version``; a
    mutating method that forgets the bump leaves stale cached schedules
    live.  Applies to any class initialising ``self.version = 0``.
    """

    rule_id = "wake-slot-version"
    title = "versioned-table mutation without a version bump"
    contract = "PERFORMANCE.md: the hot path (slot cache invalidation)"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for class_node in module.class_defs():
            methods = class_methods(class_node)
            init = methods.get("__init__")
            if init is None or not self._declares_version(init):
                continue
            for name, method in sorted(methods.items()):
                if name.startswith("_"):
                    # Private helpers include cache refreshers whose state
                    # is derived *from* the version; only the public
                    # mutator surface must bump it.
                    continue
                if not self._mutates_state(method):
                    continue
                if self._touches_version(method):
                    continue
                yield self.violation(
                    module, method,
                    f"{class_node.name}.{name} mutates the table without "
                    "bumping self.version; dependent caches go stale")

    @staticmethod
    def _declares_version(init: ast.FunctionDef) -> bool:
        for node in ast.walk(init):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and target.attr == "version"
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        return True
        return False

    @staticmethod
    def _touches_version(method: ast.FunctionDef) -> bool:
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and target.attr == "version"
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        return True
        return False

    @staticmethod
    def _mutates_state(method: ast.FunctionDef) -> bool:
        """A write to self state other than self.version itself."""
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if receiver_root(target) != "self":
                        continue
                    if (isinstance(target, ast.Attribute)
                            and target.attr == "version"
                            and isinstance(target.value, ast.Name)):
                        continue
                    return True
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if (name in _PRODUCER_CALLS | {"pop", "clear", "remove",
                                               "discard", "setdefault"}
                        and isinstance(node.func, ast.Attribute)
                        and receiver_root(node.func.value) == "self"):
                    return True
        return False
