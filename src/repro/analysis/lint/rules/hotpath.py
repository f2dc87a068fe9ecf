"""Hot-path authoring rules.

PERFORMANCE.md ("The hot path") documents the discipline that keeps the
saturated regime fast: value-carrying objects created per flit need
``__slots__``, and per-cycle ``tick()``/``post_tick()`` bodies must not
allocate (no ``sorted()`` materialisations, no list/dict/set
comprehensions) — the batched pipeline of PR 7 only pays off if the
per-event work stays allocation-free.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple

from repro.analysis.lint.framework import (
    LintRule,
    ModuleUnderLint,
    Violation,
    register_rule,
    tick_reachable_methods,
)

#: Modules whose classes are instantiated per flit / per event on the hot
#: path and therefore require ``__slots__``.  Keyed by repro-relative
#: module path; the value lists required class names, or "*" for all
#: non-exception classes in the module.
SLOTS_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "network/packet.py": ("*",),
    "sim/engine.py": ("Event",),
    "sim/stats.py": ("WindowedRate",),
}

#: Modules whose tick()/post_tick() closures must stay allocation-free.
HOT_TICK_MODULES = (
    "core/kernel.py",
    "network/router.py",
    "network/link.py",
    "core/shells/base.py",
    "core/shells/multiconnection.py",
)

#: Extra per-cycle roots beyond tick/post_tick: policy hooks that base-class
#: tick bodies call on subclasses every cycle.
_TICK_ROOTS = ("tick", "post_tick", "_rx_conn_candidates", "_select_conns")


def _is_exception_class(class_node: ast.ClassDef) -> bool:
    for base in class_node.bases:
        name = base.id if isinstance(base, ast.Name) else \
            base.attr if isinstance(base, ast.Attribute) else ""
        if name.endswith(("Error", "Exception", "Warning")):
            return True
    return False


def _has_slots(class_node: ast.ClassDef) -> bool:
    # @dataclass(slots=True) generates __slots__ for us.
    for decorator in class_node.decorator_list:
        if isinstance(decorator, ast.Call):
            name = decorator.func.id if isinstance(
                decorator.func, ast.Name) else getattr(
                decorator.func, "attr", "")
            if name == "dataclass":
                for keyword in decorator.keywords:
                    if (keyword.arg == "slots"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True):
                        return True
    for item in class_node.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name) and \
                        target.id == "__slots__":
                    return True
        elif isinstance(item, ast.AnnAssign):
            if isinstance(item.target, ast.Name) and \
                    item.target.id == "__slots__":
                return True
    return False


@register_rule
class MissingSlotsRule(LintRule):
    """``__slots__`` required on per-flit classes in designated modules."""

    rule_id = "hot-missing-slots"
    title = "__slots__ missing on a hot-path class"
    contract = "PERFORMANCE.md: the hot path"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        rel = module.repro_relpath
        if rel is not None:
            required = SLOTS_REQUIRED.get(rel)
            if required is None:
                return
        else:
            required = ("*",)  # fixture mode: every class is in scope
        for class_node in module.class_defs():
            if _is_exception_class(class_node):
                continue
            if "*" not in required and class_node.name not in required:
                continue
            if _has_slots(class_node):
                continue
            yield self.violation(
                module, class_node,
                f"class {class_node.name} is allocated on the hot path and "
                "must declare __slots__ (instance dicts dominate per-flit "
                "memory traffic)")


_ALLOC_NODES = (ast.ListComp, ast.DictComp, ast.SetComp)
_ALLOC_CALLS = {"sorted"}


@register_rule
class AllocInTickRule(LintRule):
    """No allocation-heavy constructs in tick-reachable methods.

    The per-class closure from ``tick()``/``post_tick()`` (plus the
    per-cycle policy hooks) over direct ``self.X()`` calls must stay free
    of ``sorted()`` and list/dict/set comprehensions: each one allocates
    every cycle the component is awake.  Hoist the computation to a
    configuration-time method, cache it behind a version check, or keep a
    running data structure.  Generator expressions are allowed (no
    materialisation).
    """

    rule_id = "hot-alloc-in-tick"
    title = "allocation-heavy construct inside a tick-reachable method"
    contract = "PERFORMANCE.md: the hot path"
    packages = HOT_TICK_MODULES

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
                    if isinstance(node, _ALLOC_NODES):
                        kind = type(node).__name__
                        yield self.violation(
                            module, node,
                            f"{kind} allocates per cycle inside "
                            f"{class_node.name}.{name} (tick-reachable); "
                            "hoist or keep a running structure")
                    elif (isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Name)
                          and node.func.id in _ALLOC_CALLS):
                        yield self.violation(
                            module, node,
                            f"{node.func.id}() materialises a new list per "
                            f"cycle inside {class_node.name}.{name} "
                            "(tick-reachable); cache behind a version check")
