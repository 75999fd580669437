"""Pluggable AST rules for the ``simcheck`` static pass.

Each rule inspects one parsed module and yields :class:`Finding`
records.  Rules are deliberately flow-insensitive heuristics: they are
tuned to the idioms this codebase actually uses (see DESIGN.md
§"Correctness tooling"), and every one can be silenced in place with a
``# simcheck: ignore[SIMxxx]`` comment on the offending line.

Rule inventory:

=======  ==============================================================
SIM001   wall-clock reads (``time.time``/``time.monotonic``/argless
         ``datetime.now``) inside sim-path modules
SIM002   unseeded randomness (``random.random()``, ``random.Random()``
         with no seed, any module-level ``random.*`` call)
SIM003   iteration over ``set``/``dict.keys()`` whose body schedules
         events (``schedule``/``call_at``/``call_at_cancellable``)
SIM004   a cancellable-timer token stored on ``self`` that no method of
         the class ever ``.cancel()``s, or discarded outright
SIM005   pool ``acquire``/``get``/``alloc`` in a class with no matching
         ``release``/``recycle`` anywhere in that class
SIM006   bare ``except:`` or ``except Exception:`` that swallows the
         error (no re-raise, bound name unused)
SIM007   a module-level ``itertools.count(...)`` in sim-path modules:
         every simulation in the process would share its ids
=======  ==============================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.analysis.findings import Finding

__all__ = ["FileContext", "RULES", "Rule", "register_rule"]


@dataclass
class FileContext:
    """One module as seen by the rules."""

    path: str
    source: str
    tree: ast.Module
    #: False when the module is allowlisted for wall-clock use
    #: (``cli.py``, ``benchmarks/``) — SIM001 skips it.
    sim_path: bool = True


class Rule:
    """Base class: subclasses set ``code``/``summary``/``hint``."""

    code: str = ""
    summary: str = ""
    hint: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: Optional[str] = None,
        hint: Optional[str] = None,
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message if message is not None else self.summary,
            hint=hint if hint is not None else self.hint,
        )


#: code -> rule instance, populated by :func:`register_rule`.
RULES: Dict[str, Rule] = {}


def register_rule(cls):
    """Class decorator: instantiate and index the rule by its code."""
    rule = cls()
    if not rule.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return cls


def _call_name(node: ast.Call) -> Optional[str]:
    """Trailing name of the called function: ``a.b.c()`` -> ``c``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _attr_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; empty for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


@register_rule
class WallClockRule(Rule):
    """SIM001: wall-clock reads leak host time into simulated time."""

    code = "SIM001"
    summary = "wall-clock read in sim-path code"
    hint = (
        "use the simulator clock (sim.now) or move the timing out of the "
        "sim path; allowlisted modules: cli.py, benchmarks/"
    )

    _TIME_ATTRS = {
        "time", "monotonic", "perf_counter",
        "time_ns", "monotonic_ns", "perf_counter_ns",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.sim_path:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) == 2 and chain[0] == "time" and chain[1] in self._TIME_ATTRS:
                yield self.finding(
                    ctx, node, message=f"wall-clock call time.{chain[1]}() in sim-path code"
                )
            elif (
                chain
                and chain[-1] == "now"
                and "datetime" in chain[:-1]
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    ctx, node, message="wall-clock call datetime.now() in sim-path code"
                )


@register_rule
class UnseededRandomRule(Rule):
    """SIM002: the shared module-level RNG breaks run-to-run determinism."""

    code = "SIM002"
    summary = "unseeded randomness"
    hint = "construct random.Random(seed) with an explicit per-run seed"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) == 2 and chain[0] == "random":
                if chain[1] == "Random":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            ctx, node,
                            message="random.Random() constructed without a seed",
                        )
                elif chain[1] == "SystemRandom":
                    continue
                else:
                    yield self.finding(
                        ctx, node,
                        message=(
                            f"module-level random.{chain[1]}() uses the shared "
                            "unseeded RNG"
                        ),
                    )
            elif (
                chain == ["Random"]
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    ctx, node, message="Random() constructed without a seed"
                )


#: Event-scheduling entry points on the engine (SIM003 sinks).
_SCHEDULE_NAMES = {
    "schedule", "call_at", "call_after",
    "call_at_cancellable", "call_after_cancellable",
}


def _is_unordered_iter(node: ast.AST) -> bool:
    """True for iterables with non-deterministic ordering guarantees."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if isinstance(node.func, ast.Name) and name in {"set", "frozenset"}:
            return True
        if isinstance(node.func, ast.Attribute) and name in {
            "keys", "values", "items", "union", "intersection", "difference",
        }:
            # dict.keys() iteration order is insertion order in CPython,
            # but set algebra and dict views fed by sets are not; flag
            # keys/values/items conservatively per the rule spec.
            return True
    return False


@register_rule
class UnorderedScheduleRule(Rule):
    """SIM003: scheduling from an unordered loop leaks iteration order
    into the event heap's tie-break sequence numbers."""

    code = "SIM003"
    summary = "event scheduled from iteration over an unordered collection"
    hint = "iterate a sorted() or otherwise deterministically ordered sequence"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not _is_unordered_iter(node.iter):
                continue
            for inner in node.body:
                for call in ast.walk(inner):
                    if (
                        isinstance(call, ast.Call)
                        and _call_name(call) in _SCHEDULE_NAMES
                    ):
                        yield self.finding(
                            ctx, node,
                            message=(
                                "loop over an unordered collection schedules "
                                f"events via {_call_name(call)}()"
                            ),
                        )
                        break
                else:
                    continue
                break


_TOKEN_FACTORIES = {"call_at_cancellable", "call_after_cancellable"}


def _token_factory_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _call_name(node) in _TOKEN_FACTORIES


@register_rule
class UncancelledTokenRule(Rule):
    """SIM004: a cancellable token nobody can cancel is a plain leak —
    the event stays armed (and re-arms itself, for recurring ticks)
    after the owner is logically shut down."""

    code = "SIM004"
    summary = "cancellable timer token never cancelled"
    hint = (
        "store the token and call .cancel() in the owner's stop()/close(), "
        "or use plain call_at() if cancellation is genuinely never needed"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)
            elif isinstance(node, ast.Expr) and _token_factory_call(node.value):
                yield self.finding(
                    ctx, node,
                    message=(
                        "cancellable timer token discarded at creation "
                        "(can never be cancelled)"
                    ),
                )

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        assigned: Dict[str, ast.AST] = {}
        cancelled: set = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and _token_factory_call(node.value):
                for target in node.targets:
                    fld = self._self_field(target)
                    if fld is not None and fld not in assigned:
                        assigned[fld] = node
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "cancel":
                    fld = self._self_field(node.func.value)
                    if fld is not None:
                        cancelled.add(fld)
        for fld, node in sorted(assigned.items()):
            if fld not in cancelled:
                yield self.finding(
                    ctx, node,
                    message=(
                        f"timer token self.{fld} is never .cancel()ed in "
                        f"class {cls.name}"
                    ),
                )

    @staticmethod
    def _self_field(node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None


_ACQUIRE_NAMES = {"acquire", "get", "alloc"}
_RELEASE_NAMES = {"release", "recycle", "free", "put"}


def _pool_receiver(node: ast.Call) -> bool:
    """True when the call receiver looks like a packet pool."""
    if not isinstance(node.func, ast.Attribute):
        return False
    chain = _attr_chain(node.func.value)
    if not chain:
        return False
    last = chain[-1].lower()
    return last == "pool" or last.endswith("pool") or last.endswith("_pool")


@register_rule
class PoolLifetimeRule(Rule):
    """SIM005: acquiring from a pool in a class that never releases
    anything means every acquired packet is structurally leaked."""

    code = "SIM005"
    summary = "pool acquire without a matching release in the same class"
    hint = (
        "pair every pool.acquire()/get()/alloc() with a release()/recycle() "
        "on some path of the owning class (the NIC is the terminal consumer)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        acquires: List[ast.Call] = []
        releases = False
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in _ACQUIRE_NAMES and _pool_receiver(node):
                acquires.append(node)
            elif name in _RELEASE_NAMES and isinstance(node.func, ast.Attribute):
                releases = True
        if releases:
            return
        for call in acquires:
            yield self.finding(
                ctx, call,
                message=(
                    f"pool {_call_name(call)}() in class {cls.name} with no "
                    "release()/recycle() anywhere in the class"
                ),
            )


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


def _handler_uses_name(handler: ast.ExceptHandler) -> bool:
    if handler.name is None:
        return False
    for node in ast.walk(handler):
        if isinstance(node, ast.Name) and node.id == handler.name:
            return True
    return False


def _broad_exception_names(node: Optional[ast.AST]) -> List[str]:
    """Names in the except clause that catch everything."""
    if node is None:
        return []
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    broad = []
    for expr in exprs:
        chain = _attr_chain(expr)
        if chain and chain[-1] in {"Exception", "BaseException"}:
            broad.append(chain[-1])
    return broad


@register_rule
class SwallowedErrorRule(Rule):
    """SIM006: a handler that catches everything and neither re-raises
    nor inspects the exception silently swallows SimulationError —
    deadlocks and deadline overruns vanish into passing runs."""

    code = "SIM006"
    summary = "broad except swallows simulation errors"
    hint = (
        "catch the specific exception, re-raise, or at minimum bind and "
        "log the error so SimulationError cannot vanish silently"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if handler.type is None:
                    if not _handler_reraises(handler):
                        yield self.finding(
                            ctx, handler,
                            message="bare except: swallows SimulationError",
                        )
                    continue
                broad = _broad_exception_names(handler.type)
                if not broad:
                    continue
                if _handler_reraises(handler) or _handler_uses_name(handler):
                    continue
                yield self.finding(
                    ctx, handler,
                    message=(
                        f"except {broad[0]} neither re-raises nor uses the "
                        "exception (swallows SimulationError)"
                    ),
                )


@register_rule
class ModuleCounterRule(Rule):
    """SIM007: a counter built at import time is shared by every
    simulation in the process, so the ids a run draws from it depend on
    what ran before it."""

    code = "SIM007"
    summary = "module-level itertools.count() in sim-path code"
    hint = (
        "hold the counter on its owner (the Simulator, a backend, an "
        "instance) so each simulation numbers its own ids"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.sim_path:
            return
        # Dotted names that call itertools.count, under any import alias.
        counters = {"itertools.count"}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                counters.update(
                    f"{alias.asname}.count"
                    for alias in node.names
                    if alias.name == "itertools" and alias.asname
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
                counters.update(
                    alias.asname or alias.name
                    for alias in node.names if alias.name == "count"
                )
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and ".".join(_attr_chain(node.func)) in counters
                ):
                    yield self.finding(ctx, node)
