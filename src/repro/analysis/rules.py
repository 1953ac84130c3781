"""The built-in simulator-specific lint rules.

Each rule targets a bug class that has historically broken deterministic
cycle-level simulators (see docs/ANALYSIS.md for rationale and worked
examples per rule):

========================== ====================================================
``no-wall-clock``          wall-clock reads inside simulation code
``seeded-rng-only``        RNGs constructed without an explicit seed
``no-set-iteration-order`` hash-order-dependent set iteration in sim layers
``int-cycle-arithmetic``   true division / ``float()`` on cycle counters
``nonneg-schedule-delay``  negative or un-guarded delays to ``Engine.schedule``
``trace-category-registry``non-literal / unknown trace categories at
                           instrument sites
``telemetry-event-registry`` non-literal / unknown ledger event names at
                           emit sites
``no-dict-mutation-in-iteration`` resizing a mapping while iterating it
``no-mutable-default-arg`` shared mutable default arguments
``no-id-order``            ``id()`` (address-dependent) in ordering-sensitive
                           simulator layers
========================== ====================================================

Rules yield ``(line, col, message)``; scoping, suppressions, and reports
are the framework's job (:mod:`repro.analysis.framework`).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.framework import (
    Module,
    RawFinding,
    excluding,
    in_dirs,
    register,
)
from repro.obs.recorder import TRACE_CATEGORIES
from repro.obs.telemetry.ledger import LEDGER_EVENTS

#: The event-ordering-sensitive simulator layers: everything that runs
#: inside (or schedules onto) the discrete-event engine.
SIM_DIRS = ("sim", "dram", "cxl", "core", "memmgmt")

#: Layers whose *outputs* feed fingerprinted results even though they run
#: host-side: the genomics index structures (shared across runs by the
#: cross-run cache, so any iteration-order dependence would leak between
#: sweep points) and the experiment/scenario layer (job keys and
#: collection order define the bench fingerprint traversal).  The
#: ordering rules cover these in addition to :data:`SIM_DIRS`.
ORDERED_OUTPUT_DIRS = SIM_DIRS + ("genomics", "experiments")


# -- shared AST helpers --------------------------------------------------------

def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _imports(tree: ast.Module) -> Dict[str, str]:
    """Map each locally bound import alias to its canonical dotted origin.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter`` -> ``{"perf_counter":
    "time.perf_counter"}``.  Relative imports are repo-internal and
    ignored on purpose.
    """
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    out[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def _canonical(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a call target through the file's imports.

    Returns ``None`` unless the chain's first segment is an imported
    name, so a local variable that happens to be called ``time`` never
    false-positives.
    """
    dotted = _dotted(node)
    if dotted is None:
        return None
    first, _, rest = dotted.partition(".")
    origin = imports.get(first)
    if origin is None:
        return None
    return f"{origin}.{rest}" if rest else origin


# -- no-wall-clock -------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


@register(
    "no-wall-clock",
    "simulation code must not read the wall clock; results depend only on "
    "simulated time (Engine.now)",
    scope=excluding("perf/", "repro/__main__.py", "repro/obs/export.py",
                    "repro/obs/telemetry/"),
    scope_note="src/repro except repro/perf, repro/__main__.py, "
               "repro/obs/export.py, repro/obs/telemetry/ (fleet "
               "telemetry measures host wall time by design and never "
               "touches simulated state)",
)
def check_wall_clock(module: Module) -> Iterator[RawFinding]:
    """Flag wall-clock reads (time.*, datetime.now) in simulation code."""
    imports = _imports(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        canon = _canonical(node.func, imports)
        if canon in _WALL_CLOCK_CALLS:
            yield (
                node.lineno, node.col_offset,
                f"wall-clock read {canon}() in simulator code: timing must "
                "come from the engine clock, not the host",
            )


# -- seeded-rng-only -----------------------------------------------------------

_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randrange", "randint", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "seed", "getrandbits", "betavariate",
    "expovariate", "normalvariate", "triangular", "vonmisesvariate",
})
_GLOBAL_NUMPY_FUNCS = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "choice", "shuffle", "permutation", "normal", "uniform", "binomial",
})


@register(
    "seeded-rng-only",
    "RNGs must be constructed with an explicit seed; interpreter-global "
    "RNG state is banned",
)
def check_seeded_rng(module: Module) -> Iterator[RawFinding]:
    """Flag unseeded RNG construction and interpreter-global RNG use."""
    imports = _imports(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        canon = _canonical(node.func, imports)
        if canon is None:
            continue
        if canon == "random.Random" and not node.args and not node.keywords:
            yield (
                node.lineno, node.col_offset,
                "random.Random() without an explicit seed: identical runs "
                "would diverge",
            )
        elif (canon == "numpy.random.default_rng"
              and not node.args and not node.keywords):
            yield (
                node.lineno, node.col_offset,
                "np.random.default_rng() without an explicit seed: "
                "identical runs would diverge",
            )
        elif canon.startswith("random."):
            func = canon.split(".", 1)[1]
            if "." not in func and func in _GLOBAL_RANDOM_FUNCS:
                yield (
                    node.lineno, node.col_offset,
                    f"random.{func}() uses the interpreter-global RNG; use "
                    "a local random.Random(seed) instead",
                )
        elif canon.startswith("numpy.random."):
            func = canon.rsplit(".", 1)[1]
            if func in _GLOBAL_NUMPY_FUNCS:
                yield (
                    node.lineno, node.col_offset,
                    f"np.random.{func}() uses numpy's global RNG; use "
                    "np.random.default_rng(seed) instead",
                )


# -- no-set-iteration-order ----------------------------------------------------

_ITERATING_BUILTINS = frozenset({
    "list", "tuple", "iter", "enumerate", "reversed", "next",
})


class _SetOrderScope(ast.NodeVisitor):
    """Per-scope tracker: which local names currently hold a set, and
    where a set expression is iterated without ``sorted(...)``."""

    def __init__(self, emit) -> None:
        self.emit = emit
        self.env: set = set()

    # -- set-expression classification ------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.env
        return False

    @staticmethod
    def _annotation_is_set(annotation: ast.AST) -> bool:
        target = annotation
        if isinstance(target, ast.Subscript):
            target = target.value
        name = _terminal_name(target)
        return name in ("Set", "FrozenSet", "set", "frozenset", "MutableSet")

    def _describe(self, node: ast.AST) -> str:
        name = _terminal_name(node)
        return f"set {name!r}" if name else "a set expression"

    def _flag(self, node: ast.AST) -> None:
        self.emit((
            node.lineno, node.col_offset,
            f"iterating {self._describe(node)} has hash-seed-dependent "
            "order; wrap it in sorted(...) before it can influence "
            "simulation or output order",
        ))

    # -- scope boundaries ---------------------------------------------------

    def _enter_subscope(self, body) -> None:
        sub = _SetOrderScope(self.emit)
        for stmt in body:
            sub.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self.visit(default)
        self._enter_subscope(node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter_subscope(node.body)

    # -- environment updates ------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self.env.add(target.id)
                else:
                    self.env.discard(target.id)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        if isinstance(node.target, ast.Name):
            if self._annotation_is_set(node.annotation) or (
                node.value is not None and self._is_set_expr(node.value)
            ):
                self.env.add(node.target.id)
            else:
                self.env.discard(node.target.id)

    # -- iteration sites ----------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node.iter)
        else:
            self.visit(node.iter)
        if isinstance(node.target, ast.Name):
            self.env.discard(node.target.id)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def _check_generators(self, node) -> None:
        for gen in node.generators:
            if self._is_set_expr(gen.iter):
                self._flag(gen.iter)
            else:
                self.visit(gen.iter)
            for cond in gen.ifs:
                self.visit(cond)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_generators(node)
        self.visit(node.elt)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_generators(node)
        self.visit(node.elt)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        # Dict insertion order leaks the iteration order, so building a
        # dict from a set is just as order-dependent as a list.
        self._check_generators(node)
        self.visit(node.key)
        self.visit(node.value)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a *set* from a set is order-independent: do not flag
        # the generators, but keep walking for nested iteration sites.
        for gen in node.generators:
            self.visit(gen.iter)
            for cond in gen.ifs:
                self.visit(cond)
        self.visit(node.elt)

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name)
                and node.func.id in _ITERATING_BUILTINS
                and node.args and self._is_set_expr(node.args[0])):
            self._flag(node.args[0])
            for arg in node.args[1:]:
                self.visit(arg)
        else:
            self.generic_visit(node)


@register(
    "no-set-iteration-order",
    "iterating a set in the simulator layers is hash-seed-dependent; "
    "wrap in sorted(...)",
    scope=in_dirs(*ORDERED_OUTPUT_DIRS),
    scope_note="sim/, dram/, cxl/, core/, memmgmt/, genomics/, "
               "experiments/",
)
def check_set_iteration(module: Module) -> List[RawFinding]:
    """Flag iteration over set-typed values in order-sensitive layers."""
    out: List[RawFinding] = []
    scope = _SetOrderScope(out.append)
    for stmt in module.tree.body:
        scope.visit(stmt)
    return out


# -- int-cycle-arithmetic ------------------------------------------------------

_CYCLE_NAME = re.compile(r"(?:^|_)(?:cycles?|now|ts)$")


def _cycle_operand(node: ast.AST) -> Optional[str]:
    """A cycle-suffixed identifier inside an arithmetic expression, if
    any — recurses through +/-/*/,// and unary ops so ``(a_cycles +
    b_cycles) / 2`` is caught, not just ``a_cycles / 2``."""
    name = _terminal_name(node)
    if name is not None:
        return name if _CYCLE_NAME.search(name) else None
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod)
    ):
        return _cycle_operand(node.left) or _cycle_operand(node.right)
    if isinstance(node, ast.UnaryOp):
        return _cycle_operand(node.operand)
    return None


@register(
    "int-cycle-arithmetic",
    "cycle counters are integers: use // not /, and never float(); "
    "float derates belong in reporting code",
    scope=in_dirs(*SIM_DIRS),
    scope_note="sim/, dram/, cxl/, core/, memmgmt/",
)
def check_int_cycle_arithmetic(module: Module) -> Iterator[RawFinding]:
    """Flag true division / float() on cycle-valued names in timing code."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            name = _cycle_operand(node.left) or _cycle_operand(node.right)
            if name is not None:
                yield (
                    node.lineno, node.col_offset,
                    f"true division on cycle-valued {name!r}: use // "
                    "for cycle arithmetic (float results drift; only "
                    "derived reporting metrics may divide, with a "
                    "suppression explaining so)",
                )
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id == "float" and node.args):
            name = _terminal_name(node.args[0])
            if name is not None and _CYCLE_NAME.search(name):
                yield (
                    node.lineno, node.col_offset,
                    f"float() applied to cycle-valued {name!r}: cycle "
                    "counters must stay integral inside the simulator",
                )


# -- nonneg-schedule-delay -----------------------------------------------------

#: Engine methods taking a *relative* delay as their first argument.
#: ``schedule_cancellable`` (handle-returning) shares ``schedule``'s delay
#: semantics, so the rule covers both; ``schedule_at`` takes an absolute
#: time and has its own in-engine guard.
_DELAY_METHODS = frozenset({"schedule", "schedule_cancellable"})


@register(
    "nonneg-schedule-delay",
    "delays passed to Engine.schedule/schedule_cancellable must be "
    "provably non-negative (no negative literals, no bare subtraction)",
)
def check_schedule_delay(module: Module) -> Iterator[RawFinding]:
    """Flag negative or un-guarded-subtraction delays passed to schedule()."""
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DELAY_METHODS and node.args):
            continue
        delay = node.args[0]
        if (isinstance(delay, ast.Constant)
                and isinstance(delay.value, (int, float))
                and delay.value < 0):
            yield (
                node.lineno, node.col_offset,
                f"literal negative delay {delay.value!r} passed to "
                "schedule(); the engine cannot travel back in time",
            )
        elif isinstance(delay, ast.UnaryOp) and isinstance(delay.op, ast.USub):
            yield (
                node.lineno, node.col_offset,
                "negated delay passed to schedule(); delays must be "
                "non-negative",
            )
        elif isinstance(delay, ast.BinOp) and isinstance(delay.op, ast.Sub):
            yield (
                node.lineno, node.col_offset,
                "un-guarded subtraction passed to schedule(); wrap in "
                "max(0, ...) or guard explicitly so the delay cannot go "
                "negative",
            )


# -- trace-category-registry ---------------------------------------------------

_RECORDER_METHODS = frozenset({
    "complete", "instant", "counter", "async_begin", "async_end",
})


def _looks_like_recorder(node: ast.AST) -> bool:
    name = _terminal_name(node)
    return name is not None and ("tracer" in name or "recorder" in name)


@register(
    "trace-category-registry",
    "trace categories at instrument sites must be string literals from "
    "repro.obs.TRACE_CATEGORIES",
)
def check_trace_categories(module: Module) -> Iterator[RawFinding]:
    """Require literal, registry-known categories at instrument sites."""
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RECORDER_METHODS
                and _looks_like_recorder(node.func.value)
                and node.args):
            continue
        cat = node.args[0]
        if not (isinstance(cat, ast.Constant) and isinstance(cat.value, str)):
            yield (
                node.lineno, node.col_offset,
                f"trace category passed to {node.func.attr}() must be a "
                "string literal so the profiler's stitcher can rely on the "
                "registry",
            )
        elif cat.value not in TRACE_CATEGORIES:
            yield (
                node.lineno, node.col_offset,
                f"unknown trace category {cat.value!r}; known categories: "
                f"{', '.join(TRACE_CATEGORIES)} (extend "
                "repro.obs.recorder.TRACE_CATEGORIES first)",
            )


# -- telemetry-event-registry --------------------------------------------------

def _looks_like_ledger(node: ast.AST) -> bool:
    name = _terminal_name(node)
    return name is not None and ("ledger" in name or "writer" in name)


@register(
    "telemetry-event-registry",
    "ledger event names at emit sites must be string literals from "
    "repro.obs.telemetry.LEDGER_EVENTS",
)
def check_ledger_events(module: Module) -> Iterator[RawFinding]:
    """Require literal, registry-known event names at ledger emit sites.

    The run ledger's value is that any campaign is reconstructable after
    the fact, which only holds if the event vocabulary is closed: a
    computed or unregistered name at an ``emit()`` site would produce
    lines ``read_ledger``/``status`` cannot classify.  Same discipline as
    ``trace-category-registry``, applied to the fleet-telemetry layer.
    """
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and _looks_like_ledger(node.func.value)
                and node.args):
            continue
        event = node.args[0]
        if not (isinstance(event, ast.Constant)
                and isinstance(event.value, str)):
            yield (
                node.lineno, node.col_offset,
                "ledger event passed to emit() must be a string literal so "
                "the ledger's event vocabulary stays closed and "
                "machine-checkable",
            )
        elif event.value not in LEDGER_EVENTS:
            yield (
                node.lineno, node.col_offset,
                f"unknown ledger event {event.value!r}; registered events: "
                f"{', '.join(LEDGER_EVENTS)} (extend "
                "repro.obs.telemetry.ledger.LEDGER_EVENTS first)",
            )


# -- no-dict-mutation-in-iteration ---------------------------------------------

_CONTAINER_MUTATORS = frozenset({
    "pop", "popitem", "clear", "update", "setdefault",
    "add", "discard", "remove",
})


@register(
    "no-dict-mutation-in-iteration",
    "do not resize a mapping/set while iterating it; collect changes "
    "first or iterate a copy",
)
def check_dict_mutation(module: Module) -> Iterator[RawFinding]:
    """Flag resizing a mapping/set while iterating that same container."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.For):
            continue
        container = node.iter
        if (isinstance(container, ast.Call)
                and isinstance(container.func, ast.Attribute)
                and container.func.attr in ("items", "keys", "values")
                and not container.args):
            container = container.func.value
        key = _dotted(container)
        if key is None:
            continue
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if (isinstance(target, ast.Subscript)
                                and _dotted(target.value) == key):
                            yield (
                                sub.lineno, sub.col_offset,
                                f"assignment into {key!r} while iterating "
                                "it can resize the container mid-loop",
                            )
                elif isinstance(sub, ast.Delete):
                    for target in sub.targets:
                        if (isinstance(target, ast.Subscript)
                                and _dotted(target.value) == key):
                            yield (
                                sub.lineno, sub.col_offset,
                                f"del on {key!r} while iterating it",
                            )
                elif (isinstance(sub, ast.Call)
                      and isinstance(sub.func, ast.Attribute)
                      and sub.func.attr in _CONTAINER_MUTATORS
                      and _dotted(sub.func.value) == key):
                    yield (
                        sub.lineno, sub.col_offset,
                        f"{key}.{sub.func.attr}() while iterating {key!r}",
                    )


# -- no-mutable-default-arg ----------------------------------------------------

_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque",
    "Counter", "OrderedDict",
})


@register(
    "no-mutable-default-arg",
    "mutable default arguments are shared across calls (and across "
    "simulated systems); default to None and build inside",
)
def check_mutable_defaults(module: Module) -> Iterator[RawFinding]:
    """Flag mutable default arguments (one instance shared across calls)."""
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_FACTORIES):
                mutable = True
            if mutable:
                yield (
                    default.lineno, default.col_offset,
                    "mutable default argument: one instance is shared by "
                    "every call; use None and construct in the body",
                )


# -- no-id-order ---------------------------------------------------------------

@register(
    "no-id-order",
    "id() is an interpreter address: it varies run-to-run and must never "
    "influence ordering in the simulator layers",
    scope=in_dirs(*ORDERED_OUTPUT_DIRS),
    scope_note="sim/, dram/, cxl/, core/, memmgmt/, genomics/, "
               "experiments/",
)
def check_id_order(module: Module) -> Iterator[RawFinding]:
    """Flag id() in the ordering-sensitive simulator layers."""
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id" and len(node.args) == 1):
            yield (
                node.lineno, node.col_offset,
                "id() is address-dependent and differs between runs; it "
                "may back identity-membership tables only (suppress with "
                "a justification), never ordering or iteration",
            )
