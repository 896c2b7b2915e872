"""The SA rule catalog: purity, fork-safety, determinism, registry rules.

Four rule families guard the source-level invariants the batch engine's
correctness rests on (see ``docs/analysis.md`` for the worked catalog):

========  ========  ======================================================
SA003     error     mutable class attribute on a codec class — shared
                    between every instance, corrupts concurrent streams
SA004     error     mutable default argument on a codec-class method —
                    state smuggled between calls defeats ``reset()``
SA005     error     module-global mutable state written from
                    worker-reachable code (outside the sanctioned
                    ``repro.obs`` layer) — lost on fork, diverges between
                    parent and workers
SA006     error     lock/file/lambda/generator captured in a ``Cell``
                    payload — cells must stay picklable, JSON-ready work
                    units
SA007     error     nested process pool created in worker-reachable code
SA008     error     nondeterministic source (unseeded ``random``,
                    ``time.time``, ``os.urandom``, ``uuid``, ``secrets``)
                    feeding cache keys or manifest views
SA009     error     iteration over a set feeding cache keys/manifests
                    without ``sorted()`` — order varies per process
SA010     error     ``id()``/``hash()`` feeding cache keys/manifests —
                    values vary per process (PYTHONHASHSEED, allocator)
SA011     error     use of a deprecated internal API (configured per
                    project) — migrate to the replacement
SA012     error     registered codec has no word-level formal spec
                    (``SPEC_BUILDERS``) — ``repro-bus prove`` cannot close
                    over it
SA013     error     registered codec has no contract entry
                    (``CODEC_CONTRACTS``)
SA015     error     registry builder metadata incomplete: ``Codec(...)``
                    without ``encoder_cls`` (cache code-versioning cannot
                    see the codec's source) or a name mismatching the
                    registration
========  ========  ======================================================

Per-module rules run in a **single pass**: one recursive AST walk per file
dispatches nodes to every interested rule via :func:`run_local_rules`.
Project rules (reachability- and registry-scoped) run once over the parsed
project with a shared :class:`CheckContext`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from typing import (
    ClassVar,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.analysis.report import Severity
from repro.analysis.static.callgraph import CallGraph
from repro.analysis.static.project import (
    ModuleInfo,
    Project,
    dotted_name,
    is_mutable_value,
)


@dataclass(frozen=True)
class RawFinding:
    """One rule hit, before suppression/baseline filtering."""

    rule: str
    severity: Severity
    module: str
    path: str
    line: int
    message: str
    subject: str

    @property
    def baseline_key(self) -> Tuple[str, str, str]:
        """The identity baseline entries match on (line numbers excluded,
        so grandfathered findings survive unrelated edits to the file)."""
        return (self.rule, self.module, self.subject)


# ---------------------------------------------------------------------------
# Shared context
# ---------------------------------------------------------------------------

_MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "extend",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "sort",
        "appendleft",
        "extendleft",
    }
)

_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event", "Barrier"}
)


class CheckContext:
    """Everything the rules share: project, config, graph, derived scopes."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.config = project.config
        self._codec_class_memo: Dict[str, bool] = {}

    @cached_property
    def graph(self) -> CallGraph:
        return CallGraph(self.project)

    @cached_property
    def worker_reachable(self) -> Set[str]:
        return self.graph.reachable(self.config.worker_entries)

    @cached_property
    def key_reachable(self) -> Set[str]:
        return self.graph.reachable(self.config.key_entries)

    def worker_allowlisted(self, qualname: str) -> bool:
        return any(
            qualname.startswith(prefix)
            for prefix in self.config.worker_allowlist
        )

    # -- class classification ------------------------------------------

    def is_codec_class(self, module: ModuleInfo, node: ast.ClassDef) -> bool:
        """True for classes deriving (transitively) from a codec base."""
        targets = self.config.codec_bases
        memo = self._codec_class_memo
        qualname = f"{module.name}.{node.name}"
        if qualname in memo:
            return memo[qualname]
        memo[qualname] = False  # cycle guard
        result = node.name in targets
        if not result:
            for base in node.bases:
                base_name = dotted_name(base)
                if base_name is None:
                    continue
                if base_name.split(".")[-1] in targets:
                    result = True
                    break
                resolved = self.graph.resolve(module, base_name)
                if resolved is not None and resolved in self.graph.classes:
                    info = self.graph.classes[resolved]
                    if self.is_codec_class(info.module, info.node):
                        result = True
                        break
        memo[qualname] = result
        return result

    @cached_property
    def module_level_mutables(self) -> Dict[str, Set[str]]:
        """Per module: names bound at module level to mutable containers."""
        result: Dict[str, Set[str]] = {}
        for name, module in self.project.modules.items():
            found: Set[str] = set()
            for node in module.tree.body:
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None or not is_mutable_value(value):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        found.add(target.id)
            result[name] = found
        return result

    @cached_property
    def registered_codecs(self) -> Dict[str, Tuple[ModuleInfo, int]]:
        """Codec name -> (registry module, registration line)."""
        registry_names = self.config.registry_modules
        modules = (
            [m for n, m in self.project.modules.items() if n in registry_names]
            if registry_names
            else list(self.project.scanned_modules())
        )
        found: Dict[str, Tuple[ModuleInfo, int]] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = _registered_name(node)
                if name is not None and name not in found:
                    found[name] = (module, node.lineno)
        return found

    @cached_property
    def spec_names(self) -> Optional[Set[str]]:
        """Codec names with both encoder and decoder formal specs, or None
        when the configured specs module is absent from the project."""
        module = self.project.get(self.config.specs_module)
        if module is None:
            return None
        sides: Dict[str, Set[str]] = {}
        for value in _assigned_values(module, self.config.specs_variable):
            if not isinstance(value, ast.Dict):
                continue
            for key in value.keys:
                if (
                    isinstance(key, ast.Tuple)
                    and len(key.elts) == 2
                    and all(isinstance(e, ast.Constant) for e in key.elts)
                ):
                    codec, side = (e.value for e in key.elts)  # type: ignore[attr-defined]
                    if isinstance(codec, str) and isinstance(side, str):
                        sides.setdefault(codec, set()).add(side)
                elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                    sides.setdefault(key.value, set()).update(
                        ("encoder", "decoder")
                    )
        return {
            codec
            for codec, present in sides.items()
            if {"encoder", "decoder"} <= present
        }

    @cached_property
    def contract_names(self) -> Optional[Set[str]]:
        """Codec names with a contract entry, or None when unavailable."""
        module = self.project.get(self.config.contracts_module)
        if module is None:
            return None
        names: Set[str] = set()
        for value in _assigned_values(module, self.config.contracts_variable):
            if isinstance(value, ast.Dict):
                names.update(
                    key.value
                    for key in value.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                )
        return names

def _registered_name(node: ast.AST) -> Optional[str]:
    """The codec name registered by an ``@register_codec("x")`` decorator."""
    decorators = getattr(node, "decorator_list", [])
    for decorator in decorators:
        if not isinstance(decorator, ast.Call):
            continue
        name = dotted_name(decorator.func)
        if name is None or name.split(".")[-1] != "register_codec":
            continue
        if decorator.args and isinstance(decorator.args[0], ast.Constant):
            value = decorator.args[0].value
            if isinstance(value, str):
                return value
    return None


def _assigned_values(module: ModuleInfo, variable: str) -> Iterator[ast.expr]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == variable
                for t in node.targets
            ):
                yield node.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == variable
            and node.value is not None
        ):
            yield node.value


# ---------------------------------------------------------------------------
# Rule framework
# ---------------------------------------------------------------------------


@dataclass
class Scope:
    """Where the single-pass sweep currently is inside one module."""

    module: ModuleInfo
    class_stack: List[ast.ClassDef]
    function_stack: List[ast.AST]

    @property
    def enclosing_class(self) -> Optional[ast.ClassDef]:
        return self.class_stack[-1] if self.class_stack else None

    @property
    def enclosing_function(self) -> Optional[ast.AST]:
        return self.function_stack[-1] if self.function_stack else None


class Rule:
    """Base class: identity, severity, and a rationale docstring."""

    rule_id: ClassVar[str]
    severity: ClassVar[Severity] = Severity.ERROR
    family: ClassVar[str]
    title: ClassVar[str]

    def finding(
        self,
        ctx: CheckContext,
        module: ModuleInfo,
        line: int,
        message: str,
        subject: str,
    ) -> RawFinding:
        return RawFinding(
            rule=self.rule_id,
            severity=self.severity,
            module=module.name,
            path=ctx.project.display_path(module),
            line=line,
            message=message,
            subject=subject,
        )


class LocalRule(Rule):
    """A rule fed nodes by the shared single-pass module sweep."""

    node_types: ClassVar[Tuple[type, ...]] = ()

    def visit(
        self, ctx: CheckContext, node: ast.AST, scope: Scope
    ) -> Iterator[RawFinding]:
        raise NotImplementedError  # pragma: no cover - abstract

    def wants(self, node: ast.AST) -> bool:
        return isinstance(node, self.node_types)


class ProjectRule(Rule):
    """A rule that runs once over the whole parsed project."""

    def run(self, ctx: CheckContext) -> Iterator[RawFinding]:
        raise NotImplementedError  # pragma: no cover - abstract


def run_local_rules(
    ctx: CheckContext, rules: Sequence[LocalRule]
) -> List[RawFinding]:
    """One recursive AST walk per scanned module, dispatching to rules."""
    findings: List[RawFinding] = []

    def sweep(node: ast.AST, scope: Scope) -> None:
        for rule in rules:
            if rule.wants(node):
                findings.extend(rule.visit(ctx, node, scope))
        is_class = isinstance(node, ast.ClassDef)
        is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_class:
            scope.class_stack.append(node)  # type: ignore[arg-type]
        if is_function:
            scope.function_stack.append(node)
        for child in ast.iter_child_nodes(node):
            sweep(child, scope)
        if is_class:
            scope.class_stack.pop()
        if is_function:
            scope.function_stack.pop()

    for module in ctx.project.scanned_modules():
        sweep(module.tree, Scope(module, [], []))
    return findings


# ---------------------------------------------------------------------------
# Purity rules (SA003-SA004)
# ---------------------------------------------------------------------------


class MutableClassAttribute(LocalRule):
    """Codec classes must not declare mutable class attributes.

    A class-level list/dict/set is shared by every encoder/decoder
    instance of that class; two concurrent streams then corrupt each
    other's registers, and ``reset()`` cannot restore the power-up state.
    """

    rule_id = "SA003"
    family = "purity"
    title = "mutable class attribute on a codec class"
    node_types = (ast.Assign, ast.AnnAssign)

    def visit(
        self, ctx: CheckContext, node: ast.AST, scope: Scope
    ) -> Iterator[RawFinding]:
        klass = scope.enclosing_class
        if klass is None or scope.enclosing_function is not None:
            return
        if not ctx.is_codec_class(scope.module, klass):
            return
        value = node.value if not isinstance(node, ast.Delete) else None
        if value is None or not is_mutable_value(value):
            return
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Name):
                yield self.finding(
                    ctx,
                    scope.module,
                    node.lineno,
                    f"codec class {klass.name} declares mutable class "
                    f"attribute {target.id!r} (shared across instances)",
                    subject=f"{klass.name}.{target.id}",
                )


class MutableDefaultArgument(LocalRule):
    """Codec-class methods must not take mutable default arguments.

    A mutable default is evaluated once and shared by every call — state
    smuggled past ``reset()``, which only covers instance attributes.
    """

    rule_id = "SA004"
    family = "purity"
    title = "mutable default argument on a codec-class method"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(
        self, ctx: CheckContext, node: ast.AST, scope: Scope
    ) -> Iterator[RawFinding]:
        klass = scope.enclosing_class
        if klass is None or not ctx.is_codec_class(scope.module, klass):
            return
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        arguments = node.args
        defaults = list(arguments.defaults) + [
            d for d in arguments.kw_defaults if d is not None
        ]
        for default in defaults:
            if is_mutable_value(default):
                yield self.finding(
                    ctx,
                    scope.module,
                    default.lineno,
                    f"{klass.name}.{node.name} has a mutable default "
                    "argument (shared across calls)",
                    subject=f"{klass.name}.{node.name}",
                )


# ---------------------------------------------------------------------------
# Fork-safety rules (SA005-SA007)
# ---------------------------------------------------------------------------


class WorkerGlobalMutation(ProjectRule):
    """Worker-reachable code must not write module-global mutable state.

    A forked worker copies the parent's globals; writes made there are
    invisible to the parent (and to every other worker), so results that
    depend on them silently diverge.  The sanctioned exception is the
    :mod:`repro.obs` layer, whose fork protocol (``detach_sinks`` + local
    capture/replay) exists precisely to make its process-global tracer
    and metrics registry safe — the configured allowlist covers it.
    """

    rule_id = "SA005"
    family = "fork-safety"
    title = "module-global mutable state written from worker-reachable code"

    def run(self, ctx: CheckContext) -> Iterator[RawFinding]:
        for qualname in sorted(ctx.worker_reachable):
            if ctx.worker_allowlisted(qualname):
                continue
            info = ctx.graph.functions[qualname]
            yield from self._check_function(ctx, qualname, info)

    def _check_function(
        self, ctx: CheckContext, qualname: str, info: "FunctionLike"
    ) -> Iterator[RawFinding]:
        module = info.module
        module_mutables = ctx.module_level_mutables.get(module.name, set())
        local_names = _local_bindings(info.node)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                assigned = _assigned_names(info.node)
                for name in node.names:
                    if name in assigned:
                        yield self.finding(
                            ctx,
                            module,
                            node.lineno,
                            f"{qualname} rebinds module global {name!r}; "
                            "worker writes are lost on fork (route results "
                            "through the cell payload instead)",
                            subject=f"{qualname}:{name}",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in module_mutables
                    and func.value.id not in local_names
                ):
                    yield self.finding(
                        ctx,
                        module,
                        node.lineno,
                        f"{qualname} mutates module-level container "
                        f"{func.value.id!r} via .{func.attr}(); worker "
                        "writes are lost on fork",
                        subject=f"{qualname}:{func.value.id}",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in module_mutables
                        and target.value.id not in local_names
                    ):
                        yield self.finding(
                            ctx,
                            module,
                            target.lineno,
                            f"{qualname} writes into module-level container "
                            f"{target.value.id!r}; worker writes are lost "
                            "on fork",
                            subject=f"{qualname}:{target.value.id}",
                        )


class UnpicklableCellPayload(LocalRule):
    """Cells must stay picklable, JSON-ready work units.

    A lock, open file handle, lambda or live generator stored into a
    ``Cell``/``make_cell`` argument either fails to pickle at fan-out time
    or (worse) pickles a stale copy; payloads must be plain data.
    """

    rule_id = "SA006"
    family = "fork-safety"
    title = "unpicklable/stateful value in a Cell payload"
    node_types = (ast.Call,)

    def visit(
        self, ctx: CheckContext, node: ast.AST, scope: Scope
    ) -> Iterator[RawFinding]:
        assert isinstance(node, ast.Call)
        callee = dotted_name(node.func)
        if callee is None or callee.split(".")[-1] not in ("Cell", "make_cell"):
            return
        values = list(node.args) + [kw.value for kw in node.keywords]
        for value in values:
            problem = self._problem(value)
            if problem is not None:
                yield self.finding(
                    ctx,
                    scope.module,
                    value.lineno,
                    f"{callee.split('.')[-1]}(...) payload captures "
                    f"{problem}; cells must be picklable plain data",
                    subject=f"{callee.split('.')[-1]}:{problem}",
                )

    @staticmethod
    def _problem(value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.GeneratorExp):
            return "a generator expression"
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is None:
                return None
            tail = name.split(".")[-1]
            if tail == "open":
                return "an open file handle"
            if tail in _LOCK_FACTORIES:
                return f"a threading primitive ({tail})"
        return None


class NestedPoolCreation(ProjectRule):
    """Worker-reachable code must not create process pools.

    A pool inside a pool forks from a worker mid-task: daemonic children
    either refuse to spawn or deadlock on inherited pool locks.  Fan-out
    belongs to :class:`repro.engine.runner.BatchEngine` alone.
    """

    rule_id = "SA007"
    family = "fork-safety"
    title = "nested process pool created in worker-reachable code"

    def run(self, ctx: CheckContext) -> Iterator[RawFinding]:
        for qualname in sorted(ctx.worker_reachable):
            info = ctx.graph.functions[qualname]
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                tail: Optional[str] = None
                name = dotted_name(node.func)
                if name is not None:
                    tail = name.split(".")[-1]
                elif isinstance(node.func, ast.Attribute):
                    tail = node.func.attr
                if tail in ("Pool", "ProcessPoolExecutor"):
                    yield self.finding(
                        ctx,
                        info.module,
                        node.lineno,
                        f"{qualname} creates a process pool ({tail}) inside "
                        "worker-reachable code",
                        subject=qualname,
                    )


# ---------------------------------------------------------------------------
# Determinism rules (SA008-SA010)
# ---------------------------------------------------------------------------


def _resolve_external(module: ModuleInfo, bindings: Dict[str, str], name: str) -> str:
    """Expand the head of a dotted reference through import bindings."""
    head, _, rest = name.partition(".")
    target = bindings.get(head, head)
    return f"{target}.{rest}" if rest else target


class NondeterministicKeySource(ProjectRule):
    """Cache keys and manifest views must be pure functions of content.

    An unseeded RNG, a wall clock, ``os.urandom`` or a UUID inside key
    construction makes every run a cache miss at best — and at worst lets
    two different results share one key, which the warm path then serves
    as truth.  Seeded ``random.Random(seed)`` instances are fine.
    """

    rule_id = "SA008"
    family = "determinism"
    title = "nondeterministic source feeding cache keys/manifests"

    def run(self, ctx: CheckContext) -> Iterator[RawFinding]:
        for qualname in sorted(ctx.key_reachable):
            info = ctx.graph.functions[qualname]
            bindings = ctx.graph._bindings.get(info.module.name, {})
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                full = _resolve_external(info.module, bindings, name)
                reason = self._reason(full, node)
                if reason is not None:
                    yield self.finding(
                        ctx,
                        info.module,
                        node.lineno,
                        f"{qualname} calls {full} ({reason}) while feeding "
                        "cache keys/manifests",
                        subject=f"{qualname}:{full}",
                    )

    @staticmethod
    def _reason(full: str, node: ast.Call) -> Optional[str]:
        if full == "random.Random" or full.endswith(".Random"):
            if not node.args and not node.keywords:
                return "unseeded Random()"
            return None
        if full.startswith("random."):
            return "module-level random shares unseeded global state"
        if full in ("time.time", "time.time_ns", "time.monotonic", "time.perf_counter"):
            return "wall-clock value"
        if full == "os.urandom":
            return "OS entropy"
        if full.startswith("uuid.uuid"):
            return "UUID generation"
        if full.startswith("secrets."):
            return "cryptographic randomness"
        if "datetime" in full and full.split(".")[-1] in ("now", "utcnow", "today"):
            return "wall-clock timestamp"
        if "numpy.random" in full and not full.endswith("seed"):
            return "numpy RNG"
        return None


class UnorderedSetIteration(ProjectRule):
    """Set iteration order must not leak into cache keys/manifests.

    Iterating a set hashes its elements, and string hashing is salted per
    process (``PYTHONHASHSEED``): the same inputs digest differently on
    every run.  Wrap the iteration in ``sorted(...)``.
    """

    rule_id = "SA009"
    family = "determinism"
    title = "unordered set iteration feeding cache keys/manifests"

    def run(self, ctx: CheckContext) -> Iterator[RawFinding]:
        for qualname in sorted(ctx.key_reachable):
            info = ctx.graph.functions[qualname]
            for node in ast.walk(info.node):
                iters: List[ast.expr] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    iters.extend(gen.iter for gen in node.generators)
                for candidate in iters:
                    if self._is_set_expr(candidate):
                        yield self.finding(
                            ctx,
                            info.module,
                            candidate.lineno,
                            f"{qualname} iterates a set in key-path code; "
                            "wrap in sorted(...) for a stable order",
                            subject=qualname,
                        )

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name is not None and name.split(".")[-1] in (
                "set",
                "frozenset",
            )
        return False


class ProcessLocalIdentity(ProjectRule):
    """``id()``/``hash()`` must not feed cache keys/manifests.

    Both are process-local: ``id`` is an allocator address, ``hash`` of
    strings/bytes is salted per process.  Keys built from them never
    match across runs — content must be digested instead.
    """

    rule_id = "SA010"
    family = "determinism"
    title = "id()/hash() feeding cache keys/manifests"

    def run(self, ctx: CheckContext) -> Iterator[RawFinding]:
        for qualname in sorted(ctx.key_reachable):
            info = ctx.graph.functions[qualname]
            for node in ast.walk(info.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("id", "hash")
                ):
                    yield self.finding(
                        ctx,
                        info.module,
                        node.lineno,
                        f"{qualname} feeds {node.func.id}() into key-path "
                        "code; the value differs on every run",
                        subject=f"{qualname}:{node.func.id}",
                    )


# ---------------------------------------------------------------------------
# API hygiene (SA011)
# ---------------------------------------------------------------------------


class DeprecatedInternalApi(LocalRule):
    """Internal code must not use deprecated shims.

    The shims exist so *external* users get a release of warning; internal
    callers migrating late keep the deprecation cycle open forever.  The
    public re-export sites carry explicit ``# repro: noqa SA011`` markers.
    """

    rule_id = "SA011"
    family = "api-hygiene"
    title = "use of a deprecated internal API"
    node_types = (ast.Call, ast.ImportFrom)

    def visit(
        self, ctx: CheckContext, node: ast.AST, scope: Scope
    ) -> Iterator[RawFinding]:
        deprecated = dict(ctx.config.deprecated_apis)
        if not deprecated:
            return
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in deprecated:
                    yield self.finding(
                        ctx,
                        scope.module,
                        alias.lineno,
                        f"import of deprecated {alias.name!r}; use "
                        f"{deprecated[alias.name]!r}",
                        subject=alias.name,
                    )
            return
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name is None:
            return
        tail = name.split(".")[-1]
        if tail in deprecated:
            yield self.finding(
                ctx,
                scope.module,
                node.lineno,
                f"call to deprecated {tail!r}; use {deprecated[tail]!r}",
                subject=tail,
            )


# ---------------------------------------------------------------------------
# Registry completeness (SA012, SA013, SA015)
# ---------------------------------------------------------------------------


class MissingFormalSpec(ProjectRule):
    """Every registered codec needs a word-level formal spec.

    ``repro-bus prove`` closes the chain netlist = spec = behavioural
    model; a codec registered without ``SPEC_BUILDERS`` entries for both
    sides ships with its transition counts resting on tests alone.
    Extension codecs without paper equations are grandfathered in the
    committed baseline, each with a one-line justification.
    """

    rule_id = "SA012"
    family = "registry"
    title = "registered codec has no word-level formal spec"

    def run(self, ctx: CheckContext) -> Iterator[RawFinding]:
        specs = ctx.spec_names
        if specs is None:
            return
        for codec, (module, line) in sorted(ctx.registered_codecs.items()):
            if codec not in specs:
                yield self.finding(
                    ctx,
                    module,
                    line,
                    f"codec {codec!r} is registered without encoder+decoder "
                    "entries in SPEC_BUILDERS",
                    subject=codec,
                )


class MissingContractEntry(ProjectRule):
    """Every registered codec needs a contract entry.

    ``CODEC_CONTRACTS`` states each code's redundant-line protocol in one
    line; the contract checker attaches it to its reports and the docs
    render it.  A codec without an entry lands half-documented.
    """

    rule_id = "SA013"
    family = "registry"
    title = "registered codec has no contract entry"

    def run(self, ctx: CheckContext) -> Iterator[RawFinding]:
        contracts = ctx.contract_names
        if contracts is None:
            return
        for codec, (module, line) in sorted(ctx.registered_codecs.items()):
            if codec not in contracts:
                yield self.finding(
                    ctx,
                    module,
                    line,
                    f"codec {codec!r} is registered without a "
                    "CODEC_CONTRACTS entry",
                    subject=codec,
                )


class IncompleteRegistryBuilder(LocalRule):
    """Registry builders must declare complete, consistent metadata.

    ``Codec(encoder_cls=...)`` is what the result cache's code-version
    digest reads; a builder that omits it makes cache invalidation blind
    to that codec's source edits — warm runs then serve stale results.  A
    ``name=`` mismatching the registration corrupts cache keys and
    reports the wrong codec everywhere downstream.
    """

    rule_id = "SA015"
    family = "registry"
    title = "registry builder metadata incomplete or mismatched"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(
        self, ctx: CheckContext, node: ast.AST, scope: Scope
    ) -> Iterator[RawFinding]:
        registered = _registered_name(node)
        if registered is None:
            return
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            callee = dotted_name(call.func)
            if callee is None or callee.split(".")[-1] != "Codec":
                continue
            keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg}
            if "encoder_cls" not in keywords:
                yield self.finding(
                    ctx,
                    scope.module,
                    call.lineno,
                    f"builder for codec {registered!r} constructs Codec "
                    "without encoder_cls= (cache code-versioning cannot "
                    "track the codec's source)",
                    subject=registered,
                )
            name_value = keywords.get("name")
            if (
                isinstance(name_value, ast.Constant)
                and isinstance(name_value.value, str)
                and name_value.value != registered
            ):
                yield self.finding(
                    ctx,
                    scope.module,
                    call.lineno,
                    f"builder registered as {registered!r} constructs "
                    f"Codec(name={name_value.value!r})",
                    subject=registered,
                )


# ---------------------------------------------------------------------------
# Helpers shared by the fork-safety rules
# ---------------------------------------------------------------------------

FunctionLike = "FunctionInfo"  # forward alias for annotations above


def _assigned_names(function: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _local_bindings(function: ast.AST) -> Set[str]:
    """Parameter and locally-assigned names (used to rule out shadowing)."""
    names = _assigned_names(function)
    args = getattr(function, "args", None)
    if args is not None:
        for group in (args.args, args.kwonlyargs, args.posonlyargs):
            names.update(a.arg for a in group)
        if args.vararg is not None:
            names.add(args.vararg.arg)
        if args.kwarg is not None:
            names.add(args.kwarg.arg)
    return names


#: The shipped rule catalog, in id order.
ALL_RULES: Tuple[Type[Rule], ...] = (
    MutableClassAttribute,
    MutableDefaultArgument,
    WorkerGlobalMutation,
    UnpicklableCellPayload,
    NestedPoolCreation,
    NondeterministicKeySource,
    UnorderedSetIteration,
    ProcessLocalIdentity,
    DeprecatedInternalApi,
    MissingFormalSpec,
    MissingContractEntry,
    IncompleteRegistryBuilder,
)


def rule_catalog() -> List[Dict[str, str]]:
    """Machine-readable catalog: id, family, severity, title, rationale."""
    catalog = []
    for rule_cls in ALL_RULES:
        catalog.append(
            {
                "rule": rule_cls.rule_id,
                "family": rule_cls.family,
                "severity": str(rule_cls.severity),
                "title": rule_cls.title,
                "rationale": (rule_cls.__doc__ or "").strip(),
            }
        )
    return catalog
