"""Project model for the whole-project static analyzer.

A :class:`Project` is a set of parsed python modules (one :class:`ModuleInfo`
each — path, dotted name, AST, per-line suppressions) plus a
:class:`ProjectConfig` naming the *anchor points* the SA rules scope
themselves to: the worker entry functions whose reachable code must be
fork-safe, the cache-key/manifest constructors whose reachable code must be
deterministic, and the registry/spec/contract modules the
registry-completeness rules cross-reference.

Everything here is ``ast``-based — no module in the analyzed tree is ever
imported or executed, so intentionally-broken fixture trees are safe to
analyze and the pass stays fast (one parse per file).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: ``# repro: noqa`` (blanket) or ``# repro: noqa SA003, SA008`` (targeted).
_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa(?P<rules>(?:[:\s,]+SA\d{3})*)", re.IGNORECASE
)
_RULE_ID_PATTERN = re.compile(r"SA\d{3}", re.IGNORECASE)


def parse_suppressions(source: str) -> Dict[int, Optional[frozenset]]:
    """Per-line suppression map: line number -> rule ids (None = blanket).

    Recognizes ``# repro: noqa`` (suppress every SA rule on that line) and
    ``# repro: noqa SA003, SA008`` (suppress only the listed rules).  The
    map is keyed by 1-based line numbers, matching ``ast`` node ``lineno``.
    """
    suppressions: Dict[int, Optional[frozenset]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_PATTERN.search(line)
        if not match:
            continue
        listed = _RULE_ID_PATTERN.findall(match.group("rules") or "")
        suppressions[number] = (
            frozenset(rule.upper() for rule in listed) if listed else None
        )
    return suppressions


@dataclass
class ModuleInfo:
    """One parsed source file of the analyzed project."""

    path: Path
    name: str
    tree: ast.Module
    source: str
    suppressions: Dict[int, Optional[frozenset]]

    def suppressed(self, rule_id: str, line: int) -> bool:
        """True when ``rule_id`` is noqa'd on ``line`` of this module."""
        if line not in self.suppressions:
            return False
        rules = self.suppressions[line]
        return rules is None or rule_id.upper() in rules


class ProjectError(ValueError):
    """Raised when the analyzed tree cannot be loaded (bad path, syntax)."""


def parse_module(path: Path, name: str) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (no import, AST only)."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ProjectError(f"cannot read {path}: {error}") from error
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        raise ProjectError(f"cannot parse {path}: {error}") from error
    return ModuleInfo(
        path=path,
        name=name,
        tree=tree,
        source=source,
        suppressions=parse_suppressions(source),
    )


@dataclass(frozen=True)
class ProjectConfig:
    """Anchor points and scoping knobs for one analyzer run.

    Attributes
    ----------
    worker_entries:
        Qualified function names whose (statically) reachable code must be
        fork-safe — the engine's worker entry points.
    worker_allowlist:
        Qualified-name prefixes exempt from the fork-safety global-state
        rule.  The default exempts :mod:`repro.obs`, whose process-global
        tracer/metrics registry is the *sanctioned* global state: workers
        drop inherited sinks via ``detach_sinks`` and capture into fresh
        ``MemorySink`` buffers, which is exactly the protocol SA005 exists
        to protect.
    key_entries:
        Qualified function names whose reachable code must be
        deterministic — cache-key, code-version and manifest-view
        constructors.
    registry_modules:
        Dotted names of modules registering codecs via ``register_codec``.
    specs_module / specs_variable:
        Where the word-level formal specs live (``SPEC_BUILDERS``).
    contracts_module / contracts_variable:
        Where the per-codec contract entries live (``CODEC_CONTRACTS``).
    codec_bases:
        Class names that mark codec classes.
    """

    worker_entries: Tuple[str, ...] = ()
    worker_allowlist: Tuple[str, ...] = ()
    key_entries: Tuple[str, ...] = ()
    registry_modules: Tuple[str, ...] = ()
    specs_module: Optional[str] = None
    specs_variable: str = "SPEC_BUILDERS"
    contracts_module: Optional[str] = None
    contracts_variable: str = "CODEC_CONTRACTS"
    codec_bases: Tuple[str, ...] = ("BusEncoder", "BusDecoder")


class Project:
    """All parsed modules of one analyzed tree, indexed by dotted name."""

    def __init__(self, root: Path, config: ProjectConfig) -> None:
        self.root = root
        self.config = config
        self.modules: Dict[str, ModuleInfo] = {}

    @classmethod
    def load(
        cls,
        root: Path,
        config: ProjectConfig,
        package: Optional[str] = None,
    ) -> "Project":
        """Parse every ``*.py`` under ``root``.

        ``package`` is the dotted prefix of the tree (default: the root
        directory's name), so ``<root>/core/base.py`` becomes
        ``<package>.core.base``.
        """
        root = Path(root)
        if not root.is_dir():
            raise ProjectError(f"project root {root} is not a directory")
        prefix = package if package is not None else root.name
        project = cls(root, config)
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root).with_suffix("")
            parts = [prefix, *relative.parts]
            if parts[-1] == "__init__":
                parts = parts[:-1]
            project.add(parse_module(path, ".".join(parts)))
        return project

    def add(self, module: ModuleInfo) -> None:
        self.modules[module.name] = module

    def get(self, name: Optional[str]) -> Optional[ModuleInfo]:
        return self.modules.get(name) if name is not None else None

    def scanned_modules(self) -> Iterator[ModuleInfo]:
        """Every module, in stable name order (the per-module sweep order)."""
        for name in sorted(self.modules):
            yield self.modules[name]

    def display_path(self, module: ModuleInfo) -> str:
        """A short, stable path for reports (relative to the root parent)."""
        try:
            return module.path.resolve().relative_to(
                self.root.resolve().parent
            ).as_posix()
        except ValueError:
            return module.path.as_posix()


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# Re-exported convenience used by several rule implementations.
MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
)


def is_mutable_value(node: ast.AST) -> bool:
    """True for expressions that build a mutable container."""
    if isinstance(node, MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in MUTABLE_FACTORIES:
            return True
    return False
