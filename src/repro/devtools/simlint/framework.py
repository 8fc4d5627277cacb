"""simlint core: findings, suppression comments, checker protocol, runner.

simlint is a two-phase analysis.  Every checker first *collects* facts from
each parsed module (definitions, attribute writes, set-typed names, ...),
then *finalizes* into a list of :class:`Finding`s once the whole tree has
been seen.  Cross-file rules (SL001 counter-drift, SL003 config hygiene)
need the second phase; per-file rules simply emit during collection.

Suppression follows the familiar lint idiom: a ``# simlint:
disable=SL002`` (or ``disable=all``) comment on the flagged line — or the
line directly above it — silences matching findings.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set

#: Matches ``# simlint: disable=SL001,SL002`` and ``# simlint: disable=all``.
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Rule IDs shipped with simlint, in report order.
ALL_RULES = ("SL001", "SL002", "SL003", "SL004", "SL005")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class Module:
    """A parsed source file plus the metadata checkers need."""

    path: str
    tree: ast.Module
    source: str
    #: line number -> set of suppressed rule IDs ("all" suppresses any rule)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, root: Path) -> "Module":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        try:
            rel = str(path.relative_to(root))
        except ValueError:
            rel = str(path)
        return cls(path=rel, tree=tree, source=source,
                   suppressions=parse_suppressions(source))

    def suppressed(self, rule: str, line: int) -> bool:
        """True if ``rule`` is disabled on ``line`` or the line above it."""
        for candidate in (line, line - 1):
            rules = self.suppressions.get(candidate)
            if rules and ("all" in rules or rule in rules):
                return True
        return False


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Extract ``# simlint: disable=...`` comments, keyed by line number."""
    suppressions: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        rules = {token.strip() for token in match.group(1).split(",")
                 if token.strip()}
        if rules:
            suppressions[lineno] = rules
    return suppressions


class Checker:
    """Base class for simlint rules.

    Subclasses set :attr:`rule` / :attr:`description`, append
    :class:`Finding`s via :meth:`report`, and override :meth:`collect`
    (called once per module) and optionally :meth:`finalize` (called once
    after every module has been collected — the place for whole-program
    rules).
    """

    rule: str = "SL000"
    description: str = ""

    def __init__(self) -> None:
        self._findings: List[Finding] = []

    # -- hooks ---------------------------------------------------------

    def collect(self, module: Module) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def finalize(self) -> None:
        """Whole-program phase; default is a no-op for per-file rules."""

    # -- helpers -------------------------------------------------------

    def report(self, module_path: str, node: ast.AST, message: str) -> None:
        self._findings.append(Finding(
            rule=self.rule, path=module_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message))

    @property
    def findings(self) -> List[Finding]:
        return self._findings


def discover_files(paths: Sequence[str]) -> List[Path]:
    """Expand ``paths`` (files or directories) into sorted ``.py`` files."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {raw}")
    return files


def run_checkers(paths: Sequence[str],
                 checkers: Iterable[Checker],
                 root: Path = None) -> List[Finding]:
    """Parse every file under ``paths``, run ``checkers``, return findings.

    Findings on suppressed lines are dropped; the rest are sorted by
    (path, line, rule) for stable output.

    Raises:
        SyntaxError: if any file fails to parse (simlint treats a broken
            tree as a usage error, not a finding).
    """
    root = root or Path.cwd()
    checkers = list(checkers)
    modules = [Module.parse(path, root) for path in discover_files(paths)]
    for module in modules:
        for checker in checkers:
            checker.collect(module)
    for checker in checkers:
        checker.finalize()

    by_path = {module.path: module for module in modules}
    findings: List[Finding] = []
    for checker in checkers:
        for finding in checker.findings:
            module = by_path.get(finding.path)
            if module and module.suppressed(finding.rule, finding.line):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report consumed by CI and the tests."""
    return json.dumps({
        "tool": "simlint",
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }, indent=2)
