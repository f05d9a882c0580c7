"""The detlint engine: file collection, suppressions, rule dispatch.

The analyser is a deliberately small static-analysis framework — one
pass of Python's :mod:`ast` per file, a registry of
:class:`~repro.analysis.rules.Rule` objects, and a suppression grammar —
that turns the invariants this repository keeps *re-proving* dynamically
(bit-identical digests across executors, pickle-free checkpoint loads)
into review-time errors.

Suppression grammar (per line, same line as the finding)::

    risky_call()  # detlint: ignore[DET003] -- benchmark needs the raw clock

* The bracket lists one or more rule ids, comma separated.
* The ``-- justification`` tail is **mandatory**: a suppression without
  one is itself a finding (``SUP001``), because the acceptance bar is
  "every suppression carries a justification", not "every suppression
  was typed".
* A suppression that silences nothing is also a finding (``SUP002``) —
  stale ignores hide future regressions behind a comment nobody rereads.
  ``SUP001``/``SUP002`` cannot themselves be suppressed.
"""

from __future__ import annotations

import ast
import hashlib
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Directories never walked into when a *directory* argument is expanded.
#: Explicitly named files are always analysed — that is how the fixture
#: self-tests lint files that deliberately violate every rule.
DEFAULT_EXCLUDED_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".hypothesis",
        ".pytest_cache",
        ".ruff_cache",
        "fixtures",  # tests/analysis/fixtures: deliberate violations
    }
)

_SUPPRESSION_RE = re.compile(
    r"#\s*detlint:\s*ignore\[(?P<rules>[A-Za-z0-9_,\s]+)\]"
    r"(?P<tail>\s*--\s*(?P<justification>.*\S))?"
)

#: Engine-level rule ids (not in the registry — they police the
#: suppression grammar itself and cannot be suppressed).
SUP_MISSING_JUSTIFICATION = "SUP001"
SUP_UNUSED = "SUP002"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    column: int
    message: str
    snippet: str = ""

    @property
    def fingerprint(self) -> str:
        """Location-drift-tolerant identity used by ``--baseline``.

        Hashes the file, the rule and the *text* of the offending line —
        not the line number — so inserting code above a known finding
        does not resurrect it past the baseline.
        """
        digest = hashlib.sha256()
        digest.update(self.path.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(self.rule_id.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(self.snippet.strip().encode("utf-8"))
        return digest.hexdigest()[:16]

    def render(self) -> str:
        location = f"{self.path}:{self.line}:{self.column}"
        return f"{location}: {self.rule_id} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One ``# detlint: ignore[...]`` comment."""

    line: int
    rule_ids: Tuple[str, ...]
    justification: Optional[str]


@dataclass
class ModuleContext:
    """Everything a rule sees about one file."""

    path: str
    #: Dotted module name when the file lives under a ``src`` root
    #: (``repro.serving.workers``); otherwise a path-derived pseudo-name
    #: (``tests.serving.test_workers``).  Rules scope themselves on this.
    module_name: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


def module_name_for_path(path: str) -> str:
    """Derive the dotted name rules use for scoping decisions.

    ``src/repro/serving/workers.py`` -> ``repro.serving.workers``;
    paths outside a ``src`` root fall back to the relative path with
    separators swapped for dots (``tests.serving.test_workers``), which
    is enough for prefix checks like ``startswith("repro.")``.
    """
    normalized = os.path.normpath(os.path.abspath(path))
    parts = normalized.split(os.sep)
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    components = parts[:-1] + [stem]
    if "src" in components:
        anchor = len(components) - 1 - components[::-1].index("src")
        tail = components[anchor + 1 :]
        if tail:
            return ".".join(tail)
    # No src root: keep the last few path components as a pseudo-module.
    for anchor_name in ("tests", "benchmarks", "examples"):
        if anchor_name in components:
            anchor = components.index(anchor_name)
            return ".".join(components[anchor:])
    return stem


def parse_suppressions(source: str) -> Dict[int, Suppression]:
    """Scan *real comments* for the suppression grammar.

    Tokenises rather than regexing raw lines so that suppression syntax
    quoted inside docstrings or string literals (this repo documents the
    grammar in several places) never registers as a live suppression.
    Falls back to a line scan only if tokenisation fails — the engine
    has already parsed the file by then, so it should not.
    """
    found: Dict[int, Suppression] = {}

    def record(line: int, text: str) -> None:
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            return
        rule_ids = tuple(
            token.strip().upper()
            for token in match.group("rules").split(",")
            if token.strip()
        )
        found[line] = Suppression(
            line=line,
            rule_ids=rule_ids,
            justification=match.group("justification"),
        )

    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                record(token.start[0], token.string)
    except (tokenize.TokenError, IndentationError):
        for index, text in enumerate(source.splitlines(), start=1):
            record(index, text)
    return found


def collect_files(paths: Sequence[str], excluded_dirs: Optional[Set[str]] = None) -> List[str]:
    """Expand path arguments into the ordered list of files to analyse.

    Directories are walked recursively (sorted, so runs are reproducible
    — the linter practices what it preaches), skipping
    ``excluded_dirs``; explicitly named files are always included, even
    inside an excluded directory.
    """
    skip = DEFAULT_EXCLUDED_DIRS if excluded_dirs is None else frozenset(excluded_dirs)
    files: List[str] = []
    seen: Set[str] = set()

    def add(path: str) -> None:
        resolved = os.path.normpath(path)
        if resolved not in seen:
            seen.add(resolved)
            files.append(resolved)

    for path in paths:
        if os.path.isfile(path):
            add(path)
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path!r}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name for name in dirnames if name not in skip and not name.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    add(os.path.join(dirpath, filename))
    return files


@dataclass
class AnalysisResult:
    """Everything one run produced, before baseline filtering."""

    findings: List[Finding]
    files_checked: int
    parse_errors: List[Finding] = field(default_factory=list)

    @property
    def all_findings(self) -> List[Finding]:
        return self.parse_errors + self.findings


class LintEngine:
    """Runs a rule set over files, applying suppressions."""

    def __init__(self, rules: Sequence[object]):
        self.rules = list(rules)

    def check_source(self, path: str, source: str) -> List[Finding]:
        """Analyse one already-read source blob (the unit the tests use)."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            return [
                Finding(
                    rule_id="PARSE",
                    path=path,
                    line=error.lineno or 1,
                    column=error.offset or 0,
                    message=f"file does not parse: {error.msg}",
                )
            ]
        lines = source.splitlines()
        context = ModuleContext(
            path=path,
            module_name=module_name_for_path(path),
            source=source,
            tree=tree,
            lines=lines,
        )
        raw: List[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(context):
                continue
            for finding in rule.check(context):
                raw.append(finding)
        return self._apply_suppressions(context, raw)

    def _apply_suppressions(
        self, context: ModuleContext, raw: List[Finding]
    ) -> List[Finding]:
        suppressions = parse_suppressions(context.source)
        used: Dict[int, Set[str]] = {line: set() for line in suppressions}
        kept: List[Finding] = []
        for finding in raw:
            suppression = suppressions.get(finding.line)
            if suppression is not None and finding.rule_id in suppression.rule_ids:
                used[finding.line].add(finding.rule_id)
                continue
            kept.append(finding)
        for line, suppression in suppressions.items():
            if suppression.justification is None:
                kept.append(
                    Finding(
                        rule_id=SUP_MISSING_JUSTIFICATION,
                        path=context.path,
                        line=line,
                        column=0,
                        message=(
                            "suppression lacks a justification; write "
                            "`# detlint: ignore[RULE] -- why this is safe`"
                        ),
                        snippet=context.line_text(line),
                    )
                )
            unused = [rule_id for rule_id in suppression.rule_ids if rule_id not in used[line]]
            if unused:
                kept.append(
                    Finding(
                        rule_id=SUP_UNUSED,
                        path=context.path,
                        line=line,
                        column=0,
                        message=(
                            "suppression silences nothing: "
                            + ", ".join(sorted(unused))
                            + " did not fire on this line"
                        ),
                        snippet=context.line_text(line),
                    )
                )
        kept.sort(key=lambda finding: (finding.path, finding.line, finding.rule_id))
        return kept

    def run(self, paths: Sequence[str]) -> AnalysisResult:
        files = collect_files(paths)
        findings: List[Finding] = []
        parse_errors: List[Finding] = []
        for path in files:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            for finding in self.check_source(path, source):
                if finding.rule_id == "PARSE":
                    parse_errors.append(finding)
                else:
                    findings.append(finding)
        return AnalysisResult(
            findings=findings, files_checked=len(files), parse_errors=parse_errors
        )
