#!/usr/bin/env python3
"""Determinism lint: AST checks for reproducibility hazards in src/repro.

Campaign results are fingerprinted (see
``repro.orchestration.database.campaign_fingerprint``) and must be
bit-identical across machines, interpreter invocations and
``PYTHONHASHSEED`` values.  Three hazard classes have bitten or nearly
bitten this codebase, so they are linted mechanically:

``unseeded-random``
    Module-level ``random.*`` calls (or importing its functions
    directly).  All randomness must flow through a seeded
    ``random.Random(seed)`` instance, otherwise fault lists differ per
    run.

``wall-clock``
    ``time.time``/``time.time_ns``/``datetime.now``/``datetime.utcnow``/
    ``date.today`` reads.  Wall time may only appear in the whitelisted
    lease/status modules whose fields the fingerprint strips;
    ``time.perf_counter``/``time.monotonic`` (duration measurement) are
    always fine.

``unordered-set-iteration``
    Iterating a set (literal, comprehension, ``set(...)`` call, or a
    union/intersection of them) without ``sorted(...)`` inside the
    fingerprinted result paths.  Set iteration order depends on string
    hashing, which ``PYTHONHASHSEED`` randomises — dict iteration, by
    contrast, is insertion-ordered and safe.

Usage: ``python scripts/lint_determinism.py [--root src/repro]``; the
scripts in ``SCRIPTS`` of the checkout that holds ``--root`` are linted
as fingerprinted paths too.
Exits 1 when findings exist, printing one ``path:line: [check] message``
per finding.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: Files allowed to read the wall clock (lease expiry and status ages
#: are genuinely wall-clock concepts; their fields never reach the
#: fingerprint, which strips wall_time keys).
WALL_CLOCK_WHITELIST = {
    "orchestration/store.py",
    "service/results.py",
    "service/coordinator.py",
    "service/worker.py",
    "orchestration/logging.py",
}

#: Module prefixes whose outputs feed campaign fingerprints or compiled
#: program images: iteration order there must never depend on hashing.
FINGERPRINTED_PATHS = (
    "injection/",
    "orchestration/",
    "compiler/",
    "isa/",
    "hardening/",
    "npb/",
    "staticlint/",
    "checkpoint/",
    "memory/",
    "kernel/",
    "cpu/",
    "soc/",
    "stats/",
    "runtime/",
    "profiling/",
)

#: Scripts linted as fingerprinted paths, relative to the repository
#: root (two levels above ``--root``): their output is compared across
#: versions of fingerprinted code.
SCRIPTS = ("scripts/records_digest.py",)

_WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

_SEEDED_FACTORIES = {"Random", "SystemRandom", "seed"}


def _attribute_chain(node: ast.AST) -> tuple[str, ...]:
    """Dotted-name chain of an expression, e.g. datetime.datetime.now."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


def _is_set_expression(node: ast.AST) -> bool:
    """Does this expression evaluate to a set with hash-dependent order?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


class Finding:
    def __init__(self, path: Path, line: int, check: str, message: str):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


class DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: Path, relative: str):
        self.path = path
        self.relative = relative
        self.findings: list[Finding] = []
        self.fingerprinted = relative.startswith(FINGERPRINTED_PATHS) or relative in SCRIPTS

    def _report(self, node: ast.AST, check: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno, check, message))

    # -- unseeded random -------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            bad = [alias.name for alias in node.names if alias.name not in _SEEDED_FACTORIES]
            if bad:
                self._report(
                    node, "unseeded-random",
                    f"importing {', '.join(bad)} from random: use a seeded "
                    "random.Random(seed) instance instead",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attribute_chain(node.func)
        if len(chain) == 2 and chain[0] == "random" and chain[1] not in _SEEDED_FACTORIES:
            self._report(
                node, "unseeded-random",
                f"random.{chain[1]}() uses the shared unseeded generator; "
                "draw from a seeded random.Random(seed) instance",
            )
        if chain[-2:] in (tuple(pair) for pair in _WALL_CLOCK_CALLS):
            if self.relative not in WALL_CLOCK_WHITELIST:
                self._report(
                    node, "wall-clock",
                    f"{'.'.join(chain)}() reads the wall clock outside the "
                    "whitelisted lease/status modules; use time.perf_counter() "
                    "for durations or plumb a `now` parameter",
                )
        self.generic_visit(node)

    # -- unordered set iteration ----------------------------------------
    def _check_iterable(self, node: ast.AST) -> None:
        if self.fingerprinted and _is_set_expression(node):
            self._report(
                node, "unordered-set-iteration",
                "iterating a set in a fingerprinted path: iteration order "
                "depends on PYTHONHASHSEED; wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iterable(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def lint_file(path: Path, root: Path) -> list[Finding]:
    relative = path.relative_to(root).as_posix()
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = DeterminismVisitor(path, relative)
    visitor.visit(tree)
    return visitor.findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path("src/repro"),
                        help="package directory to lint")
    args = parser.parse_args(argv)
    if not args.root.is_dir():
        print(f"error: {args.root} is not a directory", file=sys.stderr)
        return 2
    findings: list[Finding] = []
    for path in sorted(args.root.rglob("*.py")):
        findings.extend(lint_file(path, args.root))
    repository = args.root.resolve().parents[1]
    for script in SCRIPTS:
        if (repository / script).is_file():
            findings.extend(lint_file(repository / script, repository))
    for finding in findings:
        print(finding)
    if findings:
        print(f"-- {len(findings)} determinism finding(s)", file=sys.stderr)
        return 1
    print(f"determinism lint: OK ({args.root})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
