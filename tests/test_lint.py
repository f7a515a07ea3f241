"""Lint gates over the repo.

``test_ruff_check_is_clean`` runs ruff (configured in pyproject.toml).
It skips when ruff is not installed in the environment, but keeps CI
environments that do have ruff honest about the correctness-focused
rule set. ``test_no_unused_imports`` needs only the standard library,
so the unused-import rule (ruff's F401) is enforced everywhere the
tests run.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_HAS_RUFF = importlib.util.find_spec("ruff") is not None


@pytest.mark.skipif(not _HAS_RUFF, reason="ruff is not installed")
def test_ruff_check_is_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "ruff", "check", "src", "tests", "benchmarks", "examples"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, f"ruff found issues:\n{proc.stdout}\n{proc.stderr}"


#: A ``# noqa`` comment, bare or naming the rules it silences.
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[\w, ]+))?", re.IGNORECASE)


def _silenced(lines: list[str], node: ast.stmt) -> bool:
    """Whether any line of the import statement carries ``# noqa[: F401]``."""
    for line in lines[node.lineno - 1 : node.end_lineno]:
        match = _NOQA.search(line)
        if match and (match["codes"] is None or "F401" in match["codes"].upper()):
            return True
    return False


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, names in ``__all__``, and names in
    quoted annotations (``-> "AnnotatedTable"``)."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    for annotation in annotations:
        for item in ast.walk(annotation):
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                quoted = ast.parse(item.value, mode="eval")
                used.update(name.id for name in ast.walk(quoted) if isinstance(name, ast.Name))
    return used


def unused_imports(path: Path) -> list[str]:
    """``path:line: name`` for each import the module never uses."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        if _silenced(lines, node):
            continue
        found.extend(f"{path}:{node.lineno}: {name}" for name in bound if name not in used)
    return found


def test_no_unused_imports():
    # Package roots re-export their public API (the same exemption as
    # the ruff per-file-ignores in pyproject.toml).
    modules = [
        path
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert modules
    found = [entry for path in modules for entry in unused_imports(path)]
    assert not found, "unused imports (add `# noqa: F401` if intended):\n" + "\n".join(found)


def test_unused_import_scan_catches_and_honours_noqa(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "from dataclasses import dataclass, field\n"
        "def f(p: \"Path\") -> None:\n"
        "    return dataclass\n"
    )
    assert unused_imports(module) == [f"{module}:2: os", f"{module}:7: field"]
