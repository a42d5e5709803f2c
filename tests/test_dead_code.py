"""Every function and class of the package is used by the program: a name
that only its own definition holds is code that no run needs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "surveyaudit"
# click registers these commands by their decorator; nothing names them
COMMANDS = {"prompt_sweep", "regress", "synth"}


def _references(tree: ast.AST) -> set[str]:
    """The names a module reads: plain names, attributes, imported names
    and identifier strings, such as the ``"module.name"`` a patch takes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def test_every_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in (PACKAGE, ROOT / "perfbench")
             for path in sorted(folder.rglob("*.py"))}
    referenced = set().union(*map(_references, trees.values()))
    unused = sorted(
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in trees.items() if path.is_relative_to(PACKAGE)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name not in referenced
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in COMMANDS
    )
    assert not unused, f"defined but never referenced: {unused}"
