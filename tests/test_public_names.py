"""Every public name of the package feeds something the package produces.

A public top-level function, class or constant of ``src/quenched_limits``
must be read somewhere besides its own definition: in the package itself,
in the acceptance suite or in the benchmark.  Unit tests do not count, so a
name that only its own unit test calls shows up here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quenched_limits"
CALLERS = [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]


def public_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def read_names(tree: ast.AST) -> set[str]:
    """Names read as a variable or an attribute; definitions and imports are not reads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unused_public_names() -> list[str]:
    reads = set()
    for path in CALLERS:
        reads |= read_names(ast.parse(path.read_text(), str(path)))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in public_definitions(ast.parse(path.read_text(), str(path))):
            if name not in reads:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    assert unused_public_names() == []


def test_the_rule_sees_definitions_and_reads():
    tree = ast.parse("A = 1\n_B = 2\ndef f(): return g\nclass C: pass\nx.h\n")
    assert public_definitions(tree) == ["A", "f", "C"]
    assert read_names(tree) == {"g", "x", "h"}
