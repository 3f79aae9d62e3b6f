"""Every public name and every dataclass field of the package feeds something
it produces, and every module imports only from the layers below its own.

A public top-level function, class or constant of ``src/quenched_limits``,
and a public method of a public class, must be read somewhere besides its
own definition: in the package itself, in the acceptance suite or in the
benchmark.  Every field of a package dataclass must be read as an
attribute in the same places.  Unit tests do not count, so a name, method
or field that only its own unit test reads shows up here.

The layers run from omega, util and kstest up to cli (LAYERS); a module's
imports, in function bodies too, may only name modules of a lower layer,
and only cli may import the package itself.  No module imports scipy, which
the tests keep as an oracle only.

The name rules match by name, not by type: a method or field is taken as read
when any attribute of that name is read, so one that shares its name with
a read attribute of another class (``alpha_exp``, ``n``, ...) passes
unseen and needs a check by hand.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quenched_limits"
CALLERS = [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]
# The package itself (``from . import __version__``) sits just below cli.
LAYERS = [("omega", "util", "kstest"), ("maps",), ("tower", "transfer"),
          ("decomp", "coupling", "stats"), ("__init__",), ("cli",)]


def public_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def public_methods(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, method) of every public method of a public top-level class."""
    return [(node.name, f.name) for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for f in node.body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


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
        tree = ast.parse(path.read_text(), str(path))
        unused += [f"{path.stem}.{name}" for name in public_definitions(tree)
                   if name not in reads]
        unused += [f"{path.stem}.{cls}.{name}" for cls, name in public_methods(tree)
                   if name not in reads]
    return unused


def dataclass_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, field) of every annotated field of a top-level @dataclass class."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            out += [(node.name, f.target.id) for f in node.body
                    if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    return out


def attribute_reads(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields() -> list[str]:
    reads = set()
    for path in CALLERS:
        reads |= attribute_reads(ast.parse(path.read_text(), str(path)))
    return [f"{path.stem}.{cls}.{name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for cls, name in dataclass_fields(ast.parse(path.read_text(), str(path)))
            if name not in reads]


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    assert unused_public_names() == []


def test_the_rule_sees_definitions_and_reads():
    tree = ast.parse("A = 1\n_B = 2\ndef f(): return g\nclass C: pass\nx.h\n")
    assert public_definitions(tree) == ["A", "f", "C"]
    assert read_names(tree) == {"g", "x", "h"}


def test_the_rule_sees_public_methods_of_public_classes():
    tree = ast.parse("class C:\n    n: int\n    def m(self): pass\n    def _p(self): pass\n"
                     "    def __len__(self): return 0\n"
                     "class _D:\n    def q(self): pass\n"
                     "def f():\n    pass\n")
    assert public_methods(tree) == [("C", "m")]


def test_every_dataclass_field_is_read_outside_the_unit_tests():
    assert unread_fields() == []


def test_the_field_rule_sees_fields_and_attribute_reads():
    tree = ast.parse("@dataclass(frozen=True)\nclass P:\n    a: int\n    b: float = 0.0\n"
                     "    def f(self): return self.a\n"
                     "class Q:\n    c: int\n"
                     "x.d = y.e\n")
    assert dataclass_fields(tree) == [("P", "a"), ("P", "b")]
    assert attribute_reads(tree) == {"a", "e"}


def package_imports(tree: ast.AST) -> set[str]:
    """Package modules a module imports anywhere in it; __init__ for the package itself."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
            out |= {n if (PACKAGE / f"{n}.py").exists() else "__init__" for n in names}
    return out


def layer_violations() -> list[str]:
    rank = {module: i for i, layer in enumerate(LAYERS) for module in layer}
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in rank:
            out.append(f"{path.stem} has no layer")
            continue
        out += [f"{path.stem} -> {dep}"
                for dep in sorted(package_imports(ast.parse(path.read_text(), str(path))))
                if rank.get(dep, len(LAYERS)) >= rank[path.stem]]
    return out


def test_every_module_imports_only_from_lower_layers():
    assert layer_violations() == []


def test_the_layer_rule_sees_imports_in_function_bodies():
    tree = ast.parse("from .maps import apply\nfrom . import stats, __version__\n"
                     "import numpy\nfrom numpy import array\n"
                     "def f():\n    from .decomp import x\n")
    assert package_imports(tree) == {"maps", "stats", "__init__", "decomp"}


def scipy_imports(tree: ast.AST) -> list[str]:
    """Every import of scipy or one of its submodules, in function bodies too."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] == "scipy"]


def test_no_module_imports_scipy():
    found = {path.stem: scipy_imports(ast.parse(path.read_text(), str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {}


def test_the_scipy_rule_sees_imports_in_function_bodies():
    tree = ast.parse("import numpy, scipy.sparse as sp\nfrom scipy import stats\n"
                     "from .scipy_like import x\nimport scipyx\n"
                     "def f():\n    from scipy.special import ndtr\n")
    assert scipy_imports(tree) == ["scipy.sparse", "scipy", "scipy.special"]
