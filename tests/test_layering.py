import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "warpbank"

# (importing module, module imported from, name): the private names one
# module may take from another.  None: the sums over a bank's plan, the
# frame operator's Walnut form among them, are methods of the plan and the
# bank (see bank), which the transforms and the diagnostics call.
ALLOWED = set()


def private_imports(path):
    """(module imported from, name) for every underscore name that
    ``path`` imports from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module:
            source = node.module
        elif node.level == 0 and (node.module or "").startswith("warpbank."):
            source = node.module.removeprefix("warpbank.")
        else:
            continue
        found += [(source, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


def test_modules_import_no_private_names_from_each_other():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = [(path.stem, source, name) for path in modules
                 for source, name in private_imports(path)
                 if (path.stem, source, name) not in ALLOWED]
    assert not offenders
