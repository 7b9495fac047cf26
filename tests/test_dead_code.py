"""A standing dead-code scan: every top-level function or class in src has a caller in src.

The scan parses `src/hopfkit/*.py` and counts a definition as used when its
name is read anywhere in src outside the definition itself, as a bare name or
as an attribute of a hopfkit module the file imports (`hio.dump_json`,
`catalog._fun_dic_datum`); an import alone is not a use, and neither is an
attribute of any other object, so a method call such as `d.q.inverse()` keeps
no top-level `inverse` alive.  Names that share a spelling across modules are
not told apart, so the scan can miss dead code but never reports live code as
dead.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "hopfkit")

# module.name -> why it stays without a caller in src
ALLOWED = {
    "invariants.coinvariants": "criterion 10 runs it as the paper's statement",
    "ydnichols.diagonal_type": "criterion 7 runs it as the paper's statement",
    "linalg.rank": "perfbench's tracer hooks it by name, until ROADMAP H retires it",
}


def _module_aliases(tree, modules) -> set:
    """The names a file binds to hopfkit modules, as in `from . import io as hio`."""
    return {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            and (n.level == 1 and n.module is None or n.module == "hopfkit")
            for a in n.names if a.name in modules}


def _reads(node, aliases) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) or isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id in aliases}


def unused_definitions() -> list:
    """module.name of every top-level def or class whose name nothing else in src reads."""
    defs, reads = [], []
    fnames = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    modules = {f[:-3] for f in fnames}
    for fname in fnames:
        with open(os.path.join(SRC, fname)) as f:
            tree = ast.parse(f.read())
        aliases = _module_aliases(tree, modules)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{fname[:-3]}.{node.name}", node.name, len(reads)))
            reads.append(_reads(node, aliases))
    return [qual for qual, name, own in defs
            if not any(name in r for i, r in enumerate(reads) if i != own)]


def test_every_definition_in_src_has_a_caller_in_src():
    assert sorted(unused_definitions()) == sorted(ALLOWED)
