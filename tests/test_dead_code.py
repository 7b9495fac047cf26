"""A standing dead-code scan: every top-level function or class in src has a caller in src.

The scan parses `src/hopfkit/*.py` and counts a definition as used when its
name is read (as a name or an attribute) anywhere in src outside the
definition itself; an import alone is not a use.  Names that share a spelling
across modules are not told apart, so the scan can miss dead code but never
reports live code as dead.
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


def _reads(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unused_definitions() -> list:
    """module.name of every top-level def or class whose name nothing else in src reads."""
    defs, reads = [], []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname)) as f:
            tree = ast.parse(f.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{fname[:-3]}.{node.name}", node.name, len(reads)))
            reads.append(_reads(node))
    return [qual for qual, name, own in defs
            if not any(name in r for i, r in enumerate(reads) if i != own)]


def test_every_definition_in_src_has_a_caller_in_src():
    assert sorted(unused_definitions()) == sorted(ALLOWED)
