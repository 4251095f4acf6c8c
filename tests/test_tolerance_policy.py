"""The package's tolerance policy, read from its source.

Every float literal small enough to be a tolerance (0 < |v| < 1e-3) must be
the whole value of a module-level constant, and only these constants exist:
two tolerances (`costfn.EQ_TOL` for one quantity computed two ways,
`model.DEFAULT_TOL` for utility comparisons and LP pivots), the solver-vs-
LP-oracle bound of `icx compare --mode rand`, and the golden-section stop
width of the LP oracle.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "icx"

POLICY = {
    "EQ_TOL": ("costfn.py", 1e-12),
    "DEFAULT_TOL": ("model.py", 1e-9),
    "RAND_COMPARE_TOL": ("cli.py", 1e-4),
    "GOLDEN_WIDTH": ("oracle.py", 1e-10),
}


def _modules():
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.glob("*.py"))]


def _constants(tree):
    """Module-level `NAME = <literal>` assignments, keyed by the literal's node."""
    out = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)):
            out[id(node.value)] = node.targets[0].id
    return out


def test_every_tolerance_literal_is_a_named_constant():
    found = {}
    bare = []
    for name, tree in _modules():
        constants = _constants(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0.0 < abs(node.value) < 1e-3):
                if id(node) in constants:
                    found[constants[id(node)]] = (name, node.value)
                else:
                    bare.append(f"{name}:{node.lineno}: {node.value!r}")
    assert bare == []
    assert found == POLICY


def test_only_the_policy_modules_define_tolerances():
    defined = []
    for name, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                defined += [(name, target.id) for target in node.targets
                            if isinstance(target, ast.Name) and target.id.endswith("_TOL")]
    assert sorted(defined) == [("cli.py", "RAND_COMPARE_TOL"),
                               ("costfn.py", "EQ_TOL"), ("model.py", "DEFAULT_TOL")]
