"""Every public top-level name of the package has a caller in src, the demos or the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names kept for open ROADMAP items, which give them their callers
EXEMPT = {
    "cone_rep": "item 3, flow side: reads the flowed null vector back as a cone point",
    "cone_lift": "item 1 step 1 (the normal form) and item 3 (the flow side) lift cone points",
    "h_action": "item 1 step 3: the nabla-u structure equation acts on u by rho",
}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_public_names_are_referenced():
    defined = {node.name
               for path in (ROOT / "src" / "bkgeom").glob("*.py")
               for node in parse(path).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = set()
    for path in (p for d in ("src", "demos", "bench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    assert sorted(defined - used - set(EXEMPT)) == []
    assert sorted(set(EXEMPT) - (defined - used)) == []   # an exemption with a caller goes
