"""Every public top-level function and class of ramsmooth has a caller in
program code: the package itself, scripts/, the benchmark harness under
perfbench/ (its self-tests excluded) and the acceptance criteria.  A name
only its own unit tests use is dead code; it goes, or a program reads it.

A definition counts as used when program code names it outside the
definition's own body, as a name, an attribute or a string constant (the
benchmark's tracer names the functions it wraps as strings).  Imports do
not count, so the package's re-exports keep nothing alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ramsmooth"

# name -> why it stays without a program caller
ALLOWED = {
    "finite_ramanujan_eval": "the independent evaluation of g(m) through "
                             "its finite expansion, the oracle the tests "
                             "compare period_table and RangeQFunction "
                             "against",
}


def program_files(root=ROOT):
    package = root / "src" / "ramsmooth"
    return (sorted(package.glob("*.py")) + sorted(root.glob("scripts/*.py"))
            + sorted(p for p in root.glob("perfbench/*.py")
                     if not p.name.startswith("test_"))
            + [root / "tests" / "test_acceptance.py"])


def public_definitions(package=PACKAGE):
    """{name: module} of the public top-level functions and classes."""
    out = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                out[node.name] = path.stem
    return out


def _names(node):
    """The names node mentions: names, attributes and string constants."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def uncalled(root=ROOT):
    """Public definitions that no program file names outside their own
    body, allowlisted ones excluded, as sorted "module.name" strings."""
    package = root / "src" / "ramsmooth"
    used = set()
    for path in program_files(root):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = set(_names(top))
            if path.parent == package and isinstance(
                    top, (ast.FunctionDef, ast.ClassDef)):
                names.discard(top.name)
            used |= names
    return sorted(f"{module}.{name}"
                  for name, module in public_definitions(package).items()
                  if name not in used and name not in ALLOWED)


def test_every_public_definition_has_a_program_caller():
    assert uncalled() == []


def test_allowlist_names_existing_definitions():
    assert set(ALLOWED) <= set(public_definitions())


def test_an_uncalled_definition_is_found(tmp_path):
    # a copy of the program files with one public function that only its
    # own body names, and one private function, which the rule ignores
    for path in program_files():
        target = tmp_path / path.relative_to(ROOT)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "src" / "ramsmooth" / "arith.py", "a",
              encoding="utf-8") as out:
        out.write("\n\ndef orphan(n):\n    return orphan(n - 1) if n else 0\n"
                  "\n\ndef _private():\n    return 0\n")
    assert uncalled(tmp_path) == ["arith.orphan"]
