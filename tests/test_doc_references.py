"""Documentation cross-references resolve.

README.md, DESIGN.md, ``docs/`` and the verify skill point at files,
tests and objects in backticks.  A rename or a deletion that forgets one
of them leaves a pointer to nothing.  This walks every backticked

* file path — a span with a ``/`` that ends in a file extension — looked
  up from the repository root, ``src/`` and ``src/repro/``;
* pytest node id — ``path.py::Name`` or ``path.py::Class::member`` — the
  file found the same way and each name defined in it (a class, a
  function or an assignment);
* ``repro.``-qualified name, imported module by module and looked up
  attribute by attribute;

and fails naming each document and reference that does not resolve.
"""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    *sorted((ROOT / "docs").glob("**/*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
SPAN = re.compile(r"(`+)(.+?)\1", re.S)
NODE = re.compile(r"([\w./-]+\.py)((?:::\w+)+)")
NAME = re.compile(r"repro(?:\.\w+)+")
PATH = re.compile(r"[\w.-]*/[\w./-]*\.[a-z]+")
BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")


def _spans():
    """``(document, span)`` for every backticked span, whitespace folded."""
    for document in DOCUMENTS:
        for match in SPAN.finditer(document.read_text()):
            yield document.relative_to(ROOT), " ".join(match.group(2).split())


def _references(kind):
    """``(document, reference)`` for every backticked reference of ``kind``."""
    pattern = {"path": PATH, "node": NODE, "name": NAME}[kind]
    match = pattern.fullmatch if kind == "path" else pattern.match
    return [(str(doc), found.group(0)) for doc, span in _spans() if (found := match(span))]


def _file(path):
    for base in BASES:
        if (base / path).is_file():
            return base / path
    return None


def _defines(body, name):
    """The statement of ``body`` that defines ``name``, if any."""
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return node
    return None


def _resolves(kind, reference):
    if kind == "path":
        return _file(reference) is not None
    if kind == "node":
        path, *names = reference.split("::")
        found = _file(path)
        if found is None:
            return False
        scope = ast.parse(found.read_text())
        for name in names:
            scope = _defines(getattr(scope, "body", []), name)
            if scope is None:
                return False
        return True
    parts = reference.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("kind", ["path", "node", "name"])
def test_every_backticked_reference_resolves(kind):
    references = _references(kind)
    assert references, f"no backticked {kind} found: the pattern has drifted"
    broken = sorted({ref for ref in references if not _resolves(kind, ref[1])})
    assert not broken, f"{len(broken)} {kind} reference(s) resolve to nothing: {broken}"
