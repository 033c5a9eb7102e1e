"""Documentation cross-references resolve.

README.md, DESIGN.md, ``docs/``, PAPER_MAP.md, EXPERIMENTS.md and the
verify skill point at files, tests and objects in backticks.  A rename
or a deletion that forgets one of them leaves a pointer to nothing.
This walks every backticked

* file path — a span with a ``/`` that ends in a file extension, or a
  bare ``bench_*.py`` — looked up from the repository root, ``src/``,
  ``src/repro/`` and ``benchmarks/``;
* pytest node id — ``path.py::Name`` or ``path.py::Class::member`` — the
  file found the same way and each name defined in it (a class, a
  function or an assignment);
* ``repro.``-qualified name, imported module by module and looked up
  attribute by attribute;
* call ``Name(kw=...)`` of a name ``repro.stack`` exports, inline or in a
  fenced block, each keyword looked up in ``inspect.signature(Name)``;
* command ``python -m repro <cmd> ...`` or ``python -m benchmarks.e2e
  ...``, inline or a line of a fenced block, each ``--flag`` looked up in
  the usage line the command's parser prints for ``-h`` (in process: a
  command that parses no arguments accepts no flag);

and fails naming each document and reference that does not resolve.
"""

import ast
import contextlib
import functools
import importlib
import inspect
import io
import pathlib
import pkgutil
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    *sorted((ROOT / "docs").glob("**/*.md")),
    ROOT / "PAPER_MAP.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
SPAN = re.compile(r"(`+)(.+?)\1", re.S)
NODE = re.compile(r"([\w./-]+\.py)((?:::\w+)+)")
NAME = re.compile(r"repro(?:\.\w+)+")
PATH = re.compile(r"[\w.-]*/[\w./-]*\.[a-z]+|bench_\w+\.py")
BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro", ROOT / "benchmarks")
COMMAND = re.compile(r"python3? -m (repro|benchmarks\.e2e)\b(.*)")
FLAG = re.compile(r"(?<![\w-])--[\w-]+")
CALL = re.compile(r"(?<![\w.])([A-Z]\w*)\(")
KEYWORD = re.compile(r"(?<!\w)(\w+)\s*=(?!=)")


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


def _keywords(text, start):
    """The keyword names at the top level of the argument list that opens
    just before ``text[start]``."""
    depth, names = 1, []
    for i in range(start, len(text)):
        char = text[i]
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
            if depth == 0:
                break
        elif depth == 1 and (found := KEYWORD.match(text, i)):
            names.append(found.group(1))
    return names


def _signatures(name):
    """The parameter sets a documented ``name`` may mean: every same-named
    export of a ``repro`` package (``Request`` is the serving request in
    ``repro.stack`` and the controller's column request in ``repro.dram``).
    None means some of them take ``**kwargs``."""
    import repro

    found = []
    for package in pkgutil.iter_modules(repro.__path__):
        module = importlib.import_module(f"repro.{package.name}")
        if name in getattr(module, "__all__", ()):
            parameters = inspect.signature(getattr(module, name)).parameters
            if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
                return None
            found.append(set(parameters))
    return found


def _unknown_keywords(text):
    """``(call, keyword)`` for each keyword ``text`` passes to a
    ``repro.stack`` export that no same-named export takes."""
    import repro.stack

    text = re.sub(r"#[^\n]*", "", text)  # comments of fenced code
    unknown = []
    for call in CALL.finditer(text):
        name = call.group(1)
        if name not in repro.stack.__all__:
            continue
        signatures = _signatures(name)
        if signatures is None:
            continue
        unknown.extend(
            (name, kw) for kw in _keywords(text, call.end())
            if not any(kw in parameters for parameters in signatures)
        )
    return unknown


def test_every_documented_call_names_real_parameters():
    spans = [
        (document.relative_to(ROOT), match.group(2))
        for document in DOCUMENTS
        for match in SPAN.finditer(document.read_text())
    ]
    calls = [(doc, span) for doc, span in spans if CALL.search(span)]
    assert calls, "no backticked call found: the pattern has drifted"
    broken = sorted(
        {(str(doc), name, kw) for doc, span in calls
         for name, kw in _unknown_keywords(span)}
    )
    assert not broken, f"documented calls name parameters that do not exist: {broken}"


def test_a_deleted_parameter_is_caught():
    assert _unknown_keywords(
        "PimBlas(system, mode=\"attach\")\nServerConfig(lanes=2, max_batch=4)"
    ) == [("PimBlas", "mode")]
    assert _unknown_keywords(
        "PimContext(SystemConfig(num_pchs=4), trace=True)  # trace=True"
    ) == [("PimContext", "trace")]


@functools.lru_cache(maxsize=None)
def _accepted_flags(program, command):
    """The flags the usage line of ``program [command] -h`` names; None
    for a ``command`` the program does not have."""
    if program == "benchmarks.e2e":
        from benchmarks.e2e.__main__ import main as handler
    else:
        from repro.__main__ import _COMMANDS

        handler = _COMMANDS.get(command)
        if handler is None:
            return None
        if not inspect.signature(handler).parameters:
            return frozenset()
    usage = io.StringIO()
    with contextlib.redirect_stdout(usage), pytest.raises(SystemExit):
        handler(["-h"])
    return frozenset(FLAG.findall(usage.getvalue().split("\n\n")[0]))


def _unknown_flags(text, fenced=False):
    """``(command, flag)`` for each flag a documented command line passes
    that its parser does not accept.  A fenced block holds one command
    per line (a trailing ``\\`` continues it); an inline span is one."""
    text = re.sub(r"#[^\n]*", "", text).replace("\\\n", " ")
    lines = text.split("\n") if fenced else [" ".join(text.split())]
    unknown = []
    for line in lines:
        if not (found := COMMAND.search(line)):
            continue
        program, rest = found.groups()
        words = rest.split()
        command = words[0] if program == "repro" and words else ""
        accepted = _accepted_flags(program, command)
        if accepted is None:  # a placeholder such as ``<cmd>``
            continue
        name = f"{program} {command}".strip()
        unknown.extend(
            (name, flag) for flag in FLAG.findall(rest) if flag not in accepted
        )
    return unknown


def test_every_documented_command_line_names_real_flags():
    lines = [
        (document.relative_to(ROOT), match.group(1) == "```", match.group(2))
        for document in DOCUMENTS
        for match in SPAN.finditer(document.read_text())
        if COMMAND.search(match.group(2))
    ]
    assert lines, "no documented command line found: the pattern has drifted"
    broken = sorted(
        {(str(doc), name, flag) for doc, fenced, text in lines
         for name, flag in _unknown_flags(text, fenced)}
    )
    assert not broken, f"documented command lines name flags that do not exist: {broken}"


def test_an_invented_flag_is_caught():
    assert _unknown_flags("python -m repro chaos --seed 7 --shards 2") == [
        ("repro chaos", "--shards")
    ]
    assert _unknown_flags(
        "python -m repro demo --fast\npython -m repro trace --out t.json"
        "  # --bogus\nPYTHONPATH=src python -m benchmarks.e2e --workload \\\n"
        "  gemv_serve --sceonds 8",
        fenced=True,
    ) == [("repro demo", "--fast"), ("benchmarks.e2e", "--sceonds")]
