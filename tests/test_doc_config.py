"""``docs/API.md`` describes the two configs of the code.

The document's ``SystemConfig(...)`` block is where a reader meets every
platform knob, and the ``ServerConfig`` section's field tables are where
they meet every serving knob; each heading counts its fields.  A field
added to or deleted from a dataclass without the document leaves it
describing another program; this names the fields on each side that do
not match.
"""

import ast
import pathlib
import re
from dataclasses import MISSING, fields

from repro.stack.api import ServerConfig
from repro.stack.runtime import SystemConfig

API = pathlib.Path(__file__).resolve().parents[1] / "docs" / "API.md"


def _section(heading):
    """The text under ``heading`` up to the next heading of any level."""
    text = API.read_text()
    body = text[text.index(f"\n{heading}\n") + len(heading) + 2:]
    return re.split(r"\n#{2,} ", body, maxsplit=1)[0]


def _server_rows():
    """``(field, default)`` of every ``| `name` | `default` |`` row of the
    ``ServerConfig`` section's tables."""
    return re.findall(
        r"^\| `(\w+)` \| `([^`]*)` \|", _section("### ServerConfig"), re.M
    )


def test_the_systemconfig_block_names_exactly_the_fields():
    block = re.search(
        r"```python\nSystemConfig\((.*?)\n\)\n```",
        _section("## SystemConfig"),
        re.S,
    )
    assert block is not None, "docs/API.md has no SystemConfig(...) block"
    named = re.findall(r"(\w+)=", re.sub(r"#.*", "", block.group(1)))
    assert sorted(named) == sorted(f.name for f in fields(SystemConfig))


def test_the_serverconfig_tables_name_exactly_the_fields():
    named = sorted(name for name, _ in _server_rows())
    assert named == sorted(f.name for f in fields(ServerConfig))


def test_the_serverconfig_tables_give_the_defaults():
    defaults = dict(_server_rows())
    for f in fields(ServerConfig):
        assert f.default is not MISSING, f.name
        assert ast.literal_eval(defaults[f.name]) == f.default, f.name


def _count(heading):
    count = re.search(r"\((\d+) fields", _section(heading))
    assert count is not None, f"docs/API.md does not count {heading}'s fields"
    return int(count.group(1))


def test_the_field_count_matches():
    assert _count("## SystemConfig") == len(fields(SystemConfig))


def test_the_serverconfig_field_count_matches():
    assert _count("### ServerConfig") == len(fields(ServerConfig))
