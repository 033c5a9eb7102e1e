"""``docs/API.md`` describes the ``SystemConfig`` of the code.

The document's ``SystemConfig(...)`` block is where a reader meets every
platform knob, and its heading counts them.  A field added to or deleted
from the dataclass without the document leaves it describing another
program; this names the fields on each side that do not match.
"""

import pathlib
import re
from dataclasses import fields

from repro.stack.runtime import SystemConfig

API = pathlib.Path(__file__).resolve().parents[1] / "docs" / "API.md"


def _section():
    text = API.read_text()
    return text[text.index("## SystemConfig"):].split("\n## ", 1)[0]


def test_the_systemconfig_block_names_exactly_the_fields():
    block = re.search(r"```python\nSystemConfig\((.*?)\n\)\n```", _section(), re.S)
    assert block is not None, "docs/API.md has no SystemConfig(...) block"
    named = re.findall(r"(\w+)=", re.sub(r"#.*", "", block.group(1)))
    assert sorted(named) == sorted(f.name for f in fields(SystemConfig))


def test_the_field_count_matches():
    count = re.search(r"\((\d+) fields\)", _section())
    assert count is not None, "docs/API.md does not count SystemConfig's fields"
    assert int(count.group(1)) == len(fields(SystemConfig))
