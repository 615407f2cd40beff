"""README's "Library use" section against the package's exports."""

import ast
import re
from pathlib import Path

import driftlab

ROOT = Path(__file__).resolve().parent.parent


def exported_names() -> list[str]:
    """Every name ``driftlab/__init__.py`` imports from its modules."""
    tree = ast.parse(Path(driftlab.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def library_section_code() -> set[str]:
    """The identifiers inside code (fenced blocks and `spans`) of README's
    "Library use" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = re.findall(r"```.*?```|`[^`\n]+`", section, flags=re.S)
    return set(re.findall(r"\w+", " ".join(code)))


def test_every_export_is_in_the_library_section():
    named = library_section_code()
    missing = [name for name in exported_names() if name not in named]
    assert not missing, f"README's Library use section never names {missing}"
