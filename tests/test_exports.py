"""The package's exported names: every helper it exports has a caller."""

import re
from pathlib import Path

import chowcheck

SRC = Path(chowcheck.__file__).resolve().parent


def test_every_exported_helper_has_a_caller_in_the_package():
    # its definition plus at least one use, outside the re-exporting __init__
    text = "\n".join(path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))
                     if path.name != "__init__.py")
    unused = [name for name in chowcheck.__all__ if name != "__version__"
              and len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2]
    assert unused == []
