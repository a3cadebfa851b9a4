"""The README's documented library surface against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_surface_block_imports():
    block = re.search(r"## Library surface\s+```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no 'Library surface' python block"
    assert re.search(r"from carmen import \(\s*\w", block.group(1))
    exec(block.group(1), {})  # an ImportError names the first stale name
