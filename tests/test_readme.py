"""The README's documented library surface against the package."""

import re
from pathlib import Path

import carmen

README = Path(__file__).resolve().parent.parent / "README.md"


def _surface_block() -> str:
    block = re.search(r"## Library surface\s+```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no 'Library surface' python block"
    return block.group(1)


def test_library_surface_block_imports():
    block = _surface_block()
    assert re.search(r"from carmen import \(\s*\w", block)
    exec(block, {})  # an ImportError names the first stale name


def test_library_surface_block_is_all():
    names = re.search(r"from carmen import \((.*?)\)", _surface_block(), re.S).group(1)
    documented = re.findall(r"\w+", names)
    assert len(documented) == len(set(documented)), "the block names a name twice"
    assert set(documented) == set(carmen.__all__) - {"__version__"}
    assert carmen.__all__ == ["__version__", *documented]  # in the block's order
