import re
from pathlib import Path

import baryvae

README = Path(__file__).resolve().parent.parent / "README.md"


def test_export_list_resolves():
    # a stale name in __all__ makes `from baryvae import *` raise AttributeError
    namespace = {}
    exec("from baryvae import *", namespace)
    assert set(baryvae.__all__) <= set(namespace)
    assert len(set(baryvae.__all__)) == len(baryvae.__all__)


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
