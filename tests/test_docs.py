"""The README against the source tree."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dp_hlog"


def _layout_modules() -> set[str]:
    """The .py paths the README Layout block names, relative to the package,
    each directory entry opening a nesting level by its indentation."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Layout\n+```\n(.*?)```", readme, re.S | re.M).group(1)
    head, *entries = block.splitlines()
    assert head == "src/dp_hlog/"
    named, dirs = set(), []  # dirs: (indent, name) of the open directories
    for line in entries:
        indent, name = len(line) - len(line.lstrip()), line.split()[0]
        dirs = [(i, d) for i, d in dirs if i < indent]
        if name.endswith("/"):
            dirs.append((indent, name))
        else:
            named.add("".join(d for _, d in dirs) + name)
    return named


def test_readme_layout_names_every_module():
    modules = {
        p.relative_to(PACKAGE).as_posix()
        for p in PACKAGE.rglob("*.py")
        if p.name != "__init__.py"
    }
    assert _layout_modules() == modules
