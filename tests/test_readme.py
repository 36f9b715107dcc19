"""README's library quick start runs, and each line prints what its comment says."""

from __future__ import annotations

import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The python block under README's "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def expected_outputs(lines: list[str]) -> dict[int, str]:
    """Line number -> the comment that gives the output of that line's print.

    The comment follows the call on its line, or fills the next line when
    the call has none.
    """
    want = {}
    for number, line in enumerate(lines, 1):
        if not line.startswith("print("):
            continue
        _, sep, comment = line.partition("  # ")
        if not sep:
            comment = lines[number].removeprefix("# ")  # the next line
        want[number] = comment.strip()
    return want


def matches(printed: str, comment: str) -> bool:
    """The comment is the output, the output and a remark in parentheses, or a prefix and "..."."""
    if comment.endswith("..."):
        return printed.startswith(comment[:-3])
    return comment == printed or bool(re.fullmatch(re.escape(printed) + r" \([^()]*\)", comment))


def test_library_quick_start_prints_its_comments():
    block = quick_start()
    lines = block.splitlines()
    printed = {}

    def record(*args):
        printed[sys._getframe(1).f_lineno] = " ".join(map(str, args))

    exec(compile(block, "README.md", "exec"), {"print": record})
    want = expected_outputs(lines)
    assert want and printed.keys() == want.keys()
    for number, comment in want.items():
        assert matches(printed[number], comment), (lines[number - 1], printed[number], comment)
