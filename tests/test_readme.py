"""README's examples run and show what they print.

The library quick start prints what its comments say; every command-line
example exits 0, and the trimmed qscan transcript is the real output. A
constant quoted as `module.NAME = value` has that value in the code, and
the block sizes are never quoted as bare numbers. Every `module.name` it
cites exists in the package, and every test it names exists under tests/.
"""

from __future__ import annotations

import re
import shlex
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


def command_line_section() -> str:
    """README's "Command line" section, up to the next heading."""
    text = README.read_text(encoding="utf-8")
    return text.split("## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_command_line_examples_exit_0(tmp_path, capsys):
    from mzduality import cli

    block = re.search(r"```sh\n(.*?)```", command_line_section(), re.S).group(1)
    lines = block.splitlines()
    assert lines and all(line.startswith("mzduality ") for line in lines)
    for line in lines:
        argv = shlex.split(line)[1:]
        outs = [i + 1 for i, arg in enumerate(argv) if arg == "--out"]
        for i in outs:
            argv[i] = str(tmp_path / argv[i])
        assert cli.main(argv) == 0, line
        out, err = capsys.readouterr()
        assert not err and bool(out) != bool(outs), line
        assert all(Path(argv[i]).stat().st_size for i in outs), line


def test_qscan_transcript_matches_the_output(capsys):
    from mzduality import cli

    block = re.search(r"A scan, trimmed:\n\n```\n(.*?)```", command_line_section(), re.S).group(1)
    command, *want = block.splitlines()
    assert command.startswith("$ mzduality ")
    assert cli.main(shlex.split(command)[2:]) == 0
    got = capsys.readouterr().out.splitlines()
    assert len(got) == len(want)
    for line, comment in zip(got, want):
        if comment.endswith("..."):
            assert line.startswith(comment[:-3]), (line, comment)
        else:
            assert line == comment


QUOTED = re.compile(r"`(\w+)\.(\w+) = ([^`]+)`")  # `module.NAME = value`


def test_quoted_constants_have_their_values_in_the_code():
    import ast
    import importlib

    text = README.read_text(encoding="utf-8")
    quoted = QUOTED.findall(text)
    names = {f"{module}.{name}" for module, name, _ in quoted}
    assert {"cli.EPS_GAP_FLOOR", "cli._ROW_BLOCK", "entropic._BLOCK"} <= names
    for module, name, value in quoted:
        code = getattr(importlib.import_module(f"mzduality.{module}"), name)
        assert ast.literal_eval(value) == code, (module, name, value)


def test_block_sizes_are_quoted_only_by_name():
    from mzduality.cli import _ROW_BLOCK
    from mzduality.entropic import _BLOCK

    bare = QUOTED.sub("", README.read_text(encoding="utf-8"))
    for n in (_ROW_BLOCK, _BLOCK, 2 * _BLOCK):
        for spelled in (str(n), f"{n:,}".replace(",", " ")):
            assert not re.search(rf"(?<![\w.]){spelled}(?![\w.])", bare), spelled


SPAN = re.compile(r"`([^`\n]+)`")  # a backticked span
CITED_NAME = re.compile(r"(?<![\w.])(qubit|interferometer|uncertainty|entropic|cli)\.(\w+)")
CITED_TEST = re.compile(r"(?<![\w./])(test_\w+|Test\w+)(?![\w.])")  # not a file path


def cited(pattern: re.Pattern) -> set:
    """Every match of pattern inside a backticked span of README."""
    spans = SPAN.findall(README.read_text(encoding="utf-8"))
    return {match for span in spans for match in pattern.findall(span)}


def test_cited_package_names_exist():
    import importlib

    names = cited(CITED_NAME)
    assert {("cli", "main"), ("entropic", "_BLOCK")} <= names
    missing = [
        f"{module}.{name}"
        for module, name in sorted(names)
        if not hasattr(importlib.import_module(f"mzduality.{module}"), name)
    ]
    assert not missing


def test_cited_tests_exist():
    defined = set()
    for path in README.parent.joinpath("tests").glob("*.py"):
        defined.add(path.stem)
        text = path.read_text(encoding="utf-8")
        defined.update(re.findall(r"^[ \t]*(?:def|class) (\w+)", text, re.M))
    names = cited(CITED_TEST)
    assert "TestExactVerdicts" in names
    assert not names - defined, sorted(names - defined)
