"""The README's examples, run as written.

Every ``shamsuddin ...`` line of a ``sh`` block goes through ``cli.run`` and
must print the ``# `` lines that follow it; a line reading ``...`` matches
any run of lines.  The Python quickstart is executed statement by statement,
and each expression statement must evaluate to the repr in its comment.
"""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from shamsuddin.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _cli_examples() -> list[tuple[str, list[str]]]:
    examples = []
    for block in _blocks("sh"):
        current = None
        for line in block.splitlines():
            if line.startswith("shamsuddin "):
                current = (line, [])
                examples.append(current)
            elif current is not None and line.startswith("# "):
                current[1].append(line[2:])
            else:
                current = None
    return examples


def _expected_pattern(lines: list[str]) -> re.Pattern:
    parts = ["(?:.*\n)*?" if line == "..." else re.escape(line) + "\n" for line in lines]
    return re.compile("".join(parts))


CLI_EXAMPLES = _cli_examples()


def test_readme_has_cli_examples():
    assert len(CLI_EXAMPLES) == 8
    assert all(expected for _, expected in CLI_EXAMPLES)


@pytest.mark.parametrize("command, expected", CLI_EXAMPLES, ids=[c.split()[1] for c, _ in CLI_EXAMPLES])
def test_readme_cli_example(command, expected):
    out, err = io.StringIO(), io.StringIO()
    code = run(shlex.split(command)[1:], out=out, err=err)
    assert code == 0 and err.getvalue() == ""
    assert _expected_pattern(expected).fullmatch(out.getvalue()), out.getvalue()


def test_readme_quickstart():
    (source,) = [block for block in _blocks("python") if "import" in block]
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert repr(value) == comments[stmt.end_lineno], ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == 3
