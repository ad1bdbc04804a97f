"""The README's examples run and print what the README says they print.

Each `semireg` line of the sh block under `## CLI` runs through
`semireg.cli.main` in-process and must exit 0.  In its comment, each
fragment in backticks is quoted output: the command's stdout must contain
it.  The rest of that comment is prose.  Every command quotes at least one
fragment.

The python block under `## Library` runs statement by statement in one
namespace.  A comment that starts like a Python literal (a digit, a sign, a
bracket, a quote, True, False or None) is quoted output: its text up to the
first `;` is a literal, and the expression on that line must equal it.  The
text after the `;`, and every comment that starts otherwise, is prose.
"""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from semireg.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()
_QUOTED_VALUE = re.compile(r"[-+\d\[\(\{'\"]|(True|False|None)\b")


def _block(section: str, language: str) -> str:
    """The first fenced `language` block of the README's `## section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _cli_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, quoted fragments) for each `semireg` line of the CLI block."""
    examples = []
    for line in _block("CLI", "sh").splitlines():
        if line.startswith("semireg "):
            command, _, comment = line.partition(" #")
            examples.append((shlex.split(command)[1:], re.findall(r"`([^`]+)`", comment)))
    return examples


def _library_steps(block: str) -> list[tuple[ast.stmt, str | None]]:
    """(statement, the literal its comment quotes, or None) in block order."""
    comments = {token.start[0]: token.string[1:].strip()
                for token in tokenize.generate_tokens(io.StringIO(block).readline)
                if token.type == tokenize.COMMENT}
    steps = []
    for node in ast.parse(block).body:
        comment = comments.get(node.end_lineno, "")
        steps.append((node, comment.split(";", 1)[0].strip()
                      if _QUOTED_VALUE.match(comment) else None))
    return steps


CLI_EXAMPLES = _cli_examples()


def test_every_cli_example_quotes_its_output():
    assert len(CLI_EXAMPLES) >= 5
    assert all(fragments for _, fragments in CLI_EXAMPLES)


@pytest.mark.parametrize("argv,fragments", CLI_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in CLI_EXAMPLES])
def test_cli_example(capsys, argv, fragments):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    missing = [fragment for fragment in fragments if fragment not in out]
    assert missing == []


def test_library_example():
    namespace, checked = {}, 0
    for node, quoted in _library_steps(_block("Library", "python")):
        if quoted is None:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(node, ast.Expr), ast.unparse(node)
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert value == ast.literal_eval(quoted), ast.unparse(node)
        checked += 1
    assert checked >= 10
