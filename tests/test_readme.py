"""The README's library example runs and prints what its comments say, and
the README and the CLI name the same subcommands."""

import ast
import pathlib
import re

from satbones import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _example_values(source: str) -> list:
    """Value of every top-level expression statement, in order."""
    namespace: dict = {}
    values = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            code = compile(ast.Module([node], []), "README.md", "exec")
            exec(code, namespace)
    return values


def test_library_example_matches_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    model = {1: False, 2: True, 3: True, 4: True, 5: True, 6: True}
    assert _example_values(block) == [model, 6, 6, 1]


def test_cli_docs_name_the_command_table():
    (block,) = re.findall(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S)
    assert re.findall(r"^satbones (\w+)", block, re.M) == list(cli.COMMANDS)
    (listed,) = re.findall(r"Subcommands: (.*?)\.", cli.__doc__, re.S)
    assert re.split(r",\s+", listed) == list(cli.COMMANDS)
