"""The README's Library import block is the public API, its example lines hold, and its command lines run."""

import ast
import re
import shlex
from pathlib import Path

import annulus_chroma
from annulus_chroma import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_import_block_is_all():
    tree = ast.parse(library_block())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert [node.module for node in imports] == ["annulus_chroma"]
    assert {alias.name for alias in imports[0].names} == set(annulus_chroma.__all__)
    assert len(annulus_chroma.__all__) == len(set(annulus_chroma.__all__))


def test_every_name_has_one_readme_line():
    text = README.read_text(encoding="utf-8")
    items = text[text.index("## Library"):].split("\n- ")[1:]
    documented = [name for item in items for name in re.findall(r"`(\w+)", item.split("`:", 1)[0])]
    assert sorted(documented) == sorted(annulus_chroma.__all__)


def test_example_lines_give_their_commented_results():
    block = library_block()
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2].split()
        if isinstance(stmt, ast.Expr) and comment:
            got = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            assert got == ast.literal_eval(comment[0]), lines[stmt.end_lineno - 1]
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == 2
    assert namespace["coloring"].n == 5  # "5 sectors"


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", text[text.index("## Command line"):], re.S).group(1)
    commands = [line for line in block.splitlines() if line.startswith("annulus-chroma ")]
    graph = re.search(r'^\{"n": .*\}$', text[text.index("Graph (`solve` input)"):], re.M).group(0)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.TOLERANCE_ENV, raising=False)
    (tmp_path / "graph.json").write_text(graph)
    for line in commands:
        assert cli.main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
    assert len(commands) == 10
