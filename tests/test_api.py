"""The README's Library import block is the public API, and its example lines hold."""

import ast
import re
from pathlib import Path

import annulus_chroma

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
