"""Every public function or class of the package has a caller: something in
the package uses it, or the package exports it in `trojansim.__all__`.
References that only tests need live in the tests (see tests/oracles.py)."""

import ast
from pathlib import Path

import trojansim

PACKAGE = Path(trojansim.__file__).parent


def public_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def referenced_names(tree: ast.Module) -> set[str]:
    """Names a module uses: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(referenced_names, trees.values()))
    uncalled = [
        f"{module[:-3]}.{name}"
        for module, tree in trees.items()
        for name in public_definitions(tree)
        if name not in used and name not in trojansim.__all__
    ]
    assert uncalled == []


def test_all_names_exist():
    assert sorted(set(trojansim.__all__)) == sorted(trojansim.__all__)
    assert [name for name in trojansim.__all__ if not hasattr(trojansim, name)] == []


def library_use_snippet() -> str:
    """The python block under README's "Library use" heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_use_runs(capsys):
    snippet = library_use_snippet()
    imported = [
        alias.name
        for node in ast.parse(snippet).body
        if isinstance(node, ast.ImportFrom) and node.module == "trojansim"
        for alias in node.names
    ]
    assert imported and set(imported) <= set(trojansim.__all__)
    exec(compile(snippet, "README.md", "exec"), {})
    rate, equivalent = capsys.readouterr().out.split()
    assert 0 < float(rate) < 1 and equivalent == "True"
