import pathlib
import types

import harmcert

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def api_table():
    """(name, module) of each row of the README's Public API table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines()
            if line.startswith("| `")]
    return [(cells[1].strip().strip("`"), cells[2].strip().strip("`"))
            for cells in rows]


def public_names():
    return {name for name, value in vars(harmcert).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)}


def test_readme_table_is_the_public_api():
    table = api_table()
    names = [name for name, _ in table]
    assert len(names) == len(set(names))
    assert set(names) == public_names()
    assert len(names) <= 43


def test_readme_table_names_each_module():
    for name, module in api_table():
        assert getattr(harmcert, name).__module__ == f"harmcert.{module}"
