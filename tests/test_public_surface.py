"""The public surface stays small and consistently versioned."""

import re
from pathlib import Path

import pmdkit

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_used_and_version_matches_pyproject():
    # a name in pmdkit.__all__ earns its place by a reference outside its
    # own definition and the re-export in __init__.py
    package = ROOT / "src" / "pmdkit"
    files = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py"), ROOT / "README.md"]
    texts = [path.read_text(encoding="utf-8") for path in files]
    unused = []
    for name in pmdkit.__all__:
        definition = re.compile(rf"^\s*(?:def|class)\s+{name}\b.*$", re.MULTILINE)
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(definition.sub("", text)) for text in texts):
            unused.append(name)
    assert unused == [], f"public names with no reference in src/, demos/, bench/ or README.md: {unused}"

    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert pmdkit.__version__ == re.search(r'^version = "([^"]+)"', pyproject, re.MULTILINE)[1]
