"""The public API holds no test-only code: each exported function or class has
a caller inside the package."""
import ast
import inspect
from pathlib import Path

import dnlslab as lab


def referenced_names(package_dir: Path) -> set[str]:
    """Every name read as a bare name or an attribute in the package's modules,
    except the re-exports of __init__.py."""
    names = set()
    for path in package_dir.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_and_class_has_a_caller_in_the_package():
    used = referenced_names(Path(lab.__file__).parent)
    public = [name for name in lab.__all__ if not name.startswith("__")
              and (inspect.isfunction(getattr(lab, name)) or inspect.isclass(getattr(lab, name)))]
    assert public
    assert [name for name in public if name not in used] == []
