"""The public API holds no test-only code: each exported function or class has
a caller inside the package; and every operator states its output band."""
import ast
import importlib
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


def test_no_public_operator_defaults_its_output_band():
    banded, defaulted = [], []
    for module in ("dnlslab.fields", "dnlslab.nonlinear", "dnlslab.solver"):
        for name, fn in inspect.getmembers(importlib.import_module(module), inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module:
                continue
            param = inspect.signature(fn).parameters.get("out_cutoff")
            if param is not None:
                banded.append(f"{module}.{name}")
                if param.default is not param.empty:
                    defaulted.append(f"{module}.{name}")
    assert "dnlslab.solver.forcing_field" in banded and len(banded) >= 10
    assert defaulted == []
