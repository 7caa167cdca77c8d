"""The documented public surface: README's quick start and every ``__all__`` list."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ctrlcost

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["ctrlcost"] + sorted(f"ctrlcost.{m.name}" for m in pkgutil.iter_modules(ctrlcost.__path__))


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", text, re.S)
    assert block, "README has no python block under 'Library quick start'"
    exec(compile(block.group(1), "README quick start", "exec"), {})
    fidelity, cost = map(float, capsys.readouterr().out.split("\n")[0].split())
    assert fidelity >= 1.0 - 1e-8 and cost > 0.0


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is listed twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
