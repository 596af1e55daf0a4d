"""The README quick start runs, and every demo imports only names satree exports."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs_and_demo_imports_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(block, "README.md quick start", "exec"), {})
    # parsed, not run: demo 01 alone takes seconds
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "satree":
                module = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(module, a.name)]
                assert not missing, f"{demo.name} imports {missing} from {node.module}"
