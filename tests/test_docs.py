"""The README quick start runs, every demo imports only names satree exports, and every public
function and method of satree has a consumer."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quick_start() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_readme_quick_start_runs_and_demo_imports_resolve():
    exec(compile(quick_start(), "README.md quick start", "exec"), {})
    # parsed, not run: demo 01 alone takes seconds
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "satree":
                module = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(module, a.name)]
                assert not missing, f"{demo.name} imports {missing} from {node.module}"


def used_names(source) -> set[str]:
    """Every name read and attribute taken in source; a def or an import alone uses nothing."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_function_and_method_has_a_consumer():
    # the public surface as the benchmark's tracer selects it; a name counts as consumed when the
    # package itself, a demo, the README quick start, the benchmark or an acceptance gate uses it
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    consumers = [*(ROOT / "src" / "satree").glob("*.py"), *(ROOT / "demos").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    used = used_names(quick_start())
    for path in consumers:
        used |= used_names(path.read_text(encoding="utf-8"))
    unused = []
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"satree.{layer}")
        names = [name for name, _ in tracer._public_functions(module)]
        names += [f"{cls.__name__}.{name}" for cls, name, _, _ in tracer._public_methods(module)]
        unused += [f"{layer}.{name}" for name in names if name.rpartition(".")[2] not in used]
    assert not unused, f"public names that only their own unit tests use: {unused}"
