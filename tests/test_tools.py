import importlib.util
import pathlib


def _tool(name):
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(name, root / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_reports_differing_lines():
    differences = _tool("compare_outputs").differences
    same = ["a 1", "b 2"]
    assert differences("t", same, list(same)) == ["t: identical (2 lines)"]
    old = [f"{i} x" for i in range(9)]
    new = [f"{i} {'y' if i % 2 else 'x'}" for i in range(9)] + ["9 x"]
    assert differences("t", old, new) == [
        "t: 5 of 10 lines differ",
        "  2 - 1 x", "  2 + 1 y", "  4 - 3 x", "  4 + 3 y",
        "  6 - 5 x", "  6 + 5 y", "  8 - 7 x", "  8 + 7 y",
        "  9 lines before, 10 after"]
