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


def test_statement_lines_count_what_runs():
    statement_lines = _tool("untested_lines").statement_lines
    source = '''"""Module docstring."""
import sys


class C:
    """Class docstring."""
    x: int

    def f(self):
        """Function docstring."""
        global G
        y: int
        if self.x:
            return (1 +
                    2)
        try:
            pass
        except KeyError:
            pass

        def g():
            nonlocal y

            class D:
                z: int
        return [v for v in
                (lambda: 3,)]
'''
    assert statement_lines(source) == [2, 7, 13, 14, 16, 17, 19, 25, 26]


def test_untested_lines_exit_code():
    exit_code = _tool("untested_lines").exit_code
    assert exit_code(0, 0) == 0
    assert exit_code(0, 3) == 1         # a statement never ran
    assert exit_code(1, 0) == 1         # a test failed
    assert exit_code(2, 3) == 2         # pytest's code takes precedence
    assert exit_code(5, 0) == 5         # no tests were collected
