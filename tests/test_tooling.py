"""The test configuration itself: a failing test must not stop the run;
and rules about the package's source that no single module test sees."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_plain_passes():
    assert True
'''


def test_failing_hypothesis_test_leaves_the_rest_of_the_run_going(tmp_path):
    # reporting a failing @given test makes hypothesis import libcst, which
    # warns on import; under filterwarnings = error that warning must not
    # become an INTERNALERROR (exit 3) that ends the session
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert out.returncode == 1, out.stdout[-2000:]
    assert "1 failed, 1 passed" in out.stdout


def test_only_transport_sends_or_receives_on_a_hub():
    # every delivery outside the transport goes through Hub.exchange, so a
    # message is taken by its receiver before the next one is sent
    calls = []
    for path in sorted((ROOT / "src" / "mpdl").glob("*.py")):
        if path.name == "transport.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("send", "recv"):
                calls.append(f"{path.name}:{node.lineno} .{node.func.attr}(")
    assert calls == []


# parameters that keep a default no production call overrides, and why
UNSET_ON_PURPOSE = {
    "transport.Hub(timeout)": "a deployment setting, like an address",
    "transport._TcpChannel(host)": "a deployment setting: the bind address",
    "synthetic.linear_task(noise)": "generates noisy test data",
    "cli.main(argv)": "argv=None reads the process's own command line",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any((getattr(d, "id", None) or getattr(d, "attr", None) or
                getattr(getattr(d, "func", None), "id", None)) == "dataclass"
               for d in cls.decorator_list)


def _init_field(stmt) -> bool:
    """A dataclass field that ``__init__`` takes (not ``init=False``)."""
    return isinstance(stmt, ast.AnnAssign) and not (
        isinstance(stmt.value, ast.Call) and any(
            k.arg == "init" and getattr(k.value, "value", True) is False
            for k in stmt.value.keywords))


def _defaulted_parameters():
    """(label, called name, parameter, positional index or None) for each
    parameter with a default; a class name stands for its ``__init__``."""
    found = []

    def visit(module, body, cls=None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields = [s for s in node.body if _init_field(s)]
                    found.extend((f"{module}.{node.name}({s.target.id})",
                                  node.name, s.target.id, i)
                                 for i, s in enumerate(fields)
                                 if s.value is not None)
                visit(module, node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                name = cls if node.name == "__init__" else node.name
                args = node.args
                positional = args.posonlyargs + args.args
                bound = 1 if cls and "staticmethod" not in {
                    getattr(d, "id", None) for d in node.decorator_list} else 0
                first = len(positional) - len(args.defaults)
                found.extend((f"{module}.{name}({a.arg})", name, a.arg,
                              i - bound)
                             for i, a in enumerate(positional)
                             if i >= first)
                found.extend((f"{module}.{name}({a.arg})", name, a.arg, None)
                             for a, d in zip(args.kwonlyargs,
                                             args.kw_defaults)
                             if d is not None)
                visit(module, node.body)

    for path in sorted((ROOT / "src" / "mpdl").glob("*.py")):
        visit(path.stem, ast.parse(path.read_text(), str(path)).body)
    return found


def _production_calls():
    """Called name -> [(positional count, keyword names)]; a ``*`` splat
    counts as every position and a ``**`` splat as every keyword."""
    calls = {}
    paths = [p for d in ("src/mpdl", "bench", "demos")
             for p in sorted((ROOT / d).glob("*.py"))]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or \
                getattr(node.func, "attr", None)
            count = float("inf") if any(isinstance(a, ast.Starred)
                                        for a in node.args) \
                else len(node.args)
            calls.setdefault(name, []).append(
                (count, {k.arg for k in node.keywords}))
    return calls


def test_every_optional_parameter_has_a_production_caller():
    # a default that no call in the package, the bench or the demos
    # overrides is a setting no run uses: make it a constant instead
    calls = _production_calls()
    unset = [label for label, name, param, index in _defaulted_parameters()
             if not any(param in keywords or None in keywords or
                        (index is not None and count > index)
                        for count, keywords in calls.get(name, ()))]
    assert sorted(unset) == sorted(UNSET_ON_PURPOSE)
