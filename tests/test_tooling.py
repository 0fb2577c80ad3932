"""The test configuration itself: a failing test must not stop the run;
and rules about the package's source that no single module test sees."""

import argparse
import ast
import re
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


def test_only_transport_reads_a_matrix_payload():
    # a matrix delivered through Hub.exchange_matrix (or read with
    # transport.receive_matrix) is checked by kind, sender and shape on
    # receipt; a bare unpack_matrix would take a delivery of any shape
    readers = []
    for path in sorted((ROOT / "src" / "mpdl").glob("*.py")):
        if path.name == "transport.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and "unpack_matrix" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


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


def _production_sources():
    """Every production source, parsed: the package's modules (not its
    ``__init__``), the bench, the demos and README's python blocks."""
    paths = [p for d in ("src/mpdl", "bench", "demos")
             for p in sorted((ROOT / d).glob("*.py"))
             if p.name != "__init__.py"]
    trees = [ast.parse(p.read_text(), str(p)) for p in paths]
    readme = (ROOT / "README.md").read_text()
    trees += [ast.parse(block, "README.md") for block in
              re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)]
    return trees


def _production_calls():
    """Called name -> [(positional count, keyword names)]; a ``*`` splat
    counts as every position and a ``**`` splat as every keyword."""
    calls = {}
    for tree in _production_sources():
        for node in ast.walk(tree):
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


# public names whose only callers are tests, and why each stays
TEST_ONLY_ON_PURPOSE = {
    "paillier.encrypt_mantissa":
        "tests encrypt raw mantissas that no float encodes",
    "privacy.effective_scale":
        "the test oracle for the per-entry Laplace scale",
}


def _public_definitions():
    """(label, name) for each public module-level function and class of
    the package, and each public method of those classes."""
    found = []
    for path in sorted((ROOT / "src" / "mpdl").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_"):
                continue
            found.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found.extend((f"{path.stem}.{node.name}.{m.name}", m.name)
                             for m in node.body
                             if isinstance(m, ast.FunctionDef) and
                             not m.name.startswith("_"))
    return found


def _production_names():
    """Names that production code reads, by name or as an attribute,
    outside a definition of the same name."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and \
                isinstance(node.ctx, ast.Load):
            used.update({node.id} - inside)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            used.update({node.attr} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in _production_sources():
        visit(tree, frozenset())
    return used


def test_every_public_name_has_a_production_caller():
    # a public function, class or method that only tests reach is code
    # no run uses: delete it, or say here why a test needs it
    used = _production_names()
    unused = [label for label, name in _public_definitions()
              if name not in used]
    assert sorted(unused) == sorted(TEST_ONLY_ON_PURPOSE)


def _backticked(text: str) -> list[str]:
    return re.findall(r"`([^`]+)`", text)


def test_readme_settings_lists_match_the_cli():
    # README spells out graph's settings and the shared training settings
    # by name; each list must be the CLI's own, so a setting that goes
    # (or arrives) cannot be left behind (or out) there
    from mpdl import cli
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `graph` +\|(.*)\|$", readme, re.M)
    assert len(rows) == 1
    assert _backticked(rows[0]) == list(cli.SETTINGS["graph"])
    sentences = re.findall(r"The training settings are (.*?)\.\n", readme,
                           re.S)
    assert len(sentences) == 1
    assert _backticked(sentences[0]) == list(cli._TRAINING)


def _exit_codes(text: str) -> list[tuple[str, str]]:
    sentences = re.findall(r"Exit codes: (.*?)\.\n", text, re.S)
    assert len(sentences) == 1
    return re.findall(r"(\d+) ([^,]+)", " ".join(sentences[0].split()))


def test_readme_commands_and_exit_codes_match_the_cli():
    # README's command-line block runs each subcommand of the parser and
    # no other, and its exit codes are the CLI docstring's, so a command
    # or a code that goes cannot be left behind there
    from mpdl import cli
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^## Command line\n.*?^```sh\n(.*?)^```", readme,
                        re.S | re.M)
    assert len(blocks) == 1
    subparsers, = (action for action in cli.make_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    assert set(re.findall(r"^mpdl ([\w-]+)", blocks[0], re.M)) == \
        set(subparsers.choices)
    assert _exit_codes(readme) == _exit_codes(cli.__doc__)


def test_readme_module_map_lists_every_module():
    # one row per module of the package, and no row for a module that
    # is gone
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `mpdl\.(\w+)` +\|", readme, re.M)
    modules = [p.stem for p in (ROOT / "src" / "mpdl").glob("*.py")
               if p.name != "__init__.py"]
    assert sorted(rows) == sorted(modules)
