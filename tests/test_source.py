"""Source checks over the m3enc package: every import is used, scipy is
imported only inside functions, and every class, function and method, public
or private, has a caller."""

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import m3enc

SRC = Path(m3enc.__file__).parent


def _own_imports(scope):
    """The import statements of ``scope``, not of the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that its scope never reads. A module
    import counts as read anywhere in the module, a function's import anywhere
    in that function; names listed in ``__all__`` count as read."""
    tree = ast.parse(source)
    exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in scopes:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)} | exported
        for node in _own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((node.lineno, name))
    return sorted(unused)


def test_unused_import_finder():
    source = ("import os\nimport sys as system\nfrom . import a, b\n\n"
              "def f():\n    from .errors import E, F\n    return E, a\n\n"
              "def g():\n    return F\n")
    assert unused_imports(source) == [(1, "os"), (2, "system"), (3, "b"), (6, "F")]


def test_src_has_no_unused_imports():
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def load_time_imports(source: str, package: str) -> list[int]:
    """Lines of the imports of ``package`` or its submodules that run when the
    module loads: every one outside a function body."""
    lines = []
    for node in _own_imports(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else []
        else:
            names = [alias.name for alias in node.names]
        if any(name.split(".")[0] == package for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_load_time_import_finder():
    source = ("import scipy\nfrom scipy.special import erf\nimport numpy, scipy.sparse as sp\n"
              "from . import scipy\nimport scipyx\n\n"
              "if x:\n    from scipy import linalg\n\n"
              "class C:\n    import scipy.fft\n\n"
              "def f():\n    from scipy.sparse import csr_matrix\n")
    assert load_time_imports(source, "scipy") == [1, 2, 3, 8, 11]


def test_src_imports_scipy_only_inside_functions():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in load_time_imports(path.read_text(encoding="utf-8"), "scipy")]
    assert found == []


def test_cli_evalkit_and_encoder_load_without_scipy_special():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import m3enc.cli, m3enc.evalkit, "
            "m3enc.encoder; print(sorted(m for m in sys.modules if m.startswith('scipy.special')))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC.parent)], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_pretrain_runs_without_scipy_sparse_or_special(tmp_path):
    # an MLM stage and a contrastive stage run through numpy alone: neither
    # scipy.sparse nor scipy.special is imported by the end of the process
    from m3enc import synth

    synth.write_text_corpus(tmp_path / "mono.txt", synth.generate_mlm_corpus(
        40, seed=1, n_topics=4, words_per_topic=8, n_common=8, doc_len=(6, 10)))
    synth.write_pair_corpus(tmp_path / "pairs.tsv", synth.generate_pair_corpus(
        30, seed=2, n_topics=4, words_per_topic=8, n_common=8, doc_len=(6, 10)))
    config = {
        "seed": 3, "output_dir": "out", "vocab_corpus": "mono.txt",
        "model": {"n_layers": 2, "hidden": 16, "n_heads": 2, "max_seq": 12, "vocab_size": 200,
                  "granularity": {"layers": [1, 2], "dims": [4, 16]}},
        "stages": [
            {"name": "mlm", "stage": "pretrain_mlm", "data": {"kind": "mono", "path": "mono.txt"},
             "steps": 2, "batch_size": 4, "lr": 1e-3, "seq_len": 10},
            {"name": "pairs", "stage": "pretrain_contrastive",
             "data": {"kind": "pairs", "path": "pairs.tsv"}, "steps": 2, "batch_size": 4,
             "lr": 1e-3, "tau": 0.05, "tile": 2, "query_len": 8, "doc_len": 10},
        ],
    }
    (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from m3enc import cli; "
            "code = cli.main(['pretrain', '--config', sys.argv[2]]); "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.sparse', "
            "'scipy.special')))); sys.exit(code)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC.parent), str(tmp_path / "run.json")],
                         capture_output=True, text=True, check=True).stdout
    assert (tmp_path / "out" / "pairs.m3ck").exists()
    assert out.strip().splitlines()[-1] == "[]"


# public names that are library surface without a caller in the package
CALLED_FROM_TESTS_BY_DESIGN = {"grad_check"}
CALLERS = [SRC.parent.parent / "perfbench", SRC]


def is_property(decorator) -> bool:
    """Whether ``decorator`` makes a method an attribute read: ``property``,
    ``cached_property`` or ``functools.cached_property``."""
    if isinstance(decorator, ast.Name):
        return decorator.id in ("property", "cached_property")
    return (isinstance(decorator, ast.Attribute) and decorator.attr == "cached_property"
            and isinstance(decorator.value, ast.Name) and decorator.value.id == "functools")


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, kind, node) of each module-level class and function and class
    method, public or private but not a dunder, which Python itself calls;
    ``kind`` is "class", "function", "method" or "property"."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not is_dunder(node.name):
            yield node.name, "function", node
        elif isinstance(node, ast.ClassDef):
            yield node.name, "class", node
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                    kind = "property" if any(map(is_property, item.decorator_list)) else "method"
                    yield item.name, kind, item


def references(tree) -> Counter:
    """How often ``tree`` reads each name: ``("name", n)`` as a bare name,
    ``("attr", n)`` as an attribute ``x.n`` and ``("call", n)`` as a called
    attribute ``x.n(...)``, which a data field of the same name is not."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out["name", node.id] += 1
        elif isinstance(node, ast.Attribute):
            out["attr", node.attr] += 1
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            out["call", node.func.attr] += 1
    return out


# how each kind of definition is read from outside it
READ_AS = {"class": ("name", "attr"), "function": ("name", "attr"), "method": ("call",),
           "property": ("attr",)}


def uncalled_names(trees: dict[str, ast.Module]) -> list[str]:
    """``file:name`` of each class, function, method or property of ``m3enc/``
    (``definitions``) that no file reads outside its own definition
    (``READ_AS``). Imports do not count as reads; the ``cmd_*`` handlers
    count through ``_HANDLERS``."""
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    out = []
    for path, tree in trees.items():
        if not path.startswith("m3enc/"):
            continue
        for name, kind, node in definitions(tree):
            outside = everywhere - references(node)
            if not any(outside[how, name] for how in READ_AS[kind]):
                out.append(f"{path}:{name}")
    return sorted(out)


def test_uncalled_public_name_finder():
    trees = {"m3enc/a.py": ast.parse(
        "def f():\n    return f()\n\ndef g():\n    pass\n\n"
        "class C:\n    def m(self):\n        m = 1\n        return m\n\n"
        "    def n(self):\n        return self.m()\n\n"
        "    @property\n    def p(self):\n        return len(x.n)\n\n"
        "    @property\n    def q(self):\n        return 1\n\n"
        "    @functools.cached_property\n    def r(self):\n        return 2\n\n"
        "    @cached_property\n    def s(self):\n        return 3\n\n"
        "class D:\n    def make(self) -> D:\n        return D()\n\n"
        "class E:\n    pass\n\nclass _F:\n    pass\n\n"
        "def _h():\n    return _k()\n\ndef _k():\n    pass\n\n"
        "class _G:\n    def __init__(self):\n        self._w()\n\n"
        "    def _w(self):\n        pass\n\n    def _v(self):\n        pass\n"),
        "other/b.py": ast.parse("from m3enc.a import f, g, D, E\n\ng()\nC().p\nC().r\n"
                                "a.E\na._G()\n")}
    # f is only imported and called by itself; x.n reads a field, not the
    # method; a cached property, like a property, is read as an attribute;
    # D is only imported and named in its own body, E is read as a.E;
    # private names count too: _F and _h have no reader, _k and _G do, and
    # of _G's methods the dunder is exempt, _w is called and _v is not
    assert uncalled_names(trees) == ["m3enc/a.py:D", "m3enc/a.py:_F", "m3enc/a.py:_h",
                                     "m3enc/a.py:_v", "m3enc/a.py:f", "m3enc/a.py:make",
                                     "m3enc/a.py:n", "m3enc/a.py:q", "m3enc/a.py:s"]


def test_every_public_name_has_a_caller_in_the_package():
    trees = {}
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            key = f"{root.name}/{path.relative_to(root).as_posix()}"
            trees[key] = ast.parse(path.read_text(encoding="utf-8"))
    found = uncalled_names(trees)
    allowed = [f for f in found if f.split(":")[1] in CALLED_FROM_TESTS_BY_DESIGN]
    assert len(allowed) == len(CALLED_FROM_TESTS_BY_DESIGN), "allowlisted names now have callers"
    assert sorted(set(found) - set(allowed)) == []
