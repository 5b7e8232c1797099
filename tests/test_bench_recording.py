"""Checks leave ``BENCH_corpus.json`` alone.

``benchmarks/perfjson.py``'s ``record`` rewrites the tracked results
file.  Only recording runs (``--full``, or a bench run with no
argument) may reach it.  A ``--smoke`` run and a pytest ``test_*``
entry point are checks: they print their payload, so running them in a
checkout leaves it unmodified.  This scans each bench's syntax tree,
following calls and references to the module's own functions, for a
path from such an entry point to ``perfjson.record``.
"""

import ast
import pathlib

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _is_record(node):
    return (isinstance(node, ast.Attribute) and node.attr == "record"
            and isinstance(node.value, ast.Name)
            and node.value.id == "perfjson")


def _smoke_branches(tree):
    """The bodies of ``if "--smoke" in sys.argv...`` branches."""
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and any(
                isinstance(n, ast.Constant) and n.value == "--smoke"
                for n in ast.walk(node.test)):
            yield node.body


def _recording_entry_points(path):
    """Smoke and pytest entry points of one bench that can reach
    ``perfjson.record``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def reaches(nodes, seen):
        for node in (n for top in nodes for n in ast.walk(top)):
            if _is_record(node):
                return True
            if isinstance(node, ast.Name) and node.id in functions \
                    and node.id not in seen:
                seen.add(node.id)
                if reaches([functions[node.id]], seen):
                    return True
        return False

    found = [name for name, node in functions.items()
             if (name.startswith("test_") or name == "run_smoke")
             and reaches([node], {name})]
    found += ["the --smoke branch" for body in _smoke_branches(tree)
              if reaches(body, set())]
    return found


def test_scan_sees_a_recording_smoke(tmp_path):
    """The scan itself: a smoke that records through a helper, and a
    ``--smoke`` branch that hands ``perfjson.record`` on, are found."""
    source = '''
import perfjson

def _keep(payload):
    perfjson.record("x_smoke", payload)

def run_smoke():
    _keep({})

def run(keep):
    keep("x", {})

if __name__ == "__main__":
    if "--smoke" in sys.argv:
        run(perfjson.record)
'''
    path = tmp_path / "bench_x.py"
    path.write_text(source)
    assert _recording_entry_points(path) == ["run_smoke",
                                             "the --smoke branch"]


def test_no_smoke_or_pytest_entry_point_records():
    benches = sorted(BENCHMARKS.glob("bench_*.py"))
    assert benches
    offenders = {path.name: found for path in benches
                 for found in [_recording_entry_points(path)] if found}
    assert offenders == {}
