"""Machine-readable benchmark results: ``BENCH_corpus.json``.

Every throughput benchmark (local corpus and distributed fabric)
records its headline numbers here so perf regressions are diffable in
review instead of buried in CI logs.  The file is one JSON object,
one section per benchmark entry point; :func:`record` merges a section
atomically (write-temp-then-rename) so concurrent benches cannot tear
the file.

Only recording runs write it: ``--full``, or a bench's run with no
argument.  ``--smoke`` runs and the pytest ``test_*`` entry points
are checks, so they :func:`show` their payload instead and leave the
tracked file as it was.

The filename is deliberately not ``bench_*.py`` so pytest's benchmark
glob never collects this module.
"""

import json
import os
import platform
import tempfile
import time

#: repo root / BENCH_corpus.json — next to ROADMAP.md, committed.
DEFAULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_corpus.json")


def host_fingerprint():
    """Enough context to compare two recorded runs honestly."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def show(section, payload):
    """Print ``{section: payload}`` without recording it."""
    print("%s: %s" % (section, json.dumps(payload, sort_keys=True)))


def record(section, payload, path=None):
    """Merge ``{section: payload}`` into the results file atomically.

    ``payload`` gets ``recorded_at`` (epoch seconds) and the host
    fingerprint stamped in; existing sections written by other benches
    are preserved.
    """
    path = path or DEFAULT_PATH
    results = {}
    try:
        with open(path) as handle:
            results = json.load(handle)
    except (OSError, ValueError):
        results = {}
    if not isinstance(results, dict):
        results = {}
    entry = dict(payload)
    entry["recorded_at"] = round(time.time(), 3)
    entry["host"] = host_fingerprint()
    results[section] = entry

    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bench-",
                               suffix=".json.tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
