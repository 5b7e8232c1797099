"""Hostile bytes at the two pack entry points end in typed errors.

Two entry points read bytes from outside the process: an update pack
file (``UpdatePack.from_bytes``, behind ``repro inspect`` and
``repro objdump``) and the KELF objects inside it (``load_object``).
Hypothesis drives both with malformed input:

* **pack JSON** — documents of any shape, fields removed or given any
  JSON type, and helper/primary payloads that are not hex or not KELF;
  every failure must be a :class:`ReproError`;
* **KELF objects** — a real update's helper and primary with bytes
  overwritten, truncated or extended; every failure must be an
  :class:`ObjectFormatError`.

The CLI half runs ``objdump`` and ``inspect`` on three crafted pack
files and expects exit 3 with one ``error:`` line and no traceback.
A well-formed pack with no units is refused by ``apply`` before it
takes an update id, and ``objdump --unit`` naming no unit of the pack
exits 2.
"""

import json
import os
import subprocess
import sys

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships in the image
    pytest.skip("hypothesis unavailable", allow_module_level=True)

from repro.core.update import UpdatePack
from repro.errors import KspliceError, ObjectFormatError, ReproError
from repro.evaluation.analyze import create_corpus_cve
from repro.objfile import ObjectFile, dump_object, load_object

_PACK = create_corpus_cve("CVE-2006-2451").pack
_DOCUMENT = json.loads(_PACK.to_bytes())
_OBJECTS = [dump_object(_PACK.units[0].helper),
            dump_object(_PACK.units[0].primary)]

_UNIT_FIELDS = sorted(_DOCUMENT["units"][0])
_TOP_FIELDS = sorted(_DOCUMENT)

# -- strategies --------------------------------------------------------------

_json = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=20)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=12), children, max_size=4)),
    max_leaves=12)


def _mutate_bytes(raw, edits):
    data = bytearray(raw)
    for index, value in edits:
        data[index % len(data)] = value
    return bytes(data)


_edits = st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                            st.integers(min_value=0, max_value=255)),
                  min_size=1, max_size=3)

_payloads = st.one_of(
    st.text(max_size=40),
    st.binary(max_size=64).map(bytes.hex),
    st.builds(lambda which, edits: _mutate_bytes(
        _OBJECTS[which], edits).hex(), st.integers(0, 1), _edits),
)


def _parse(document):
    raw = json.dumps(document).encode("utf-8")
    try:
        pack = UpdatePack.from_bytes(raw)
    except ReproError:
        return None
    except Exception as exc:  # pragma: no cover - the regression
        pytest.fail("untyped %s leaked: %s" % (type(exc).__name__, exc))
    assert isinstance(pack, UpdatePack)
    return pack


# -- pack JSON ---------------------------------------------------------------


@given(_json)
@settings(max_examples=200)
def test_any_json_shape_is_a_typed_error_or_a_pack(document):
    _parse(document)


@given(st.sampled_from(_TOP_FIELDS), st.one_of(st.none(), _json))
@settings(max_examples=200)
def test_a_top_level_field_of_any_type_or_missing(name, value):
    document = json.loads(json.dumps(_DOCUMENT))
    if value is None:
        del document[name]
    else:
        document[name] = value
    _parse(document)


@given(st.sampled_from(_UNIT_FIELDS), st.one_of(st.none(), _json))
@settings(max_examples=200)
def test_a_unit_field_of_any_type_or_missing(name, value):
    document = json.loads(json.dumps(_DOCUMENT))
    if value is None:
        del document["units"][0][name]
    else:
        document["units"][0][name] = value
    _parse(document)


@given(st.sampled_from(["helper", "primary"]), _payloads)
@settings(max_examples=200)
def test_hostile_hex_payloads(name, payload):
    document = json.loads(json.dumps(_DOCUMENT))
    document["units"][0][name] = payload
    _parse(document)


@given(st.binary(max_size=200))
@settings(max_examples=200)
def test_random_bytes_are_a_typed_error(blob):
    try:
        UpdatePack.from_bytes(blob)
    except ReproError:
        return
    except Exception as exc:  # pragma: no cover - the regression
        pytest.fail("untyped %s leaked: %s" % (type(exc).__name__, exc))


def test_the_unmodified_document_parses():
    pack = _parse(_DOCUMENT)
    assert pack is not None and pack.to_bytes() == _PACK.to_bytes()


# -- KELF objects ------------------------------------------------------------


def _load(raw):
    try:
        return load_object(raw)
    except ObjectFormatError:
        return None
    except Exception as exc:  # pragma: no cover - the regression
        pytest.fail("untyped %s leaked: %s" % (type(exc).__name__, exc))


@given(st.integers(0, 1), _edits)
@settings(max_examples=300)
def test_byte_mutated_objects_load_or_raise_object_format_error(which,
                                                                edits):
    loaded = _load(_mutate_bytes(_OBJECTS[which], edits))
    assert loaded is None or isinstance(loaded, ObjectFile)


@given(st.integers(0, 1), st.integers(min_value=0, max_value=10 ** 6),
       st.binary(max_size=16))
@settings(max_examples=200)
def test_truncated_or_extended_objects(which, cut, tail):
    raw = _OBJECTS[which]
    loaded = _load(raw[:cut % len(raw)] + tail)
    assert loaded is None or isinstance(loaded, ObjectFile)


# -- the CLI -----------------------------------------------------------------

_CRAFTED = {
    "not-an-object": b"[]",
    "missing-field": b'{"format": 1}',
    "bad-hex": json.dumps(dict(
        _DOCUMENT, units=[dict(_DOCUMENT["units"][0], helper="zz")]
    )).encode("utf-8"),
}


@pytest.mark.parametrize("name", sorted(_CRAFTED))
def test_crafted_packs_raise_kspliceerror(name):
    with pytest.raises(KspliceError, match="malformed update pack"):
        UpdatePack.from_bytes(_CRAFTED[name])


@pytest.mark.parametrize("command", ["objdump", "inspect"])
@pytest.mark.parametrize("name", sorted(_CRAFTED))
def test_cli_exits_3_with_one_error_line(tmp_path, name, command):
    path = tmp_path / ("%s.json" % name)
    path.write_bytes(_CRAFTED[name])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..",
                                     "src")
    child = subprocess.run(
        [sys.executable, "-m", "repro.cli", command, str(path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 3, child.stderr
    assert child.stderr.startswith("error:")
    assert child.stderr.count("\n") == 1
    assert "Traceback" not in child.stderr


def test_objdump_unknown_unit_exits_2_naming_the_units(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "update.kspl"
    path.write_bytes(_PACK.to_bytes())
    unit = _PACK.units[0].unit
    assert main(["objdump", str(path), "--unit", "no/such.c"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert "no/such.c" in captured.err and unit in captured.err
    assert main(["objdump", str(path), "--unit", unit]) == 0
    assert "section .text." in capsys.readouterr().out


def test_empty_pack_is_refused_and_takes_no_update_id():
    from repro.core import KspliceCore
    from repro.evaluation.corpus import corpus_by_id
    from repro.evaluation.engine import run_build_for
    from repro.evaluation.kernels import kernel_for_version
    from repro.kernel import boot_kernel

    kernel = kernel_for_version(
        corpus_by_id("CVE-2006-2451").kernel_version)
    core = KspliceCore(boot_kernel(kernel.tree,
                                   build=run_build_for(kernel)))
    empty = UpdatePack.from_bytes(
        json.dumps(dict(_DOCUMENT, units=[])).encode("utf-8"))
    assert empty.update_id == _PACK.update_id
    with pytest.raises(KspliceError, match="no units"):
        core.apply(empty)
    assert core.applied_ids() == []
    core.apply(UpdatePack.from_bytes(_PACK.to_bytes()))
    assert core.applied_ids() == [_PACK.update_id]
