"""Property-based serialization tests over randomly generated object
files (beyond the fixed-shape roundtrip in test_objfile)."""

from hypothesis import given, settings, strategies as st

from repro.objfile import (
    ObjectFile,
    Relocation,
    RelocationType,
    Section,
    SectionKind,
    Symbol,
    SymbolBinding,
    SymbolKind,
    dump_object,
    load_object,
)

_name = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                           whitelist_characters="._"),
    min_size=1, max_size=24)


@st.composite
def object_files(draw):
    obj = ObjectFile(name=draw(_name))
    n_sections = draw(st.integers(1, 5))
    section_names = draw(st.lists(_name, min_size=n_sections,
                                  max_size=n_sections, unique=True))
    symbol_pool = draw(st.lists(_name, min_size=1, max_size=6,
                                unique=True))
    for sec_name in section_names:
        data = draw(st.binary(min_size=0, max_size=64))
        section = Section(
            name="." + sec_name,
            kind=draw(st.sampled_from(list(SectionKind))),
            data=data,
            alignment=draw(st.sampled_from([1, 2, 4, 8, 16])))
        if len(data) >= 4:
            for _ in range(draw(st.integers(0, 3))):
                section.relocations.append(Relocation(
                    offset=draw(st.integers(0, len(data) - 4)),
                    symbol=draw(st.sampled_from(symbol_pool)),
                    type=draw(st.sampled_from(list(RelocationType))),
                    addend=draw(st.integers(-(1 << 31), (1 << 31) - 1))))
        obj.add_section(section)
    for sym_name in symbol_pool:
        in_section = draw(st.booleans())
        if in_section:
            target = draw(st.sampled_from(section_names))
            section = obj.sections["." + target]
            obj.add_symbol(Symbol(
                name=sym_name,
                binding=draw(st.sampled_from(list(SymbolBinding))),
                kind=draw(st.sampled_from(list(SymbolKind))),
                section="." + target,
                value=draw(st.integers(0, max(section.size, 0))),
                size=draw(st.integers(0, 64))))
        else:
            obj.add_symbol(Symbol(name=sym_name, section=None))
    return obj


def _fingerprint(obj: ObjectFile):
    return (
        obj.name,
        {name: (s.kind, bytes(s.data), s.alignment,
                tuple((r.offset, r.symbol, r.type, r.addend)
                      for r in s.sorted_relocations()))
         for name, s in obj.sections.items()},
        [(s.name, s.binding, s.kind, s.section, s.value, s.size)
         for s in obj.symbols],
    )


@settings(max_examples=80, deadline=None)
@given(obj=object_files())
def test_property_serialization_roundtrip(obj):
    assert _fingerprint(load_object(dump_object(obj))) == _fingerprint(obj)


@settings(max_examples=40, deadline=None)
@given(obj=object_files())
def test_property_copy_is_equal_and_independent(obj):
    clone = obj.copy()
    assert _fingerprint(clone) == _fingerprint(obj)
    for section in clone.sections.values():
        section.data = bytes([section.data[0] ^ 0xFF]) \
            + bytes(section.data[1:]) if section.data else b"\x01"
    if any(s.size for s in obj.sections.values()):
        assert _fingerprint(clone) != _fingerprint(obj)


@settings(max_examples=40, deadline=None)
@given(obj=object_files())
def test_property_dump_is_deterministic(obj):
    assert dump_object(obj) == dump_object(obj)
