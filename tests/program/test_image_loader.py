"""Program images: header format, PLT entries, layout, loading."""

import pytest

from repro.isa.assembler import assemble
from repro.memory.mainmem import PAGE_SHIFT, PAGE_SIZE, MainMemory
from repro.program.image import (
    HEADER_BYTES,
    ExecutableHeader,
    build_image,
    build_plt_entry,
    plt_entry_target,
    rewrite_plt_entry,
)
from repro.program.layout import MemoryLayout
from repro.program.loader import Loader


def test_header_pack_unpack_roundtrip():
    header = ExecutableHeader(code_start=0x400000, code_len=0x800,
                              data_start=0x10000000, data_len=0x100,
                              bss_len=0x40, shlib_base=0x30000000,
                              stack_base=0x7FFF0000, heap_base=0x10800000,
                              got_addr=0x10000010, got_entries=4,
                              plt_addr=0x400100, plt_entries=4)
    packed = header.pack()
    assert len(packed) == HEADER_BYTES
    parsed = ExecutableHeader.unpack(packed)
    for field in ExecutableHeader.FIELDS:
        assert getattr(parsed, field) == getattr(header, field), field


def test_header_rejects_bad_magic():
    with pytest.raises(ValueError):
        ExecutableHeader.unpack(b"\x00" * HEADER_BYTES)


def test_header_rejects_short_payload():
    with pytest.raises(ValueError):
        ExecutableHeader.unpack(b"\x01\x02")


def test_plt_entry_roundtrip():
    words = build_plt_entry(0x10000020)
    assert len(words) == 4
    assert plt_entry_target(words) == 0x10000020


def test_plt_entry_rewrite():
    words = build_plt_entry(0x10000020)
    rewritten = rewrite_plt_entry(words, 0x20AB0044)
    assert plt_entry_target(rewritten) == 0x20AB0044
    # Only the two address-carrying words change.
    assert rewritten[2:] == words[2:]


def test_plt_target_rejects_non_plt_words():
    with pytest.raises(ValueError):
        plt_entry_target([0, 0, 0, 0])


def _image():
    layout = MemoryLayout()
    asm = assemble("""
        .data
        value: .word 7
        .text
        main: halt
    """, text_base=layout.text_base, data_base=layout.data_base)
    return build_image(asm, layout), asm, layout


def test_build_image_header_fields():
    image, asm, layout = _image()
    header = image.header
    assert header.code_start == layout.text_base
    assert header.code_len == len(asm.text)
    assert header.stack_base == layout.stack_top
    assert header.heap_base == layout.heap_base


def test_build_image_checks_layout_match():
    layout = MemoryLayout()
    asm = assemble("main: halt\n")          # default bases
    other = MemoryLayout(text_base=0x00500000)
    with pytest.raises(ValueError):
        build_image(asm, other)


def test_loader_places_segments_and_perms():
    image, asm, layout = _image()
    memory = MainMemory()
    loaded = Loader(memory).load(image)
    # Text and data bytes landed.
    assert memory.load_word(layout.text_base) != 0
    assert memory.load_word(asm.symbols["value"]) == 7
    # Permissions: text r-x, data rw, stack rw.
    perms = loaded.page_perms
    assert perms[layout.text_base >> PAGE_SHIFT] == "rx"
    assert perms[layout.data_base >> PAGE_SHIFT] == "rw"
    assert perms[(layout.stack_top - 4) >> PAGE_SHIFT] == "rw"
    # Header staged at the well-known location with valid magic.
    staged = memory.load_bytes(layout.header_base, HEADER_BYTES)
    parsed = ExecutableHeader.unpack(staged)
    assert parsed.code_start == layout.text_base


def _zero_mapped_pages(layout):
    """The stack pages and the first heap page: mapped, never written."""
    first = layout.stack_base >> PAGE_SHIFT
    last = (layout.stack_top - 1) >> PAGE_SHIFT
    return list(range(first, last + 1)) + [layout.heap_base >> PAGE_SHIFT]


def test_loader_maps_stack_and_heap_without_materialising_them():
    image, __, layout = _image()
    memory = MainMemory()
    loaded = Loader(memory).load(image)
    pages = _zero_mapped_pages(layout)
    assert len(pages) == layout.stack_bytes // PAGE_SIZE + 1
    assert all(loaded.page_perms[page] == "rw" for page in pages)
    assert not set(pages) & set(memory.page_numbers())
    assert all(page not in memory.write_versions for page in pages)
    assert all(memory.snapshot_page(page) == bytes(PAGE_SIZE)
               for page in pages)


def test_reload_clears_a_dirtied_stack_and_bumps_its_versions():
    image, __, layout = _image()
    memory = MainMemory()
    Loader(memory).load(image)
    dirtied = [layout.stack_top - 4, layout.stack_top - PAGE_SIZE - 8,
               layout.heap_base + 12]
    for addr in dirtied:
        memory.store_word(addr, 0xDEADBEEF)
    memory.store_bytes(layout.stack_base - 4, b"\x11" * 8)   # straddles
    before = dict(memory.write_versions)

    Loader(memory).load(image)
    for addr in dirtied:
        page = addr >> PAGE_SHIFT
        assert memory.load_word(addr) == 0
        assert memory.write_versions[page] > before[page]
    # A store across the stack's lower edge: only its stack half clears.
    assert memory.load_bytes(layout.stack_base - 4, 8) == b"\x11" * 4 \
        + bytes(4)
    touched = {addr >> PAGE_SHIFT for addr in dirtied}
    touched.add(layout.stack_base >> PAGE_SHIFT)
    untouched = set(_zero_mapped_pages(layout)) - touched
    assert not untouched & set(memory.page_numbers())


def test_loader_initial_sp_aligned_below_stack_top():
    image, __, layout = _image()
    loaded = Loader(MainMemory()).load(image)
    assert loaded.initial_sp % 8 == 0
    assert layout.stack_base < loaded.initial_sp < layout.stack_top


def test_layout_randomize_deterministic_with_seed():
    import random

    layout = MemoryLayout()
    one = layout.randomize(random.Random(5))
    two = layout.randomize(random.Random(5))
    assert one.as_dict() == two.as_dict()
    three = layout.randomize(random.Random(6))
    assert one.as_dict() != three.as_dict()
