"""The generative attack corpus: determinism, physics, hardening fixes."""

import hashlib
import json

import pytest

from repro.memory.mainmem import PAGE_SHIFT, MainMemory
from repro.program.layout import MemoryLayout
from repro.program.loader import Loader
from repro.security import attackgen
from repro.security.attackgen import (
    ATTACK_CLASSES,
    AttackOutcome,
    generate_variant,
    parse_config,
    run_variant,
)
from repro.security.coverage import DEFAULT_CONFIGS
from repro.system import build_machine
from repro.workloads.asmlib import build_workload_image


def _image_bytes(image):
    return b"".join(bytes(segment.data) for segment in image.segments)


# ------------------------------------------------------------ determinism

@pytest.mark.parametrize("attack_class", ATTACK_CLASSES)
def test_same_seed_same_program(attack_class):
    """Satellite: one seed -> byte-identical attack program."""
    first = generate_variant(attack_class, 123, config="trr")
    second = generate_variant(attack_class, 123, config="trr")
    assert first.source == second.source
    assert _image_bytes(first.image) == _image_bytes(second.image)
    assert first.meta == second.meta


def test_different_seeds_differ():
    sources = {generate_variant("stack-smash", seed).source
               for seed in range(8)}
    assert len(sources) > 1


def test_payload_geometry_is_config_independent():
    """The same seed must face every module row with the same payload
    (that is what makes matrix columns comparable)."""
    none = generate_variant("stack-smash", 55, config="none")
    icm = generate_variant("stack-smash", 55, config="icm")
    assert none.meta == icm.meta
    assert none.source == icm.source


def test_parse_config_validates():
    assert parse_config("none") == ()
    assert parse_config("mlr+icm") == ("mlr", "icm")
    with pytest.raises(ValueError):
        parse_config("mlr+nope")
    with pytest.raises(ValueError):
        parse_config("mlr+mlr")
    with pytest.raises(ValueError):
        generate_variant("no-such-class", 1)


# ----------------------------------------------------- per-class physics

@pytest.mark.parametrize("seed", [2, 9])
def test_stack_smash_rows(seed):
    variant = generate_variant("stack-smash", seed)
    assert run_variant(variant).outcome is AttackOutcome.HIJACKED
    trr = generate_variant("stack-smash", seed, config="trr")
    assert run_variant(trr).outcome is AttackOutcome.CRASHED
    mlr = generate_variant("stack-smash", seed, config="mlr")
    assert run_variant(mlr).outcome is AttackOutcome.CRASHED
    cfc = generate_variant("stack-smash", seed, config="cfc")
    assert run_variant(cfc).outcome is AttackOutcome.DETECTED


@pytest.mark.parametrize("seed", [2, 9])
def test_got_hijack_rows(seed):
    variant = generate_variant("got-hijack", seed)
    assert run_variant(variant).outcome is AttackOutcome.HIJACKED
    mlr = generate_variant("got-hijack", seed, config="mlr")
    assert run_variant(mlr).outcome is AttackOutcome.FOILED
    cfc = generate_variant("got-hijack", seed, config="cfc")
    assert run_variant(cfc).outcome is AttackOutcome.DETECTED


def test_smc_patch_rows():
    variant = generate_variant("smc-patch", 4)
    assert run_variant(variant).outcome is AttackOutcome.HIJACKED
    # Layout randomization cannot stop code patching ...
    mlr = generate_variant("smc-patch", 4, config="mlr")
    assert run_variant(mlr).outcome is AttackOutcome.HIJACKED
    # ... but instruction checking sees the word mismatch at fetch.
    icm = generate_variant("smc-patch", 4, config="icm")
    run = run_variant(icm)
    assert run.outcome is AttackOutcome.DETECTED
    assert run.reason == "check_error"


def test_thread_smash_rows():
    variant = generate_variant("thread-smash", 4)
    assert run_variant(variant).outcome is AttackOutcome.HIJACKED
    trr = generate_variant("thread-smash", 4, config="trr")
    assert run_variant(trr).outcome is AttackOutcome.CRASHED
    mlr = generate_variant("thread-smash", 4, config="mlr")
    assert run_variant(mlr).outcome is AttackOutcome.FOILED


def test_race_got_schedule_dependent_but_never_unclassified():
    outcomes = {run_variant(generate_variant("race-got", seed)).outcome
                for seed in range(12)}
    assert AttackOutcome.UNCLASSIFIED not in outcomes
    assert outcomes <= {AttackOutcome.HIJACKED, AttackOutcome.FOILED}
    assert len(outcomes) == 2          # the race is a real race


def test_cfc_detects_exactly_the_race_wins():
    for seed in range(12):
        bare = run_variant(generate_variant("race-got", seed))
        cfc = run_variant(generate_variant("race-got", seed, config="cfc"))
        if bare.outcome is AttackOutcome.HIJACKED:
            assert cfc.outcome is AttackOutcome.DETECTED
        else:
            assert cfc.outcome is AttackOutcome.FOILED


# ---------------------------------------------------- payload hardening

#: A 96-byte frame with the buffer at +16 and $ra at +92: 19 words.
GEOMETRY = {"regs": (8, 9), "room_words": 19, "sled": 0, "entry": 0,
            "tail": 0}


def test_payload_overflow_raises_with_sizes(monkeypatch):
    """An over-long shellcode must fail loudly, not silently truncate
    the payload into garbage (``[0] * negative`` pads with nothing)."""
    room = GEOMETRY["room_words"]
    monkeypatch.setattr(attackgen, "shellcode_words",
                        lambda flag_addr, rt0, rt1: [0] * (room + 1))
    with pytest.raises(ValueError) as err:
        attackgen._stack_payload(GEOMETRY, 0x10000000, 96, 16)
    message = str(err.value)
    assert str(room + 1) in message and str(room) in message


def test_boundary_shellcode_still_fits(monkeypatch):
    """Exactly filling the room up to the saved $ra is legal."""
    room = GEOMETRY["room_words"]
    monkeypatch.setattr(attackgen, "shellcode_words",
                        lambda flag_addr, rt0, rt1: [0] * room)
    payload, __ = attackgen._stack_payload(GEOMETRY, 0x10000000, 96, 16)
    assert len(payload) == room + 1    # room + return address


def test_make_stack_executable_covers_late_mappings():
    """Satellite: the rwx model must cover the whole stack range no
    matter the mapping order, and pages mapped *after* the flip (MLR's
    relocated stack arrives via SYS_MMAP mid-run) must still come up
    executable."""
    machine = build_machine()
    layout = MemoryLayout()
    image, __ = build_workload_image("main:\n    halt\n", layout)
    machine.kernel.load_process(image)
    attackgen._make_stack_executable(machine.kernel, layout)
    perms = machine.kernel.page_perms
    first = layout.stack_base >> PAGE_SHIFT
    last = (layout.stack_top - 1) >> PAGE_SHIFT
    assert perms[first] == "rwx" and perms[last] == "rwx"
    # a page the loader never touched, mapped later as rw:
    late = 0x50000000
    machine.kernel._map_range(late, 4096, "rw")
    assert perms[late >> PAGE_SHIFT] == "rwx"


def test_loader_stack_perms_unaffected_elsewhere():
    memory = MainMemory()
    layout = MemoryLayout()
    image, __ = build_workload_image("main:\n    halt\n", layout)
    process = Loader(memory).load(image)
    assert all(p == "rw" for page, p in process.page_perms.items()
               if layout.stack_base <= (page << PAGE_SHIFT)
               < layout.stack_top)


# ---------------------------------------------------------- corpus pin

def _framed(digest, *parts):
    """Feed each part with its length, so no two splits hash alike."""
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)


def _assembly_parts(asm):
    return (bytes(asm.text), bytes(asm.data),
            json.dumps(sorted(asm.symbols.items())), str(asm.entry))


#: SHA-256 of every variant below; a changed generator, template or
#: assembler shows up here before it shows up in a matrix.
CORPUS_DIGEST = ("8ac6b737d7437452a415e9db8375efbd"
                 "224c4499c260165974e3d22b24480e4a")


def test_attack_corpus_is_pinned_and_source_matches_image():
    """Every class x config at seeds 0-9: the rendered source, the
    assembled bytes, symbols, entry and meta hash to one pinned value,
    and the source assembles against its layout to exactly the baked
    assembly, so the image and the source can never disagree."""
    digest = hashlib.sha256()
    for attack_class in ATTACK_CLASSES:
        for config in DEFAULT_CONFIGS:
            for seed in range(10):
                variant = generate_variant(attack_class, seed, config=config)
                asm = variant.asm
                _framed(digest, variant.source, *_assembly_parts(asm),
                        json.dumps(variant.meta, sort_keys=True))
                __, again = build_workload_image(variant.source,
                                                 variant.layout)
                assert _assembly_parts(again) == _assembly_parts(asm), (
                    attack_class, config, seed)
    assert digest.hexdigest() == CORPUS_DIGEST
