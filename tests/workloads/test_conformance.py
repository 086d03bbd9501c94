"""Corpus conformance: the tier x backend matrix over every entry.

Every corpus entry must run to the same final state on all three
interpreter tiers and all five debugger backends, with identical stop
sequences where statements are instruction-granular, and — for the
self-checking ``programs/*.s`` workloads — verify its own checksum in
every run.

The shipped programs and two pinned fuzz seeds run in tier-1 (the whole
sweep is a couple of seconds); the benchmarks and a wider generated
sample are the ``slow`` leg.

The matrix pays once for what depends only on the program: each
``check_entry`` builds its entry once and all 18 runs share that
program (which none of them may change), and compiled blocks share
their code objects through a bounded per-process cache.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.compiled import CODE_CACHE_SIZE, _code
from repro.memory.main_memory import PAGE_BYTES, MainMemory
from repro.workloads.conformance import (QUAD, _named_state, check_corpus,
                                         check_entry)
from repro.workloads.corpus import (CorpusEntry, benchmark_corpus,
                                    file_entry, generated_corpus,
                                    programs_corpus)

PROGRAM_NAMES = programs_corpus().names
PINNED_GENERATED = ("gen:1", "gen:7")


def _fields(program) -> list:
    """Every instruction of ``program`` with its fields."""
    return [(inst, inst.opcode, inst.rd, inst.rs1, inst.rs2, inst.imm,
             inst.target, inst.info) for inst in program.instructions]


def _check_shared(name, monkeypatch):
    """``check_entry(name)``, asserting it built one program and that
    the program is, after all 18 runs, exactly as built."""
    built = []
    build = CorpusEntry.build

    def recording_build(entry):
        program = build(entry)
        built.append((program, program.content_digest(), _fields(program)))
        return program

    monkeypatch.setattr(CorpusEntry, "build", recording_build)
    report = check_entry(name)
    [(program, digest, fields)] = built
    assert program.content_digest() == digest
    after = _fields(program)
    assert after == fields
    # Same instruction objects too: no run replaced a slot.
    assert all(a[0] is b[0] for a, b in zip(after, fields))
    return report


# -- tier-1: every shipped program, full matrix ---------------------------------

@pytest.mark.parametrize("name", PROGRAM_NAMES)
def test_program_conforms(name, monkeypatch):
    report = _check_shared(name, monkeypatch)
    assert report.ok, report.describe()
    assert report.runs == 18  # 3 undebugged tiers + 5 backends x 3 tiers
    # A watchpoint on `progress` must observe real change traffic.
    assert report.stop_count > 0


@pytest.mark.parametrize("name", PINNED_GENERATED)
def test_pinned_generated_conforms(name, monkeypatch):
    report = _check_shared(name, monkeypatch)
    assert report.ok, report.describe()
    assert report.runs == 18


def test_benchmark_program_survives_its_matrix(monkeypatch):
    # The binary rewriter and DISE transform copies of the shared
    # program; a benchmark also runs the compiled tier on hot loops.
    report = _check_shared("crafty", monkeypatch)
    assert report.ok, report.describe()
    assert report.runs == 18


def test_code_cache_is_bounded_and_reused():
    def conformance_pass():
        for name in PROGRAM_NAMES:
            assert check_entry(name).ok
            assert _code.cache_info().currsize <= CODE_CACHE_SIZE

    conformance_pass()
    first = _code.cache_info()
    conformance_pass()
    second = _code.cache_info()
    # Every block source of the second pass was compiled by the first.
    assert second.misses == first.misses
    assert second.hits > first.hits
    assert second.maxsize == CODE_CACHE_SIZE


# -- final state: one read per symbol ---------------------------------------------


def _per_quad(program, names, memory) -> tuple:
    """The reference: every quadword read on its own."""
    out = []
    for name in names:
        symbol = program.symbol(name)
        words = max(1, symbol.size // QUAD)
        for i in range(words):
            label = name if words == 1 else f"{name}+{i * QUAD}"
            out.append((label,
                        memory.read_int(symbol.address + i * QUAD, QUAD)))
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(back=st.integers(min_value=1, max_value=6 * QUAD),
       sizes=st.lists(st.integers(min_value=1, max_value=6 * QUAD),
                      min_size=3, max_size=3),
       data=st.binary(min_size=1, max_size=16 * QUAD),
       next_page_written=st.booleans())
def test_named_state_equals_per_quad_reads(back, sizes, data,
                                           next_page_written):
    # Page 3 holds ``data`` up to its end; page 4 is written or not;
    # page 9 is never written.  ``straddle`` starts ``back`` bytes
    # before the boundary of pages 3 and 4.
    memory = MainMemory()
    boundary = 4 * PAGE_BYTES
    memory.write_bytes(boundary - len(data), data)
    if next_page_written:
        memory.write_bytes(boundary, data)
    symbols = {
        "straddle": SimpleNamespace(address=boundary - back, size=sizes[0]),
        "untouched": SimpleNamespace(address=9 * PAGE_BYTES + QUAD,
                                     size=sizes[1]),
        "word": SimpleNamespace(address=boundary - len(data),
                                size=sizes[2])}
    # _named_state reads only ``program.symbol(name)``.
    program = SimpleNamespace(symbol=symbols.__getitem__)
    names = tuple(symbols)
    resident = memory.resident_pages
    assert _named_state(program, names, memory) == \
        _per_quad(program, names, memory)
    assert memory.resident_pages == resident


def test_report_describe_lists_divergences(tmp_path):
    # A workload whose baked-in `expect` is wrong fails its own
    # checksum in every run: the self-check divergence names status
    # and the mismatching values.
    path = tmp_path / "broken.s"
    path.write_text(
        ".data\n"
        "progress: .quad 0\n"
        "checksum: .quad 0\n"
        "expect:   .quad 999\n"
        "status:   .quad 0\n"
        ".text\n"
        "main:\n"
        "    lda   r1, 7(zero)\n"
        "    stq   r1, progress\n"
        "    stq   r1, checksum\n"
        "    ldq   r10, expect\n"
        "    cmpeq r1, r10, r11\n"
        "    stq   r11, status\n"
        "    halt\n")
    entry = file_entry(path)
    assert entry.self_checking
    report = check_entry(entry)
    assert not report.ok
    text = report.describe()
    assert "self-check failed" in text and "status=0" in text
    # Fixing `expect` makes the same workload conform.
    path.write_text(path.read_text().replace("999", "7"))
    report = check_entry(file_entry(path))
    assert report.ok, report.describe()


def test_nonterminating_program_is_a_divergence(tmp_path):
    path = tmp_path / "spin.s"
    path.write_text(".data\nprogress: .quad 0\n.text\n"
                    "main:\n"
                    "    stq r1, progress\n"
                    "    br main\n")
    report = check_entry(file_entry(path))
    assert not report.ok
    assert any(d.kind == "termination" for d in report.divergences)


# -- slow leg: benchmarks and a wider generated sample --------------------------

@pytest.mark.slow
@pytest.mark.parametrize("name", benchmark_corpus().names)
def test_benchmark_conforms(name):
    report = check_entry(name)
    assert report.ok, report.describe()


@pytest.mark.slow
def test_generated_sample_conforms():
    reports = check_corpus(generated_corpus(size=24, seed=100))
    failures = [r.describe() for r in reports if not r.ok]
    assert not failures, "\n".join(failures)
