"""Tests for the Python and C emitters, including backend parity.

The key property: the same IR program produces bit-identical behaviour
on the Python-exec backend and the gcc backend.  Random straight-line
programs are generated and run on both.
"""

import random
import re

import pytest

from repro.codegen.c_emitter import emit_c, render_expr_c
from repro.codegen.program import (
    Assign,
    Bin,
    Comment,
    Const,
    Emit,
    Input,
    Program,
    Un,
    Var,
)
from repro.codegen.python_emitter import emit_python, render_expr_python
from repro.codegen.runtime import compile_program, have_c_compiler
from repro.errors import CodegenError

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)


class TestPythonRendering:
    def test_basic_exprs(self):
        assert render_expr_python(Var("a")) == "a"
        assert render_expr_python(Const(7)) == "7"
        assert render_expr_python(Input(2)) == "V[2]"
        assert render_expr_python(Un("~", Var("a"))) == "~a"
        expr = Bin("|", Var("a"), Bin("<<", Var("b"), Const(1)))
        assert render_expr_python(expr) == "a | (b << 1)"

    def test_masked_unary(self):
        text = render_expr_python(Un("-", Var("a")), masked=True)
        assert text == "(-a) & MASK"

    def test_sar_rendering(self):
        text = render_expr_python(Bin("sar", Var("a"), Const(3)))
        assert text == "((a ^ HBIT) - HBIT) >> 3"

    def test_sar_requires_plain_variable(self):
        with pytest.raises(CodegenError, match="plain variables"):
            render_expr_python(
                Bin("sar", Bin("&", Var("a"), Var("b")), Const(1))
            )

    def test_right_shift_over_lshift_rejected_when_masked(self):
        expr = Bin(">>", Bin("<<", Var("a"), Const(2)), Const(1))
        with pytest.raises(CodegenError, match="leak"):
            render_expr_python(expr, masked=True)
        # Unmasked programs (no left shifts by construction) still render.
        assert render_expr_python(expr) == "(a << 2) >> 1"

    def test_shift_out_of_range_rejected(self):
        p = Program("t", word_width=8)
        p.declare("a")
        p.body.append(Assign("a", Bin("<<", Var("a"), Const(8))))
        with pytest.raises(CodegenError, match="word width"):
            emit_python(p)

    def test_comments_rendered(self):
        p = Program("t")
        p.declare("a")
        p.body.append(Comment("hello"))
        assert "# hello" in emit_python(p)


class TestCRendering:
    def test_basic_exprs(self):
        assert render_expr_c(Var("a"), "uint32_t") == "a"
        assert render_expr_c(Const(7), "uint32_t") == "7U"
        assert render_expr_c(Const(7), "uint64_t") == "7ULL"
        assert render_expr_c(Input(1), "uint32_t") == "V[1]"

    def test_unary_casts(self):
        assert render_expr_c(Un("~", Var("a")), "uint8_t") == "(uint8_t)~a"
        assert (
            render_expr_c(Un("-", Var("a")), "uint32_t")
            == "(uint32_t)(0 - a)"
        )

    def test_sar_uses_signed_type(self):
        text = render_expr_c(Bin("sar", Var("a"), Const(3)), "uint32_t")
        assert text == "(uint32_t)((sword)a >> 3U)"

    def test_emitted_source_structure(self):
        p = Program("t", word_width=32, inputs=["A"])
        p.declare("x", 3)
        p.declare_temp("t0")
        p.init.append(Assign("t0", Input(0)))
        p.body.append(Assign("x", Bin("&", Var("x"), Var("t0"))))
        p.output.append(Emit(Var("x"), ("x",)))
        source = emit_c(p)
        assert "typedef uint32_t word;" in source
        assert "typedef int32_t sword;" in source
        assert "static word S[1] = {3U};" in source
        assert "#define x S[0]" in source
        assert "    word t0;" in source
        assert "    x = x & t0;" in source
        assert "#undef x" in source
        assert "void repro_step(const word *V, word *OUT)" in source
        assert "void repro_dump_state(word *dst)" in source
        assert "void repro_load_state(const word *src)" in source


def _random_program(seed: int, word_width: int) -> Program:
    """A random valid straight-line program over 6 state vars."""
    rng = random.Random(seed)
    p = Program(f"rand{seed}", word_width=word_width,
                inputs=["I0", "I1"], mask_assignments=True)
    names = [f"s{i}" for i in range(6)]
    for i, name in enumerate(names):
        p.declare(name, rng.randrange(1 << word_width))

    def leaf():
        kind = rng.random()
        if kind < 0.6:
            return Var(rng.choice(names))
        if kind < 0.8:
            return Input(rng.randrange(2))
        return Const(rng.randrange(1 << word_width))

    def expr(depth):
        if depth == 0:
            return leaf()
        op = rng.choice(["&", "|", "^", "<<", ">>", "sar", "~", "-"])
        if op in ("~", "-"):
            return Un(op, expr(depth - 1))
        if op == "sar":
            return Bin("sar", Var(rng.choice(names)),
                       Const(rng.randrange(1, word_width)))
        if op in ("<<", ">>"):
            base = expr(depth - 1) if op == "<<" else leaf()
            return Bin(op, base, Const(rng.randrange(word_width)))
        return Bin(op, expr(depth - 1), expr(depth - 1))

    for _ in range(20):
        p.body.append(Assign(rng.choice(names), expr(rng.randrange(3))))
    for name in names:
        p.output.append(Emit(Var(name), (name,)))
    return p


@NEED_CC
@pytest.mark.parametrize("word_width", [8, 32, 64])
@pytest.mark.parametrize("seed", range(5))
def test_backend_parity_on_random_programs(seed, word_width):
    program = _random_program(seed * 31 + word_width, word_width)
    py = compile_program(program, "python")
    cc = compile_program(program, "c")
    rng = random.Random(seed + 1)
    for step in range(10):
        vector = [rng.randrange(1 << word_width) for _ in range(2)]
        assert py.step(vector) == cc.step(vector), (seed, step)
    assert py.dump_state() == cc.dump_state()


@NEED_CC
def test_backend_parity_state_roundtrip():
    program = _random_program(99, 32)
    py = compile_program(program, "python")
    cc = compile_program(program, "c")
    state = [0xDEADBEEF % (1 << 32)] * py.num_state
    py.load_state(state)
    cc.load_state(state)
    assert py.dump_state() == cc.dump_state() == [s & 0xFFFFFFFF for s in state]


#: sha256 of the emitted source, per (program, language), for the
#: 8-bit ripple-carry adder.  The program cache keys on these bytes,
#: so any emitter change that alters them recompiles every cached
#: artifact; update the table only for an intended emitter change.
#: (Last re-pinned when the emitters started keeping only the carried
#: state between passes; the observing copies of the same programs are
#: pinned by ``OBSERVABLE_PYTHON_DIGESTS`` below.)
GOLDEN_DIGESTS = {
    ("zero-lcc", "c"):
        "e89107da8f3090f6dbe39c03bd94970ad12de5226a9feb7a12921d381d3787f9",
    ("zero-lcc", "python"):
        "55c784e878d61b5f12a4ad897e987546bf6a9b4ab29f4f88d2c2dde9c9b8b985",
    ("pcset", "c"):
        "38de106cfa2cc660be62dc68f12a8ec9636903bc1ce8b1d3913b3d3c84209216",
    ("pcset", "python"):
        "f816cf9098d80c1ae53d91e140ed95ff802086eef913b0366fa5bd9d841b0e12",
    ("parallel-best", "c"):
        "3099a187e44b26bb7cc9ab6a86cc061fa85e0c0997a8b31efccd103ba2834be4",
    ("parallel-best", "python"):
        "557d5319429588449c5f43050b44b8d672e6f9dffcb1822c379fffca75cfd3c5",
    ("fault-pcset", "c"):
        "eaf44f23e3a2d8860dcfb680e244af991449607fafc656cbaf8b9a4904032115",
    ("fault-pcset", "python"):
        "1481b5035d073391c92c8712af6138342173519991872940c106b8d68acd3f8d",
}


def _golden_program(name: str) -> Program:
    from repro.faults.simulator import ParallelFaultSimulator
    from repro.harness.runner import build_simulator
    from repro.netlist.generators import ripple_carry_adder

    circuit = ripple_carry_adder(8)
    if name == "fault-pcset":
        faults = ParallelFaultSimulator(circuit)
        return faults._instrumented_program(faults._all_nets)
    return build_simulator(circuit, name).program


@pytest.mark.parametrize("name,language", sorted(GOLDEN_DIGESTS))
def test_emitted_source_matches_golden_digest(name, language):
    import hashlib

    program = _golden_program(name)
    source = (
        program.c_source() if language == "c" else program.python_source()
    )
    digest = hashlib.sha256(source.encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[(name, language)]


#: sha256 of the Python source of the rca8 programs'
#: :meth:`Program.observable` copies.  Keeping every state variable,
#: the observing Python machine is byte-identical to the emission
#: that kept them all before the carried set existed.
OBSERVABLE_PYTHON_DIGESTS = {
    "zero-lcc":
        "a74d95066e14256fafbeed065371a61215a765c5f1ecf06791ec7b88f7a52930",
    "pcset":
        "507de0f3867269176cb60faea6c8b14c4c3ab89d1c2a62e22781ff274a5b4a92",
    "parallel-best":
        "761a0abf1bac06934c246338bad8a072d544e35dbdb8e1e19070d4b22542fa66",
    "fault-pcset":
        "463ec1f688a63655c717e15ab99dfd6d26d1f64afdc055a235ff55b551bbb80d",
}


@pytest.mark.parametrize("name", sorted(OBSERVABLE_PYTHON_DIGESTS))
def test_observable_python_source_matches_golden_digest(name):
    import hashlib

    source = _golden_program(name).observable().python_source()
    digest = hashlib.sha256(source.encode()).hexdigest()
    assert digest == OBSERVABLE_PYTHON_DIGESTS[name]


def _file_scope_words(source: str) -> list[str]:
    """Declarations of ``word`` data outside every function."""
    return [
        line for line in source.splitlines()
        if re.match(r"(static\s+)?word\b", line)
    ]


@pytest.mark.parametrize("name", sorted(OBSERVABLE_PYTHON_DIGESTS))
def test_only_the_carried_array_is_file_scope(name):
    program = _golden_program(name)
    carried = program.carried()
    declared = _file_scope_words(program.c_source())
    assert len(declared) == 1
    assert declared[0].startswith(f"static word S[{max(1, len(carried))}]")
    # The pass reads and writes the carried words in place, and
    # declares every other variable as a local.
    source = program.c_source()
    for k, name_ in enumerate(carried):
        assert f"#define {name_} S[{k}]\n" in source
    locals_ = re.search(r"\n    word ([^;]*);", source)
    declared_locals = set(locals_.group(1).split(", ")) if locals_ else set()
    assert not declared_locals & set(carried)
    assert declared_locals == (
        set(program.state_vars) - set(carried)
    ) | set(program.temp_vars)


@NEED_CC
@pytest.mark.parametrize("name", sorted(OBSERVABLE_PYTHON_DIGESTS))
def test_num_state_export_is_the_carried_count(name):
    program = _golden_program(name)
    with compile_program(program, "c", use_cache=False) as machine:
        assert machine._lib.repro_num_state() == len(program.carried())
        assert machine.num_state == len(program.carried())
    observed = program.observable()
    with compile_program(observed, "c", use_cache=False) as machine:
        assert machine._lib.repro_num_state() == len(program.state_vars)

