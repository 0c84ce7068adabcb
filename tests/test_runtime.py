"""Tests for the execution backends (Machine protocol)."""

import os

import pytest

from repro.codegen.program import Assign, Bin, Const, Emit, Input, Program, Var
from repro.codegen.runtime import (
    CMachine,
    PythonMachine,
    compile_program,
    have_c_compiler,
    program_cache,
    program_fingerprint,
)
from repro.errors import BackendError

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)


def _counter_program() -> Program:
    """x' = x | V[0]; emits x."""
    p = Program("counter", word_width=16, inputs=["IN"])
    p.declare("x", 0)
    p.body.append(Assign("x", Bin("|", Var("x"), Input(0))))
    p.output.append(Emit(Var("x"), ("x",)))
    return p


class TestPythonMachine:
    def test_step_and_outputs(self):
        machine = PythonMachine(_counter_program())
        assert machine.step([0b01]) == [0b01]
        assert machine.step([0b10]) == [0b11]
        assert machine.num_inputs == 1
        assert machine.num_state == 1
        assert machine.output_labels() == [("x",)]

    def test_state_roundtrip(self):
        machine = PythonMachine(_counter_program())
        machine.step([7])
        assert machine.dump_state() == [7]
        machine.load_state([0x1FFFF])  # masked to 16 bits
        assert machine.dump_state() == [0xFFFF]
        assert machine.state_dict() == {"x": 0xFFFF}

    def test_load_state_length_checked(self):
        machine = PythonMachine(_counter_program())
        with pytest.raises(BackendError, match="state has 1"):
            machine.load_state([1, 2])

    def test_source_attached(self):
        machine = PythonMachine(_counter_program())
        assert "def machine():" in machine.source

    def test_inputs_masked_to_word_width(self):
        # Oversized Python ints must behave like the C backend's
        # fixed-width words (ctypes truncates silently).
        machine = PythonMachine(_counter_program())
        assert machine.step([0x1_0002]) == [0x0002]

    def test_step_rejects_wrong_vector_length(self):
        machine = PythonMachine(_counter_program())
        with pytest.raises(BackendError, match="expected 1"):
            machine.step([1, 2])

    def test_step_many_matches_step_loop(self):
        batched = PythonMachine(_counter_program())
        scalar = PythonMachine(_counter_program())
        vectors = [[1], [4], [2], [8]]
        expected = [scalar.step(v) for v in vectors]
        assert batched.step_many(vectors) == expected
        assert batched.dump_state() == scalar.dump_state()

    def test_run_block_flat_buffer_and_discard(self):
        machine = PythonMachine(_counter_program())
        out: list = []
        assert machine.run_block([[1], [2]], out) is out
        assert out == [1, 3]
        # out=None discards but still advances state.
        assert machine.run_block([[4]]) is None
        assert machine.dump_state() == [7]

    def test_counters_accumulate(self):
        machine = PythonMachine(_counter_program())
        assert machine.counters.batches == 0
        machine.step_many([[1], [2], [4]])
        machine.run_block([[8]])
        assert machine.counters.batches == 2
        assert machine.counters.vectors == 4
        assert machine.counters.seconds > 0
        assert machine.counters.vectors_per_second > 0
        machine.counters.reset()
        assert machine.counters.as_dict()["vectors"] == 0


@NEED_CC
class TestCMachine:
    def test_step_and_state(self):
        machine = CMachine(_counter_program())
        assert machine.step([5]) == [5]
        assert machine.dump_state() == [5]
        machine.load_state([0])
        assert machine.step([2]) == [2]
        machine.cleanup()

    def test_step_many(self):
        machine = CMachine(_counter_program())
        outs = machine.step_many([[1], [2], [4]])
        assert outs == [[1], [3], [7]]
        assert machine.dump_state() == [7]

    def test_run_block_collects_or_discards(self):
        machine = CMachine(_counter_program())
        out: list = []
        machine.run_block([[1], [2]], out)
        assert out == [1, 3]
        machine.run_block([[4]])  # discarded, state still advances
        assert machine.dump_state() == [7]
        assert machine.counters.vectors == 3

    def test_pack_block_rejects_ragged_vectors(self):
        # Regression: a short vector used to shift every later vector
        # into the wrong slot (pos ran backwards); a long one overran
        # into the next vector's words.
        machine = CMachine(_counter_program())
        with pytest.raises(BackendError, match="vector 1"):
            machine.pack_block([[1], [1, 2]])
        with pytest.raises(BackendError, match="vector 0"):
            machine.pack_block([[], [1]])

    def test_context_manager_removes_workdir(self):
        with CMachine(_counter_program()) as machine:
            work_dir = machine._dir
            assert os.path.isdir(work_dir)
            assert machine.step([1]) == [1]
        assert not os.path.exists(work_dir)

    def test_cleanup_removes_tool_created_dir(self):
        machine = CMachine(_counter_program())
        work_dir = machine._dir
        machine.cleanup()
        machine.cleanup()  # idempotent
        assert not os.path.exists(work_dir)

    def test_cleanup_keeps_caller_dir(self, tmp_path):
        machine = CMachine(_counter_program(), work_dir=str(tmp_path))
        machine.cleanup()
        assert tmp_path.is_dir()  # caller-owned directory survives
        assert not list(tmp_path.glob("*.so"))

    def test_del_cleans_up(self):
        machine = CMachine(_counter_program())
        work_dir = machine._dir
        del machine
        import gc

        gc.collect()
        assert not os.path.exists(work_dir)

    def test_compile_failure_reported(self, monkeypatch):
        program = _counter_program()
        # Sabotage the source through a bogus variable name that only
        # the C compiler rejects.
        program.state_vars.append("1bad")
        program.state_init["1bad"] = 0
        with pytest.raises(BackendError, match="compilation failed"):
            CMachine(program)

    def test_hung_compile_times_out(self, monkeypatch, tmp_path):
        import time

        from repro.codegen import runtime

        # A compiler that hangs only when asked to link: the link step
        # is what CMachine runs, while any compile-only probe still
        # reaches the real compiler.
        real_cc = have_c_compiler()
        fake_cc = tmp_path / "hung-cc"
        fake_cc.write_text(
            "#!/bin/sh\n"
            'for arg in "$@"; do\n'
            '  if [ "$arg" = "-shared" ]; then\n'
            '    echo "linking forever" >&2\n'
            "    sleep 60\n"
            "    exit 0\n"
            "  fi\n"
            "done\n"
            f'exec "{real_cc}" "$@"\n'
        )
        fake_cc.chmod(0o755)
        work_dir = tmp_path / "work"
        work_dir.mkdir()
        monkeypatch.setattr(runtime, "COMPILE_TIMEOUT_S", 0.5)
        monkeypatch.setenv("CC", str(fake_cc))
        try:
            assert have_c_compiler(force=True) == str(fake_cc)
            start = time.monotonic()
            with pytest.raises(BackendError) as info:
                CMachine(
                    _counter_program(), work_dir=str(work_dir),
                    use_cache=False,
                )
            assert time.monotonic() - start < 30
            message = str(info.value)
            assert "timed out after 0.5 s" in message
            assert str(fake_cc) in message and "-shared" in message
            assert "linking forever" in message
            assert not list(work_dir.iterdir())
        finally:
            monkeypatch.undo()
            have_c_compiler(force=True)

    def test_keep_artifacts(self, tmp_path):
        machine = CMachine(
            _counter_program(), keep_artifacts=True,
            work_dir=str(tmp_path),
        )
        machine.cleanup()
        assert list(tmp_path.glob("*.c"))
        assert list(tmp_path.glob("*.so"))

    def test_load_state_length_checked(self):
        machine = CMachine(_counter_program())
        with pytest.raises(BackendError):
            machine.load_state([])


class TestCompileProgram:
    def test_backend_selection(self):
        assert isinstance(
            compile_program(_counter_program(), "python"), PythonMachine
        )
        with pytest.raises(BackendError, match="unknown backend"):
            compile_program(_counter_program(), "fortran")

    @NEED_CC
    def test_c_selection(self):
        assert isinstance(
            compile_program(_counter_program(), "c"), CMachine
        )

    def test_have_c_compiler_cached(self):
        first = have_c_compiler()
        assert have_c_compiler() == first

    def test_have_c_compiler_force_reprobes(self, monkeypatch):
        import shutil as _shutil

        try:
            # With every candidate unresolvable the reprobe must
            # return None even though a positive result was cached ...
            monkeypatch.setattr(_shutil, "which", lambda name: None)
            assert have_c_compiler(force=True) is None
            # ... and without force, the (now negative) cache sticks.
            monkeypatch.undo()
            assert have_c_compiler() is None
        finally:
            have_c_compiler(force=True)  # restore the real probe


class TestProgramCache:
    def test_python_code_object_reused(self):
        program = _counter_program()
        fingerprint = program_fingerprint(program.python_source())
        key = (fingerprint, "python", "")
        cache = program_cache()
        a = PythonMachine(program)
        hits = cache.hits
        b = PythonMachine(_counter_program())
        assert cache.hits == hits + 1
        assert cache.get(key) is not None
        # Cached code, independent coroutine state.
        assert a.step([1]) == [1]
        assert b.step([2]) == [2]
        assert a.dump_state() == [1]
        assert b.dump_state() == [2]

    def test_use_cache_false_bypasses(self):
        cache = program_cache()
        before = (cache.hits, cache.misses)
        PythonMachine(_counter_program(), use_cache=False)
        assert (cache.hits, cache.misses) == before

    @NEED_CC
    def test_c_artifact_reused_with_private_state(self):
        cache = program_cache()
        with CMachine(_counter_program()) as first:
            hits = cache.hits
            with CMachine(_counter_program()) as second:
                assert cache.hits == hits + 1  # .so reused, not rebuilt
                # Static state must NOT be shared between instances.
                assert first.step([5]) == [5]
                assert second.dump_state() == [0]
                assert second.step([2]) == [2]
                assert first.dump_state() == [5]

    def test_lru_eviction_and_stats(self):
        from repro.codegen.runtime import ProgramCache

        cache = ProgramCache(capacity=2)
        cache.put(("a", "python", ""), object())
        cache.put(("b", "python", ""), object())
        assert cache.get(("a", "python", "")) is not None
        cache.put(("c", "python", ""), object())  # evicts "b" (LRU)
        assert cache.get(("b", "python", "")) is None
        assert cache.get(("a", "python", "")) is not None
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["entries"] == 2
        cache.clear()
        assert len(cache) == 0

    def test_put_replacement_discards_replaced_artifacts(self, tmp_path):
        # Regression: re-inserting an existing key overwrote the entry
        # without discarding the old one — the replaced C artifact pair
        # leaked on disk until process exit.
        from repro.codegen.runtime import ProgramCache

        cache = ProgramCache()
        key = ("fp", "c", "-O1")

        def pair(tag):
            c_path = tmp_path / f"{tag}.c"
            so_path = tmp_path / f"{tag}.so"
            c_path.write_text("/* c */")
            so_path.write_text("elf")
            return (str(c_path), str(so_path))

        first = pair("a")
        cache.put(key, first)
        second = pair("b")
        cache.put(key, second)
        assert not os.path.exists(first[0])
        assert not os.path.exists(first[1])
        assert os.path.exists(second[0]) and os.path.exists(second[1])
        # Re-inserting the *same* paths must not unlink the entry.
        cache.put(key, tuple(second))
        assert os.path.exists(second[0]) and os.path.exists(second[1])
        assert len(cache) == 1

    def test_artifact_dir_recreated_in_place_registered_once(self):
        # Regression: every recreation after an external wipe used to
        # register a fresh atexit handler; now the same path is
        # recreated and registered exactly once.
        import shutil as _shutil

        from repro.codegen.runtime import ProgramCache

        cache = ProgramCache()
        first = cache.artifact_dir()
        assert cache.artifact_dir() == first  # stable while it exists
        _shutil.rmtree(first)
        second = cache.artifact_dir()
        assert second == first
        assert os.path.isdir(second)
        assert cache._registered_dirs == {first}
        _shutil.rmtree(first, ignore_errors=True)


class TestProgramCacheForkSafety:
    def test_atexit_handler_guarded_by_owner_pid(self, tmp_path):
        # The registered remover must be a no-op in any process other
        # than the one that created the directory (atexit tables are
        # inherited across fork).
        from repro.codegen.runtime import _remove_cache_dir

        target = tmp_path / "cache_dir"
        target.mkdir()
        _remove_cache_dir(str(target), os.getpid() + 1)  # "forked child"
        assert target.is_dir()
        _remove_cache_dir(str(target), os.getpid())  # the owner
        assert not target.exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_fork_resets_child_cache_and_preserves_parent(self):
        # Round-trip: the forked child must see a cold, detached cache
        # (fresh dir, no entries, zeroed counters) and its exit must
        # leave the parent's directory and entries untouched.
        from repro.codegen.runtime import ProgramCache, _remove_cache_dir

        cache = ProgramCache()
        cache.put(("k", "python", ""), object())
        cache.get(("k", "python", ""))
        parent_dir = cache.artifact_dir()
        parent_pid = os.getpid()
        marker = os.path.join(parent_dir, "artifact.so")
        with open(marker, "w") as handle:
            handle.write("parent artifact")

        child = os.fork()
        if child == 0:
            # In the child: assert with os._exit codes (no pytest).
            try:
                ok = (
                    len(cache) == 0
                    and cache.hits == 0
                    and cache.misses == 0
                    and cache._dir is None
                    and not cache._registered_dirs
                )
                # The inherited atexit handler must not fire here.
                _remove_cache_dir(parent_dir, parent_pid)
                ok = ok and os.path.exists(marker)
                # A child-side miss lazily creates a *different* dir.
                child_dir = cache.artifact_dir()
                ok = ok and child_dir != parent_dir
                if os.path.isdir(child_dir):
                    import shutil as _shutil

                    _shutil.rmtree(child_dir, ignore_errors=True)
                os._exit(0 if ok else 1)
            except BaseException:
                os._exit(2)
        _pid, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # Parent state untouched by the child's lifecycle.
        assert os.path.exists(marker)
        assert len(cache) == 1
        assert cache.get(("k", "python", "")) is not None
        import shutil as _shutil

        _shutil.rmtree(parent_dir, ignore_errors=True)


def test_opt_level_auto_downgrade():
    from repro.codegen.program import Assign, Bin, Program, Var

    small = _counter_program()
    assert CMachine(small).opt_level == "-O1"
    # A synthetic program over the line threshold drops to -O0.
    big = Program("big", word_width=32, inputs=["IN"])
    big.declare("x")
    for _ in range(CMachine.O0_LINE_THRESHOLD + 1):
        big.body.append(Assign("x", Bin("&", Var("x"), Var("x"))))
    machine = CMachine(big)
    assert machine.opt_level == "-O0"
    machine.cleanup()


#: Loads a generated library with plain ctypes, sizes its buffers from
#: the library's own ``num_outputs``/``num_state`` exports, runs one
#: batch through its exported ``run_block`` and dumps the state; prints
#: both as JSON.  It runs in a child process, so a crash inside the
#: library fails the test instead of killing the test run.
_STANDALONE_LOADER = r"""
import ctypes, json, sys

spec = json.loads(sys.argv[1])
word = {8: ctypes.c_uint8, 16: ctypes.c_uint16, 32: ctypes.c_uint32,
        64: ctypes.c_uint64}[spec["word_width"]]
lib = ctypes.CDLL(spec["library"])
symbol = spec["symbols"]
rows = spec["rows"]
count = len(rows)
vectors = (word * sum(map(len, rows)))(
    *[value for row in rows for value in row]
)
out = (word * (count * lib[symbol["num_outputs"]]()))()
state = (word * lib[symbol["num_state"]]())()
lib[symbol["run_block"]](vectors, ctypes.c_long(count), out)
lib[symbol["dump_state"]](state)
print(json.dumps({"out": list(out), "state": list(state)}))
"""


@NEED_CC
@pytest.mark.parametrize("technique", ["zero-lcc", "pcset"])
def test_standalone_artifact_matches_in_process(tmp_path, technique):
    """``repro-sim compile -l c`` output runs when built on its own.

    The library is built with nothing but ``cc -O1 -shared -fPIC`` — no
    linker options — and must then compute exactly what the
    in-process machine compiled from the same program does.
    """
    import json
    import subprocess
    import sys

    from repro.cli import main, resolve_circuit
    from repro.codegen.program import C_SYMBOL_PREFIX, ENTRY_POINTS
    from repro.harness.runner import build_simulator
    from repro.harness.vectors import vectors_for

    source = tmp_path / "machine.c"
    library = tmp_path / "machine.so"
    assert main([
        "compile", "rca8", "-t", technique, "-l", "c",
        "-o", str(source),
    ]) == 0
    subprocess.run(
        [have_c_compiler(), "-O1", "-shared", "-fPIC", str(source),
         "-o", str(library)],
        check=True, capture_output=True, timeout=120,
    )
    circuit = resolve_circuit("rca8")
    program = build_simulator(circuit, technique, word_width=32).program
    rows = vectors_for(circuit, 24, seed=5)
    symbols = {ep.name: ep.c_symbol for ep in ENTRY_POINTS}
    for query in ("num_outputs", "num_state"):
        symbols[query] = C_SYMBOL_PREFIX + query
    with compile_program(program, "c", use_cache=False) as machine:
        out = []
        machine.run_block(rows, out)
        state = machine.dump_state()
        spec = {
            "library": str(library),
            "word_width": program.word_width,
            "rows": rows,
            "symbols": symbols,
        }
    child = subprocess.run(
        [sys.executable, "-c", _STANDALONE_LOADER, json.dumps(spec)],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, (child.returncode, child.stderr)
    # The state both sides dump is the carried set alone.
    assert len(state) == len(program.carried())
    assert json.loads(child.stdout) == {"out": out, "state": state}
