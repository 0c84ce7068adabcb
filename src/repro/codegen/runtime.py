"""Compile and execute generated programs.

Two backends share the :class:`Machine` interface:

- :class:`PythonMachine` — ``compile()``/``exec`` of the generated
  Python coroutine.  Always available; this is what the test suite and
  the default benchmarks use.
- :class:`CMachine` — writes the generated C, compiles it with the
  system C compiler into a shared library, and calls it through
  ``ctypes``.  This restores the genuinely compiled character of the
  original work; use it for absolute performance numbers.

``compile_program(program, backend=...)`` picks one.

Batched execution
-----------------
Both machines expose the same batch entry points, mirroring the
generated ``run_block`` routine each backend compiles in:

- ``run_block(vectors, out=None)`` drives the whole batch from inside
  the generated code (the C library's compiled loop, or the Python
  coroutine's in-frame loop); emitted words are appended flat to the
  caller-supplied list ``out``, or discarded when ``out`` is ``None``
  (the timing fast path).
- ``step_many(vectors)`` returns per-vector output lists, bit-identical
  to an equivalent per-vector ``step()`` loop.
- ``run_packed_block(groups, out=None)`` drives *pattern-packed*
  passes — per-input lane words carrying up to ``word_width`` scalar
  vectors each, as a :class:`~repro.codegen.packing.PatternBlock` or
  a list of rows — through the same generated ``run_block`` loop.
  Row words are validated against the word width up front (silent
  ctypes truncation would corrupt whole lanes, not just one vector); a
  block's words fit by construction and reach the C library without a
  copy.

Every batch updates ``machine.counters`` (vectors run, wall time,
vectors/second) so harness and benchmark reports can quote throughput
without re-instrumenting call sites.  Packed batches record the number
of *scalar vectors represented*, not passes, so ``vectors_per_second``
states true pattern throughput.

Program cache
-------------
Repeated harness/benchmark runs rebuild identical programs; the
module-level :class:`ProgramCache` memoizes the expensive compilation
step keyed by ``(program fingerprint, backend, opt_level)``.  The
fingerprint is a hash of the generated source, so any change to the
program invalidates the entry.  Python entries cache the ``compile()``d
code object; C entries cache the built artifacts, and every cache hit
*copies* the shared library to a fresh path before ``dlopen`` — the
dynamic loader dedupes loaded objects by inode, and a shared handle
would alias the per-machine static state.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import re
import shutil
import signal
import subprocess
import tempfile
import time
import uuid
import weakref
from array import array
from collections import OrderedDict
from typing import Optional, Sequence

from repro import telemetry
from repro.codegen.packing import PatternBlock, validate_packed_words
from repro.codegen.program import Program
from repro.errors import BackendError

__all__ = [
    "Machine",
    "PythonMachine",
    "CMachine",
    "BatchCounters",
    "ProgramCache",
    "program_cache",
    "clear_program_cache",
    "program_fingerprint",
    "cache_fingerprint",
    "compile_program",
    "have_c_compiler",
]

_C_COMPILER: Optional[str] = None
_C_COMPILER_PROBED = False

#: Wall-clock bound, in seconds, on one C compile.  The slowest compile
#: measured (full-scale c6288 parallel-trim at -O1) takes about 51 s;
#: a compiler still running after ten times that is taken to be hung.
COMPILE_TIMEOUT_S = 600.0

def have_c_compiler(force: bool = False) -> Optional[str]:
    """Path of a usable C compiler, or ``None``.

    Checks ``$CC`` then ``cc`` then ``gcc`` then ``clang``; probes once
    and caches.  Pass ``force=True`` to reprobe — needed when ``$CC``
    changes after the first call (test fixtures and CI matrix jobs do
    this), since the cached negative would otherwise stick forever.
    """
    global _C_COMPILER, _C_COMPILER_PROBED
    if _C_COMPILER_PROBED and not force:
        return _C_COMPILER
    _C_COMPILER_PROBED = True
    _C_COMPILER = None
    candidates = [os.environ.get("CC"), "cc", "gcc", "clang"]
    for candidate in candidates:
        if not candidate:
            continue
        path = shutil.which(candidate)
        if path:
            _C_COMPILER = path
            return path
    return None


def program_fingerprint(source: str) -> str:
    """Content hash of a generated source text (the cache key core)."""
    return hashlib.sha256(source.encode()).hexdigest()


def cache_fingerprint(program: "Program", source: str) -> str:
    """The fingerprint half of a program-cache key.

    Programs carrying a semantic ``content_key`` (e.g. per-fanin-cone
    hashes from :mod:`repro.codegen.incremental`) are keyed on it
    directly — the key already determines the source, so hashing the
    text again would only slow the hit path (the backend name and opt
    level are separate key components).  Probe-instrumented programs
    carry a ``probe_key`` (set by :mod:`repro.codegen.probes`); it
    qualifies the key, so an instrumented program never aliases its
    uninstrumented twin — and a probes-off program keeps its
    historical fingerprint exactly.
    """
    key = getattr(program, "content_key", None)
    if key is None:
        key = program_fingerprint(source)
    probe_key = getattr(program, "probe_key", None)
    if probe_key is not None:
        key = f"{key}-p{probe_key}"
    return key


class BatchCounters:
    """Running totals of batched execution on one machine.

    Updated by every ``run_block``/``step_many`` call; benchmark and
    harness reports read ``vectors_per_second`` instead of timing the
    call sites themselves.
    """

    __slots__ = ("batches", "vectors", "seconds")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.batches = 0
        self.vectors = 0
        self.seconds = 0.0

    def record(self, vectors: int, seconds: float) -> None:
        self.batches += 1
        self.vectors += vectors
        self.seconds += seconds

    @property
    def vectors_per_second(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.vectors / self.seconds

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "vectors": self.vectors,
            "seconds": self.seconds,
            "vectors_per_second": self.vectors_per_second,
        }

    def __repr__(self) -> str:
        return (
            f"BatchCounters({self.vectors} vectors in {self.batches} "
            f"batches, {self.seconds:.4f}s, "
            f"{self.vectors_per_second:.0f} vec/s)"
        )


def _remove_cache_dir(path: str, owner_pid: int) -> None:
    """``atexit`` hook for a cache directory — creator-process only.

    ``atexit`` registrations are inherited across ``fork``; without the
    pid guard a forked worker exiting would delete the *parent's*
    cached ``.so``/``.c`` artifacts out from under it.
    """
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)


#: Every live cache, so the fork hook can reset inherited state in the
#: child (weak: short-lived test caches must stay collectable).
_FORK_AWARE_CACHES: "weakref.WeakSet[ProgramCache]" = weakref.WeakSet()


def _reset_caches_after_fork() -> None:
    for cache in list(_FORK_AWARE_CACHES):
        cache._forget_inherited()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_caches_after_fork)


class ProgramCache:
    """LRU cache of compiled artifacts keyed by program content.

    Keys are ``(fingerprint, backend, opt_level)``.  Python entries are
    code objects (each machine still ``exec``s its own namespace, so
    machines never share state).  C entries are ``(c_path, so_path)``
    pairs living in a cache-owned directory; machines copy the library
    out before loading it, so each instance gets private statics.

    The cache is *fork-safe*: an ``os.register_at_fork`` hook drops the
    child's inherited entries, directory and counters (the artifacts on
    disk belong to the parent), and the directory's ``atexit`` removal
    handler — registered at most once per directory — only fires in the
    process that created it.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._dir: Optional[str] = None
        self._registered_dirs: set[str] = set()
        _FORK_AWARE_CACHES.add(self)

    # ------------------------------------------------------------------
    def artifact_dir(self) -> str:
        """The cache-owned directory for C artifacts (lazily created)."""
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro_cache_")
        elif not os.path.isdir(self._dir):
            # Recreate the *same* path after an external wipe so the
            # already-registered atexit handler keeps covering it.
            os.makedirs(self._dir, exist_ok=True)
        if self._dir not in self._registered_dirs:
            self._registered_dirs.add(self._dir)
            atexit.register(_remove_cache_dir, self._dir, os.getpid())
        return self._dir

    def _forget_inherited(self) -> None:
        """Reset state inherited across ``fork``.

        The entries, the artifact directory and the hit/miss history
        all belong to the parent; the child starts cold and lazily
        creates its own directory on first miss.  Nothing is discarded
        from disk — that would destroy the parent's artifacts.
        """
        self._entries.clear()
        self._dir = None
        self._registered_dirs.clear()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, entry) -> None:
        prior = self._entries.get(key)
        if prior is not None and prior != entry:
            # Re-inserting a key must not leak the replaced C artifact
            # pair on disk (equal paths are kept — they are the entry).
            self._discard(prior)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            _key, evicted = self._entries.popitem(last=False)
            self._discard(evicted)

    def _discard(self, entry) -> None:
        if isinstance(entry, tuple):
            for path in entry:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def clear(self) -> None:
        for entry in self._entries.values():
            self._discard(entry)
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }

    def __len__(self) -> int:
        return len(self._entries)


_PROGRAM_CACHE = ProgramCache()


def program_cache() -> ProgramCache:
    """The process-wide compiled-program cache."""
    return _PROGRAM_CACHE


def clear_program_cache() -> None:
    """Drop every cached artifact (mainly for tests)."""
    _PROGRAM_CACHE.clear()


class Machine:
    """A compiled straight-line simulation program, ready to run.

    ``step(V)`` runs one vector (``V`` is a sequence of input words in
    the program's input order) and returns the emitted output words.
    ``step_many(VS)``/``run_block(VS, out)`` run whole batches with the
    vector loop inside the generated code (see the module docstring).
    ``dump_state()``/``load_state()`` expose the persistent variables in
    declaration order — this is how simulators seed the previous-vector
    steady state.

    Machines are context managers: ``with compile_program(...) as m:``
    guarantees backend artifacts are cleaned up (a no-op on the Python
    backend).
    """

    program: Program
    #: Words per net: always one.  The end-to-end benchmark records it
    #: in its plan, so it stays readable.
    tiles = 1

    def __init__(self, program: Program) -> None:
        self.program = program
        self.interface = program.interface()
        self.counters = BatchCounters()

    def _record_batch(self, vectors: int, seconds: float) -> None:
        """One hook behind every batch: counters + the ``run`` phase.

        The duration is measured once by the caller; telemetry reuses
        it (``record_phase``) instead of wrapping a second timer, so
        the disabled path costs a single flag check.
        """
        self.counters.record(vectors, seconds)
        if telemetry.enabled():
            telemetry.record_phase("run", seconds)
            telemetry.counter("run.batches")
            telemetry.counter("run.vectors", vectors)

    @property
    def num_inputs(self) -> int:
        return self.interface.vector_words

    @property
    def num_state(self) -> int:
        return self.interface.state_words

    @property
    def num_outputs(self) -> int:
        return self.interface.output_words

    def output_labels(self) -> list[tuple]:
        return self.interface.output_labels()

    def step(self, vector: Sequence[int]) -> list[int]:
        raise NotImplementedError

    def run_block(
        self,
        vectors: Sequence[Sequence[int]],
        out: Optional[list[int]] = None,
        *,
        masked: bool = False,
    ) -> Optional[list[int]]:
        """Run a batch inside the generated code.

        Emitted words are appended flat (vector order) to ``out``;
        ``out=None`` discards them — the timing fast path.  ``masked``
        promises the vectors are already word-masked lists of the right
        length (the simulator layer marshals once, outside any timed
        region) and skips re-validation.
        """
        raise NotImplementedError

    def run_packed_block(
        self,
        groups: Sequence[Sequence[int]],
        out: Optional[list[int]] = None,
        *,
        vectors_represented: Optional[int] = None,
    ) -> Optional[list[int]]:
        """Run pattern-packed groups inside the generated code.

        ``groups`` is a :class:`~repro.codegen.packing.PatternBlock`
        laid out for this machine, or a list of pass rows of
        ``num_inputs`` lane words each (bit ``j`` of word ``k`` = input
        ``k`` of packed vector ``j``).  Emitted packed words are
        appended flat to ``out`` in pass order.  Caller-supplied rows
        are validated against the word width (:class:`SimulationError`
        on overflow) — an oversized lane word would silently corrupt
        every lane on the C backend; a block's words fit by
        construction.  ``vectors_represented`` is what the throughput
        counters record (default: the block's vector count, or full
        rows, ``len(groups) * word_width``).
        """
        raise NotImplementedError

    def _packed_count(
        self,
        groups,
        vectors_represented: Optional[int],
    ) -> int:
        if vectors_represented is not None:
            return vectors_represented
        if isinstance(groups, PatternBlock):
            return groups.count
        return len(groups) * self.program.word_width

    def _check_block(self, block: PatternBlock) -> None:
        """A block must be laid out for exactly this machine.

        An empty block (no passes) fits every machine: with no rows it
        cannot know the input count.
        """
        if len(block) and (
                block.word_width != self.program.word_width
                or block.slots != self.num_inputs):
            raise BackendError(
                f"pattern block of {block.slots} slots at "
                f"word_width={block.word_width} does not fit a machine "
                f"of {self.num_inputs} input words at "
                f"word_width={self.program.word_width}"
            )

    def _validate_group(self, index: int, group: Sequence[int]) -> None:
        if len(group) != self.num_inputs:
            raise BackendError(
                f"packed group {index} has {len(group)} words, expected "
                f"{self.num_inputs}"
            )
        # Name the scalar vectors an overflowing lane word would
        # corrupt, not just the width limit.
        lanes = self.program.word_width
        first = index * lanes
        validate_packed_words(
            group, self.program.word_width,
            context=(
                f"packed group {index} (vectors {first}.."
                f"{first + lanes - 1}), input word"
            ),
        )

    def step_many(
        self,
        vectors: Sequence[Sequence[int]],
        *,
        masked: bool = False,
    ) -> list[list[int]]:
        """Run a batch; return per-vector output lists.

        Bit-identical to ``[self.step(v) for v in vectors]``, minus the
        per-vector dispatch overhead.
        """
        flat: list[int] = []
        self.run_block(vectors, flat, masked=masked)
        n = self.num_outputs
        if n == 0:
            return [[] for _ in vectors]
        return [flat[i:i + n] for i in range(0, len(flat), n)]

    def dump_state(self) -> list[int]:
        raise NotImplementedError

    def load_state(self, values: Sequence[int]) -> None:
        """Load every persistent word (masked to the word width).

        An ``array`` of machine-sized words needs no masking; the C
        backend hands it to the library without a copy.
        """
        raise NotImplementedError

    def state_dict(self) -> dict[str, int]:
        """Persistent state keyed by variable name."""
        return dict(zip(self.program.state_vars, self.dump_state()))

    def cleanup(self) -> None:
        """Release backend artifacts (no-op unless a backend overrides)."""

    def __enter__(self) -> "Machine":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()


class PythonMachine(Machine):
    """Generated Python coroutine backend."""

    def __init__(
        self, program: Program, *, use_cache: bool = True
    ) -> None:
        super().__init__(program)
        self.source = program.python_source()
        filename = f"<repro:{program.name}>"
        code = None
        key = None
        if use_cache:
            key = (cache_fingerprint(program, self.source), "python", "")
            code = _PROGRAM_CACHE.get(key)
        if code is None:
            with telemetry.span("cc", backend="python",
                                program=program.name):
                code = compile(self.source, filename, "exec")
            if key is not None:
                _PROGRAM_CACHE.put(key, code)
        namespace: dict = {}
        exec(code, namespace)
        self._gen = namespace["machine"]()
        next(self._gen)  # prime

    def _marshal(self, vector: Sequence[int]) -> list[int]:
        # Mask to the word width: Python ints are unbounded, while the
        # C backend's ctypes buffers truncate silently — without this
        # the two backends diverge on oversized inputs.
        if len(vector) != self.num_inputs:
            raise BackendError(
                f"vector has {len(vector)} words, expected "
                f"{self.num_inputs}"
            )
        mask = self.program.word_mask
        return [value & mask for value in vector]

    def step(self, vector: Sequence[int]) -> list[int]:
        return self._gen.send((0, self._marshal(vector)))

    def run_block(
        self,
        vectors: Sequence[Sequence[int]],
        out: Optional[list[int]] = None,
        *,
        masked: bool = False,
    ) -> Optional[list[int]]:
        if not masked:
            vectors = [self._marshal(vector) for vector in vectors]
        sink = [] if out is None else out
        start = time.perf_counter()
        self._gen.send((3, vectors, sink))
        self._record_batch(len(vectors), time.perf_counter() - start)
        return out

    def run_packed_block(
        self,
        groups: Sequence[Sequence[int]],
        out: Optional[list[int]] = None,
        *,
        vectors_represented: Optional[int] = None,
    ) -> Optional[list[int]]:
        count = self._packed_count(groups, vectors_represented)
        if isinstance(groups, PatternBlock):
            self._check_block(groups)
            words = groups.buffer.tolist()
            stride = self.num_inputs
            groups = [
                words[p * stride:(p + 1) * stride]
                for p in range(len(groups))
            ]
        else:
            for index, group in enumerate(groups):
                self._validate_group(index, group)
        sink = [] if out is None else out
        start = time.perf_counter()
        self._gen.send((3, groups, sink))
        self._record_batch(count, time.perf_counter() - start)
        return out

    def dump_state(self) -> list[int]:
        return self._gen.send((1,))

    def load_state(self, values: Sequence[int]) -> None:
        if len(values) != self.num_state:
            raise BackendError(
                f"state has {self.num_state} words, got {len(values)}"
            )
        mask = self.program.word_mask
        self._gen.send((2, [value & mask for value in values]))


class CMachine(Machine):
    """Generated C + system compiler + ctypes backend.

    Owns a work directory holding the generated ``.c`` and the built
    ``.so``.  The lifecycle contract: ``cleanup()`` removes both and —
    when the directory was tool-created — the directory itself; it runs
    automatically on ``__del__`` and on context-manager exit, and is
    idempotent.  ``keep_artifacts=True`` disables all of it.
    """

    _CTYPE = {
        8: ctypes.c_uint8,
        16: ctypes.c_uint16,
        32: ctypes.c_uint32,
        64: ctypes.c_uint64,
    }

    #: Programs beyond this many generated lines compile at -O0: C
    #: optimizers behave superlinearly on huge straight-line functions
    #: (amusingly, the paper hit a compiler bug on exactly the same two
    #: circuits' cycle-breaking programs).
    O0_LINE_THRESHOLD = 60_000

    def __init__(
        self,
        program: Program,
        *,
        opt_level: Optional[str] = None,
        keep_artifacts: bool = False,
        work_dir: Optional[str] = None,
        use_cache: bool = True,
    ) -> None:
        super().__init__(program)
        self._cleaned = True  # nothing to clean until paths exist
        compiler = have_c_compiler()
        if compiler is None:
            raise BackendError(
                "no C compiler found; use the python backend instead"
            )
        self.source = program.c_source()
        if opt_level is None:
            big = program.stats().source_lines > self.O0_LINE_THRESHOLD
            opt_level = "-O0" if big else "-O1"
        self.opt_level = opt_level
        self._dir_owned = work_dir is None
        self._dir = work_dir or tempfile.mkdtemp(prefix="repro_c_")
        self._keep = keep_artifacts
        tag = uuid.uuid4().hex[:8]
        c_path = os.path.join(self._dir, f"{program.name}_{tag}.c")
        so_path = os.path.join(self._dir, f"{program.name}_{tag}.so")
        self._c_path = c_path
        self._so_path = so_path
        self._cleaned = False
        key = (cache_fingerprint(program, self.source), "c", opt_level)
        cached = _PROGRAM_CACHE.get(key) if use_cache else None
        if cached is not None:
            # Copy (never link): the dynamic loader dedupes by inode,
            # and a shared load would alias the static state words.
            shutil.copy(cached[0], c_path)
            shutil.copy(cached[1], so_path)
        else:
            with open(c_path, "w") as handle:
                handle.write(self.source)
            with telemetry.span("cc", backend="c", opt=opt_level,
                                program=program.name):
                try:
                    self._compile(compiler, opt_level, c_path, so_path)
                except BackendError:
                    self.cleanup()
                    raise
            if use_cache:
                cache_dir = _PROGRAM_CACHE.artifact_dir()
                cached_c = os.path.join(cache_dir, f"{key[0]}.c")
                opt_tag = re.sub(r"[^A-Za-z0-9]+", "_", opt_level).strip("_")
                cached_so = os.path.join(
                    cache_dir, f"{key[0]}_{opt_tag}.so"
                )
                shutil.copy(c_path, cached_c)
                shutil.copy(so_path, cached_so)
                _PROGRAM_CACHE.put(key, (cached_c, cached_so))
        self._lib = ctypes.CDLL(so_path)
        word = self._CTYPE[program.word_width]
        self._word = word
        # The callable per entry point, resolved from the interface's
        # shared table rather than hardcoded symbol names.
        entry = {
            ep.name: getattr(self._lib, ep.c_symbol)
            for ep in self.interface.entry_points
        }
        self._entry = entry
        entry["step"].argtypes = [
            ctypes.POINTER(word), ctypes.POINTER(word)
        ]
        entry["dump_state"].argtypes = [ctypes.POINTER(word)]
        entry["load_state"].argtypes = [ctypes.POINTER(word)]
        entry["run_block"].argtypes = [
            ctypes.POINTER(word), ctypes.c_long, ctypes.POINTER(word)
        ]
        self._v_buffer = (word * max(1, self.num_inputs))()
        self._out_buffer = (word * max(1, self.num_outputs))()
        self._state_buffer = (word * max(1, self.num_state))()

    def _compile(
        self, compiler: str, opt_level: str, c_path: str, so_path: str
    ) -> None:
        cmd = [
            compiler, *opt_level.split(), "-shared", "-fPIC",
            c_path, "-o", so_path,
        ]
        # A session of its own lets a timeout kill the driver's
        # cc1/as/ld children too, not just the driver.
        process = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            _out, stderr = process.communicate(timeout=COMPILE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            _out, stderr = process.communicate()
            raise BackendError(
                f"C compilation timed out after {COMPILE_TIMEOUT_S:g} s "
                f"({' '.join(cmd)}):\n{stderr}"
            ) from None
        if process.returncode != 0:
            raise BackendError(
                f"C compilation failed ({' '.join(cmd)}):\n{stderr}"
            )

    def step(self, vector: Sequence[int]) -> list[int]:
        if len(vector) != self.num_inputs:
            raise BackendError(
                f"vector has {len(vector)} words, expected "
                f"{self.num_inputs}"
            )
        buf = self._v_buffer
        for i, value in enumerate(vector):
            buf[i] = value  # ctypes truncates to the word width
        self._entry["step"](buf, self._out_buffer)
        return list(self._out_buffer[: self.num_outputs])

    def pack_block(self, vectors):
        """Marshal a vector batch into one contiguous C buffer.

        Do this once outside the timed region; the generated
        ``run_block`` then drives the whole batch from inside the
        shared library with no per-vector interpreter work — matching
        the paper's timing, whose per-vector loop was compiled too.

        Every vector must have exactly ``num_inputs`` words: a
        mismatched vector would silently overrun into (or underfill)
        the next vector's slot.  A
        :class:`~repro.codegen.packing.PatternBlock` is not copied:
        the returned array shares the block's pass buffer.
        """
        if isinstance(vectors, PatternBlock):
            self._check_block(vectors)
            buffer = vectors.buffer
            return (self._word * len(buffer)).from_buffer(buffer)
        width = self.num_inputs
        count = max(1, len(vectors))
        flat = (self._word * (max(1, width) * count))()
        pos = 0
        for index, vector in enumerate(vectors):
            if len(vector) != width:
                raise BackendError(
                    f"vector {index} has {len(vector)} words, expected "
                    f"{width}"
                )
            for value in vector:
                flat[pos] = value
                pos += 1
        return flat

    def run_packed(
        self, packed, count: int, out_buffer=None,
        *, vectors_represented: Optional[int] = None,
    ) -> None:
        """Run ``count`` marshalled vectors entirely inside the library.

        ``out_buffer`` is an optional ctypes array of at least
        ``count * num_outputs`` words; ``None`` discards outputs.  When
        the buffer holds pattern-packed groups rather than scalar
        vectors, pass ``vectors_represented`` so the throughput
        counters record lanes instead of passes.
        """
        start = time.perf_counter()
        self._entry["run_block"](packed, count, out_buffer)
        self._record_batch(
            count if vectors_represented is None else vectors_represented,
            time.perf_counter() - start,
        )

    def run_block(
        self,
        vectors: Sequence[Sequence[int]],
        out: Optional[list[int]] = None,
        *,
        masked: bool = False,
    ) -> Optional[list[int]]:
        # ``masked`` is accepted for interface symmetry; the ctypes
        # buffer truncates to the word width either way.
        packed = self.pack_block(vectors)
        if out is None:
            self.run_packed(packed, len(vectors))
            return None
        buffer = (self._word * max(1, len(vectors) * self.num_outputs))()
        self.run_packed(packed, len(vectors), buffer)
        out.extend(buffer[: len(vectors) * self.num_outputs])
        return out

    def run_packed_block(
        self,
        groups: Sequence[Sequence[int]],
        out: Optional[list[int]] = None,
        *,
        vectors_represented: Optional[int] = None,
    ) -> Optional[list[int]]:
        if not isinstance(groups, PatternBlock):
            for index, group in enumerate(groups):
                self._validate_group(index, group)
        buffer = self.pack_block(groups)
        count = self._packed_count(groups, vectors_represented)
        start = time.perf_counter()
        if out is None:
            self._entry["run_block"](buffer, len(groups), None)
            self._record_batch(count, time.perf_counter() - start)
            return None
        out_buffer = (
            self._word * max(1, len(groups) * self.num_outputs)
        )()
        self._entry["run_block"](buffer, len(groups), out_buffer)
        self._record_batch(count, time.perf_counter() - start)
        out.extend(out_buffer[: len(groups) * self.num_outputs])
        return out

    def dump_state(self) -> list[int]:
        self._entry["dump_state"](self._state_buffer)
        return list(self._state_buffer[: self.num_state])

    def load_state(self, values: Sequence[int]) -> None:
        if len(values) != self.num_state:
            raise BackendError(
                f"state has {self.num_state} words, got {len(values)}"
            )
        if isinstance(values, array) and (
            values.itemsize == ctypes.sizeof(self._word)
        ):
            # Machine words already: the width bounds every value.
            self._entry["load_state"](
                (self._word * len(values)).from_buffer(values)
            )
            return
        mask = self.program.word_mask
        buf = self._state_buffer
        for i, value in enumerate(values):
            buf[i] = value & mask
        self._entry["load_state"](buf)

    def cleanup(self) -> None:
        """Remove generated artifacts (no-op with keep_artifacts).

        Idempotent; called automatically by ``__del__`` and on context
        exit.  Tool-created work directories are removed outright.
        """
        if self._cleaned or self._keep:
            return
        self._cleaned = True
        for path in (self._c_path, self._so_path):
            try:
                os.unlink(path)
            except OSError:
                pass
        if self._dir_owned:
            shutil.rmtree(self._dir, ignore_errors=True)

    def __del__(self) -> None:
        try:
            self.cleanup()
        except Exception:
            pass


def compile_program(
    program: Program,
    backend: str = "python",
    **kwargs,
) -> Machine:
    """Compile a program with the chosen backend, ``python`` or ``c``.

    Both backends accept ``use_cache=False`` to bypass the process-wide
    :class:`ProgramCache`.
    """
    if backend == "python":
        return PythonMachine(program, **kwargs)
    if backend == "c":
        return CMachine(program, **kwargs)
    raise BackendError(f"unknown backend: {backend!r}")
