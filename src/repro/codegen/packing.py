"""Pattern-lane packing: bit-matrix transposition for compiled passes.

The paper observes (§3) that the generated straight-line code is
"amenable to bit-parallel simulation": every operator the generators
emit except the shifts acts on each bit position independently, so one
pass through the compiled code can evaluate ``word_width`` *different*
input vectors at once if the inputs are transposed — bit ``j`` of input
word ``k`` carries the value of primary input ``k`` in vector ``j``.
This module owns that transposition — :class:`PatternBlock`, which
holds a batch as one bit plane per input and lays the planes out as
machine lane words, and the unpacking of lane words back into scalar
outputs — and the eligibility analysis that decides when a program may
be driven packed.  No step of it loops over bits in Python: planes are
built from one ``bytes`` of the batch with stride slices and
``int(..., 2)``, split into words with ``int.to_bytes`` and ``array``,
and interleaved into the pass buffer with strided slice assignment.

Eligibility — the shift-free rule
---------------------------------
Lane independence holds exactly for ``&``, ``|``, ``^`` and ``~``.
Two IR operators cross lanes and disqualify a program:

- shifts (``<<``, ``>>``, ``sar``) — the §3 parallel technique's
  time-shift operations deliberately move history *across* bit
  positions, which is the opposite of keeping lanes independent;
- unary ``-`` (two's-complement negate) — borrow propagation smears
  lane 0 into every higher lane (that is precisely why the parallel
  technique uses it to replicate a bit through the word).

:func:`packing_mode` classifies a program:

``"full"``
    Shift-free *and* memoryless: every variable an expression reads has
    already been written earlier in the same pass.  Packed evaluation
    is bit-identical to a scalar pass in every lane, for every emitted
    output and every state word.  Zero-delay LCC programs are of this
    kind.
``"settled"``
    Shift-free but stateful: some variable is read before it is written
    (the PC-set method's zero-element moves read the *previous*
    vector's final values).  Lanes still evolve independently, but a
    lane's intermediate-time values depend on state the scalar chain
    would have threaded vector-by-vector.  Only the *settled final*
    values — which in an acyclic circuit depend on the current inputs
    alone — are reproduced exactly; callers may pack only when they
    observe nothing else (fault grading does: it compares settled
    monitored outputs).
``"none"``
    The program contains shifts or negates; one word cannot carry
    multiple lanes.  Such *shift programs* still pack — but with one
    word per (net, lane), so the time-shift operations move history
    within a lane instead of across lanes: see `Per-lane packing`_.

Tiling — past the word_width ceiling
------------------------------------
Lane packing caps at ``word_width`` vectors per dispatch.  Compiling a
program with ``tiles=K`` (see :func:`~repro.codegen.runtime\
.compile_program`) turns every net into an array of K words, so one
pass carries ``word_width * K`` pattern lanes.  The layout is
*slot-major* everywhere — input slot ``s`` tile ``t`` at vector index
``s*K + t``, and likewise for state and output words — which is what
:class:`~repro.codegen.program.MachineInterface` declares and all
three emitters honor.  :func:`select_tiles` picks K from the batch
size (the single-word path is the K=1 special case);
:func:`packed_apply`/:func:`packed_bits` transparently drive tiled
machines.

Per-lane packing (shift programs)
---------------------------------
A tiled machine also unlocks the §3 parallel technique: give each of
the K tiles its *own* scalar lane — one word per (net, lane) — and the
shifts move history within that lane exactly as the scalar chain
would.  Correctness needs one more property, declared by the program
as ``state_carry="finals"``: cross-vector dependence flows only
through the previous vector's settled finals.  Then a batch of n
vectors splits into K contiguous segments (:func:`lane_segments`),
lane t seeded from the settled state after the last vector of segment
t-1, and every lane's passes are bit-identical to the scalar chain —
outputs *and* final state.  The simulator layer
(:meth:`repro.simbase.CompiledSimulator.apply_vectors`) owns the
seeding; this module owns the segmentation and eligibility.

Caller-supplied lane words are validated against the program's word
width (:class:`~repro.errors.SimulationError` on overflow) rather than
left to backend-dependent truncation (ctypes truncates silently; Python
ints do not truncate at all).  A :class:`PatternBlock`'s words fit by
construction.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import nullcontext
from typing import Optional, Sequence

from repro import telemetry
from repro.codegen.program import (
    Assign,
    Bin,
    Emit,
    Expr,
    Program,
    Un,
    Var,
)
from repro.errors import SimulationError

__all__ = [
    "MAX_TILES",
    "is_shift_free",
    "packing_mode",
    "validate_packed_words",
    "PatternBlock",
    "pattern_block",
    "pack_patterns",
    "unpack_patterns",
    "packed_apply",
    "packed_bits",
    "select_tiles",
    "select_lanes",
    "tile_groups",
    "lane_segments",
]

#: Ceiling of the automatic tile/lane selection.  Prototyped on gcc:
#: per-statement tile loops auto-vectorize well up to 8 words, while
#: compile time grows linearly — past 8 the marginal speedup no longer
#: pays for the longer compiles.
MAX_TILES = 8


# ----------------------------------------------------------------------
# eligibility analysis
# ----------------------------------------------------------------------
def is_shift_free(program: Program) -> bool:
    """True when no operator of ``program`` crosses bit lanes.

    Shifts move bits between lanes by construction; unary negate does
    too (borrow propagation), as do ``+`` (carry propagation) and
    ``popcount`` (collapses the whole word).  Everything else the IR
    can express is lane-wise.
    """
    stats = program.stats()
    return (stats.shifts == 0 and stats.negates == 0
            and stats.adds == 0 and stats.popcounts == 0)


def _reads(expr: Expr):
    if isinstance(expr, Var):
        yield expr.name
    elif isinstance(expr, Bin):
        yield from _reads(expr.a)
        yield from _reads(expr.b)
    elif isinstance(expr, Un):
        yield from _reads(expr.a)


def _reads_state_before_write(program: Program) -> bool:
    """Does any expression read a variable not yet assigned this pass?

    Such a read observes the *previous* vector's value (or the declared
    initial value) — the program carries state between passes.
    """
    written: set[str] = set()
    for stmt in program.statements():
        if isinstance(stmt, (Assign, Emit)):
            for name in _reads(stmt.expr):
                if name not in written:
                    return True
        if isinstance(stmt, Assign):
            written.add(stmt.dest)
    return False


def packing_mode(program: Program) -> str:
    """``"full"``, ``"settled"`` or ``"none"`` (see module docstring)."""
    if not is_shift_free(program):
        return "none"
    if _reads_state_before_write(program):
        return "settled"
    return "full"


# ----------------------------------------------------------------------
# transposition
# ----------------------------------------------------------------------
def validate_packed_words(
    words: Sequence[int], word_width: int, *, context: str = "packed word"
) -> None:
    """Raise :class:`SimulationError` unless every word fits the width."""
    limit = 1 << word_width
    for index, word in enumerate(words):
        if not 0 <= word < limit:
            raise SimulationError(
                f"{context} {index} = {word:#x} does not fit "
                f"word_width={word_width}"
            )


#: ``array`` typecode per machine word width (``Q`` wins over ``L``).
_TYPECODES = {array(code).itemsize * 8: code for code in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"
_BITS_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_ASCII_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _place_slot(buffer, slot: int, words, slots: int, tiles: int) -> None:
    """Write one slot's lane words into a slot-major pass buffer.

    ``words[p*K + t]`` lands at pass ``p``, slot ``slot``, tile ``t``:
    index ``p*slots*K + slot*K + t`` — the vector layout a machine
    compiled with ``tiles=K`` consumes.
    """
    stride = slots * tiles
    for t in range(tiles):
        buffer[slot * tiles + t::stride] = words[t::tiles]


class PatternBlock:
    """``count`` scalar 0/1 vectors as per-input bit planes.

    ``planes[k]`` is an int whose bit ``j`` is input ``k`` of vector
    ``j``.  A block is also a machine's packed input: ``tiles`` says
    which K-tile machine it is laid out for, ``groups`` how many lane
    words each plane is split into (``ceil(count / word_width)``, plus
    one when :meth:`laid_out` appends the all-zeros fill group), and
    ``extra`` holds constant words for slots after the planes (every
    lane, tile and pass alike).  ``len(block)`` is the number of
    compiled passes, ``ceil(groups / tiles)``.

    :attr:`buffer` is the slot-major pass buffer, an ``array`` of
    machine words: pass ``p``, slot ``s``, tile ``t`` is word
    ``p*K + t`` of slot ``s``.  Its words fit the width by
    construction, so machines take it without per-word validation.
    """

    __slots__ = (
        "planes", "count", "word_width", "tiles", "groups", "extra",
        "_buffer",
    )

    def __init__(
        self,
        planes: list[int],
        count: int,
        word_width: int,
        *,
        tiles: int = 1,
        groups: Optional[int] = None,
        extra: Sequence[int] = (),
    ) -> None:
        self.planes = planes
        self.count = count
        self.word_width = word_width
        self.tiles = tiles
        self.groups = (
            -(-count // word_width) if groups is None else groups
        )
        self.extra = list(extra)
        self._buffer = None

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[int]], word_width: int
    ) -> Optional["PatternBlock"]:
        """Transpose 0/1 rows into planes; ``None`` if any value is not 0/1.

        Raises :class:`SimulationError` for ragged rows and for values
        that are not integers.
        """
        count = len(rows)
        if not count:
            return cls([], 0, word_width)
        width = len(rows[0])
        lengths = list(map(len, rows))
        if lengths.count(width) != count:
            index = next(
                i for i, length in enumerate(lengths) if length != width
            )
            raise SimulationError(
                f"vector {index} has {lengths[index]} values, "
                f"expected {width}"
            )
        try:
            flat = b"".join(map(bytes, rows))
            if len(flat) != count * width:
                # Rows exporting a buffer of wider items (numpy arrays,
                # ``array``s): ``bytes`` copied their memory, not values.
                flat = b"".join(bytes(list(row)) for row in rows)
        except ValueError:  # a value outside 0..255: not a single bit
            return None
        except TypeError:
            raise _bad_value(
                rows, lambda value: not hasattr(type(value), "__index__"),
                "is not an integer",
            ) from None
        if flat.translate(None, b"\x00\x01"):
            return None
        planes = [
            int(flat[k::width].translate(_BITS_TO_ASCII)[::-1], 2)
            for k in range(width)
        ]
        return cls(planes, count, word_width)

    def laid_out(
        self, tiles: int = 1, *, fill: bool = False,
        extra: Sequence[int] = (),
    ) -> "PatternBlock":
        """These planes as the input of a K-tile machine.

        ``fill`` appends one all-zeros group after the last real one
        (see :func:`packed_apply`); ``extra`` appends constant slots.
        """
        return PatternBlock(
            self.planes, self.count, self.word_width, tiles=tiles,
            groups=-(-self.count // self.word_width) + fill, extra=extra,
        )

    def part(self, start: int, count: int) -> "PatternBlock":
        """Vectors ``start .. start+count-1`` as a block of their own."""
        mask = (1 << count) - 1
        return PatternBlock(
            [(plane >> start) & mask for plane in self.planes],
            count, self.word_width,
        )

    def __len__(self) -> int:
        return -(-self.groups // self.tiles)

    @property
    def slots(self) -> int:
        return len(self.planes) + len(self.extra)

    @property
    def typecode(self) -> str:
        return _TYPECODES[self.word_width]

    def lane_words(self, k: int) -> array:
        """Plane ``k`` split into lane words, padded to whole passes."""
        words = array(self.typecode)
        words.frombytes(self.planes[k].to_bytes(
            len(self) * self.tiles * self.word_width // 8, "little"
        ))
        if _BIG_ENDIAN:
            words.byteswap()
        return words

    @property
    def buffer(self) -> array:
        """The slot-major pass buffer (built on first use)."""
        if self._buffer is None:
            code = self.typecode
            padded = len(self) * self.tiles
            buffer = array(code, bytes(
                padded * self.slots * array(code).itemsize
            ))
            for k in range(len(self.planes)):
                _place_slot(
                    buffer, k, self.lane_words(k), self.slots, self.tiles
                )
            self._buffer = buffer
            for index, word in enumerate(self.extra):
                self.set_extra(index, word)
        return self._buffer

    def set_extra(self, index: int, word: int) -> None:
        """Set constant slot ``index`` in every lane, tile and pass."""
        self.extra[index] = word
        words = array(self.typecode, [word]) * (len(self) * self.tiles)
        _place_slot(
            self.buffer, len(self.planes) + index, words, self.slots,
            self.tiles,
        )

    def split(self) -> list["PatternBlock"]:
        """One single-pass block per pass, sharing this buffer.

        :meth:`set_extra` on this block shows through every part.
        """
        view = memoryview(self.buffer)
        stride = self.slots * self.tiles
        lanes = self.word_width * self.tiles
        lane_mask = (1 << lanes) - 1
        parts = []
        for p in range(len(self)):
            first = p * lanes
            part = PatternBlock(
                [(plane >> first) & lane_mask for plane in self.planes],
                max(0, min(lanes, self.count - first)),
                self.word_width,
                tiles=self.tiles,
                groups=self.tiles,
            )
            part.extra = self.extra
            part._buffer = view[p * stride:(p + 1) * stride]
            parts.append(part)
        return parts

    def columns(self, words, num_outputs: int) -> list[int]:
        """Output planes of a run over this block.

        ``words`` is the flat output of ``run_packed_block`` (an
        ``array`` of this block's typecode): pass ``p``, output ``o``,
        tile ``t`` at ``(p*num_outputs + o)*K + t``.  Returns one int
        per output whose bit ``j`` is that output's word bit of lane
        ``j`` of the group sequence — so bit ``g*word_width + j`` is
        lane ``j`` of group ``g``.
        """
        tiles = self.tiles
        stride = num_outputs * tiles
        planes = []
        for o in range(num_outputs):
            if tiles == 1:
                column = words[o::stride]
            else:
                column = array(words.typecode, bytes(
                    len(self) * tiles * words.itemsize
                ))
                for t in range(tiles):
                    column[t::tiles] = words[o * tiles + t::stride]
            if _BIG_ENDIAN:
                column.byteswap()
            planes.append(int.from_bytes(column, "little"))
        return planes


def _bad_value(rows, is_bad, problem: str) -> SimulationError:
    """Name the first value of a batch that ``is_bad`` (error path)."""
    for index, row in enumerate(rows):
        for k, value in enumerate(row):
            if is_bad(value):
                return SimulationError(
                    f"vector {index}, input {k}: pattern value "
                    f"{value!r} {problem}"
                )
    return SimulationError(f"a pattern value {problem}")


def pattern_block(rows, word_width: int) -> PatternBlock:
    """:meth:`PatternBlock.from_rows`, raising on a value that is not 0/1."""
    if isinstance(rows, PatternBlock):
        return rows
    block = PatternBlock.from_rows(rows, word_width)
    if block is None:
        raise _bad_value(
            rows, lambda value: value not in (0, 1),
            "is not a single bit (pack one vector per lane, values "
            "must be 0/1)",
        )
    return block


def _bit_column(plane: int, count: int) -> bytes:
    """Bits ``0..count-1`` of ``plane`` as one 0/1 byte per vector."""
    sentinel = 1 << count
    text = format(plane & (sentinel - 1) | sentinel, "b")
    return text[:0:-1].encode().translate(_ASCII_TO_BITS)


def _fill_column(bits: bytes, fill: int, typecode: str) -> array:
    """``fill | bit`` for every 0/1 byte of ``bits``, as machine words."""
    size = array(typecode).itemsize
    low = fill & 0xFF
    raw = bytearray(fill.to_bytes(size, "little") * len(bits))
    raw[::size] = bits.translate(bytes.maketrans(
        b"\x00\x01", bytes((low, low | 1))
    ))
    column = array(typecode, raw)
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def _rows(columns: list, count: int) -> list[list[int]]:
    """Per-vector output lists from per-output columns."""
    if not columns:
        return [[] for _ in range(count)]
    return list(map(list, zip(*columns)))


def pack_patterns(
    vectors: Sequence[Sequence[int]], word_width: int
) -> tuple[list[list[int]], list[int]]:
    """Transpose scalar 0/1 vectors into per-input lane words.

    Returns ``(groups, lane_counts)``: ``groups[g][k]`` is the packed
    word for input ``k`` of pattern group ``g`` — bit ``j`` holds the
    value of input ``k`` in vector ``g * word_width + j`` — and
    ``lane_counts[g]`` is how many real vectors group ``g`` carries
    (only the last group may be partial; its unused high lanes are
    zero, i.e. they simulate the all-zeros vector).

    Every vector value must be 0 or 1 — a wider value cannot occupy a
    single lane — and every vector must have the same length.  A
    list-of-words view of :class:`PatternBlock`.
    """
    with telemetry.span("pack"):
        block = pattern_block(vectors, word_width)
        groups = block.groups
        mask = (1 << word_width) - 1
        planes = [
            [(plane >> (g * word_width)) & mask for g in range(groups)]
            for plane in block.planes
        ]
        lane_counts = [word_width] * groups
        if groups:
            lane_counts[-1] = block.count - (groups - 1) * word_width
        return [list(group) for group in zip(*planes)], lane_counts


def unpack_patterns(
    flat: Sequence[int], num_outputs: int, lane_counts: Sequence[int]
) -> list[list[int]]:
    """Inverse transposition of packed output words.

    ``flat`` holds ``len(lane_counts) * num_outputs`` packed words in
    group order (what ``run_packed_block`` appended).  Returns one
    0/1 output list per original scalar vector, in vector order.
    """
    with telemetry.span("unpack"):
        count = sum(lane_counts)
        width = lane_counts[0] if lane_counts else 0
        planes = [
            sum(
                flat[g * num_outputs + o] << (g * width)
                for g in range(len(lane_counts))
            )
            for o in range(num_outputs)
        ]
        return _rows([_bit_column(p, count) for p in planes], count)


# ----------------------------------------------------------------------
# tiling
# ----------------------------------------------------------------------
def select_tiles(
    num_vectors: int,
    word_width: int,
    *,
    backend: str = "python",
    max_tiles: int = MAX_TILES,
) -> int:
    """Pick the tile count K for a pattern-packed batch.

    Never more tiles than pattern groups (a pass must not be mostly
    padding), capped at ``max_tiles``.  The Python backend gets K=1:
    its tiled source is unrolled K-fold, so wider passes only trade
    interpreter dispatch for identical bytecode volume — the tile win
    is the C auto-vectorizer's.  An explicit ``tiles=K`` at the
    simulator layer overrides this policy on any backend.
    """
    if backend != "c" or num_vectors <= 0:
        selected = 1
    else:
        groups = -(-num_vectors // word_width)
        selected = max(1, min(max_tiles, groups))
    if telemetry.enabled() and selected > 1:
        telemetry.counter("pack.tile.selected")
        telemetry.gauge("pack.tile.max_k", selected)
    return selected


def select_lanes(
    num_vectors: int,
    *,
    backend: str = "python",
    max_lanes: int = MAX_TILES,
) -> int:
    """Pick the lane count for per-lane (shift-program) packing.

    Each lane costs one interpreted steady-state settle for its seed,
    so short batches stay scalar; the floor of 16 vectors per lane
    keeps the seeding overhead under a few percent of the compiled
    passes it saves.  Python backend: 1, as for :func:`select_tiles`.
    """
    if backend != "c" or num_vectors < 32:
        selected = 1
    else:
        selected = max(1, min(max_lanes, num_vectors // 16))
    if telemetry.enabled() and selected > 1:
        telemetry.counter("pack.shift.selected")
        telemetry.gauge("pack.shift.max_k", selected)
    return selected


def tile_groups(
    groups: Sequence[Sequence[int]], num_inputs: int, tiles: int
) -> list[list[int]]:
    """Flatten K consecutive scalar groups into one slot-major pass row.

    Row ``p`` carries groups ``p*K .. p*K+K-1`` with input slot ``s``
    tile ``t`` at index ``s*K + t`` — the vector layout a machine
    compiled with ``tiles=K`` consumes.  The tail is padded with
    all-zeros groups (they simulate the all-zeros vector and their
    outputs are never read back).  A list-of-words view of the
    :class:`PatternBlock` layout.
    """
    passes = -(-len(groups) // tiles)
    padding = [0] * (passes * tiles - len(groups))
    buffer = array("Q", bytes(8 * passes * num_inputs * tiles))
    for s in range(num_inputs):
        words = array("Q", [group[s] for group in groups] + padding)
        _place_slot(buffer, s, words, num_inputs, tiles)
    flat = buffer.tolist()
    stride = num_inputs * tiles
    return [flat[p * stride:(p + 1) * stride] for p in range(passes)]


def lane_segments(total: int, lanes: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, length)`` per lane for a batch of ``total``.

    The remainder goes to the *last* lanes, so lane ``lanes-1`` always
    ends at vector ``total-1`` — its final state is the batch's final
    state, which is what the laned runner hands back to the scalar
    machine for exact chain continuity.
    """
    if lanes < 1:
        raise SimulationError(f"lanes must be >= 1, got {lanes}")
    base, rem = divmod(total, lanes)
    segments: list[tuple[int, int]] = []
    start = 0
    for t in range(lanes):
        length = base + (1 if t >= lanes - rem else 0)
        segments.append((start, length))
        start += length
    return segments


# ----------------------------------------------------------------------
# machine drivers
# ----------------------------------------------------------------------
def _run_columns(machine, block: PatternBlock, *, fill: bool) -> list[int]:
    """Run ``block`` through ``machine``; return its output planes.

    With ``fill`` an all-zeros group follows the real ones, so bit
    ``groups*word_width`` of each plane is the all-zeros vector's
    output (the :func:`packed_apply` reconstruction source).
    """
    tiles = machine.tiles
    run = block.laid_out(tiles, fill=fill)
    flat = array(run.typecode)
    with (telemetry.span("pack.tile", tiles=tiles) if tiles > 1
          else nullcontext()):
        machine.run_packed_block(run, flat, vectors_represented=block.count)
    if tiles > 1 and telemetry.enabled():
        telemetry.counter("pack.tile.batches")
        telemetry.counter("pack.tile.vectors", block.count)
    return run.columns(flat, machine.num_outputs // tiles)


def packed_bits(machine, vectors) -> list[list[int]]:
    """Run ``vectors`` pattern-packed; return per-vector output *bits*.

    ``vectors`` is a :class:`PatternBlock` or a list of 0/1 rows.  One
    compiled pass per ``word_width * tiles`` vectors.  Each returned
    list holds the low bit of every emitted output word — the logical
    values a scalar pass would produce in lane 0.  The caller is
    responsible for eligibility (``packing_mode`` full, or settled with
    final-value outputs only).
    """
    block = pattern_block(vectors, machine.program.word_width)
    if not block.count:
        return []
    planes = _run_columns(machine, block, fill=False)
    with telemetry.span("unpack"):
        count = block.count
        return _rows([_bit_column(p, count) for p in planes], count)


def packed_apply(machine, vectors) -> list[list[int]]:
    """Run ``vectors`` packed; return *scalar-identical* raw output words.

    Requires a ``"full"``-mode program; ``vectors`` is a
    :class:`PatternBlock` or a list of 0/1 rows.  A scalar pass on
    vector ``v`` feeds input words with bit 0 = the input's value and
    all higher bits 0 — exactly a packed pass over lanes
    ``[v, 0, 0, ...]``.  So the raw word a scalar pass emits is the
    packed lane-``j`` bit in bit 0 plus the all-zeros vector's emitted
    word in the high bits.  One extra all-zeros group appended to the
    batch supplies that fill word: every lane of the group emits the
    same bit, so each output's fill is that bit replicated over the
    high bits, applied to the whole output column at once.
    """
    program = machine.program
    block = pattern_block(vectors, program.word_width)
    if not block.count:
        return []
    planes = _run_columns(machine, block, fill=True)
    with telemetry.span("unpack"):
        count = block.count
        high = program.word_mask ^ 1
        # Lane 0 of the fill group, right after the real groups.
        width = block.word_width
        zeros_bit = -(-count // width) * width
        columns = []
        for plane in planes:
            bits = _bit_column(plane, count)
            if (plane >> zeros_bit) & 1:
                columns.append(_fill_column(bits, high, block.typecode))
            else:
                columns.append(bits)
        return _rows(columns, count)
