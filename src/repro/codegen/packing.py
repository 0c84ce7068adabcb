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
    Shift-free *and* memoryless: nothing is carried
    (:meth:`~repro.codegen.program.Program.carried` is empty) — every
    variable an expression reads was written earlier in the same pass.  Packed evaluation
    is bit-identical to a scalar pass in every lane, for every emitted
    output and every state word.  Zero-delay LCC programs are of this
    kind.
``"settled"``
    Shift-free but stateful: some variable is carried, read before it
    is written (the PC-set method's zero-element moves read the *previous*
    vector's final values).  Lanes still evolve independently, but a
    lane's intermediate-time values depend on state the scalar chain
    would have threaded vector-by-vector.  Only the *settled final*
    values — which in an acyclic circuit depend on the current inputs
    alone — are reproduced exactly; callers may pack only when they
    observe nothing else (fault grading does: it compares settled
    monitored outputs).
``"none"``
    The program contains shifts or negates; one word cannot carry
    multiple lanes, so such *shift programs* run one vector per pass.

Caller-supplied lane words are validated against the program's word
width (:class:`~repro.errors.SimulationError` on overflow) rather than
left to backend-dependent truncation (ctypes truncates silently; Python
ints do not truncate at all).  A :class:`PatternBlock`'s words fit by
construction.
"""

from __future__ import annotations

import sys
from array import array
from typing import Optional, Sequence

from repro import telemetry
from repro.codegen.program import Program
from repro.errors import SimulationError

__all__ = [
    "is_shift_free",
    "packing_mode",
    "validate_packed_words",
    "PatternBlock",
    "pattern_block",
    "pack_patterns",
    "unpack_patterns",
    "packed_apply",
    "packed_bits",
    "tile_groups",
]


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


def packing_mode(program: Program) -> str:
    """``"full"``, ``"settled"`` or ``"none"`` (see module docstring)."""
    if not is_shift_free(program):
        return "none"
    if program.carried():
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


def _place_slot(buffer, slot: int, words, slots: int) -> None:
    """Write one slot's lane words into a slot-major pass buffer.

    ``words[p]`` lands at pass ``p``, slot ``slot``: index
    ``p*slots + slot``.
    """
    buffer[slot::slots] = words


class PatternBlock:
    """``count`` scalar 0/1 vectors as per-input bit planes.

    ``planes[k]`` is an int whose bit ``j`` is input ``k`` of vector
    ``j``.  A block is also a machine's packed input: each plane is
    split into one lane word per compiled pass (``ceil(count /
    word_width)`` passes, plus one when :meth:`laid_out` appends the
    all-zeros fill pass), and ``extra`` holds constant words for slots
    after the planes (every lane and pass alike).  ``len(block)`` is
    the number of compiled passes.

    :attr:`buffer` is the slot-major pass buffer, an ``array`` of
    machine words: pass ``p``, slot ``s`` is word ``p*slots + s``.
    Its words fit the width by construction, so machines take it
    without per-word validation.
    """

    __slots__ = (
        "planes", "count", "word_width", "passes", "extra", "_buffer",
    )

    def __init__(
        self,
        planes: list[int],
        count: int,
        word_width: int,
        *,
        passes: Optional[int] = None,
        extra: Sequence[int] = (),
    ) -> None:
        self.planes = planes
        self.count = count
        self.word_width = word_width
        self.passes = (
            -(-count // word_width) if passes is None else passes
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
        self, *, fill: bool = False, extra: Sequence[int] = (),
    ) -> "PatternBlock":
        """These planes as a machine input with extra passes or slots.

        ``fill`` appends one all-zeros pass after the last real one
        (see :func:`packed_apply`); ``extra`` appends constant slots.
        """
        return PatternBlock(
            self.planes, self.count, self.word_width,
            passes=-(-self.count // self.word_width) + fill, extra=extra,
        )

    def part(self, start: int, count: int) -> "PatternBlock":
        """Vectors ``start .. start+count-1`` as a block of their own."""
        mask = (1 << count) - 1
        return PatternBlock(
            [(plane >> start) & mask for plane in self.planes],
            count, self.word_width,
        )

    def __len__(self) -> int:
        return self.passes

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
            len(self) * self.word_width // 8, "little"
        ))
        if _BIG_ENDIAN:
            words.byteswap()
        return words

    @property
    def buffer(self) -> array:
        """The slot-major pass buffer (built on first use)."""
        if self._buffer is None:
            code = self.typecode
            buffer = array(code, bytes(
                len(self) * self.slots * array(code).itemsize
            ))
            for k in range(len(self.planes)):
                _place_slot(buffer, k, self.lane_words(k), self.slots)
            self._buffer = buffer
            for index, word in enumerate(self.extra):
                self.set_extra(index, word)
        return self._buffer

    def set_extra(self, index: int, word: int) -> None:
        """Set constant slot ``index`` in every lane and pass."""
        self.extra[index] = word
        words = array(self.typecode, [word]) * len(self)
        _place_slot(self.buffer, len(self.planes) + index, words, self.slots)

    def split(self) -> list["PatternBlock"]:
        """One single-pass block per pass, sharing this buffer.

        :meth:`set_extra` on this block shows through every part.
        """
        view = memoryview(self.buffer)
        stride = self.slots
        lanes = self.word_width
        lane_mask = (1 << lanes) - 1
        parts = []
        for p in range(len(self)):
            first = p * lanes
            part = PatternBlock(
                [(plane >> first) & lane_mask for plane in self.planes],
                max(0, min(lanes, self.count - first)),
                self.word_width,
                passes=1,
            )
            part.extra = self.extra
            part._buffer = view[p * stride:(p + 1) * stride]
            parts.append(part)
        return parts

    def columns(self, words, num_outputs: int) -> list[int]:
        """Output planes of a run over this block.

        ``words`` is the flat output of ``run_packed_block`` (an
        ``array`` of this block's typecode): pass ``p``, output ``o``
        at ``p*num_outputs + o``.  Returns one int per output whose
        bit ``j`` is that output's word bit of lane ``j`` of the pass
        sequence — so bit ``p*word_width + j`` is lane ``j`` of pass
        ``p``.
        """
        planes = []
        for o in range(num_outputs):
            column = words[o::num_outputs]
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
        groups = len(block)
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
# pass rows
# ----------------------------------------------------------------------
def tile_groups(
    groups: Sequence[Sequence[int]], num_inputs: int, tiles: int
) -> list[list[int]]:
    """Flatten K consecutive scalar groups into one slot-major row.

    Row ``p`` carries groups ``p*K .. p*K+K-1`` with input slot ``s``
    of group ``p*K + t`` at index ``s*K + t``; the tail is padded with
    all-zeros groups.  A list-of-words view kept for the end-to-end
    benchmark's tracer, which binds this name.
    """
    passes = -(-len(groups) // tiles)
    padding = [0] * (passes * tiles - len(groups))
    flat = [0] * (passes * num_inputs * tiles)
    stride = num_inputs * tiles
    for s in range(num_inputs):
        words = [group[s] for group in groups] + padding
        for t in range(tiles):
            flat[s * tiles + t::stride] = words[t::tiles]
    return [flat[p * stride:(p + 1) * stride] for p in range(passes)]


# ----------------------------------------------------------------------
# machine drivers
# ----------------------------------------------------------------------
def _run_columns(machine, block: PatternBlock, *, fill: bool) -> list[int]:
    """Run ``block`` through ``machine``; return its output planes.

    With ``fill`` an all-zeros pass follows the real ones, so bit
    ``passes*word_width`` of each plane is the all-zeros vector's
    output (the :func:`packed_apply` reconstruction source).
    """
    run = block.laid_out(fill=fill)
    flat = array(run.typecode)
    machine.run_packed_block(run, flat, vectors_represented=block.count)
    return run.columns(flat, machine.num_outputs)


def packed_bits(machine, vectors) -> list[list[int]]:
    """Run ``vectors`` pattern-packed; return per-vector output *bits*.

    ``vectors`` is a :class:`PatternBlock` or a list of 0/1 rows.  One
    compiled pass per ``word_width`` vectors.  Each returned
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
    word in the high bits.  One extra all-zeros pass appended to the
    batch supplies that fill word: every lane of the pass emits the
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
        # Lane 0 of the fill pass, right after the real passes.
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
