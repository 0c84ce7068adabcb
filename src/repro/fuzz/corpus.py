"""The persistent failure corpus: replayable, minimal reproducers.

Every fuzz failure is saved as one JSON file under the corpus
directory (``fuzz-corpus/`` in this repository): the campaign seed,
the lattice point (:class:`~repro.fuzz.lattice.FuzzConfig`), the
*shrunk* circuit serialized in BENCH format, the vector tape as bit
strings, and the failure text.  Filenames are content hashes, so
re-finding the same reproducer is idempotent.

The contract that makes the corpus valuable: every entry is re-executed
by ``tests/test_fuzz_corpus.py`` as an ordinary pytest case, so a past
failure becomes a permanent regression test the moment its fix lands —
replay *passes* on healthy code and fails loudly on a regression.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, Union

from repro.errors import SimulationError
from repro.fuzz.lattice import FuzzConfig, run_check
from repro.netlist.bench import parse_bench, write_bench
from repro.netlist.circuit import Circuit

__all__ = [
    "CorpusEntry",
    "entry_from_failure",
    "save_entry",
    "load_entry",
    "load_corpus",
    "replay_entry",
]

ENTRY_VERSION = 1


@dataclass
class CorpusEntry:
    """One reproducer: a (circuit, vectors, config) triple plus context."""

    config: FuzzConfig
    bench: str
    vectors: list[list[int]]
    seed: int = 0
    error: str = ""
    shrink_steps: list[str] = field(default_factory=list)
    version: int = ENTRY_VERSION

    @property
    def entry_id(self) -> str:
        """Content hash of the reproducer (filename stem).

        The config's ``schema`` marker is metadata, not identity — the
        same (circuit, tape, lattice point) keeps its id across schema
        bumps, so committed corpus filenames stay stable.  For the same
        reason the ``workers`` axis, which schema-2 configs always
        serialized, is hashed at the one value it could keep (1).
        """
        config = {
            key: value
            for key, value in self.config.as_dict().items()
            if key != "schema"
        }
        config["workers"] = 1
        payload = json.dumps(
            [self.bench, self._tape_strings(), config],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def _tape_strings(self) -> list[str]:
        return ["".join(str(b & 1) for b in row) for row in self.vectors]

    def circuit(self) -> Circuit:
        """Parse the stored BENCH text back into a circuit."""
        return parse_bench(self.bench, name=f"corpus_{self.entry_id}")

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "seed": self.seed,
            "config": self.config.as_dict(),
            "bench": self.bench,
            "vectors": self._tape_strings(),
            "error": self.error,
            "shrink_steps": list(self.shrink_steps),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        version = data.get("version", 0)
        if version > ENTRY_VERSION:
            raise SimulationError(
                f"corpus entry version {version} is newer than this "
                f"library understands ({ENTRY_VERSION})"
            )
        vectors = [
            [int(ch) for ch in row] for row in data.get("vectors", [])
        ]
        return cls(
            config=FuzzConfig.from_dict(data["config"]),
            bench=data["bench"],
            vectors=vectors,
            seed=data.get("seed", 0),
            error=data.get("error", ""),
            shrink_steps=list(data.get("shrink_steps", [])),
            version=version,
        )


def entry_from_failure(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    config: FuzzConfig,
    *,
    seed: int = 0,
    error: str = "",
    shrink_steps: Sequence[str] = (),
) -> CorpusEntry:
    """Build a corpus entry from a (shrunk) failing triple."""
    return CorpusEntry(
        config=config,
        bench=write_bench(circuit),
        vectors=[list(v) for v in vectors],
        seed=seed,
        error=error,
        shrink_steps=list(shrink_steps),
    )


def save_entry(
    entry: CorpusEntry, corpus_dir: Union[str, Path]
) -> Path:
    """Write ``entry`` under ``corpus_dir`` (created on demand)."""
    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{entry.entry_id}.json"
    path.write_text(json.dumps(entry.as_dict(), indent=2) + "\n")
    return path


def load_entry(path: Union[str, Path]) -> CorpusEntry:
    """Read one corpus entry from disk."""
    return CorpusEntry.from_dict(json.loads(Path(path).read_text()))


def load_corpus(
    corpus_dir: Union[str, Path]
) -> list[tuple[Path, CorpusEntry]]:
    """All entries under ``corpus_dir``, sorted by filename."""
    directory = Path(corpus_dir)
    if not directory.is_dir():
        return []
    return [
        (path, load_entry(path))
        for path in sorted(directory.glob("*.json"))
    ]


def replay_entry(entry: CorpusEntry) -> int:
    """Re-run the entry's differential check on the current code.

    Returns the number of comparisons performed.  On healthy code the
    original failure is fixed and replay passes; a recurrence raises
    :class:`~repro.harness.compare.Mismatch`, failing the regression
    test that called this.
    """
    return run_check(entry.circuit(), entry.vectors, entry.config)
