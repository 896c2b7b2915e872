"""Address traces: the unit of data every experiment consumes.

An :class:`AddressTrace` is an ordered sequence of bus cycles — address plus
(for multiplexed buses) the instruction/data select value — with enough
metadata to reproduce the paper's measurements: bus width, stride and a
human-readable provenance name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.base import SEL_DATA, SEL_INSTRUCTION
from repro.metrics.stats import StreamStatistics, stream_statistics
from repro.tracegen.layout import ADDRESS_BITS, WORD_BYTES

#: Trace kinds, matching the paper's three stream classes.
KIND_INSTRUCTION = "instruction"
KIND_DATA = "data"
KIND_MULTIPLEXED = "multiplexed"

_KINDS = (KIND_INSTRUCTION, KIND_DATA, KIND_MULTIPLEXED)


@dataclass(frozen=True)
class AddressTrace:
    """One address stream as seen on the bus."""

    name: str
    addresses: Tuple[int, ...]
    sels: Optional[Tuple[int, ...]] = None
    kind: str = KIND_INSTRUCTION
    width: int = ADDRESS_BITS
    stride: int = WORD_BYTES

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}; expected {_KINDS}")
        if self.sels is not None and len(self.sels) != len(self.addresses):
            raise ValueError(
                f"sels length {len(self.sels)} != addresses length "
                f"{len(self.addresses)}"
            )
        if self.kind == KIND_MULTIPLEXED and self.sels is None:
            raise ValueError("multiplexed traces must carry a SEL stream")
        limit = 1 << self.width
        for address in self.addresses:
            if not 0 <= address < limit:
                raise ValueError(
                    f"address {address:#x} outside {self.width}-bit bus range"
                )

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[int]:
        return iter(self.addresses)

    def effective_sels(self) -> Tuple[int, ...]:
        """The SEL stream; pure streams default to their natural constant."""
        if self.sels is not None:
            return self.sels
        value = SEL_DATA if self.kind == KIND_DATA else SEL_INSTRUCTION
        return tuple([value] * len(self.addresses))

    def statistics(self) -> StreamStatistics:
        """Summary statistics (in-sequence fraction, run lengths, …)."""
        return stream_statistics(self.addresses, self.stride)

    def head(self, count: int) -> "AddressTrace":
        """A trace containing only the first ``count`` cycles."""
        sels = self.sels[:count] if self.sels is not None else None
        return replace(self, addresses=self.addresses[:count], sels=sels)

    def instruction_slots(self) -> "AddressTrace":
        """Extract the instruction-slot sub-stream of a multiplexed trace."""
        return self._filter_slots(SEL_INSTRUCTION, KIND_INSTRUCTION)

    def data_slots(self) -> "AddressTrace":
        """Extract the data-slot sub-stream of a multiplexed trace."""
        return self._filter_slots(SEL_DATA, KIND_DATA)

    def _filter_slots(self, sel_value: int, kind: str) -> "AddressTrace":
        sels = self.effective_sels()
        picked = tuple(
            address
            for address, sel in zip(self.addresses, sels)
            if sel == sel_value
        )
        return AddressTrace(
            name=f"{self.name}.{kind}",
            addresses=picked,
            sels=None,
            kind=kind,
            width=self.width,
            stride=self.stride,
        )

    # ------------------------------------------------------------------
    # Persistence: a simple line-oriented text format, one cycle per line:
    #   <hex address> [<sel>]
    # with '#'-prefixed header lines carrying the metadata.
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace to a text file (see module docstring format)."""
        path = Path(path)
        lines: List[str] = [
            f"# name: {self.name}",
            f"# kind: {self.kind}",
            f"# width: {self.width}",
            f"# stride: {self.stride}",
        ]
        if self.sels is None:
            lines.extend(f"{address:08x}" for address in self.addresses)
        else:
            lines.extend(
                f"{address:08x} {sel}"
                for address, sel in zip(self.addresses, self.sels)
            )
        path.write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "AddressTrace":
        """Read a trace written by :meth:`save`."""
        path = Path(path)
        meta = {"name": path.stem, "kind": KIND_INSTRUCTION, "width": "32", "stride": "4"}
        addresses: List[int] = []
        sels: List[int] = []
        has_sels = False
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
                continue
            parts = line.split()
            addresses.append(int(parts[0], 16))
            if len(parts) > 1:
                has_sels = True
                sels.append(int(parts[1]))
        # A multiplexed trace carries a SEL stream even when it is empty.
        carries_sels = has_sels or meta["kind"] == KIND_MULTIPLEXED
        return cls(
            name=meta["name"],
            addresses=tuple(addresses),
            sels=tuple(sels) if carries_sels else None,
            kind=meta["kind"],
            width=int(meta["width"]),
            stride=int(meta["stride"]),
        )


def concatenate(traces: Sequence[AddressTrace], name: str = "") -> AddressTrace:
    """Join traces end to end (all must agree on kind/width/stride)."""
    if not traces:
        raise ValueError("cannot concatenate zero traces")
    first = traces[0]
    for trace in traces[1:]:
        if (trace.kind, trace.width, trace.stride) != (
            first.kind,
            first.width,
            first.stride,
        ):
            raise ValueError("traces disagree on kind/width/stride")
    addresses: List[int] = []
    sels: List[int] = []
    carries_sels = first.sels is not None
    for trace in traces:
        addresses.extend(trace.addresses)
        if carries_sels:
            if trace.sels is None:
                raise ValueError("cannot mix traces with and without SEL")
            sels.extend(trace.sels)
    return AddressTrace(
        name=name or first.name,
        addresses=tuple(addresses),
        sels=tuple(sels) if carries_sels else None,
        kind=first.kind,
        width=first.width,
        stride=first.stride,
    )
