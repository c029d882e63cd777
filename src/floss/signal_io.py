"""EDF and CSV recording I/O.

EDF files (the 1992 interchange format) carry a 256-byte ASCII header, one
256-byte ASCII block per signal, and 16-bit little-endian two's-complement
samples interleaved record by record.  Digital values map to physical units
through the per-signal affine calibration

    p = phys_min + (d - dig_min) * (phys_max - phys_min) / (dig_max - dig_min)

The CSV fallback stores one row per sample with a leading ``t_s`` time
column, one column per EEG channel, and optional ``accX,accY,accZ`` columns.

A channel or accelerometer axis holds its samples in one of two forms:
physical float64 values (CSV and synthetic nights), or the int16 digital
values of the EDF file it was read from, which its calibration maps to
physical ones.  Consumers ask for the physical samples of the range they
work on (``ChannelSignal.physical``, ``TriAxialAcc.physical``), so an EDF
night stays 2 bytes a sample in memory; the map is elementwise, so a range
converted alone has the bits of the whole signal converted at once.
``write_edf`` copies digital samples into its records unconverted.
"""
from __future__ import annotations

import csv
import io
import os
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import IO, TypeVar

import numpy as np

from .errors import (
    AmplitudeOutOfDeclaredRange,
    ChannelMissing,
    DigitalRangeDegenerate,
    EmptyRecording,
    EpochMultipleViolation,
    FileUnreadable,
    HeaderFieldUnparsable,
    LengthMismatchEegAcc,
    NonFiniteSamples,
    SamplingRateMismatch,
    TruncatedFile,
)
from .features import available_cpus, cpu_pool, on_pool_thread

#: (field, width) of the fixed header, in file order
_HEADER_FIELDS = (
    ("version", 8), ("patient_id", 80), ("recording_id", 80), ("start_date", 8),
    ("start_time", 8), ("header_bytes", 8), ("reserved", 44), ("n_records", 8),
    ("record_duration", 8), ("n_signals", 4),
)
#: (field, width) of the per-signal block, which holds a field's value for
#: every signal before the next field
_SIGNAL_FIELDS = (
    ("label", 16), ("transducer", 80), ("unit", 8), ("phys_min", 8), ("phys_max", 8),
    ("dig_min", 8), ("dig_max", 8), ("prefilter", 80), ("samples_per_record", 8),
    ("reserved", 32),
)
HEADER_BYTES = sum(width for _, width in _HEADER_FIELDS)
SIGNAL_HEADER_BYTES = sum(width for _, width in _SIGNAL_FIELDS)

# defaults give clean quantization steps: 0.1 uV for EEG, ~0.24 mg for ACC
DEFAULT_EEG_CALIBRATION = (-3276.8, 3276.7, -32768, 32767)
DEFAULT_ACC_CALIBRATION = (-8.0, 8.0, -32768, 32767)

ACC_AXIS_LABELS = ("ACC X", "ACC Y", "ACC Z")

#: rows ``write_csv`` formats at a time, in one task on the kept pool: a
#: numpy kernel (``_csv_rows``) writes each cell as repr does from its
#: shortest round-trip digits, and repr itself writes the few cells the
#: kernel does not certify; a block's text and temporaries stay a few MB
_CSV_BLOCK_ROWS = 8192
#: rows in flight across those tasks, one block per CPU plus one; above
#: two CPUs the blocks shrink, so the text in flight does not grow
_CSV_ROWS_IN_FLIGHT = 3 * _CSV_BLOCK_ROWS
#: bytes of CSV text ``read_csv`` parses at a time, cut after a line end,
#: in one task on the kept pool (about 2300 rows of six repr cells): a
#: numpy kernel (``_csv_columns``) reads each cell with loadtxt's bits, and
#: ``float`` the few cells it does not certify; a chunk's temporaries stay
#: a few MB
_CSV_CHUNK_BYTES = 1 << 18
#: bytes in flight across those tasks, one chunk per CPU plus one; above
#: two CPUs the chunks shrink, as ``write_csv``'s blocks do
_CSV_BYTES_IN_FLIGHT = 3 * _CSV_CHUNK_BYTES
#: one-second records ``write_edf`` interleaves at a time
_EDF_BLOCK_RECORDS = 256
#: physical samples ``to_held_digital`` converts at a time
_DIGITAL_CHUNK = 1 << 16


@contextmanager
def open_input(path: str | Path, mode: str = "r") -> Iterator[IO]:
    """Open an input file, text as UTF-8, so that reading it raises only coded errors.

    An ``OSError`` becomes ``FileUnreadable`` and undecodable text
    ``HeaderFieldUnparsable``, also where the caller's reads inside the
    ``with`` block meet them.
    """
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise HeaderFieldUnparsable(f"{path} is not UTF-8 text: {exc}") from exc


@dataclass(frozen=True)
class Calibration:
    """Affine digital-to-physical map of one EDF signal."""

    phys_min: float
    phys_max: float
    dig_min: int = -32768
    dig_max: int = 32767

    def __post_init__(self) -> None:
        if self.dig_min == self.dig_max:
            raise DigitalRangeDegenerate(
                f"digital range [{self.dig_min}, {self.dig_max}] is degenerate"
            )
        if not (self.phys_min < self.phys_max):
            raise HeaderFieldUnparsable(
                f"physical range [{self.phys_min}, {self.phys_max}] is not increasing"
            )

    def to_physical(self, digital: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        scale = (self.phys_max - self.phys_min) / (self.dig_max - self.dig_min)
        # into one array, the steps of phys_min + (digital - dig_min) * scale
        p = np.subtract(digital, self.dig_min, out=out, dtype=np.float64)
        p *= scale
        p += self.phys_min
        return p

    def to_digital(self, physical: np.ndarray) -> np.ndarray:
        scale = (self.dig_max - self.dig_min) / (self.phys_max - self.phys_min)
        # one temporary, the steps of rint((physical - phys_min) * scale + dig_min)
        d = np.subtract(physical, self.phys_min, dtype=np.float64)
        d *= scale
        d += self.dig_min
        np.rint(d, out=d)
        # a header may declare the digital range reversed
        low, high = sorted((self.dig_min, self.dig_max))
        if d.size and (d.min() < low or d.max() > high):
            raise AmplitudeOutOfDeclaredRange(
                f"samples exceed declared physical range [{self.phys_min}, {self.phys_max}]"
            )
        return d.astype(np.int16)


def is_digital(held: np.ndarray) -> bool:
    """Whether held samples are in the digital form: int16 values of an EDF file."""
    return held.dtype == np.int16


def held_physical(
    held: np.ndarray, calibration: Calibration, out: np.ndarray | None = None
) -> np.ndarray:
    """Held samples, of any shape, in physical units: digital ones through
    ``calibration``, into ``out`` when given, physical ones as they are."""
    return calibration.to_physical(held, out) if is_digital(held) else held


def to_held_digital(samples: np.ndarray, calibration: Calibration) -> np.ndarray:
    """Physical samples in the digital form, converted _DIGITAL_CHUNK at a
    time; out-of-range samples raise ``AmplitudeOutOfDeclaredRange``."""
    out = np.empty(len(samples), dtype=np.int16)
    for start in range(0, len(samples), _DIGITAL_CHUNK):
        stop = start + _DIGITAL_CHUNK
        out[start:stop] = calibration.to_digital(samples[start:stop])
    return out


@dataclass
class ChannelSignal:
    """One EEG channel in microvolts.

    ``held`` is its physical samples, or the int16 digital samples of the
    EDF file it was read from, which ``calibration`` maps to microvolts.
    """

    label: str
    held: np.ndarray
    unit: str = "uV"
    calibration: Calibration = field(
        default_factory=lambda: Calibration(*DEFAULT_EEG_CALIBRATION)
    )

    def physical(
        self, start: int = 0, stop: int | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The physical samples [start, stop); digital ones are converted
        into ``out`` when it is given."""
        return held_physical(self.held[start:stop], self.calibration, out)

    @property
    def samples(self) -> np.ndarray:
        """The whole channel in physical units; the digital form converts it
        anew on each call."""
        return self.physical()


@dataclass
class TriAxialAcc:
    """Accelerometer axes in g, sampled at the recording rate.

    ``x``, ``y`` and ``z`` are held as ``ChannelSignal.held`` is, each with
    its calibration.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    calibrations: tuple[Calibration, Calibration, Calibration] = field(
        default_factory=lambda: (
            Calibration(*DEFAULT_ACC_CALIBRATION),
            Calibration(*DEFAULT_ACC_CALIBRATION),
            Calibration(*DEFAULT_ACC_CALIBRATION),
        )
    )

    @property
    def held(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.x, self.y, self.z)

    def physical(
        self, start: int = 0, stop: int | None = None, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The physical samples [start, stop) of each axis; digital ones are
        converted into the rows of ``out``, (3, stop - start), when given."""
        rows = [None] * 3 if out is None else out
        x, y, z = (
            held_physical(axis[start:stop], cal, row)
            for axis, cal, row in zip(self.held, self.calibrations, rows)
        )
        return x, y, z

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The whole axes in physical units; the digital form converts them
        anew on each call."""
        return self.physical()

    def __len__(self) -> int:
        return len(self.x)


def _check_rate(fs: float) -> float:
    if not 0 < fs < np.inf:
        raise HeaderFieldUnparsable(f"sampling rate {fs} must be finite and positive")
    return fs


@dataclass(frozen=True)
class RecordingLayout:
    """What a night holds, without its samples: the EEG channel labels in
    file order, the sample count, the rate and whether an accelerometer is
    present."""

    channels: tuple[str, ...]
    n_samples: int
    fs: float
    has_acc: bool


@dataclass
class Recording:
    """A night of EEG (and optionally accelerometer) data at one rate."""

    channels: list[ChannelSignal]
    acc: TriAxialAcc | None
    fs: float
    start_time: datetime = datetime(2024, 1, 1, 22, 0, 0)
    device_id: str = "floss"
    #: the CSV ``t_s`` of the first sample, which ``write_csv`` counts on from
    t0_s: float = 0.0

    def __post_init__(self) -> None:
        _check_rate(self.fs)
        lengths = {len(ch.held) for ch in self.channels}
        if len(lengths) > 1:
            raise LengthMismatchEegAcc(f"channel lengths differ: {sorted(lengths)}")
        if self.acc is not None:
            if not (len(self.acc.x) == len(self.acc.y) == len(self.acc.z)):
                raise LengthMismatchEegAcc("accelerometer axes differ in length")
            if lengths and len(self.acc) not in lengths:
                raise LengthMismatchEegAcc(
                    f"accelerometer length {len(self.acc)} != EEG length {lengths.pop()}"
                )
        # digital samples are integers, always finite
        for ch in self.channels:
            if not is_digital(ch.held) and not np.all(np.isfinite(ch.held)):
                raise NonFiniteSamples(f"channel {ch.label!r} contains non-finite samples")
        if self.acc is not None:
            for axis in self.acc.held:
                if not is_digital(axis) and not np.all(np.isfinite(axis)):
                    raise NonFiniteSamples("accelerometer contains non-finite samples")

    @property
    def n_samples(self) -> int:
        if self.channels:
            return len(self.channels[0].held)
        if self.acc is not None:
            return len(self.acc)
        return 0

    @property
    def layout(self) -> RecordingLayout:
        return RecordingLayout(
            tuple(ch.label for ch in self.channels), self.n_samples, self.fs, self.acc is not None
        )


@dataclass
class EdfHeader:
    """The EDF header fields a reader uses or checks."""

    recording_id: str
    start: datetime
    header_bytes: int
    n_records: int
    record_duration: float
    n_signals: int
    labels: list[str]
    units: list[str]
    phys_min: list[float]
    phys_max: list[float]
    dig_min: list[int]
    dig_max: list[int]
    samples_per_record: list[int]


def _cut(text: str, fields: tuple[tuple[str, int], ...], n: int) -> list[dict[str, str]]:
    """The stripped fields of the n entries of a block laid out by ``fields``."""
    entries: list[dict[str, str]] = [{} for _ in range(n)]
    pos = 0
    for name, width in fields:
        for entry in entries:
            entry[name] = text[pos : pos + width].strip()
            pos += width
    return entries


def _pack(fields: tuple[tuple[str, int], ...], entries: list[dict]) -> bytes:
    """The block laid out by ``fields``; a field an entry lacks is blank."""
    return b"".join(
        _field(entry.get(name, ""), width) for name, width in fields for entry in entries
    )


def _field(value: str | float | int, width: int) -> bytes:
    if not isinstance(value, str):
        value = str(value) if isinstance(value, int) else _float_text(value, width)
    raw = value.encode("ascii", errors="replace")
    if len(raw) > width:
        raise HeaderFieldUnparsable(f"field {value!r} does not fit in {width} bytes")
    return raw.ljust(width)


def _float_text(value: float, width: int) -> str:
    """``{:g}`` when it reads back as the value and fits, else the shortest
    ``%.{p}g`` text of at most ``width`` bytes that reads back as it, else
    the one that reads back closest."""
    text = f"{value:g}"
    if float(text) != value or len(text) > width:
        # 17 significant digits read back as any float64
        fitting = [t for t in (f"{value:.{p}g}" for p in range(1, 18)) if len(t) <= width]
        if fitting:
            text = min(fitting, key=lambda t: (abs(float(t) - value), len(t)))
    return text


def _parse_float(text: str, name: str) -> float:
    try:
        v = float(text)
    except ValueError as exc:
        raise HeaderFieldUnparsable(f"{name}: cannot parse {text!r}") from exc
    if not np.isfinite(v):
        raise HeaderFieldUnparsable(f"{name}: non-finite value {text!r}")
    return v


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise HeaderFieldUnparsable(f"{name}: cannot parse {text!r}") from exc


def _ascii(raw: bytes, what: str) -> str:
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise HeaderFieldUnparsable(f"{what} is not ASCII") from exc


def parse_edf_header(raw: bytes) -> EdfHeader:
    """Parse the fixed and per-signal EDF header blocks."""
    if len(raw) < HEADER_BYTES:
        raise TruncatedFile(f"file holds {len(raw)} bytes, EDF header needs {HEADER_BYTES}")
    head = _cut(_ascii(raw[:HEADER_BYTES], "header"), _HEADER_FIELDS, 1)[0]
    header_bytes = _parse_int(head["header_bytes"], "header bytes")
    n_records = _parse_int(head["n_records"], "record count")
    record_duration = _parse_float(head["record_duration"], "record duration")
    n_signals = _parse_int(head["n_signals"], "signal count")
    if n_signals < 0:
        raise HeaderFieldUnparsable(f"signal count {n_signals} is negative")
    if n_records < 0:
        raise HeaderFieldUnparsable(f"record count {n_records} is negative")
    if n_signals and record_duration <= 0:
        raise HeaderFieldUnparsable(f"record duration {record_duration} must be positive")

    date_s, time_s = head["start_date"], head["start_time"]
    try:
        day, month, yy = (int(p) for p in date_s.split("."))
        hh, mm, ss = (int(p) for p in time_s.split("."))
        year = 1900 + yy if yy >= 85 else 2000 + yy
        start = datetime(year, month, day, hh, mm, ss)
    except (ValueError, TypeError) as exc:
        raise HeaderFieldUnparsable(f"start date/time {date_s!r} {time_s!r}") from exc

    end = HEADER_BYTES + SIGNAL_HEADER_BYTES * n_signals
    if len(raw) < end:
        raise TruncatedFile(f"file holds {len(raw)} bytes, signal headers need {end}")
    sigs = _cut(_ascii(raw[HEADER_BYTES:end], "signal header"), _SIGNAL_FIELDS, n_signals)
    header = EdfHeader(
        recording_id=head["recording_id"],
        start=start,
        header_bytes=header_bytes,
        n_records=n_records,
        record_duration=record_duration,
        n_signals=n_signals,
        labels=[s["label"] for s in sigs],
        units=[s["unit"] for s in sigs],
        phys_min=[_parse_float(s["phys_min"], "phys_min") for s in sigs],
        phys_max=[_parse_float(s["phys_max"], "phys_max") for s in sigs],
        dig_min=[_parse_int(s["dig_min"], "dig_min") for s in sigs],
        dig_max=[_parse_int(s["dig_max"], "dig_max") for s in sigs],
        samples_per_record=[
            _parse_int(s["samples_per_record"], "samples per record") for s in sigs
        ],
    )
    for i, n in enumerate(header.samples_per_record):
        if n <= 0:
            raise HeaderFieldUnparsable(f"signal {i}: samples per record {n} must be positive")
    return header


def _acc_axis(label: str) -> str | None:
    tail = label.strip().upper().rstrip()
    for sep in (" ", "_", "-"):
        tail = tail.split(sep)[-1]
    return tail if tail in ("X", "Y", "Z") else None


@dataclass(frozen=True)
class _EdfSignals:
    """The roles of an EDF file's signals: its one rate, the EEG signals and
    the accelerometer axes (signal indices), and every signal's calibration."""

    fs: float
    eeg: list[int]
    acc: dict[str, int]
    calibrations: list[Calibration]


def _edf_signals(header: EdfHeader) -> _EdfSignals:
    """The roles ``read_edf`` gives an EDF file's signals, from its header."""
    rates = {spr / header.record_duration for spr in header.samples_per_record}
    if len(rates) > 1:
        raise SamplingRateMismatch(f"signals declare multiple rates: {sorted(rates)}")
    calibrations = [
        Calibration(*fields)
        for fields in zip(header.phys_min, header.phys_max, header.dig_min, header.dig_max)
    ]
    eeg: list[int] = []
    acc: dict[str, int] = {}
    for i, (label, unit) in enumerate(zip(header.labels, header.units)):
        axis = _acc_axis(label)
        if unit == "uV":
            eeg.append(i)
        elif unit == "g" and axis is not None:
            acc[axis] = i
    if acc:
        missing = [a for a in ("X", "Y", "Z") if a not in acc]
        if missing:
            raise ChannelMissing(f"accelerometer axes missing: {missing}")
    return _EdfSignals(_check_rate(rates.pop()) if rates else 1.0, eeg, acc, calibrations)


def _read_edf_header(handle: IO[bytes]) -> tuple[EdfHeader, _EdfSignals, int]:
    """Read and check the EDF header at the start of ``handle``, leaving the
    handle at the payload.

    Returns the header, its signals' roles and the number of 16-bit samples
    of the payload, which the file must hold whole.
    """
    raw = handle.read(HEADER_BYTES)
    try:  # the signal count is the fixed header's last field
        n_signals = max(int(raw[HEADER_BYTES - 4 :]), 0)
    except ValueError:
        n_signals = 0  # parse_edf_header names the fault
    raw += handle.read(SIGNAL_HEADER_BYTES * n_signals)
    header = parse_edf_header(raw)
    signals = _edf_signals(header)
    count = header.n_records * sum(header.samples_per_record)
    payload = os.fstat(handle.fileno()).st_size - len(raw)
    if payload < 2 * count:
        raise TruncatedFile(f"data payload holds {payload} bytes, header declares {2 * count}")
    return header, signals, count


def read_edf_layout(path: str | Path) -> RecordingLayout:
    """An EDF night's layout from its header alone; no sample is read.

    The header is checked as ``read_edf`` checks it, so a night it lays out
    reads whole unless its samples themselves are at fault.
    """
    with open_input(path, "rb") as handle:
        header, signals, _ = _read_edf_header(handle)
    n_samples = header.n_records * header.samples_per_record[0] if header.n_signals else 0
    labels = tuple(header.labels[i] for i in signals.eeg)
    return RecordingLayout(labels, n_samples, signals.fs, bool(signals.acc))


def read_edf(path: str | Path) -> Recording:
    """Read an EDF file, each signal held as its digital samples.

    EEG channels are the signals declared in microvolts; signals declared
    in g with labels ending in X/Y/Z populate the accelerometer, which needs
    all three.  All signals must share one sampling rate; signals of other
    units take no part in analysis.
    """
    with open_input(path, "rb") as handle:
        header, signals, count = _read_edf_header(handle)
        payload = handle.read(2 * count)
    shape = (header.n_records, sum(header.samples_per_record))
    data = np.frombuffer(payload, "<i2", count).reshape(shape)
    offsets = np.cumsum([0] + header.samples_per_record)

    def digital(i: int) -> np.ndarray:
        return np.ascontiguousarray(data[:, offsets[i] : offsets[i + 1]], np.int16).reshape(-1)

    channels = [
        ChannelSignal(header.labels[i], digital(i), header.units[i], signals.calibrations[i])
        for i in signals.eeg
    ]
    acc: TriAxialAcc | None = None
    if signals.acc:
        axes = [signals.acc[a] for a in ("X", "Y", "Z")]
        acc = TriAxialAcc(
            *(digital(i) for i in axes),
            calibrations=tuple(signals.calibrations[i] for i in axes),
        )

    return Recording(channels, acc, signals.fs, header.start, header.recording_id)


def write_edf(rec: Recording, path: str | Path) -> None:
    """Write a recording as plain EDF with one-second data records.

    The sample count must span whole seconds and the rate must be an
    integer; out-of-range samples raise rather than clip.  Digital samples
    are copied into the records; physical ones are converted.
    """
    fs = rec.fs
    if fs != int(fs):
        raise SamplingRateMismatch(f"EDF writer requires an integer sampling rate, got {fs}")
    fs = int(fs)
    n = rec.n_samples
    if n % fs != 0:
        raise EpochMultipleViolation(f"{n} samples do not span whole seconds at {fs} Hz")
    n_records = n // fs

    signals: list[tuple[str, str, Calibration, np.ndarray]] = []
    for ch in rec.channels:
        signals.append((ch.label, ch.unit, ch.calibration, ch.held))
    if rec.acc is not None:
        for label, cal, axis in zip(ACC_AXIS_LABELS, rec.acc.calibrations, rec.acc.held):
            signals.append((label, "g", cal, axis))
    ns = len(signals)

    head = {
        "version": "0",
        "patient_id": "X",
        "recording_id": rec.device_id,
        "start_date": rec.start_time.strftime("%d.%m.%y"),
        "start_time": rec.start_time.strftime("%H.%M.%S"),
        "header_bytes": HEADER_BYTES + SIGNAL_HEADER_BYTES * ns,
        "n_records": n_records if ns else 0,
        "record_duration": 1,
        "n_signals": ns,
    }
    sigs = [
        {
            "label": label,
            "unit": unit,
            "phys_min": cal.phys_min,
            "phys_max": cal.phys_max,
            "dig_min": cal.dig_min,
            "dig_max": cal.dig_max,
            "samples_per_record": fs,
        }
        for label, unit, cal, _ in signals
    ]
    header = _pack(_HEADER_FIELDS, [head]) + _pack(_SIGNAL_FIELDS, sigs)
    # the file opens once every sample fits; to_physical and to_digital are
    # monotone, so a signal's extremes go out of range wherever any of its
    # samples does, and a digital one's wherever its round trip would
    for _, _, cal, held in signals:
        if len(held):
            cal.to_digital(held_physical(np.array([held.min(), held.max()]), cal))
    with open(path, "wb") as out:
        out.write(header)
        # a block of records at a time, so no whole-signal copy exists
        for start in range(0, n_records, _EDF_BLOCK_RECORDS):
            stop = min(start + _EDF_BLOCK_RECORDS, n_records)
            record = np.empty((stop - start, ns, fs), dtype="<i2")
            for i, (_, _, cal, held) in enumerate(signals):
                part = held[start * fs : stop * fs]
                if not is_digital(part):
                    part = cal.to_digital(part)
                record[:, i] = part.reshape(-1, fs)
            out.write(record)


def read_csv(path: str | Path) -> Recording:
    """Read the CSV fallback format into a recording.

    The first column must be ``t_s``; ``accX,accY,accZ`` columns populate
    the accelerometer and every other column becomes an EEG channel.  The
    file is UTF-8, a cell may be double-quoted, and ``#`` starts no comment.

    Each cell reads as ``np.loadtxt`` reads it.  The body is read in chunks
    cut at line ends, parsed by ``_csv_columns`` as tasks on the kept pool,
    at most one per CPU plus one in flight; a night holding any form that
    kernel does not take is read again, whole, by ``np.loadtxt``.
    """
    with open_input(path, "rb") as handle:
        # the first line as a text reader sees it: \r\n and \r end lines too
        first = handle.readline()
        if not first:
            raise EmptyRecording(f"{path} has no header row")
        line, _, rest = _universal_newlines(first).partition(b"\n")
        try:
            names = next(csv.reader([line.decode("utf-8") + "\n"]))
        except csv.Error as exc:  # a name past csv's field size limit
            raise HeaderFieldUnparsable(f"{path}: {exc}") from exc
        if not names or names[0] != "t_s":
            raise HeaderFieldUnparsable(f"first CSV column must be t_s, got {names[:1]}")
        columns = _read_columns(handle, rest, len(names))
    if columns is None:
        columns = list(_loadtxt_table(path).T)
    if len(columns) != len(names):
        raise HeaderFieldUnparsable(f"{path}: rows hold {len(columns)} of {len(names)} cells")
    t = columns[0]
    if len(t) < 2:
        raise EmptyRecording(f"{path} holds {len(t)} samples; need at least 2")
    if not all(np.all(np.isfinite(column)) for column in columns):
        raise NonFiniteSamples(f"{path} contains non-finite values")

    dt = np.diff(t)
    # t_s values round to floats at most an ulp of the largest |t| apart,
    # which moves one dt by up to that ulp against another; allow two
    slack = 1e-6 * dt.mean() + 2 * np.spacing(np.abs(t).max())
    if dt.min() <= 0 or (dt.max() - dt.min()) > slack:
        raise SamplingRateMismatch("t_s column does not advance at one uniform rate")
    fs = (len(t) - 1) / (t[-1] - t[0])
    if abs(fs - round(fs)) < 1e-6 * fs:
        fs = float(round(fs))

    channels: list[ChannelSignal] = []
    acc_cols: dict[str, np.ndarray] = {}
    for name, column in zip(names[1:], columns[1:]):
        if name in ("accX", "accY", "accZ"):
            acc_cols[name[-1].upper()] = column
        else:
            channels.append(ChannelSignal(name, column))

    acc: TriAxialAcc | None = None
    if acc_cols:
        missing = [a for a in ("X", "Y", "Z") if a not in acc_cols]
        if missing:
            raise ChannelMissing(f"accelerometer columns missing: acc{missing[0]}")
        acc = TriAxialAcc(x=acc_cols["X"], y=acc_cols["Y"], z=acc_cols["Z"])

    return Recording(channels=channels, acc=acc, fs=fs, t0_s=float(t[0]))


def _universal_newlines(text: bytes) -> bytes:
    """``text`` with its \\r\\n and \\r line ends as \\n, as a text reader sees them."""
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return text


def _read_columns(handle: IO[bytes], head: bytes, n_cols: int) -> list[np.ndarray] | None:
    """The columns of a CSV body, ``head`` and then the rest of ``handle``,
    or None where a chunk holds a form ``_csv_columns`` does not take.

    Each chunk's columns are kept apart until the end, so joining a column
    frees its parts before the next is joined.  Each thread parses its
    chunks in its own ``_Scratch``.
    """
    size = min(_CSV_CHUNK_BYTES, _CSV_BYTES_IN_FLIGHT // (available_cpus() + 1))
    parts: list[list[np.ndarray]] = [[] for _ in range(n_cols)]
    scratches: dict[int, _Scratch] = {}

    def parse(chunk: bytes) -> list[np.ndarray] | None:
        scratch = scratches.get(threading.get_ident())
        if scratch is None:
            scratch = scratches[threading.get_ident()] = _Scratch()
        return _csv_columns(chunk, n_cols, scratch)

    chunks = _in_order(parse, _line_chunks(handle, head, size))
    for columns in chunks:
        if columns is None:
            chunks.close()
            return None
        for part, column in zip(parts, columns):
            part.append(column)
    out = []
    for part in parts:
        out.append(np.concatenate(part) if part else np.empty(0))
        part.clear()
    return out


def _line_chunks(handle: IO[bytes], head: bytes, size: int) -> Iterator[bytes]:
    """``head`` and the rest of ``handle`` in chunks of about ``size``
    bytes, each cut after a line end (\\n or \\r), the last at the end."""
    carry = head
    while block := handle.read(size):
        block = carry + block
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        if cut:
            yield block[:cut]
        carry = block[cut:]
    if carry:
        yield carry


def _loadtxt_table(path: str | Path) -> np.ndarray:
    """The rows after a CSV night's header row as ``np.loadtxt`` reads them."""
    with open_input(path) as handle:
        handle.readline()
        try:
            return np.loadtxt(handle, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except ValueError as exc:
            raise HeaderFieldUnparsable(f"{path}: {exc}") from exc


def write_csv(rec: Recording, path: str | Path) -> None:
    """Write a recording in the CSV fallback format.

    The header is written as ``csv.writer`` writes it, so a label that
    holds a comma or a quote reads back.  Every sample is written as
    ``repr`` writes it: blocks of at most ``_CSV_BLOCK_ROWS`` rows are
    formatted by ``_csv_rows`` as tasks on the kept pool, at most one per
    CPU plus one and ``_CSV_ROWS_IN_FLIGHT`` rows in flight, and written in
    order.
    """
    names = ["t_s"] + [ch.label for ch in rec.channels]
    columns = [(ch.held, ch.calibration) for ch in rec.channels]
    if rec.acc is not None:
        names += ["accX", "accY", "accZ"]
        columns += list(zip(rec.acc.held, rec.acc.calibrations))
    # _in_order keeps one block per CPU plus one in flight
    block_rows = max(1, min(_CSV_BLOCK_ROWS, _CSV_ROWS_IN_FLIGHT // (available_cpus() + 1)))

    def block(start: int) -> bytes:
        stop = min(start + block_rows, rec.n_samples)
        table = np.empty((stop - start, 1 + len(columns)))
        table[:, 0] = rec.t0_s + np.arange(start, stop) / rec.fs
        for j, (held, cal) in enumerate(columns, start=1):
            table[:, j] = held_physical(held[start:stop], cal)
        return _csv_rows(table)

    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(names)
    with open(path, "wb") as out:
        out.write(header.getvalue().encode("utf-8"))
        for text in _in_order(block, range(0, rec.n_samples, block_rows)):
            out.write(text)


_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


def _in_order(fn: Callable[[_Item], _Result], items: Iterable[_Item]) -> Iterator[_Result]:
    """``fn`` of every item, in order, as tasks on the kept pool, with at
    most one task per CPU plus one in flight; items are drawn as tasks are
    submitted.  Closing the iterator cancels the tasks not yet started.

    Called from a task on the pool, which may not wait on it, the calls run
    on the calling thread.
    """
    if on_pool_thread():
        yield from map(fn, items)
        return
    pool, ahead = cpu_pool(), available_cpus() + 1
    pending: deque[Future[_Result]] = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == ahead:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


#: 10**0 .. 10**22, each exact in float64
_POW10 = 10.0 ** np.arange(23)
#: half-width of the band around a rounding tie that the kernels do not
#: certify: for ``_shortest``, in units of the 17th significant digit, also
#: around an edge of a value's rounding interval, where its arithmetic errs
#: by under 1e-13; for ``_decimal_cells``, in ulps
_MARGIN = 1e-6
#: bytes of a formatted cell: repr of a float takes at most 24, then ``,``
_CELL = 25


def _digit_pairs() -> np.ndarray:
    """ASCII of 00 to 99 as little-endian uint16, then of the same pairs as
    trailing zeros of a number, where each zero digit is NUL instead."""
    pairs = [f"{i:02d}" for i in range(100)]
    trailing = [f"{i // 10}\0" if i % 10 == 0 else f"{i:02d}" for i in range(100)]
    trailing[0] = "\0\0"
    return np.frombuffer("".join(pairs + trailing).encode(), dtype="<u2")


_DIGIT_PAIRS = _digit_pairs()


def _split(x: np.ndarray, high: np.ndarray, low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of x, by 2**27 + 1, into high + low of 26 bits
    each, into the arrays given."""
    np.multiply(x, 134217729.0, out=high)
    np.subtract(high, x, out=low)
    np.subtract(high, low, out=high)
    np.subtract(x, high, out=low)
    return high, low


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi and lo with hi + lo == a * b exactly (Dekker's product)."""
    hi = a * b
    ah, al = _split(a, np.empty_like(a), np.empty_like(a))
    bh, bl = _split(b, np.empty_like(b), np.empty_like(b))
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _near(d: np.ndarray, h: np.ndarray) -> np.ndarray:
    return np.abs(np.abs(d) - h) < _MARGIN


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits of each value: the shortest that read back to it.

    Returns them as a 17-digit integer padded with zeros, the position of
    the decimal point (``0.d1d2... * 10**decpt``), and whether the value is
    certified.  The candidates are x rounded to nearest at 15, 16 and 17
    digits, all derived from x * 10**s held exactly as hi + lo; the
    shortest that lies inside x's rounding interval is repr's (at most one
    15-digit number lies inside it, and where two 16- or 17-digit numbers
    do, repr takes the nearer).  A value is not certified outside repr's
    fixed notation (1e-4 <= |x| < 1e16), at zero, a subnormal or a power of
    two (whose interval is lopsided), near a tie, where repr rounds half to
    even, near an interval edge, or where rounding carries into another
    digit.
    """
    bits = x.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.int64) & 0x7FF
    ok = (biased >= 1023 - 14) & (biased <= 1023 + 53) & ((bits << np.uint64(12)) != 0)
    biased[~ok] = 1023
    ax = np.abs(x)
    ax[~ok] = 1.5
    # x * 10**s in [1e16, 1e17); floor(e2 * log10(2)) is at most one under
    s = 16 - (((biased - 1023) * 78913) >> 18)
    p10 = _POW10[s]
    over = ax * p10 >= 1e17
    s -= over
    np.divide(p10, 10.0, out=p10, where=over)
    hi, lo = _two_product(ax, p10)
    ok &= ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (hi < 1e17) & (s >= 1) & (s <= 20)
    # x * 10**s == n17 + r, |r| <= 1/2, and x's rounding interval is that +- h
    k = np.rint(lo)
    r = lo - k
    n17 = hi.astype(np.int64) + k.astype(np.int64)
    h = ((biased - 53) << 52).view(np.float64) * p10
    q16 = n17 // 10
    m16 = n17 - q16 * 10
    t16 = (m16 - 5) + r
    up16 = t16 > 0
    d16 = (up16 * 10 - m16) - r
    q15 = q16 // 10
    m15 = n17 - q15 * 100
    up15 = (m15 - 50) + r > 0
    d15 = (up15 * 100 - m15) - r
    ok &= ~(_near(d15, h) | _near(d16, h) | (np.abs(t16) < _MARGIN) | (np.abs(r) > 0.5 - _MARGIN))
    digits = np.where(
        np.abs(d15) < h, (q15 + up15) * 100, np.where(np.abs(d16) < h, (q16 + up16) * 10, n17)
    )
    ok &= digits < 10**17
    return digits, 17 - s, ok


def _csv_rows(table: np.ndarray) -> bytes:
    """The rows of a float64 table as CSV text, each cell as ``repr`` writes it.

    ``_shortest`` gives the digits, and each cell is laid out in a
    NUL-padded ``_CELL``-byte slot: cells are sorted by layout (sign and
    decimal point position, zero, or not certified) so that one slice
    assignment lays out a group.  ``repr`` writes the cells that are not
    certified.  The text is the slots in row order with the NULs removed.
    """
    x = np.ascontiguousarray(table, dtype=np.float64).reshape(-1)
    n = len(x)
    digits, decpt, ok = _shortest(x)
    neg = np.signbit(x)
    # layout groups: (decpt + 3) * 2 + sign for certified cells (decpt -3 to
    # 16), 40 + sign for zeros, 42 for the cells repr writes
    key = np.where(ok, (decpt + 3) * 2 + neg, np.where(x == 0, 40 + neg, 42)).astype(np.int8)
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=43)
    chars = _digit_chars(digits[order])

    text = np.zeros((n, _CELL), dtype=np.uint8)
    start = 0
    for group, count in enumerate(counts[:42]):
        rows = slice(start, start + count)
        start += count
        if not count:
            continue
        sign = group % 2
        if sign:
            text[rows, 0] = ord("-")
        if group >= 40:
            text[rows, sign : sign + 3] = np.frombuffer(b"0.0", dtype=np.uint8)
            continue
        dp = group // 2 - 3
        if dp > 0:
            # zeros of the integer part are digits, not trailing NULs
            np.maximum(chars[rows, 3 : 3 + dp], ord("0"), out=text[rows, sign : sign + dp])
            dot = sign + dp
        else:
            text[rows, sign] = ord("0")
            dot = sign + 1
        text[rows, dot] = ord(".")
        # the fraction, leading zeros first where dp < 0; it keeps one digit
        text[rows, dot + 1 : dot + 18 - dp] = chars[rows, 3 + dp :]
        np.maximum(text[rows, dot + 1], ord("0"), out=text[rows, dot + 1])
    if start < n:
        cells = np.array([repr(v) for v in x[order[start:]].tolist()], dtype=f"S{_CELL - 1}")
        text[start:, : _CELL - 1] = cells.view(np.uint8).reshape(-1, _CELL - 1)

    slots = np.empty_like(text)
    slots.view(f"V{_CELL}")[order] = text.view(f"V{_CELL}")
    slots[:, -1] = ord(",")
    slots.reshape(table.shape[0], table.shape[1] * _CELL)[:, -1] = ord("\n")
    flat = slots.reshape(-1)
    return flat[flat != 0].tobytes()


def _digit_chars(digits: np.ndarray) -> np.ndarray:
    """(n, 20) ASCII of 17-digit integers, each after "000", with the
    trailing zeros of each NUL."""
    pairs = np.empty((len(digits), 10), dtype="<u2")
    pairs[:, 0] = _DIGIT_PAIRS[0]
    top = digits // 10**8
    halves = np.stack([digits - top * 10**8, top]).astype(np.uint32)
    trailing = np.full(len(digits), 100, dtype=np.uint32)
    col = 9
    # from the last pair: a pair is trailing (read from the table's second
    # half) until one that is not 00
    for v in halves:
        for _ in range(4):
            q = v // 100
            p = v - q * 100 + trailing
            pairs[:, col] = _DIGIT_PAIRS.take(p)
            trailing[p != 100] = 0
            v = q
            col -= 1
    pairs[:, 1] = _DIGIT_PAIRS.take(v + trailing)
    return pairs.view(np.uint8)


#: bytes of a cell's mantissa ``_decimal_cells`` reads at once; repr
#: writes at most 24 bytes a cell
_WINDOW = 24
#: SWAR constants: eight ASCII zeros, and the masks and multipliers that
#: fold eight digit bytes, first digit lowest, into their 8-digit number
_ZEROS8 = np.uint64(0x3030303030303030)
_PAIRS = np.uint64(0x000000FF000000FF)
_MUL_HI = np.uint64(100 + (1000000 << 32))
_MUL_LO = np.uint64(1 + (10000 << 32))
#: by the column c = 0..24 of a cell's first byte in its window: the masks
#: of the window's three words that keep the bytes from c on
_KEEP_FROM = np.array(
    [[~0 << 8 * min(max(c - k, 0), 8) & 2**64 - 1 for k in (0, 8, 16)] for c in range(25)],
    dtype=np.uint64,
)
#: 10**0 .. 10**19, each exact in uint64
_POW10_U64 = 10 ** np.arange(20, dtype=np.uint64)


class _Scratch:
    """Arrays one thread reuses, by name, from chunk to chunk.

    A chunk's arrays made anew go back to the system when freed, and their
    pages are faulted in again for the next chunk: on a 20-min six-column
    night read on 2 CPUs that cost about a third of the read.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, n: int, dtype: type = np.int64) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None or len(array) < n:
            array = self._arrays[name] = np.empty(n, dtype)
        return array[:n]


#: 10**0 .. 10**22, each split as ``_split`` splits it
_POW10_HIGH, _POW10_LOW = _split(_POW10, np.empty(23), np.empty(23))


def _csv_columns(chunk: bytes, n_cols: int, scratch: _Scratch) -> list[np.ndarray] | None:
    """The columns of a chunk of whole CSV lines, each cell with the bits
    ``np.loadtxt`` gives it, or None where the chunk holds anything but
    cells of the form ``-?digits[.digits][e[+-]digits]`` (either digits may
    be absent, not both), ``n_cols`` to a line: a quote, a space, a leading
    ``+``, non-ASCII text, a row of another cell count, an empty cell.

    Blank lines are skipped, and \\r\\n or \\r end a line.  ``_decimal_cells``
    reads the cells; ``float``, which rounds as loadtxt does, reads those
    it does not certify.
    """
    chunk = _universal_newlines(chunk)
    if not chunk.endswith(b"\n"):
        chunk += b"\n"
    data = scratch("text", _WINDOW + len(chunk), np.uint8)
    data[:_WINDOW] = ord("0")
    data[_WINDOW:] = np.frombuffer(chunk, dtype=np.uint8)
    mask = scratch("mask", len(data), bool)
    # the form allows only ",\n-.+" below "0" and "e" above "9"
    marks = np.count_nonzero(np.less(data, ord("0"), out=mask))
    letters = np.count_nonzero(np.greater(data, ord("9"), out=mask))
    is_end = np.less(data, ord("-"), out=mask)
    if b"+" in chunk:
        is_end &= data != ord("+")
    end = np.flatnonzero(is_end)
    line_end = data.take(end) == ord("\n")
    commas = np.count_nonzero(np.equal(data, ord(","), out=mask))
    if commas + np.count_nonzero(line_end) != len(end):
        return None  # another byte below "-", such as a space or a quote
    marks -= len(end)
    start = scratch("start", len(end))
    start[0] = _WINDOW
    np.add(end[:-1], 1, out=start[1:])
    # an empty cell ended by a line end, after a line end, is a blank line
    blank = (start == end) & line_end
    blank[1:] &= line_end[:-1]
    if blank.any():
        keep = ~blank
        start, end, line_end = start[keep], end[keep], line_end[keep]
    rows = len(end) // n_cols
    if (
        rows * n_cols != len(end)
        or np.count_nonzero(line_end) != rows
        or not line_end[n_cols - 1 :: n_cols].all()
    ):
        return None
    if not rows:
        return [np.empty(0) for _ in range(n_cols)]
    cells = _decimal_cells(data, start, end, scratch, marks, letters)
    if cells is None:
        return None
    values, certified = cells
    for i in np.flatnonzero(~certified).tolist():
        values[i] = float(data[start[i] : end[i]].tobytes())
    table = values.reshape(rows, n_cols)
    return [table[:, j].copy() for j in range(n_cols)]


def _owners(marks: np.ndarray, end: np.ndarray) -> np.ndarray | slice | None:
    """The cells of the marks (byte positions that end no cell), as an
    index, or None where a cell holds two."""
    if len(marks) == len(end) and (marks < end).all() and (marks[1:] > end[:-1]).all():
        return slice(None)
    owner = np.searchsorted(end, marks)
    return owner if (owner[1:] > owner[:-1]).all() else None


def _decimal_cells(
    data: np.ndarray, start: np.ndarray, end: np.ndarray, scratch: _Scratch, marks: int,
    letters: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The float64 value of each cell ``data[start:end]`` and whether it is
    certified, or None where a cell is not of ``_csv_columns``' form; the
    values are ``scratch``'s.

    ``data`` begins with ``_WINDOW`` ASCII zeros; besides digits and the
    cells' ends, it holds ``marks`` bytes below "0" and ``letters`` above
    "9".  The form is checked by counts: a cell may hold a sign first, a
    point and an ``e`` with a sign after it, and at least one digit before
    the ``e`` and after it, and those must be all the marks and letters.

    A cell's mantissa, read as the three uint64 words that end with it, its
    sign and point and the bytes before it made zeros, folds by SWAR
    multiplies into an exact integer with a zero in the point's place, from
    which integer division drops that zero.  That integer times or over an
    exact power of ten is rounded once, so it is exact below 2**53; above,
    the float nearest the integer is off by an exact integer, and Dekker's
    product gives the residual that corrects the quotient.

    A cell is not certified when its mantissa is wider than the window or
    its digits, the point's place among them, number more than 19, when
    its exponent has more than 3 digits or its scale lies outside 10**±22,
    when it is above 2**53 and scaled up, or when its corrected value is
    within _MARGIN ulp of a rounding tie or is a power of two (whose ulp
    below is half).
    """
    n = len(end)
    mask = scratch("mask", len(data), bool)
    neg = data.take(start) == ord("-")
    minus = np.count_nonzero(neg)
    mantissa_end, plus = end, 0
    exponents = letters > 0
    if exponents:
        e_at = np.flatnonzero(np.equal(data, ord("e"), out=mask))
        e_cell = _owners(e_at, end)
        if e_cell is None or len(e_at) != letters:
            return None
        sign = data.take(e_at + 1)
        e_minus, e_plus = sign == ord("-"), sign == ord("+")
        digits = end[e_cell] - e_at - 1 - (e_minus | e_plus)
        if digits.min() < 1:
            return None
        minus += np.count_nonzero(e_minus)
        plus = np.count_nonzero(e_plus)
        # the last three digits; a longer exponent is not certified
        last = data.take(end[e_cell][:, None] - np.arange(1, 4)).astype(np.int64) - ord("0")
        last *= (np.arange(3) < digits[:, None]) * np.array([1, 10, 100])
        exponent = np.where(e_minus, -last.sum(axis=1), last.sum(axis=1))
        mantissa_end = end.copy()
        mantissa_end[e_cell] = e_at
    dot_at = np.flatnonzero(np.equal(data, ord("."), out=mask))
    cell = _owners(dot_at, end)
    # the signs and points found are all the marks only if no other byte
    # below "0" is there, and no "-" or "+" out of place
    if cell is None or minus + len(dot_at) + plus != marks:
        return None
    # the digits after the point, -1 without one; a point after the e
    # leaves fewer
    fraction = scratch("fraction", n)
    fraction[:] = -1
    fraction[cell] = mantissa_end[cell] - 1 - dot_at
    width = np.subtract(mantissa_end, start, out=scratch("width", n))
    if fraction.min() < -1 or (width <= np.add(neg, fraction >= 0, dtype=np.int8)).any():
        return None
    scale = np.maximum(fraction, 0, out=scratch("scale", n))
    np.negative(scale, out=scale)

    # the mantissa's three words, its sign and point and the bytes before
    # it read as zeros: below "0" the form allows only ",\n-.+"
    zeros = np.maximum(data, ord("0"), out=scratch("zeros", len(data), np.uint8))
    words = np.ndarray((len(zeros) - 7,), dtype="<u8", buffer=zeros, strides=(1,))
    window = np.lib.stride_tricks.as_strided(words, (len(words) - 16, 3), (1, 8))
    index = np.subtract(mantissa_end, _WINDOW, out=scratch("index", n))
    x = window[index]
    x -= _ZEROS8
    np.subtract(_WINDOW, width, out=index)
    np.maximum(index, 0, out=index)
    t = _KEEP_FROM.take(index, axis=0, out=scratch("words", 3 * n, np.uint64).reshape(n, 3))
    x &= t
    # x * 10 + (x >> 8), then its pairs of pairs, in place
    np.right_shift(x, np.uint64(8), out=t)
    x *= np.uint64(10)
    x += t
    np.right_shift(x, np.uint64(16), out=t)
    t &= _PAIRS
    t *= _MUL_LO
    x &= _PAIRS
    x *= _MUL_HI
    x += t
    x >>= np.uint64(32)
    mantissa = np.multiply(x[:, 0], np.uint64(10**16), out=scratch("mantissa", n, np.uint64))
    mantissa += np.multiply(x[:, 1], np.uint64(10**8), out=t[:, 0])
    mantissa += x[:, 2]
    certified = (width <= _WINDOW) & (x[:, 0] < 1000)
    if exponents:
        scale[e_cell] += exponent
        certified[e_cell] &= digits <= 3
    magnitude = np.abs(scale, out=index)
    certified &= magnitude <= 22
    mantissa *= certified
    # the point's zero out: d * 10**(f + 1) + r less r, over 10, plus r,
    # where r < 10**f; without a point (f = -1, which takes 10**19), r is
    # the whole
    places = np.minimum(fraction, 19, out=fraction)
    low = np.take(_POW10_U64, places, out=scratch("low", n, np.uint64))
    np.remainder(mantissa, low, out=low)
    mantissa -= low
    mantissa //= np.uint64(10)
    mantissa += low
    big = mantissa > np.uint64(2**53)

    m = scratch("m", n, np.float64)
    m[:] = mantissa
    np.minimum(magnitude, 22, out=magnitude)
    p10 = np.take(_POW10, magnitude, out=scratch("p10", n, np.float64))
    value = np.divide(m, p10, out=scratch("value", n, np.float64))
    if exponents:
        up = scale > 0
        np.multiply(m, p10, out=value, where=up)
        certified &= ~(big & up)
        big &= ~up
    if big.any():
        # m + r is the mantissa, exactly
        np.copyto(low, m, casting="unsafe")
        np.subtract(mantissa, low, out=low)
        r = scratch("r", n, np.float64)
        r[:] = low.view(np.int64)
        # hi + lo is value * p10 exactly (Dekker's product), and the exact
        # quotient less ``value`` is delta = (m + r - hi - lo) / p10
        hi, lo, a = (scratch(name, n, np.float64) for name in ("hi", "lo", "a"))
        vh, vl = _split(value, scratch("vh", n, np.float64), scratch("vl", n, np.float64))
        ph = np.take(_POW10_HIGH, magnitude, out=scratch("ph", n, np.float64))
        pl = np.take(_POW10_LOW, magnitude, out=scratch("pl", n, np.float64))
        np.multiply(value, p10, out=hi)
        np.multiply(vh, ph, out=lo)
        lo -= hi
        for u, v in ((vh, pl), (vl, ph), (vl, pl)):
            lo += np.multiply(u, v, out=a)
        delta = np.subtract(m, hi, out=a)
        delta -= lo
        delta += r
        delta /= p10
        delta *= big
        fixed = np.add(value, delta, out=hi)
        # fixed is the nearest float unless the quotient is within _MARGIN
        # ulp of a tie, or fixed a power of two
        off = np.subtract(value, fixed, out=lo)
        off += delta
        np.abs(off, out=off)
        limit = np.spacing(fixed, out=vh)
        limit *= 0.5 - _MARGIN
        certified &= off < limit
        two = np.bitwise_and(fixed.view(np.int64), 2**52 - 1, out=index) == 0
        certified &= ~(two & big)
        value = fixed
    sign = scratch("sign", n, np.uint64)
    sign[:] = neg
    sign <<= np.uint64(63)
    value.view(np.uint64)[:] |= sign
    return value, certified
