"""EDF and CSV recording I/O.

EDF files (the 1992 interchange format) carry a 256-byte ASCII header, one
256-byte ASCII block per signal, and 16-bit little-endian two's-complement
samples interleaved record by record.  Digital values map to physical units
through the per-signal affine calibration

    p = phys_min + (d - dig_min) * (phys_max - phys_min) / (dig_max - dig_min)

The CSV fallback stores one row per sample with a leading ``t_s`` time
column, one column per EEG channel, and optional ``accX,accY,accZ`` columns.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

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

HEADER_BYTES = 256
SIGNAL_HEADER_BYTES = 256

# defaults give clean quantization steps: 0.1 uV for EEG, ~0.24 mg for ACC
DEFAULT_EEG_CALIBRATION = (-3276.8, 3276.7, -32768, 32767)
DEFAULT_ACC_CALIBRATION = (-8.0, 8.0, -32768, 32767)

ACC_AXIS_LABELS = ("ACC X", "ACC Y", "ACC Z")


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

    def to_physical(self, digital: np.ndarray) -> np.ndarray:
        scale = (self.phys_max - self.phys_min) / (self.dig_max - self.dig_min)
        return self.phys_min + (digital.astype(np.float64) - self.dig_min) * scale

    def to_digital(self, physical: np.ndarray) -> np.ndarray:
        scale = (self.dig_max - self.dig_min) / (self.phys_max - self.phys_min)
        d = np.rint((np.asarray(physical, dtype=np.float64) - self.phys_min) * scale + self.dig_min)
        if d.size and (d.min() < self.dig_min or d.max() > self.dig_max):
            raise AmplitudeOutOfDeclaredRange(
                f"samples exceed declared physical range [{self.phys_min}, {self.phys_max}]"
            )
        return d.astype(np.int16)


@dataclass
class ChannelSignal:
    """One EEG channel in physical units (microvolts)."""

    label: str
    samples: np.ndarray
    unit: str = "uV"
    calibration: Calibration = field(
        default_factory=lambda: Calibration(*DEFAULT_EEG_CALIBRATION)
    )


@dataclass
class TriAxialAcc:
    """Accelerometer axes in g, sampled at the recording rate."""

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
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.x, self.y, self.z)

    def __len__(self) -> int:
        return len(self.x)


@dataclass
class Recording:
    """A night of EEG (and optionally accelerometer) data at one rate."""

    channels: list[ChannelSignal]
    acc: TriAxialAcc | None
    fs: float
    start_time: datetime = datetime(2024, 1, 1, 22, 0, 0)
    device_id: str = "floss"

    def __post_init__(self) -> None:
        if not self.fs > 0:
            raise HeaderFieldUnparsable(f"sampling rate {self.fs} must be positive")
        lengths = {len(ch.samples) for ch in self.channels}
        if len(lengths) > 1:
            raise LengthMismatchEegAcc(f"channel lengths differ: {sorted(lengths)}")
        if self.acc is not None:
            if not (len(self.acc.x) == len(self.acc.y) == len(self.acc.z)):
                raise LengthMismatchEegAcc("accelerometer axes differ in length")
            if lengths and len(self.acc) not in lengths:
                raise LengthMismatchEegAcc(
                    f"accelerometer length {len(self.acc)} != EEG length {lengths.pop()}"
                )
        for ch in self.channels:
            if not np.all(np.isfinite(ch.samples)):
                raise NonFiniteSamples(f"channel {ch.label!r} contains non-finite samples")
        if self.acc is not None:
            for axis in self.acc.axes:
                if not np.all(np.isfinite(axis)):
                    raise NonFiniteSamples("accelerometer contains non-finite samples")

    @property
    def n_samples(self) -> int:
        if self.channels:
            return len(self.channels[0].samples)
        if self.acc is not None:
            return len(self.acc)
        return 0

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.fs


@dataclass
class EdfHeader:
    """Parsed fixed-width EDF header fields."""

    version: str
    patient_id: str
    recording_id: str
    start: datetime
    header_bytes: int
    n_records: int
    record_duration: float
    n_signals: int
    labels: list[str]
    transducers: list[str]
    units: list[str]
    phys_min: list[float]
    phys_max: list[float]
    dig_min: list[int]
    dig_max: list[int]
    prefilters: list[str]
    samples_per_record: list[int]


def _ascii_field(value: str, width: int) -> bytes:
    raw = value.encode("ascii", errors="replace")
    if len(raw) > width:
        raise HeaderFieldUnparsable(f"field {value!r} does not fit in {width} bytes")
    return raw.ljust(width)


def _num_field(value: float | int, width: int) -> bytes:
    if isinstance(value, int):
        text = str(value)
    else:
        text = f"{value:g}"
    return _ascii_field(text, width)


def _parse_float(text: str, name: str) -> float:
    try:
        v = float(text.strip())
    except ValueError as exc:
        raise HeaderFieldUnparsable(f"{name}: cannot parse {text!r}") from exc
    if not np.isfinite(v):
        raise HeaderFieldUnparsable(f"{name}: non-finite value {text!r}")
    return v


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise HeaderFieldUnparsable(f"{name}: cannot parse {text!r}") from exc


def parse_edf_header(raw: bytes) -> EdfHeader:
    """Parse the fixed and per-signal EDF header blocks."""
    if len(raw) < HEADER_BYTES:
        raise TruncatedFile(f"file holds {len(raw)} bytes, EDF header needs {HEADER_BYTES}")
    try:
        text = raw[:HEADER_BYTES].decode("ascii")
    except UnicodeDecodeError as exc:
        raise HeaderFieldUnparsable("header is not ASCII") from exc

    version = text[0:8].strip()
    patient_id = text[8:88].strip()
    recording_id = text[88:168].strip()
    date_s = text[168:176].strip()
    time_s = text[176:184].strip()
    header_bytes = _parse_int(text[184:192], "header bytes")
    n_records = _parse_int(text[236:244], "record count")
    record_duration = _parse_float(text[244:252], "record duration")
    n_signals = _parse_int(text[252:256], "signal count")
    if n_signals < 0:
        raise HeaderFieldUnparsable(f"signal count {n_signals} is negative")
    if n_records < 0:
        raise HeaderFieldUnparsable(f"record count {n_records} is negative")
    if n_signals and record_duration <= 0:
        raise HeaderFieldUnparsable(f"record duration {record_duration} must be positive")

    try:
        day, month, yy = (int(p) for p in date_s.split("."))
        hh, mm, ss = (int(p) for p in time_s.split("."))
        year = 1900 + yy if yy >= 85 else 2000 + yy
        start = datetime(year, month, day, hh, mm, ss)
    except (ValueError, TypeError) as exc:
        raise HeaderFieldUnparsable(f"start date/time {date_s!r} {time_s!r}") from exc

    sig_bytes = SIGNAL_HEADER_BYTES * n_signals
    if len(raw) < HEADER_BYTES + sig_bytes:
        raise TruncatedFile(
            f"file holds {len(raw)} bytes, signal headers need {HEADER_BYTES + sig_bytes}"
        )
    try:
        sig = raw[HEADER_BYTES : HEADER_BYTES + sig_bytes].decode("ascii")
    except UnicodeDecodeError as exc:
        raise HeaderFieldUnparsable("signal header is not ASCII") from exc

    def sig_fields(offset: int, width: int) -> list[str]:
        base = offset * n_signals
        return [sig[base + i * width : base + (i + 1) * width] for i in range(n_signals)]

    labels = [s.strip() for s in sig_fields(0, 16)]
    transducers = [s.strip() for s in sig_fields(16, 80)]
    units = [s.strip() for s in sig_fields(96, 8)]
    phys_min = [_parse_float(s, "phys_min") for s in sig_fields(104, 8)]
    phys_max = [_parse_float(s, "phys_max") for s in sig_fields(112, 8)]
    dig_min = [_parse_int(s, "dig_min") for s in sig_fields(120, 8)]
    dig_max = [_parse_int(s, "dig_max") for s in sig_fields(128, 8)]
    prefilters = [s.strip() for s in sig_fields(136, 80)]
    spr = [_parse_int(s, "samples per record") for s in sig_fields(216, 8)]
    for i, n in enumerate(spr):
        if n <= 0:
            raise HeaderFieldUnparsable(f"signal {i}: samples per record {n} must be positive")

    return EdfHeader(
        version=version,
        patient_id=patient_id,
        recording_id=recording_id,
        start=start,
        header_bytes=header_bytes,
        n_records=n_records,
        record_duration=record_duration,
        n_signals=n_signals,
        labels=labels,
        transducers=transducers,
        units=units,
        phys_min=phys_min,
        phys_max=phys_max,
        dig_min=dig_min,
        dig_max=dig_max,
        prefilters=prefilters,
        samples_per_record=spr,
    )


def _acc_axis(label: str) -> str | None:
    tail = label.strip().upper().rstrip()
    for sep in (" ", "_", "-"):
        tail = tail.split(sep)[-1]
    return tail if tail in ("X", "Y", "Z") else None


def read_edf(path: str | Path) -> Recording:
    """Read an EDF file into physical units.

    EEG channels are the signals declared in microvolts; signals declared
    in g with labels ending in X/Y/Z populate the accelerometer.  All
    signals must share one sampling rate.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    header = parse_edf_header(raw)

    ns = header.n_signals
    if ns == 0:
        return Recording(
            channels=[],
            acc=None,
            fs=1.0,
            start_time=header.start,
            device_id=header.recording_id,
        )

    rates = {spr / header.record_duration for spr in header.samples_per_record}
    if len(rates) > 1:
        raise SamplingRateMismatch(f"signals declare multiple rates: {sorted(rates)}")
    fs = rates.pop()

    rec_len = sum(header.samples_per_record)
    payload = raw[HEADER_BYTES + SIGNAL_HEADER_BYTES * ns :]
    expected = header.n_records * rec_len * 2
    if len(payload) < expected:
        raise TruncatedFile(
            f"data payload holds {len(payload)} bytes, header declares {expected}"
        )
    data = np.frombuffer(payload[:expected], dtype="<i2").reshape(header.n_records, rec_len)

    channels: list[ChannelSignal] = []
    acc_axes: dict[str, tuple[np.ndarray, Calibration]] = {}
    offset = 0
    for i in range(ns):
        spr = header.samples_per_record[i]
        digital = data[:, offset : offset + spr].reshape(-1)
        offset += spr
        cal = Calibration(
            header.phys_min[i], header.phys_max[i], header.dig_min[i], header.dig_max[i]
        )
        physical = cal.to_physical(digital)
        unit = header.units[i]
        axis = _acc_axis(header.labels[i])
        if unit == "uV":
            channels.append(ChannelSignal(header.labels[i], physical, unit, cal))
        elif unit == "g" and axis is not None:
            acc_axes[axis] = (physical, cal)
        # other units are carried by the file but take no part in analysis

    acc: TriAxialAcc | None = None
    if acc_axes:
        missing = [a for a in ("X", "Y", "Z") if a not in acc_axes]
        if missing:
            raise ChannelMissing(f"accelerometer axes missing: {missing}")
        acc = TriAxialAcc(
            x=acc_axes["X"][0],
            y=acc_axes["Y"][0],
            z=acc_axes["Z"][0],
            calibrations=(acc_axes["X"][1], acc_axes["Y"][1], acc_axes["Z"][1]),
        )

    return Recording(
        channels=channels,
        acc=acc,
        fs=fs,
        start_time=header.start,
        device_id=header.recording_id,
    )


def write_edf(rec: Recording, path: str | Path) -> None:
    """Write a recording as plain EDF with one-second data records.

    The sample count must span whole seconds and the rate must be an
    integer; out-of-range samples raise rather than clip.
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
        signals.append((ch.label, ch.unit, ch.calibration, ch.samples))
    if rec.acc is not None:
        for label, cal, axis in zip(ACC_AXIS_LABELS, rec.acc.calibrations, rec.acc.axes):
            signals.append((label, "g", cal, axis))
    ns = len(signals)

    buf = io.BytesIO()
    buf.write(_ascii_field("0", 8))
    buf.write(_ascii_field("X", 80))
    buf.write(_ascii_field(rec.device_id, 80))
    buf.write(_ascii_field(rec.start_time.strftime("%d.%m.%y"), 8))
    buf.write(_ascii_field(rec.start_time.strftime("%H.%M.%S"), 8))
    buf.write(_num_field(HEADER_BYTES + SIGNAL_HEADER_BYTES * ns, 8))
    buf.write(_ascii_field("", 44))
    buf.write(_num_field(n_records if ns else 0, 8))
    buf.write(_num_field(1, 8))
    buf.write(_num_field(ns, 4))

    for label, _, _, _ in signals:
        buf.write(_ascii_field(label, 16))
    for _ in signals:
        buf.write(_ascii_field("", 80))
    for _, unit, _, _ in signals:
        buf.write(_ascii_field(unit, 8))
    for _, _, cal, _ in signals:
        buf.write(_num_field(cal.phys_min, 8))
    for _, _, cal, _ in signals:
        buf.write(_num_field(cal.phys_max, 8))
    for _, _, cal, _ in signals:
        buf.write(_num_field(cal.dig_min, 8))
    for _, _, cal, _ in signals:
        buf.write(_num_field(cal.dig_max, 8))
    for _ in signals:
        buf.write(_ascii_field("", 80))
    for _ in signals:
        buf.write(_num_field(fs, 8))
    for _ in signals:
        buf.write(_ascii_field("", 32))

    if ns:
        digital = [cal.to_digital(samples) for _, _, cal, samples in signals]
        record = np.empty((n_records, fs * ns), dtype="<i2")
        for i, d in enumerate(digital):
            record[:, i * fs : (i + 1) * fs] = d.reshape(n_records, fs)
        buf.write(record.tobytes())

    Path(path).write_bytes(buf.getvalue())


def read_csv(path: str | Path) -> Recording:
    """Read the CSV fallback format into a recording.

    The first column must be ``t_s``; ``accX,accY,accZ`` columns populate
    the accelerometer and every other column becomes an EEG channel.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc

    reader = csv.reader(io.StringIO(text))
    try:
        names = next(reader)
    except StopIteration:
        raise EmptyRecording(f"{path} has no header row") from None
    if not names or names[0] != "t_s":
        raise HeaderFieldUnparsable(f"first CSV column must be t_s, got {names[:1]}")

    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(names):
            raise HeaderFieldUnparsable(f"line {lineno}: expected {len(names)} cells")
        try:
            rows.append([float(c) for c in row])
        except ValueError as exc:
            raise HeaderFieldUnparsable(f"line {lineno}: unparsable cell") from exc
    if len(rows) < 2:
        raise EmptyRecording(f"{path} holds {len(rows)} samples; need at least 2")

    table = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(table)):
        raise NonFiniteSamples(f"{path} contains non-finite values")

    t = table[:, 0]
    dt = np.diff(t)
    if dt.min() <= 0 or (dt.max() - dt.min()) > 1e-6 * dt.mean():
        raise SamplingRateMismatch("t_s column does not advance at one uniform rate")
    fs = (len(t) - 1) / (t[-1] - t[0])
    if abs(fs - round(fs)) < 1e-6 * fs:
        fs = float(round(fs))

    channels: list[ChannelSignal] = []
    acc_cols: dict[str, np.ndarray] = {}
    for j, name in enumerate(names[1:], start=1):
        if name in ("accX", "accY", "accZ"):
            acc_cols[name[-1].upper()] = table[:, j]
        else:
            channels.append(ChannelSignal(name, table[:, j]))

    acc: TriAxialAcc | None = None
    if acc_cols:
        missing = [a for a in ("X", "Y", "Z") if a not in acc_cols]
        if missing:
            raise ChannelMissing(f"accelerometer columns missing: acc{missing[0]}")
        acc = TriAxialAcc(x=acc_cols["X"], y=acc_cols["Y"], z=acc_cols["Z"])

    return Recording(channels=channels, acc=acc, fs=fs)


def write_csv(rec: Recording, path: str | Path) -> None:
    """Write a recording in the CSV fallback format."""
    names = ["t_s"] + [ch.label for ch in rec.channels]
    columns = [np.arange(rec.n_samples) / rec.fs] + [ch.samples for ch in rec.channels]
    if rec.acc is not None:
        names += ["accX", "accY", "accZ"]
        columns += list(rec.acc.axes)

    lines = [",".join(names)]
    for i in range(rec.n_samples):
        lines.append(",".join(repr(float(col[i])) for col in columns))
    Path(path).write_text("\n".join(lines) + "\n")
