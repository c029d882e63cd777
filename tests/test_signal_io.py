"""EDF and CSV readers/writers: round trips, header parsing, error paths."""
from __future__ import annotations

import csv
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from datetime import datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from floss import features, signal_io
from floss.features import cpu_pool, work_size
from floss.errors import (
    AmplitudeOutOfDeclaredRange,
    ChannelMissing,
    EmptyRecording,
    EpochMultipleViolation,
    HeaderFieldUnparsable,
    NonFiniteSamples,
    SamplingRateMismatch,
    TruncatedFile,
)
from floss.signal_io import (
    ACC_AXIS_LABELS,
    Calibration,
    ChannelSignal,
    Recording,
    TriAxialAcc,
    HEADER_BYTES,
    SIGNAL_HEADER_BYTES,
    parse_edf_header,
    read_csv,
    read_edf,
    read_edf_layout,
    write_csv,
    write_edf,
)


def _digital_recording(rng, n_channels=2, seconds=4, fs=128, with_acc=True):
    """Physical samples that sit exactly on the digital grid."""
    n = seconds * fs
    cal = Calibration(-3276.8, 3276.7)
    channels = []
    for i in range(n_channels):
        digital = rng.integers(-32768, 32768, size=n, dtype=np.int64)
        channels.append(
            ChannelSignal(f"EEG {i}", cal.to_physical(digital), calibration=cal)
        )
    acc = None
    if with_acc:
        acal = Calibration(-8.0, 8.0)
        axes = [
            acal.to_physical(rng.integers(-32768, 32768, size=n, dtype=np.int64))
            for _ in range(3)
        ]
        acc = TriAxialAcc(x=axes[0], y=axes[1], z=axes[2], calibrations=(acal,) * 3)
    return Recording(channels=channels, acc=acc, fs=float(fs))


def test_edf_round_trip_bit_identical(tmp_path, rng):
    rec = _digital_recording(rng)
    path = tmp_path / "a.edf"
    write_edf(rec, path)
    back = read_edf(path)
    assert back.fs == rec.fs
    for orig, re_read in zip(rec.channels, back.channels):
        assert orig.label == re_read.label
        orig_dig = orig.calibration.to_digital(orig.samples)
        back_dig = re_read.calibration.to_digital(re_read.samples)
        np.testing.assert_array_equal(orig_dig, back_dig)
    assert back.acc is not None
    for a, b in zip(rec.acc.axes, back.acc.axes):
        np.testing.assert_array_equal(
            rec.acc.calibrations[0].to_digital(a), back.acc.calibrations[0].to_digital(b)
        )


def test_edf_rewrite_is_byte_stable(tmp_path, rng):
    rec = _digital_recording(rng, with_acc=False)
    p1, p2 = tmp_path / "a.edf", tmp_path / "b.edf"
    write_edf(rec, p1)
    write_edf(read_edf(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_edf_header_fields(tmp_path, rng):
    rec = _digital_recording(rng, n_channels=1, with_acc=False)
    path = tmp_path / "a.edf"
    write_edf(rec, path)
    header = parse_edf_header(path.read_bytes()[: 256 * 6])
    assert header.n_signals == 1
    assert header.n_records == 4
    assert header.record_duration == 1.0
    assert header.samples_per_record == [128]
    assert header.labels == ["EEG 0"]


def test_start_date_century_rule(tmp_path, rng):
    rec = _digital_recording(rng, n_channels=1, with_acc=False)
    rec.start_time = datetime(1987, 5, 12, 23, 1, 2)
    path = tmp_path / "a.edf"
    write_edf(rec, path)
    assert read_edf(path).start_time == datetime(1987, 5, 12, 23, 1, 2)
    rec.start_time = datetime(2031, 5, 12, 23, 1, 2)
    write_edf(rec, path)
    assert read_edf(path).start_time == datetime(2031, 5, 12, 23, 1, 2)


def test_truncated_payload_raises(tmp_path, rng):
    rec = _digital_recording(rng, n_channels=1, with_acc=False)
    path = tmp_path / "a.edf"
    write_edf(rec, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 10])
    with pytest.raises(TruncatedFile):
        read_edf(path)


def test_truncated_header_raises(tmp_path):
    path = tmp_path / "a.edf"
    path.write_bytes(b"0" * 100)
    with pytest.raises(TruncatedFile):
        read_edf(path)


def test_garbled_header_field_raises(tmp_path, rng):
    rec = _digital_recording(rng, n_channels=1, with_acc=False)
    path = tmp_path / "a.edf"
    write_edf(rec, path)
    data = bytearray(path.read_bytes())
    data[168:176] = b"xx.yy.zz"  # start date slot
    path.write_bytes(bytes(data))
    with pytest.raises(HeaderFieldUnparsable):
        read_edf(path)


def test_mixed_sampling_rates_raise(tmp_path, rng):
    rec = _digital_recording(rng, n_channels=2, with_acc=False)
    path = tmp_path / "a.edf"
    write_edf(rec, path)
    data = bytearray(path.read_bytes())
    # per-signal samples-per-record live after 256 header + 216*ns bytes
    off = 256 + 216 * 2
    data[off : off + 8] = b"64      "
    path.write_bytes(bytes(data))
    with pytest.raises((SamplingRateMismatch, TruncatedFile)):
        read_edf(path)


def test_partial_acc_axes_raise(tmp_path, rng):
    rec = _digital_recording(rng, n_channels=1, with_acc=True)
    path = tmp_path / "a.edf"
    write_edf(rec, path)
    data = bytearray(path.read_bytes())
    # overwrite the ACC Z label with an unrelated name
    label_off = 256 + 16 * 3
    data[label_off : label_off + 16] = b"Temp            "
    path.write_bytes(bytes(data))
    with pytest.raises(ChannelMissing):
        read_edf(path)


def test_acc_axis_label_variants(tmp_path, rng):
    rec = _digital_recording(rng, n_channels=1, with_acc=True)
    path = tmp_path / "a.edf"
    write_edf(rec, path)
    back = read_edf(path)
    assert back.acc is not None
    assert [ch.label for ch in back.channels] == ["EEG 0"]
    assert ACC_AXIS_LABELS == ("ACC X", "ACC Y", "ACC Z")


class TestEdfLayout:
    """read_edf_layout gives read_edf's layout from the header alone."""

    @pytest.mark.parametrize("with_acc", [True, False])
    @pytest.mark.parametrize("other_signal", [True, False])
    def test_layout_is_the_read_recordings(self, tmp_path, rng, with_acc, other_signal):
        rec = _digital_recording(rng, n_channels=2, with_acc=with_acc)
        if other_signal:  # a signal of another unit takes no part in analysis
            rec.channels.insert(1, ChannelSignal("Temp", np.zeros(rec.n_samples), unit="degC"))
        path = tmp_path / "a.edf"
        write_edf(rec, path)
        layout = read_edf_layout(path)
        assert layout == read_edf(path).layout
        assert layout == signal_io.RecordingLayout(("EEG 0", "EEG 1"), 512, 128.0, with_acc)

    def test_file_without_signals(self, tmp_path):
        path = tmp_path / "a.edf"
        write_edf(Recording([], None, fs=4.0), path)
        assert read_edf_layout(path) == read_edf(path).layout == signal_io.RecordingLayout(
            (), 0, 1.0, False
        )

    def test_reads_the_header_alone(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "a.edf"
        write_edf(_digital_recording(rng, n_channels=2, with_acc=True), path)
        sizes = []
        opened = signal_io.open_input

        @contextmanager
        def counted(name, mode="r"):
            with opened(name, mode) as handle:
                read = handle.read
                handle.read = lambda n=-1: sizes.append(len(data := read(n))) or data
                yield handle

        monkeypatch.setattr(signal_io, "open_input", counted)
        read_edf_layout(path)
        assert sum(sizes) == HEADER_BYTES + 5 * SIGNAL_HEADER_BYTES

    @pytest.mark.parametrize(
        "fault, error",
        [
            (lambda data: data[:-10], TruncatedFile),
            (lambda data: data[:100], TruncatedFile),
            # ACC Z's label becomes an unrelated name
            (lambda data: data[:304] + b"Temp".ljust(16) + data[320:], ChannelMissing),
            # the first of four signals' samples per record
            (lambda data: data[:1120] + b"64".ljust(8) + data[1128:], SamplingRateMismatch),
            # the first signal's digital minimum equals its maximum
            (lambda data: data[:736] + b"32767".ljust(8) + data[744:], HeaderFieldUnparsable),
        ],
    )
    def test_faults_the_header_shows_are_read_edfs(self, tmp_path, rng, fault, error):
        path = tmp_path / "a.edf"
        write_edf(_digital_recording(rng, n_channels=1, with_acc=True), path)
        path.write_bytes(fault(path.read_bytes()))
        for reader in (read_edf, read_edf_layout):
            with pytest.raises(error):
                reader(path)


def test_recording_validations():
    with pytest.raises(HeaderFieldUnparsable):
        Recording(channels=[], acc=None, fs=0.0)
    ch = ChannelSignal("EEG", np.zeros(10))
    bad = ChannelSignal("EEG2", np.zeros(5))
    with pytest.raises(Exception):
        Recording(channels=[ch, bad], acc=None, fs=10.0)
    nan_ch = ChannelSignal("EEG", np.array([0.0, np.nan]))
    with pytest.raises(NonFiniteSamples):
        Recording(channels=[nan_ch], acc=None, fs=10.0)


def test_calibration_round_trip_and_degenerate():
    cal = Calibration(-100.0, 100.0, -32768, 32767)
    digital = np.arange(-32768, 32768, 997, dtype=np.int64)
    np.testing.assert_array_equal(cal.to_digital(cal.to_physical(digital)), digital)
    with pytest.raises(HeaderFieldUnparsable):
        Calibration(-100.0, 100.0, 5, 5)
    with pytest.raises(HeaderFieldUnparsable):
        Calibration(7.0, -7.0)


def test_reversed_digital_range_round_trips():
    """A header may declare dig_min above dig_max; the range check takes
    the two bounds in either order."""
    cal = Calibration(-100.0, 100.0, 32767, -32768)
    digital = np.arange(-32768, 32768, 997, dtype=np.int64)
    np.testing.assert_array_equal(cal.to_digital(cal.to_physical(digital)), digital)
    np.testing.assert_array_equal(cal.to_digital(np.array([0.0, 1.0])), [0, -328])
    for outside in (-100.01, 100.01):
        with pytest.raises(AmplitudeOutOfDeclaredRange):
            cal.to_digital(np.array([outside]))


def test_csv_round_trip(tmp_path, rng):
    rec = _digital_recording(rng, n_channels=2, seconds=2, fs=64)
    path = tmp_path / "a.csv"
    write_csv(rec, path)
    back = read_csv(path)
    assert back.fs == rec.fs
    for orig, re_read in zip(rec.channels, back.channels):
        np.testing.assert_allclose(re_read.samples, orig.samples, rtol=0, atol=0)
    for a, b in zip(rec.acc.axes, back.acc.axes):
        np.testing.assert_allclose(b, a, rtol=0, atol=0)


def test_read_csv_drops_a_byte_order_mark(tmp_path, rng):
    rec = _digital_recording(rng, n_channels=2, seconds=2, fs=64)
    plain, marked = tmp_path / "a.csv", tmp_path / "bom.csv"
    write_csv(rec, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want, got = read_csv(plain), read_csv(marked)
    assert [ch.label for ch in got.channels] == [ch.label for ch in want.channels]
    assert (got.fs, got.t0_s) == (want.fs, want.t0_s)
    for a, b in zip(want.channels, got.channels):
        np.testing.assert_array_equal(b.samples, a.samples)
    np.testing.assert_array_equal(got.acc.axes, want.acc.axes)


def test_csv_round_trip_keeps_the_first_time(tmp_path, rng):
    # at 1e8 s and beyond, Unix times, the spacing of t_s floats exceeds
    # 1e-6 of the 5-ms sampling period
    rec = _digital_recording(rng, n_channels=1, seconds=2, fs=200)
    for t0 in (100.0, 1e8, 1.7e9):
        rec.t0_s = t0
        write_csv(rec, tmp_path / "a.csv")
        back = read_csv(tmp_path / "a.csv")
        assert (back.fs, back.t0_s) == (200.0, t0)
        np.testing.assert_array_equal(back.channels[0].samples, rec.channels[0].samples)
        np.testing.assert_array_equal(back.acc.axes, rec.acc.axes)
        rows = (tmp_path / "a.csv").read_text().splitlines()[1:]
        times = [float(row.split(",")[0]) for row in rows]
        assert times == list(t0 + np.arange(400) / 200.0)


def _without_leading_zero(v: float) -> str:
    """repr with the zero before the point dropped: .5, -.25."""
    text = repr(v)
    return text.replace("0.", ".", 1) if text.lstrip("-").startswith("0.") else text


def _without_trailing_zero(v: float) -> str:
    """repr with the zero after the point of a whole number dropped: 5., -2."""
    text = repr(v)
    return text[:-1] if text.endswith(".0") else text


_CELL_FORMATS = {
    "repr": repr,
    "17 digits": "{:.17g}".format,
    "17 digits, exponent": "{:.17e}".format,
    "6 digits": "{:.6e}".format,
    "25 decimals": "{:.25f}".format,
    "no leading zero": _without_leading_zero,
    "no trailing zero": _without_trailing_zero,
    "quoted": lambda v: f'"{v!r}"',
    "padded": lambda v: f" {v!r} ",
}


@settings(max_examples=150, deadline=None)
@given(
    values=arrays(np.float64, st.tuples(st.integers(2, 30), st.integers(1, 3)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
    fmt=st.sampled_from(sorted(_CELL_FORMATS)),
    blank_every=st.integers(0, 5),
    tiny=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_read_csv_gives_the_bits_of_float_per_cell(
    tmp_path_factory, values, fmt, blank_every, tiny, newline
):
    """The numpy parse equals the reference parse: csv rows, float() per
    cell; ``tiny`` scales the samples below 1e-4, where repr writes an
    exponent."""
    if tiny:
        values = values * 1e-9
    lines = [",".join(["t_s"] + [f"EEG {j}" for j in range(values.shape[1])])]
    for i, row in enumerate(values):
        lines.append(",".join(_CELL_FORMATS[fmt](float(v)) for v in [i / 4, *row]))
        if blank_every and i % blank_every == 0:
            lines.append("")
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    want = np.array([[float(c) for c in row] for row in csv.reader(lines[1:]) if row])
    rec = read_csv(path)
    assert rec.fs == 4.0
    for j, ch in enumerate(rec.channels, start=1):
        assert ch.samples.tobytes() == want[:, j].tobytes()


_ODD_CELLS = ["1 5", "1\t5", "1#5", "1/5", "1;5", "1E5", "+5", " 5", "5 ", '"5"', "1e+5", "1..5",
              "1.5.", "-", ".", "e5", "5e", "1e5e5", "1-5", "--5", "1e--5", "1.5e5.", "\u0661",
              "0x10", "inf", "1_0", "\x005", ""]


@pytest.mark.parametrize(
    "row",
    [f"0.5,{cell},3.0" for cell in _ODD_CELLS]
    # a byte below "-" in place of a comma keeps the row's count of cut points
    + [f"0.5,1.0{byte}3.0" for byte in " \t#\"'!%&()*\x00"],
)
def test_read_csv_reads_any_other_row_as_loadtxt_does(tmp_path, row):
    """A row outside the kernel's form gives loadtxt's samples or error."""
    path = tmp_path / "a.csv"
    path.write_bytes(f"t_s,a,b\n0.0,1.0,2.0\n{row}\n1.0,4.0,5.0\n".encode())
    try:
        want = signal_io._loadtxt_table(path)[:, 1]
    except HeaderFieldUnparsable:
        with pytest.raises(HeaderFieldUnparsable):
            read_csv(path)
        return
    if not np.isfinite(want).all():
        with pytest.raises(NonFiniteSamples):
            read_csv(path)
        return
    assert read_csv(path).channels[0].samples.tobytes() == want.tobytes()


def _near_ties(rng, n: int) -> list[str]:
    """Decimal cells of 15 to 19 significant digits within a unit of their
    last digit of the midpoint of two neighbouring floats, where a parse
    that rounds twice, or errs at all, goes wrong first; in fixed and in
    exponent notation, some negative."""
    cells = []
    for _ in range(n):
        e2 = int(rng.integers(-80, 80))
        mantissa = int(rng.integers(2**52, 2**53))
        digits = int(rng.integers(15, 20))
        # the midpoint (2 * mantissa + 1) * 2**(e2 - 1), times 10**k, rounded
        k = digits - 1 - int(np.floor(np.log10(mantissa * 2.0**e2)))
        num, den = (2 * mantissa + 1) * 10 ** max(k, 0), 10 ** max(-k, 0)
        if e2 > 0:
            num <<= e2 - 1
        else:
            den <<= 1 - e2
        whole = str((2 * num + den) // (2 * den) + int(rng.integers(-1, 2)))
        point = len(whole) - k
        if 0 < point < len(whole) and rng.random() < 0.5:
            text = f"{whole[:point]}.{whole[point:]}"
        else:
            text = f"{whole[0]}.{whole[1:]}e{point - 1}"
        cells.append("-" + text if rng.random() < 0.5 else text)
    return cells


def _ties(rng, n: int) -> list[str]:
    """Exact decimal midpoints of two neighbouring floats, odd * 2**k, and
    the decimals a unit of their last digit either side, some with zeros
    and a negative exponent appended; a tenth are the midpoint below a
    power of two, whose lower neighbour is the nearer."""
    cells = []
    for _ in range(n):
        k = int(rng.integers(-3, 6))
        odd = 2 * int(rng.integers(2**52, 2**53)) + 1 if rng.random() < 0.9 else 2**54 - 1
        whole = str((odd << k if k >= 0 else odd * 5**-k) + int(rng.integers(-1, 2)))
        zeros = int(rng.integers(0, 3))
        if k < 0:
            text = f"{whole[:k]}.{whole[k:]}"
        elif zeros:
            text = f"{whole}{'0' * zeros}e-{zeros}"
        else:
            text = whole
        cells.append("-" + text if rng.random() < 0.5 else text)
    return cells


def test_read_csv_is_float_on_a_sweep_of_hard_cells(tmp_path):
    """About 10**6 cells where a decimal parser goes wrong first: exact
    ties and near-ties of 15 to 20 digits, every power of two and its
    neighbours, subnormals, and repr, 17-digit and 25-decimal forms of
    random bits."""
    rng = np.random.default_rng(25)
    powers = 2.0 ** np.arange(-1074, 1024)
    neighbours, up, down = [powers], powers, powers
    with np.errstate(over="ignore"):
        for _ in range(3):  # 1 to 3 ulps either side
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0)
            neighbours += [up, down]
    subnormal = rng.integers(1, 2**52, 50_000) * 5e-324
    bits = rng.integers(0, 2**64, 340_000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([*neighbours, subnormal, bits])
    values = values[np.isfinite(values)]
    formats = [repr, "{:.17e}".format, "{:.17g}".format, "{:.25f}".format]
    cells = _ties(rng, 200_000) + _near_ties(rng, 400_000) + [
        formats[i % 4](v) for i, v in enumerate(values.tolist())
    ]
    cells += ["0.0"] * (-len(cells) % 8)
    assert len(cells) >= 1_000_000
    rows = [",".join([repr(float(i))] + cells[i * 8 : i * 8 + 8]) for i in range(len(cells) // 8)]
    path = tmp_path / "hard.csv"
    head = ",".join(["t_s"] + [f"c{j}" for j in range(8)])
    path.write_text("\n".join([head] + rows) + "\n")
    rec = read_csv(path)
    got = np.column_stack([ch.samples for ch in rec.channels]).reshape(-1)
    want = np.array([float(c) for c in cells])
    assert got.tobytes() == want.tobytes()


def _fixed_width_night(path: Path, rows: int, newline: str, last_newline: bool = True) -> None:
    """A night of 16-byte lines (with a \\n): t_s as 8 bytes, a sample as 6."""
    x = np.random.default_rng(rows).uniform(1, 9.99, rows)
    lines = ["t_s,EEG"] + [f"{i / 4:08.2f},{v:.4f}" for i, v in enumerate(x)]
    path.write_bytes((newline.join(lines) + (newline if last_newline else "")).encode())


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("chunk", [16, 31, 32, 33, 100])
@pytest.mark.parametrize("rows", [2, 3, 7, 8, 9])
def test_read_csv_rows_around_the_chunk_size(tmp_path, monkeypatch, newline, chunk, rows):
    """Lines that end at a chunk's last byte, before it and after it, a
    \\r\\n cut between two chunks, and a last line without its line end
    read as loadtxt reads them."""
    # a budget of one chunk: chunks of exactly ``chunk`` bytes at any CPU count
    monkeypatch.setattr(signal_io, "_CSV_BYTES", (chunk, chunk))
    for last_newline in (True, False):
        path = tmp_path / "a.csv"
        _fixed_width_night(path, rows, newline, last_newline)
        rec = read_csv(path)
        want = signal_io._loadtxt_table(path)
        assert rec.channels[0].samples.tobytes() == want[:, 1].tobytes()
        assert rec.n_samples == rows and rec.fs == 4.0


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_read_csv_rows_around_the_real_chunk_size(tmp_path, monkeypatch, extra):
    monkeypatch.setattr(features, "available_cpus", lambda: 2)
    rows = work_size(*signal_io._CSV_BYTES)[0] // 16 + extra
    path = tmp_path / "a.csv"
    _fixed_width_night(path, rows, "\n")
    rec = read_csv(path)
    assert rec.channels[0].samples.tobytes() == signal_io._loadtxt_table(path)[:, 1].tobytes()


def _repr_night(path: Path, rows: int, seed: int) -> None:
    """A night written as the benchmark writes its CSV nights: repr per cell."""
    rng = np.random.default_rng(seed)
    table = np.column_stack([np.arange(rows) / 256.0, rng.standard_normal((rows, 5)) * 30])
    table[::97, 1] *= 1e-7  # some exponents
    path.write_text("t_s,EEG L,EEG R,accX,accY,accZ\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in table.tolist()
    ))


def test_read_csv_bytes_at_one_cpu_and_at_three(tmp_path, monkeypatch):
    """The chunks change with the CPU count; the samples do not."""
    path = tmp_path / "a.csv"
    _repr_night(path, 60_000, 1)
    want = signal_io._loadtxt_table(path)
    for cpus in (1, 3):
        monkeypatch.setattr(features, "available_cpus", lambda: cpus)
        rec = read_csv(path)
        got = [rec.channels[0].samples, rec.channels[1].samples, *rec.acc.axes]
        assert np.column_stack(got).tobytes() == np.ascontiguousarray(want[:, 1:]).tobytes()


def _spied_pool_map(windows: list[int]):
    """``features.pool_map``, noting the window of each call in ``windows``."""

    def spy(fn, items, window=0):
        windows.append(window)
        return features.pool_map(fn, items, window)

    return spy


def test_read_csv_memory_does_not_grow_with_the_cpu_count(tmp_path):
    """At 64 CPUs the chunks keep their floor and fewer run at once: the
    text in flight stays within the budget, as at 2 CPUs."""
    path = tmp_path / "a.csv"
    _repr_night(path, 60_000, 2)
    peaks, chunks, windows = {}, {}, {}
    split = signal_io._line_chunks
    budget, floor = signal_io._CSV_BYTES
    for cpus in (2, 64):
        sizes, maps = [], []

        def spy(handle, head, size):
            sizes.append(size)
            return split(handle, head, size)

        with mock.patch.object(features, "available_cpus", lambda: cpus), \
                mock.patch.object(signal_io, "_line_chunks", spy), \
                mock.patch.object(signal_io, "pool_map", _spied_pool_map(maps)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                rec = read_csv(path)
                peaks[cpus] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        chunks[cpus], windows[cpus] = sizes[0], maps[0]
        del rec
    assert chunks[2] == budget // 2 == 1 << 18
    assert chunks[64] >= floor
    assert windows[64] * chunks[64] <= budget
    assert peaks[64] < 1.25 * peaks[2], peaks


@pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193, 20_000])
def test_write_csv_writes_the_bytes_of_repr_per_sample(tmp_path, n):
    """The blocked writer equals the reference: repr of each sample, row by row."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    rec = Recording([ChannelSignal("EEG", x)], None, fs=7.0)
    write_csv(rec, tmp_path / "a.csv")
    t = np.arange(n) / 7.0
    lines = ["t_s,EEG"] + [f"{float(t[i])!r},{float(x[i])!r}" for i in range(n)]
    assert (tmp_path / "a.csv").read_text() == "\n".join(lines) + "\n"


def _repr_rows(table) -> bytes:
    """The reference text of a table: repr of each cell, row by row."""
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


@settings(max_examples=80, deadline=None)
@given(
    values=arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 8)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
    block_rows=st.integers(1, 16),
)
def test_write_csv_is_repr_per_cell(tmp_path_factory, values, block_rows):
    """Finite values, ±0.0 and subnormals included, in blocks that split the rows."""
    rec = Recording([ChannelSignal(f"EEG {j}", values[:, j]) for j in range(values.shape[1])],
                    None, fs=4.0)
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    # a budget of one block: blocks of exactly ``block_rows`` at any CPU count
    with mock.patch.object(signal_io, "_CSV_ROWS", (block_rows, block_rows)):
        write_csv(rec, path)
    table = np.column_stack([np.arange(len(values)) / 4.0, values])
    head = ",".join(["t_s"] + [f"EEG {j}" for j in range(values.shape[1])]) + "\n"
    assert path.read_bytes() == head.encode() + _repr_rows(table)


@settings(max_examples=80, deadline=None)
@given(values=arrays(np.float64, st.tuples(st.integers(0, 40), st.integers(1, 8))))
def test_csv_rows_is_repr_per_cell_at_every_float(values):
    """NaN and ±inf, which no recording holds, go through repr as well."""
    assert signal_io._csv_rows(values) == _repr_rows(values)


def _dyadic_ties(rng, digits: int, n: int) -> np.ndarray:
    """Floats whose exact decimal expansion has digits + 1 significant digits,
    the last a 5: ties between two numbers of ``digits`` digits."""
    out = []
    while len(out) < n:
        j = int(rng.integers(1, 60))  # m / 2**j == m * 5**j / 10**j
        lo = -(-10 ** digits // 5**j)
        hi = min((10 ** (digits + 1) - 1) // 5**j, 2**53 - 1)
        if lo > hi:
            continue
        m = int(rng.integers(lo, hi + 1)) | 1
        if m <= hi:
            out.append(m / 2**j)
    return np.array(out)


def test_write_csv_is_repr_on_a_sweep_of_hard_values(tmp_path):
    """10**6 values where a shortest-digits formatter goes wrong first."""
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(np.float64)
    ties = [_dyadic_ties(rng, digits, 25_000) for digits in (15, 16, 17)]
    powers = 10.0 ** np.arange(-323, 309)
    tiny, big = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    edges = np.array([1e-4, 1e16, tiny, big, 5e-324, np.nextafter(tiny, 0), 2.0**53])
    near = []
    with np.errstate(over="ignore"):
        for v in (powers, edges, *ties):  # 1 to 3 ulps either side
            up = down = v
            for _ in range(3):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, 0)
                near += [up, down]
    values = np.concatenate([bits, powers, edges, *ties, *near, rng.standard_normal(200_000) * 50])
    values = values[np.isfinite(values)]
    values *= rng.choice([-1.0, 1.0], len(values))
    values = np.concatenate([values, np.zeros(-len(values) % 8)]).reshape(-1, 8)
    assert values.size >= 1_000_000
    rec = Recording([ChannelSignal(f"c{j}", values[:, j]) for j in range(8)], None, fs=1.0)
    write_csv(rec, tmp_path / "a.csv")
    table = np.column_stack([np.arange(len(values)) / 1.0, values])
    head = ",".join(["t_s"] + [f"c{j}" for j in range(8)]) + "\n"
    assert (tmp_path / "a.csv").read_bytes() == head.encode() + _repr_rows(table)


_WRITE_PINNED = """
import os, sys
from pathlib import Path
if sys.argv[2] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from floss.features import available_cpus
from floss.signal_io import ChannelSignal, Recording, write_csv
rng = np.random.default_rng(5)
x = rng.standard_normal((40_000, 3)) * 10.0 ** rng.integers(-6, 18, (40_000, 3))
rec = Recording([ChannelSignal(f"c{j}", x[:, j]) for j in range(3)], None, fs=256.0)
write_csv(rec, Path(sys.argv[1]))
print(available_cpus())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_write_csv_bytes_at_one_cpu_and_at_every_cpu(tmp_path):
    src = str(Path(signal_io.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cpus = {}
    for which in ("one", "all"):
        done = subprocess.run(
            [sys.executable, "-c", _WRITE_PINNED, str(tmp_path / f"{which}.csv"), which],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        cpus[which] = int(done.stdout.split()[-1])
    assert cpus["one"] == 1
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "all.csv").read_bytes()


def test_write_csv_memory_does_not_grow_with_the_night(tmp_path):
    """No whole-night table: one block at a time, as on a pool thread, sets
    the peak, not the night's length."""
    peaks = []
    for hours in (1, 4):
        x = np.random.default_rng(hours).standard_normal(hours * 3600 * 32)
        rec = Recording([ChannelSignal("EEG", x), ChannelSignal("EEG 2", -x)], None, fs=32.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cpu_pool().submit(write_csv, rec, tmp_path / f"{hours}.csv").result()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], peaks


def test_csv_rejects_nan_and_empty(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("t_s,EEG\n0.0,nan\n0.5,1.0\n")
    with pytest.raises(NonFiniteSamples):
        read_csv(path)
    path.write_text("t_s,EEG\n")
    with pytest.raises(EmptyRecording):
        read_csv(path)


def test_csv_rejects_uneven_time_grid(tmp_path, rng):
    path = tmp_path / "a.csv"
    path.write_text("t_s,EEG\n0.0,1.0\n0.5,1.0\n1.7,1.0\n")
    with pytest.raises(SamplingRateMismatch):
        read_csv(path)
    # a 1 % jitter of the period stays refused at Unix times
    t = 1.7e9 + (np.arange(400) + rng.uniform(-0.01, 0.01, 400)) / 200.0
    path.write_text("t_s,EEG\n" + "".join(f"{v!r},1.0\n" for v in t.tolist()))
    with pytest.raises(SamplingRateMismatch):
        read_csv(path)


def test_unwritable_edf_raises_coded_errors(tmp_path, rng):
    samples = _digital_recording(rng, n_channels=1, with_acc=False).channels[0].samples
    cases = [
        (ChannelSignal("EEG", samples), 127.5, SamplingRateMismatch),
        (ChannelSignal("EEG", samples[:-1]), 128.0, EpochMultipleViolation),
        (ChannelSignal("EEG " + "x" * 16, samples), 128.0, HeaderFieldUnparsable),
    ]
    for channel, fs, error in cases:
        with pytest.raises(error):
            write_edf(Recording(channels=[channel], acc=None, fs=fs), tmp_path / "a.edf")
        assert error.code is not None
    assert not (tmp_path / "a.edf").exists()


def test_edf_record_blocks_hold_the_whole_signal_conversion(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(signal_io, "_EDF_BLOCK_RECORDS", 2)
    rec = _digital_recording(rng, seconds=5)  # blocks of records 0-1, 2-3 and 4
    write_edf(rec, tmp_path / "a.edf")
    signals = [(ch.calibration, ch.samples) for ch in rec.channels]
    signals += list(zip(rec.acc.calibrations, rec.acc.axes))
    records = np.stack([cal.to_digital(x).reshape(5, 128) for cal, x in signals], axis=1)
    raw = (tmp_path / "a.edf").read_bytes()
    assert raw[256 * (1 + len(signals)) :] == records.astype("<i2").tobytes()


@pytest.mark.parametrize("signal", ["eeg", "acc"])
def test_out_of_range_sample_in_the_last_record_block_leaves_no_file(
    tmp_path, rng, monkeypatch, signal
):
    monkeypatch.setattr(signal_io, "_EDF_BLOCK_RECORDS", 2)
    rec = _digital_recording(rng, seconds=5)
    if signal == "eeg":
        rec.channels[0].samples[-1] = 3300.0  # above the declared 3276.7 uV
    else:
        rec.acc.z[-1] = -8.1  # below the declared -8 g
    with pytest.raises(AmplitudeOutOfDeclaredRange):
        write_edf(rec, tmp_path / "a.edf")
    assert not (tmp_path / "a.edf").exists()


def test_write_csv_text_in_flight_does_not_grow_with_the_cpu_count(tmp_path):
    """At 64 CPUs the blocks keep their floor and fewer run at once: the
    rows in flight stay within the budget, as at 2 CPUs."""
    x = np.random.default_rng(3).standard_normal(600_000)
    rec = Recording([ChannelSignal("EEG", x), ChannelSignal("EEG 2", -x)], None, fs=256.0)
    peaks, blocks, windows = {}, {}, {}
    format_rows = signal_io._csv_rows
    budget, floor = signal_io._CSV_ROWS
    for cpus in (2, 64):
        sizes, maps = [], []
        spy = lambda table: sizes.append(len(table)) or format_rows(table)  # noqa: E731
        with mock.patch.object(features, "available_cpus", lambda: cpus), \
                mock.patch.object(signal_io, "_csv_rows", spy), \
                mock.patch.object(signal_io, "pool_map", _spied_pool_map(maps)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                write_csv(rec, tmp_path / f"{cpus}.csv")
                peaks[cpus] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        blocks[cpus], windows[cpus] = max(sizes), maps[0]
    assert (tmp_path / "2.csv").read_bytes() == (tmp_path / "64.csv").read_bytes()
    assert blocks[2] == budget // 2 == 8192
    assert blocks[64] >= floor
    assert windows[64] * blocks[64] <= budget
    assert peaks[64] < 1.25 * peaks[2], peaks


_DIGITAL = st.integers(-32768, 32767)


@st.composite
def _calibrations(draw, digital=_DIGITAL):
    """Calibrations with any increasing physical range, including asymmetric
    and all-negative ones, and any digital range, reversed ones too."""
    phys = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    lo, hi = draw(phys), draw(phys)
    assume(lo < hi)
    d0, d1 = draw(digital), draw(digital)
    assume(d0 != d1)
    return Calibration(lo, hi, d0, d1)


@settings(max_examples=150, deadline=None)
@given(
    cal=_calibrations(),
    held=arrays(np.int16, st.integers(1, 300)),
    cut=st.tuples(st.integers(-310, 310), st.integers(-310, 310)),
)
def test_a_range_converted_alone_has_the_bits_of_the_whole_signal(cal, held, cut):
    whole = cal.to_physical(held)
    start, stop = cut
    ch = ChannelSignal("EEG", held, calibration=cal)
    assert ch.physical(start, stop).tobytes() == whole[start:stop].tobytes()
    acc = TriAxialAcc(held, held[::-1].copy(), held, calibrations=(cal,) * 3)
    assert [a.tobytes() for a in acc.physical(start, stop)] == [
        whole[start:stop].tobytes(), cal.to_physical(held[::-1])[start:stop].tobytes(),
        whole[start:stop].tobytes(),
    ]
    assert ch.samples.tobytes() == whole.tobytes()


def test_read_edf_holds_two_bytes_a_sample(tmp_path, rng):
    """The read's peak is its payload buffer and the int16 signals it keeps."""
    rec = _digital_recording(rng, n_channels=2, seconds=3600, fs=128)
    rec.channels.append(ChannelSignal("Temp", np.zeros(rec.n_samples), unit="degC"))
    path = tmp_path / "a.edf"
    write_edf(rec, path)
    header = HEADER_BYTES + 6 * SIGNAL_HEADER_BYTES
    payload = path.stat().st_size - header
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back = read_edf(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = [ch.held for ch in back.channels] + list(back.acc.held)
    assert [h.dtype for h in held] == [np.dtype(np.int16)] * 5
    # the two EEG channels and three axes are kept; the other signal is not
    assert peak <= payload + 2 * 5 * rec.n_samples + header + (64 << 10), peak
    for ch, want in zip(back.channels, rec.channels):
        assert ch.samples.tobytes() == want.samples.tobytes()


_HEADER_NUMBER = st.from_regex(r"-?[0-9]{1,8}(\.[0-9]{1,6})?", fullmatch=True).filter(
    lambda text: len(text) <= 8
)


@st.composite
def _header_calibrations(draw):
    """Calibrations as the 8-byte fields of an EDF header can declare them."""
    lo, hi = float(draw(_HEADER_NUMBER)), float(draw(_HEADER_NUMBER))
    assume(lo < hi)
    d0, d1 = draw(st.integers(-9_999_999, 99_999_999)), draw(st.integers(-9_999_999, 99_999_999))
    assume(d0 != d1 and max(d0, d1) >= -32768 and min(d0, d1) <= 32767)
    return Calibration(lo, hi, d0, d1)


def _finer_than_float64(cal: Calibration) -> bool:
    """Whether the physical step is under four float64 spacings at the
    physical range's ends, where to_physical maps neighbouring digital
    values onto one float and a round trip moves them."""
    step = (cal.phys_max - cal.phys_min) / abs(cal.dig_max - cal.dig_min)
    return 4 * np.spacing(max(abs(cal.phys_min), abs(cal.phys_max))) > step


def _edf_bytes(rec: Recording, path: Path) -> bytes | type:
    path.unlink(missing_ok=True)
    try:
        write_edf(rec, path)
    except AmplitudeOutOfDeclaredRange as exc:
        assert not path.exists()
        return type(exc)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(cal=_header_calibrations(), data=st.data())
def test_write_edf_copies_digital_records_as_the_round_trip_wrote_them(
    tmp_path_factory, cal, data
):
    """A digital signal's records are its samples.  A physical copy of it is
    written as before the digital form existed, through to_digital; the two
    give the same bytes, or the same error, except for calibrations finer
    than float64, where the round trip moves samples and the copy does not."""
    lo, hi = max(min(cal.dig_min, cal.dig_max), -32768), min(max(cal.dig_min, cal.dig_max), 32767)
    length = st.integers(1, 6).map(lambda seconds: 4 * seconds)
    held = data.draw(arrays(np.int16, length, elements=st.integers(lo, hi)))
    digital = Recording([ChannelSignal("EEG", held, calibration=cal)], None, fs=4.0)
    as_physical = ChannelSignal("EEG", cal.to_physical(held), calibration=cal)
    physical = Recording([as_physical], None, fs=4.0)
    root = tmp_path_factory.getbasetemp()
    got = _edf_bytes(digital, root / "digital.edf")
    want = _edf_bytes(physical, root / "physical.edf")
    if got != want:
        assert _finer_than_float64(cal), cal
        assert got[HEADER_BYTES + SIGNAL_HEADER_BYTES :] == held.astype("<i2").tobytes()


def test_a_calibration_finer_than_float64_is_copied_not_moved(tmp_path):
    """99999998 to 99999999 over 1.1e8 digital steps is 9e-9 a step, under
    the 1.5e-8 float64 spacing near 1e8: a round trip through physical units
    moves over a third of the samples, and the copy keeps the file's."""
    cal = Calibration(99999998.0, 99999999.0, -9999999, 99999999)
    assert _finer_than_float64(cal)
    held = np.arange(-32768, 32768, dtype=np.int16)
    digital = Recording([ChannelSignal("EEG", held, calibration=cal)], None, fs=256.0)
    as_physical = ChannelSignal("EEG", cal.to_physical(held), calibration=cal)
    physical = Recording([as_physical], None, fs=256.0)
    payload = HEADER_BYTES + SIGNAL_HEADER_BYTES
    assert _edf_bytes(digital, tmp_path / "a.edf")[payload:] == held.astype("<i2").tobytes()
    moved = np.frombuffer(_edf_bytes(physical, tmp_path / "b.edf")[payload:], "<i2")
    assert (moved != held).mean() > 1 / 3


@settings(max_examples=200, deadline=None)
@given(cal=_header_calibrations())
@example(cal=Calibration(-1.0, 1234.567))  # {:g} wrote 1234.57
@example(cal=Calibration(99999998.0, 99999999.0))  # {:g} wrote 1e+08 for both
@example(cal=Calibration(0.0, 1000010.0))  # {:g} wrote 1.00001e+06, past 8 bytes
@example(cal=Calibration(-100.0, 100.0, 32767, -32768))  # the range check refused it
def test_write_edf_keeps_every_calibration_a_header_can_declare(tmp_path_factory, cal):
    lo, hi = sorted((cal.dig_min, cal.dig_max))
    held = np.array([max(lo, -32768), min(hi, 32767)] * 2, dtype=np.int16)
    path = tmp_path_factory.getbasetemp() / "cal.edf"
    write_edf(Recording([ChannelSignal("EEG", held, calibration=cal)], None, fs=4.0), path)
    back = read_edf(path).channels[0]
    assert back.calibration == cal
    assert back.held.tobytes() == held.tobytes()


@pytest.mark.parametrize("signal", [0, 1, 3])
def test_an_out_of_declared_range_digital_night_leaves_no_file(tmp_path, rng, signal):
    """A file whose samples leave its declared digital range reads, and every
    writer of it raises before any output file exists."""
    from floss.report import write_despiked

    cal = Calibration(-100.0, 100.0, -1000, 1000)
    fs, seconds, n_signals = 128, 4, 5
    held = [rng.integers(-1000, 1001, fs * seconds).astype(np.int16) for _ in range(n_signals)]
    rec = Recording(
        [ChannelSignal(f"EEG {i}", held[i], calibration=cal) for i in range(2)],
        TriAxialAcc(*held[2:], calibrations=(cal,) * 3),
        fs=float(fs),
    )
    path = tmp_path / "in.edf"
    write_edf(rec, path)
    raw = bytearray(path.read_bytes())
    # the signal's last sample, in the last record, becomes 2000
    at = HEADER_BYTES + n_signals * SIGNAL_HEADER_BYTES
    at += 2 * ((seconds - 1) * n_signals * fs + (signal + 1) * fs - 1)
    raw[at : at + 2] = np.int16(2000).tobytes()
    path.write_bytes(bytes(raw))
    night = read_edf(path)
    for write in (write_edf, write_despiked):
        with pytest.raises(AmplitudeOutOfDeclaredRange):
            write(night, tmp_path / "out.edf")
        assert not (tmp_path / "out.edf").exists()
