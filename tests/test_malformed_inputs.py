"""Input readers on malformed files: each returns or raises a coded FlossError."""
from __future__ import annotations

import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import floss
from floss.aggregate import load_sleep_scores, write_sleep_scores
from floss.epoching import AnnotationSpan, ArtifactClass, load_annotations, write_annotations
from floss.errors import (
    EmptyRecording,
    FileUnreadable,
    FlossError,
    HeaderFieldUnparsable,
    UnknownLabelCode,
)
from floss.report import parse_config_file
from floss.signal_io import (
    Calibration,
    ChannelSignal,
    Recording,
    TriAxialAcc,
    read_csv,
    read_edf,
    read_edf_layout,
    write_csv,
    write_edf,
)

READERS = {
    "edf": read_edf,
    "edf_layout": read_edf_layout,
    "csv": read_csv,
    "labels": load_annotations,
    "sleep": load_sleep_scores,
}

#: bytes a flip writes: the format's own characters, plus any byte
_FLIP_BYTES = st.sampled_from(b'0123456789 .,-+eE"\n\r') | st.integers(0, 255)


def _recording() -> Recording:
    """Two seconds at 4 Hz: one EEG channel and the accelerometer."""
    rng = np.random.default_rng(5)
    cal = Calibration(-3276.8, 3276.7)
    eeg = cal.to_physical(rng.integers(-32768, 32768, size=8))
    acal = Calibration(-8.0, 8.0)
    axes = [acal.to_physical(rng.integers(-32768, 32768, size=8)) for _ in range(3)]
    acc = TriAxialAcc(*axes, calibrations=(acal,) * 3)
    return Recording([ChannelSignal("EEG", eeg, calibration=cal)], acc, fs=4.0)


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict[str, bytes]:
    """A file of each kind as floss writes it."""
    root = tmp_path_factory.mktemp("written")
    spans = [
        AnnotationSpan("EEG", Fraction(0), Fraction(1, 2), ArtifactClass.SPIKY),
        AnnotationSpan("EEG", Fraction(1), Fraction(2), ArtifactClass.USABLE),
    ]
    write_edf(_recording(), root / "edf")
    write_edf(_recording(), root / "edf_layout")
    write_csv(_recording(), root / "csv")
    write_annotations(spans, root / "labels")
    write_sleep_scores([0, 1, 2, 3, 4, 5], root / "sleep")
    for kind, reader in READERS.items():
        reader(root / kind)  # valid, so that flips reach past the first check
    return {kind: (root / kind).read_bytes() for kind in READERS}


def _read_or_coded_error(kind: str, data: bytes, tmp_path_factory) -> None:
    path = tmp_path_factory.getbasetemp() / f"fuzzed-{kind}"
    path.write_bytes(data)
    try:
        READERS[kind](path)
    except FlossError as exc:
        assert exc.code is not None, f"{type(exc).__name__} without a code: {exc}"


def _mangled(data: bytes, draw) -> bytes:
    """A truncation of ``data``, or ``data`` with a few bytes replaced."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data)))]
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(0, len(out) - 1))] = draw(_FLIP_BYTES)
    return bytes(out)


@pytest.mark.parametrize("kind", sorted(READERS))
class TestReadersRaiseOnlyCodedErrors:
    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=600))
    def test_any_bytes(self, kind, data, tmp_path_factory):
        _read_or_coded_error(kind, data, tmp_path_factory)

    @settings(max_examples=150, deadline=None)
    @given(draw=st.data())
    def test_truncated_or_flipped_written_file(self, kind, draw, written, tmp_path_factory):
        _read_or_coded_error(kind, _mangled(written[kind], draw.draw), tmp_path_factory)


class TestCodedFaults:
    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_missing_file_is_unreadable(self, kind, tmp_path):
        with pytest.raises(FileUnreadable):
            READERS[kind](tmp_path / "missing")

    @pytest.mark.parametrize("kind", ["csv", "labels", "sleep", "config"])
    def test_text_that_is_not_utf8_is_unparsable(self, kind, written, tmp_path):
        path = tmp_path / kind
        if kind == "config":
            path.write_bytes(b"despike = yes\nout = caf\xe9\n")
        else:
            path.write_bytes(written[kind][:-2] + b"\xff\n")
        with pytest.raises(HeaderFieldUnparsable, match="not UTF-8"):
            {**READERS, "config": parse_config_file}[kind](path)

    @pytest.mark.parametrize("kind", ["csv", "labels"])
    def test_cell_past_the_csv_field_limit_is_unparsable(self, kind, written, tmp_path):
        path = tmp_path / kind
        head, _, body = written[kind].partition(b"\n")
        path.write_bytes(head + b"," + b"x" * 200_000 + b"\n" + body)
        with pytest.raises(HeaderFieldUnparsable, match="field limit"):
            READERS[kind](path)

    def test_stage_code_past_int64_names_path_and_line(self, tmp_path):
        path = tmp_path / "n_sleep.txt"
        path.write_text("2\n99999999999999999999\n")
        with pytest.raises(HeaderFieldUnparsable, match=r"n_sleep\.txt line 2"):
            load_sleep_scores(path)

    def test_unknown_label_code_is_coded(self, tmp_path):
        path = tmp_path / "n_labels.csv"
        path.write_text("channel,start_s,end_s,label\nEEG,0,10,7\n")
        with pytest.raises(UnknownLabelCode) as info:
            load_annotations(path)
        assert info.value.code is not None

    @pytest.mark.parametrize("cell", ["1e99999999", "1e-99999999"])
    def test_time_of_a_huge_exponent_is_refused_at_once(self, cell, tmp_path):
        # Fraction would build 10**99999999 first; a child process turns a
        # regression into a timeout instead of a hung suite
        path = tmp_path / "n_labels.csv"
        path.write_text(f"channel,start_s,end_s,label\nEEG,0,{cell},2\n")
        code = (
            "import sys, time\n"
            "from floss.epoching import load_annotations\n"
            "from floss.errors import FlossError\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    load_annotations(sys.argv[1])\n"
            "except FlossError as exc:\n"
            "    print(exc.code.value, time.perf_counter() - start)\n"
        )
        src = str(Path(floss.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code, str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        code_value, seconds = done.stdout.split()
        assert code_value == "HeaderFieldUnparsable"
        assert float(seconds) < 0.1

    @settings(max_examples=200, deadline=None)
    @given(
        times=st.lists(
            st.fractions() | st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
            min_size=2, max_size=2, unique=True,
        )
    )
    def test_every_time_written_reads_back(self, times, tmp_path_factory):
        start, end = sorted(times)
        path = tmp_path_factory.getbasetemp() / "round-trip_labels.csv"
        spans = [AnnotationSpan("EEG", start, end, ArtifactClass.SPIKY)]
        write_annotations(spans, path)
        assert load_annotations(path) == spans

    def test_rate_past_the_float_range_is_unparsable(self, written, tmp_path):
        path = tmp_path / "n.edf"
        data = bytearray(written["edf"])
        data[244:252] = b"1e-308  "  # record duration: 4 samples in it overflow the rate
        path.write_bytes(bytes(data))
        with pytest.raises(HeaderFieldUnparsable, match="finite"):
            read_edf(path)

    def test_header_only_csv_is_empty_without_a_warning(self, tmp_path):
        path = tmp_path / "n.csv"
        for text in ("t_s,EEG\n", "t_s,EEG\n\n\n"):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EmptyRecording):
                    read_csv(path)
