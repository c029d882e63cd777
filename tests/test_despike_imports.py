"""Despiking runs scipy's compiled filter without importing scipy.signal.

``import scipy.signal`` takes about a second, a large share of a short
``floss despike`` or ``floss report --despike`` run.  Each command runs in a
fresh interpreter here, so the modules it leaves loaded are its own.
"""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import floss
from floss import gbt, spiky
from floss.cli import main
from floss.signal_io import ChannelSignal, read_csv, read_edf, write_csv, write_edf
from floss.spiky import design_cascade
from test_spiky import _two_pass_filter

_RUN = """
import json, sys
from floss import spiky
from floss.cli import main
main(sys.argv[1:], standalone_mode=False)
print(json.dumps({
    "scipy.signal": "scipy.signal" in sys.modules,
    "scipy.signal._sigtools": "scipy.signal._sigtools" in sys.modules,
    "recursion": spiky._lfilter.__name__,
}))
"""


def _floss(*args: str) -> dict:
    """Run one ``floss`` command in a fresh interpreter; what it loaded."""
    src = str(Path(floss.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _RUN, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(autouse=True)
def _needs_the_kernel():
    if spiky._compiled_lfilter() is None:
        pytest.skip("this scipy has no compiled _sigtools._linear_filter")


def _filtered(rec):
    cascade = design_cascade(rec.fs)
    channels = [
        ChannelSignal(ch.label, _two_pass_filter(cascade, ch.samples), ch.unit, ch.calibration)
        for ch in rec.channels
    ]
    return dataclasses.replace(rec, channels=channels)


def test_despike_csv_leaves_scipy_signal_unloaded(tmp_path, small_night):
    night, clean = tmp_path / "night.csv", tmp_path / "clean.csv"
    write_csv(small_night[0], night)
    loaded = _floss("despike", "--input", str(night), "--out", str(clean))
    assert loaded == {
        "scipy.signal": False, "scipy.signal._sigtools": False, "recursion": "_linear_filter"
    }
    want = _filtered(read_csv(night))
    for got, ch in zip(read_csv(clean).channels, want.channels, strict=True):
        assert got.samples.tobytes() == ch.samples.tobytes()


def test_report_despike_leaves_scipy_signal_unloaded(tmp_path, tiny_model):
    nights = tmp_path / "nights"
    result = CliRunner().invoke(
        main, ["synth", "--out", str(nights), "--subjects", "1", "--epochs", "36"]
    )
    assert result.exit_code == 0, result.output
    gbt.save_model(tiny_model, tmp_path / "usability.json")
    out = tmp_path / "out"
    loaded = _floss(
        "report", "--input", str(nights), "--out", str(out),
        "--model", str(tmp_path / "usability.json"), "--despike",
    )
    assert loaded == {
        "scipy.signal": False, "scipy.signal._sigtools": False, "recursion": "_linear_filter"
    }
    write_edf(_filtered(read_edf(nights / "s00.edf")), tmp_path / "want.edf")
    assert (out / "s00_despiked.edf").read_bytes() == (tmp_path / "want.edf").read_bytes()
