"""Batch pipeline over directories of nights with skip-and-report semantics.

Nights run one after another on the caller's thread, and each night's heavy
stages use every CPU through the kept pool.  Each night is processed
independently: read, optionally write a despiked copy, score usability per
channel on the recording as read, classify mobility and find time in bed
when an accelerometer model is given, merge with sleep scores when a
sidecar exists, and emit CSV/JSON/SVG outputs.  Every output is written
into a staging directory inside the output directory and moved into place
only once the whole night has succeeded. A night failing with a taxonomy
error is skipped whole and the error lands in the batch summary. Only
configuration problems abort the run; they too leave no partial outputs.
"""
from __future__ import annotations

import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import gbt, svg
from .aggregate import AggregationConfig, load_sleep_scores, rejected_scores, write_sleep_scores
from .errors import FileUnreadable, FlossError, NoLyingPeriod, NoSleepDetected
from .features import cpu_pool
from .mobility import DEFAULT_RUN_EPOCHS, classify_mobility, detect_tib, write_mobility_csv
from .signal_io import (
    ChannelSignal,
    Recording,
    RecordingLayout,
    is_digital,
    open_input,
    read_csv,
    read_edf,
    read_edf_layout,
    to_held_digital,
    write_csv,
    write_edf,
)
from .sleepstats import compute_stats, write_stats
from .spiky import design_cascade, apply_zero_phase
from .usability import score_recording

#: stems ending in these are sidecars or prior outputs, never input nights
_SIDECAR_SUFFIXES = ("_labels", "_usability", "_mobility", "_rejected", "_despiked")


@dataclass
class PipelineConfig:
    input_dir: str | Path
    out_dir: str | Path
    model_path: str | Path
    mobility_model_path: str | Path | None = None
    sleep_epoch_len_s: float = 30.0
    despike: bool = False
    tib_run_epochs: int = DEFAULT_RUN_EPOCHS


@dataclass
class NightReport:
    night_id: str
    status: str  # "ok" or "skipped"
    error_code: str | None = None
    message: str = ""
    outputs: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "night_id": self.night_id,
            "status": self.status,
            "error_code": self.error_code,
            "message": self.message,
            "outputs": self.outputs,
        }


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` lines; blank lines and # comments ignored."""
    with open_input(path) as handle:
        text = handle.read()
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path} line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def discover_nights(input_dir: str | Path) -> list[Path]:
    """Recording files in a directory, EDF preferred over a same-stem CSV."""
    root = Path(input_dir)
    if not root.is_dir():
        raise FileUnreadable(f"input directory {root} does not exist")
    chosen: dict[str, Path] = {}
    for path in sorted(root.iterdir()):
        if path.suffix.lower() not in (".edf", ".csv"):
            continue
        stem = path.stem
        if any(stem.endswith(sfx) for sfx in _SIDECAR_SUFFIXES):
            continue
        if stem not in chosen or path.suffix.lower() == ".edf":
            chosen[stem] = path
    return [chosen[stem] for stem in sorted(chosen)]


def _is_edf(path: str | Path) -> bool:
    """Whether a night's file is EDF: an ``.edf`` suffix; any other is CSV."""
    return Path(path).suffix.lower() == ".edf"


def read_recording(path: str | Path) -> Recording:
    """Read an ``.edf`` file as EDF and any other file as the CSV fallback."""
    return read_edf(path) if _is_edf(path) else read_csv(path)


def read_layout(path: str | Path) -> RecordingLayout:
    """A night's layout, the reader chosen as ``read_recording`` chooses it.

    An EDF night's comes from its header alone.  A CSV night has no header
    that gives its length, so it is read whole and dropped.
    """
    return read_edf_layout(path) if _is_edf(path) else read_csv(path).layout


def write_recording(rec: Recording, path: str | Path) -> None:
    """Write EDF to an ``.edf`` path and the CSV fallback to any other."""
    if _is_edf(path):
        write_edf(rec, path)
    else:
        write_csv(rec, path)


def despiked(rec: Recording, digital: bool = False) -> Recording:
    """The recording with every EEG channel through the zero-phase cascade.

    The channels are filtered on the kept CPU pool, a task each, reading a
    digital channel a chunk at a time.  With ``digital``, a filtered channel
    is held in the digital form of its calibration, converted a chunk at a
    time in its task: a sample out of the declared range raises
    ``AmplitudeOutOfDeclaredRange`` here, before any writer opens a file.
    """
    cascade = design_cascade(rec.fs)

    def filter_channel(ch: ChannelSignal) -> np.ndarray:
        calibration = ch.calibration if is_digital(ch.held) else None
        samples = apply_zero_phase(cascade, ch.held, calibration)
        return to_held_digital(samples, ch.calibration) if digital else samples

    filtered = list(cpu_pool().map(filter_channel, rec.channels))
    channels = [
        ChannelSignal(ch.label, samples, unit=ch.unit, calibration=ch.calibration)
        for ch, samples in zip(rec.channels, filtered)
    ]
    return replace(rec, channels=channels)


def write_despiked(rec: Recording, path: str | Path) -> None:
    """Write the despiked recording as ``write_recording`` writes: an EDF
    file from filtered channels held in the digital form."""
    write_recording(despiked(rec, digital=_is_edf(path)), path)


@contextmanager
def _staged(out_dir: Path):
    """A fresh directory inside ``out_dir``; its files move into ``out_dir``
    when the block succeeds, and the directory is removed in every case."""
    stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    try:
        yield stage
        for staged in stage.iterdir():
            os.replace(staged, out_dir / staged.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _write_night(
    path: Path,
    stage: Path,
    model: gbt.Model,
    mobility_model: gbt.Model | None,
    config: PipelineConfig,
) -> None:
    """Run the per-night chain, writing each output into ``stage``."""
    night_id = path.stem
    rec = read_recording(path)
    if config.despike:
        # the models were fit on unfiltered epochs: only the copy is despiked
        write_despiked(rec, stage / f"{night_id}_despiked{path.suffix.lower()}")

    scores = score_recording(rec, model)
    binary = bool(model.meta.get("binary", False))
    (stage / f"{night_id}_usability.csv").write_text(scores.to_csv())
    (stage / f"{night_id}_usability.svg").write_text(
        svg.render_usability_graph(rec, scores, night_id, binary=binary)
    )

    mobility = None
    tib = None
    if mobility_model is not None:
        states = classify_mobility(rec.acc, rec.fs, mobility_model)
        mobility_epoch_len_s = gbt.input_epoch_len(mobility_model, "mobility", rec.fs)
        write_mobility_csv(states, stage / f"{night_id}_mobility.csv")
        try:
            tib = detect_tib(states, config.tib_run_epochs, mobility_epoch_len_s)
        except NoLyingPeriod:
            pass  # as with a sleepless night, the other outputs stand
        mobility = np.asarray([int(s) for s in states])

    sleep_path = path.with_name(f"{night_id}_sleep.txt")
    if not sleep_path.exists():
        return
    sleep_scores = load_sleep_scores(sleep_path)
    agg = AggregationConfig(
        usability_epoch_len_s=scores.epoch_len_s,
        sleep_epoch_len_s=config.sleep_epoch_len_s,
    )
    s_ar = rejected_scores(scores.labels, sleep_scores, agg)
    write_sleep_scores(s_ar, stage / f"{night_id}_rejected.txt")
    csv_lines = ["epoch_start_s,score"]
    csv_lines += [f"{repr(i * config.sleep_epoch_len_s)},{int(v)}" for i, v in enumerate(s_ar)]
    (stage / f"{night_id}_rejected.csv").write_text("\n".join(csv_lines) + "\n")

    try:
        stats = compute_stats(s_ar, config.sleep_epoch_len_s, tib=tib)
        write_stats(stats, stage / f"{night_id}_stats.json")
    except NoSleepDetected:
        pass  # a sleepless night still gets usability outputs

    sleep_mobility = None
    if mobility is not None:
        # show mobility on the sleep-epoch grid next to the hypnogram
        ratio = max(1, int(round(config.sleep_epoch_len_s / mobility_epoch_len_s)))
        trimmed = mobility[: (len(mobility) // ratio) * ratio]
        if len(trimmed):
            sleep_mobility = trimmed.reshape(-1, ratio)[:, 0]
    (stage / f"{night_id}_hypnogram.svg").write_text(
        svg.render_hypnogram(
            s_ar, config.sleep_epoch_len_s, night_id, mobility=sleep_mobility, tib=tib
        )
    )


def process_night(
    path: Path,
    out_dir: Path,
    model: gbt.Model,
    mobility_model: gbt.Model | None,
    config: PipelineConfig,
) -> NightReport:
    """Run the whole per-night chain; its outputs appear only on success."""
    try:
        with _staged(out_dir) as stage:
            _write_night(path, stage, model, mobility_model, config)
            outputs = sorted(p.name for p in stage.iterdir())
    except FlossError as exc:
        if exc.code is None:
            raise
        return NightReport(
            night_id=path.stem,
            status="skipped",
            error_code=exc.code.value,
            message=str(exc),
        )
    return NightReport(night_id=path.stem, status="ok", outputs=outputs)


def run_pipeline(config: PipelineConfig) -> list[NightReport]:
    """Process every night under the input directory and write the summary."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = gbt.load_model(config.model_path)
    mobility_model = (
        gbt.load_model(config.mobility_model_path)
        if config.mobility_model_path is not None
        else None
    )
    # an uncoded failure propagates: no later night starts, no summary is written
    reports = [
        process_night(path, out_dir, model, mobility_model, config)
        for path in discover_nights(config.input_dir)
    ]
    summary = {
        "nights": [r.to_dict() for r in reports],
        "ok": sum(r.status == "ok" for r in reports),
        "skipped": sum(r.status == "skipped" for r in reports),
    }
    with _staged(out_dir) as stage:
        (stage / "report.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return reports
