"""Batch pipeline over directories of nights with skip-and-report semantics.

Nights run one after another on the caller's thread, and each night's heavy
stages use every CPU through ``features.pool_map``.  A night runs five named
stages, each returning what later stages read: read (``read_recording``),
despike copy (``write_despiked``), usability (scores, label CSV and graph),
mobility (states, their CSV and time in bed) and sleep (rejected scores,
statistics and hypnogram, from a ``<stem>_sleep.txt`` sidecar).  ``floss
check``, ``tib`` and ``despike`` call the same stages, so each output file
has one writer.  Every output is written into a staging directory inside
the output directory and moved into place only once the whole night has
succeeded. A night failing with a taxonomy error is skipped whole and the
error lands in the batch summary. Only configuration problems abort the
run; they too leave no partial outputs.
"""
from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import gbt, svg
from .aggregate import (
    AggregationConfig, load_sleep_scores, rejected_scores, write_rejected_csv, write_sleep_scores
)
from .errors import FileUnreadable, FlossError, NoLyingPeriod, NoSleepDetected
from .features import pool_map
from .mobility import (
    DEFAULT_RUN_EPOCHS, MobilityState, TimeInBed, classify_mobility, detect_tib, write_mobility_csv
)
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
from .usability import UsabilityScores, score_recording

#: stems ending in these are sidecars or prior outputs, never input nights
_SIDECAR_SUFFIXES = ("_labels", "_usability", "_mobility", "_rejected", "_despiked")
#: a stage's output path; None or empty writes no file
_Out = str | Path | None


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

    filtered = list(pool_map(filter_channel, rec.channels))
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


def usability_stage(
    rec: Recording, model: gbt.Model, csv_path: _Out = None, svg_path: _Out = None, title: str = ""
) -> UsabilityScores:
    """Score every channel; write the label CSV and the graph where a path is given."""
    scores = score_recording(rec, model)
    if csv_path:
        Path(csv_path).write_text(scores.to_csv())
    if svg_path:
        binary = bool(model.meta.get("binary", False))
        Path(svg_path).write_text(svg.render_usability_graph(rec, scores, title, binary=binary))
    return scores


@dataclass(frozen=True)
class NightMobility:
    """The mobility stage's result: one state per epoch of ``epoch_len_s``
    seconds, and time in bed, None without a long Lying run."""

    states: list[MobilityState]
    epoch_len_s: float
    tib: TimeInBed | None


def mobility_stage(
    rec: Recording, model: gbt.Model, run_epochs: int, csv_path: _Out = None, need_tib: bool = False
) -> NightMobility:
    """Classify wearing states, write them where a path is given, and find
    time in bed.  Without a long Lying run the night keeps its other outputs,
    as a sleepless night does, unless ``need_tib`` lets ``NoLyingPeriod`` out."""
    states = classify_mobility(rec.acc, rec.fs, model)
    epoch_len_s = gbt.input_epoch_len(model, "mobility", rec.fs)
    if csv_path:
        write_mobility_csv(states, csv_path)
    try:
        tib = detect_tib(states, run_epochs, epoch_len_s)
    except NoLyingPeriod:
        if need_tib:
            raise
        tib = None
    return NightMobility(states, epoch_len_s, tib)


def sleep_stage(
    sleep_scores: np.ndarray,
    scores: UsabilityScores,
    mobility: NightMobility | None,
    epoch_len_s: float,
    out: Callable[[str], Path],
    title: str,
) -> None:
    """Write the artifact-rejected scores, their statistics and the hypnogram
    to ``out(name)``; ``epoch_len_s`` is the sleep scores' epoch length."""
    agg = AggregationConfig(scores.epoch_len_s, epoch_len_s)
    s_ar = rejected_scores(scores.labels, sleep_scores, agg)
    write_sleep_scores(s_ar, out("rejected.txt"))
    write_rejected_csv(s_ar, epoch_len_s, out("rejected.csv"))
    tib = mobility.tib if mobility is not None else None
    try:
        write_stats(compute_stats(s_ar, epoch_len_s, tib=tib), out("stats.json"))
    except NoSleepDetected:
        pass  # a sleepless night still gets usability outputs

    strip = None
    if mobility is not None:
        # show mobility on the sleep-epoch grid: the first state of each sleep epoch
        ratio = max(1, int(round(epoch_len_s / mobility.epoch_len_s)))
        whole = len(mobility.states) // ratio * ratio
        if whole:
            strip = np.asarray([int(s) for s in mobility.states[:whole:ratio]])
    out("hypnogram.svg").write_text(
        svg.render_hypnogram(s_ar, epoch_len_s, title, mobility=strip, tib=tib)
    )


def _write_night(
    path: Path,
    stage: Path,
    model: gbt.Model,
    mobility_model: gbt.Model | None,
    config: PipelineConfig,
) -> None:
    """Run the per-night stages, writing each output into ``stage``."""
    night_id = path.stem

    def out(name: str) -> Path:
        return stage / f"{night_id}_{name}"

    rec = read_recording(path)
    if config.despike:
        # the models were fit on unfiltered epochs: only the copy is despiked
        write_despiked(rec, out(f"despiked{path.suffix.lower()}"))
    scores = usability_stage(rec, model, out("usability.csv"), out("usability.svg"), night_id)
    mobility = None
    if mobility_model is not None and rec.acc is not None:
        mobility = mobility_stage(rec, mobility_model, config.tib_run_epochs, out("mobility.csv"))
    sleep_path = path.with_name(f"{night_id}_sleep.txt")
    if sleep_path.exists():
        sleep_scores = load_sleep_scores(sleep_path)
        sleep_stage(sleep_scores, scores, mobility, config.sleep_epoch_len_s, out, night_id)


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
        "nights": [asdict(r) for r in reports],
        "ok": sum(r.status == "ok" for r in reports),
        "skipped": sum(r.status == "skipped" for r in reports),
    }
    with _staged(out_dir) as stage:
        (stage / "report.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return reports
