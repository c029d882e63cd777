"""Standard sleep metrics from artifact-rejected scores.

The sleep period spans the first to the last sleep-stage epoch; unscorable
epochs never open or close it but do count as elapsed time inside it.
Latencies run from Lights Out when time-in-bed is known, otherwise from
the start of the recording.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregate import SleepStage
from .errors import EmptyRecording, NoSleepDetected
from .mobility import TimeInBed

SLEEP_STAGES = (SleepStage.N1, SleepStage.N2, SleepStage.N3, SleepStage.REM)

#: JSON field order and names
_FIELD_NAMES = (
    ("lights_out_sec", "Lights_out_sec"),
    ("lights_on_sec", "Lights_on_sec"),
    ("scorable_pct", "Scorable_%"),
    ("tib_min", "TIB_min"),
    ("spt_min", "SPT_min"),
    ("tst_min", "TST_min"),
    ("n1_min", "N1_min"),
    ("n1_pct", "N1_%"),
    ("n2_min", "N2_min"),
    ("n2_pct", "N2_%"),
    ("n3_min", "N3_min"),
    ("n3_pct", "N3_%"),
    ("rem_min", "REM_min"),
    ("rem_pct", "REM_%"),
    ("nrem_min", "NREM_min"),
    ("nrem_pct", "NREM_%"),
    ("waso_min", "WASO_min"),
    ("sol_min", "SOL_min"),
    ("n1_latency_min", "N1_latency_min"),
    ("n2_latency_min", "N2_latency_min"),
    ("n3_latency_min", "N3_latency_min"),
    ("rem_latency_min", "REM_latency_min"),
    ("psw_min", "PSW_min"),
    ("se_pct", "SE_%"),
    ("sme_pct", "SME_%"),
)


@dataclass
class SleepStats:
    lights_out_sec: float | None
    lights_on_sec: float | None
    scorable_pct: float
    tib_min: float
    spt_min: float
    tst_min: float
    n1_min: float
    n1_pct: float
    n2_min: float
    n2_pct: float
    n3_min: float
    n3_pct: float
    rem_min: float
    rem_pct: float
    nrem_min: float
    nrem_pct: float
    waso_min: float
    sol_min: float
    n1_latency_min: float | None
    n2_latency_min: float | None
    n3_latency_min: float | None
    rem_latency_min: float | None
    psw_min: float
    se_pct: float
    sme_pct: float

    def to_dict(self) -> dict:
        """Metric-name keyed mapping; absent metrics are omitted."""
        out = {}
        for attr, name in _FIELD_NAMES:
            value = getattr(self, attr)
            if value is not None:
                out[name] = float(value)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def compute_stats(
    scores: np.ndarray,
    epoch_len_s: float = 30.0,
    tib: TimeInBed | None = None,
) -> SleepStats:
    """Sleep metrics from a night of (possibly artifact-rejected) scores."""
    s = np.asarray(scores, dtype=np.int64)
    n = len(s)
    if n == 0:
        raise EmptyRecording("no sleep scores")
    minutes = epoch_len_s / 60.0

    is_sleep = np.isin(s, [int(st) for st in SLEEP_STAGES])
    sleep_idx = np.flatnonzero(is_sleep)
    if sleep_idx.size == 0:
        raise NoSleepDetected("no sleep-stage epoch in the night")
    first, last = int(sleep_idx[0]), int(sleep_idx[-1])

    spt_min = (last - first + 1) * minutes
    tst_min = int(is_sleep.sum()) * minutes
    stage_min = {st: int((s == st).sum()) * minutes for st in SLEEP_STAGES}
    nrem_min = stage_min[SleepStage.N1] + stage_min[SleepStage.N2] + stage_min[SleepStage.N3]

    inside = s[first : last + 1]
    waso_min = int((inside == SleepStage.WAKE).sum()) * minutes

    lights_out_s = tib.lights_out_s if tib is not None else 0.0
    tib_min = tib.tib_min if tib is not None else n * minutes

    def latency(idx: int | None) -> float | None:
        if idx is None:
            return None
        return (idx * epoch_len_s - lights_out_s) / 60.0

    def first_of(stage: SleepStage) -> int | None:
        hits = np.flatnonzero(s == stage)
        return int(hits[0]) if hits.size else None

    after = np.flatnonzero(s[last + 1 :] == SleepStage.WAKE) + last + 1
    if tib is not None:
        after = after[after * epoch_len_s < tib.lights_on_s]
    psw_min = after.size * minutes

    pct = {st: 100.0 * stage_min[st] / tst_min for st in SLEEP_STAGES}
    return SleepStats(
        lights_out_sec=tib.lights_out_s if tib is not None else None,
        lights_on_sec=tib.lights_on_s if tib is not None else None,
        scorable_pct=100.0 * float((s != SleepStage.UNSCORABLE).mean()),
        tib_min=tib_min,
        spt_min=spt_min,
        tst_min=tst_min,
        n1_min=stage_min[SleepStage.N1],
        n1_pct=pct[SleepStage.N1],
        n2_min=stage_min[SleepStage.N2],
        n2_pct=pct[SleepStage.N2],
        n3_min=stage_min[SleepStage.N3],
        n3_pct=pct[SleepStage.N3],
        rem_min=stage_min[SleepStage.REM],
        rem_pct=pct[SleepStage.REM],
        nrem_min=nrem_min,
        nrem_pct=100.0 * nrem_min / tst_min,
        waso_min=waso_min,
        sol_min=latency(first),
        n1_latency_min=latency(first_of(SleepStage.N1)),
        n2_latency_min=latency(first_of(SleepStage.N2)),
        n3_latency_min=latency(first_of(SleepStage.N3)),
        rem_latency_min=latency(first_of(SleepStage.REM)),
        psw_min=psw_min,
        se_pct=100.0 * tst_min / tib_min,
        sme_pct=100.0 * tst_min / spt_min,
    )


def write_stats(stats: SleepStats, path: str | Path) -> None:
    Path(path).write_text(stats.to_json())


def tib_to_json(tib: TimeInBed) -> str:
    """``floss tib``'s document: the time-in-bed fields of the stats JSON."""
    values = {
        "lights_out_sec": tib.lights_out_s, "lights_on_sec": tib.lights_on_s, "tib_min": tib.tib_min
    }
    doc = {name: float(values[attr]) for attr, name in _FIELD_NAMES if attr in values}
    return json.dumps(doc, indent=2) + "\n"
