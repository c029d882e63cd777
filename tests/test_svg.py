"""SVG renderers: well-formed output with the expected structure."""
from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import floss
from floss.epoching import epoch_view
from floss.features import SpectrogramConfig, spectrogram
from floss.mobility import TimeInBed
from floss.signal_io import ChannelSignal, Recording
from floss.svg import (
    CLASS_COLORS,
    MOBILITY_COLORS,
    STAGE_ROWS,
    _runs,
    render_hypnogram,
    render_usability_graph,
)
from floss.usability import UsabilityScores

NS = "{http://www.w3.org/2000/svg}"

#: written by the per-cell renderer that the vectorised one replaced
GOLDEN_USABILITY_SVG = Path(__file__).parent / "data" / "usability_small.svg"


def _spectra(rec: Recording) -> np.ndarray:
    """Each channel's frame-mean spectrogram per 10-s epoch."""
    cfg = SpectrogramConfig(fs=rec.fs)
    epochs = [epoch_view(ch.samples, rec.fs, 10.0) for ch in rec.channels]
    return np.stack([spectrogram(e, cfg).mean(axis=1) for e in epochs])


def golden_usability_graph() -> str:
    """The usability graph of a seeded 13-epoch night with fixed labels."""
    rec, _, _, _ = floss.gen_night(subject_index=0, n_epochs=13, seed=5)
    idx = np.arange(13)
    scores = UsabilityScores(
        channels=[ch.label for ch in rec.channels],
        labels=[idx % 5, (idx // 3) % 5],
        epoch_len_s=10.0,
        spectra=_spectra(rec),
    )
    return render_usability_graph(rec, scores, "golden night")


def _parse(doc: str) -> ET.Element:
    return ET.fromstring(doc)


def _texts(root: ET.Element) -> list[str]:
    return [el.text for el in root.iter(f"{NS}text")]


def _fills(root: ET.Element) -> set[str]:
    return {el.get("fill") for el in root.iter(f"{NS}rect")}


@pytest.fixture(scope="module")
def night_scores(small_night, tiny_model):
    from floss.usability import score_recording

    rec, _, _, _ = small_night
    return rec, score_recording(rec, tiny_model)


class TestRuns:
    def test_basic(self):
        assert _runs(np.array([0, 0, 2, 2, 2, 1])) == [(0, 2, 0), (2, 3, 2), (5, 1, 1)]

    def test_single_run(self):
        assert _runs(np.array([4, 4, 4])) == [(0, 3, 4)]

    def test_empty(self):
        assert _runs(np.array([], dtype=np.int64)) == []


class TestUsabilityGraph:
    def test_well_formed_with_channel_rows(self, night_scores):
        rec, scores = night_scores
        root = _parse(render_usability_graph(rec, scores, "night one"))
        texts = _texts(root)
        assert "night one" in texts
        for ch in rec.channels:
            assert ch.label in texts
        assert "acc" in texts  # the movement trace row
        assert len(list(root.iter(f"{NS}polyline"))) == 1

    def test_label_strip_uses_class_colors(self, night_scores):
        rec, scores = night_scores
        fills = _fills(_parse(render_usability_graph(rec, scores, "t")))
        seen = {int(v) for seq in scores.labels for v in seq}
        for value in seen:
            assert CLASS_COLORS[value] in fills

    def test_all_usable_strip_is_one_rect(self, small_night):
        rec, _, _, _ = small_night
        scores = UsabilityScores(
            channels=[ch.label for ch in rec.channels],
            labels=[np.zeros(60, dtype=np.int64) for _ in rec.channels],
            epoch_len_s=10.0,
            spectra=_spectra(rec),
        )
        doc = render_usability_graph(rec, scores, "t")
        strip_rects = [
            m for m in re.finditer(r'<rect [^>]*fill="#2e7d32"', doc)
        ]
        assert len(strip_rects) == len(rec.channels) + 1  # strips plus legend chip

    def test_binary_palette_and_legend(self, small_night):
        rec, _, _, _ = small_night
        scores = UsabilityScores(
            channels=[ch.label for ch in rec.channels],
            labels=[np.array([0, 1] * 30) for _ in rec.channels],
            epoch_len_s=10.0,
            spectra=_spectra(rec),
        )
        root = _parse(render_usability_graph(rec, scores, "t", binary=True))
        texts = _texts(root)
        assert "unusable" in texts
        assert "m-shaped" not in texts

    def test_no_acc_trace_without_acc(self, small_night, tiny_model):
        from floss.signal_io import Recording
        from floss.usability import score_recording

        rec, _, _, _ = small_night
        bare = Recording(
            channels=rec.channels, acc=None, fs=rec.fs,
            start_time=rec.start_time, device_id=rec.device_id,
        )
        root = _parse(render_usability_graph(bare, score_recording(bare, tiny_model), "t"))
        assert "acc" not in _texts(root)
        assert list(root.iter(f"{NS}polyline")) == []

    def test_heat_map_draws_the_given_spectra(self):
        # three epochs of flat spectra at 1, 10 and 100: log power 0, 1 and 2
        spectra = np.repeat(10.0 ** np.arange(3), 32).reshape(1, 3, 32)
        scores = UsabilityScores(["EEG"], [np.zeros(3, dtype=np.int64)], 10.0, spectra)
        # one sample per channel: the heat map must not need the EEG itself
        rec = Recording(channels=[ChannelSignal("EEG", np.zeros(1))], acc=None, fs=256.0)
        root = _parse(render_usability_graph(rec, scores, "t"))
        cells = [el for el in root.iter(f"{NS}rect") if el.get("height") == "2.5"]
        assert len(cells) == 3 * 32
        columns = {}
        for el in cells:
            columns.setdefault(float(el.get("x")), set()).add(el.get("fill"))
        # the colour map's low, middle and high stops
        assert [columns[x] for x in sorted(columns)] == [{"#0d0887"}, {"#9c179e"}, {"#f0f921"}]

    def test_matches_golden_bytes(self):
        got = golden_usability_graph().splitlines(keepends=True)
        want = GOLDEN_USABILITY_SVG.read_text().splitlines(keepends=True)
        # report the first differing lines, not a diff of the whole document
        differ = [(i, a, b) for i, (a, b) in enumerate(zip(got, want)) if a != b]
        assert len(got) == len(want) and not differ, differ[:3]

    def test_finite_coordinates(self, night_scores):
        rec, scores = night_scores
        doc = render_usability_graph(rec, scores, "t")
        assert "nan" not in doc.lower().replace("tspan", "")
        assert "inf" not in doc.lower()


class TestHypnogram:
    def test_stage_axis_top_to_bottom(self):
        doc = render_hypnogram(np.array([0, 1, 2]), 30.0, "t")
        root = _parse(doc)
        labeled = [
            (float(el.get("y")), el.text)
            for el in root.iter(f"{NS}text")
            if el.text in {label for _, label in STAGE_ROWS}
        ]
        assert [label for _, label in sorted(labeled)] == ["W", "REM", "N1", "N2", "N3", "un"]

    def test_step_path_visits_rows_in_order(self):
        scores = np.array([0, 1, -1, -1, -1, 4])
        root = _parse(render_hypnogram(scores, 30.0, "t"))
        path = next(iter(root.iter(f"{NS}path")))
        d = path.get("d")
        # one M start, one V per stage change, one H per epoch
        assert d.startswith("M ")
        assert d.count("H") == len(scores)
        changes = (np.diff(scores) != 0).sum()
        assert d.count("V") == changes
        row = {stage: i for i, (stage, _) in enumerate(STAGE_ROWS)}
        ys = [float(v) for v in re.findall(r"[MV] (?:[\d.]+ )?([\d.]+)", d)]
        expect = [row[0], row[1], row[-1], row[4]]  # W, N1, un, REM
        ranks = [sorted(set(ys)).index(y) for y in ys]
        got_order = [r for i, r in enumerate(ranks) if i == 0 or ranks[i] != ranks[i - 1]]
        want_order = [sorted(set(expect)).index(e) for e in expect]
        assert got_order == want_order

    def test_unscorable_epochs_shaded(self):
        scores = np.array([0, -1, -1, 2])
        root = _parse(render_hypnogram(scores, 30.0, "t"))
        shading = [el for el in root.iter(f"{NS}rect") if el.get("fill") == "#f5f5f5"]
        assert len(shading) == 1  # one run of unscorable epochs

    def test_mobility_strip_and_legend(self):
        scores = np.array([0, 1, 2, 2])
        mobility = np.array([3, 1, 1, 3])
        root = _parse(render_hypnogram(scores, 30.0, "t", mobility=mobility))
        texts = _texts(root)
        assert "mob" in texts
        assert "lying" in texts and "mobile" in texts
        fills = _fills(root)
        assert MOBILITY_COLORS[1] in fills and MOBILITY_COLORS[3] in fills

    def test_no_mobility_no_legend(self):
        root = _parse(render_hypnogram(np.array([0, 1]), 30.0, "t"))
        texts = _texts(root)
        assert "mob" not in texts
        assert "lying" not in texts

    def test_tib_markers(self):
        scores = np.array([0, 1, 2, 2, 0])
        tib = TimeInBed(lights_out_s=30.0, lights_on_s=120.0, tib_min=1.5)
        root = _parse(render_hypnogram(scores, 30.0, "t", tib=tib))
        dashed = [
            el for el in root.iter(f"{NS}line") if el.get("stroke-dasharray")
        ]
        assert len(dashed) == 2
        texts = _texts(root)
        assert "lights out" in texts and "lights on" in texts
        # lights out at 30/150 of the plot width, left of lights on
        assert float(dashed[0].get("x1")) < float(dashed[1].get("x1"))

    def test_title_escaped(self):
        doc = render_hypnogram(np.array([1]), 30.0, "a <b> & c")
        assert "a &lt;b&gt; &amp; c" in doc
        _parse(doc)
