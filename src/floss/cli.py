"""Command line entry points.

Every command takes an optional flat ``key = value`` config file; explicit
flags win over config values, which win over the built-in defaults.
"""
from __future__ import annotations

import dataclasses
import functools
import json
from collections import Counter
from pathlib import Path

import click
import numpy as np

from . import __version__, gbt, report as report_mod, synth as synth_mod
from .aggregate import load_sleep_scores
from .epoching import EpochSample, balance_rus, build_epochs, load_annotations, write_annotations
from .errors import FlossError, ModelIncompatible
from .mobility import (
    MobilityState,
    classify_mobility,
    detect_tib,
    fit_mobility,
    write_mobility_csv,
)
from .signal_io import TriAxialAcc
from .sleepstats import compute_stats
from .usability import VARIANTS, score_recording, train_usability

_VARIANT_CHOICE = click.Choice(sorted(VARIANTS))


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FlossError as exc:
            code = f" [{exc.code.value}]" if exc.code is not None else ""
            raise click.ClickException(f"{exc}{code}") from exc
        except OSError as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


def _load_config(path: str | None) -> dict[str, str]:
    return report_mod.parse_config_file(path) if path else {}


def _merge(cfg: dict[str, str], key: str, flag, default, cast=str):
    """Flag beats config file beats default."""
    if flag is not None:
        return flag
    if key in cfg:
        raw = cfg[key]
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    return default


def _require_epoch_len(epoch_len: float | None, model: gbt.Model) -> None:
    """An --epoch-len, when given, must be the model's own epoch length."""
    if epoch_len is not None and epoch_len != model.meta.get("epoch_len_s"):
        raise ModelIncompatible(
            f"--epoch-len {epoch_len} differs from the model's "
            f"{model.meta.get('epoch_len_s')} s"
        )


@click.group()
@click.version_option(version=__version__, prog_name="floss")
def main() -> None:
    """Sleep EEG usability scoring, artifact rejection, and reporting."""


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), default=None, help="usability CSV path")
@click.option("--epoch-len", type=float, default=None, help="must match the model when given")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_cli_errors
def check(input_path, model_path, out_path, epoch_len, config_path) -> None:
    """Score one recording's per-epoch usability."""
    cfg = _load_config(config_path)
    epoch_len = _merge(cfg, "epoch_len", epoch_len, None, float)
    model = gbt.load_model(model_path)
    _require_epoch_len(epoch_len, model)
    rec = report_mod.read_recording(input_path)
    scores = score_recording(rec, model)
    if out_path:
        Path(out_path).write_text(scores.to_csv())
    for name, seq in zip(scores.channels, scores.labels):
        counts = Counter(int(v) for v in seq)
        parts = ", ".join(f"{k}: {counts[k]}" for k in sorted(counts))
        click.echo(f"{name}: {len(seq)} epochs ({parts})")


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--mobility-model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--tib-run-epochs", type=int, default=None)
@click.option("--epoch-len", type=float, default=None, help="must match the model when given")
@click.option("--out", "out_path", type=click.Path(), default=None, help="JSON output path")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_cli_errors
def tib(input_path, model_path, tib_run_epochs, epoch_len, out_path, config_path) -> None:
    """Detect time in bed from a recording's accelerometer."""
    cfg = _load_config(config_path)
    run = _merge(cfg, "tib_run_epochs", tib_run_epochs, 12, int)
    epoch_len = _merge(cfg, "epoch_len", epoch_len, None, float)
    model = gbt.load_model(model_path)
    _require_epoch_len(epoch_len, model)
    rec = report_mod.read_recording(input_path)
    states = classify_mobility(rec.acc, rec.fs, model)
    result = detect_tib(states, run, float(model.meta.get("epoch_len_s", 10.0)))
    payload = json.dumps(
        {
            "Lights_out_sec": result.lights_out_s,
            "Lights_on_sec": result.lights_on_s,
            "TIB_min": result.tib_min,
        },
        indent=2,
    )
    if out_path:
        Path(out_path).write_text(payload + "\n")
    click.echo(payload)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_cli_errors
def despike(input_path, out_path, config_path) -> None:
    """Remove 8/16/24 Hz spike artifacts with the zero-phase cascade."""
    rec = report_mod.read_recording(input_path)
    report_mod.write_recording(report_mod.despiked(rec), out_path)
    click.echo(f"wrote {out_path}")


@main.command()
@click.option(
    "--input",
    "input_path",
    required=True,
    type=click.Path(exists=True),
    help="artifact-rejected scores, one per line (-1 for rejected)",
)
@click.option("--sleep-epoch-len", type=float, default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_cli_errors
def stats(input_path, sleep_epoch_len, out_path, config_path) -> None:
    """Sleep statistics from a score sequence."""
    cfg = _load_config(config_path)
    epoch_len = _merge(cfg, "sleep_epoch_len", sleep_epoch_len, 30.0, float)
    result = compute_stats(load_sleep_scores(input_path, allow_unscorable=True), epoch_len)
    if out_path:
        Path(out_path).write_text(result.to_json())
    click.echo(result.to_json(), nl=False)


def _mobility_training_data(
    fs: float, epoch_len_s: float, seed: int
) -> tuple[TriAxialAcc, list[MobilityState]]:
    # several appearance orders so no state is learned from one context only
    block_plans = [
        [(MobilityState.MOBILE, 8), (MobilityState.STATIONARY, 10), (MobilityState.LYING, 30),
         (MobilityState.MOBILE, 6), (MobilityState.IDLE, 12), (MobilityState.LYING, 24)],
        [(MobilityState.IDLE, 10), (MobilityState.MOBILE, 8), (MobilityState.LYING, 26),
         (MobilityState.STATIONARY, 12), (MobilityState.MOBILE, 6), (MobilityState.IDLE, 8)],
        [(MobilityState.STATIONARY, 10), (MobilityState.LYING, 28), (MobilityState.MOBILE, 10),
         (MobilityState.IDLE, 10), (MobilityState.STATIONARY, 8), (MobilityState.LYING, 20)],
    ]
    xs, ys, zs, labels = [], [], [], []
    for i, blocks in enumerate(block_plans):
        axes, states = synth_mod.gen_mobility_sequence(blocks, fs, epoch_len_s, seed=seed + i)
        xs.append(axes[0])
        ys.append(axes[1])
        zs.append(axes[2])
        labels.extend(states)
    acc = TriAxialAcc(x=np.concatenate(xs), y=np.concatenate(ys), z=np.concatenate(zs))
    return acc, labels


@main.command()
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--kind", type=click.Choice(["usability", "mobility"]), default="usability")
@click.option("--variant", type=_VARIANT_CHOICE, default=None)
@click.option(
    "--input",
    "input_path",
    type=click.Path(exists=True),
    default=None,
    help="directory of recordings with <stem>_labels.csv sidecars; "
    "omitted: train on synthetic data",
)
@click.option("--subjects", type=int, default=None, help="synthetic subjects")
@click.option("--epochs-per-class", type=int, default=None, help="per synthetic subject")
@click.option("--fs", type=float, default=None)
@click.option("--epoch-len", type=float, default=None)
@click.option("--iterations", type=int, default=None)
@click.option("--eta", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_cli_errors
def train(
    out_path,
    kind,
    variant,
    input_path,
    subjects,
    epochs_per_class,
    fs,
    epoch_len,
    iterations,
    eta,
    seed,
    config_path,
) -> None:
    """Fit a usability or mobility model and save it as JSON."""
    cfg = _load_config(config_path)
    variant = _merge(cfg, "variant", variant, "default")
    subjects = _merge(cfg, "subjects", subjects, 8, int)
    epochs_per_class = _merge(cfg, "epochs_per_class", epochs_per_class, 40, int)
    fs = _merge(cfg, "fs", fs, 256.0, float)
    epoch_len = _merge(cfg, "epoch_len", epoch_len, 10.0, float)
    seed = _merge(cfg, "seed", seed, 0, int)
    train_cfg = gbt.TrainConfig(seed=seed)
    iterations = _merge(cfg, "iterations", iterations, None, int)
    eta = _merge(cfg, "eta", eta, None, float)
    if iterations is not None:
        train_cfg = dataclasses.replace(train_cfg, n_iterations=iterations)
    if eta is not None:
        train_cfg = dataclasses.replace(train_cfg, eta=eta)

    if kind == "mobility":
        acc, labels = _mobility_training_data(fs, epoch_len, seed)
        model = fit_mobility(acc, labels, fs, epoch_len, config=train_cfg)
    else:
        if input_path:
            samples: list[EpochSample] = []
            for path in report_mod.discover_nights(input_path):
                spans = load_annotations(path.with_name(f"{path.stem}_labels.csv"))
                rec = report_mod.read_recording(path)
                samples.extend(
                    build_epochs(rec, spans, epoch_len, subject_id=path.stem, night_id=path.stem)
                )
        else:
            samples = synth_mod.gen_labeled_dataset(subjects, epochs_per_class, fs, epoch_len, seed)
        samples = balance_rus(samples, seed)
        model = train_usability(samples, fs, variant, train_cfg)

    gbt.save_model(model, out_path)
    click.echo(
        f"wrote {out_path} ({kind}, {model.feature_count} features, "
        f"{len(model.trees)} boosting rounds)"
    )


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--subjects", type=int, default=None)
@click.option("--epochs", "n_epochs", type=int, default=None, help="usability epochs per night")
@click.option("--fs", type=float, default=None)
@click.option("--epoch-len", type=float, default=None)
@click.option("--sleep-epoch-len", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_cli_errors
def synth(out_dir, subjects, n_epochs, fs, epoch_len, sleep_epoch_len, seed, config_path) -> None:
    """Write synthetic nights (EDF + label/sleep/mobility sidecars)."""
    cfg = _load_config(config_path)
    subjects = _merge(cfg, "subjects", subjects, 3, int)
    n_epochs = _merge(cfg, "epochs", n_epochs, 360, int)
    fs = _merge(cfg, "fs", fs, 256.0, float)
    epoch_len = _merge(cfg, "epoch_len", epoch_len, 10.0, float)
    sleep_epoch_len = _merge(cfg, "sleep_epoch_len", sleep_epoch_len, 30.0, float)
    seed = _merge(cfg, "seed", seed, 0, int)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subjects": subjects,
        "epochs": n_epochs,
        "fs": fs,
        "epoch_len_s": epoch_len,
        "sleep_epoch_len_s": sleep_epoch_len,
        "seed": seed,
        "nights": [],
    }
    for subj in range(subjects):
        stem = f"s{subj:02d}"
        rec, spans, sleep_scores, states = synth_mod.gen_night(
            subject_index=subj,
            n_epochs=n_epochs,
            fs=fs,
            epoch_len_s=epoch_len,
            sleep_epoch_len_s=sleep_epoch_len,
            seed=seed,
        )
        report_mod.write_recording(rec, out / f"{stem}.edf")
        write_annotations(spans, out / f"{stem}_labels.csv")
        (out / f"{stem}_sleep.txt").write_text(
            "\n".join(str(v) for v in sleep_scores) + "\n"
        )
        write_mobility_csv(states, out / f"{stem}_mobility.csv")
        manifest["nights"].append(stem)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {subjects} nights under {out}")


@main.command(name="report")
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--mobility-model", "mobility_model_path", type=click.Path(exists=True), default=None)
@click.option("--variant", type=_VARIANT_CHOICE, default=None, help="required model variant")
@click.option("--despike", "despike_flag", is_flag=True, default=None)
@click.option("--sleep-epoch-len", type=float, default=None)
@click.option("--tib-run-epochs", type=int, default=None)
@click.option("--workers", type=int, default=None)
@click.option("--seed", type=int, default=None, help="ignored: the report is deterministic")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_cli_errors
def report(
    input_dir,
    out_dir,
    model_path,
    mobility_model_path,
    variant,
    despike_flag,
    sleep_epoch_len,
    tib_run_epochs,
    workers,
    seed,
    config_path,
) -> None:
    """Process a directory of nights and write the batch summary."""
    cfg = _load_config(config_path)
    variant = _merge(cfg, "variant", variant, None)
    if variant is not None:
        model = gbt.load_model(model_path)
        if model.meta.get("variant") != variant:
            raise ModelIncompatible(
                f"model variant {model.meta.get('variant')!r} is not the requested {variant!r}"
            )
    pipeline = report_mod.PipelineConfig(
        input_dir=input_dir,
        out_dir=out_dir,
        model_path=model_path,
        mobility_model_path=_merge(cfg, "mobility_model", mobility_model_path, None),
        sleep_epoch_len_s=_merge(cfg, "sleep_epoch_len", sleep_epoch_len, 30.0, float),
        despike=_merge(cfg, "despike", despike_flag, False, bool),
        tib_run_epochs=_merge(cfg, "tib_run_epochs", tib_run_epochs, 12, int),
        workers=_merge(cfg, "workers", workers, 1, int),
    )
    reports = report_mod.run_pipeline(pipeline)
    ok = sum(r.status == "ok" for r in reports)
    click.echo(f"{ok} ok, {len(reports) - ok} skipped")
    for r in reports:
        if r.status == "skipped":
            click.echo(f"  {r.night_id}: {r.error_code} ({r.message})")


if __name__ == "__main__":
    main()
