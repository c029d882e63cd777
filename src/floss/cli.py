"""Command line entry points.

Every command takes an optional flat ``key = value`` config file, loaded
into click's ``default_map``: explicit flags win over config values, which
win over the defaults shown in ``--help``, and config values pass the same
type checks as flags.
"""
from __future__ import annotations

import functools
import json
import math
from collections import Counter
from pathlib import Path

import click
import numpy as np

from . import __version__, gbt, report as report_mod, synth as synth_mod
from .aggregate import load_sleep_scores, write_sleep_scores
from .epoching import EpochSample, balance_rus, build_epochs, load_annotations, write_annotations
from .errors import FlossError, ModelIncompatible, SamplingRateMismatch
from .mobility import DEFAULT_RUN_EPOCHS, MobilityState, fit_mobility, write_mobility_csv
from .signal_io import TriAxialAcc
from .sleepstats import compute_stats, tib_to_json, write_stats
from .usability import VARIANTS, train_usability


class _PositiveFinite(click.FloatRange):
    """A float above zero and below infinity; FloatRange alone passes nan."""

    def __init__(self) -> None:
        super().__init__(min=0.0, min_open=True)

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return rv


_VARIANT_CHOICE = click.Choice(sorted(VARIANTS))
#: counts start at one; lengths, rates and the learning rate are positive
_COUNT = click.IntRange(min=1)
_POSITIVE = _PositiveFinite()
_PIPELINE = report_mod.PipelineConfig
#: parameters a config file does not set: inputs, outputs, the model of each
#: command but ``report --mobility-model``, and ``train --kind``
_FLAG_ONLY = frozenset({"input_path", "input_dir", "out_path", "out_dir", "model_path", "kind"})


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


def _apply_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make the file's values the command's defaults, so click types them."""
    if path is None:
        return
    try:
        cfg = report_mod.parse_config_file(path)
    except (ValueError, FlossError) as exc:
        raise click.BadParameter(str(exc), ctx, param) from exc
    ctx.default_map = {k: v for k, v in cfg.items() if k not in _FLAG_ONLY}


_config_option = click.option(
    "--config",
    type=click.Path(exists=True),
    is_eager=True,
    expose_value=False,
    callback=_apply_config,
    help="key = value file of option defaults; a key is an option name with _ for -",
)


@click.group(context_settings={"show_default": True})
@click.version_option(version=__version__, prog_name="floss")
def main() -> None:
    """Sleep EEG usability scoring, artifact rejection, and reporting."""


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), default=None, help="usability CSV path")
@_config_option
@_cli_errors
def check(input_path, model_path, out_path) -> None:
    """Score one recording's per-epoch usability."""
    model = gbt.load_model(model_path)
    scores = report_mod.usability_stage(report_mod.read_recording(input_path), model, out_path)
    for name, seq in zip(scores.channels, scores.labels):
        counts = Counter(int(v) for v in seq)
        parts = ", ".join(f"{k}: {counts[k]}" for k in sorted(counts))
        click.echo(f"{name}: {len(seq)} epochs ({parts})")


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--mobility-model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--tib-run-epochs", type=_COUNT, default=DEFAULT_RUN_EPOCHS)
@click.option("--out", "out_path", type=click.Path(), default=None, help="JSON output path")
@_config_option
@_cli_errors
def tib(input_path, model_path, tib_run_epochs, out_path) -> None:
    """Detect time in bed from a recording's accelerometer."""
    model = gbt.load_model(model_path)
    rec = report_mod.read_recording(input_path)
    payload = tib_to_json(report_mod.mobility_stage(rec, model, tib_run_epochs, need_tib=True).tib)
    if out_path:
        Path(out_path).write_text(payload)
    click.echo(payload, nl=False)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_config_option
@_cli_errors
def despike(input_path, out_path) -> None:
    """Remove 8/16/24 Hz spike artifacts with the zero-phase cascade."""
    rec = report_mod.read_recording(input_path)
    report_mod.write_despiked(rec, out_path)
    click.echo(f"wrote {out_path}")


@main.command()
@click.option(
    "--input",
    "input_path",
    required=True,
    type=click.Path(exists=True),
    help="artifact-rejected scores, one per line (-1 for rejected)",
)
@click.option("--sleep-epoch-len", type=_POSITIVE, default=_PIPELINE.sleep_epoch_len_s)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_config_option
@_cli_errors
def stats(input_path, sleep_epoch_len, out_path) -> None:
    """Sleep statistics from a score sequence."""
    result = compute_stats(load_sleep_scores(input_path, allow_unscorable=True), sleep_epoch_len)
    if out_path:
        write_stats(result, out_path)
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
@click.option("--variant", type=_VARIANT_CHOICE, default="default")
@click.option(
    "--input",
    "input_path",
    type=click.Path(exists=True),
    default=None,
    help="directory of recordings with <stem>_labels.csv sidecars; "
    "omitted: train on synthetic data",
)
@click.option("--subjects", type=_COUNT, default=8, help="synthetic subjects")
@click.option("--epochs-per-class", type=_COUNT, default=40, help="per synthetic subject")
@click.option(
    "--fs", type=_POSITIVE, default=256.0,
    help="rate of the synthetic data; --input takes the recordings' rate",
)
@click.option("--epoch-len", type=_POSITIVE, default=10.0)
@click.option("--iterations", type=_COUNT, default=gbt.TrainConfig.n_iterations)
@click.option("--eta", type=_POSITIVE, default=gbt.TrainConfig.eta)
@click.option("--seed", type=int, default=gbt.TrainConfig.seed)
@_config_option
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
) -> None:
    """Fit a usability or mobility model and save it as JSON."""
    if kind == "mobility" and input_path:
        raise click.UsageError(
            "--input takes labelled nights for --kind usability; "
            "--kind mobility trains on synthetic data only"
        )
    train_cfg = gbt.TrainConfig(n_iterations=iterations, eta=eta, seed=seed)

    if kind == "mobility":
        acc, labels = _mobility_training_data(fs, epoch_len, seed)
        model = fit_mobility(acc, labels, fs, epoch_len, config=train_cfg)
    else:
        read_night = None
        if input_path:
            # pass 1 labels every night from its layout; train_usability
            # then reads each night once for the rows balance_rus keeps
            nights = {path.stem: path for path in report_mod.discover_nights(input_path)}
            samples: list[EpochSample] = []
            for i, (stem, path) in enumerate(nights.items()):
                spans = load_annotations(path.with_name(f"{stem}_labels.csv"))
                layout = report_mod.read_layout(path)
                if i and layout.fs != fs:
                    raise SamplingRateMismatch(
                        f"{path.name} is sampled at {layout.fs} Hz, an earlier night at {fs} Hz"
                    )
                fs = layout.fs  # the model reads the recordings' one rate
                samples += build_epochs(layout, spans, epoch_len, subject_id=stem, night_id=stem)
            read_night = lambda stem: report_mod.read_recording(nights[stem])
        else:
            samples = synth_mod.gen_labeled_dataset(subjects, epochs_per_class, fs, epoch_len, seed)
        samples = balance_rus(samples, seed)
        model = train_usability(samples, fs, variant, train_cfg, epoch_len, read_night)

    gbt.save_model(model, out_path)
    click.echo(
        f"wrote {out_path} ({kind}, {model.feature_count} features, "
        f"{len(model.trees)} boosting rounds)"
    )


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--subjects", type=_COUNT, default=3)
@click.option("--epochs", type=_COUNT, default=360, help="usability epochs per night")
@click.option("--fs", type=_POSITIVE, default=256.0)
@click.option("--epoch-len", type=_POSITIVE, default=10.0)
@click.option("--sleep-epoch-len", type=_POSITIVE, default=_PIPELINE.sleep_epoch_len_s)
@click.option("--seed", type=int, default=0)
@_config_option
@_cli_errors
def synth(out_dir, subjects, epochs, fs, epoch_len, sleep_epoch_len, seed) -> None:
    """Write synthetic nights (EDF + label/sleep/mobility sidecars)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subjects": subjects,
        "epochs": epochs,
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
            n_epochs=epochs,
            fs=fs,
            epoch_len_s=epoch_len,
            sleep_epoch_len_s=sleep_epoch_len,
            seed=seed,
        )
        report_mod.write_recording(rec, out / f"{stem}.edf")
        write_annotations(spans, out / f"{stem}_labels.csv")
        write_sleep_scores(sleep_scores, out / f"{stem}_sleep.txt")
        write_mobility_csv(states, out / f"{stem}_mobility.csv")
        manifest["nights"].append(stem)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {subjects} nights under {out}")


@main.command(name="report")
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--mobility-model", type=click.Path(exists=True), default=None)
@click.option("--variant", type=_VARIANT_CHOICE, default=None, help="required model variant")
@click.option("--despike", is_flag=True, default=_PIPELINE.despike)
@click.option("--sleep-epoch-len", type=_POSITIVE, default=_PIPELINE.sleep_epoch_len_s)
@click.option("--tib-run-epochs", type=_COUNT, default=_PIPELINE.tib_run_epochs)
@_config_option
@_cli_errors
def report(
    input_dir,
    out_dir,
    model_path,
    mobility_model,
    variant,
    despike,
    sleep_epoch_len,
    tib_run_epochs,
) -> None:
    """Process a directory of nights and write the batch summary."""
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
        mobility_model_path=mobility_model,
        sleep_epoch_len_s=sleep_epoch_len,
        despike=despike,
        tib_run_epochs=tib_run_epochs,
    )
    reports = report_mod.run_pipeline(pipeline)
    ok = sum(r.status == "ok" for r in reports)
    click.echo(f"{ok} ok, {len(reports) - ok} skipped")
    for r in reports:
        if r.status == "skipped":
            click.echo(f"  {r.night_id}: {r.error_code} ({r.message})")


if __name__ == "__main__":
    main()
