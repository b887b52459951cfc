"""Command-line entry point for running experiments."""

from __future__ import annotations

import sys

import click

from .bls import BlsHyperParams
from .datasets import SplitPlan
from .experiment import ExperimentConfig, run_experiment, summary_table


def _parse_role_addr(values):
    out = {}
    for value in values:
        try:
            role, addr = value.split("=", 1)
            host, port = addr.rsplit(":", 1)
            out[role.strip().lower()] = (host, int(port))
        except ValueError:
            raise click.BadParameter(f"expected ROLE=HOST:PORT, got {value!r}")
    return out or None


@click.command(context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--dataset", type=click.Choice(["mnist", "fashion", "synthetic"]),
              default="synthetic", show_default=True,
              help="Named dataset; mnist/fashion expect IDX files, synthetic is generated.")
@click.option("--train-images", type=click.Path(exists=True), default=None,
              help="IDX image file for training rows.")
@click.option("--train-labels", type=click.Path(exists=True), default=None,
              help="IDX label file for training rows.")
@click.option("--test-images", type=click.Path(exists=True), default=None,
              help="IDX image file for test rows.")
@click.option("--test-labels", type=click.Path(exists=True), default=None,
              help="IDX label file for test rows.")
@click.option("--data-dir", type=click.Path(), default=None,
              help="Directory holding conventionally named IDX files.")
@click.option("--train-size", type=int, default=10000, show_default=True,
              help="Training rows for the synthetic dataset.")
@click.option("--test-size", type=int, default=2000, show_default=True,
              help="Test rows for the synthetic dataset.")
@click.option("--split", "split_text", default="quantity:0.5", show_default=True,
              help="Client split: quantity:<ratio_a> or noniid.")
@click.option("--n", type=int, default=10, show_default=True,
              help="Number of mapped-feature groups.")
@click.option("--dz", type=int, default=10, show_default=True,
              help="Dimension per mapped-feature group.")
@click.option("--m", type=int, default=1, show_default=True,
              help="Number of enhancement groups.")
@click.option("--dh", type=int, default=1000, show_default=True,
              help="Dimension per enhancement group.")
@click.option("--lambda", "ridge", type=float, default=1e-8, show_default=True,
              help="Ridge regularizer for the readout solve.")
@click.option("--activation", type=click.Choice(["tanh", "sigmoid"]), default="tanh",
              show_default=True, help="Enhancement activation.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--reps", type=int, default=1, show_default=True,
              help="Repetitions; run k uses seed+k.")
@click.option("--baselines", default="msbls,nbls,sbls", show_default=True,
              help="Comma-separated subset of msbls,nbls,sbls.")
@click.option("--transport", type=click.Choice(["inproc", "tcp"]), default="inproc",
              show_default=True, help="Message backend for the protocol sessions.")
@click.option("--listen", multiple=True,
              help="ROLE=HOST:PORT listen address (tcp transport; repeatable).")
@click.option("--mask-range", type=float, default=1e3, show_default=True,
              help="Masks are drawn uniformly from (-range, range).")
@click.option("--zero-masks", is_flag=True,
              help="Debug mode: disable masking (protocol output equals the "
                   "pooled pipeline bit for bit).")
@click.option("--out", type=click.Path(), default=None,
              help="Write one JSON object per run to this file.")
@click.option("--summary", "show_summary", is_flag=True, help="Print a comparison table.")
def main(dataset, train_images, train_labels, test_images, test_labels, data_dir,
         train_size, test_size, split_text, n, dz, m, dh, ridge, activation, seed,
         reps, baselines, transport, listen, mask_range, zero_masks, out,
         show_summary):
    """Train and evaluate the masked two-client model and its baselines."""
    try:
        config = ExperimentConfig(
            dataset=dataset,
            train_images=train_images,
            train_labels=train_labels,
            test_images=test_images,
            test_labels=test_labels,
            data_dir=data_dir,
            train_size=train_size,
            test_size=test_size,
            split=SplitPlan.parse(split_text),
            hyper=BlsHyperParams(
                map_groups=n, map_dim=dz, enh_groups=m, enh_dim=dh,
                ridge=ridge, activation=activation, seed=seed,
            ),
            transport=transport,
            listen=_parse_role_addr(listen),
            baselines=tuple(b.strip() for b in baselines.split(",") if b.strip()),
            reps=reps,
            mask_range=mask_range,
            zero_masks=zero_masks,
            out=out,
        )
        reports = run_experiment(config)
    except (ValueError, FileNotFoundError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    for report in reports:
        click.echo(report.to_json())
    if show_summary:
        click.echo(summary_table(reports))


if __name__ == "__main__":
    main()
