"""Command-line entry point for running experiments."""

from __future__ import annotations

import dataclasses
import sys

import click

from .bls import ACTIVATIONS, BlsHyperParams
from .datasets import SplitPlan
from .experiment import BASELINES, DATASETS, TRANSPORTS, ExperimentConfig, run_experiment, summary_table
from .linalg import SolverError
from .protocol import ProtocolAbort
from .transport import LISTENERS


def _parse_role_addr(ctx, param, values):
    """ROLE=HOST:PORT values -> {Role: (host, port)}, for listening roles only."""
    roles = {role.name.lower(): role for role in LISTENERS}
    out = {}
    for value in values:
        try:
            name, addr = value.split("=", 1)
            host, port = addr.rsplit(":", 1)
            port = int(port)
        except ValueError:
            raise click.BadParameter(f"expected ROLE=HOST:PORT, got {value!r}")
        if not 0 <= port <= 65535:
            raise click.BadParameter(f"port must be in 0..65535, got {value!r}")
        name = name.strip().lower()
        if name not in roles:
            raise click.BadParameter(f"role {name!r} does not listen; use {' or '.join(roles)}")
        if roles[name] in out:
            raise click.BadParameter(f"role {name!r} is given more than once")
        out[roles[name]] = (host, port)
    return out or None


@click.command(context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--dataset", type=click.Choice(DATASETS),
              default=ExperimentConfig.dataset, show_default=True,
              help=f"Named dataset; {'/'.join(DATASETS[:-1])} expect IDX files, "
                   f"{DATASETS[-1]} is generated.")
@click.option("--train-images", type=click.Path(exists=True),
              help="IDX image file for training rows.")
@click.option("--train-labels", type=click.Path(exists=True),
              help="IDX label file for training rows.")
@click.option("--test-images", type=click.Path(exists=True),
              help="IDX image file for test rows.")
@click.option("--test-labels", type=click.Path(exists=True),
              help="IDX label file for test rows.")
@click.option("--data-dir", type=click.Path(),
              help="Directory holding conventionally named IDX files.")
@click.option("--train-size", type=int, default=ExperimentConfig.train_size, show_default=True,
              help="Training rows, generated or drawn from the IDX files.")
@click.option("--test-size", type=int, default=ExperimentConfig.test_size, show_default=True,
              help="Test rows, generated or drawn from the IDX files.")
@click.option("--split", default=SplitPlan().describe(), show_default=True,
              help="Client split: quantity:<ratio_a> or noniid.")
@click.option("--n", "map_groups", type=int, default=BlsHyperParams.map_groups, show_default=True,
              help="Number of mapped-feature groups.")
@click.option("--dz", "map_dim", type=int, default=BlsHyperParams.map_dim, show_default=True,
              help="Dimension per mapped-feature group.")
@click.option("--m", "enh_groups", type=int, default=BlsHyperParams.enh_groups, show_default=True,
              help="Number of enhancement groups.")
@click.option("--dh", "enh_dim", type=int, default=BlsHyperParams.enh_dim, show_default=True,
              help="Dimension per enhancement group.")
@click.option("--lambda", "ridge", type=float, default=BlsHyperParams.ridge,
              show_default=True, help="Ridge regularizer for the readout solve.")
@click.option("--activation", type=click.Choice(list(ACTIVATIONS)),
              default=BlsHyperParams.activation, show_default=True, help="Enhancement activation.")
@click.option("--seed", type=int, default=BlsHyperParams.seed, show_default=True)
@click.option("--reps", type=int, default=ExperimentConfig.reps, show_default=True,
              help="Repetitions; run k uses seed+k.")
@click.option("--baselines", default=",".join(ExperimentConfig.baselines), show_default=True,
              help=f"Comma-separated subset of {','.join(BASELINES)}.")
@click.option("--transport", type=click.Choice(TRANSPORTS), show_default=True,
              default=ExperimentConfig.transport, help="Message backend for the protocol sessions.")
@click.option("--listen", multiple=True, callback=_parse_role_addr,
              help=f"ROLE=HOST:PORT listen address ({TRANSPORTS[-1]} transport; repeatable).")
@click.option("--mask-range", type=float, default=ExperimentConfig.mask_range, show_default=True,
              help="Masks are drawn uniformly from (-range, range). A larger range hides "
                   "more of each entry, but the masked features' relative error grows as "
                   "range^2; the default keeps it about 18x below 1e-8.")
@click.option("--zero-masks", is_flag=True,
              help="Debug mode: disable masking (protocol output equals the "
                   "pooled pipeline bit for bit).")
@click.option("--out", type=click.Path(),
              help="Write one JSON object per run to this file.")
@click.option("--summary", "show_summary", is_flag=True, help="Print a comparison table.")
def main(split, baselines, show_summary, **fields):
    """Train and evaluate the masked two-client model and its baselines."""
    hyper = {f.name: fields.pop(f.name) for f in dataclasses.fields(BlsHyperParams)}
    try:
        config = ExperimentConfig(
            split=SplitPlan.parse(split), hyper=BlsHyperParams(**hyper),
            baselines=tuple(b.strip() for b in baselines.split(",") if b.strip()), **fields,
        )
        reports = run_experiment(config)
    except (ValueError, OSError, ProtocolAbort, SolverError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    for report in reports:
        click.echo(report.to_json())
    if show_summary:
        click.echo(summary_table(reports))


if __name__ == "__main__":
    main()
