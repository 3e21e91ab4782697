"""Command-line surface over the pipeline.

Every subcommand builds a RunConfig, runs the pipeline, and prints the
result document as JSON (or CSV for curves) to stdout or --out. Exit codes:
0 on success, 2 for configuration and parse problems (an unwritable --out
included), 3 for numerical failures inside a stage; a package error carries
its own code (``hartree.errors``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
from numpy.linalg import LinAlgError

from ..encoding import JW, VARIANTS
from ..errors import NUMERICAL_EXIT, USAGE_EXIT, HartreeError
from ..vqe import (
    DEFAULT_TRAJECTORIES,
    METHODS as OPTIMIZERS,
    NELDER_MEAD,
    OptimizerConfig,
)
from .fixtures import H2_CURVE, list_fixtures
from .pipeline import (
    ANSATZ_FAMILIES,
    CURVE_METHODS,
    ENCODE,
    EXACT,
    MITIGATE,
    QPE,
    SPECTRUM,
    TECHNIQUES,
    VQE,
    RunConfig,
    StageFailure,
    dissociation_curve,
    document_json,
    run_pipeline,
)


def problem_options(command):
    decorators = [
        click.option("--fixture", type=click.Choice(list_fixtures()),
                     default=None, help="Named shipped molecule."),
        click.option("--fcidump", "fcidump_path",
                     type=click.Path(path_type=Path), default=None,
                     help="Path to an FCIDUMP file."),
        click.option("--encoding", type=click.Choice(list(VARIANTS)),
                     default=JW, show_default=True),
        click.option("--taper/--no-taper", default=False, show_default=True,
                     help="Remove the two conserved-parity qubits."),
        click.option("--reduce/--no-reduce", "reduce_", default=False,
                     show_default=True,
                     help="Freeze orbitals by occupation-number thresholds."),
        click.option("--seed", type=int, default=None,
                     help="Seed for every stochastic stage."),
        click.option("--out", type=click.Path(path_type=Path), default=None,
                     help="Write the document here instead of stdout."),
    ]
    for decorator in reversed(decorators):
        command = decorator(command)
    return command


def _emit(config: RunConfig) -> None:
    document = run_pipeline(config)
    if config.out is None:
        click.echo(document_json(document), nl=False)


def _common(fixture, fcidump_path, encoding, taper, reduce_, seed, out,
            **extra) -> RunConfig:
    return RunConfig(fixture=fixture,
                     fcidump_path=str(fcidump_path) if fcidump_path else None,
                     encoding=encoding, taper=taper, reduce=reduce_,
                     seed=seed, out=str(out) if out else None, **extra)


@click.group()
def cli():
    """Molecular energies on a simulated quantum computer."""


@cli.command()
@problem_options
def encode(**common):
    """Map the molecule onto qubits and report the operator sizes, without
    solving."""
    _emit(_common(**common, method=ENCODE, k=1))


@cli.command()
@problem_options
@click.option("--k", type=int, default=4, show_default=True,
              help="Number of lowest eigenvalues.")
def exact(k, **common):
    """Exact lowest eigenvalues of the encoded Hamiltonian."""
    _emit(_common(**common, method=EXACT, k=k))


@cli.command()
@problem_options
@click.option("--ansatz", type=click.Choice(list(ANSATZ_FAMILIES)),
              default="uccsd", show_default=True)
@click.option("--layers", type=int, default=1, show_default=True,
              help="Ansatz repetitions (steps, layers, or cycles).")
@click.option("--optimizer", "opt_method",
              type=click.Choice(list(OPTIMIZERS)),
              default=NELDER_MEAD, show_default=True)
@click.option("--max-evals", type=int, default=2000, show_default=True)
@click.option("--tolerance", type=float, default=1e-8, show_default=True)
@click.option("--shots", type=int, default=None,
              help="Samples per Hamiltonian term; omit for exact mode.")
@click.option("--noise-p1", type=float, default=0.0, show_default=True)
@click.option("--noise-p2", type=float, default=0.0, show_default=True)
@click.option("--trajectories", type=int, default=DEFAULT_TRAJECTORIES,
              show_default=True)
def vqe(ansatz, layers, opt_method, max_evals, tolerance, shots, noise_p1,
        noise_p2, trajectories, **common):
    """Variational ground-state search."""
    seed = common.get("seed")
    optimizer = OptimizerConfig(method=opt_method, max_evals=max_evals,
                                tolerance=tolerance, seed=seed)
    _emit(_common(**common, method=VQE, ansatz=ansatz, layers=layers,
                  optimizer=optimizer, shots=shots, noise_p1=noise_p1,
                  noise_p2=noise_p2, trajectories=trajectories))


@cli.command()
@problem_options
@click.option("--ancillas", type=int, default=8, show_default=True)
@click.option("--trotter-steps", type=int, default=0, show_default=True,
              help="0 selects the exact controlled-evolution backend.")
@click.option("--samples", type=int, default=0, show_default=True,
              help="Phase-register measurements to draw.")
def qpe(ancillas, trotter_steps, samples, **common):
    """Phase-estimation readout of the ground energy."""
    _emit(_common(**common, method=QPE, n_ancilla=ancillas,
                  qpe_trotter=trotter_steps, qpe_samples=samples))


@cli.command()
@problem_options
@click.option("--k", type=int, default=4, show_default=True,
              help="Eigenvalues to report from each solver.")
def spectrum(k, **common):
    """Low-lying spectrum: exact values next to the subspace expansion."""
    _emit(_common(**common, method=SPECTRUM, k=k))


@cli.command()
@problem_options
@click.option("--technique", type=click.Choice(list(TECHNIQUES)),
              default="linear", show_default=True)
@click.option("--ansatz", type=click.Choice(list(ANSATZ_FAMILIES)),
              default="uccsd", show_default=True)
@click.option("--layers", type=int, default=1, show_default=True)
@click.option("--scales", default="1,2,3", show_default=True,
              help="Comma-separated noise-scale factors.")
@click.option("--noise-p1", type=float, default=1e-3, show_default=True)
@click.option("--noise-p2", type=float, default=1e-3, show_default=True)
@click.option("--trajectories", type=int, default=DEFAULT_TRAJECTORIES,
              show_default=True)
@click.option("--samples", type=int, default=2000, show_default=True,
              help="Cancellation samples or post-selection shots.")
def mitigate(technique, ansatz, layers, scales, noise_p1, noise_p2,
             trajectories, samples, **common):
    """Tune the ansatz noiselessly by L-BFGS on the analytic gradient, then
    compare raw, mitigated, and oracle energies under gate noise."""
    try:
        parsed_scales = tuple(float(s) for s in scales.split(","))
    except ValueError:
        raise click.BadParameter("scales must be comma-separated numbers",
                                 param_hint="--scales")
    _emit(_common(**common, method=MITIGATE, technique=technique,
                  ansatz=ansatz, layers=layers, scales=parsed_scales,
                  noise_p1=noise_p1, noise_p2=noise_p2,
                  trajectories=trajectories, samples=samples))


@cli.command()
@click.option("--method", "methods", type=click.Choice(list(CURVE_METHODS)),
              multiple=True, default=("hf", "fci"), show_default=True)
@click.option("--encoding", type=click.Choice(list(VARIANTS)), default=JW,
              show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(path_type=Path), default=None)
def curve(methods, encoding, seed, out):
    """Dissociation sweep over the shipped H2 geometries, as CSV."""
    result = dissociation_curve(methods, H2_CURVE, encoding=encoding,
                                seed=seed)
    text = result.to_csv()
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)


def exit_code_for(error: Exception) -> int:
    """A package error's own code; for a foreign one, 3 for numpy's
    LinAlgError, 2 for bad values, keys, types and files, 3 otherwise."""
    if isinstance(error, StageFailure):
        return exit_code_for(error.error)
    if isinstance(error, HartreeError):
        return error.exit_code
    if isinstance(error, LinAlgError):
        return NUMERICAL_EXIT
    if isinstance(error, (ValueError, KeyError, TypeError, OSError)):
        return USAGE_EXIT
    return NUMERICAL_EXIT


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as error:
        error.show()
        return USAGE_EXIT
    except Exception as error:  # noqa: BLE001 - boundary maps to exit codes
        click.echo(f"error: {error}", err=True)
        return exit_code_for(error)
    return 0


if __name__ == "__main__":
    sys.exit(main())
