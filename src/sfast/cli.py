"""Command line front end.

Verdict-style exit codes leave 0 for "work produced", 1 for usage and format
errors, and distinct codes for the interesting outcomes so scripts can
branch without scraping output: kernelize exits 10/20 on trivial yes/no,
solve exits 20 when the kernelization or the triangle-packing lower bound
refutes the instance before any trial and 30
when the trial budget finds nothing, verify exits 40 on an invalid solution,
and solve and bench exit 50 when an input is beyond the solver's scale limit
(its prefix-vector lattice would not fit in memory).
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path
from typing import Optional

import click

from . import __version__
from .graphs import Instance, InvalidArcError, verify_solution
from .instancefile import (
    InstanceFormatError,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from .kernel import kernelize
from .oracle import (
    GeneratorSpec,
    OracleScaleError,
    generate_planted,
    generate_random,
    oracle_min_deletion,
    oracle_min_reversal_orderings,
)
from .solver import SolveReport, SolverConfig, SolverScaleError, solve_report

EXIT_TRIVIAL_YES = 10
EXIT_TRIVIAL_NO = 20
EXIT_NO_SOLUTION = 30
EXIT_INVALID = 40
EXIT_SCALE = 50


def _count(n: int, noun: str) -> str:
    """``n`` and the noun, plural unless n is 1: "1 arc", "0 trials"."""
    return f"{n} {noun}{'' if n == 1 else 's'}"


def _load_instance(path: str) -> Instance:
    try:
        return parse_instance(Path(path).read_bytes())
    except (InstanceFormatError, ValueError) as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` with its line breaks as they stand; a path
    that cannot be written ends the command with exit 1 and a one-line
    error."""
    try:
        Path(path).write_text(text, newline="")
    except OSError as exc:
        raise click.ClickException(f"{path}: cannot write: {exc.strerror}") from exc


def _solve_report(ctx, path: str, instance: Instance, config: SolverConfig) -> SolveReport:
    """`solve_report`, ending the command with EXIT_SCALE past the scale limit."""
    try:
        return solve_report(instance, config)
    except SolverScaleError as exc:
        click.echo(f"{path}: beyond the solver's scale limit: {exc}", err=True)
        ctx.exit(EXIT_SCALE)


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Subset feedback arc set in tournaments: kernelize, solve, check."""


@main.command("kernelize")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False), help="Write the kernel here.")
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), help="Write the rule trace here.")
@click.option("--json", "as_json", is_flag=True, help="Print a JSON report instead of prose.")
@click.pass_context
def kernelize_cmd(ctx, input_file: str, output: Optional[str], trace_path: Optional[str], as_json: bool) -> None:
    """Reduce INPUT_FILE; exit 0 reduced, 10 trivial yes, 20 trivial no."""
    instance = _load_instance(input_file)
    result = kernelize(instance)
    trace = [
        {"rule": rec.rule, "status": rec.status, "note": rec.note, "detail": rec.detail}
        for rec in result.trace
    ]
    if trace_path:
        _write(trace_path, "".join(json.dumps(rec) + "\n" for rec in trace))
    if result.kernel is not None and output:
        _write(output, serialize_instance(result.kernel))
    if as_json:
        blob = {"status": result.status, "applied": len([r for r in trace if r["status"] == "applied"])}
        if result.kernel is not None:
            blob["kernel"] = {
                "n": result.kernel.n,
                "terminals": len(result.kernel.terminals),
                "k": result.kernel.k,
            }
        click.echo(json.dumps(blob))
    elif result.kernel is not None:
        click.echo(
            f"reduced: {instance.n} vertices to {result.kernel.n}, "
            f"budget {instance.k} to {result.kernel.k}, {_count(len(trace), 'rule application')}"
        )
    else:
        click.echo(f"{result.status} ({result.trace[-1].note})")
    if result.status == "trivial-yes":
        ctx.exit(EXIT_TRIVIAL_YES)
    if result.status == "trivial-no":
        ctx.exit(EXIT_TRIVIAL_NO)


@main.command("solve")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False), help="Write the solution here.")
@click.option("--seed", default=0, show_default=True, help="Base seed for the coloring trials.")
@click.option("--trials", type=click.IntRange(min=1), default=None, help="Trial budget (default scales with k).")
@click.option("--json", "as_json", is_flag=True, help="Print a JSON report instead of prose.")
@click.pass_context
def solve_cmd(ctx, input_file: str, output: Optional[str], seed: int, trials: Optional[int], as_json: bool) -> None:
    """Solve INPUT_FILE; exit 0 solved, 20 refuted, 30 nothing found, 50 too large."""
    instance = _load_instance(input_file)
    config = SolverConfig(seed=seed, max_trials=trials)
    report = _solve_report(ctx, input_file, instance, config)
    if report.solution is not None and output:
        _write(output, serialize_solution(report.solution))
    if as_json:
        blob = {
            "size": report.size,
            "arcs": sorted(map(list, report.solution)) if report.solution is not None else None,
            "trials": report.trials,
            "certified": report.certified,
            "seconds": round(report.seconds, 6),
        }
        click.echo(json.dumps(blob))
    elif report.solution is not None:
        tag = "minimum" if report.certified else "best found"
        click.echo(f"{tag} solution: {_count(report.size, 'arc')} after {_count(report.trials, 'trial')}")
        for u, v in sorted(report.solution):
            click.echo(f"r {u} {v}")
    elif not report.certified:
        click.echo(f"no solution found in {_count(report.trials, 'trial')}")
    elif report.kernel.status == "trivial-no":
        click.echo("no solution: refuted during kernelization")
    else:
        click.echo(f"no solution: refuted by a triangle-packing bound above the budget {instance.k}")
    if report.solution is None:
        ctx.exit(EXIT_TRIVIAL_NO if report.certified else EXIT_NO_SOLUTION)


@main.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("solution_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["reversal", "deletion"]), default="reversal", show_default=True)
@click.pass_context
def verify(ctx, input_file: str, solution_file: str, mode: str) -> None:
    """Check a solution file; exit 0 valid, 40 invalid."""
    instance = _load_instance(input_file)
    try:
        arcs = parse_solution(Path(solution_file).read_bytes())
    except InstanceFormatError as exc:
        raise click.ClickException(f"{solution_file}: {exc}") from exc
    index = instance.tournament.index_of()
    try:
        internal = [(index[u], index[v]) for u, v in arcs]
    except KeyError as exc:
        raise click.ClickException(f"unknown vertex {exc.args[0]}") from exc
    try:
        ok = verify_solution(instance, internal, mode=mode)
    except InvalidArcError as exc:
        raise click.ClickException(str(exc)) from exc
    if ok:
        click.echo(f"valid: {_count(len(arcs), 'arc')} within budget {instance.k}")
    else:
        click.echo("invalid")
        ctx.exit(EXIT_INVALID)


@main.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["deletion", "orderings"]), default="deletion", show_default=True)
@click.option("--kmax", "k_max", type=int, default=None, help="Search cap for the deletion method (default: the instance budget).")
def oracle(input_file: str, method: str, k_max: Optional[int]) -> None:
    """Brute-force optimum of a small instance."""
    instance = _load_instance(input_file)
    try:
        if method == "orderings":
            value = oracle_min_reversal_orderings(instance.tournament, instance.terminals)
        else:
            cap = instance.k if k_max is None else k_max
            value = oracle_min_deletion(instance.tournament, instance.terminals, cap)
    except OracleScaleError as exc:
        raise click.ClickException(str(exc)) from exc
    if value is None:
        click.echo(f"none within {instance.k if k_max is None else k_max}")
    else:
        click.echo(str(value))


@main.command()
@click.option("--n", required=True, type=int, help="Vertex count.")
@click.option("--terminals", "s_count", required=True, type=int, help="Terminal count.")
@click.option("--seed", default=0, show_default=True)
@click.option("--k", type=int, default=None, help="Budget for a uniform instance.")
@click.option("--planted", type=int, default=None, help="Plant a solution of this size instead.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def gen(n: int, s_count: int, seed: int, k: Optional[int], planted: Optional[int], output: str) -> None:
    """Generate an instance file (and a .planted sidecar when planting)."""
    if (k is None) == (planted is None):
        raise click.ClickException("give exactly one of --k and --planted")
    try:
        if planted is not None:
            spec = GeneratorSpec(n=n, s_count=s_count, seed=seed, planted_k=planted)
            instance, arcs = generate_planted(spec)
            _write(output + ".planted", serialize_solution(arcs))
        else:
            spec = GeneratorSpec(n=n, s_count=s_count, seed=seed, k=k)
            instance = generate_random(spec)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    _write(output, serialize_instance(instance))
    click.echo(f"wrote {output}")


@main.command()
@click.argument("inputs", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", default=0, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=None)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), help="Also write the table as CSV.")
@click.pass_context
def bench(ctx, inputs: tuple[str, ...], seed: int, trials: Optional[int], csv_path: Optional[str]) -> None:
    """Kernelize and solve each input, tabulating sizes and timings."""
    rows = []
    for path in inputs:
        instance = _load_instance(path)
        report = _solve_report(ctx, path, instance, SolverConfig(seed=seed, max_trials=trials))
        kernel_n = report.kernel.kernel.n if report.kernel.kernel is not None else 0
        rows.append(
            {
                "instance": Path(path).name,
                "n": instance.n,
                "terminals": len(instance.terminals),
                "k": instance.k,
                "kernel_n": kernel_n,
                "trials": report.trials,
                "seconds": round(report.seconds, 4),
                "value": report.size if report.size is not None else "",
            }
        )
    header = list(rows[0].keys())
    widths = [max(len(str(r[h])) for r in rows + [dict(zip(header, header))]) for h in header]
    click.echo("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        click.echo("  ".join(str(row[h]).ljust(w) for h, w in zip(header, widths)))
    if csv_path:
        table = io.StringIO(newline="")
        writer = csv.DictWriter(table, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
        _write(csv_path, table.getvalue())


if __name__ == "__main__":
    sys.exit(main())
