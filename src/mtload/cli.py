"""Command-line front end.

Subcommands: the simulations named in SIMULATIONS, and fit. Global flags:
--scenario <path>, --seed <u64>, --out <path> (default stdout), --format csv.

Exit codes: 0 success, 2 configuration or input-data error (a bad
scenario, a file that is not UTF-8, a missing column, a non-finite value,
too few samples or pixels, a time axis that does not increase, degenerate
data), 3 numeric failure (fit
convergence, an untrapped cloud, an image sag that is undetermined or
points upwards, a non-finite value in the output table, or running out
of memory), 4 I/O error.
"""

import argparse
import math
import os
import stat
import sys

from . import pipelines
from .errors import ConfigError, InputDataError, MtloadError
from .estimation import (IMAGE_MODES, SampleSeries, fit_density_image,
                         fit_linear, fit_loading_curve, fit_two_body_loss,
                         image_from_table)
from .leastsq import FitResult
from .scenario import load_scenario
from .tables import (ResultTable, format_number, provenance_header,
                     read_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# each runs pipelines.<name with "-" as "_">
SIMULATIONS = ("simulate-loading", "simulate-decay", "figure2", "figure3",
               "figure4", "mc-transfer")
FITTERS = ("loading-curve", "linear", "density-image", "two-body")


def _add_global_flags(parser: argparse.ArgumentParser,
                      suppress: bool) -> None:
    # registered on the main parser and on every subparser so the flags
    # work in either position; SUPPRESS keeps a subparser from clobbering
    # a value given before the subcommand
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--scenario", metavar="PATH", default=default(None),
                        help="scenario file (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, metavar="U64",
                        default=default(None),
                        help="override the scenario seed")
    parser.add_argument("--out", metavar="PATH", default=default(None),
                        help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv",), default=default("csv"),
                        help="output format (csv)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtload",
        description="Continuous magnetic-trap loading: simulations and fits",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SIMULATIONS:
        _add_global_flags(sub.add_parser(name), suppress=True)
    fit = sub.add_parser("fit")
    _add_global_flags(fit, suppress=True)
    fit.add_argument("fitter", choices=FITTERS)
    fit.add_argument("file", help="input CSV data file")
    fit.add_argument("--mode", choices=IMAGE_MODES,
                     help="density-image model (default: from the file)")
    return parser


def _fit_result_table(result: FitResult, scenario) -> ResultTable:
    rows = []
    notes = [f"iterations = {result.iterations}",
             f"residual_norm = {result.residual_norm!r}"]
    for name, value in (*result.params.items(), *result.extras.items()):
        if isinstance(value, bool):
            notes.append(f"{name} = {value}")
        else:
            rows.append((name, float(value),
                         float(result.stderr.get(name, math.nan))))
    return ResultTable(
        columns=[("parameter", "name"), ("value", "SI"), ("stderr", "SI")],
        rows=rows,
        provenance=provenance_header(scenario),
        notes=notes,
    )


def _run_fit(args, scenario) -> ResultTable:
    parsed = read_csv(args.file)
    if args.fitter == "loading-curve":
        data = SampleSeries(parsed.column("t"), parsed.column("N_MT"))
        result = fit_loading_curve(data)
    elif args.fitter == "linear":
        if len(parsed.columns) < 2:
            raise ConfigError("linear fit needs at least two columns")
        x = parsed.data[:, 0]
        y = parsed.data[:, 1]
        sigma = None
        if any(name == "y_sigma" for name, _ in parsed.columns):
            sigma = parsed.column("y_sigma")
        result = fit_linear(SampleSeries(x, y, sigma))
    elif args.fitter == "two-body":
        density = SampleSeries(parsed.column("t"), parsed.column("n0"))
        volume = SampleSeries(parsed.column("t"), parsed.column("V"))
        result = fit_two_body_loss(
            density, scenario["rates.background_lifetime_s"], volume)
    else:  # density-image
        image, file_mode = image_from_table(parsed)
        mode = args.mode if args.mode else file_mode
        result = fit_density_image(image, scenario.field(),
                                   scenario.species(), mode=mode)
    return _fit_result_table(result, scenario)


def _require_finite(table: ResultTable, fit: bool) -> None:
    """Refuse a table that holds a non-finite number, before anything is
    written. A fit table's stderr may be NaN: a derived value without an
    uncertainty carries one by design. Infinities are refused everywhere."""
    for index, row in enumerate(table.rows, start=1):
        for (name, _), value in zip(table.columns, row):
            if isinstance(value, str) or math.isfinite(value):
                continue
            if fit and name == "stderr" and math.isnan(value):
                continue
            raise ValueError(f"non-finite {name} = {format_number(value)} in "
                             f"data row {index}; output not written")


def _write_output(table: ResultTable, out_path: str | None) -> None:
    text = table.to_csv()
    if out_path is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    # Rewrite in place, then cut the file to the new length. Opening with
    # O_TRUNC instead waits for the old contents still being written back:
    # on ext4 mounted with discard, rewriting the same small output every
    # few seconds blocked 50-90 ms in open() against under 0.2 ms without
    # O_TRUNC, and a temp file plus os.replace was as slow. Symlinks, hard
    # links, the file mode and non-regular targets (pipes, os.devnull)
    # behave as with open(path, "w").
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        fh.flush()
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    scenario = load_scenario(args.scenario, seed_override=args.seed)
    if args.command == "fit":
        table = _run_fit(args, scenario)
    else:
        # looked up at each call, so a wrapper set on pipelines sees it
        table = getattr(pipelines, args.command.replace("-", "_"))(scenario)
        if isinstance(table, tuple):  # figure2 and figure3 add their fits
            table, _ = table
    _require_finite(table, fit=args.command == "fit")
    _write_output(table, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return run(argv)
    except InputDataError as exc:
        print(f"mtload: input data error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"mtload: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MtloadError, ValueError) as exc:
        # every other package error is a numeric failure: a fit that does
        # not converge, an untrapped cloud, an unusable image sag
        print(f"mtload: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"mtload: numeric failure: out of memory: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"mtload: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
