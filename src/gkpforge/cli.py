"""Batch command-line front end.

Commands: budget, solvability, condition, extract, milestones, ramsey.
Every report embeds a run manifest (inputs with content hashes, seed,
configuration versions, tool version, timestamp) and is deterministic
given (inputs, flags, seed). Exit codes: 0 success, 1 computation refused
on physics grounds, 2 input validation error, 3 internal numerical
failure, 141 stdout closed before the report was written (a reader such
as `head` stopped early; 141 is what a shell reports for a process ended
by SIGPIPE). A closed stdout prints nothing and no traceback; --out
files are written before stdout and are complete.

The parsers are built once per process. A command line that starts with
a command is parsed by that command's own parser, which is all that the
top-level parser would do with it. The top-level parser handles the
rest: no arguments, --help, --version, an unknown command, and words
that the command's parser leaves over. So usage, errors and exit codes
are those of the top-level parser.

Each handler imports the layers it runs, so that a command loads only
those: budget, solvability, milestones and ramsey are closed-form and
start without numpy; condition and extract load the numerical layers
(`gkp`, `montecarlo`, numpy). A handler loads each input that a flag
names through `_load`, makes one library call, which holds the physics,
and hands the result's fields (`_fields`) to `_emit`, which adds the
manifest from the inputs `_load` recorded, writes --out and prints.

Table, csv and json are three views of one report. json prints all of
it; csv and table print the rows of `_groups`: a row [key, *values] for
each top-level scalar or list of scalars, then a group for each list of
objects or object of scalars, a header [key, *columns] over one row per
object. The manifest and nested values (extract's rows and design,
budget's signal_band_eV) are json-only. The table pads each block's
columns and prints floats to six significant digits under a line naming
the command; condition's csv is its κ histogram instead: 48 log-spaced
bins from 1 to 1000, half-open [left, right) but the last, which is
closed, then the overflow and rank-deficient counts.

One writer, `_json_text`, turns every report into JSON, whatever the
format: its text is the json output and the --out file, and writing it is
the one gate for NaN and Infinity, for csv and table too. It gives the
bytes of json.dumps(report, indent=2, sort_keys=True, allow_nan=False),
which is not called because CPython 3.10-3.13 use their C encoder only
when indent is None; with an indent they run a pure-Python generator
encoder. On a 2-core Xeon (Python 3.11) the writer takes 69 us on the
budget report against 106 us, and 125 us on the extract report against
169 us. Delete it for json.dumps once the C encoder of every supported
Python handles indent.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import math
import os
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import __version__
from .errors import NumericalError, RefusalError, ValidationError
from .resources import resource_path, sha256_of

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_CLOSED_OUTPUT = 141

ENV_TIMESTAMP = "GKPFORGE_TIMESTAMP"


def _sci(x: float) -> str:
    """Scientific notation with 6 significant digits, locale-independent."""
    return f"{x:.5e}"


def _timestamp() -> str:
    pinned = os.environ.get(ENV_TIMESTAMP)
    if pinned:
        return pinned
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        try:
            return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
        except (ValueError, OverflowError, OSError):
            raise ValidationError(f"SOURCE_DATE_EPOCH={epoch!r} must be a whole number of seconds "
                                  "since the Unix epoch, within the range of a date") from None
    return datetime.now(tz=timezone.utc).isoformat()


def _load(args, flag: str, load):
    """load(path) of the input that --flag names, a resource name or a file
    path resolved by resource_path, whose refusal is named by the flag; the
    path is recorded under the flag's name for the manifest that _emit
    writes, which hashes the bytes loaded."""
    try:
        path = args.inputs[flag] = resource_path(getattr(args, flag))
    except ValidationError as exc:
        raise ValidationError(f"--{flag}: {exc}") from None
    return load(path)


def _scalar(value) -> bool:
    return isinstance(value, (str, int, float, bool)) or value is None


def _cell(value):
    return "" if value is None else value


def _groups(report: dict) -> tuple[list[list], list[list[list]]]:
    """The key rows and the groups, each a header over ["", *values] rows,
    that csv and table print, by the rule in the module docstring."""
    pairs, groups = [], []
    for key, value in report.items():
        if key == "manifest":
            continue
        if isinstance(value, dict) and value and all(map(_scalar, value.values())):
            value = [value]
        if _scalar(value):
            pairs.append([key, _cell(value)])
        elif isinstance(value, (list, tuple)) and all(map(_scalar, value)):
            pairs.append([key, *map(_cell, value)])
        elif isinstance(value, (list, tuple)) and value and all(isinstance(row, dict) for row in value):
            header = list(value[0])
            groups.append([[key, *header], *(["", *(_cell(row.get(col)) for col in header)] for row in value)])
    return pairs, groups


def _csv_text(report: dict) -> str:
    pairs, groups = _groups(report)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(pairs)
    for rows in groups:
        writer.writerow([])
        writer.writerows(rows)
    return buf.getvalue()


def _table_text(report: dict) -> str:
    """The csv rows under a line naming the command, each block's columns
    padded to their widest cell and floats through _sci."""
    pairs, groups = _groups(report)
    blocks = [f"gkpforge {report['manifest']['command']}"]
    for rows in filter(None, [pairs, *groups]):
        cells = [[_sci(v) if isinstance(v, float) else str(v) for v in row] for row in rows]
        widths = [max(map(len, column)) for column in itertools.zip_longest(*cells, fillvalue="")]
        blocks.append("\n".join("  ".join(map(str.ljust, row, widths)).rstrip() for row in cells))
    return "\n\n".join(blocks)


class _NonFinite(Exception):
    """A NaN or an infinity met by the JSON writer."""


def _write_json(value, newline: str, out: list) -> None:
    """Append the JSON text of value to out, its nested lines starting with
    newline: the bytes of json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False). str, float and int subclasses (numpy's float64) are
    written as their base type; what json refuses (numpy's int64, a set)
    raises TypeError, and so does a non-str dict key, which no report
    holds. A container that holds itself is not looked for."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise _NonFinite
        out.append(float.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + "  "
        if isinstance(value, dict):
            lead, close = "{" + inner, newline + "}"
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be str, not {type(key).__name__}")
                out.append(lead + _quote(key) + ": ")
                _write_json(value[key], inner, out)
                lead = "," + inner
        else:
            lead, close = "[" + inner, newline + "]"
            for item in value:
                out.append(lead)
                _write_json(item, inner, out)
                lead = "," + inner
        out.append(close)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(report: dict) -> str:
    """The report as indented JSON with sorted keys, and the one gate for
    NaN and Infinity: such a number is refused as a numerical failure
    naming the first top-level key, in report order, that holds one."""
    out = []
    try:
        _write_json(report, "\n", out)
    except _NonFinite:
        for key, value in report.items():
            try:
                _write_json(value, "\n", [])
            except _NonFinite:
                raise NumericalError(
                    f"the report would hold a non-finite number in {key!r}; an input is out of range"
                ) from None
    return "".join(out)


@functools.cache
def _field_names(cls) -> tuple[str, ...] | None:
    """The field names of a dataclass or named tuple class in field order,
    else None; read once per class."""
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    return getattr(cls, "_fields", None) if issubclass(cls, tuple) else None


def _fields(obj) -> dict:
    """A dataclass's or named tuple's fields in field order, sharing its
    values: the leaves are immutable, so the deep copy of dataclasses.asdict
    buys nothing. A tuple of dataclasses or named tuples becomes the list
    of their _fields."""
    report = {}
    for name in _field_names(type(obj)):
        value = getattr(obj, name)
        if type(value) is tuple and value and _field_names(type(value[0])):
            value = [_fields(item) for item in value]
        report[name] = value
    return report


def _emit(args, report: dict, *, seed: int | None = None,
          versions: dict[str, str] | None = None, histogram: str | None = None) -> None:
    """Prepend the manifest of the inputs _load recorded, write --out
    (<command>.json, and a histogram as <command>_histogram.csv), then
    print json, csv (the histogram if given) or table. A report holding
    NaN or Infinity (exit 3) and an --out that cannot be written (exit 2,
    naming the path) are refused before anything is printed."""
    report = {
        "manifest": {
            "command": args.command,
            "inputs": {role: {"path": str(path), "sha256": sha256_of(path)}
                       for role, path in args.inputs.items()},
            "seed": seed,
            "config_versions": versions or {},
            "tool_version": __version__,
            "timestamp": _timestamp(),
        },
        **report,
    }
    text = _json_text(report)
    if args.out:
        files = {f"{args.command}.json": text + "\n", f"{args.command}_histogram.csv": histogram}
        path = out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, content in files.items():
                if content is not None:
                    path = out_dir / name
                    path.write_text(content, encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"--out cannot write {str(path)!r}: {exc.strerror or exc}") from None
    if args.format == "json":
        print(text)
    elif args.format == "csv":
        print(_csv_text(report) if histogram is None else histogram, end="")
    else:
        print(_table_text(report))


# ---------------------------------------------------------------------------
# budget

def cmd_budget(args) -> int:
    from . import angular, barriers, nucdata

    chain = _load(args, "chain", nucdata.load_chain)
    anchors = _load(args, "anchors", barriers.load_anchors)
    result = barriers.build_budget(chain, angular.default_channels(), anchors, scenario=args.scenario, probe_A=args.probe)
    _emit(args, _fields(result), versions={"anchors": anchors.name})
    return EXIT_OK


# ---------------------------------------------------------------------------
# solvability

def cmd_solvability(args) -> int:
    from . import nucdata, topology

    chain = _load(args, "chain", nucdata.load_chain)
    _emit(args, topology.solvability_table(chain, args.add_isotope, args.transitions, args.nbkg))
    return EXIT_OK


# ---------------------------------------------------------------------------
# condition

def cmd_condition(args) -> int:
    """Condition numbers of the sampled three-isotope design: the summary
    as json or a table. The κ histogram is the csv output and is written
    to --out beside the json report; it is built only for those two."""
    from . import gkp, montecarlo, nucdata

    chain = _load(args, "chain", nucdata.load_chain)
    coeffs = _load(args, "coeffs", gkp.load_coefficients)
    given = {"sample_count": args.samples, "seed": args.seed}
    spec = dataclasses.replace(_load(args, "spec", montecarlo.load_sampling_spec),
                               **{field: value for field, value in given.items() if value is not None})

    kappas, excluded = montecarlo.kappa_draws(chain, coeffs, spec)
    summary = montecarlo.summarize_kappa(kappas, excluded, spec.seed)
    histogram = montecarlo.kappa_histogram_csv(kappas) if args.format == "csv" or args.out else None

    _emit(args, {"summary": _fields(summary)}, seed=spec.seed,
          versions={"coeffs": coeffs.name, "spec": spec.name}, histogram=histogram)
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract

def cmd_extract(args) -> int:
    from . import barriers, gkp, nucdata

    chain = _load(args, "chain", nucdata.load_chain)
    coeffs = _load(args, "coeffs", gkp.load_coefficients)
    anchors = _load(args, "anchors", barriers.load_anchors)
    rhs_rows = _load(args, "rhs", gkp.load_rhs)
    result = gkp.extract_rows(chain, coeffs, rhs_rows, anchors.signal_anchor_eV)
    _emit(args, _fields(result), versions={"coeffs": coeffs.name, "anchors": anchors.name})
    return EXIT_OK


# ---------------------------------------------------------------------------
# milestones / ramsey

def cmd_milestones(args) -> int:
    from . import budget

    ladder = _load(args, "ladder", budget.load_milestones)
    report = _fields(ladder)
    del report["name"]  # the manifest's config_versions names the ladder
    if args.target is not None:
        row = budget.milestone_lookup(args.target, ladder)
        report["target"] = dict(_fields(row), sensitivity_eV=args.target)
    _emit(args, report, versions={"ladder": ladder.name})
    return EXIT_OK


def cmd_ramsey(args) -> int:
    from . import budget

    plan = budget.ramsey_plan(args.half_life, args.tr, args.reps)
    _emit(args, _fields(plan))
    return EXIT_OK


# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """argparse type: a finite real number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _half_life(text: str) -> float | None:
    """argparse type: 'stable' (None) or a finite number of seconds."""
    return None if text == "stable" else _finite_float(text)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name, built
    once per process and shared by every main() call: keep them stateless."""
    parser = argparse.ArgumentParser(
        prog="gkpforge",
        description="Barrier budgets, topology checks, conditioning studies, rank-2 extraction, "
        "and metrological milestones for gravitomagnetic spin-quadrupole searches.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, metavar="DIR", help="directory for JSON/CSV artifacts")
    common.add_argument("--format", choices=["table", "json", "csv"], default="table")
    chain_help = "chain file or bundled resource name (default: %(default)s)"

    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        p = commands[name] = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command("budget", cmd_budget, "electromagnetic barrier budget for a probe isotope")
    p.add_argument("--anchors", default="mo41-anchors-v1", metavar="PATH")
    p.add_argument("--scenario", choices=["current", "projected"], default="current")
    p.add_argument("--probe", type=int, default=None, metavar="A")
    p.add_argument("--chain", default="mo-chain-v1", metavar="PATH", help=chain_help)

    p = command("solvability", cmd_solvability, "topology counting for the rank-2 extraction")
    p.add_argument("--transitions", type=int, default=1, metavar="N")
    p.add_argument("--nbkg", type=int, default=2, metavar="K")
    p.add_argument("--add-isotope", type=int, action="append", default=[], metavar="A",
                   help="count an additional odd isotope (topology counting only)")
    p.add_argument("--chain", default="mo-chain-v1", metavar="PATH", help=chain_help)

    p = command("condition", cmd_condition, "Monte Carlo conditioning of the design matrix")
    p.add_argument("--spec", default="mo91-sampling-v1", metavar="PATH")
    p.add_argument("--coeffs", default="mo41-coeffs-v1", metavar="PATH")
    p.add_argument("--samples", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=None, metavar="SEED")
    p.add_argument("--chain", default="mo-chain-v1", metavar="PATH", help=chain_help)

    p = command("extract", cmd_extract, "weighted rank-2 extraction from an rhs file")
    p.add_argument("--coeffs", default="mo41-coeffs-v1", metavar="PATH")
    p.add_argument("--anchors", default="mo41-anchors-v1", metavar="PATH")
    p.add_argument("--rhs", required=True, metavar="PATH")
    p.add_argument("--chain", default="mo-chain-frib-synthetic-v1", metavar="PATH", help=chain_help)

    p = command("milestones", cmd_milestones, "sensitivity milestone ladder and lookup")
    p.add_argument("--ladder", default="milestones-v1", metavar="PATH")
    p.add_argument("--target", type=float, default=None, metavar="EV")

    p = command("ramsey", cmd_ramsey, "decay-limited Ramsey interrogation plan")
    p.add_argument("--half-life", type=_half_life, default=None, metavar="S",
                   help="half-life in seconds, or 'stable'")
    p.add_argument("--tr", type=_finite_float, required=True, metavar="S", help="requested interrogation time")
    p.add_argument("--reps", type=int, default=1, metavar="N")

    return parser, commands


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed into a fresh namespace, whose inputs _load fills: by
    the command's own parser when it takes all of argv, else by the
    top-level parser, as the module docstring says."""
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        namespace = argparse.Namespace(inputs={}, command=argv[0])
        args, rest = commands[argv[0]].parse_known_args(argv[1:], namespace)
        if not rest:
            return args
    return parser.parse_args(argv, argparse.Namespace(inputs={}))


def _numerical_errors() -> tuple[type[Exception], ...]:
    """NumericalError, and numpy's LinAlgError once a handler has loaded
    numpy: only such a handler can raise it."""
    numpy = sys.modules.get("numpy")
    return (NumericalError,) if numpy is None else (NumericalError, numpy.linalg.LinAlgError)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # send what is still buffered, and the flush at exit, nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_OUTPUT
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except _numerical_errors() as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
