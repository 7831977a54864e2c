"""`sf` command line: compute, convert, simulate, minimize, solve, render.

Job specs are JSON (from --input or stdin), reports are JSON on stdout with
a fixed field layout and fixed float formatting, so identical inputs give
byte-identical outputs.  Exit codes: 0 success, 1 internal error (a defect in
sf), 2 invalid input, 3 requested object does not exist, 4 dynamics failure,
5 I/O failure, a write to stdout that fails among them.  Every input is
decoded as UTF-8 by the package's one JSON decoder, `jobs.loads`, which
refuses NaN, Infinity and a float that overflows (exit 2); a batch file is
split on "\n" alone, as JSON Lines is, and each line is decoded and
reported on its own.  A job that hits a defect, on a batch line or alone
from --input or stdin, still gets a report: the error report with exit
code 1, its traceback on stderr.
The periodicity tolerance is fixed (TOLERANCES) and every report echoes it.
Exit 2 also covers, as the README lists them, a top-level spec key that
the command does not read (see each module's KEYS), weights, triangles,
tripolar scales and river crossings whose quantities leave the range of
normal floats, an all-zero tripolar triple, render "layers" other than
{"apollonius": true|false}, a render output path that is empty or holds a
NUL character, and --svg anywhere but on a single render job.

This module is the CLI core: the argument parser, the batch loop and the
mapping of exceptions to exit codes.  `run_spec` maps the library's
refusals, GeometryErrors, all in `geometry`, to 3 (NoSuchPoint,
IdealPoint) or 2, so an error report loads no module its command did not;
a command catches one only to add what only it knows, as CliError with
its code (a failed simulate step is 4, a failed SVG write 5).  Any other
exception, a ValueError outside GeometryError among them, is a defect
(exit 1).  Each command lives in its own module
(`cmd_point` ... `cmd_render`, each with `run(spec)`), and the spec
parsing and report helpers they share live in `jobs`.  A handler in
`HANDLERS` imports its command's module by name when it is first called,
so a cold process compiles only this core, `jobs`, the module of the
command it runs and the modules that command uses.
`python -m snellfagnano.cli` runs this file as `__main__`, so no module of
the package imports it: an import would run it a second time.

The installed `sf` script and `python -m snellfagnano.cli` share one
process entry, `console()`, which exits with `main()`'s code and freezes
the collector's heap on the way out (`gc.freeze()`).  Each job is one
short process, and without the freeze the interpreter's final collections
walk a heap that is about to be freed whole: from `main()` returning to
the parent reaping the process took a median 11.2 ms for a cold `sf point`
and now takes 3.4 ms (15 runs each, 2-core x86-64 Linux, Python 3.11).
`main(argv)` is the in-process API: it returns the exit code (or raises
SystemExit for `--version`, `-h` and a usage error, and OSError when a
write to stdout fails) and never freezes, so a process that calls it and
goes on still collects its garbage.  `console()` turns a failed write to
stdout, a broken pipe among them, into exit 5 with one `sf:` line.

A batch's reports come out in input order, and stdout, stderr, the SVGs
and the exit code (the largest over its lines) are byte for byte those of
a serial run.  `main()` runs a batch serially, so a caller in the same
process sees every job run there.  The process entry splits a batch of at
least 2 * LINES_PER_WORKER lines into contiguous chunks, one per usable
CPU but at most one per LINES_PER_WORKER lines, run by forked workers (see
`workers`): its own chunk's reports stream as they are ready, and a later
chunk's are written once the earlier ones are.  A worker's chunk is
trusted whole when the worker ends with an exit code (0 to 5), else run
again whole by the parent.  Each worker compiles the modules its lines
use again, which a small batch does not earn back.

The parser takes the command word and the flags in any order, each flag at
most once: `--input FILE`, `--batch FILE` and `--svg FILE` (also written
`--flag=FILE`), `--compact`, `--version` and `-h`/`--help`.  A usage error
writes the usage line and `sf: error: <reason>` to stderr and raises
SystemExit(2); so do `--input` together with `--batch`, and an unknown or
abbreviated flag.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys

from . import __version__, geometry, serialize
from .jobs import (EXIT_INTERNAL, EXIT_INVALID, EXIT_IO, EXIT_MISSING, EXIT_OK,
                   CliError, check_keys, error_doc, loads)


def _handler(command: str):
    """run(spec) of module cmd_<command>, imported when first called, after
    the spec's keys are checked against the module's KEYS."""
    def run(spec):
        module = importlib.import_module(__package__ + ".cmd_" + command)
        check_keys(spec, module.KEYS)
        return module.run(spec)
    return run


# Command name -> handler, in the order the usage line lists them.
HANDLERS = {command: _handler(command) for command in
            ("point", "convert", "simulate", "minimize", "river", "render")}

USAGE = ("usage: sf [-h] [--version] [--input FILE | --batch FILE] "
         "[--svg FILE] [--compact]\n          {%s}\n" % ",".join(HANDLERS))

HELP = USAGE + """
Weighted closed-orbit construction and optimization for triangles.

positional arguments:
  {%s}

options:
  -h, --help    show this help message and exit
  --version     show program's version number and exit
  --input FILE  job spec JSON file (default: stdin)
  --batch FILE  JSON-lines file of job specs
  --svg FILE    output path for a single render job
  --compact     one-line JSON output
""" % ",".join(HANDLERS)

VALUE_FLAGS = ("--input", "--batch", "--svg")


def _usage_error(reason: str):
    sys.stderr.write("%ssf: error: %s\n" % (USAGE, reason))
    raise SystemExit(EXIT_INVALID)


def parse_args(argv: list[str]) -> tuple[str, dict[str, object]]:
    """The command word and {flag: value} of an `sf` command line.

    `--compact` maps to True.  `-h`/`--help` and `--version` print and
    raise SystemExit(0) where they stand; a usage error raises
    SystemExit(2) (see `_usage_error`).
    """
    command = None
    flags: dict[str, object] = {}
    unknown = []
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            sys.stdout.write(HELP)
            raise SystemExit(EXIT_OK)
        if arg == "--version":
            sys.stdout.write(__version__ + "\n")
            raise SystemExit(EXIT_OK)
        name, eq, value = arg.partition("=")
        if name in VALUE_FLAGS or arg == "--compact":
            if name in flags:
                _usage_error("argument %s: not allowed twice" % name)
            if arg == "--compact":
                value = True
            elif not eq:
                value = next(args, None)
                if value is None or (value.startswith("-") and value != "-"):
                    _usage_error("argument %s: expected one argument" % name)
            flags[name] = value
        elif command is None and not arg.startswith("-"):
            command = arg
        else:
            unknown.append(arg)
    if command is None:
        _usage_error("the following arguments are required: command")
    if command not in HANDLERS:
        _usage_error("argument command: invalid choice: %r (choose from %s)"
                     % (command, ", ".join(map(repr, HANDLERS))))
    if unknown:
        _usage_error("unrecognized arguments: %s" % " ".join(unknown))
    if "--input" in flags and "--batch" in flags:
        _usage_error("argument --batch: not allowed with argument --input")
    return command, flags


def run_spec(command: str, spec: object) -> tuple[dict[str, object], int]:
    """The report of one job and its exit code.  A `CliError` and the
    library's `GeometryError` family, the only errors an input can raise,
    become an error report; any other exception (a plain `ValueError` too)
    is a defect in sf and propagates to `_run_job`."""
    if not isinstance(spec, dict):
        return (error_doc(command, {"_raw": spec},
                          "job spec must be a JSON object"), EXIT_INVALID)
    try:
        return HANDLERS[command](spec)
    except CliError as e:
        code, message = e.code, str(e)
    except (geometry.NoSuchPoint, geometry.IdealPoint) as e:
        code, message = EXIT_MISSING, str(e)
    except geometry.GeometryError as e:
        code, message = EXIT_INVALID, str(e)
    return error_doc(command, spec, message), code


def _run_job(command: str, text: str | bytes, batch: bool,
             indent: int = 0, svg: str | None = None) -> int:
    """Write the report of one job to stdout; return its exit code.

    A batch line may name its own "command", and its report carries its
    exit_code.  A single job whose text is not valid JSON gets no report,
    only its reason on stderr, where the message of any other failing
    single job goes too.  An exception that escapes a handler or the
    serializer is a defect in sf: its traceback goes to stderr and the job
    gets an exit-1 error report.  Only a failed write raises (OSError).
    """
    spec: object = {}
    cmd = command

    def report(doc: dict[str, object], code: int) -> str:
        if batch:
            doc["exit_code"] = code
        return serialize.dumps(doc, indent=indent) + ("" if indent else "\n")

    try:
        try:
            spec = loads(text)
            if batch:
                job = (spec.get("command", command) if isinstance(spec, dict)
                       else command)
                if not isinstance(job, str) or job not in HANDLERS:
                    raise CliError(EXIT_INVALID, "unknown command %r" % (job,))
                cmd = job
            elif svg is not None and isinstance(spec, dict):
                spec = dict(spec, svg_path=svg)
            doc, code = run_spec(cmd, spec)
        except CliError as e:
            if not batch:
                sys.stderr.write("sf: %s\n" % e)
                return e.code
            doc, code = error_doc(cmd, spec, str(e)), e.code
        out = report(doc, code)
    except Exception as e:  # a defect in sf: report it, keep a batch going
        import traceback
        traceback.print_exc()
        doc, code = error_doc(cmd, spec, "internal error: %s: %s"
                              % (type(e).__name__, e)), EXIT_INTERNAL
        out = report(doc, code)
    sys.stdout.write(out)
    if not batch and code != EXIT_OK and "message" in doc:
        sys.stderr.write("sf: %s\n" % doc["message"])
    return code


# Lines per worker below which a split does not pay: each worker compiles
# and warms up the code its lines use again, and copies the pages it
# writes, about 15-17 ms of CPU on construct-batch lines (wait4 CPU of
# split against serial, reaped workers included).  Measured as sf --batch
# over the first N construct-batch lines of an sfbench seed, split in two
# against serial, median wall of 15 alternating runs, 2-core x86-64 Linux,
# Python 3.11, PYTHONDONTWRITEBYTECODE=1.  Seed 7: N = 64 -1.3 %, 96
# +0.3 % (split faster in 8 of 15), 128 +4.9 % (13 of 15), 192 +9.0 %.
# Seed 8: N = 64 -3.4 %, 96 +4.1 % (14 of 15), 128 +4.4 % (15 of 15).
LINES_PER_WORKER = 64


def _run_batch(command: str, path: str, split: bool = False) -> int:
    """Run every nonblank line of the batch file; return the largest exit
    code.  With split, a batch of at least two workers' worth of lines may
    run in forked workers (see `workers`)."""
    try:
        with open(path, "rb") as fh:
            lines = [ln for ln in fh.read().split(b"\n") if ln.strip()]
    except OSError as e:
        sys.stderr.write("sf: cannot read batch file: %s\n" % e)
        return EXIT_IO

    def run_lines(chunk: list[bytes]) -> int:
        worst = EXIT_OK
        for line in chunk:
            worst = max(worst, _run_job(command, line, batch=True))
        return worst

    if split and len(lines) >= 2 * LINES_PER_WORKER:
        from . import workers
        return workers.run(lines, run_lines, LINES_PER_WORKER)
    return run_lines(lines)


def main(argv: list[str] | None = None, *, split: bool = False) -> int:
    """Run one `sf` command line; return its exit code.  `split` lets a
    large batch run in forked workers; only the process entry sets it."""
    command, flags = parse_args(sys.argv[1:] if argv is None else argv)
    svg = flags.get("--svg")
    batch = flags.get("--batch")
    if svg is not None and (command != "render" or batch is not None):
        sys.stderr.write("sf: --svg goes only with a single render job\n")
        return EXIT_INVALID

    if batch is not None:
        return _run_batch(command, batch, split)

    path = flags.get("--input")
    if path is not None:
        try:
            with open(path, "rb") as fh:
                text: str | bytes = fh.read()
        except OSError as e:
            sys.stderr.write("sf: cannot read input: %s\n" % e)
            return EXIT_IO
    else:
        # Bytes from a real stdin; a replaced one may hold text already.
        text = getattr(sys.stdin, "buffer", sys.stdin).read()
    return _run_job(command, text, batch=False,
                    indent=0 if "--compact" in flags else 2, svg=svg)


def console() -> None:
    """Process entry of `sf` and `python -m snellfagnano.cli`: exit with
    `main()`'s code, freezing the collector's heap on the way out.

    `gc.freeze()` moves every tracked object into the permanent generation,
    so the interpreter's final collections skip a heap the process is about
    to give back whole.  It runs in `finally`, so a SystemExit from
    `--version`, `-h` or a usage error exits the same way; atexit handlers
    run after it.  stdout is flushed here, so that a write that fails, at
    once or at this flush, because stdout's reader has gone or its disk is
    full, stops the job with exit 5 and one `sf:` line on stderr.  stdout
    is then pointed at the null device, so that the interpreter's own
    flush at exit has nowhere to fail again.
    """
    try:
        try:
            code = main(split=True)
        except SystemExit as e:  # --version, -h and usage errors
            code = e.code
        sys.stdout.flush()
    except OSError as e:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        sys.stderr.write("sf: cannot write output: %s\n" % e)
        code = EXIT_IO
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console()
