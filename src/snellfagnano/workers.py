"""Forked workers for a large `sf --batch`; the CLI core loads this module
only for a batch that is large enough to split.

`run(lines, run_lines, lines_per_worker)` splits the batch lines into
contiguous chunks, one per usable CPU but at most one per
`lines_per_worker` lines.  The parent forks a worker for every chunk but
the first, runs the first itself and streams its reports as a serial run
would.  Each worker writes its reports and its stderr into unlinked
temporary files: unlike memory they keep RSS flat on a huge batch, and
unlike a pipe they never block a worker that has run ahead.  The parent
then reaps the workers in chunk order and copies each one's files to its
own stdout and stderr.  So each stream is byte for byte a serial run's,
a later chunk's reports come out once every earlier chunk's are written,
and the exit code is the largest over all lines.  Where stdout and stderr
are one file, a worker's stderr (the tracebacks of defects) follows its
chunk's reports there rather than sitting between them.

The batch runs serially instead when it has fewer than two workers' worth
of lines, the process has one usable CPU or no `os.fork`, stdout or
stderr has no file descriptor (a caller replaced it), or two lines may
name the same `svg_path`: the later line's file must be the one that
survives, and chunks finish in any order.

A worker's chunk is trusted whole or run again whole, so a batch never
loses a line and this module never reads a report.  A worker that ends
with an exit code (0 to 5) has run every line and flushed both files, and
the parent copies them out as they are.  Every other chunk the parent runs
itself and drops its worker's files: one whose fork or temporary files
failed, and one whose worker was killed by a signal or failed outside its
jobs.  The parent reaps every worker on every path it controls: in chunk
order when the batch ends, and at once, after killing it, when the parent
itself fails (a write to stdout, an exception).
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile

from .jobs import EXIT_IO, EXIT_OK, CliError, loads

# Exit status of a worker that failed outside its jobs, in a write to its
# files say, and of a chunk with no worker; like any status outside EXIT_OK
# to EXIT_IO, a signal among them, it makes the parent run the chunk whole.
FAILED = 255


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def svg_paths_repeat(lines: list[bytes]) -> bool:
    """Whether two lines may write the same SVG file.  Each line is decoded
    by `jobs.loads`, as its job decodes it, so a line that the job refuses
    as invalid JSON (a NaN or a float that overflows in it) names no file,
    nor does a path that holds a NUL character.  Only a line that spells
    "svg_path" out, or with a \\u escape, can name one."""
    seen = set()
    for line in lines:
        if b"svg_path" not in line and b"\\u" not in line:
            continue
        try:
            spec = loads(line)
            path = spec.get("svg_path") if isinstance(spec, dict) else None
            if not isinstance(path, str):
                continue
            path = os.path.realpath(path)
        except (CliError, ValueError):  # a line that writes no file
            continue
        if path in seen:
            return True
        seen.add(path)
    return False


class Worker:
    """One chunk of the batch: the forked process that runs it (pid None
    until it is forked, and when its fork or its files fail) and the
    unlinked files of its stdout and stderr."""

    def __init__(self, chunk: list[bytes]):
        self.chunk = chunk
        self.pid: int | None = None
        self.files = []

    def start(self, run_lines, fds: list[int]) -> None:
        """Fork the worker.  It writes its chunk's stdout and stderr into
        its files (fds are the parent's stdout and stderr descriptors) and
        ends with os._exit, its status the chunk's largest exit code."""
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            for _ in fds:  # one by one: close() shuts those made so far
                self.files.append(tempfile.TemporaryFile())
            pid = os.fork()
        except OSError:  # no file, too many processes: the parent runs it
            return
        if pid:
            self.pid = pid
            return
        status = FAILED
        try:
            for f, fd in zip(self.files, fds):
                os.dup2(f.fileno(), fd)
            worst = run_lines(self.chunk)
            sys.stdout.flush()
            sys.stderr.flush()
            status = worst
        finally:
            os._exit(status)

    def reap(self, kill: bool = False) -> int:
        """Wait for the worker to end, killing it first if asked; return
        its exit status, or FAILED if there is no process to wait for."""
        pid, self.pid = self.pid, None
        if pid is None:
            return FAILED
        if kill:
            os.kill(pid, signal.SIGKILL)
        try:
            return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except ChildProcessError:  # reaped elsewhere: status unknown
            return FAILED

    def finish(self, run_lines, fds: list[int]) -> int:
        """Reap the worker; copy its files whole to the parent's stdout and
        stderr if it ended with an exit code, else run its chunk whole.
        Return the chunk's largest exit code."""
        status = self.reap()
        if not EXIT_OK <= status <= EXIT_IO:
            return run_lines(self.chunk)
        sys.stdout.flush()
        sys.stderr.flush()
        for f, fd in zip(self.files, fds):
            f.seek(0)
            while data := f.read(1 << 16):
                write_all(fd, data)
        return status

    def close(self) -> None:
        for f in self.files:
            f.close()


def write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def run(lines: list[bytes], run_lines,
        lines_per_worker: int) -> int:
    """Run the batch lines by run_lines (which writes their reports and
    returns their largest exit code), in forked workers where that pays;
    return the largest exit code over all lines."""
    n = min(usable_cpus(), len(lines) // lines_per_worker)
    try:
        fds = [sys.stdout.fileno(), sys.stderr.fileno()]
    except (AttributeError, ValueError, OSError):  # not backed by a file
        n = 0
    if n < 2 or not hasattr(os, "fork") or svg_paths_repeat(lines):
        return run_lines(lines)
    bounds = [len(lines) * k // n for k in range(n + 1)]
    workers = [Worker(lines[bounds[k]:bounds[k + 1]]) for k in range(1, n)]
    try:
        for w in workers:
            w.start(run_lines, fds)
        worst = run_lines(lines[:bounds[1]])
        for w in workers:
            worst = max(worst, w.finish(run_lines, fds))
        return worst
    finally:
        for w in workers:
            w.reap(kill=True)
            w.close()
