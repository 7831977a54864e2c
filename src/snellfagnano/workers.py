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

Every batch report is one line.  A worker that dies, or ends other than
with its chunk's largest exit code, is trusted for the complete lines in
its stdout file only: the parent reads their exit codes back and runs the
rest of the chunk itself, so a batch never loses a line.  A chunk whose
fork or temporary files fail is left to the parent the same way.  The
parent reaps every worker on every path it controls: in chunk order when
the batch ends, and at once, after killing it, when the parent itself
fails (a write to stdout, an exception).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
from typing import Callable, List, Optional

from .jobs import EXIT_IO, EXIT_OK

# Exit status of a worker that failed outside its jobs, in a write to its
# files say; like any status above EXIT_IO, the largest exit code, or a
# signal, it leaves only the complete lines of the worker's stdout trusted.
FAILED = 255


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def svg_paths_repeat(lines: List[bytes]) -> bool:
    """Whether two lines may write the same SVG file.  Only a line that
    spells "svg_path" out, or with a \\u escape, can name one."""
    seen = set()
    for line in lines:
        if b"svg_path" not in line and b"\\u" not in line:
            continue
        try:
            spec = json.loads(line)
            path = spec.get("svg_path") if isinstance(spec, dict) else None
            if not isinstance(path, str):
                continue
            path = os.path.realpath(path)
        except (ValueError, RecursionError):  # a line that writes no file
            continue
        if path in seen:
            return True
        seen.add(path)
    return False


class Worker:
    """One chunk of the batch: the forked process that runs it (pid None
    when the fork failed) and the unlinked files of its stdout and
    stderr."""

    def __init__(self, chunk: List[bytes]):
        self.chunk = chunk
        self.pid: Optional[int] = None
        self.out = tempfile.TemporaryFile()
        try:
            self.err = tempfile.TemporaryFile()
        except BaseException:
            self.out.close()
            raise

    def start(self, run_lines: Callable[[List[bytes]], int],
              fds: List[int]) -> None:
        """Fork the worker.  It writes its chunk's stdout and stderr into
        its files (fds are the parent's stdout and stderr descriptors) and
        ends with os._exit, its status the chunk's largest exit code."""
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            pid = os.fork()
        except OSError:  # too many processes, no memory: the parent runs it
            return
        if pid:
            self.pid = pid
            return
        status = FAILED
        try:
            os.dup2(self.out.fileno(), fds[0])
            os.dup2(self.err.fileno(), fds[1])
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

    def finish(self, run_lines: Callable[[List[bytes]], int],
               fds: List[int]) -> int:
        """Reap the worker, copy its output to the parent's stdout and
        stderr, and run the lines it did not report; return the chunk's
        largest exit code."""
        status = self.reap()
        trusted = EXIT_OK <= status <= EXIT_IO
        sys.stdout.flush()
        sys.stderr.flush()
        worst = status if trusted else EXIT_OK
        self.out.seek(0)
        reported = 0
        block = []
        for line in self.out:
            if not line.endswith(b"\n"):  # cut off as the worker died
                break
            reported += 1
            if not trusted:
                worst = max(worst, exit_code(line))
            block.append(line)
            if len(block) == 256:
                write_all(fds[0], b"".join(block))
                block = []
        write_all(fds[0], b"".join(block))
        self.err.seek(0)
        for data in iter(lambda: self.err.read(1 << 16), b""):
            write_all(fds[1], data)
        if reported < len(self.chunk):
            worst = max(worst, run_lines(self.chunk[reported:]))
        return worst

    def close(self) -> None:
        self.out.close()
        self.err.close()


def exit_code(report: bytes) -> int:
    """The exit code of a compact batch report, which the CLI writes as
    its last field: the line ends `"exit_code":N}` and a newline."""
    return int(report[report.rindex(b":") + 1:-2])


def write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def run(lines: List[bytes], run_lines: Callable[[List[bytes]], int],
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
    workers: List[Worker] = []
    try:
        for k in range(1, n):
            try:
                worker = Worker(lines[bounds[k]:bounds[k + 1]])
            except OSError:  # no temporary file: the parent runs the rest
                break
            workers.append(worker)
            worker.start(run_lines, fds)
        worst = run_lines(lines[:bounds[1]])
        for w in workers:
            worst = max(worst, w.finish(run_lines, fds))
        end = bounds[len(workers) + 1]
        if end < len(lines):
            worst = max(worst, run_lines(lines[end:]))
        return worst
    finally:
        for w in workers:
            w.reap(kill=True)
            w.close()
