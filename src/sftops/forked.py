"""Two lists of jobs, one run in this process and one in a forked child.

A job is a callable without arguments whose result pickles.  The child
inherits this process's memory, so a job may close over anything its
caller has built; only the child's results cross the pipe.  Whatever a
failed child or a failed fork leaves undone is run here, so a caller that
splits pure work gets the results of one process whatever happens.

os.fork and one pipe, not multiprocessing or concurrent.futures:
importing either adds 20-25 ms and 2 MB to the start of every command.
"""

from __future__ import annotations

import os
import pickle


def _cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def two_cpus() -> bool:
    """Whether run gives its second list to a child."""
    return _cpus() >= 2


def _child(w: int, jobs: list) -> None:
    """Body of the forked child: one byte down the pipe after each job, so
    it ends on the broken pipe once the parent is gone, then the pickled
    list of results; it leaves through os._exit."""
    code = 1
    try:
        with os.fdopen(w, "wb") as pipe:
            out = []
            for job in jobs:
                out.append(job())
                pipe.write(b".")
                pipe.flush()
            pickle.dump(out, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _receive(pipe, count: int):
    """The child's results, read as it sent them: one byte per job, then
    the pickle.  None when either is short or broken."""
    try:
        if pipe.read(count) == b"." * count:
            return pickle.load(pipe)
    except Exception:
        pass
    return None


def _fork(mine: list, theirs: list) -> tuple:
    """The results of mine, run here while a forked child runs theirs, and
    the child's results; None for the latter when the fork or the child
    failed."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return [job() for job in mine], None
    if pid == 0:
        os.close(r)
        _child(w, theirs)
    os.close(w)
    pipe = os.fdopen(r, "rb")
    try:
        done = [job() for job in mine]
        got = _receive(pipe, len(theirs))
    finally:
        pipe.close()  # a child still at work ends on the broken pipe
        _, status = os.waitpid(pid, 0)
    return done, got if status == 0 else None


def run(mine: list, theirs: list) -> tuple:
    """([job() for job in mine], [job() for job in theirs]).

    With two CPUs a forked child runs theirs while this process runs mine.
    When the fork fails, or the child exits non-zero or sends a short
    result, this process runs theirs after mine.  With one CPU it runs both
    lists, in that order, without a fork.
    """
    got = None
    if theirs and two_cpus():
        done, got = _fork(mine, theirs)
    else:
        done = [job() for job in mine]
    if got is None or len(got) != len(theirs):
        got = [job() for job in theirs]
    return done, got
