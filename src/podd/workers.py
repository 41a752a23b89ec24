"""Ordered map over forked worker processes, for `--workers` above 1.

`fork_map` forks w = min(workers, len(tasks)) children.  Child j inherits
the task list and runs tasks j, j+w, j+2w, ..., so no task is pickled; it
sends back one pickled list of its results through a pipe, and the parent
puts them back in task order.  Forking is safe because a podd process runs
one thread.  The CLI imports this module only for a map with more than one
worker and more than one task, so a run at one worker never loads it.
"""
import os
import pickle
import signal
import traceback


def fork_map(fn, tasks, workers):
    """[fn(t) for t in tasks], over forked workers.  A task's exception is
    raised again here with the worker's traceback as its cause; a worker
    that sends no result raises ChildProcessError naming the worker and its
    exit status.  On any exception the workers left are killed and reaped."""
    w = min(workers, len(tasks))
    out, pids, pipes = [None] * len(tasks), [], []
    try:
        for j in range(w):
            r, wr = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, tasks[j::w], wr)
            finally:
                os.close(wr)
            pids.append(pid)
        for j, pipe in enumerate(pipes):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pids[j], 0)[1]
            pids[j] = None
            out[j::w] = _unpack(data, f"worker {j + 1} of {w}", status)
        return out
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in filter(None, pids):      # those not yet reaped
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(fn, tasks, fd):
    """A forked worker's whole life: run `tasks`, write (True, results) or
    (False, (exception, traceback text)) pickled to `fd`, and `os._exit`,
    so that nothing of the parent's (its atexit hooks, its buffered output)
    runs in the child."""
    code = 0
    try:
        try:
            message = (True, [fn(t) for t in tasks])
        except BaseException as e:     # sent to the parent, which re-raises
            message = (False, (e, traceback.format_exc()))
        with open(fd, "wb") as fh:
            pickle.dump(message, fh, pickle.HIGHEST_PROTOCOL)
    except BaseException:
        code = 1
    finally:
        os._exit(code)


def _unpack(data, who, status):
    """The results that a worker sent, or its task's exception re-raised
    with the worker's traceback as its cause."""
    try:
        ok, value = pickle.loads(data)
    except Exception:       # empty or cut short: the worker died first
        code = os.waitstatus_to_exitcode(status)
        how = f"exit status {code}" if code >= 0 else f"signal {-code}"
        raise ChildProcessError(f"{who} ended with {how} and sent no "
                                f"result") from None
    if not ok:
        exc, text = value
        raise exc from RuntimeError(f"{who} raised:\n{text}")
    return value
