"""Run one child process at a time and wait for it without polling.

``subprocess`` waits with a timeout by polling with sleeps of up to 50 ms,
which would quantise every measured child time.  Here the wait blocks in
``waitpid`` and a SIGALRM timer enforces the timeout instead; on timeout
the child is killed and reaped.  Main thread only.
"""

from __future__ import annotations

import os
import signal
import subprocess


class ChildTimeout(Exception):
    """A child ran longer than its timeout and was killed."""


def _alarm(signum, frame):
    raise ChildTimeout


def run_child(cmd, env, timeout, capture=False):
    """Run ``cmd`` to completion; return a ``subprocess.CompletedProcess``.

    With ``capture`` stdout and stderr are returned as text; otherwise
    stdout is discarded and stderr is inherited.  The child leads a process
    group of its own, and a timeout kills that whole group, so that its own
    children go with it.
    """
    out = subprocess.PIPE if capture else subprocess.DEVNULL
    err = subprocess.PIPE if capture else None
    previous = signal.signal(signal.SIGALRM, _alarm)
    proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, text=True, start_new_session=True)
    signal.alarm(timeout)
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        signal.alarm(0)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)
