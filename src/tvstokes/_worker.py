"""The package's one worker thread, loaded by the first update or Poisson solve that splits.

:func:`.dual.iterate` hands one group of slabs to :func:`submit` and waits for
its :class:`Outcome`; a halved :meth:`.PoissonPlan.solve` hands it the second
half of each of its four phases.  The thread starts with the first call and
then waits, idle, for the next; calls from several solving threads run in
turn.  It and its queue use ``threading`` alone: ``concurrent.futures`` imports
``logging`` and more, about 0.6 MB that the first run to split an update
would hold, and this module is not imported by ``import tvstokes``, so a run
that never splits, such as one on 64x64 frames, never compiles it.  A thread
started per split step instead, and joined, took 4-8% longer per 64^3 or
16x160x160 step.  A forked child has no copy of the thread, so it starts its
own.
"""

from __future__ import annotations

import os
import threading
from collections import deque

import numpy as np

from .dual import _WORKER

_POOL = None  # the thread's queue and its count
_LOCK = threading.Lock()


class Outcome:
    """A value one thread gives and another waits for: what a call on the worker thread
    returned or raised, ``(result, None)`` or ``(None, error)``, or the witness's verdict
    on a lazy step.  ``value`` is ``None`` until given; :meth:`wait` blocks until then."""

    __slots__ = ("_held", "value")

    def __init__(self):
        self._held, self.value = threading.Lock(), None
        self._held.acquire()

    def give(self, value) -> None:
        self.value = value
        self._held.release()

    def wait(self):
        with self._held:
            return self.value


def submit(fn, *args) -> Outcome:
    """Queue ``fn(*args)`` for the worker thread, under this thread's numpy error state."""
    global _POOL
    outcome = Outcome()
    with _LOCK:
        if _POOL is None:
            _POOL = (deque(), threading.Semaphore(0))
            threading.Thread(target=_serve, args=_POOL, name=_WORKER, daemon=True).start()
        _POOL[0].append((fn, args, np.geterr(), outcome))
        _POOL[1].release()
    return outcome


def _serve(tasks, queued) -> None:
    """The worker thread: run the queued calls in order."""
    while True:
        queued.acquire()
        fn, args, errstate, outcome = tasks.popleft()
        try:
            with np.errstate(**errstate):
                value = (fn(*args), None)
        except BaseException as error:  # raised where the outcome is read
            value = (None, error)
        del fn, args  # nothing of a finished call stays alive while the thread waits
        outcome.give(value)
        del value, outcome


def _forget() -> None:
    """In a forked child: the parent's worker thread is not there, so start a new one."""
    global _POOL, _LOCK
    _POOL, _LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
