"""``repro.service``: the crash-safe persistent scheduler service.

A long-lived daemon wrapping the execution engine so scheduling state
- table-G entries, characterization fits, content-addressed results -
accumulates across process lifetimes instead of being recomputed from
scratch on every run.  Three layers (see docs/SERVICE.md):

* :mod:`repro.service.store` - the sqlite (WAL-mode) durable store:
  the job table with its explicit state machine, persisted table G,
  characterization fits, and pointers into the result cache;
* :mod:`repro.service.jobs` - declarative job specs, admission
  control, and the retry/backoff policy;
* :mod:`repro.service.daemon` - the serve loop: claim, execute (in a
  watchdog-supervised child process), complete atomically; crash
  recovery on startup; graceful SIGTERM drain.

Crash safety is *by construction*: every side effect is either an
atomic content-addressed cache write (idempotent - replaying an
at-least-once job yields exactly-once results) or a single sqlite
transaction (the job's DONE transition and its table-G merge commit
together or not at all).  ``kill -9`` at any instant loses no jobs
and changes no fingerprints; ``repro.harness.crashchaos`` proves it.
"""

from repro.service.daemon import SchedulerService
from repro.service.jobs import AdmissionDecision, JobSpec
from repro.service.store import (
    JOB_STATES,
    STORE_SCHEMA_VERSION,
    TERMINAL_STATES,
    DurableStore,
)

__all__ = [
    "AdmissionDecision",
    "DurableStore",
    "JOB_STATES",
    "JobSpec",
    "STORE_SCHEMA_VERSION",
    "SchedulerService",
    "TERMINAL_STATES",
]
