"""Fault-injecting test doubles for the deployment and measurement paths.

These wrap real objects and make their first *N* calls fail with
:class:`~repro.exceptions.TransientError`, then delegate normally — the
shape of a host that drops one SSH connection or a VM that is still
booting.  They exist so retry behaviour is exercised end-to-end by the
test suite (and by ``repro chaos`` demos) without patching internals:

* :class:`FlakyHost` wraps an emulation host's ``receive`` / ``extract``
  / ``lstart`` stages;
* :class:`FlakyVM` wraps a :class:`~repro.emulation.vm.VirtualMachine`'s
  ``run``;
* :func:`inject_flaky_vm` swaps a booted lab's VM handle for a flaky
  one in place;
* :class:`SleepyVM` / :func:`inject_sleepy_vm` are the *hang* variant:
  the first ``hangs`` command executions block in a plain
  ``time.sleep`` (no heartbeats, no cooperation) — the shape of a VM
  whose console wedged.  They exist so deadline and watchdog reaping is
  exercised against a genuinely stuck worker.

Everything not explicitly wrapped is delegated via ``__getattr__``, so
a double is drop-in wherever the real object is accepted.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.exceptions import TransientError

_HOST_STAGES = ("receive", "extract", "lstart")


class FlakyHost:
    """An emulation host whose first ``failures`` calls per stage fail."""

    def __init__(self, host, failures: int = 1, stages: Iterable[str] = _HOST_STAGES):
        self._host = host
        self._remaining = {stage: failures for stage in stages}
        #: every stage call in order, for assertions on retry behaviour
        self.calls: list[str] = []

    def _maybe_fail(self, stage: str) -> None:
        self.calls.append(stage)
        remaining = self._remaining.get(stage, 0)
        if remaining > 0:
            self._remaining[stage] = remaining - 1
            raise TransientError(
                "injected transient %s failure on host %s"
                % (stage, getattr(self._host, "name", "?"))
            )

    def receive(self, archive_path, lab_name):
        self._maybe_fail("receive")
        return self._host.receive(archive_path, lab_name)

    def extract(self, archive_path, lab_name):
        self._maybe_fail("extract")
        return self._host.extract(archive_path, lab_name)

    def lstart(self, source, lab_name, **boot_options):
        self._maybe_fail("lstart")
        return self._host.lstart(source, lab_name, **boot_options)

    def __getattr__(self, name):
        return getattr(self._host, name)

    def __repr__(self) -> str:
        return "FlakyHost(%r, remaining=%r)" % (self._host, self._remaining)


class FlakyVM:
    """A VM whose first ``failures`` command executions fail."""

    def __init__(self, vm, failures: int = 1):
        self._vm = vm
        self._remaining = failures
        self.calls: list[str] = []

    def run(self, command: str) -> str:
        self.calls.append(command)
        if self._remaining > 0:
            self._remaining -= 1
            raise TransientError(
                "injected transient failure on %s running %r"
                % (self._vm.name, command)
            )
        return self._vm.run(command)

    def __getattr__(self, name):
        return getattr(self._vm, name)

    def __repr__(self) -> str:
        return "FlakyVM(%s, remaining=%d)" % (self._vm.name, self._remaining)


def inject_flaky_vm(lab, machine: str, failures: int = 1) -> FlakyVM:
    """Replace ``lab``'s handle for ``machine`` with a flaky wrapper."""
    flaky = FlakyVM(lab.vm(machine), failures=failures)
    lab._vms[machine] = flaky
    return flaky


class SleepyVM:
    """A VM whose first ``hangs`` command executions block for ``sleep_s``.

    Unlike :class:`FlakyVM` this does not raise — it *wedges*, sleeping
    uncooperatively with no heartbeat, then delegates.  Retry logic
    never sees an error; only a deadline budget or watchdog can cut the
    call short.  ``sleep_s`` defaults high enough that any test which
    reaches the sleep without supervision would visibly hang.
    """

    def __init__(self, vm, sleep_s: float = 30.0, hangs: int = 1):
        self._vm = vm
        self.sleep_s = sleep_s
        self._remaining = hangs
        self.calls: list[str] = []

    def run(self, command: str) -> str:
        self.calls.append(command)
        if self._remaining > 0:
            self._remaining -= 1
            time.sleep(self.sleep_s)
        return self._vm.run(command)

    def __getattr__(self, name):
        return getattr(self._vm, name)

    def __repr__(self) -> str:
        return "SleepyVM(%s, sleep_s=%s, remaining=%d)" % (
            self._vm.name,
            self.sleep_s,
            self._remaining,
        )


def inject_sleepy_vm(lab, machine: str, sleep_s: float = 30.0, hangs: int = 1) -> SleepyVM:
    """Replace ``lab``'s handle for ``machine`` with a wedging wrapper."""
    sleepy = SleepyVM(lab.vm(machine), sleep_s=sleep_s, hangs=hangs)
    lab._vms[machine] = sleepy
    return sleepy
