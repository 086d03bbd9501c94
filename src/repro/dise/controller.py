"""The DISE controller: capacity virtualization and access policy.

"System-wise, the DISE engine is wrapped in two layers of abstraction.
A physical DISE controller virtualizes the engine's internal format and
capacity.  The operating system restricts access to the controller to
enforce a simple safety policy: applications can create productions to
apply to their own code streams without restriction, but only 'trusted'
entities may create/modify productions that act on other applications."
(paper Section 3)

The controller therefore:

* holds the one production table: each entry's production, principal,
  target process and activity, in install order (which is match
  priority);
* tracks pattern-table entries (default 32) and replacement-table
  instructions (default 512) and rejects installs that exceed them;
* enforces the ownership policy: an untrusted principal may only install
  productions for its own process;
* supports fast activate/deactivate, which is how the debugger enables
  and disables watchpoints "without modifying the executable"
  (Section 6).

After every change it recomputes the *resident* set — the active
entries aimed at the running process, in install order — and passes it
to :meth:`DiseEngine.load`; the engine holds nothing else.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable

from repro.config import DiseConfig
from repro.errors import DiseCapacityError, DisePermissionError
from repro.dise.engine import DiseEngine
from repro.dise.production import Production


@dataclass(frozen=True)
class _Installed:
    production: Production
    principal: str
    target_process: str
    # The user's enable/disable intent; gating by process is separate
    # (an entry is resident iff active and aimed at process_name).
    active: bool = True


class DiseController:
    """Mediates all production installation for one engine."""

    def __init__(self, engine: DiseEngine, config: DiseConfig | None = None,
                 process_name: str = "application"):
        self.engine = engine
        self.config = config or DiseConfig()
        self.process_name = process_name
        self.trusted_principals: set[str] = {"os", "debugger"}
        # Frozen entries in install order; replaced, never mutated, so
        # a snapshot shares the tuple.
        self._installed: tuple[_Installed, ...] = ()

    # -- capacity ----------------------------------------------------------

    @property
    def pattern_entries_used(self) -> int:
        return len(self._installed)

    @property
    def replacement_slots_used(self) -> int:
        return sum(len(entry.production) for entry in self._installed)

    def _check_capacity(self, productions: tuple[Production, ...]) -> None:
        entries = self.pattern_entries_used + len(productions)
        if entries > self.config.pattern_table_entries:
            raise DiseCapacityError(
                f"pattern table full: need {entries} of "
                f"{self.config.pattern_table_entries} entries")
        needed = self.replacement_slots_used + sum(map(len, productions))
        if needed > self.config.replacement_table_instructions:
            raise DiseCapacityError(
                f"replacement table full: need {needed} of "
                f"{self.config.replacement_table_instructions} instructions")

    # -- policy ----------------------------------------------------------------

    def _check_permission(self, principal: str, target_process: str) -> None:
        if target_process == principal:
            return  # own code stream: unrestricted
        if principal not in self.trusted_principals:
            raise DisePermissionError(
                f"untrusted principal {principal!r} may not install "
                f"productions for process {target_process!r}")

    # -- install / activate ------------------------------------------------

    def install(self, production: Production, principal: str = "debugger",
                target_process: str | None = None) -> Production:
        """Install (and activate) a production; returns it for chaining.

        A production aimed at a process that is not running reserves
        table space but stays out of the engine until its target runs.
        """
        self.install_all((production,), principal, target_process)
        return production

    def install_all(self, productions: Iterable[Production],
                    principal: str = "debugger",
                    target_process: str | None = None) -> None:
        """Install several productions under one principal, atomically.

        Permission and capacity are checked for the whole batch before
        anything is installed, so an error leaves the table unchanged.
        """
        productions = tuple(productions)
        target = target_process or self.process_name
        self._check_permission(principal, target)
        self._check_capacity(productions)
        self._installed += tuple(_Installed(production, principal, target)
                                 for production in productions)
        self._load()

    def deactivate(self, production: Production) -> None:
        """Temporarily disable without freeing table space."""
        self._set_active(production, False)

    def activate(self, production: Production) -> None:
        """Re-enable a previously deactivated production at its
        original table position (match priority is preserved)."""
        self._set_active(production, True)

    def context_switch(self, process_name: str) -> None:
        """Re-gate the engine for the incoming process.

        This is the paper's permission story made mechanical: a
        production targets exactly one process, so the engine holds
        only the incoming process's active productions — the other
        process's fetch stream never probes them, so a non-target
        process pays nothing for them.  User ``activate``/``deactivate``
        intent survives any number of switches.
        """
        self.process_name = process_name
        self._load()

    def _set_active(self, production: Production, active: bool) -> None:
        index = self._index(production)
        entries = list(self._installed)
        entries[index] = dataclasses.replace(entries[index], active=active)
        self._installed = tuple(entries)
        self._load()

    def _index(self, production: Production) -> int:
        for index, entry in enumerate(self._installed):
            if entry.production is production:
                return index
        raise KeyError(f"production {production.name!r} is not installed")

    def _load(self) -> None:
        self.engine.load(entry.production for entry in self._installed
                         if entry.active
                         and entry.target_process == self.process_name)

    @property
    def installed_productions(self) -> tuple[Production, ...]:
        return tuple(entry.production for entry in self._installed)

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> tuple:
        """Capture the install table, trust set, and gating identity.

        The table is a tuple of frozen entries, so the blob shares it.
        """
        return (self._installed, frozenset(self.trusted_principals),
                self.process_name)

    def restore(self, blob: tuple) -> None:
        """Reset to a previous :meth:`snapshot` and reload the engine
        with that snapshot's resident set."""
        self._installed, trusted, self.process_name = blob
        self.trusted_principals = set(trusted)
        self._load()
