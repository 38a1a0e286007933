"""SE message handlers: the SynCron protocol (paper Secs. 3.2, 4.2.4, 4.3).

:class:`ProtocolMixin` implements the control flow of Fig. 8 for every
opcode of Table 3.  It is mixed into
:class:`~repro.core.engine.SyncEngine`, which provides the infrastructure
(ST, indexing counters, syncronVar store, message send helpers and timing).

Handler conventions
-------------------

- *State objects* are :class:`~repro.core.sync_table.STEntry` instances,
  living either in the ST (common case) or inside a memory-resident
  ``syncronVar`` (overflow).  The same handlers run on both; the engine's
  :meth:`SyncEngine._get_state` decides where state lives and charges the
  Master SE's DRAM read+write on the memory path.
- ``local_waitlist`` holds core ids (condition variables hold
  ``(core, lock_var)`` pairs).  ``global_waitlist`` holds tagged tuples:
  ``("se", se_id)`` for aggregated hierarchical waiters and
  ``("ovf", core_id, se_id[, lock_var])`` for per-core waiters redirected by
  an overflowed local SE.
- Grants to cores are *direct notifications* (Table 4): exactly one waiting
  core is woken per grant; nobody spins.
"""

from __future__ import annotations

from repro.core.messages import Message, Opcode
from repro.sim.syncif import SyncUsageError


class ProtocolError(SyncUsageError):
    """A message arrived that a correct program could not have produced."""


class ProtocolMixin:
    """Opcode handlers; mixed into :class:`~repro.core.engine.SyncEngine`."""

    #: empty slots so slotted engines composed from this mixin stay dict-free.
    __slots__ = ()

    # ==================================================================
    # Dispatch
    # ==================================================================
    def dispatch(self, msg: Message) -> None:
        # One dict hit: every opcode an SE can receive is mapped (core-bound
        # grants are not, so a KeyError is kernel misuse).
        _HANDLERS[msg.opcode](self, msg)

    # ==================================================================
    # Locks (Sec. 3.2 walk-through)
    # ==================================================================
    def _on_lock_acquire_local(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return  # redirected to the Master SE by the overflow path
        state.local_waitlist.append(msg.core)
        if self.is_master(msg.var):
            self._lock_try_grant_master(state, msg.var, in_memory)
        else:
            if state.has_control and state.local_owner is None:
                self._lock_grant_local(state, msg.var)
            elif not state.has_control and not state.pending_global:
                state.pending_global = True
                self.send_se(self.master_of(msg.var), Opcode.LOCK_ACQUIRE_GLOBAL, msg.var)

    def _on_lock_acquire_global(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return
        state.global_waitlist.append(("se", msg.src_se))
        self._lock_try_grant_master(state, msg.var, in_memory)

    def _on_lock_acquire_overflow(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return
        state.overflow_ses.add(msg.src_se)
        if in_memory:
            self._mark_syncronvar_overflow(msg.var, msg.src_se)
        state.global_waitlist.append(("ovf", msg.core, msg.src_se))
        self._lock_try_grant_master(state, msg.var, in_memory)

    def _lock_try_grant_master(self, state, var, in_memory: bool) -> None:
        """Master-side arbitration: local waiters first (Sec. 3.2), unless
        the Sec. 4.4.2 fairness counter forces a transfer."""
        if state.local_owner is not None or state.owner_se is not None:
            return
        threshold = self.config.fairness_threshold
        force_transfer = (
            threshold > 0
            and state.local_grant_counter >= threshold
            and state.global_waitlist
        )
        if state.local_waitlist and not force_transfer:
            self._lock_grant_local(state, var)
        elif state.global_waitlist:
            state.local_grant_counter = 0
            self._lock_grant_global_head(state, var)
        else:
            self._maybe_free_state(state, var, in_memory)

    def _lock_grant_local(self, state, var) -> None:
        core = state.local_waitlist.popleft()
        state.local_owner = core
        state.local_grant_counter += 1
        self.send_grant(core)

    def _lock_grant_global_head(self, state, var) -> None:
        item = state.global_waitlist.popleft()
        if item[0] == "se":
            state.owner_se = item
            self.send_se(item[1], Opcode.LOCK_GRANT_GLOBAL, var)
        else:  # ("ovf", core, se): grant straight to the remote core
            state.owner_se = item
            self.send_se(item[2], Opcode.LOCK_GRANT_OVERFLOW, var, core=item[1])

    def _on_lock_grant_global(self, msg: Message) -> None:
        entry = self.st.lookup(msg.var.addr)
        if entry is None:
            raise ProtocolError(f"lock grant for unknown variable {msg.var.name}")
        entry.has_control = True
        entry.pending_global = False
        if entry.local_owner is None and entry.local_waitlist:
            self._lock_grant_local(entry, msg.var)

    def _on_lock_grant_overflow(self, msg: Message) -> None:
        # The overflowed SE simply forwards the grant to its local core.
        self.send_grant(msg.core)

    def _on_lock_release_local(self, msg: Message) -> None:
        entry = self.st.lookup(msg.var.addr)
        if entry is None:
            self._lock_release_no_entry(msg)
            return
        if entry.local_owner != msg.core:
            if not self.is_master(msg.var):
                # The core was granted through the overflow path (no local
                # entry existed then); a fresh ST entry has appeared since.
                # The Master SE still tracks the overflow ownership, so the
                # release must travel the overflow route.
                self._redirect_overflow(msg, Opcode.LOCK_RELEASE_OVERFLOW)
                return
            raise ProtocolError(
                f"core {msg.core} released lock {msg.var.name} owned by "
                f"{entry.local_owner}"
            )
        entry.local_owner = None
        if self.is_master(msg.var):
            self._lock_try_grant_master(entry, msg.var, in_memory=False)
            return
        # Non-master: keep serving local requests while any exist
        # (Sec. 3.2), unless fairness forces handing control back.
        threshold = self.config.fairness_threshold
        force_transfer = threshold > 0 and entry.local_grant_counter >= threshold
        if entry.local_waitlist and not force_transfer:
            self._lock_grant_local(entry, msg.var)
            return
        entry.has_control = False
        entry.local_grant_counter = 0
        self.send_se(self.master_of(msg.var), Opcode.LOCK_RELEASE_GLOBAL, msg.var)
        if entry.local_waitlist:
            # fairness transfer with waiters left: immediately re-request.
            entry.pending_global = True
            self.send_se(self.master_of(msg.var), Opcode.LOCK_ACQUIRE_GLOBAL, msg.var)
        else:
            self.st.release_if_idle(entry)

    def _lock_release_no_entry(self, msg: Message) -> None:
        """A release with no ST entry: the variable is memory-serviced."""
        if self.is_master(msg.var):
            state, in_memory = self._get_state(msg, acquire=False)
            if state is None:
                return
            if state.local_owner != msg.core:
                raise ProtocolError(
                    f"overflow release of {msg.var.name} by non-owner {msg.core}"
                )
            state.local_owner = None
            self._lock_try_grant_master(state, msg.var, in_memory)
        else:
            self._redirect_overflow(msg, Opcode.LOCK_RELEASE_OVERFLOW)

    def _on_lock_release_global(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=False)
        if state is None:
            return
        if state.owner_se != ("se", msg.src_se):
            raise ProtocolError(
                f"SE {msg.src_se} released lock {msg.var.name} held by "
                f"{state.owner_se}"
            )
        state.owner_se = None
        self._lock_try_grant_master(state, msg.var, in_memory)

    def _on_lock_release_overflow(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=False)
        if state is None:
            return
        if not (state.owner_se and state.owner_se[0] == "ovf"
                and state.owner_se[1] == msg.core):
            raise ProtocolError(
                f"overflow release of {msg.var.name} by core {msg.core}, "
                f"owner is {state.owner_se}"
            )
        state.owner_se = None
        self._lock_try_grant_master(state, msg.var, in_memory)

    # ==================================================================
    # Barriers
    # ==================================================================
    def _on_barrier_wait_within_unit(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return  # redirected
        state.expected = msg.info
        state.arrived += 1
        state.local_waitlist.append(msg.core)
        if state.arrived >= state.expected:
            self._barrier_complete(state, msg.var, in_memory)

    def _on_barrier_wait_across_units(self, msg: Message) -> None:
        total = msg.info
        hierarchical = total >= self.mech.total_clients
        if not hierarchical and not self.is_master(msg.var):
            # One-level communication (Sec. 4.1.2): when fewer cores than the
            # whole system participate, local SEs statelessly re-direct all
            # messages to the Master SE, which coordinates globally.
            self.send_se(
                self.master_of(msg.var), Opcode.BARRIER_WAIT_GLOBAL,
                msg.var, core=msg.core, info=total,
            )
            return
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return  # redirected via the overflow path
        state.expected = total
        state.local_waitlist.append(msg.core)
        state.arrived += 1
        if self.is_master(msg.var):
            state.table_info += 1
            if state.table_info >= total:
                self._barrier_complete(state, msg.var, in_memory)
        else:
            # Two-level: aggregate; one global message per unit (Sec. 3.2).
            if state.arrived >= self.mech.clients_in_unit(self.unit):
                self.send_se(
                    self.master_of(msg.var), Opcode.BARRIER_WAIT_GLOBAL,
                    msg.var, info=(state.arrived, total),
                )

    def _on_barrier_wait_global(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return
        if msg.core is not None:
            # one-level mode: an individual redirected core; info is the
            # barrier's total participant count.
            state.expected = msg.info
            state.global_waitlist.append(("ovf", msg.core, msg.src_se))
            state.table_info += 1
        else:
            count, total = msg.info
            state.expected = total
            state.global_waitlist.append(("se", msg.src_se))
            state.table_info += count
        if state.expected and state.table_info >= state.expected:
            self._barrier_complete(state, msg.var, in_memory)

    def _on_barrier_wait_overflow(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return
        state.overflow_ses.add(msg.src_se)
        if in_memory:
            self._mark_syncronvar_overflow(msg.var, msg.src_se)
        state.expected = msg.info
        state.global_waitlist.append(("ovf", msg.core, msg.src_se))
        state.table_info += 1
        if state.expected and state.table_info >= state.expected:
            self._barrier_complete(state, msg.var, in_memory)

    def _barrier_complete(self, state, var, in_memory: bool) -> None:
        """All participants arrived: notify everyone, then free the state."""
        for core in state.local_waitlist:
            self.send_grant(core)
        state.local_waitlist.clear()
        for item in state.global_waitlist:
            if item[0] == "se":
                self.send_se(item[1], Opcode.BARRIER_DEPART_GLOBAL, var)
            else:
                self.send_se(
                    item[2], Opcode.BARRIER_DEPARTURE_OVERFLOW, var, core=item[1]
                )
        state.global_waitlist.clear()
        state.arrived = 0
        state.expected = 0
        state.table_info = 0
        self._maybe_free_state(state, var, in_memory)

    def _on_barrier_depart_global(self, msg: Message) -> None:
        entry = self.st.lookup(msg.var.addr)
        if entry is None:
            raise ProtocolError(f"barrier departure for unknown {msg.var.name}")
        for core in entry.local_waitlist:
            self.send_grant(core)
        entry.local_waitlist.clear()
        entry.arrived = 0
        entry.expected = 0
        self.st.release_if_idle(entry)

    def _on_barrier_departure_overflow(self, msg: Message) -> None:
        self.send_grant(msg.core)

    # ==================================================================
    # Semaphores
    # ==================================================================
    def _on_sem_wait_local(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True, sem_init=msg.info)
        if state is None:
            return  # redirected
        if self.is_master(msg.var):
            if state.table_info > 0:
                state.table_info -= 1
                self.send_grant(msg.core)
                self._maybe_free_sem(state, msg.var, in_memory)
            else:
                state.local_waitlist.append(msg.core)
        else:
            state.local_waitlist.append(msg.core)
            self.send_se(
                self.master_of(msg.var), Opcode.SEM_WAIT_GLOBAL, msg.var,
                info=msg.info,
            )

    def _on_sem_wait_global(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True, sem_init=msg.info)
        if state is None:
            return
        if state.table_info > 0:
            state.table_info -= 1
            self.send_se(msg.src_se, Opcode.SEM_GRANT_GLOBAL, msg.var)
            self._maybe_free_sem(state, msg.var, in_memory)
        else:
            state.global_waitlist.append(("se", msg.src_se))

    def _on_sem_wait_overflow(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True, sem_init=msg.info)
        if state is None:
            return
        state.overflow_ses.add(msg.src_se)
        if in_memory:
            self._mark_syncronvar_overflow(msg.var, msg.src_se)
        if state.table_info > 0:
            state.table_info -= 1
            self.send_se(msg.src_se, Opcode.SEM_GRANT_OVERFLOW, msg.var, core=msg.core)
            self._maybe_free_sem(state, msg.var, in_memory)
        else:
            state.global_waitlist.append(("ovf", msg.core, msg.src_se))

    def _on_sem_grant_global(self, msg: Message) -> None:
        entry = self.st.lookup(msg.var.addr)
        if entry is None or not entry.local_waitlist:
            raise ProtocolError(f"semaphore grant with no local waiter ({msg.var.name})")
        self.send_grant(entry.local_waitlist.popleft())
        self.st.release_if_idle(entry)

    def _on_sem_grant_overflow(self, msg: Message) -> None:
        self.send_grant(msg.core)

    def _on_sem_post_local(self, msg: Message) -> None:
        if not self.is_master(msg.var):
            self.send_se(self.master_of(msg.var), Opcode.SEM_POST_GLOBAL, msg.var)
            return
        state, in_memory = self._get_state(msg, acquire=False, sem_init=None)
        if state is None:
            return
        self._sem_post_master(state, msg.var, in_memory)

    def _on_sem_post_global(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=False, sem_init=None)
        if state is None:
            return
        self._sem_post_master(state, msg.var, in_memory)

    def _on_sem_post_overflow(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=False, sem_init=None)
        if state is None:
            return
        self._sem_post_master(state, msg.var, in_memory)

    def _sem_post_master(self, state, var, in_memory: bool) -> None:
        if state.local_waitlist:
            self.send_grant(state.local_waitlist.popleft())
        elif state.global_waitlist:
            item = state.global_waitlist.popleft()
            if item[0] == "se":
                self.send_se(item[1], Opcode.SEM_GRANT_GLOBAL, var)
            else:
                self.send_se(item[2], Opcode.SEM_GRANT_OVERFLOW, var, core=item[1])
        else:
            state.table_info += 1
        self._maybe_free_sem(state, var, in_memory)

    def _maybe_free_sem(self, state, var, in_memory: bool) -> None:
        """A semaphore's state is releasable once it is back at its initial
        value with nobody waiting (the count would otherwise be lost)."""
        initial = self.mech.sem_initial.get(var.addr)
        if (
            initial is not None
            and state.table_info == initial
            and not state.local_waitlist
            and not state.global_waitlist
        ):
            state.table_info = 0
            self._maybe_free_state(state, var, in_memory)
        elif in_memory:
            pass  # stays resident in memory until it drains

    # ==================================================================
    # Condition variables
    # ==================================================================
    def _on_cond_wait_local(self, msg: Message) -> None:
        lock_var = msg.info  # the associated lock (Fig. 5 MessageInfo)
        state, in_memory = self._get_state(msg, acquire=True)
        if state is not None:
            state.local_waitlist.append((msg.core, lock_var))
            if not self.is_master(msg.var):
                self.send_se(self.master_of(msg.var), Opcode.COND_WAIT_GLOBAL, msg.var)
        # Whether buffered here or redirected to the Master SE, the caller's
        # lock must be released now (pthread_cond_wait semantics); the
        # enqueue above happens in the same SE service slot, so no signal
        # can slip between enqueue and release.
        self.mech.inject_internal(
            self, Message(Opcode.LOCK_RELEASE_LOCAL, lock_var, core=msg.core))

    def _on_cond_wait_global(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return
        state.global_waitlist.append(("se", msg.src_se))

    def _on_cond_wait_overflow(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return
        state.overflow_ses.add(msg.src_se)
        if in_memory:
            self._mark_syncronvar_overflow(msg.var, msg.src_se)
        state.global_waitlist.append(("ovf", msg.core, msg.src_se, msg.info))

    def _on_cond_signal_local(self, msg: Message) -> None:
        if not self.is_master(msg.var):
            self.send_se(self.master_of(msg.var), Opcode.COND_SIGNAL_GLOBAL, msg.var)
            return
        self._cond_signal_master(msg, wake_all=False)

    def _on_cond_signal_global(self, msg: Message) -> None:
        self._cond_signal_master(msg, wake_all=False)

    def _on_cond_signal_overflow(self, msg: Message) -> None:
        self._cond_signal_master(msg, wake_all=False)

    def _on_cond_broadcast_local(self, msg: Message) -> None:
        if not self.is_master(msg.var):
            self.send_se(self.master_of(msg.var), Opcode.COND_BROAD_GLOBAL, msg.var)
            return
        self._cond_signal_master(msg, wake_all=True)

    def _on_cond_broadcast_global(self, msg: Message) -> None:
        self._cond_signal_master(msg, wake_all=True)

    def _on_cond_broadcast_overflow(self, msg: Message) -> None:
        self._cond_signal_master(msg, wake_all=True)

    def _cond_signal_master(self, msg: Message, wake_all: bool) -> None:
        entry = self.st.lookup(msg.var.addr)
        sv = self.store.lookup(msg.var.addr)
        if entry is None and sv is None:
            return  # no waiters: the signal is lost (POSIX semantics)
        if entry is not None:
            state, in_memory = entry, False
        else:
            state, in_memory = sv.state, True
            self._charge_syncronvar_access(msg.var)
        woken = True
        while woken:
            woken = self._cond_wake_one(state, msg.var)
            if not wake_all:
                break
        self._maybe_free_state(state, msg.var, in_memory)

    def _cond_wake_one(self, state, var) -> bool:
        """Wake one waiter: locals first, then remote SEs (priority as in
        the lock).  Returns False when nobody was waiting."""
        if state.local_waitlist:
            core, lock_var = state.local_waitlist.popleft()
            self.mech.inject_internal(
                self, Message(Opcode.LOCK_ACQUIRE_LOCAL, lock_var, core=core))
            return True
        if state.global_waitlist:
            item = state.global_waitlist.popleft()
            if item[0] == "se":
                self.send_se(item[1], Opcode.COND_GRANT_GLOBAL, var)
            else:
                self.send_se(item[2], Opcode.COND_GRANT_OVERFLOW, var,
                             core=item[1], info=item[3])
            return True
        return False

    def _on_cond_grant_global(self, msg: Message) -> None:
        entry = self.st.lookup(msg.var.addr)
        if entry is None or not entry.local_waitlist:
            raise ProtocolError(f"condvar grant with no local waiter ({msg.var.name})")
        core, lock_var = entry.local_waitlist.popleft()
        self.st.release_if_idle(entry)
        self.mech.inject_internal(
            self, Message(Opcode.LOCK_ACQUIRE_LOCAL, lock_var, core=core))

    def _on_cond_grant_overflow(self, msg: Message) -> None:
        # Re-acquire the associated lock on behalf of the woken core.
        self.mech.inject_internal(
            self, Message(Opcode.LOCK_ACQUIRE_LOCAL, msg.info, core=msg.core))

    # ==================================================================
    # Reader-writer locks (generality extension; cf. LCU in Sec. 4.5)
    # ==================================================================
    # Master-coordinated one-level scheme, like the across-units barrier
    # with a partial participant set (Sec. 4.1.2): local SEs statelessly
    # forward requests to the Master SE, which queues and grants.  State
    # reuses the ST entry: ``table_info`` counts active readers,
    # ``local_owner`` holds the active writer, ``global_waitlist`` is the
    # fair FIFO of ("r"/"w", core) waiters — a writer in line blocks later
    # readers, so writers cannot starve.

    def _rw_forward(self, msg: Message, global_opcode: Opcode) -> None:
        self.send_se(
            self.master_of(msg.var), global_opcode, msg.var,
            core=msg.core, info=msg.info,
        )

    def _on_rw_read_acquire_local(self, msg: Message) -> None:
        if not self.is_master(msg.var):
            self._rw_forward(msg, Opcode.RW_READ_ACQUIRE_GLOBAL)
            return
        self._rw_acquire(msg, write=False)

    def _on_rw_read_acquire_global(self, msg: Message) -> None:
        self._rw_acquire(msg, write=False)

    def _on_rw_write_acquire_local(self, msg: Message) -> None:
        if not self.is_master(msg.var):
            self._rw_forward(msg, Opcode.RW_WRITE_ACQUIRE_GLOBAL)
            return
        self._rw_acquire(msg, write=True)

    def _on_rw_write_acquire_global(self, msg: Message) -> None:
        self._rw_acquire(msg, write=True)

    def _rw_acquire(self, msg: Message, write: bool) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return
        queue = state.global_waitlist
        if write:
            if state.local_owner is None and state.table_info == 0 and not queue:
                state.local_owner = msg.core
                self.send_grant(msg.core)
            else:
                queue.append(("w", msg.core))
        else:
            writer_waiting = any(item[0] == "w" for item in queue)
            if state.local_owner is None and not writer_waiting:
                state.table_info += 1
                self.send_grant(msg.core)
            else:
                queue.append(("r", msg.core))

    def _on_rw_read_release_local(self, msg: Message) -> None:
        if not self.is_master(msg.var):
            self._rw_forward(msg, Opcode.RW_READ_RELEASE_GLOBAL)
            return
        self._rw_read_release(msg)

    def _on_rw_read_release_global(self, msg: Message) -> None:
        self._rw_read_release(msg)

    def _on_rw_write_release_local(self, msg: Message) -> None:
        if not self.is_master(msg.var):
            self._rw_forward(msg, Opcode.RW_WRITE_RELEASE_GLOBAL)
            return
        self._rw_write_release(msg)

    def _on_rw_write_release_global(self, msg: Message) -> None:
        self._rw_write_release(msg)

    def _rw_read_release(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=False)
        if state is None:
            return
        if state.table_info <= 0:
            raise ProtocolError(
                f"read release of {msg.var.name} with no active readers"
            )
        state.table_info -= 1
        self._rw_wake(state, msg.var, in_memory)

    def _rw_write_release(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=False)
        if state is None:
            return
        if state.local_owner != msg.core:
            raise ProtocolError(
                f"write release of {msg.var.name} by core {msg.core}, "
                f"owner is {state.local_owner}"
            )
        state.local_owner = None
        self._rw_wake(state, msg.var, in_memory)

    def _rw_wake(self, state, var, in_memory: bool) -> None:
        """Grant the FIFO head: one writer, or every leading reader."""
        queue = state.global_waitlist
        if state.local_owner is None and queue:
            if queue[0][0] == "w":
                if state.table_info == 0:
                    _kind, core = queue.popleft()
                    state.local_owner = core
                    self.send_grant(core)
            else:
                while queue and queue[0][0] == "r":
                    _kind, core = queue.popleft()
                    state.table_info += 1
                    self.send_grant(core)
        self._rw_maybe_free(state, var, in_memory)

    def _rw_maybe_free(self, state, var, in_memory: bool) -> None:
        """Readers are tracked in ``table_info``, which blocks the generic
        release check by design; free explicitly once truly idle."""
        if state.table_info == 0:
            self._maybe_free_state(state, var, in_memory)

    # ==================================================================
    # Indexing-counter maintenance
    # ==================================================================
    def _on_decrease_indexing_counter(self, msg: Message) -> None:
        self.end_overflow_episode(msg.var.addr)


_HANDLERS = {
    Opcode.LOCK_ACQUIRE_LOCAL: ProtocolMixin._on_lock_acquire_local,
    Opcode.LOCK_ACQUIRE_GLOBAL: ProtocolMixin._on_lock_acquire_global,
    Opcode.LOCK_ACQUIRE_OVERFLOW: ProtocolMixin._on_lock_acquire_overflow,
    Opcode.LOCK_GRANT_GLOBAL: ProtocolMixin._on_lock_grant_global,
    Opcode.LOCK_GRANT_OVERFLOW: ProtocolMixin._on_lock_grant_overflow,
    Opcode.LOCK_RELEASE_LOCAL: ProtocolMixin._on_lock_release_local,
    Opcode.LOCK_RELEASE_GLOBAL: ProtocolMixin._on_lock_release_global,
    Opcode.LOCK_RELEASE_OVERFLOW: ProtocolMixin._on_lock_release_overflow,
    Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT: ProtocolMixin._on_barrier_wait_within_unit,
    Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS: ProtocolMixin._on_barrier_wait_across_units,
    Opcode.BARRIER_WAIT_GLOBAL: ProtocolMixin._on_barrier_wait_global,
    Opcode.BARRIER_WAIT_OVERFLOW: ProtocolMixin._on_barrier_wait_overflow,
    Opcode.BARRIER_DEPART_GLOBAL: ProtocolMixin._on_barrier_depart_global,
    Opcode.BARRIER_DEPARTURE_OVERFLOW: ProtocolMixin._on_barrier_departure_overflow,
    Opcode.SEM_WAIT_LOCAL: ProtocolMixin._on_sem_wait_local,
    Opcode.SEM_WAIT_GLOBAL: ProtocolMixin._on_sem_wait_global,
    Opcode.SEM_WAIT_OVERFLOW: ProtocolMixin._on_sem_wait_overflow,
    Opcode.SEM_GRANT_GLOBAL: ProtocolMixin._on_sem_grant_global,
    Opcode.SEM_GRANT_OVERFLOW: ProtocolMixin._on_sem_grant_overflow,
    Opcode.SEM_POST_LOCAL: ProtocolMixin._on_sem_post_local,
    Opcode.SEM_POST_GLOBAL: ProtocolMixin._on_sem_post_global,
    Opcode.SEM_POST_OVERFLOW: ProtocolMixin._on_sem_post_overflow,
    Opcode.COND_WAIT_LOCAL: ProtocolMixin._on_cond_wait_local,
    Opcode.COND_WAIT_GLOBAL: ProtocolMixin._on_cond_wait_global,
    Opcode.COND_WAIT_OVERFLOW: ProtocolMixin._on_cond_wait_overflow,
    Opcode.COND_SIGNAL_LOCAL: ProtocolMixin._on_cond_signal_local,
    Opcode.COND_SIGNAL_GLOBAL: ProtocolMixin._on_cond_signal_global,
    Opcode.COND_SIGNAL_OVERFLOW: ProtocolMixin._on_cond_signal_overflow,
    Opcode.COND_BROAD_LOCAL: ProtocolMixin._on_cond_broadcast_local,
    Opcode.COND_BROAD_GLOBAL: ProtocolMixin._on_cond_broadcast_global,
    Opcode.COND_BROAD_OVERFLOW: ProtocolMixin._on_cond_broadcast_overflow,
    Opcode.COND_GRANT_GLOBAL: ProtocolMixin._on_cond_grant_global,
    Opcode.COND_GRANT_OVERFLOW: ProtocolMixin._on_cond_grant_overflow,
    Opcode.RW_READ_ACQUIRE_LOCAL: ProtocolMixin._on_rw_read_acquire_local,
    Opcode.RW_READ_ACQUIRE_GLOBAL: ProtocolMixin._on_rw_read_acquire_global,
    Opcode.RW_READ_RELEASE_LOCAL: ProtocolMixin._on_rw_read_release_local,
    Opcode.RW_READ_RELEASE_GLOBAL: ProtocolMixin._on_rw_read_release_global,
    Opcode.RW_WRITE_ACQUIRE_LOCAL: ProtocolMixin._on_rw_write_acquire_local,
    Opcode.RW_WRITE_ACQUIRE_GLOBAL: ProtocolMixin._on_rw_write_acquire_global,
    Opcode.RW_WRITE_RELEASE_LOCAL: ProtocolMixin._on_rw_write_release_local,
    Opcode.RW_WRITE_RELEASE_GLOBAL: ProtocolMixin._on_rw_write_release_global,
    Opcode.DECREASE_INDEXING_COUNTER: ProtocolMixin._on_decrease_indexing_counter,
}
