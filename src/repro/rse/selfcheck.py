"""Self-checking mechanisms of the RSE framework (Section 3.4, Table 2).

A watchdog monitors the transitions on the ``check``/``checkValid`` bits
of every IOQ entry:

* if a 0->1 transition does not occur in ``checkValid`` within the
  watchdog timeout, the module executing that entry's CHECK makes no
  progress, or ``checkValid`` is stuck at 0;
* if freshly allocated CHECK entries repeatedly show ``checkValid`` = 1
  (no 1->0 transition on reuse), ``checkValid`` is stuck at 1;
* a counter per module tracks 0->1 transitions of the ``check`` (error)
  bit; more than a threshold number within the watchdog interval means
  the module is erroneous (false alarm, an error burst, or a stuck-at-1
  ``check`` bit).

When any rule trips, the framework is *decoupled*: it switches to a safe
mode in which its output always lets the pipeline commit (constant
``checkValid``/``check`` = '1'/'0').

The remaining Table 2 scenario — a false negative / ``check`` stuck at 0
— is, as the paper observes, indistinguishable from healthy operation at
this interface: the application simply loses protection.  It is covered
by the fault-injection tests, which verify the absence of false trips.
"""

from collections import deque


class SelfCheckTrip:
    """Record of one self-check activation."""

    __slots__ = ("cycle", "reason", "module_name")

    def __init__(self, cycle, reason, module_name=None):
        self.cycle = cycle
        self.reason = reason
        self.module_name = module_name

    def __repr__(self):
        return "SelfCheckTrip(cycle=%d, %r)" % (self.cycle, self.reason)


class SelfChecker:
    """Watchdog + error-burst monitor driving safe-mode decoupling."""

    def __init__(self, engine, watchdog_timeout=500, error_threshold=8,
                 stuck1_threshold=4, scan_period=16):
        self.engine = engine
        self.watchdog_timeout = watchdog_timeout
        self.error_threshold = error_threshold
        self.stuck1_threshold = stuck1_threshold
        self.scan_period = scan_period
        self.trips = []
        self._stuck1_streak = 0
        self._error_cycles = {}          # module name -> deque of cycles

    # ------------------------------------------------------------ observers

    def observe_alloc(self, entry):
        """Called when a CHECK's IOQ entry is allocated.

        A CHECK entry must start with ``checkValid`` = 0; seeing 1 at
        allocation time means the written 0 never landed (stuck-at-1).
        """
        if entry.effective_check_valid == 1 and entry.valid_set_cycle is None:
            self._stuck1_streak += 1
            if self._stuck1_streak >= self.stuck1_threshold:
                self._trip(entry.alloc_cycle,
                           "checkValid stuck-at-1 (no 1->0 transition)")
        else:
            self._stuck1_streak = 0

    def record_error(self, module, cycle):
        """Called on every 0->1 transition of a check (error) bit."""
        window = self._error_cycles.setdefault(module.name, deque())
        window.append(cycle)
        horizon = cycle - self.watchdog_timeout
        while window and window[0] < horizon:
            window.popleft()
        if len(window) > self.error_threshold:
            self._trip(cycle,
                       "error burst from module (false alarm or check "
                       "bit stuck-at-1)", module.name)

    # ----------------------------------------------------------------- step

    def step(self, cycle):
        """Scan for overdue CHECKs; returns True when the watchdog trips."""
        if self.engine.safe_mode or cycle % self.scan_period:
            return False
        oldest = self.engine.ioq.oldest_pending_check()
        if (oldest is not None
                and cycle - oldest.alloc_cycle > self.watchdog_timeout):
            self._trip(cycle,
                       "no checkValid 0->1 transition within timeout "
                       "(module makes no progress or stuck-at-0)")
            return True
        return False

    def next_event(self, cycle):
        """The scan cycle at which the watchdog trips if no pending CHECK
        completes first, or None while no CHECK is pending."""
        if self.engine.safe_mode:
            return None
        oldest = self.engine.ioq.oldest_pending_check()
        if oldest is None:
            return None
        due = max(cycle, oldest.alloc_cycle + self.watchdog_timeout + 1)
        return -(-due // self.scan_period) * self.scan_period

    # ------------------------------------------------------------- tripping

    def _trip(self, cycle, reason, module_name=None):
        trip = SelfCheckTrip(cycle, reason, module_name)
        self.trips.append(trip)
        self.engine.decouple(reason)
