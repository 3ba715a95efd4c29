"""Reference timebase: times are reported as CPU milliseconds at a fixed reference speed.

The benchmark runs on a virtual CPU shared with other tenants.  Two effects
of theirs swamp the program's own variation, and both are removed:

* the host takes the CPU away for tens of milliseconds now and then, which
  wall time counts and process CPU time does not, so a call's time is its
  process CPU time (the program is single-threaded and computes; it does not
  wait on I/O);
* their load slows everything this process runs by a common factor, up to
  2x, for seconds at a time.  So a pass runs `calibrate`, a fixed pure-Python
  task that never touches the program, every CAL_EVERY_S seconds, between
  calls and, from a timer signal, in the middle of long calls (`Clock`).
  A call's CPU time t, less the calibrations run inside it, is reported as
  t * CAL_REF_S / c, where c is the mean CPU time of the calibrations from
  the last one before the call to the first one after it.  A change to the
  program moves t and leaves c alone; the host's speed moves both.

CAL_REF_S is about the calibration's CPU time on an idle 2-vCPU Xeon KVM
guest, so reference times are close to that machine's unloaded times.  Raw
wall times are reported next to them.
"""
import contextlib
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter, process_time

CAL_EVERY_S = 0.2
LONG_CALL_S = 1.0  # calls longer than this are calibrated within, every CAL_EVERY_S
CAL_REF_S = 0.0035  # calibration time that defines the reference speed


def calibrate() -> float:
    """CPU seconds taken by a fixed task mixing exact fractions, dict updates and float formatting."""
    from fractions import Fraction

    t0 = process_time()
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k, k + 7) * Fraction(3, k)
    counts: dict[int, int] = {}
    for k in range(6000):
        counts[k % 97] = counts.get(k % 97, 0) + k
    text = ",".join(f"{k:04d}:{k * 2.5!r}" for k in range(1500))
    if acc <= 0 or len(counts) != 97 or not text:
        raise AssertionError("calibration task computed nothing")
    return process_time() - t0


def reference_ms(seconds: float, cal_s: float) -> float:
    return 1e3 * seconds * CAL_REF_S / cal_s


class Clock:
    """Calibration samples taken between calls and, in calls longer than LONG_CALL_S, within them.

    Between calls a calibration runs once CAL_EVERY_S seconds have passed
    since the last one.  `timing` arms a wall-clock timer for the length of
    one call that first fires after LONG_CALL_S: a calibration inside a
    call disturbs the caches the call works in, which matters less the
    longer the call.  (A CPU-time timer, ITIMER_PROF, would make the kernel
    account process CPU time only at each 4 ms tick.)
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (process time at start, calibration CPU s)
        self.spent_cpu = 0.0   # CPU and wall seconds spent calibrating
        self.spent_wall = 0.0
        self._last = 0.0

    def _tick(self, *_) -> None:
        w0, t0 = perf_counter(), process_time()
        cal = calibrate()
        self.samples.append((t0, cal))
        self.spent_cpu += process_time() - t0
        self._last = perf_counter()
        self.spent_wall += self._last - w0

    def __enter__(self) -> "Clock":
        self._tick()  # also imports what calibrate needs before any signal arrives
        signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    @contextlib.contextmanager
    def timing(self):
        """Wrap one call: calibrate first if one is due, and within the call once it runs long."""
        if perf_counter() - self._last >= CAL_EVERY_S:
            self._tick()
        signal.setitimer(signal.ITIMER_REAL, LONG_CALL_S, CAL_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def reference_ms(self, start: float, end: float, cpu: float) -> float:
        """Reference ms of `cpu` seconds spent between process times start and end (after __exit__)."""
        times = [t for t, _ in self.samples]
        first = max(bisect_right(times, start) - 1, 0)
        last = bisect_left(times, end)
        return reference_ms(cpu, statistics.fmean(c for _, c in self.samples[first:last + 1]))
