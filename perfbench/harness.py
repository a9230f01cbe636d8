"""Pieces shared by the benchmark's workloads: loading gwitt from this
checkout, the host-speed gauge, timing each public call as one operation,
spans for the traced run, output checks and digests, and the statistics of
a run."""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Never used while the benchmark or a change was tuned; a later gain claim
# re-runs on it.
HELD_OUT_SEED = 9001

# Candidate percentiles for op_tail_ms, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10

# The host-speed gauge times `reference_kernel` about every GAUGE_EVERY_S
# seconds of work; REFERENCE_KERNEL_S is the kernel's time at reference
# speed, and GAUGE_WINDOW samples open and close each fresh interpreter.
REFERENCE_KERNEL_S = 0.0003
GAUGE_EVERY_S = 0.02
GAUGE_WINDOW = 25


def load_gwitt() -> None:
    """Import gwitt from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import gwitt
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gwitt from {SRC}: {exc}")
    if Path(gwitt.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: gwitt was imported from {gwitt.__file__}, not {SRC}")


def digest(value) -> str:
    """A short stable digest of a value built from ints, strings, tuples,
    lists and dicts with string keys."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Terms of the reference kernel's polynomial: packed exponents i * 64 + j
# and their coefficients.
_KERNEL_EXPS = [i * 64 + j for i in range(6) for j in range(6)]
_KERNEL_COEFFS = [i - 2 * j + 1 for i in range(6) for j in range(6)]


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like gwitt's: the sparse square of a
    bivariate polynomial held as a dict from packed exponents to integer
    coefficients.  It makes no object the collector tracks, so sampling it
    does not move the program's collections."""
    out: dict = {}
    for x in range(len(_KERNEL_EXPS)):
        e, c = _KERNEL_EXPS[x], _KERNEL_COEFFS[x]
        for y in range(len(_KERNEL_EXPS)):
            f = e + _KERNEL_EXPS[y]
            out[f] = out.get(f, 0) + c * _KERNEL_COEFFS[y]
    return len(out)


class SpeedGauge:
    """The host's speed over time, from timings of `reference_kernel`.

    The benchmark shares a virtual machine's cores with other tenants, and
    the host switches between a fast and a slower speed many times a
    second, in proportions that drift over seconds to minutes.  Times are
    reported in reference seconds: measured seconds times REFERENCE_KERNEL_S
    over the kernel's mean time in the same span, so a spell in which the
    host runs everything slower does not show as a slower program.  The
    mean, not the median, follows the proportion of slow time; 5% is
    trimmed from each end against interrupts.  The kernel runs with the
    collector off and outside every timed call.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        self._next = 0.0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                reference_kernel()
                end = time.perf_counter()
            finally:
                if enabled:
                    gc.enable()
            self.at.append(start)
            self.took.append(end - start)
            self.spent += time.perf_counter() - start
            self._next = end + GAUGE_EVERY_S

    def tick(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self, since: int = 0) -> float:
        """Reference seconds per measured second over the samples from
        index `since` on."""
        return scale_of(self.took[since:])

    def scale_near(self, t: float) -> float:
        """Reference seconds per measured second over the GAUGE_WINDOW
        samples nearest to time `t`."""
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - GAUGE_WINDOW // 2, len(self.at) - GAUGE_WINDOW))
        return scale_of(self.took[lo:lo + GAUGE_WINDOW])


def trimmed_mean(values, share: float = 0.05) -> float:
    """Mean of the values without the `share` lowest and highest."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def scale_of(took: list[float]) -> float:
    """Reference seconds per measured second for these kernel timings."""
    return REFERENCE_KERNEL_S / trimmed_mean(took)


GAUGE = SpeedGauge()


def nonzero_ints(rng, bound: int, n: int) -> tuple[int, ...]:
    """n seeded integers from -bound..bound without 0: inputs of the same
    shape for every seed, so the work does not depend on the seed."""
    choices = [v for v in range(-bound, bound + 1) if v]
    return tuple(rng.choice(choices) for _ in range(n))


class OpFailed(Exception):
    """Raised out of `Recorder.call` after the failing operation is counted."""


class Recorder:
    """One round of a workload.

    Every public call made through `call` is one timed operation.  Output
    checks run after the call returns and mark the operation failed through
    `expect`.  With tracing on, each call is also kept as a span (name, op
    index); untraced rounds keep only the latencies.  `close` turns the
    measured latencies into reference seconds with the gauge samples taken
    during the round (see `SpeedGauge`).
    """

    def __init__(self, trace: bool = False, round_id: int = 0):
        self.trace = trace
        self.round_id = round_id
        self.ops: list[list] = []  # [name, seconds, ok, measured seconds]
        self.starts: list[float] = []
        self.gauge_from = len(GAUGE.took)
        self.scale = 1.0
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.digests: dict[str, tuple[str, bool]] = {}  # key -> (digest, seeded)
        self.digest_ops: dict[str, list[int]] = {}
        self.derived: list[tuple] = []  # (name, op index or None, op indices)
        self.problems: list[str] = []
        self.harness_errors: list[str] = []

    @property
    def last(self) -> int:
        return len(self.ops) - 1

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation
            end = time.perf_counter()
            self._record(name, start, end, False)
            self.note(f"{name} raised {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc
        end = time.perf_counter()
        self._record(name, start, end, True)
        return out

    def _record(self, name, start, end, ok):
        if self.trace:
            self.spans.append((name, len(self.ops)))
        self.ops.append([name, end - start, ok, None])
        self.starts.append(start)
        GAUGE.tick()

    def close(self) -> None:
        """Scale the latencies measured in this process to reference
        seconds; call once, at the end of the round."""
        GAUGE.sample()
        self.scale = GAUGE.scale(self.gauge_from)
        for op, start in zip(self.ops, self.starts):
            if op[3] is None:
                op[3] = op[1]
                op[1] *= GAUGE.scale_near(start)

    def expect(self, op_index: int | list[int], condition: bool, what: str):
        if condition:
            return
        for i in ([op_index] if isinstance(op_index, int) else op_index):
            self.ops[i][2] = False
        self.note(f"check failed: {what}")

    def note(self, text: str):
        if len(self.problems) < 20:
            self.problems.append(text)

    def output(self, key: str, value, op_indices: list[int], seeded: bool):
        """Record the digest of an output group for the pin check.  Seeded
        outputs depend on --seed and are pinned only for some seeds."""
        self.digests[key] = (digest(value), seeded)
        self.digest_ops[key] = list(op_indices)

    @contextmanager
    def item(self, label: str):
        """One unit of work; a failed operation skips the rest of the unit."""
        try:
            yield
        except OpFailed:
            pass
        except Exception as exc:  # a fault in the benchmark itself
            self.harness_errors.append(f"{label}: {type(exc).__name__}: {exc}")

    def check_pins(self, fixed: dict[str, str], seeded: dict[str, str] | None):
        """Compare the output digests with the pins; a seed that is not
        pinned has its seeded outputs checked by the identities alone."""
        for key, (value, is_seeded) in self.digests.items():
            pins = seeded if is_seeded else fixed
            if pins is None:
                continue
            want = pins.get(key)
            if want is None:
                self.harness_errors.append(f"no pin for output {key}")
            elif want != value:
                if not self.digest_ops[key]:
                    self.harness_errors.append(f"digest of {key} changed")
                self.expect(self.digest_ops[key], False, f"digest of {key} changed")

    # -- per-round summaries ---------------------------------------------

    def op_seconds(self) -> float:
        return sum(op[1] for op in self.ops)

    def measured_seconds(self) -> float:
        return sum(op[3] for op in self.ops)

    def failed(self) -> int:
        return sum(1 for op in self.ops if not op[2])

    def counters(self) -> dict[str, int]:
        """Exact work counters: operations per kind plus the counts."""
        out = dict(self.counts)
        for name, *_ in self.ops:
            key = f"{name}_calls"
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    def span_ms(self) -> dict[str, float]:
        """Summed milliseconds per span name, plus the derived spans: an
        enumeration-only time (op index None) is the median of its runs, a
        relation's time is its run minus that median."""
        out: dict[str, float] = {}
        for name, i in self.spans:
            out[name] = out.get(name, 0.0) + self.ops[i][1] * 1000.0
        derived: dict[str, float] = {}
        for name, i, baseline in self.derived:
            base = statistics.median(self.ops[j][1] for j in baseline)
            value = base if i is None else self.ops[i][1] - base
            derived[name] = derived.get(name, 0.0) + value * 1000.0
        out.update(derived)
        return out


# -- statistics --------------------------------------------------------------


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th quantile (0 < p < 1): a weighted
    mean of the order statistics with Beta(p(n+1), (1-p)(n+1)) weights.  It
    estimates the same quantile as one order statistic does, but it does
    not jump where the sorted values are far apart."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    total, below = 0.0, 0.0
    for i, v in enumerate(ordered, 1):
        upto = beta_cdf(a, b, i / n)
        total += (upto - below) * v
        below = upto
    return total


def tail_percentile(ops_per_round: int) -> float:
    """The highest candidate percentile that leaves at least ten samples
    beyond it within one round, so the choice does not depend on how many
    rounds fit into the run."""
    for p in TAIL_PERCENTILES:
        if ops_per_round * (1 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def load_pins(workload: str, seed: int) -> tuple[dict, dict | None]:
    """(pins of the seed-independent outputs, pins of the seeded outputs for
    this seed or None when the seed is not pinned)."""
    data = json.loads((HERE / "pins.json").read_text())[workload]
    return data["fixed"], data["seeded"].get(str(seed))
