"""The three benchmark workloads.

Each workload makes its own inputs from the seed, stands the program up
through ``Session.create`` + ``load`` (the timed set-up), drives it in
one process for a fixed wall time, records per-operation latency at the
calls it makes into the program, and checks every output against the
benchmark's own field arithmetic.

* ``train_gisette`` — distributed logistic regression at GISETTE shape
  over a 12-daemon tcp loopback fleet (the paper's application).
* ``serve_batched`` — the serving gateway at saturation over tcp, with
  4 rounds in flight, tracing and audit on.
* ``rounds_sim`` — one closed-loop client, one small matvec per round,
  on the simulator: the master's per-round path alone.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: the paper's 25-bit prime (Sec. V)
PRIME = 2**25 - 39
N_WORKERS, K, S, M = 12, 9, 1, 1

#: per workload and size: shapes and loop constants
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "train_gisette": {
        "full": {"shape": (6000, 5000), "iterations": 4, "setups": 5},
        "tiny": {"shape": (240, 90), "iterations": 2, "setups": 1},
    },
    "serve_batched": {
        "full": {"shape": (240, 120), "chunk": 3000, "setups": 25},
        "tiny": {"shape": (36, 18), "chunk": 96, "setups": 1},
    },
    "rounds_sim": {
        "full": {"shape": (240, 120), "setups": 15},
        "tiny": {"shape": (36, 18), "setups": 1},
    },
}

#: operand pool size for the serving workloads (results are checked
#: against one reference product per pooled operand)
POOL = 256


def ref_matvec(x: np.ndarray, w: np.ndarray, q: int = PRIME) -> np.ndarray:
    """``x @ w mod q`` in plain int64, for operands small enough that no
    partial sum overflows (asserted)."""
    x = np.asarray(x, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64) % q
    bound = int(x.max(initial=0)) * int(w.max(initial=0)) * x.shape[-1]
    if bound >= 2**63:
        raise OverflowError(f"reference product bound {bound} exceeds int64")
    return (x @ w) % q


def ref_rmatvec(x: np.ndarray, e: np.ndarray, q: int = PRIME) -> np.ndarray:
    """``x.T @ e mod q`` (computed as ``e @ x``, no transpose copy)."""
    x = np.asarray(x, dtype=np.int64)
    e = np.asarray(e, dtype=np.int64) % q
    bound = int(x.max(initial=0)) * int(e.max(initial=0)) * x.shape[0]
    if bound >= 2**63:
        raise OverflowError(f"reference product bound {bound} exceeds int64")
    return (e @ x) % q


def digest(arr: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=8).hexdigest()


def fleet(seed: int, byzantine_probability: float) -> tuple[tuple, dict[str, int]]:
    """Worker specs: one 5x straggler and one reversed-value Byzantine
    worker, at seed-chosen ids.

    The Byzantine id is drawn from the first nine: rounds dispatch and
    (on the simulator, whose honest workers tie) arrive in id order, so
    its result is always among the first ten and every round checks and
    rejects it — the per-round work does not depend on the seed."""
    from repro.api import WorkerSpec

    rng = np.random.default_rng([seed, 1])
    byz = int(rng.integers(0, K))
    slow = int(rng.choice([i for i in range(N_WORKERS) if i != byz]))
    specs = [WorkerSpec() for _ in range(N_WORKERS)]
    specs[slow] = WorkerSpec(straggler_factor=5.0)
    specs[byz] = WorkerSpec(
        behavior="reverse", attack_value=7, probability=byzantine_probability
    )
    return tuple(specs), {"straggler": slow, "byzantine": byz}


@dataclass
class Phase:
    """What one measured stretch of a workload produced."""

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    shed: int = 0


class Workload:
    """Common set-up, timing and checking skeleton."""

    name = ""

    def __init__(self, seed: int, size: str, corrupt: int = 0) -> None:
        self.seed = seed
        self.size = SIZES[self.name][size]
        #: results to corrupt before checking (the self-test's proof
        #: that a wrong output is counted as a failure)
        self.corrupt = corrupt
        self.session: Any = None
        self.info: dict[str, Any] = {}

    # -- inputs and set-up ---------------------------------------------------
    def config(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def matrix(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def setup(self, reps: int) -> list[float]:
        """``Session.create`` + ``load``, ``reps`` times; the last
        session stays up. Returns each set-up's wall seconds."""
        from repro.api import Session

        cfg, x = self.config(), self.matrix()
        times = []
        for i in range(reps):
            self.close()
            gc.collect()
            t0 = time.perf_counter()
            sess = Session.create(cfg)
            try:
                sess.load(x)
            except BaseException:
                sess.close(flush=False)
                raise
            times.append(time.perf_counter() - t0)
            # the workload holds the only reference, so the next
            # iteration's close() frees this session before building anew
            self.session = sess
            del sess
        return times

    def prepare(self) -> None:
        """Untimed work between set-up and measurement (warm-up)."""

    def close(self) -> None:
        if self.session is not None:
            sess, self.session = self.session, None
            sess.close()

    # -- measurement ----------------------------------------------------------
    def measure(self, seconds: float) -> Phase:  # pragma: no cover - abstract
        raise NotImplementedError

    def check(self) -> int:
        """Compare every recorded output with the reference; returns the
        number of operations whose output was wrong."""
        return 0

    def _corrupt(self, arr: np.ndarray) -> np.ndarray:
        if self.corrupt > 0:
            self.corrupt -= 1
            arr = np.array(arr, copy=True)
            arr.flat[0] = (int(arr.flat[0]) + 1) % PRIME
        return arr


# ----------------------------------------------------------------------
# train_gisette
# ----------------------------------------------------------------------
class TrainGisette(Workload):
    """Closed-loop logistic-regression training: two data-dependent
    coded rounds per iteration, one operation per iteration.

    The dataset is one fixed draw (GISETTE is a fixed dataset), so
    accuracy and final weights repeat exactly for every seed; the seed
    places the straggler and the Byzantine worker and seeds the
    session (verification keys)."""

    name = "train_gisette"
    DATA_SEED = 2022

    def __init__(self, seed: int, size: str, corrupt: int = 0) -> None:
        super().__init__(seed, size, corrupt)
        from repro.ml.datasets import make_gisette_like

        m, d = self.size["shape"]
        self.dataset = make_gisette_like(m, d, rng=np.random.default_rng(self.DATA_SEED))
        self.specs, self.info["fleet"] = fleet(seed, byzantine_probability=0.5)
        self.info["dataset_digest"] = digest(self.dataset.x_train)
        #: per recorded iteration: its rounds' (operand, transpose, handle)
        self._iterations: list[list[tuple[np.ndarray, bool, Any]]] = []
        self._episodes: list[tuple[str, float]] = []
        self._calls: list[tuple[float, Any, Any]] = []

    def config(self):
        from repro.api import SessionConfig
        from repro.coding import SchemeParams

        return SessionConfig(
            scheme=SchemeParams(n=N_WORKERS, k=K, s=S, m=M),
            backend="tcp",
            prime=PRIME,
            seed=self.seed,
            workers=self.specs,
            backend_options={"straggle_scale": 0.05},
        )

    def matrix(self) -> np.ndarray:
        return self.dataset.x_train

    def prepare(self) -> None:
        from repro.ml.logistic import DistributedLogisticTrainer, LogisticConfig

        sess, cls = self.session, type(self.session)
        calls = self._calls

        def submit(request):
            t = time.perf_counter()
            handle = cls.submit(sess, request)
            calls.append((t, request, handle))
            return handle

        sess.submit = submit
        self.trainer = DistributedLogisticTrainer(
            sess,
            self.dataset,
            LogisticConfig(iterations=self.size["iterations"], l_w=5),
        )
        # warm up until the Byzantine worker has been caught and dropped,
        # so every timed iteration runs the same 11-worker fleet
        byz = self.info["fleet"]["byzantine"]
        for _ in range(4):
            self._episode(record=False)
            if byz in sess.backend.membership().dropped:
                break
        self.info["byzantine_dropped_in_warmup"] = (
            byz in sess.backend.membership().dropped
        )

    def _episode(self, record: bool) -> tuple[list[float], int]:
        """One ``train()`` call; returns per-iteration latencies and the
        number of iterations it failed to complete."""
        self._calls.clear()
        n_iter = self.size["iterations"]
        t0 = time.perf_counter()
        try:
            history = self.trainer.train()
        except Exception as exc:  # counted, reported, and the run stops
            self.info.setdefault("errors", []).append(repr(exc))
            return [], n_iter
        t1 = time.perf_counter()
        # iteration i runs from its round-1 submit to the next one's; the
        # first from entering train(), the last to its return
        starts = [t for t, req, _ in self._calls if not req.transpose]
        lats = list(np.diff([t0] + starts[1:] + [t1]))
        if record:
            for _, req, h in self._calls:
                if not req.transpose:  # round 1 opens an iteration
                    self._iterations.append([])
                self._iterations[-1].append((np.asarray(req.operand), bool(req.transpose), h))
            self._episodes.append(
                (digest(self.trainer.final_weights), float(history.test_acc[-1]))
            )
        return lats, n_iter - len(starts)

    def measure(self, seconds: float) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            t0 = time.perf_counter()
            lats, missing = self._episode(record=True)
            dt = time.perf_counter() - t0
            phase.wall_s += dt
            phase.attempted += self.size["iterations"]
            phase.failed += missing
            phase.ops += len(lats)
            phase.latencies_s.extend(lats)
            if missing:
                break
        return phase

    def check(self) -> int:
        """Every recorded iteration's decoded ``z = X w`` and ``g = X^T
        e`` against direct products; an iteration with any wrong round
        is one failed operation."""
        x = self.dataset.x_train
        wrong = 0
        for rounds in self._iterations:
            ok = True
            for operand, transpose, handle in rounds:
                try:
                    got = self._corrupt(handle.result())
                except Exception:
                    ok = False
                    continue
                ref = ref_rmatvec(x, operand) if transpose else ref_matvec(x, operand)
                ok = ok and np.array_equal(got, ref)
            wrong += not ok
        self._iterations.clear()
        # every episode starts from zero weights on the same data:
        # final weights and accuracy must repeat exactly
        first = self._episodes[0] if self._episodes else None
        diverged = sum(1 for ep in self._episodes if ep != first)
        self.info["final_weights_digest"] = first[0] if first else None
        self.info["test_acc"] = first[1] if first else None
        self.info["episodes"] = len(self._episodes)
        return wrong + diverged * self.size["iterations"]


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
class _Served(Workload):
    """A served 0..q-1 matrix and pools of request operands with their
    reference products."""

    def __init__(self, seed: int, size: str, corrupt: int = 0) -> None:
        super().__init__(seed, size, corrupt)
        m, d = self.size["shape"]
        rng = np.random.default_rng([seed, 2])
        self.x = rng.integers(0, PRIME, size=(m, d), dtype=np.int64)
        self.fwd_pool = rng.integers(0, PRIME, size=(POOL, d), dtype=np.int64)
        self.bwd_pool = rng.integers(0, PRIME, size=(POOL, m), dtype=np.int64)
        self.fwd_ref = np.stack([ref_matvec(self.x, w) for w in self.fwd_pool])
        self.bwd_ref = np.stack([ref_rmatvec(self.x, e) for e in self.bwd_pool])
        self.specs, self.info["fleet"] = fleet(seed, byzantine_probability=1.0)
        self._wrong = 0

    def matrix(self) -> np.ndarray:
        return self.x

    def _verify(self, idx: int, transpose: bool, got: np.ndarray) -> None:
        ref = self.bwd_ref[idx] if transpose else self.fwd_ref[idx]
        if not np.array_equal(self._corrupt(got), ref):
            self._wrong += 1

    def check(self) -> int:
        wrong, self._wrong = self._wrong, 0
        return wrong


def _pin(cpus: list[int], i: int) -> None:
    """Move this process to the ``i``-th of ``cpus``, round robin."""
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})


class RoundsSim(_Served):
    """One closed-loop client, one unbatched matvec per round, on the
    simulator: plan, verify, decode and the field kernels, no sockets."""

    name = "rounds_sim"
    #: rounds between moves of the loop to the next CPU. On a shared
    #: host one CPU can run up to 1.7x slower than another for seconds
    #: at a time; a single-threaded loop left on one CPU samples only
    #: that CPU, so runs would differ by which CPU they landed on.
    #: The simulator runs in this process alone, so set-up is timed on
    #: every CPU too: each sample is the mean of one set-up per CPU.
    ROTATE = 64

    def setup(self, reps: int) -> list[float]:
        cpus = sorted(os.sched_getaffinity(0))
        times = []
        try:
            for _ in range(reps):
                per_cpu = []
                for i in range(len(cpus)):
                    _pin(cpus, i)
                    per_cpu += super().setup(1)
                times.append(sum(per_cpu) / len(per_cpu))
        finally:
            os.sched_setaffinity(0, cpus)
        return times

    def config(self):
        from repro.api import SessionConfig
        from repro.coding import SchemeParams

        return SessionConfig(
            scheme=SchemeParams(n=N_WORKERS, k=K, s=S, m=M),
            backend="sim",
            prime=PRIME,
            seed=self.seed,
            workers=self.specs,
        )

    def measure(self, seconds: float) -> Phase:
        from repro.api import JobRequest

        sess = self.session
        pool = self.fwd_pool
        order = np.random.default_rng([self.seed, 3]).integers(0, POOL, size=1 << 16)
        phase = Phase()
        perf = time.perf_counter
        lats = phase.latencies_s
        served_idx: list[int] = []
        served: list[np.ndarray] = []
        cpus = sorted(os.sched_getaffinity(0))
        t_start = perf()
        deadline = t_start + seconds
        i = 0
        try:
            while perf() < deadline:
                if i % self.ROTATE == 0:
                    _pin(cpus, i // self.ROTATE)
                idx = int(order[i % order.size])
                i += 1
                phase.attempted += 1
                t0 = perf()
                try:
                    z = sess.submit(JobRequest(family="matvec", operand=pool[idx])).result()
                except Exception as exc:
                    phase.failed += 1
                    self.info.setdefault("errors", []).append(repr(exc))
                    break
                t1 = perf()
                lats.append(t1 - t0)
                served_idx.append(idx)
                served.append(z)
        finally:
            os.sched_setaffinity(0, cpus)
        phase.wall_s = perf() - t_start
        phase.ops = len(lats)
        for idx, z in zip(served_idx, served):
            self._verify(idx, False, z)
        return phase


class _LatencyProbe:
    """Caller-visible latency of every request the gateway hands the
    session: from its ``submit`` call to the return of the first
    session call (``flush``/``drain``) after which its handle is done.
    Installed on the session instance; the class methods are looked up
    at call time, so per-layer wrappers on them still apply."""

    def __init__(self, sess) -> None:
        cls = type(sess)
        perf = time.perf_counter
        self.latencies: list[float] = []
        cur: list[tuple[float, Any]] = []
        batches: deque[list[tuple[float, Any]]] = deque()
        lats = self.latencies

        def harvest() -> None:
            now = perf()
            while batches and batches[0][-1][1].done():
                lats.extend(now - t for t, _ in batches.popleft())

        def submit(request):
            t = perf()
            handle = cls.submit(sess, request)
            cur.append((t, handle))
            return handle

        def flush(family=None):
            cls.flush(sess, family)
            if cur:
                batches.append(list(cur))
                cur.clear()
            harvest()

        def drain():
            cls.drain(sess)
            harvest()

        sess.submit, sess.flush, sess.drain = submit, flush, drain


class ServeBatched(_Served):
    """The gateway at saturation: two tenants' Poisson trace, faster
    than the fleet serves it, through the ``hybrid`` batcher (window
    16) over tcp, 4 rounds in flight, tracing and audit on."""

    name = "serve_batched"
    RATE = 20000.0  # offered requests/s of trace time, far above capacity
    #: the repo's standard serving mix (``make_serving_workload`` in
    #: ``repro/experiments/common.py``): tenant weights are both the
    #: share of traffic and the fair-queue weights, and 30% of the
    #: ``free`` tenant's requests are transposed
    TENANTS = {"free": 1.0, "pro": 3.0}
    TRANSPOSE_FRACTION = 0.3
    #: sizes the trace: ``--seconds`` of serving at this rate (about what
    #: 2 cores sustain). A fixed trace length, rather than a time limit,
    #: keeps the number of the tracer's periodic inline log drains (one
    #: per 65,536 span events, about 20.5k requests here) the same in
    #: every run, so their cost shows the same way each time.
    NOMINAL_RATE = 2400.0

    def config(self):
        from repro.api import SessionConfig
        from repro.coding import SchemeParams

        return SessionConfig(
            scheme=SchemeParams(n=N_WORKERS, k=K, s=S, m=M),
            backend="tcp",
            prime=PRIME,
            seed=self.seed,
            workers=self.specs,
            batch_window=64,
            max_inflight_rounds=4,
            observability=True,
            audit=True,
            backend_options={"straggle_scale": 0.002},
        )

    def prepare(self) -> None:
        self.probe = _LatencyProbe(self.session)
        self._chunk = 0

    def _requests(self) -> tuple[list, dict[int, tuple[int, bool]]]:
        """The next chunk of the seeded trace."""
        from repro.serve.workload import Request

        n = self.size["chunk"]
        rng = np.random.default_rng([self.seed, 4, self._chunk])
        base = self._chunk * n
        self._chunk += 1
        arrivals = np.cumsum(rng.exponential(1.0 / self.RATE, size=n))
        # drawn by weight, as ``WorkloadGenerator`` does
        free = rng.random(n) < self.TENANTS["free"] / sum(self.TENANTS.values())
        transpose = (rng.random(n) < self.TRANSPOSE_FRACTION) & free
        idx = rng.integers(0, POOL, size=n)
        reqs, meta = [], {}
        for j in range(n):
            t = bool(transpose[j])
            k = int(idx[j])
            rid = base + j
            reqs.append(
                Request(
                    request_id=rid,
                    tenant="free" if free[j] else "pro",
                    family="matvec",
                    arrival=float(arrivals[j]),
                    operand=self.bwd_pool[k] if t else self.fwd_pool[k],
                    transpose=t,
                )
            )
            meta[rid] = (k, t)
        return reqs, meta

    def measure(self, seconds: float) -> Phase:
        """Serve ``seconds * NOMINAL_RATE`` requests (whole chunks), one
        fresh gateway per chunk over the same session; results are
        checked between chunks, off the clock."""
        from repro.serve import Gateway, GatewayConfig, OpenLoopSource

        phase = Phase()
        chunk = self.size["chunk"]
        gw_cfg = GatewayConfig(
            batch_policy="hybrid",
            policy_options={"window": 16},
            max_batch=16,
            queue_depth=chunk,
            tenant_weights=self.TENANTS,
        )
        probe = self.probe
        mark = len(probe.latencies)
        for _ in range(max(1, round(seconds * self.NOMINAL_RATE / chunk))):
            reqs, meta = self._requests()
            gateway = Gateway(self.session, OpenLoopSource(reqs), gw_cfg)
            phase.attempted += len(reqs)
            t0 = time.perf_counter()
            try:
                report = gateway.run()
            except Exception as exc:
                phase.wall_s += time.perf_counter() - t0
                phase.failed += len(reqs)
                self.info.setdefault("errors", []).append(repr(exc))
                break
            dt = time.perf_counter() - t0
            phase.wall_s += dt
            phase.shed += report.shed
            served = 0
            for rid, (k, t) in meta.items():
                got = gateway.results.get(rid)
                if got is None:  # shed or lost: a failed request
                    phase.failed += 1
                    continue
                served += 1
                self._verify(k, t, got)
            phase.ops += served
        phase.latencies_s = probe.latencies[mark:]
        return phase


WORKLOADS = {w.name: w for w in (TrainGisette, ServeBatched, RoundsSim)}


#: the standard percentiles the tail is chosen from
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)


def percentile_tail(values: list[float]) -> tuple[float, float, int]:
    """The highest standard percentile (p50, p90, p99, p99.9, ...) with
    at least ten samples beyond it. Returns ``(value, percentile,
    samples)``; the value is the order statistic at that percentile
    (no interpolation)."""
    n = len(values)
    if n == 0:
        return math.nan, math.nan, 0
    ordered = sorted(values)
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    idx = min(n - 1, max(0, math.ceil(n * best / 100.0) - 1))
    return ordered[idx], best, n
