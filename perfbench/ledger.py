"""Per-layer ledger: times the program's layers from outside.

The ledger wraps public entry points of each ``repro`` module from the
benchmark's own code, so nothing under ``src/`` changes. A wrapper is
installed on the object where the *caller* looks the name up: a class
attribute for methods, and every module binding of a function (``from
repro.ff.linalg import ff_matvec`` in ``runtime/backend.py`` makes a
binding there). :meth:`Ledger.restore` puts every original back.

Accounting is by self time: a wrapped call's duration minus the
durations of the wrapped calls nested inside it, on the same thread.
Self times of all keys therefore add up to the wall time spent inside
the outermost wrapped calls.

Forked worker daemons inherit the patched classes; the ledger switches
itself off in any child process, so daemons run the original code paths
at the cost of one attribute test per call.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

class Ledger:
    """Self times, call counts and counters for wrapped entry points."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        #: inclusive time, for the keys where waiting is the point
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: free-form tallies (bytes, rejections, depths...)
        self.counts: dict[str, float] = defaultdict(float)
        self.on = True
        self._tls = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._off_in_child)

    def _off_in_child(self) -> None:
        self.on = False

    def reset(self) -> None:
        """Zero every accumulator (wrappers stay installed)."""
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self.counts.clear()

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _stack(self) -> list[float]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def timed(
        self,
        key: str,
        fn: Callable,
        pre: Callable | None = None,
        post: Callable | None = None,
    ) -> Callable:
        """Wrap ``fn`` so its self time accrues to ``key``.

        ``pre(args, kwargs)`` runs before the call and its return value
        is handed to ``post(args, kwargs, out, state)`` after it; both
        run outside the timed interval, and their cost is excluded from
        the enclosing call's self time too.
        """
        ledger = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.on:
                return fn(*args, **kwargs)
            stack = ledger._stack()
            t_hook = perf()
            state = pre(args, kwargs) if pre is not None else None
            stack.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                ledger.self_s[key] += dt - child
                ledger.incl_s[key] += dt
                ledger.calls[key] += 1
            if post is not None:
                post(args, kwargs, out, state)
            if stack:
                # the enclosing call sees this call (hooks included) as child time
                stack[-1] += perf() - t_hook
            return out

        return wrapper

    def timed_iter(self, key: str, iter_fn: Callable) -> Callable:
        """Wrap an ``__iter__`` so time spent inside each ``next()`` —
        waiting for the next worker arrival — accrues to ``key``."""
        ledger = self
        perf = time.perf_counter

        @functools.wraps(iter_fn)
        def wrapper(obj) -> Iterator:
            it = iter_fn(obj)
            if not ledger.on:
                yield from it
                return
            try:
                while True:
                    stack = ledger._stack()
                    stack.append(0.0)
                    t0 = perf()
                    done = False
                    try:
                        item = next(it)
                    except StopIteration:
                        done = True
                    finally:
                        dt = perf() - t0
                        child = stack.pop()
                        ledger.self_s[key] += dt - child
                        ledger.incl_s[key] += dt
                        ledger.calls[key] += 1
                        if stack:
                            stack[-1] += dt
                    if done:
                        return
                    yield item
            finally:
                close = getattr(it, "close", None)
                if close is not None:
                    close()

        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def patch_method(self, cls: type, name: str, key: str, **hooks: Any) -> None:
        """Wrap ``cls.name`` (defined on ``cls`` itself)."""
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, self.timed(key, original, **hooks))

    def patch_iter(self, cls: type, key: str) -> None:
        original = cls.__dict__["__iter__"]
        self._patches.append((cls, "__iter__", original))
        cls.__iter__ = self.timed_iter(key, original)

    def patch_function(
        self, fn: Callable, key: str, modules: tuple | None = None, **hooks: Any
    ) -> None:
        """Wrap every binding of ``fn`` in ``modules`` (default: every
        loaded ``repro`` module) — the name as each caller looks it up."""
        wrapped = self.timed(key, fn, **hooks)
        if modules is None:
            modules = tuple(
                m for name, m in list(sys.modules.items())
                if name.startswith("repro") and m is not None
            )
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapped)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# the program's layers
# ----------------------------------------------------------------------
def install(ledger: Ledger) -> None:
    """Wrap the entry points of every layer the workloads exercise."""
    from repro.api.scheduler import RoundScheduler
    from repro.api.session import JobHandle, Session
    from repro.coding.lcc import LagrangeCode
    from repro.core.avcc import AVCCMaster
    from repro.core.base import MatvecMasterBase
    from repro.ff.field import PrimeField
    from repro.ff.lagrange import eval_lagrange_basis
    from repro.ff.linalg import ff_matmul, ff_matvec
    from repro.ml.logistic import DistributedLogisticTrainer
    from repro.obs.audit import AuditLog
    from repro.obs.trace import Tracer
    from repro.runtime.cluster import SimCluster, SimRoundHandle
    from repro.runtime.net import client as net_client
    from repro.runtime.net.client import TcpCluster, TcpRoundHandle
    from repro.serve.gateway import Gateway
    from repro.verify.freivalds import FreivaldsVerifier

    counts = ledger.counts

    # serve ----------------------------------------------------------------
    ledger.patch_method(Gateway, "run", "serve.run")

    def batch_post(args, kwargs, out, state):
        counts["serve.batches"] += 1
        counts["serve.batch_requests"] += len(args[1].requests)

    ledger.patch_method(Gateway, "_dispatch", "serve.dispatch", post=batch_post)

    # api ------------------------------------------------------------------
    for name in ("submit", "flush", "drain", "end_iteration", "load"):
        ledger.patch_method(Session, name, f"api.{name}")
    ledger.patch_method(JobHandle, "outcome", "api.outcome")

    def depth_post(args, kwargs, out, state):
        sched = args[0]
        counts["api.dispatches"] += 1
        counts["api.depth_sum"] += max(1, sched.in_flight)

    ledger.patch_method(RoundScheduler, "submit", "api.schedule", post=depth_post)

    # core -----------------------------------------------------------------
    ledger.patch_method(MatvecMasterBase, "plan_round", "core.plan")
    ledger.patch_method(MatvecMasterBase, "dispatch_plan", "core.dispatch")

    def complete_post(args, kwargs, out, state):
        handle = args[2]
        rr = handle.result()
        arrived = rr.arrived()
        counts["runtime.arrived"] += len(arrived)
        counts["runtime.used"] += len(out[0].record.used_workers)
        if not isinstance(handle, SimRoundHandle):
            # the simulator's compute_time is cost-model (virtual) time
            counts["runtime.worker_compute_s"] += sum(a.compute_time for a in arrived)

    ledger.patch_method(
        MatvecMasterBase, "complete_round", "core.complete", post=complete_post
    )
    ledger.patch_method(AVCCMaster, "setup", "core.setup")
    ledger.patch_method(AVCCMaster, "end_iteration", "core.adapt")
    ledger.patch_iter(SimRoundHandle, "core.collect_wait")
    ledger.patch_iter(TcpRoundHandle, "core.collect_wait")

    # verify ---------------------------------------------------------------
    def check_post(args, kwargs, out, state):
        if not out:
            counts["verify.rejected"] += 1

    ledger.patch_method(FreivaldsVerifier, "check", "verify.check", post=check_post)

    # coding ---------------------------------------------------------------
    ledger.patch_method(LagrangeCode, "encode", "coding.encode")
    ledger.patch_method(LagrangeCode, "decode", "coding.decode")

    # ff (master process only; daemons switch the ledger off) ----------------
    ledger.patch_method(PrimeField, "asarray", "ff.asarray")
    ledger.patch_function(ff_matvec, "ff.matvec")
    ledger.patch_function(ff_matmul, "ff.matmul")
    ledger.patch_function(eval_lagrange_basis, "ff.lagrange")

    # runtime --------------------------------------------------------------
    for cls in (SimCluster, TcpCluster):
        ledger.patch_method(cls, "dispatch_round", "runtime.dispatch")
        ledger.patch_method(cls, "distribute", "runtime.distribute")

    # runtime.net: the frame calls as the tcp master looks them up ----------
    def wire_hooks(direction: str) -> dict[str, Callable]:
        attr = f"bytes_{direction}"

        def pre(args, kwargs):
            # the call's WireCounters argument, read before and after
            c = kwargs.get("counters")
            if c is None:
                c = next((a for a in args[1:] if hasattr(a, attr)), None)
            return (c, getattr(c, attr)) if c is not None else None

        def post(args, kwargs, out, state):
            counts[f"net.frames_{direction}"] += 1
            if state is not None:
                c, before = state
                counts[f"net.bytes_{direction}"] += getattr(c, attr) - before

        return {"pre": pre, "post": post}

    # only the client's bindings: wire.send_frame itself calls send_parts
    only = (net_client,)
    for name in ("send_frame", "send_parts"):
        fn = getattr(net_client, name)
        ledger.patch_function(fn, "net.send", modules=only, **wire_hooks("out"))
    ledger.patch_function(
        net_client.read_frame, "net.recv", modules=only, **wire_hooks("in")
    )

    # obs ------------------------------------------------------------------
    ledger.patch_method(AuditLog, "commit", "obs.audit")

    def arg(args, kwargs, i, name):
        return args[i] if len(args) > i else kwargs[name]

    def round_spans(args, kwargs, out):
        # the size of bridge.round_forest's lowering: round, broadcast,
        # collect, verify, decode, one span per worker plus its sub-spans
        record = arg(args, kwargs, 2, "record")
        subs = arg(args, kwargs, 3, "worker_spans") or {}
        return 5 + sum(1 + len(subs.get(wid) or ()) for wid, _ in record.worker_latencies)

    # spans each write call creates: counted at the call, because the
    # tracer assigns some ids only when its event log drains
    span_counts: dict[str, Callable] = {
        "begin": lambda args, kwargs, out: 1,
        "add": lambda args, kwargs, out: 1,
        "begin_request": lambda args, kwargs, out: 1 if out[0] is None else 2,
        "link_rounds": lambda args, kwargs, out: len(arg(args, kwargs, 1, "contexts")),
        "record_forest": lambda args, kwargs, out: len(arg(args, kwargs, 2, "forest")),
        "record_round": round_spans,
        "end": lambda args, kwargs, out: 0,
        "end_many": lambda args, kwargs, out: 0,
    }

    def spans_post(count: Callable) -> Callable:
        def post(args, kwargs, out, state):
            counts["obs.spans"] += count(args, kwargs, out)

        return post

    for name, count in span_counts.items():
        ledger.patch_method(Tracer, name, "obs.trace", post=spans_post(count))

    # ml -------------------------------------------------------------------
    ledger.patch_method(DistributedLogisticTrainer, "train", "ml.train")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("serve.self_s", "ms/op"),
    ("serve.batches", "count"),
    ("serve.batch_width", "req/batch"),
    ("serve.shed", "count"),
    ("api.submit_s", "ms/op"),
    ("api.flush_s", "ms/op"),
    ("api.result_wait_s", "ms/op"),
    ("api.rounds", "1/op"),
    ("api.inflight_mean", "rounds"),
    ("core.plan_s", "ms/op"),
    ("core.dispatch_s", "ms/op"),
    ("core.complete_s", "ms/op"),
    ("core.collect_wait_s", "ms/op"),
    ("verify.checks", "1/op"),
    ("verify.s", "ms/op"),
    ("verify.rejected", "1/op"),
    ("verify.accept_ratio", "ratio"),
    ("coding.encode_s", "s"),
    ("coding.decode_calls", "1/op"),
    ("coding.decode_s", "ms/op"),
    ("ff.asarray_calls", "1/op"),
    ("ff.asarray_s", "ms/op"),
    ("ff.matvec_s", "ms/op"),
    ("ff.matmul_s", "ms/op"),
    ("ff.lagrange_s", "ms/op"),
    ("runtime.worker_compute_s", "ms/op"),
    ("runtime.used_ratio", "ratio"),
    ("runtime.dispatch_s", "ms/op"),
    ("runtime.distribute_s", "s"),
    ("net.frames_out", "1/op"),
    ("net.bytes_out", "B/op"),
    ("net.send_s", "ms/op"),
    ("net.frames_in", "1/op"),
    ("net.bytes_in", "B/op"),
    ("net.recv_s", "ms/op"),
    ("net.setup_bytes_out", "B"),
    ("obs.audit_commits", "1/op"),
    ("obs.audit_s", "ms/op"),
    ("obs.spans", "1/op"),
    ("obs.trace_s", "ms/op"),
    ("ml.host_s", "ms/op"),
    ("trace.self_share", "frac"),
    ("trace_overhead", "%"),
    ("trace_overhead_ops", "%"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    phase: dict[str, dict[str, float]],
    setup: dict[str, dict[str, float]],
    ops: int,
    *,
    shed: int,
    latency_s: float,
) -> dict[str, float]:
    """Fold the traced segments (plus the traced set-up) into the
    per-layer metrics. Times are per operation unless the unit says
    otherwise; ``trace.*`` entries are filled in by the caller."""
    s, c, n = phase["self_s"], phase["calls"], phase["counts"]

    def per_op_ms(*keys: str) -> float:
        return 1e3 * _ratio(sum(s.get(k, 0.0) for k in keys), ops)

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def per_setup(value: float) -> float:
        # a traced set-up may hold more than one Session.load
        return _ratio(value, setup["calls"].get("api.load", 0))

    checks = c.get("verify.check", 0)
    rejected = n.get("verify.rejected", 0.0)
    out = {
        "serve.self_s": per_op_ms("serve.run", "serve.dispatch"),
        "serve.batches": n.get("serve.batches", 0.0),
        "serve.batch_width": _ratio(
            n.get("serve.batch_requests", 0.0), n.get("serve.batches", 0.0)
        ),
        "serve.shed": float(shed),
        "api.submit_s": per_op_ms("api.submit"),
        "api.flush_s": per_op_ms("api.flush", "api.schedule"),
        # inclusive: the time callers sat blocked for results
        "api.result_wait_s": 1e3 * per_op(
            phase["incl_s"].get("api.outcome", 0.0) + phase["incl_s"].get("api.drain", 0.0)
        ),
        "api.rounds": per_op(c.get("core.complete", 0)),
        "api.inflight_mean": _ratio(
            n.get("api.depth_sum", 0.0), n.get("api.dispatches", 0.0)
        ),
        "core.plan_s": per_op_ms("core.plan"),
        "core.dispatch_s": per_op_ms("core.dispatch"),
        "core.complete_s": per_op_ms("core.complete"),
        "core.collect_wait_s": per_op_ms("core.collect_wait"),
        "verify.checks": per_op(checks),
        "verify.s": per_op_ms("verify.check"),
        "verify.rejected": per_op(rejected),
        "verify.accept_ratio": _ratio(checks - rejected, checks),
        # set-up entries are inclusive: encode's work is its nested kernels
        "coding.encode_s": per_setup(setup["incl_s"].get("coding.encode", 0.0)),
        "coding.decode_calls": per_op(c.get("coding.decode", 0)),
        "coding.decode_s": per_op_ms("coding.decode"),
        "ff.asarray_calls": per_op(c.get("ff.asarray", 0)),
        "ff.asarray_s": per_op_ms("ff.asarray"),
        "ff.matvec_s": per_op_ms("ff.matvec"),
        "ff.matmul_s": per_op_ms("ff.matmul"),
        "ff.lagrange_s": per_op_ms("ff.lagrange"),
        "runtime.worker_compute_s": 1e3 * per_op(n.get("runtime.worker_compute_s", 0.0)),
        "runtime.used_ratio": _ratio(
            n.get("runtime.used", 0.0), n.get("runtime.arrived", 0.0)
        ),
        "runtime.dispatch_s": per_op_ms("runtime.dispatch"),
        "runtime.distribute_s": per_setup(setup["incl_s"].get("runtime.distribute", 0.0)),
        "net.frames_out": per_op(n.get("net.frames_out", 0.0)),
        "net.bytes_out": per_op(n.get("net.bytes_out", 0.0)),
        "net.send_s": per_op_ms("net.send"),
        "net.frames_in": per_op(n.get("net.frames_in", 0.0)),
        "net.bytes_in": per_op(n.get("net.bytes_in", 0.0)),
        "net.recv_s": per_op_ms("net.recv"),
        "net.setup_bytes_out": per_setup(setup["counts"].get("net.bytes_out", 0.0)),
        "obs.audit_commits": per_op(c.get("obs.audit", 0)),
        "obs.audit_s": per_op_ms("obs.audit"),
        "obs.spans": per_op(n.get("obs.spans", 0.0)),
        "obs.trace_s": per_op_ms("obs.trace"),
        "ml.host_s": per_op_ms("ml.train"),
    }
    # the share of the traced operations' summed latency that wrapped
    # self times account for (meaningful for closed loops, where
    # operations do not overlap)
    out["trace.self_share"] = _ratio(sum(s.values()), latency_s)
    return {k: (v if math.isfinite(v) else 0.0) for k, v in out.items()}
