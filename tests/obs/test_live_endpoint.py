"""One request served by ``Gateway.run_async`` over the ``tcp`` backend
produces a single trace spanning gateway → session → round →
worker-side compute, retrievable *live* from the telemetry endpoint
attached to the gateway."""

import asyncio
import json
import urllib.request

import numpy as np
import pytest

from repro.api import Session, SessionConfig
from repro.coding import SchemeParams
from repro.experiments.common import make_serving_workload
from repro.serve import Gateway, GatewayConfig, OpenLoopSource


def _fetch(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return json.loads(resp.read())


class TestLiveEndpoint:
    def test_tcp_request_trace_served_live(self):
        async def run():
            cfg = SessionConfig(
                scheme=SchemeParams(n=6, k=3, s=1, m=1),
                backend="tcp",
                seed=0,
                batch_window=64,
                observability=True,
                backend_options={"straggle_scale": 0.002},
            )
            with Session.create(cfg) as sess:
                x = sess.field.random((48, 24), np.random.default_rng(0))
                sess.load(x)
                gen, reqs = make_serving_workload(
                    sess.field, (48, 24), n_requests=8
                )
                gateway = Gateway(
                    sess,
                    OpenLoopSource(reqs),
                    GatewayConfig(
                        batch_policy="hybrid",
                        tenant_weights=gen.tenant_weights,
                    ),
                )
                report = await gateway.run_async(telemetry_port=0)
                loop = asyncio.get_running_loop()
                url = gateway.telemetry.url
                try:
                    served = report.served[0]
                    doc = await loop.run_in_executor(
                        None, _fetch, f"{url}/trace/req-{served.request_id}"
                    )
                    names = [s["name"] for s in doc["spans"]]
                    # the full causal chain, one trace, end to end
                    for need in (
                        "request",
                        "gateway.queue",
                        "session",
                        "round",
                        "round.collect",
                        "worker.compute",
                    ):
                        assert need in names, (need, names)
                    metrics = await loop.run_in_executor(
                        None, _fetch, f"{url}/metrics.json"
                    )
                    assert "gateway_requests_total" in metrics
                    assert "wire_bytes_total" in metrics
                finally:
                    await gateway.telemetry.stop()
                return report

        report = asyncio.run(run())
        assert len(report.served) == report.total

    def test_telemetry_port_requires_observability(self):
        async def run():
            cfg = SessionConfig(
                scheme=SchemeParams(n=6, k=3, s=1, m=1),
                backend="sim",
                seed=0,
            )
            with Session.create(cfg) as sess:
                x = sess.field.random((12, 8), np.random.default_rng(0))
                sess.load(x)
                gen, reqs = make_serving_workload(
                    sess.field, (12, 8), n_requests=2
                )
                gateway = Gateway(sess, OpenLoopSource(reqs))
                with pytest.raises(RuntimeError, match="observability"):
                    await gateway.run_async(telemetry_port=0)

        asyncio.run(run())
