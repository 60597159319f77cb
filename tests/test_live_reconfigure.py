"""Tests for the §VII live-reconfiguration extension."""

from __future__ import annotations

import pytest

from repro.baselines.ds2 import DS2Tuner
from repro.engines.base import (
    LIVE_SETTLING_MINUTES,
    STABILIZATION_MINUTES,
    EngineError,
)
from repro.engines.flink import FlinkCluster


class LiveFlinkCluster(FlinkCluster):
    """A Flink deployment with ByteDance-style runtime parallelism APIs."""

    supports_live_reconfigure = True


@pytest.fixture
def live_engine(linear_flow):
    engine = LiveFlinkCluster(seed=5)
    deployment = engine.deploy(
        linear_flow, dict.fromkeys(linear_flow.operator_names, 1), {"src": 1e5}
    )
    return engine, deployment


class TestLiveReconfigure:
    def test_live_change_applies_without_restart_cost(self, live_engine):
        engine, deployment = live_engine
        engine.reconfigure(deployment, {"src": 1, "filter": 4, "sink": 2})
        assert deployment.parallelisms["filter"] == 4
        assert deployment.n_reconfigurations == 1
        assert deployment.sim_minutes == pytest.approx(LIVE_SETTLING_MINUTES)

    def test_live_is_cheaper_than_restart(self, live_engine, flink, linear_flow):
        engine, live = live_engine
        stock = flink.deploy(
            linear_flow, dict.fromkeys(linear_flow.operator_names, 1), {"src": 1e5}
        )
        for cluster, deployment in ((engine, live), (flink, stock)):
            cluster.reconfigure(deployment, {"src": 1, "filter": 4, "sink": 2})
        assert stock.sim_minutes == pytest.approx(STABILIZATION_MINUTES)
        assert live.sim_minutes < stock.sim_minutes

    def test_live_change_validated(self, live_engine):
        engine, deployment = live_engine
        with pytest.raises(EngineError):
            engine.reconfigure(deployment, {"src": 1, "filter": 0, "sink": 1})

    def test_measurements_reflect_live_change(self, live_engine):
        engine, deployment = live_engine
        before = engine.measure(deployment)
        engine.reconfigure(deployment, {"src": 1, "filter": 8, "sink": 2})
        after = engine.measure(deployment)
        assert after["filter"].parallelism == 8
        assert before["filter"].parallelism == 1

    def test_the_tuning_loop_rescales_live(self, live_engine):
        engine, deployment = live_engine
        result = DS2Tuner(engine).tune(deployment, {"src": 5e6})
        assert result.n_reconfigurations >= 1
        assert deployment.n_reconfigurations == result.n_reconfigurations
        assert deployment.sim_minutes == pytest.approx(
            result.n_reconfigurations * LIVE_SETTLING_MINUTES
        )
