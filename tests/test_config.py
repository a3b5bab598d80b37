"""Tests for configuration objects."""

import pytest

from repro.config import (STEPS_PER_DAY, STEPS_PER_HOUR, OverheadConfig,
                          SchedulerConfig, ServingConfig)
from repro.errors import ConfigError


class TestConstants:
    def test_steps_per_day(self):
        assert STEPS_PER_DAY == 8640  # 10-second steps
        assert STEPS_PER_HOUR == 360


class TestSchedulerConfig:
    def test_defaults(self):
        c = SchedulerConfig()
        assert c.policy == "metropolis"
        assert c.priority
        assert c.dependency.radius_p == 4.0

    def test_with_policy(self):
        c = SchedulerConfig().with_policy("oracle", priority=False)
        assert c.policy == "oracle"
        assert not c.priority

    def test_frozen(self):
        with pytest.raises(Exception):
            SchedulerConfig().policy = "x"


class TestServingConfig:
    def test_defaults(self):
        c = ServingConfig()
        assert c.num_gpus == 1

    def test_num_gpus(self):
        assert ServingConfig(dp=2, tp=4).num_gpus == 8

    def test_validation(self):
        with pytest.raises(ConfigError):
            ServingConfig(dp=0)
        with pytest.raises(ConfigError):
            ServingConfig(tp=0)
        with pytest.raises(ConfigError):
            ServingConfig(kv_memory_fraction=0.0)
        with pytest.raises(ConfigError):
            ServingConfig(kv_memory_fraction=1.5)
        with pytest.raises(ConfigError):
            ServingConfig(max_running_requests=0)


class TestOverheadConfig:
    def test_defaults_small(self):
        o = OverheadConfig()
        assert 0 < o.agent_step < 0.1
        assert o.cluster_commit < o.agent_step
