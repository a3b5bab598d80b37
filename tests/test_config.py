"""Tests for configuration objects."""

import pytest

from repro.config import (STEPS_PER_DAY, STEPS_PER_HOUR, FaultPolicy,
                          OverheadConfig, SchedulerConfig, ServingConfig)
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
        assert (c.dp, c.tp) == (1, 1)

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


class TestFaultPolicy:
    def test_defaults_valid(self):
        p = FaultPolicy()
        assert p.max_call_retries >= 0 and p.backoff_factor >= 1.0
        assert p.backoff_base <= p.backoff_max

    @pytest.mark.parametrize("field, bad", [
        ("call_timeout", 0.0),
        ("max_call_retries", -1),
        ("backoff_base", -0.1),
        ("backoff_max", -0.1),
        ("backoff_factor", 0.5),
        ("backoff_jitter", -0.1),
        ("breaker_threshold", 0),
        ("breaker_cooldown", -1.0),
        ("max_redispatches", -1),
        ("watchdog_timeout", 0.0),
        ("worker_join_grace", -1.0),
    ])
    def test_validation(self, field, bad):
        with pytest.raises(ConfigError):
            FaultPolicy(**{field: bad})


class TestOverheadConfig:
    def test_defaults_small(self):
        o = OverheadConfig()
        assert 0 < o.agent_step < 0.1
        assert o.cluster_commit < o.agent_step
