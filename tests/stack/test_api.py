"""Tests for the submit/config surface (Request, ServerConfig, SystemConfig)."""

import pickle
from dataclasses import asdict, fields

import numpy as np
import pytest

from repro.errors import PimProgramError
from repro.stack import (
    PimFabric,
    PimServer,
    PimSystem,
    Request,
    ServerConfig,
    SystemConfig,
    request_signature,
)


def rand(shape, seed, scale=0.25):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


class TestRequest:
    def test_frozen(self):
        request = Request("add", a=rand(8, 0), b=rand(8, 1))
        with pytest.raises(AttributeError):
            request.priority = 3

    def test_replace_builds_modified_copy(self):
        request = Request("add", a=rand(8, 0), b=rand(8, 1), priority=1)
        bumped = request.replace(priority=5)
        assert bumped.priority == 5
        assert request.priority == 1
        assert bumped.a is request.a

    def test_validate_accepts_all_ops(self):
        w, x = rand((16, 8), 0), rand(8, 1)
        v = rand(8, 2)
        for request in (
            Request("gemv", weights=w, a=x),
            Request("add", a=v, b=v),
            Request("mul", a=v, b=v),
            Request("relu", a=v),
            Request("bn", a=v, scalars=(1.5, -0.5)),
        ):
            assert request.validate() is request

    def test_validate_rejects_unknown_op(self):
        with pytest.raises(PimProgramError, match="unknown op"):
            Request("matmul", a=rand(8, 0)).validate()

    def test_validate_rejects_missing_operands(self):
        with pytest.raises(PimProgramError, match="gemv needs"):
            Request("gemv", a=rand(8, 0)).validate()
        with pytest.raises(PimProgramError, match="needs an input"):
            Request("relu").validate()
        with pytest.raises(PimProgramError, match="second operand"):
            Request("add", a=rand(8, 0)).validate()

    def test_pickle_round_trip_is_byte_identical(self):
        """The property the fabric depends on: a Request crosses a
        process boundary unchanged."""
        request = Request(
            "gemv", weights=rand((16, 8), 3), a=rand(8, 4),
            arrival_ns=123.0, priority=2, deadline_ns=5_000.0,
            trace_id="req42",
        )
        clone = pickle.loads(pickle.dumps(request))
        assert clone.op == request.op
        assert np.array_equal(clone.weights, request.weights)
        assert np.array_equal(clone.a, request.a)
        assert clone.arrival_ns == request.arrival_ns
        assert clone.priority == request.priority
        assert clone.deadline_ns == request.deadline_ns
        assert clone.trace_id == request.trace_id
        assert clone.signature == request.signature


class TestRequestSignature:
    def test_gemv_keys_on_weight_content_not_identity(self):
        w = rand((16, 8), 0)
        assert (
            Request("gemv", weights=w, a=rand(8, 1)).signature
            == Request("gemv", weights=w.copy(), a=rand(8, 2)).signature
        )

    def test_gemv_different_weights_different_signature(self):
        x = rand(8, 0)
        a = Request("gemv", weights=rand((16, 8), 1), a=x)
        b = Request("gemv", weights=rand((16, 8), 2), a=x)
        assert a.signature != b.signature

    def test_elementwise_keys_on_op_length_scalars(self):
        v, u = rand(8, 0), rand(8, 1)
        assert (
            Request("add", a=v, b=v).signature
            == Request("add", a=u, b=u).signature
        )
        assert (
            Request("add", a=v, b=v).signature
            != Request("mul", a=v, b=v).signature
        )
        assert (
            Request("add", a=v, b=v).signature
            != Request("add", a=rand(16, 2), b=rand(16, 3)).signature
        )
        assert (
            Request("bn", a=v, scalars=(1.0, 0.0)).signature
            != Request("bn", a=v, scalars=(2.0, 0.0)).signature
        )

    def test_signature_survives_pickling(self):
        request = Request("gemv", weights=rand((16, 8), 5), a=rand(8, 6))
        assert (
            pickle.loads(pickle.dumps(request)).signature
            == request.signature
        )

    def test_function_form_matches_property(self):
        w, x = rand((16, 8), 7), rand(8, 8)
        assert (
            request_signature("gemv", a=x, weights=w)
            == Request("gemv", weights=w, a=x).signature
        )


class TestServerConfig:
    def test_frozen_and_picklable(self):
        config = ServerConfig(lanes=4, queue_depth=16)
        with pytest.raises(AttributeError):
            config.lanes = 8
        assert pickle.loads(pickle.dumps(config)) == config

    def test_replace_builds_modified_copy(self):
        config = ServerConfig(lanes=2)
        assert config.replace(lanes=6).lanes == 6
        assert config.lanes == 2


#: Every ServerConfig default, spelled out: a default that moves changes
#: every seeded digest (the ledger's ``sim_digest``, the chaos and replay
#: byte-comparisons), so moving one has to be a deliberate edit here too.
SERVER_DEFAULTS = {
    "lanes": 2,
    "max_batch": 8,
    "scrub_interval": 0,
    "queue_depth": None,
    "admission": "block",
    "seed": 0,
    "reply_timeout_s": 600.0,
    "heartbeat_timeout_s": 30.0,
    "close_timeout_s": 10.0,
    "join_timeout_s": 30.0,
    "max_respawns": 1,
    "hedge": False,
    "transport": "pipe",
    "shm_inline_bytes": 1024,
    "journal_dir": None,
    "journal_sync": False,
}


class TestConfigSurface:
    """One home per knob: the two configs never overlap or grow unseen."""

    def test_field_sets_are_disjoint_and_sized(self):
        system = {f.name for f in fields(SystemConfig)}
        server = {f.name for f in fields(ServerConfig)}
        assert system & server == set()
        assert (len(system), len(server)) == (13, 16)

    def test_hedging_is_refused_by_name(self):
        with pytest.raises(ValueError, match="hedging was removed"):
            ServerConfig(hedge=True)
        with pytest.raises(ValueError, match="hedging was removed"):
            ServerConfig().replace(hedge=True)

    def test_server_defaults_are_concrete_and_pinned(self):
        assert asdict(ServerConfig()) == SERVER_DEFAULTS

    def test_server_runs_the_config_it_was_given(self):
        config = ServerConfig(lanes=1, queue_depth=3, admission="shed", seed=9)
        system = PimSystem(SystemConfig(num_pchs=2, simulate_pchs=1))
        with PimServer(system, config) as server:
            assert server.server_config is config
            assert len(server.lanes) == 1
            handles = [
                server.submit(Request("add", a=rand(256, i), b=rand(256, 9 + i)))
                for i in range(6)
            ]
            profile = server.run()
        # A 3-deep shedding queue keeps the first three simultaneous
        # arrivals and sheds the rest.
        outcomes = [h.outcome.value for h in handles]
        assert outcomes == ["completed"] * 3 + ["rejected"] * 3
        assert profile.rejected == 3
        # Channel sampling is a platform knob: read from the system.
        assert handles[0].report.simulated_pchs == 1

    def test_system_config_pickles_like_server_config(self):
        """Workers receive both by pickle (ServerConfig's round trip is
        ``TestServerConfig.test_frozen_and_picklable``)."""
        config = SystemConfig(num_pchs=2, ecc=True, exec_mode="scalar")
        assert pickle.loads(pickle.dumps(config)) == config


@pytest.mark.parametrize("tier", ["server", "fabric"])
def test_submit_rejects_non_request(tier):
    """Both tiers take a Request and nothing else, and say so up front."""
    config = SystemConfig(num_pchs=2, num_rows=256, simulate_pchs=1)
    if tier == "server":
        target = PimServer(PimSystem(config))
    else:
        target = PimFabric(config, workers=1)
    with target:
        for bad in ("gemv", None, ("gemv", rand(8, 0))):
            with pytest.raises(TypeError, match="takes a Request"):
                target.submit(bad)
