"""Tests for the TEE attestation providers (§8.1 baselines)."""

import pytest

from repro.core.attestation import AttestedMessage, ContinuityError, MacMismatchError
from repro.sim import DeterministicRng, Simulator
from repro.sim import latency as cal
from repro.tee import make_provider
from repro.tee.providers import PROVIDER_FACTORIES
from repro.tee.sgx_memory import EnclaveMemoryModel

KEY = b"k" * 32


def attested(sim, provider, session_id, payload):
    """*provider*'s attest of *payload* as an event: the step succeeds it."""
    done = sim.event()
    provider.attest(session_id, payload, done.succeed)
    return done


def verified(sim, provider, session_id, message):
    """*provider*'s verify of *message* as an event that succeeds with
    the payload or fails with the check's error."""
    done = sim.event()

    def step(payload, error):
        if error is not None:
            done.fail(error)
        else:
            done.succeed(payload)

    provider.verify(session_id, message, step)
    return done


def paired(name, **kwargs):
    sim = Simulator()
    a = make_provider(name, sim, device_id=1, **kwargs)
    b = make_provider(name, sim, device_id=2, **kwargs)
    a.install_session(1, KEY)
    b.install_session(1, KEY)
    return sim, a, b


@pytest.mark.parametrize("name", sorted(PROVIDER_FACTORIES))
def test_all_providers_attest_and_verify(name):
    sim, a, b = paired(name)

    def run():
        msg = yield attested(sim, a, 1, b"payload")
        payload = yield verified(sim, b, 1, msg)
        return msg, payload

    msg, payload = sim.run(sim.process(run()))
    assert payload == b"payload"
    assert msg.counter == 0
    assert sim.now > 0


@pytest.mark.parametrize("name", sorted(PROVIDER_FACTORIES))
def test_all_providers_reject_forgery(name):
    sim, a, b = paired(name)

    def run():
        msg = yield attested(sim, a, 1, b"payload")
        forged = AttestedMessage(
            payload=b"evil", alpha=msg.alpha, session_id=1,
            device_id=msg.device_id, counter=msg.counter,
        )
        try:
            yield verified(sim, b, 1, forged)
        except MacMismatchError:
            return "rejected"
        return "accepted"

    assert sim.run(sim.process(run())) == "rejected"


def test_provider_replay_rejected():
    sim, a, b = paired("tnic")

    def run():
        msg = yield attested(sim, a, 1, b"m")
        yield verified(sim, b, 1, msg)
        try:
            yield verified(sim, b, 1, msg)
        except ContinuityError:
            return "rejected"
        return "accepted"

    assert sim.run(sim.process(run())) == "rejected"


def test_provider_verify_failure_reaches_the_step():
    sim = Simulator()
    provider = make_provider("tnic", sim, 1)
    provider.install_session(1, b"k" * 32)
    genuine = provider.kernel.attest(1, b"data")
    forged = AttestedMessage(
        payload=b"evil", alpha=genuine.alpha, session_id=1,
        device_id=genuine.device_id, counter=genuine.counter,
    )
    outcomes = []
    provider.verify(1, forged, lambda *outcome: outcomes.append(outcome))
    sim.run()
    [(payload, error)] = outcomes
    assert payload is None and isinstance(error, MacMismatchError)


def test_latency_ordering_matches_paper():
    """Fig 5: TNIC beats TEEs by >= 2x, is ~1.2x faster than AMD native,
    and SSL-lib is fastest."""
    sim = Simulator()
    means = {}
    for name, kwargs in [
        ("ssl-lib", {}),
        ("ssl-server", {"arch": "intel"}),
        ("sgx", {}),
        ("amd-sev", {}),
        ("tnic", {"synchronous": True}),
    ]:
        provider = make_provider(name, sim, 1, seed=3, **kwargs)
        samples = [provider.attest_latency_us(64) for _ in range(500)]
        means[name] = sum(samples) / len(samples)
    amd_native = make_provider("ssl-server", sim, 1, seed=3, arch="amd")
    means["ssl-server-amd"] = sum(
        amd_native.attest_latency_us(64) for _ in range(500)
    ) / 500

    assert means["ssl-lib"] < means["ssl-server"] < means["tnic"]
    assert means["sgx"] >= 2.0 * means["tnic"] * 0.9
    assert means["amd-sev"] >= 2.0 * means["tnic"] * 0.9
    # "TNIC is approximately 1.2x faster than AMD"
    assert means["ssl-server-amd"] / means["tnic"] == pytest.approx(1.2, rel=0.1)
    # TNIC synchronous attest is ~23us.
    assert means["tnic"] == pytest.approx(cal.TNIC_ATTEST_SYNC_US, rel=0.1)


def test_sgx_exhibits_latency_spikes():
    """Fig 7: the HMAC inside the TEE shows 200-500us spikes; the
    empty-body control does not."""
    sim = Simulator()
    sgx = make_provider("sgx", sim, 1, seed=1)
    empty = make_provider("sgx", sim, 1, seed=1, empty_body=True)
    samples = [sgx.attest_latency_us(64) for _ in range(2000)]
    empty_samples = [empty.attest_latency_us(64) for _ in range(2000)]
    assert max(samples) > 200.0
    assert max(empty_samples) < 100.0
    spike_share = sum(1 for s in samples if s > 150) / len(samples)
    assert 0.005 < spike_share < 0.10


def test_sev_lower_bound_mode_is_deterministic_30us():
    sim = Simulator()
    sev = make_provider("amd-sev", sim, 1, lower_bound=True)
    assert sev.attest_latency_us(0) == cal.AMD_SEV_ATTEST_LOWER_US


def test_tnic_async_attest_is_about_6us():
    sim = Simulator()
    tnic = make_provider("tnic", sim, 1, seed=0)
    mean = sum(tnic.attest_latency_us(64) for _ in range(200)) / 200
    assert mean == pytest.approx(cal.TNIC_ATTEST_ASYNC_US, rel=0.35)


def _one_line_tnic_sample(rng, synchronous, size_bytes):
    """A TNIC latency sample computed the way the provider always did,
    the whole base rebuilt in one expression per call."""
    hmac_us = cal.TNIC_HMAC_BASE_US + cal.TNIC_HMAC_PER_BYTE_US * size_bytes
    if synchronous:
        base = cal.TNIC_PCIE_TRANSFER_US + cal.TNIC_GLUE_US + hmac_us
    else:
        base = max(cal.TNIC_ATTEST_ASYNC_US - cal.TNIC_HMAC_BASE_US, 0.5) + hmac_us
    return rng.lognormal_jitter(base, sigma=0.02)


@pytest.mark.parametrize("synchronous", [False, True])
@pytest.mark.parametrize("seed", [0, 5])
def test_tnic_samples_are_bit_identical_to_the_one_line_formula(seed, synchronous):
    """The fixed term precomputed at construction keeps the float
    association, so every sample — hence every virtual instant — is
    the same bits."""
    tnic = make_provider("tnic", Simulator(), 1, seed=seed,
                         synchronous=synchronous)
    reference = DeterministicRng(seed, "provider/tnic/1")
    for size in [0, 64, 1024, 16 * 1024] * 3:
        got = tnic.attest_latency_us(size)
        want = _one_line_tnic_sample(reference, synchronous, size)
        assert got.hex() == want.hex(), (size, got, want)


def test_each_timed_tee_call_draws_exactly_one_sample():
    """``attest``, ``verify`` and ``check_transferable`` each charge one
    sample and advance the provider's stream by exactly that one: the
    stream order is what keeps every ``model.*`` number fixed."""
    sim, a, b = paired("tnic", seed=4)
    stream = DeterministicRng(4, "provider/tnic/2")
    payload = b"p" * 100

    def filed_at():
        """The instant of the one entry the call just filed."""
        [(when, _tie, _step, _arg)] = sim._heap
        return when

    def charged(event):
        want = _one_line_tnic_sample(stream, False, len(payload))
        assert filed_at() == sim.now + want
        assert b.rng._random.getstate() == stream._random.getstate()
        return sim.run(event)

    sender_stream = DeterministicRng(4, "provider/tnic/1")
    message = attested(sim, a, 1, payload)
    assert filed_at() == sim.now + _one_line_tnic_sample(
        sender_stream, False, len(payload))
    assert a.rng._random.getstate() == sender_stream._random.getstate()
    message = sim.run(message)
    checked = sim.event()
    b.check_transferable(1, message, checked.succeed)
    assert charged(checked) is True
    assert charged(verified(sim, b, 1, message)) == payload
    assert charged(attested(sim, b, 1, payload)).counter == 0


def test_unknown_provider_rejected():
    with pytest.raises(ValueError, match="unknown provider"):
        make_provider("nope", Simulator(), 1)


def test_provider_properties_table2():
    """Table 2: host-TEE-free and tamper-proof flags."""
    sim = Simulator()
    flags = {
        name: (
            PROVIDER_FACTORIES[name].properties.host_tee_free,
            PROVIDER_FACTORIES[name].properties.tamper_proof,
        )
        for name in ("ssl-lib", "ssl-server", "sgx", "amd-sev", "tnic")
    }
    assert flags["ssl-lib"] == (True, False)
    assert flags["ssl-server"] == (True, False)
    assert flags["sgx"] == (False, True)
    assert flags["amd-sev"] == (False, True)
    assert flags["tnic"] == (True, True)


# ---------------------------------------------------------------------------
# EPC paging model
# ---------------------------------------------------------------------------

def test_epc_hit_is_cheap_miss_is_expensive():
    model = EnclaveMemoryModel(epc_bytes=8192)  # two pages
    first = model.access(0, 8)
    again = model.access(0, 8)
    assert first > again
    assert model.hits == 1
    assert model.misses == 1


def test_epc_lru_eviction():
    model = EnclaveMemoryModel(epc_bytes=8192)  # capacity: 2 pages
    model.access(0)        # page 0
    model.access(4096)     # page 1
    model.access(8192)     # page 2 -> evicts page 0
    cost = model.access(0)  # page 0 must miss again
    assert model.misses == 4
    assert cost == pytest.approx(cal.SGX_PAGED_LOOKUP_US)


def test_epc_fits_check():
    model = EnclaveMemoryModel()
    assert model.fits(50 * 1024 * 1024)
    assert not model.fits(9 * 1024 * 1024 * 1024)


def test_epc_validation():
    with pytest.raises(ValueError):
        EnclaveMemoryModel(epc_bytes=100)
    with pytest.raises(ValueError):
        EnclaveMemoryModel().access(0, 0)


# ---------------------------------------------------------------------------
# Latency helpers
# ---------------------------------------------------------------------------

def test_latency_functions_reject_negative_sizes():
    with pytest.raises(ValueError):
        cal.tnic_hmac_pipeline_us(-1)
    with pytest.raises(ValueError):
        cal.tnic_path_hmac_us(-1)


def test_attest_breakdown_unknown_system():
    with pytest.raises(ValueError):
        cal.attest_breakdown("mystery")


def test_breakdown_shares_sum_to_one():
    for system in ("tnic", "sgx", "ssl-server", "amd-sev"):
        b = cal.attest_breakdown(system)
        total_share = (
            b.share("transfer") + b.share("compute") + b.share("other")
        )
        assert total_share == pytest.approx(1.0)
