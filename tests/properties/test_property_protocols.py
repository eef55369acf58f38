"""Property-based tests for protocol layers (PHY, MAC, security)."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.channel import free_space_path_loss_db
from repro.phy.linkbudget import shannon_capacity_bps
from repro.phy.modulation import achievable_rate_bps, select_modcod
from repro.security.auth import _hide_password, _reveal_password
from repro.security.certificates import CertificateAuthority, CertificateError
from repro.simulation.engine import SimulationEngine


class TestPhyProperties:
    @given(d=st.floats(min_value=1.0, max_value=50000.0),
           f=st.floats(min_value=1e8, max_value=3e11))
    def test_fspl_monotone_in_distance(self, d, f):
        assert free_space_path_loss_db(2 * d, f) > free_space_path_loss_db(d, f)

    @given(snr=st.floats(min_value=-30.0, max_value=40.0),
           bw=st.floats(min_value=1e3, max_value=1e10))
    def test_modcod_rate_never_exceeds_shannon(self, snr, bw):
        assert achievable_rate_bps(snr, bw, margin_db=0.0) <= (
            shannon_capacity_bps(bw, snr) + 1e-6
        )

    @given(snr=st.floats(min_value=-30.0, max_value=40.0))
    def test_modcod_selection_closes(self, snr):
        chosen = select_modcod(snr, margin_db=1.0)
        if chosen is not None:
            assert chosen.required_snr_db <= snr - 1.0

    @given(low=st.floats(min_value=-30.0, max_value=40.0),
           delta=st.floats(min_value=0.0, max_value=30.0))
    def test_rate_monotone_in_snr(self, low, delta):
        bw = 1e6
        assert achievable_rate_bps(low + delta, bw) >= achievable_rate_bps(
            low, bw
        )


class TestAuthProperties:
    @given(password=st.binary(min_size=1, max_size=64),
           secret=st.binary(min_size=1, max_size=32),
           auth=st.binary(min_size=16, max_size=16))
    @settings(max_examples=60)
    def test_password_hiding_round_trip(self, password, secret, auth):
        # Trailing NUL bytes are indistinguishable from padding — the RFC
        # scheme shares this property — so test NUL-free passwords.
        password = password.replace(b"\x00", b"\x01")
        hidden = _hide_password(password, secret, auth)
        assert _reveal_password(hidden, secret, auth) == password

    @given(user=st.text(min_size=1, max_size=30),
           now=st.floats(min_value=0.0, max_value=1e6),
           validity=st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=40)
    def test_issued_certificates_always_verify_in_window(self, user, now,
                                                         validity):
        authority = CertificateAuthority("isp", signing_key=b"k" * 32)
        cert = authority.issue(user, now_s=now, validity_s=validity)
        authority.verify(cert, now)
        authority.verify(cert, now + validity)
        with pytest.raises(CertificateError, match="expired"):
            authority.verify(cert, now + validity + 1.0)
        with pytest.raises(CertificateError, match="not yet valid"):
            authority.verify(cert, now - 1.0)


class TestEngineProperties:
    @given(times=st.lists(st.floats(min_value=0.0, max_value=1000.0),
                          min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_events_always_fire_in_nondecreasing_time_order(self, times):
        engine = SimulationEngine()
        fired = []
        for t in times:
            engine.schedule(t, lambda t=t: fired.append(engine.now_s))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(times=st.lists(st.floats(min_value=0.0, max_value=100.0),
                          min_size=1, max_size=30),
           horizon=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=40)
    def test_run_until_never_fires_late_events(self, times, horizon):
        engine = SimulationEngine()
        fired = []
        for t in times:
            engine.schedule(t, lambda t=t: fired.append(t))
        engine.run_until(horizon)
        assert all(t <= horizon for t in fired)
        assert len(fired) == sum(1 for t in times if t <= horizon)
