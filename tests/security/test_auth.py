"""Tests for RADIUS-style authentication."""

import hashlib
import hmac

import pytest

from repro.security.auth import (
    AccessAccept,
    AccessReject,
    RadiusServer,
    _hide_password,
    _reveal_password,
    _xor_bytes,
)


SECRET = b"shared-secret"


@pytest.fixture
def server():
    s = RadiusServer("isp-home", SECRET)
    s.enroll("alice", b"correct-horse")
    return s


def _nas_accepts(request, response) -> bool:
    """The NAS-side check that a response came from the secret's holder."""
    verdict = b"accept" if isinstance(response, AccessAccept) else b"reject"
    expected = hmac.new(SECRET, request.authenticator + verdict,
                        hashlib.sha256).digest()
    return hmac.compare_digest(response.response_hmac, expected)


class TestXorBytes:
    def test_equal_lengths_xor(self):
        assert _xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_mismatched_lengths_raise(self):
        # Regression: zip() used to silently truncate to the shorter
        # operand, corrupting hidden passwords instead of failing loudly.
        with pytest.raises(ValueError, match="equal length"):
            _xor_bytes(b"\x00" * 16, b"\x00" * 15)

    def test_empty_operands_allowed(self):
        assert _xor_bytes(b"", b"") == b""


class TestPasswordHiding:
    def test_round_trip(self):
        secret, auth = b"secret", b"\x01" * 16
        for pw in (b"x", b"a-longer-password", b"p" * 40, b"p" * 64):
            hidden = _hide_password(pw, secret, auth)
            assert _reveal_password(hidden, secret, auth) == pw

    def test_hidden_is_not_plaintext(self):
        hidden = _hide_password(b"password", b"secret", b"\x02" * 16)
        assert b"password" not in hidden

    def test_hidden_length_multiple_of_32(self):
        hidden = _hide_password(b"pw", b"secret", b"\x00" * 16)
        assert len(hidden) % 32 == 0

    def test_wrong_secret_garbles(self):
        auth = b"\x03" * 16
        hidden = _hide_password(b"password", b"secret", auth)
        assert _reveal_password(hidden, b"other", auth) != b"password"

    def test_rejects_empty_password(self):
        with pytest.raises(ValueError):
            _hide_password(b"", b"secret", b"\x00" * 16)

    def test_reveal_rejects_bad_length(self):
        with pytest.raises(ValueError):
            _reveal_password(b"short", b"secret", b"\x00" * 16)


class TestServer:
    def test_accept_with_correct_credentials(self, server):
        request = server.make_request("alice", b"correct-horse", "sat-1")
        response = server.handle(request, now_s=100.0)
        assert isinstance(response, AccessAccept)
        assert response.certificate.user_id == "alice"
        assert response.certificate.issuer == "isp-home"
        assert server.accept_count == 1

    def test_reject_wrong_password(self, server):
        request = server.make_request("alice", b"wrong", "sat-1")
        response = server.handle(request)
        assert isinstance(response, AccessReject)
        assert response.reason == "bad credentials"
        assert server.reject_count == 1

    def test_reject_unknown_user(self, server):
        request = server.make_request("mallory", b"whatever", "sat-1")
        response = server.handle(request)
        assert isinstance(response, AccessReject)
        assert "unknown user" in response.reason

    def test_reject_realm_mismatch(self, server):
        other = RadiusServer("isp-other", b"shared-secret")
        request = other.make_request("alice", b"correct-horse", "sat-1")
        response = server.handle(request)
        assert isinstance(response, AccessReject)
        assert "realm mismatch" in response.reason

    def test_certificate_validity_window(self, server):
        request = server.make_request("alice", b"correct-horse", "sat-1")
        response = server.handle(request, now_s=500.0, validity_s=3600.0)
        cert = response.certificate
        assert cert.issued_at_s == 500.0
        assert cert.expires_at_s == 4100.0

    def test_response_hmac_verifies(self, server):
        request = server.make_request("alice", b"correct-horse", "sat-1")
        response = server.handle(request)
        assert _nas_accepts(request, response)

    def test_response_hmac_detects_forgery(self, server):
        request = server.make_request("alice", b"correct-horse", "sat-1")
        response = server.handle(request)
        forged = AccessAccept(
            user_id=response.user_id,
            certificate=response.certificate,
            response_hmac=b"\x00" * 32,
        )
        assert not _nas_accepts(request, forged)

    def test_requires_secret(self):
        with pytest.raises(ValueError):
            RadiusServer("isp", b"")

    def test_enroll_requires_password(self, server):
        with pytest.raises(ValueError):
            server.enroll("bob", b"")

    def test_each_request_fresh_authenticator(self, server):
        r1 = server.make_request("alice", b"correct-horse", "sat-1")
        r2 = server.make_request("alice", b"correct-horse", "sat-1")
        assert r1.authenticator != r2.authenticator
        assert r1.hidden_password != r2.hidden_password


class TestDuplicateDetection:
    """RFC 2865-style retransmission handling: replays are idempotent."""

    def test_retransmission_returns_cached_response(self, server):
        request = server.make_request("alice", b"correct-horse", "sat-1")
        first = server.handle(request, now_s=10.0)
        replay = server.handle(request, now_s=11.0)
        assert replay is first
        assert server.duplicate_count == 1

    def test_retransmission_does_not_double_count(self, server):
        request = server.make_request("alice", b"correct-horse", "sat-1")
        for _ in range(4):
            server.handle(request, now_s=10.0)
        assert server.accept_count == 1

    def test_retransmission_does_not_reissue_certificate(self, server):
        request = server.make_request("alice", b"correct-horse", "sat-1")
        first = server.handle(request, now_s=10.0)
        replay = server.handle(request, now_s=99.0)
        assert replay.certificate.serial == first.certificate.serial

    def test_rejects_cached_too(self, server):
        request = server.make_request("alice", b"wrong", "sat-1")
        first = server.handle(request)
        replay = server.handle(request)
        assert isinstance(replay, AccessReject)
        assert replay is first
        assert server.reject_count == 1

    def test_distinct_requests_not_deduplicated(self, server):
        r1 = server.make_request("alice", b"correct-horse", "sat-1")
        r2 = server.make_request("alice", b"correct-horse", "sat-1")
        server.handle(r1)
        server.handle(r2)
        assert server.duplicate_count == 0
        assert server.accept_count == 2
