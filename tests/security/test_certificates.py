"""Tests for roaming certificates and trust stores."""

import pytest

from repro.security.certificates import (
    CertificateAuthority,
    CertificateError,
    TrustStore,
)


@pytest.fixture
def authority():
    return CertificateAuthority("isp-home", signing_key=b"k" * 32)


class TestIssueVerify:
    def test_valid_certificate_verifies(self, authority):
        cert = authority.issue("alice", now_s=0.0, validity_s=100.0)
        authority.verify(cert, now_s=50.0)

    def test_expired_certificate_fails(self, authority):
        cert = authority.issue("alice", now_s=0.0, validity_s=100.0)
        with pytest.raises(CertificateError, match="expired"):
            authority.verify(cert, now_s=101.0)

    def test_not_yet_valid_fails(self, authority):
        cert = authority.issue("alice", now_s=1000.0, validity_s=100.0)
        with pytest.raises(CertificateError, match="not yet valid"):
            authority.verify(cert, now_s=500.0)

    def test_tampered_user_fails(self, authority):
        from dataclasses import replace
        cert = authority.issue("alice", now_s=0.0)
        forged = replace(cert, user_id="mallory")
        with pytest.raises(CertificateError, match="signature"):
            authority.verify(forged, now_s=1.0)

    def test_wrong_issuer_fails(self, authority):
        other = CertificateAuthority("isp-other", signing_key=b"k" * 32)
        cert = other.issue("alice", now_s=0.0)
        with pytest.raises(CertificateError, match="issuer mismatch"):
            authority.verify(cert, now_s=1.0)

    def test_serials_unique(self, authority):
        serials = {authority.issue("alice", 0.0).serial for _ in range(20)}
        assert len(serials) == 20
        assert authority.issued_count == 20

    def test_rejects_nonpositive_validity(self, authority):
        with pytest.raises(ValueError):
            authority.issue("alice", now_s=0.0, validity_s=0.0)

    def test_key_generated_when_omitted(self):
        a = CertificateAuthority("x")
        b = CertificateAuthority("x")
        with pytest.raises(CertificateError, match="signature"):
            b.verify(a.issue("alice", now_s=0.0), now_s=1.0)


class TestTrustStore:
    def test_verifies_via_registered_authority(self, authority):
        store = TrustStore()
        store.add_authority(authority)
        cert = authority.issue("alice", now_s=0.0)
        store.verify(cert, now_s=1.0)

    def test_unknown_issuer_fails(self, authority):
        store = TrustStore()
        cert = authority.issue("alice", now_s=0.0)
        with pytest.raises(CertificateError, match="no trust anchor"):
            store.verify(cert, now_s=1.0)

    def test_known_issuers(self, authority):
        store = TrustStore()
        store.add_authority(authority)
        other = CertificateAuthority("isp-b")
        store.add_authority(other)
        for issuer in (authority, other):
            store.verify(issuer.issue("alice", now_s=0.0), now_s=1.0)
