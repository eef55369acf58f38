"""Roaming certificates.

"The user's home provider should assign the user a digital certificate to
inform other satellite providers that the user has been authenticated by
their home network."  Certificates are HMAC-signed tokens (standard-library
crypto only); any provider holding the issuer's published verification key
can check them offline — no round trip to the home provider on handover.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass
from typing import Dict


class CertificateError(Exception):
    """Raised when a certificate fails verification."""


@dataclass(frozen=True)
class RoamingCertificate:
    """A signed attestation that a user authenticated with their home ISP.

    Attributes:
        user_id: The authenticated subscriber.
        issuer: Home provider name.
        issued_at_s: Issue timestamp (simulation time).
        expires_at_s: Expiry timestamp.
        serial: Unique serial.
        signature: HMAC over the certificate body.
    """

    user_id: str
    issuer: str
    issued_at_s: float
    expires_at_s: float
    serial: str
    signature: bytes

    def body(self) -> bytes:
        """The byte string covered by the signature."""
        return (
            f"{self.user_id}|{self.issuer}|{self.issued_at_s:.3f}"
            f"|{self.expires_at_s:.3f}|{self.serial}"
        ).encode()


class CertificateAuthority:
    """A home provider's certificate issuance and verification authority.

    In a deployed system this would be an asymmetric-key PKI; the HMAC
    construction preserves the protocol shape (issue once, verify anywhere
    the verification key is distributed) with stdlib crypto.

    Args:
        issuer: Provider name appearing on issued certificates.
        signing_key: HMAC key; generated when omitted.
    """

    def __init__(self, issuer: str, signing_key: bytes = b""):
        self.issuer = issuer
        self._key = signing_key or secrets.token_bytes(32)
        self.issued_count = 0

    def issue(self, user_id: str, now_s: float,
              validity_s: float = 86400.0) -> RoamingCertificate:
        """Mint a certificate for an authenticated subscriber."""
        if validity_s <= 0.0:
            raise ValueError(f"validity must be positive, got {validity_s}")
        serial = secrets.token_hex(8)
        unsigned = RoamingCertificate(
            user_id=user_id,
            issuer=self.issuer,
            issued_at_s=now_s,
            expires_at_s=now_s + validity_s,
            serial=serial,
            signature=b"",
        )
        signature = hmac.new(self._key, unsigned.body(), hashlib.sha256).digest()
        self.issued_count += 1
        return RoamingCertificate(
            user_id=user_id,
            issuer=self.issuer,
            issued_at_s=now_s,
            expires_at_s=now_s + validity_s,
            serial=serial,
            signature=signature,
        )

    def verify(self, certificate: RoamingCertificate, now_s: float) -> None:
        """Check a certificate; raises :class:`CertificateError` on failure."""
        if certificate.issuer != self.issuer:
            raise CertificateError(
                f"issuer mismatch: certificate from {certificate.issuer!r}, "
                f"authority is {self.issuer!r}"
            )
        expected = hmac.new(self._key, certificate.body(), hashlib.sha256).digest()
        if not hmac.compare_digest(expected, certificate.signature):
            raise CertificateError("signature verification failed")
        if now_s < certificate.issued_at_s:
            raise CertificateError("certificate not yet valid")
        if now_s > certificate.expires_at_s:
            raise CertificateError("certificate expired")



class TrustStore:
    """A provider's collection of other providers' verification keys.

    Distributed out of band when providers join the federation; lets any
    serving satellite verify roaming certificates locally.
    """

    def __init__(self):
        self._authorities: Dict[str, CertificateAuthority] = {}

    def add_authority(self, authority: CertificateAuthority) -> None:
        self._authorities[authority.issuer] = authority

    def verify(self, certificate: RoamingCertificate, now_s: float) -> None:
        """Verify against the issuer's authority.

        Raises:
            CertificateError: Unknown issuer or failed verification.
        """
        authority = self._authorities.get(certificate.issuer)
        if authority is None:
            raise CertificateError(
                f"no trust anchor for issuer {certificate.issuer!r}"
            )
        authority.verify(certificate, now_s)
