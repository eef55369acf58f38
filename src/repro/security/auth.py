"""RADIUS-style user authentication.

A faithful-in-spirit model of RFC 2865 exchange semantics: the serving
satellite acts as the Network Access Server, forwarding an Access-Request
over ISLs to the user's home provider's RADIUS server, which verifies the
shared secret and responds Access-Accept (with a roaming certificate) or
Access-Reject.  Password hiding uses the RFC's MD5-chained XOR scheme —
implemented here with SHA-256 in place of MD5 — and responses are
authenticated with an HMAC over the request authenticator.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass
from typing import Dict, Optional

from repro.security.certificates import CertificateAuthority, RoamingCertificate


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        # zip() would silently truncate to the shorter input, corrupting
        # the hidden password instead of surfacing the framing bug.
        raise ValueError(
            f"XOR operands must have equal length, got {len(a)} and {len(b)}"
        )
    return bytes(x ^ y for x, y in zip(a, b))


def _hide_password(password: bytes, secret: bytes, authenticator: bytes) -> bytes:
    """RFC-2865-style password hiding (SHA-256 instead of MD5).

    The password is padded to a 32-byte multiple and each block is XORed
    with a hash chained over the previous ciphertext block.
    """
    if len(password) == 0:
        raise ValueError("password must be non-empty")
    block = 32
    padded = password + b"\x00" * ((block - len(password) % block) % block)
    out = b""
    previous = authenticator
    for i in range(0, len(padded), block):
        digest = hashlib.sha256(secret + previous).digest()
        cipher = _xor_bytes(padded[i:i + block], digest)
        out += cipher
        previous = cipher
    return out


def _reveal_password(hidden: bytes, secret: bytes, authenticator: bytes) -> bytes:
    """Inverse of :func:`_hide_password`."""
    block = 32
    if len(hidden) % block != 0:
        raise ValueError("hidden password length must be a 32-byte multiple")
    out = b""
    previous = authenticator
    for i in range(0, len(hidden), block):
        digest = hashlib.sha256(secret + previous).digest()
        out += _xor_bytes(hidden[i:i + block], digest)
        previous = hidden[i:i + block]
    return out.rstrip(b"\x00")


@dataclass(frozen=True)
class AccessRequest:
    """An Access-Request forwarded from the serving satellite (the NAS).

    Attributes:
        user_id: User-Name attribute.
        hidden_password: User-Password attribute after hiding.
        authenticator: 16-byte random request authenticator.
        nas_id: Identifier of the serving satellite.
        home_provider: Realm the request must be routed to.
    """

    user_id: str
    hidden_password: bytes
    authenticator: bytes
    nas_id: str
    home_provider: str


@dataclass(frozen=True)
class AccessAccept:
    """Successful authentication: carries the roaming certificate."""

    user_id: str
    certificate: RoamingCertificate
    response_hmac: bytes


@dataclass(frozen=True)
class AccessReject:
    """Failed authentication."""

    user_id: str
    reason: str
    response_hmac: bytes


class RadiusServer:
    """One home provider's authentication server.

    Args:
        provider: Provider (realm) name.
        shared_secret: NAS-server shared secret.
        authority: Certificate authority used to mint roaming certificates.
    """

    def __init__(self, provider: str, shared_secret: bytes,
                 authority: Optional[CertificateAuthority] = None):
        if not shared_secret:
            raise ValueError("shared secret must be non-empty")
        self.provider = provider
        self._secret = shared_secret
        self.authority = authority or CertificateAuthority(provider)
        self._credentials: Dict[str, bytes] = {}
        # Response cache keyed by request authenticator: RFC 2865 §2.2
        # duplicate detection.  A retransmitted Access-Request (same
        # authenticator) replays the original verdict instead of minting
        # a second certificate, so lossy-channel retries are idempotent.
        self._responses: Dict[bytes, object] = {}
        self.accept_count = 0
        self.reject_count = 0
        self.duplicate_count = 0

    def enroll(self, user_id: str, password: bytes) -> None:
        """Register a subscriber's credentials."""
        if not password:
            raise ValueError("password must be non-empty")
        self._credentials[user_id] = password

    def make_request(self, user_id: str, password: bytes,
                     nas_id: str) -> AccessRequest:
        """Client/NAS-side construction of an Access-Request."""
        authenticator = secrets.token_bytes(16)
        return AccessRequest(
            user_id=user_id,
            hidden_password=_hide_password(password, self._secret, authenticator),
            authenticator=authenticator,
            nas_id=nas_id,
            home_provider=self.provider,
        )

    def _response_hmac(self, request: AccessRequest, verdict: bytes) -> bytes:
        return hmac.new(
            self._secret, request.authenticator + verdict, hashlib.sha256
        ).digest()

    def handle(self, request: AccessRequest, now_s: float = 0.0,
               validity_s: float = 86400.0):
        """Authenticate a forwarded Access-Request.

        Returns:
            :class:`AccessAccept` with a roaming certificate on success,
            :class:`AccessReject` otherwise.  A retransmission of an
            already-answered request (same authenticator) returns the
            cached response without re-counting or re-issuing anything.
        """
        cached = self._responses.get(request.authenticator)
        if cached is not None:
            self.duplicate_count += 1
            return cached
        response = self._handle_fresh(request, now_s, validity_s)
        self._responses[request.authenticator] = response
        return response

    def _handle_fresh(self, request: AccessRequest, now_s: float,
                      validity_s: float):
        if request.home_provider != self.provider:
            self.reject_count += 1
            return AccessReject(
                request.user_id,
                f"realm mismatch: request for {request.home_provider!r} "
                f"reached {self.provider!r}",
                self._response_hmac(request, b"reject"),
            )
        expected = self._credentials.get(request.user_id)
        if expected is None:
            self.reject_count += 1
            return AccessReject(
                request.user_id, "unknown user",
                self._response_hmac(request, b"reject"),
            )
        try:
            revealed = _reveal_password(
                request.hidden_password, self._secret, request.authenticator
            )
        except ValueError as exc:
            self.reject_count += 1
            return AccessReject(
                request.user_id, f"malformed password field: {exc}",
                self._response_hmac(request, b"reject"),
            )
        if not hmac.compare_digest(revealed, expected):
            self.reject_count += 1
            return AccessReject(
                request.user_id, "bad credentials",
                self._response_hmac(request, b"reject"),
            )
        certificate = self.authority.issue(
            request.user_id, now_s=now_s, validity_s=validity_s
        )
        self.accept_count += 1
        return AccessAccept(
            request.user_id, certificate,
            self._response_hmac(request, b"accept"),
        )

    def verify_response_hmac(self, request: AccessRequest,
                             response) -> bool:
        """NAS-side check that a response really came from this server."""
        verdict = b"accept" if isinstance(response, AccessAccept) else b"reject"
        return hmac.compare_digest(
            response.response_hmac, self._response_hmac(request, verdict)
        )
