"""User association and home-ISP authentication.

"Upon initial association, the user device identifies its home ISP and
proceeds to authenticate with it through a standardized protocol such as
RADIUS ... an association request from a user has to be authenticated by
their home satellite provider, and this can be done through ISLs.  The
user's home provider should assign the user a digital certificate ...
After successful authentication, the user is fully associated with the
satellite."

The protocol binds together the beacon evaluator (satellite selection),
the network snapshot (the ISL path to the home provider's authentication
anchor), and the RADIUS server (credential check + certificate issue), and
reports the full latency breakdown — the cost that predictive handover
later avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro import obs as _obs
from repro.core.beacon import BeaconEvaluator
from repro.ground.user import UserTerminal
from repro.orbits.constants import SPEED_OF_LIGHT_KM_S
from repro.routing.metrics import path_metrics
from repro.security.auth import AccessAccept, RadiusServer


@dataclass(frozen=True)
class AssociationResult:
    """Outcome and timing of one association attempt.

    Attributes:
        user_id: The associating user.
        satellite_id: Serving satellite (None when no candidate existed).
        link_setup_s: User-satellite link establishment time.
        auth_path_hops: ISL hops from serving satellite to the home
            provider's authentication anchor.
        auth_round_trip_s: RADIUS request/response time over those ISLs.
        authenticated: True when the home ISP accepted the credentials.
        failure_reason: Populated on failure.
        auth_attempts: Control-plane sends the auth exchange needed (1 on
            the perfect-delivery path).
        degraded_mode: Which fallback served the association (``""`` for
            the primary path; ``"alternate_anchor"`` /
            ``"secondary_candidate"`` otherwise).
    """

    user_id: str
    satellite_id: Optional[str]
    link_setup_s: float
    auth_path_hops: int
    auth_round_trip_s: float
    authenticated: bool
    failure_reason: str = ""
    auth_attempts: int = 1
    degraded_mode: str = ""

    @property
    def succeeded(self) -> bool:
        return self.authenticated and self.satellite_id is not None


class AssociationProtocol:
    """Runs user association against a network snapshot.

    Args:
        radius_servers: Home-provider name -> that provider's RADIUS
            server.
        auth_anchors: Home-provider name -> snapshot node id where its
            authentication server is reachable (typically one of its
            ground stations).
        server_processing_s: RADIUS server processing time.
        link_setup_messages: Messages in the user-satellite association
            exchange (probe + request + response by default).
    """

    def __init__(self, radius_servers: Dict[str, RadiusServer],
                 auth_anchors: Dict[str, str],
                 server_processing_s: float = 0.010,
                 link_setup_messages: int = 3):
        self.radius_servers = radius_servers
        self.auth_anchors = auth_anchors
        self.server_processing_s = server_processing_s
        self.link_setup_messages = link_setup_messages

    def associate(self, user: UserTerminal, snap,
                  evaluator: BeaconEvaluator, time_s: float,
                  password: bytes) -> AssociationResult:
        """Full association: pick satellite, authenticate, certify.

        Args:
            user: The associating terminal (mutated on success: serving
                satellite and certificate are stored).
            snap: Current :class:`~repro.core.network.NetworkSnapshot`
                (satellites + ground); the auth path is its least-cost
                path under the default cost model.
            evaluator: Beacon evaluator already fed with heard beacons.
            time_s: Current simulation time.
            password: The user's home-ISP credential.
        """
        result = self._associate(user, snap, evaluator, time_s, password)
        recorder = _obs.active()
        if recorder.enabled:
            if result.succeeded:
                recorder.event(
                    "session.admit", time_s, subject=result.user_id,
                    satellite=result.satellite_id or "",
                    attempts=result.auth_attempts,
                    degraded=result.degraded_mode,
                )
            else:
                recorder.event(
                    "session.drop", time_s, subject=result.user_id,
                    satellite=result.satellite_id or "",
                    reason=result.failure_reason,
                )
        return result

    def _associate(self, user: UserTerminal, snap,
                   evaluator: BeaconEvaluator, time_s: float,
                   password: bytes) -> AssociationResult:
        ranked = evaluator.rank(user.position_eci(time_s), time_s)
        if not ranked:
            return AssociationResult(
                user_id=user.user_id, satellite_id=None, link_setup_s=0.0,
                auth_path_hops=0, auth_round_trip_s=0.0, authenticated=False,
                failure_reason="no usable satellite overhead",
            )
        distance_km, beacon = ranked[0]
        one_way_s = distance_km / SPEED_OF_LIGHT_KM_S
        link_setup_s = self.link_setup_messages * one_way_s

        server = self.radius_servers.get(user.home_provider)
        anchor = self.auth_anchors.get(user.home_provider)
        if server is None or anchor is None:
            return AssociationResult(
                user_id=user.user_id, satellite_id=beacon.satellite_id,
                link_setup_s=link_setup_s, auth_path_hops=0,
                auth_round_trip_s=0.0, authenticated=False,
                failure_reason=(
                    f"home provider {user.home_provider!r} has no "
                    "authentication anchor in the network"
                ),
            )

        path = snap.csr_adjacency().shortest_path(beacon.satellite_id, anchor)
        if path is None:
            return AssociationResult(
                user_id=user.user_id, satellite_id=beacon.satellite_id,
                link_setup_s=link_setup_s, auth_path_hops=0,
                auth_round_trip_s=0.0, authenticated=False,
                failure_reason=(
                    f"serving satellite {beacon.satellite_id} cannot reach "
                    f"auth anchor {anchor} over ISLs"
                ),
            )
        metrics = path_metrics(snap, path)
        auth_rtt_s = 2.0 * metrics.total_delay_s + self.server_processing_s

        request = server.make_request(
            user.user_id, password, nas_id=beacon.satellite_id
        )
        response = server.handle(request, now_s=time_s)
        if not isinstance(response, AccessAccept):
            return AssociationResult(
                user_id=user.user_id, satellite_id=beacon.satellite_id,
                link_setup_s=link_setup_s, auth_path_hops=metrics.hop_count,
                auth_round_trip_s=auth_rtt_s, authenticated=False,
                failure_reason=f"home ISP rejected: {response.reason}",
            )

        user.associated_satellite = beacon.satellite_id
        user.session_certificate = response.certificate.serial
        return AssociationResult(
            user_id=user.user_id,
            satellite_id=beacon.satellite_id,
            link_setup_s=link_setup_s,
            auth_path_hops=metrics.hop_count,
            auth_round_trip_s=auth_rtt_s,
            authenticated=True,
        )


class ReliableAssociationProtocol(AssociationProtocol):
    """Association that survives a lossy control plane.

    The RADIUS forwarding leg runs through a
    :class:`~repro.reliability.exchange.ReliableExchange` over a
    :class:`~repro.reliability.channel.LossyControlChannel`: lost
    requests are retransmitted with backoff, anchors behind flapping ISL
    paths trip a circuit breaker, and when the home provider's primary
    anchor stays unreachable the protocol degrades instead of failing —
    first to an alternate auth anchor of the same provider, then to the
    next-nearest beacon candidate (whose ISL path to the home provider
    may avoid the faulted region entirely).

    With ``channel=None`` (or ``exchange=None``) every call falls through
    to the perfect-delivery base protocol, byte-identical.

    Args:
        radius_servers: As the base protocol.
        auth_anchors: Primary anchor per provider.
        server_processing_s: RADIUS server processing time.
        link_setup_messages: As the base protocol.
        channel: The lossy control channel (None = perfect delivery).
        exchange: The retry/breaker primitive (None = perfect delivery).
        fallback_anchors: Provider -> ordered alternate anchor node ids
            tried when the primary anchor's exchange fails.
        max_candidates: Beacon candidates tried before giving up.
    """

    def __init__(self, radius_servers: Dict[str, RadiusServer],
                 auth_anchors: Dict[str, str],
                 server_processing_s: float = 0.010,
                 link_setup_messages: int = 3,
                 channel=None, exchange=None,
                 fallback_anchors: Optional[Dict[str, Sequence[str]]] = None,
                 max_candidates: int = 3):
        super().__init__(radius_servers, auth_anchors,
                         server_processing_s=server_processing_s,
                         link_setup_messages=link_setup_messages)
        self.channel = channel
        self.exchange = exchange
        self.fallback_anchors = {
            provider: list(anchors)
            for provider, anchors in (fallback_anchors or {}).items()
        }
        if max_candidates < 1:
            raise ValueError(
                f"max_candidates must be >= 1, got {max_candidates}")
        self.max_candidates = max_candidates

    def _anchors_for(self, provider: str) -> list:
        anchors = []
        primary = self.auth_anchors.get(provider)
        if primary is not None:
            anchors.append(primary)
        for anchor in self.fallback_anchors.get(provider, ()):
            if anchor not in anchors:
                anchors.append(anchor)
        return anchors

    def _associate(self, user: UserTerminal, snap,
                   evaluator: BeaconEvaluator, time_s: float,
                   password: bytes) -> AssociationResult:
        """Associate with retries, breakers, and graceful fallback."""
        if self.channel is None or self.exchange is None:
            return super()._associate(user, snap, evaluator, time_s,
                                      password)
        from repro.reliability.policy import note_degraded

        candidates = evaluator.rank(
            user.position_eci(time_s), time_s)[:self.max_candidates]
        if not candidates:
            return AssociationResult(
                user_id=user.user_id, satellite_id=None, link_setup_s=0.0,
                auth_path_hops=0, auth_round_trip_s=0.0, authenticated=False,
                failure_reason="no usable satellite overhead",
                auth_attempts=0,
            )

        server = self.radius_servers.get(user.home_provider)
        anchors = self._anchors_for(user.home_provider)
        primary_range_km, primary = candidates[0]
        primary_setup_s = self.link_setup_messages * (
            primary_range_km / SPEED_OF_LIGHT_KM_S
        )
        if server is None or not anchors:
            return AssociationResult(
                user_id=user.user_id, satellite_id=primary.satellite_id,
                link_setup_s=primary_setup_s, auth_path_hops=0,
                auth_round_trip_s=0.0, authenticated=False,
                failure_reason=(
                    f"home provider {user.home_provider!r} has no "
                    "authentication anchor in the network"
                ),
                auth_attempts=0,
            )

        adjacency = snap.csr_adjacency()
        total_attempts = 0
        elapsed_auth_s = 0.0
        last_failure = "no ISL path to any authentication anchor"
        for candidate_index, (range_km, beacon) in enumerate(candidates):
            one_way_s = range_km / SPEED_OF_LIGHT_KM_S
            link_setup_s = self.link_setup_messages * one_way_s
            for anchor_index, anchor in enumerate(anchors):
                path = adjacency.shortest_path(beacon.satellite_id, anchor)
                if path is None:
                    last_failure = (
                        f"serving satellite {beacon.satellite_id} cannot "
                        f"reach auth anchor {anchor} over ISLs"
                    )
                    continue
                outcome = self.exchange.run(
                    f"auth:{beacon.satellite_id}->{anchor}",
                    lambda _attempt, p=path: self._auth_attempt(snap, p),
                    now_s=time_s,
                )
                total_attempts += outcome.attempts
                elapsed_auth_s += outcome.elapsed_s
                if not outcome.ok:
                    last_failure = (
                        f"auth exchange via {anchor} failed "
                        f"({outcome.reason})"
                    )
                    continue
                degraded_mode = ""
                if candidate_index > 0:
                    degraded_mode = "secondary_candidate"
                elif anchor_index > 0:
                    degraded_mode = "alternate_anchor"
                if degraded_mode:
                    note_degraded(f"association_{degraded_mode}")
                metrics = path_metrics(snap, path)
                request = server.make_request(
                    user.user_id, password, nas_id=beacon.satellite_id
                )
                response = server.handle(request, now_s=time_s)
                if not isinstance(response, AccessAccept):
                    return AssociationResult(
                        user_id=user.user_id,
                        satellite_id=beacon.satellite_id,
                        link_setup_s=link_setup_s,
                        auth_path_hops=metrics.hop_count,
                        auth_round_trip_s=elapsed_auth_s,
                        authenticated=False,
                        failure_reason=(
                            f"home ISP rejected: {response.reason}"
                        ),
                        auth_attempts=total_attempts,
                        degraded_mode=degraded_mode,
                    )
                user.associated_satellite = beacon.satellite_id
                user.session_certificate = response.certificate.serial
                return AssociationResult(
                    user_id=user.user_id,
                    satellite_id=beacon.satellite_id,
                    link_setup_s=link_setup_s,
                    auth_path_hops=metrics.hop_count,
                    auth_round_trip_s=elapsed_auth_s,
                    authenticated=True,
                    auth_attempts=total_attempts,
                    degraded_mode=degraded_mode,
                )
        note_degraded("association_unreachable")
        return AssociationResult(
            user_id=user.user_id, satellite_id=primary.satellite_id,
            link_setup_s=primary_setup_s, auth_path_hops=0,
            auth_round_trip_s=elapsed_auth_s, authenticated=False,
            failure_reason=last_failure,
            auth_attempts=total_attempts,
        )

    def _auth_attempt(self, snap, path) -> tuple:
        attempt = self.channel.attempt_round_trip(
            snap, path, server_processing_s=self.server_processing_s
        )
        return attempt.delivered, attempt.round_trip_s
