"""Bad-actor detection and cutoff.

From the paper's discussion: "it is worth exploring a security protocol to
quickly identify and cut off bad actors in the network; such as attempts by
non-OpenSpace agents to intercept user traffic."

The monitor keeps a per-provider trust score driven by observable
misbehaviour reports (dropped transit traffic, forged certificates,
ledger-mismatch disputes, interception attempts).  Crossing the cutoff
threshold quarantines the provider, which the federation layer translates
into excluding their satellites from routing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

#: Severity weights per report kind.
REPORT_SEVERITY: Dict[str, float] = {
    "transit_drop": 0.05,
    "ledger_mismatch": 0.15,
    "forged_certificate": 0.5,
    "interception_attempt": 0.6,
    "beacon_spoofing": 0.4,
}


@dataclass
class TrustScore:
    """One provider's trust state.

    Attributes:
        provider: Provider name.
        score: 1.0 = fully trusted, 0.0 = fully distrusted.
        reports: Count of misbehaviour reports by kind.
    """

    provider: str
    score: float = 1.0
    reports: Dict[str, int] = field(default_factory=dict)

    def apply_report(self, kind: str, severity: float) -> None:
        self.reports[kind] = self.reports.get(kind, 0) + 1
        self.score = max(0.0, self.score - severity)


class BadActorMonitor:
    """Federation-wide misbehaviour tracking and quarantine.

    Args:
        cutoff_threshold: Providers whose score falls below this are
            quarantined.
    """

    def __init__(self, cutoff_threshold: float = 0.4):
        if not 0.0 <= cutoff_threshold <= 1.0:
            raise ValueError(
                f"need 0 <= cutoff <= 1, got {cutoff_threshold}"
            )
        self.cutoff_threshold = cutoff_threshold
        self._scores: Dict[str, TrustScore] = {}
        self._quarantined: Set[str] = set()
        self.events: List[Tuple[float, str, str]] = []

    def _score(self, provider: str) -> TrustScore:
        if provider not in self._scores:
            self._scores[provider] = TrustScore(provider)
        return self._scores[provider]

    def report(self, provider: str, kind: str, now_s: float = 0.0) -> None:
        """File a misbehaviour report against a provider.

        Raises:
            ValueError: For unknown report kinds (catching typos beats
                silently ignoring a security signal).
        """
        severity = REPORT_SEVERITY.get(kind)
        if severity is None:
            known = ", ".join(sorted(REPORT_SEVERITY))
            raise ValueError(f"unknown report kind {kind!r}; known: {known}")
        score = self._score(provider)
        score.apply_report(kind, severity)
        self.events.append((now_s, provider, kind))
        if (provider not in self._quarantined
                and score.score < self.cutoff_threshold):
            self._quarantined.add(provider)
            self.events.append((now_s, provider, "quarantined"))

    def is_quarantined(self, provider: str) -> bool:
        return provider in self._quarantined
