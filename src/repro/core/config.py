"""eMPTCP tuning parameters.

Defaults follow the paper's evaluation settings (§4.1): κ = 1 MB,
τ = 3 s, a 10% safety factor, a 5 Mbps initial-bandwidth assumption for
never-activated interfaces (§3.2), and φ = 10 required samples for the
τ lower bound of equation (1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass
class EMPTCPConfig:
    """All knobs of the eMPTCP control plane."""

    #: κ — bytes that must arrive over WiFi before a cellular subflow is
    #: considered (§3.5).  The paper uses one MB because MPTCP is rarely
    #: more energy-efficient than single-path TCP below that size
    #: (Figure 4).
    kappa_bytes: float = 1_000_000.0

    #: τ — timer that forces cellular-establishment evaluation even if
    #: κ was never reached on a slow WiFi path (§3.5, equation (1)).
    tau_seconds: float = 3.0

    #: The hysteresis "safety factor" of the path usage controller
    #: (§3.4): thresholds are widened by this fraction when switching.
    safety_factor: float = 0.10

    #: Assumed throughput for an interface that has never been activated
    #: (§3.2), so its path gets probed at all.  Mbps.  The floor applies
    #: *only* before the first sample: a deactivated interface keeps
    #: predicting from its old (possibly stale) observations, exactly as
    #: §3.2 describes.
    initial_bandwidth_mbps: float = 5.0

    #: φ — bandwidth samples required after WiFi stabilises before τ may
    #: fire (equation (1)).
    required_samples: int = 10

    #: Holt-Winters smoothing parameters (level / trend).  The trend
    #: weight is deliberately small: per-window byte counts quantise to
    #: whole congestion windows, and an aggressive trend term amplifies
    #: that sampling noise straight across the EIB thresholds,
    #: defeating the 10% safety factor.
    hw_alpha: float = 0.4
    hw_beta: float = 0.1

    #: Sampling interval δ = clamp(multiplier x handshake RTT).  The
    #: window must span several TCP rounds so a sample reflects the
    #: rate rather than whether a round boundary fell inside it.
    delta_rtt_multiplier: float = 6.0
    delta_min: float = 0.5
    delta_max: float = 2.0

    #: How often the path usage controller re-evaluates, seconds.
    decision_interval: float = 0.25

    #: §3.4: "eMPTCP does not typically switch to using a cellular
    #: interface only, since the expected gain is not much more than
    #: using both."  With the default False, cellular-only EIB verdicts
    #: are mapped to BOTH; the ablation benchmarks flip this.
    allow_cellular_only: bool = False

    #: §3.6 re-use tweaks: zero the RTT of a resumed subflow, and
    #: disable the RFC 2861 window reset after idle.
    reuse_reset_rtt: bool = True
    disable_rfc2861_reset: bool = True

    def __post_init__(self) -> None:
        if self.kappa_bytes <= 0:
            raise ConfigurationError("kappa_bytes must be positive")
        if self.tau_seconds <= 0:
            raise ConfigurationError("tau_seconds must be positive")
        if not 0 <= self.safety_factor < 1:
            raise ConfigurationError("safety_factor must be in [0, 1)")
        if self.initial_bandwidth_mbps <= 0:
            raise ConfigurationError("initial_bandwidth_mbps must be positive")
        if self.required_samples < 1:
            raise ConfigurationError("required_samples must be >= 1")
        if not 0 < self.hw_alpha <= 1 or not 0 <= self.hw_beta <= 1:
            raise ConfigurationError("invalid Holt-Winters parameters")
        if self.delta_min <= 0 or self.delta_max < self.delta_min:
            raise ConfigurationError("invalid sampling-interval bounds")
        if self.decision_interval <= 0:
            raise ConfigurationError("decision_interval must be positive")

    def sampling_interval(self, handshake_rtt: float) -> float:
        """δ for a subflow, from its establishment RTT (§3.2)."""
        if handshake_rtt <= 0:
            raise ConfigurationError("handshake_rtt must be positive")
        return min(
            self.delta_max, max(self.delta_min, self.delta_rtt_multiplier * handshake_rtt)
        )

    def tau_satisfies_equation_one(
        self, wifi_bandwidth_bytes_per_sec: float, wifi_rtt: float
    ) -> bool:
        """Check this config's τ against equation (1)'s lower bound for
        a given WiFi operating point (§3.5: τ must allow slow start to
        finish plus φ throughput samples)."""
        from repro.control.delay import minimum_tau

        return self.tau_seconds >= minimum_tau(
            wifi_bandwidth_bytes_per_sec, wifi_rtt, self.required_samples
        )
