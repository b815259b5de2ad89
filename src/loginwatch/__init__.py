"""Per-actor login behavior baselines and anomaly scoring for SSO system logs.

The package ingests SSO system-log events (Okta System Log shape), learns a
per-actor baseline of login behavior with a small under-complete autoencoder
over entity embeddings, and flags logins whose reconstruction loss sits above
a swept z-style threshold.
"""

__version__ = "0.1.0"

from loginwatch.events import (
    FilterMode,
    LogEvent,
    Outcome,
    filter_entry_events,
    parse_event,
)

__all__ = [
    "FilterMode",
    "LogEvent",
    "Outcome",
    "filter_entry_events",
    "parse_event",
    "__version__",
]
