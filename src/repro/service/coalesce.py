"""Request coalescing keyed on content-hash job keys.

Two clients sweeping the same design point must cost one computation.
The :class:`Coalescer` tracks which job key is currently in flight;
``attach_or_lead`` either registers the caller as the *leader* for its
key or returns the job already leading it, in which case the caller
becomes a follower and simply observes the leader's result.  Keys are
the same SHA-256 content-hash discipline as pipeline artifact keys
(``repro.pipeline.keys.artifact_key``), which is what lets the service
serve *completed* keys straight from the artifact store — the store
and the in-flight table partition the request space between them.
"""

from __future__ import annotations

import threading

from .. import obs


class Coalescer:
    """In-flight computation table: key -> leading job id."""

    def __init__(self):
        self._lock = threading.Lock()
        self._leaders = {}
        self.leads = 0
        self.attaches = 0

    def attach_or_lead(self, key, job_id):
        """Returns ``None`` when ``job_id`` now leads ``key``, else the
        id of the job already leading it (attach to that one)."""
        with self._lock:
            leader = self._leaders.get(key)
            if leader is not None:
                self.attaches += 1
                obs.inc("service_coalesce_total", outcome="inflight",
                        help="submissions coalesced by outcome")
                return leader
            self._leaders[key] = job_id
            self.leads += 1
            return None

    def release(self, key, job_id):
        """Retire a finished (or failed) leader so the key can lead
        again; late identical submissions then hit the artifact store
        instead."""
        with self._lock:
            if self._leaders.get(key) == job_id:
                del self._leaders[key]
