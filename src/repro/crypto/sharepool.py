"""Share verification verdicts, memoized on the share itself.

The hot path at large n is share verification: a timeout or coin share
multicast to n replicas is verified by each receiver, and every
``combine()``/``reveal()`` re-verifies the shares it aggregates.  A share is
immutable, so its verdict against a payload under one key epoch never
changes; :meth:`VerifiedSharePool.check` keeps that verdict in the share's
instance ``__dict__`` (the slot ``functools.cached_property`` uses for block
and certificate digests), stamped with the registry epoch and the payload it
was checked against.  Negative verdicts are kept too.

The memo needs no invalidation and no bound: a key rotation or a different
payload changes the stamp and forces a fresh check, and the verdict is
freed with its share.  In the simulator a multicast share is one object
across all receivers, so one hash serves every receiver and every later
``combine()`` over the trackers holding it.  A forgery is a different
object and never sees another share's verdict.
"""

from __future__ import annotations

from typing import Callable

#: Instance ``__dict__`` key of a share's ``(registry epoch, payload,
#: verdict)`` stamp.
_VERDICT = "_verdict"


class VerifiedSharePool:
    """Hit/miss counters of the per-share verdict memo (see module doc)."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def check(
        self, share: object, epoch: int, payload: object, verifier: Callable[[], bool]
    ) -> bool:
        """Return ``share``'s verdict for ``(epoch, payload)``.

        ``verifier`` runs only when the share carries no verdict stamped
        with this registry epoch and an equal payload (``None`` for coin
        shares, whose view is a field of the share).
        """
        memo = share.__dict__
        stamp = memo.get(_VERDICT)
        if stamp is not None and stamp[0] == epoch and stamp[1] == payload:
            self.hits += 1
            return stamp[2]
        self.misses += 1
        verdict = verifier()
        memo[_VERDICT] = (epoch, payload, verdict)
        return verdict

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}
