"""The tests' one way into a controller's frame cache
(:mod:`repro.dram.frames`).

``Forgetful`` is a cache that keeps nothing: a controller given one
(``mc.frames = Forgetful()``) drains every program by the command path,
the oracle a frame must equal.  ``frames_taken`` lists the frames
controllers take; ``remembered`` and ``remembered_for`` read what a cache
holds.
"""

from repro.dram.frames import FrameCache


class Forgetful(FrameCache):
    """A frame cache that keeps nothing."""

    __slots__ = ()

    def offer(self, mc, recorder, segments):
        pass


def frames_taken(monkeypatch, cache=None):
    """The list each frame taken from here on is appended to (its
    ``repro.dram.pseudochannel.Frame``) — by every controller, or by the
    one whose cache is ``cache``."""
    taken = []
    take = FrameCache.take

    def counted(self, mc, program, blocks, out):
        if not take(self, mc, program, blocks, out):
            return False
        if cache is None or self is cache:
            taken.append(self._entries[next(reversed(self._entries))].frame)
        return True

    monkeypatch.setattr(FrameCache, "take", counted)
    return taken


def remembered(mc):
    """What ``mc``'s cache holds, least recently used first."""
    return list(mc.frames._entries.values())


def remembered_for(mc, program, blocks=()):
    """What ``mc``'s cache holds for draining ``program`` with ``blocks``
    from where ``mc`` stands, or None."""
    return mc.frames._entries.get(FrameCache.key(program, blocks, mc.channel, mc.snapshot()))
