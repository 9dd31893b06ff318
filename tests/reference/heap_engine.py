"""One-heap reference engine: the ordering oracle for ``repro.sim.Engine``.

Every event — whatever its delay or priority — goes into a single binary
heap keyed ``(time, priority, seq)`` and is fired by one ``step()`` per
event. No lanes, no inlining, no code shared with the production engine;
it schedules the production :class:`~repro.sim.events.Event` objects, so
the differential tests (tests/test_properties.py) replay one schedule on
both and compare fire order, the clock at every fire, mid-callback
``queue_depth``/``peek`` and ``event_count``.
"""

from heapq import heappop, heappush

_INF = float("inf")


class HeapEngine:
    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._seq = 0
        self._event_count = 0
        #: corpses still in the heap; Event.cancel() bumps it
        self._cancelled = 0

    @property
    def now(self):
        return self._now

    @property
    def event_count(self):
        return self._event_count

    @property
    def queue_depth(self):
        return len(self._heap) - self._cancelled

    def _drop_corpses(self):
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heappop(heap)
            self._cancelled -= 1

    def peek(self):
        self._drop_corpses()
        return self._heap[0][0] if self._heap else _INF

    def schedule(self, event, delay=0.0, priority=0):
        if not 0.0 <= delay < _INF:
            raise ValueError(f"bad delay {delay!r}")
        self._seq += 1
        heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def schedule_batch(self, times, events):
        for t, event in zip(times, events):
            self._seq += 1
            heappush(self._heap, (float(t), 0, self._seq, event))

    def step(self):
        self._drop_corpses()
        if not self._heap:
            raise RuntimeError("step() on an empty event queue")
        time, _prio, _seq, event = heappop(self._heap)
        assert time >= self._now, "event queue time went backwards"
        self._now = time
        self._event_count += 1
        event._fire()

    def run(self, until=None, max_events=None):
        fired = 0
        while True:
            next_time = self.peek()
            if next_time == _INF:
                if until is not None and until > self._now:
                    self._now = until
                return self._now
            if until is not None and next_time > until:
                self._now = until
                return self._now
            if max_events is not None and fired >= max_events:
                raise RuntimeError("event budget exhausted")
            self.step()
            fired += 1
