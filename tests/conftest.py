import pytest


@pytest.fixture
def ivr_call_times():
    """Map a finished engine to {voter id: time its verify call reached a
    read-back service}, read from the trace. The voter record keeps the
    outcome of the call, not its time.
    """
    def times(engine) -> dict[str, int]:
        out = {}
        for line in engine.sim.trace:
            stamp, _, route, status = line.split(" ", 4)[:4]
            src, dst = route.split("->")
            if status == "deliver" and dst in ("verification-ivr", "attacker-ivr"):
                out[src] = int(stamp.removeprefix("t="))
        return out
    return times
