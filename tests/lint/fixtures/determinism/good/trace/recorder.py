"""Good: the recorder is handed the simulation clock."""


def record(event, clock):
    return {"event": event, "t": clock.now()}
