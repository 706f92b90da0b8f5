"""Bad: the recorder stamps events with the wall clock (RPR102 x3)."""

import time
import uuid
from datetime import datetime


def record(event):
    return {"event": event, "t": time.time(), "id": str(uuid.uuid4())}


def header():
    return {"at": datetime.now().isoformat()}
