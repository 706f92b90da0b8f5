"""Callers that hand unpicklable tasks into the pool helpers.

The lambda/closure is one call away from the ``submit``/``map`` site:
RPR201 traces the task parameter back to these callers, and the
finding lands here, where the fix belongs.
"""

from badpkg.exec.runner import run_all
from badpkg.shard.fanout import ShardState, fan_out


def launch(pool, chunks):
    # RPR201: lambda flows into pool.submit via run_all's parameter.
    return run_all(pool, lambda chunk: chunk * 2, chunks)


def launch_local(pool, chunks):
    # RPR201: nested function flows into pool.submit the same way.
    def _scale(chunk):
        return chunk * 3

    return run_all(pool, _scale, chunks)


def launch_shards(executor, shards):
    # RPR201: bound method of a lock-holding class flows into map.
    state = ShardState()
    return fan_out(executor, state.merge, shards)
