"""Working memory of one call, as tracemalloc sees it (numpy reports its
array buffers to tracemalloc, so arrays count with Python objects)."""

import gc
import tracemalloc


def traced(call):
    """``call()``'s result, the bytes it left allocated and the peak bytes
    it held, both over what was allocated before it. Garbage is collected
    first, so earlier calls' leftovers do not count."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before
