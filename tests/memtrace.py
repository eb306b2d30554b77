"""Memory tracing for the tests' allocation guards."""

import tracemalloc


def traced_peak(fn):
    """Call fn() with tracemalloc on; return its result and the peak traced bytes.

    The peak counts only what fn allocates while it runs: tracing starts
    right before the call and stops after it, even if fn raises.
    """
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
