"""Route single messages through the kernel, one at a time."""

from __future__ import annotations

from repro.simulator import BatchKernel, DeliveryRecord


def route_one(kernel: BatchKernel, source: int, destination: int) -> DeliveryRecord:
    """Inject one message at t=0, drain the kernel and return its record."""
    kernel.inject(source, destination)
    return kernel.run()[0]
