"""Kernel backend name; kept only because ``perfbench/run.py`` reads it."""


def active_backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"
