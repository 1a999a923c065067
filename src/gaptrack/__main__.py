"""``python -m gaptrack``: the ``gaptrack`` command, runnable from a checkout."""

from .cli import entrypoint

entrypoint()
