"""Run a service the way ``repro serve --checkpoint`` drives it.

Services write no files; their drivers save a checkpoint after every
epoch.  Library tests that need the on-disk checkpoint go through
:func:`run_saving`.
"""

from __future__ import annotations


def run_saving(service, epochs: int, path: str) -> None:
    """Run ``epochs`` more epochs, saving the checkpoint after each."""
    for epoch in range(service.epochs_run, service.epochs_run + epochs):
        service.run_epoch(epoch)
        service.checkpoint().save(path)
