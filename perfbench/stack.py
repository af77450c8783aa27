"""Locate the program under test and build the trusted stack it runs on.

The benchmark lives in its own directory beside ``src/``; it imports the
``repro`` package from the checkout it sits in and drives only its public
surface: a :class:`TrustedPlatform` over a :class:`FileUntrustedStore`,
then ``ChunkStore`` → ``ObjectStore`` → ``CollectionStore`` / ``TDBServer``.
Every ``StoreConfig`` default is kept, so a change to a default shows in
the numbers.
"""

from __future__ import annotations

import gc
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: work space for device images and span dumps (inside the checkout)
WORK = ROOT / ".perfbench"

#: the default partition tier recorded in BENCH_store.json
PARTITION_CIPHER = "aes-256-gcm"
PARTITION_HASH = "sha1"


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def import_program() -> None:
    """Put the checkout's ``src`` on the import path, or refuse."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def seeded(seed: int, purpose: str) -> random.Random:
    """An independent RNG stream per purpose, fixed by the run's seed."""
    return random.Random(f"{seed}:{purpose}")


def quiesce() -> None:
    """Collect garbage and exempt every live object from later
    collections, so the oracle's model and earlier phases do not make the
    collector's pauses in a timed section depend on history.  Objects
    frozen by an earlier call are thawed first, so what died since (an
    earlier stack, a discarded reopened store) is freed."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


class Stack:
    """One file-backed trusted platform plus a formatted chunk store.

    The platform object survives :meth:`crash`; :meth:`reopen` builds a
    fresh ``ChunkStore`` over it the way a restarted process would.
    """

    def __init__(self, name: str, seed: int, device_bytes: int) -> None:
        from repro.chunkstore.config import StoreConfig
        from repro.chunkstore.store import ChunkStore
        from repro.objectstore.store import ObjectStore
        from repro.platform.archival import MemoryArchivalStore
        from repro.platform.crash import CrashInjector
        from repro.platform.secret_store import SecretStore
        from repro.platform.tamper_resistant import (
            TamperResistantCounter,
            TamperResistantStore,
        )
        from repro.platform.trusted_platform import TrustedPlatform
        from repro.platform.untrusted import FileUntrustedStore

        WORK.mkdir(exist_ok=True)
        self.path = WORK / f"{name}-{seed}-{os.getpid()}.img"
        if self.path.exists():
            self.path.unlink()
        rng = seeded(seed, "keys")
        injector = CrashInjector()
        self.device_bytes = device_bytes
        self.platform = TrustedPlatform(
            secret_store=SecretStore(rng.randbytes(SecretStore.SIZE)),
            tamper_resistant=TamperResistantStore(),
            counter=TamperResistantCounter(),
            untrusted=FileUntrustedStore(str(self.path), device_bytes, injector),
            archival=MemoryArchivalStore(),
            injector=injector,
        )
        self.config = StoreConfig()
        self.chunks = ChunkStore.format(self.platform, self.config)
        self.objects = ObjectStore(self.chunks)
        self.partition = self.objects.create_partition(
            cipher_name=PARTITION_CIPHER,
            hash_name=PARTITION_HASH,
            key=rng.randbytes(32),
        )

    def crash(self) -> None:
        """Power failure: every write not yet flushed is lost."""
        self.platform.reboot()

    def reopen(self):
        """A fresh ``ChunkStore`` recovered from the durable log."""
        from repro.chunkstore.store import ChunkStore

        return ChunkStore.open(self.platform, self.config)

    def map_height(self) -> int:
        return self.chunks.partitions[self.partition].payload.tree_height

    def close(self) -> None:
        self.platform.untrusted.close()
        if self.path.exists():
            self.path.unlink()
