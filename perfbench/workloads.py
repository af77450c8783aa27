"""The workloads and their correctness oracles.

Every workload builds a fresh file-backed stack, loads and warms it
(``setup``), runs closed-loop clients for a fixed time (``run``), and
ends the same way (``finish``): a checkpoint, a fixed number of
acknowledged write transactions, a simulated crash, timed reopens, and a
durability check of every object against the oracle.

The oracle is a model of the last acknowledged value of every object.
Reads are compared with it after the request's timer stops; a mismatch,
a ``TamperDetectedError`` or any other typed store error counts as a
failed operation.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import figure10
from repro.collection.index import KeyFunctionRegistry, field_key
from repro.collection.store import CollectionStore
from repro.errors import TDBError
from repro.objectstore.pickling import pickle_value
from repro.objectstore.store import ObjectStore
from repro.server import TDBServer
from stack import Stack, quiesce, seeded

perf = time.perf_counter


@dataclass
class Scale:
    """Sizes one workload runs at (``full`` is the benchmark; ``tiny``
    is the smoke test)."""

    device_mib: int
    #: acknowledged write transactions between the final checkpoint and
    #: the crash: fixes the residual log recovery replays
    recovery_writes: int
    objects: int = 0
    payload_bytes: int = 0
    #: reopens timed after the crash (median reported): at least
    #: ``reopens`` of them, spread over at least ``reopen_seconds`` so the
    #: median does not hang on one moment of the host's speed
    reopens: int = 7
    reopen_seconds: float = 4.0
    #: untimed requests after loading, before the first timed one
    warmup_ops: int = 0


@dataclass
class Measurement:
    """What one timed phase observed."""

    ops: int = 0
    reads: int = 0
    failed: int = 0
    #: sum of request times (untimed oracle work excluded)
    busy_s: float = 0.0
    read_us: List[float] = field(default_factory=list)
    write_us: List[float] = field(default_factory=list)
    #: pickled bytes of the user objects the phase wrote
    user_bytes: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.ops + self.failed

    @property
    def writes(self) -> int:
        return len(self.write_us)

    def merge(self, other: "Measurement") -> None:
        """Add another client's observations (``busy_s`` is left to the
        caller: concurrent clients share the wall clock)."""
        self.ops += other.ops
        self.reads += other.reads
        self.failed += other.failed
        self.read_us += other.read_us
        self.write_us += other.write_us
        self.user_bytes += other.user_bytes
        self.errors += other.errors[: max(0, 8 - len(self.errors))]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(message)


def _pickled_size(value: Any) -> int:
    return len(pickle_value(value))


class Workload:
    """Shared lifecycle; subclasses supply the load, the requests and the
    oracle."""

    name = "abstract"

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.stack: Optional[Stack] = None
        self.checkpoints = 0
        #: request ids for the traced run's root spans (unique across
        #: client threads)
        self._request_ids = itertools.count()

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        """Format a fresh device, load it and warm the caches."""
        self.close()
        self.stack = Stack(
            self.name, self.seed, self.scale.device_mib * 1024 * 1024
        )
        self.load()
        self._count_checkpoints(self.stack.chunks)
        self.warm()

    def load(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed requests that fill the caches before measuring."""
        untimed = Measurement()
        for _ in range(self.scale.warmup_ops):
            self.request(untimed, None)
        if untimed.failed:
            raise RuntimeError(f"warm-up failed: {untimed.errors}")

    def _count_checkpoints(self, chunks) -> None:
        """Count every checkpoint, including the ones commits trigger
        internally (the program keeps no tally of those)."""
        store_class = type(chunks)

        def counted(*args, **kwargs):
            self.checkpoints += 1
            # looked up per call, so a traced run's class wrapper applies
            return store_class._write_checkpoint(chunks, *args, **kwargs)

        chunks._write_checkpoint = counted

    # -- the timed phase ------------------------------------------------------

    def run(self, seconds: float, tracer=None) -> Measurement:
        """One closed-loop client until the time is up (it stops early at
        the first failure: later results would only repeat it)."""
        measurement = Measurement()
        deadline = perf() + seconds
        while perf() < deadline and not measurement.failed:
            self.request(measurement, tracer)
        return measurement

    def request(self, m: Measurement, tracer) -> None:
        raise NotImplementedError

    def timed(self, m: Measurement, tracer, fn: Callable, *args):
        """Run ``fn`` as one request; returns ``(ok, result, seconds)``."""
        start = perf()
        try:
            if tracer is not None:
                result = tracer.request(next(self._request_ids), fn, *args)
            else:
                result = fn(*args)
        except TDBError as exc:
            m.fail(f"{type(exc).__name__}: {exc}")
            return False, None, perf() - start
        return True, result, perf() - start

    # -- the common ending ----------------------------------------------------

    def finish(self, m: Measurement, after_crash=None) -> Dict[str, Any]:
        """Checkpoint, run the fixed residual writes, crash, reopen, and
        check durability.  Failures land in ``m``.  ``after_crash(stack)``
        runs between the crash and the reopens (the smoke test tampers
        there)."""
        stack = self.stack
        try:
            stack.chunks.checkpoint()
        except TDBError as exc:
            m.fail(f"final checkpoint: {type(exc).__name__}: {exc}")
        height = stack.map_height()
        user_bytes = self.live_user_bytes()
        space = {
            "space_amp": stack.chunks.live_bytes() / user_bytes,
            "stored_bytes": stack.chunks.stored_bytes(),
            "live_bytes": stack.chunks.live_bytes(),
            "user_bytes": user_bytes,
        }
        # the residual writes cycle over a small fixed set of objects, so
        # they never dirty enough descriptors to trigger a checkpoint: the
        # log recovery replays is the same length on every seed
        rng = seeded(self.seed, "recovery")
        pool = self.residual_pool(rng)
        checkpoints = self.checkpoints
        for _ in range(self.scale.recovery_writes):
            self.residual_write(rng, pool, m)
        residual_checkpoints = self.checkpoints - checkpoints
        stack.crash()
        if after_crash is not None:
            after_crash(stack)
        # recovery reads the log through the page cache and writes
        # nothing, so it is timed in process CPU seconds: host scheduling
        # noise stays out, the program's replay work stays in
        reopen_s: List[float] = []
        reopen_wall_s: List[float] = []
        reopened = None
        deadline = perf() + self.scale.reopen_seconds
        while len(reopen_s) < self.scale.reopens or perf() < deadline:
            reopened = None
            quiesce()
            start, start_cpu = perf(), time.process_time()
            try:
                reopened = stack.reopen()
            except TDBError as exc:
                m.fail(f"reopen after crash: {type(exc).__name__}: {exc}")
                break
            reopen_s.append(time.process_time() - start_cpu)
            reopen_wall_s.append(perf() - start)
        if reopened is not None:
            try:
                for problem in self.check_durable(ObjectStore(reopened)):
                    m.fail(f"after recovery: {problem}")
            except TDBError as exc:
                m.fail(f"after recovery: {type(exc).__name__}: {exc}")
        return {
            "map_height": height,
            "recovery_s": reopen_s,
            "recovery_wall_s": reopen_wall_s,
            "residual_checkpoints": residual_checkpoints,
            **space,
        }

    def caption_problems(self, map_height: int, moved: Dict[str, float]) -> List[str]:
        """Ways the run failed to exercise what the workload claims to: a
        figure that no longer measures what its caption says is a bug.
        ``moved`` holds how far each program counter moved in the timed
        phases."""
        return []

    def server_counters(self) -> Dict[str, int]:
        """The serving layer's tallies (zero where no server runs)."""
        return {"batches": 0, "batched_txs": 0, "snapshots_created": 0,
                "snapshots_reused": 0}

    #: objects the residual writes cycle over
    RESIDUAL_POOL = 64

    def residual_pool(self, rng) -> list:
        """The objects the residual writes may touch."""
        return rng.sample(range(self.object_count()), self.RESIDUAL_POOL)

    def residual_write(self, rng, pool: list, m: Measurement) -> None:
        raise NotImplementedError

    def check_durable(self, objects) -> List[str]:
        raise NotImplementedError

    def live_user_bytes(self) -> int:
        raise NotImplementedError

    def sizes(self) -> Dict[str, Any]:
        """The workload's object count beside each cache's capacity."""
        chunks = self.stack.chunks
        return {
            "objects": self.object_count(),
            "objectstore_cache_entries": self.stack.objects.cache._max,
            "descriptor_cache_entries": chunks.config.cache_size,
            "payload_cache_bytes": chunks.config.payload_cache_bytes,
            "device_bytes": self.stack.device_bytes,
            "segment_bytes": chunks.config.segment_size,
            "flush_every_commit": chunks.config.flush_every_commit,
            "device": "FileUntrustedStore (fsync on every flush)",
            "partition_cipher": chunks.partitions[self.stack.partition].cipher.name,
            "system_cipher": chunks.config.system_cipher,
            "validation_mode": chunks.config.validation_mode,
        }

    def object_count(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        if self.stack is not None:
            self.stack.close()
            self.stack = None


# ---------------------------------------------------------------------------
# bigmap: uniform random single-object reads over ~10^5 objects
# ---------------------------------------------------------------------------


class BigMap(Workload):
    """90% single-object read transactions, 10% four-object update
    transactions, uniform over a map three levels deep."""

    name = "bigmap"
    READ_SHARE = 0.9
    WRITE_OBJECTS = 4
    MIN_MAP_HEIGHT = 3

    def caption_problems(self, map_height: int, moved: Dict[str, float]) -> List[str]:
        if map_height < self.MIN_MAP_HEIGHT:
            return [f"bigmap reached map height {map_height}, "
                    f"below {self.MIN_MAP_HEIGHT}"]
        return []

    def load(self) -> None:
        rng = seeded(self.seed, "bigmap.load")
        objects, pid = self.stack.objects, self.stack.partition
        count, size = self.scale.objects, self.scale.payload_bytes
        self.model: List[Tuple[int, int, bytes]] = [
            (key, 0, rng.randbytes(size)) for key in range(count)
        ]
        self.refs = []
        batch = 2048
        for first in range(0, count, batch):
            with objects.transaction() as tx:
                for key in range(first, min(count, first + batch)):
                    self.refs.append(tx.create(pid, self.model[key]))
        self.rng = seeded(self.seed, "bigmap.requests")

    def object_count(self) -> int:
        return len(self.model)

    def _read(self, key: int):
        with self.stack.objects.transaction() as tx:
            return tx.get(self.refs[key])

    def _write(self, values: Dict[int, tuple]):
        olds = []
        with self.stack.objects.transaction() as tx:
            for key, value in values.items():
                ref = self.refs[key]
                olds.append(tx.get_for_update(ref))
                tx.update(ref, value)
        return olds

    def _new_values(self, rng, keys) -> Dict[int, tuple]:
        size = self.scale.payload_bytes
        return {
            key: (key, self.model[key][1] + 1, rng.randbytes(size))
            for key in sorted(keys)
        }

    def request(self, m: Measurement, tracer) -> None:
        rng = self.rng
        if rng.random() < self.READ_SHARE:
            key = rng.randrange(len(self.model))
            ok, value, seconds = self.timed(m, tracer, self._read, key)
            if not ok:
                return
            if value != self.model[key]:
                m.fail(f"read of object {key} returned a stale or wrong value")
                return
            m.reads += 1
            m.read_us.append(seconds * 1e6)
        else:
            values = self._new_values(
                rng, rng.sample(range(len(self.model)), self.WRITE_OBJECTS)
            )
            ok, olds, seconds = self.timed(m, tracer, self._write, values)
            if not ok:
                return
            if not self._acknowledge(values, olds, m):
                return
            m.write_us.append(seconds * 1e6)
        m.ops += 1
        m.busy_s += seconds

    def _acknowledge(self, values, olds, m: Measurement) -> bool:
        for (key, value), old in zip(values.items(), olds):
            if old != self.model[key]:
                m.fail(f"update of object {key} read a stale or wrong value")
                return False
            self.model[key] = value
            m.user_bytes += _pickled_size(value)
        return True

    def residual_write(self, rng, pool: list, m: Measurement) -> None:
        values = self._new_values(rng, rng.sample(pool, self.WRITE_OBJECTS))
        try:
            olds = self._write(values)
        except TDBError as exc:
            m.fail(f"residual write: {type(exc).__name__}: {exc}")
            return
        self._acknowledge(values, olds, m)

    def check_durable(self, objects) -> List[str]:
        problems = []
        batch = 4096
        for first in range(0, len(self.refs), batch):
            refs = self.refs[first : first + batch]
            with objects.transaction() as tx:
                values = tx.get_many(refs)
            for key, value in enumerate(values, start=first):
                if value != self.model[key]:
                    problems.append(f"object {key} lost its last acknowledged value")
        return problems

    def live_user_bytes(self) -> int:
        return sum(_pickled_size(value) for value in self.model)


# ---------------------------------------------------------------------------
# bindrelease: the paper's Figure 10 mix through the collection store
# ---------------------------------------------------------------------------


class BindRelease(Workload):
    """Alternating bind and release experiments, one closed-loop client."""

    name = "bindrelease"
    #: free log space idle-time cleaning keeps: room for several
    #: experiments (one writes ~0.5 MiB).  The store's own on-demand
    #: cleaning cannot keep this mix going: the dirty-threshold checkpoint
    #: at the top of ``ChunkStore.commit`` runs before its capacity check
    #: and exhausts the free segments first (StorageFullError).
    IDLE_HEADROOM_BYTES = 2 * 1024 * 1024

    def caption_problems(self, map_height: int, moved: Dict[str, float]) -> List[str]:
        if moved["cleaner_passes"] == 0:
            return ["bindrelease completed no cleaner pass"]
        return []

    def load(self) -> None:
        rng = seeded(self.seed, "bindrelease.load")
        self.schema = figure10.make_schema()
        keys = KeyFunctionRegistry()
        for name in figure10.index_fields(self.schema):
            keys.register(name, field_key(name))
        self.key_functions = keys
        objects = self.stack.objects
        self.collections_store = CollectionStore(
            objects, self.stack.partition, keys
        )
        cs = self.collections_store
        self.colls = {}
        with objects.transaction() as tx:
            for spec in self.schema:
                coll = cs.create_collection(tx, spec.name)
                for index in spec.indexes:
                    cs.add_index(tx, coll, index.name, index.field,
                                 index.sorted_index)
                self.colls[spec.name] = coll
        #: oracle: ref -> last acknowledged value, per-collection live refs
        #: (in a fixed order, so seeded picks repeat) and ident -> ref
        self.model: Dict[Any, Dict[str, Any]] = {}
        self.live: Dict[str, List[Any]] = {}
        self.by_ident: Dict[str, Dict[int, Any]] = {}
        for spec in self.schema:
            added = []
            with objects.transaction() as tx:
                for ident in range(figure10.INITIAL_OBJECTS):
                    obj = figure10.make_object(rng, spec.name, ident)
                    added.append((cs.insert(tx, self.colls[spec.name], obj), obj))
            self.live[spec.name] = [ref for ref, _ in added]
            self.by_ident[spec.name] = {obj["ident"]: ref for ref, obj in added}
            self.model.update(added)
        self.next_ident = figure10.FIRST_NEW_IDENT
        # "the benchmark loads the cache before executing an experiment"
        with objects.transaction() as tx:
            tx.get_many(list(self.model))
        self.lookup_index = {spec.name: spec.indexes[0].name for spec in self.schema}
        self.rng = seeded(self.seed, "bindrelease.requests")
        self.kind = "bind"
        self.pending_ops: List[List[Dict[str, int]]] = []

    def object_count(self) -> int:
        return len(self.model)

    # -- planning (untimed): every random choice is made here ----------------

    def _plan(self, rng, budget: Dict[str, int]) -> Dict[str, list]:
        live, schema = self.live, self.schema
        reads = []
        for _ in range(budget["read"]):
            name = rng.choice(schema).name
            lookup = (
                rng.randrange(figure10.INITIAL_OBJECTS)
                if rng.random() < figure10.LOOKUP_SHARE
                else None
            )
            reads.append((name, lookup, rng.choice(live[name])))
        updates = []
        for position in range(budget["update"]):
            name = rng.choice(schema).name
            price = rng.randint(0, 999) if position % 8 == 0 else None
            updates.append((name, rng.choice(live[name]), price))
        deletes = []
        for _ in range(budget["delete"]):
            name = rng.choice(schema).name
            if len(live[name]) > 5:
                deletes.append((name, live[name].pop(rng.randrange(len(live[name])))))
        adds = []
        for _ in range(budget["add"]):
            name = rng.choice(schema).name
            self.next_ident += 1
            adds.append((name, figure10.make_object(rng, name, self.next_ident)))
        return {"reads": reads, "updates": updates, "deletes": deletes, "adds": adds}

    # -- one transaction (timed) ---------------------------------------------

    def _transaction(self, plan: Dict[str, list]) -> Dict[str, list]:
        cs, colls = self.collections_store, self.colls
        index_of = self.lookup_index
        read_log, update_log, added = [], [], []
        with self.stack.objects.transaction() as tx:
            start = perf()
            for name, lookup, ref in plan["reads"]:
                hits = None
                if lookup is not None:
                    hits = cs.exact(tx, colls[name], index_of[name], lookup)
                    if hits:
                        ref = hits[0]
                read_log.append((name, lookup, hits, ref, tx.get(ref)))
            browse_s = perf() - start
            for name, ref, price in plan["updates"]:
                old = tx.get(ref)
                new = dict(old)
                new["uses"] += 1
                if price is not None:
                    new["price"] = price
                cs.update(tx, colls[name], ref, new)
                update_log.append((ref, old, new))
            for name, ref in plan["deletes"]:
                cs.remove(tx, colls[name], ref)
            for name, obj in plan["adds"]:
                added.append((name, cs.insert(tx, colls[name], obj), obj))
        return {
            "reads": read_log,
            "browse_s": browse_s,
            "updates": update_log,
            "added": added,
        }

    # -- oracle (untimed) -----------------------------------------------------

    def _verify(self, plan, log, m: Measurement) -> bool:
        for name, lookup, hits, ref, value in log["reads"]:
            if lookup is not None:
                expected = self.by_ident[name].get(lookup)
                if hits != ([expected] if expected is not None else []):
                    m.fail(f"index lookup {name}[{lookup}] returned {hits}")
                    return False
            if value != self.model.get(ref):
                m.fail(f"read of {ref} returned a stale or wrong value")
                return False
        overlay: Dict[Any, Dict[str, Any]] = {}
        for ref, old, new in log["updates"]:
            if old != overlay.get(ref, self.model.get(ref)):
                m.fail(f"update of {ref} read a stale or wrong value")
                return False
            overlay[ref] = new
        return True

    def _acknowledge(self, plan, log, m: Measurement) -> None:
        for ref, _old, new in log["updates"]:
            self.model[ref] = new
            m.user_bytes += _pickled_size(new)
        for name, ref in plan["deletes"]:
            del self.by_ident[name][self.model.pop(ref)["ident"]]
        for name, ref, obj in log["added"]:
            self.model[ref] = obj
            self.live[name].append(ref)
            self.by_ident[name][obj["ident"]] = ref
            m.user_bytes += _pickled_size(obj)

    # -- one bind or release operation ---------------------------------------

    def run(self, seconds: float, tracer=None) -> Measurement:
        """Whole experiment pairs (a bind experiment, then a release one)
        until the time is up, so every run samples the Figure 10 mix
        exactly.

        Write latency is sampled on bind transactions only: they carry
        the mix's commits (733 updates and 220 adds per experiment)
        while release transactions are read-mostly and five times
        shorter, and a median pooled over the two modes lands in the gap
        between them (it spread 26% between seeds)."""
        measurement = Measurement()
        deadline = perf() + seconds
        while not measurement.failed and (
            perf() < deadline or self.pending_ops or self.kind != "bind"
        ):
            self.request(measurement, tracer)
        return measurement

    def request(self, m: Measurement, tracer) -> None:
        if not self.pending_ops:
            self.running = self.kind
            self.pending_ops = figure10.operation_budgets(self.running)
            self.kind = "release" if self.running == "bind" else "bind"
        busy = 0.0
        for budget in self.pending_ops.pop(0):
            plan = self._plan(self.rng, budget)
            ok, log, seconds = self.timed(m, tracer, self._transaction, plan)
            if not ok or not self._verify(plan, log, m):
                return
            self._acknowledge(plan, log, m)
            busy += seconds
            if self.running == "bind":
                m.write_us.append(seconds * 1e6)
            m.read_us.append(log["browse_s"] * 1e6)
            m.reads += 1
        if not self.pending_ops:
            ok, _cleaned, seconds = self.timed(m, tracer, self._idle_clean)
            if not ok:
                return
            busy += seconds
        m.ops += 1
        m.busy_s += busy

    def _idle_clean(self) -> int:
        """Clean between experiments, as the paper's cleaner does in idle
        time, until ``IDLE_HEADROOM_BYTES`` of the device are free.  Its
        time counts in throughput, not in any latency."""
        chunks = self.stack.chunks
        limit = self.stack.device_bytes - self.IDLE_HEADROOM_BYTES
        cleaned = 0
        while chunks.stored_bytes() > limit:
            if chunks.clean(1) == 0:
                break
            cleaned += 1
        return cleaned

    def residual_pool(self, rng) -> list:
        """Objects from the initial load that are still live, so the
        residual log touches the same map region however far the timed
        phase grew the database."""
        initial = [
            (spec.name, ref)
            for spec in self.schema
            for ident, ref in sorted(self.by_ident[spec.name].items())
            if ident < figure10.INITIAL_OBJECTS
        ]
        return rng.sample(initial, self.RESIDUAL_POOL)

    def residual_write(self, rng, pool: list, m: Measurement) -> None:
        """Two updates of objects from the pool."""
        updates = [(name, ref, None) for name, ref in rng.sample(pool, 2)]
        plan = {"reads": [], "updates": updates, "deletes": [], "adds": []}
        try:
            log = self._transaction(plan)
        except TDBError as exc:
            m.fail(f"residual write: {type(exc).__name__}: {exc}")
            return
        if self._verify(plan, log, m):
            self._acknowledge(plan, log, m)

    def check_durable(self, objects) -> List[str]:
        cs = CollectionStore(objects, self.stack.partition, self.key_functions)
        problems = []
        refs = list(self.model)
        with objects.transaction() as tx:
            for ref, value in zip(refs, tx.get_many(refs)):
                if value != self.model[ref]:
                    problems.append(f"{ref} lost its last acknowledged value")
            for spec in self.schema:
                expected = self.by_ident[spec.name]
                for ident in range(figure10.INITIAL_OBJECTS):
                    hits = cs.exact(
                        tx, self.colls[spec.name], spec.indexes[0].name, ident
                    )
                    want = [expected[ident]] if ident in expected else []
                    if hits != want:
                        problems.append(f"index {spec.name}[{ident}] is {hits}")
        return problems

    def live_user_bytes(self) -> int:
        return sum(_pickled_size(value) for value in self.model.values())


# ---------------------------------------------------------------------------
# serve: two sessions on two threads through the serving layer
# ---------------------------------------------------------------------------


class Serve(Workload):
    """``TDBServer`` with two closed-loop sessions, each on its own
    thread, over a database that fits every cache: 80% snapshot reads of
    eight random objects, 20% two-object update transactions.

    Every update touches one object of a small hot set (the sessions'
    shared records) and one of the rest, both taken under exclusive locks
    in key order, so sessions contend for locks but never deadlock.
    Each thread draws its requests from its own seeded stream; how the
    two threads interleave is up to the scheduler, so the oracle accepts
    any committed version no older than the last one acknowledged when
    the request began, and checks its payload."""

    name = "serve"
    SESSIONS = 2
    READ_SHARE = 0.8
    READ_OBJECTS = 8
    HOT_OBJECTS = 16
    #: how long a thread may hold the interpreter lock while another
    #: waits.  With the interpreter's default of 5 ms a session back from
    #: ``fsync`` waited up to 5 ms for the other to yield, and the write
    #: median landed between zero and one such wait (README.md)
    SWITCH_INTERVAL_S = 0.0005

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.server: Optional[TDBServer] = None
        self._oracle = threading.Lock()

    def caption_problems(self, map_height: int, moved: Dict[str, float]) -> List[str]:
        if moved["batches"] == 0:
            return ["serve committed no transaction through group commit"]
        if moved["snapshots_created"] == 0:
            return ["serve took no snapshot"]
        return []

    def _value(self, key: int, version: int) -> tuple:
        """Version ``version`` of object ``key``: its payload follows
        from the seed, so any read can be checked without a history."""
        payload = hashlib.shake_128(
            f"{self.seed}:{key}:{version}".encode()
        ).digest(self.scale.payload_bytes)
        return (key, version, payload)

    def load(self) -> None:
        objects, pid = self.stack.objects, self.stack.partition
        count = self.scale.objects
        #: oracle: last acknowledged version per object
        self.acked = [0] * count
        self.refs = []
        with objects.transaction() as tx:
            for key in range(count):
                self.refs.append(tx.create(pid, self._value(key, 0)))
        with objects.transaction() as tx:
            tx.get_many(self.refs)
        self.server = TDBServer(objects)
        self.sessions = [self.server.session() for _ in range(self.SESSIONS)]
        self.rngs = [
            seeded(self.seed, f"serve.session{index}")
            for index in range(self.SESSIONS)
        ]

    def warm(self) -> None:
        untimed = Measurement()
        for index in range(self.scale.warmup_ops):
            self._request(index % self.SESSIONS, untimed, None)
        if untimed.failed:
            raise RuntimeError(f"warm-up failed: {untimed.errors}")

    def object_count(self) -> int:
        return len(self.refs)

    def server_counters(self) -> Dict[str, int]:
        committer, snapshots = self.server.committer, self.server.snapshots
        return {
            "batches": committer.batches,
            "batched_txs": committer.txs_committed,
            "snapshots_created": snapshots.created,
            "snapshots_reused": snapshots.reused,
        }

    # -- the timed phase ------------------------------------------------------

    def run(self, seconds: float, tracer=None) -> Measurement:
        """Both sessions until the time is up or one of them fails;
        throughput is completed requests over the phase's wall time."""
        results = [Measurement() for _ in self.sessions]
        stop = threading.Event()
        start_line = threading.Barrier(self.SESSIONS + 1)

        def client(index: int) -> None:
            m = results[index]
            start_line.wait()
            try:
                while not stop.is_set() and not m.failed:
                    self._request(index, m, tracer)
            except Exception as exc:  # a bug, not a store error: stop both
                m.fail(f"session {index}: {type(exc).__name__}: {exc}")
            finally:
                if m.failed:
                    stop.set()

        threads = [
            threading.Thread(target=client, args=(index,), name=f"session{index}")
            for index in range(self.SESSIONS)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(self.SWITCH_INTERVAL_S)
        try:
            for thread in threads:
                thread.start()
            start_line.wait()
            start = perf()
            stop.wait(seconds)
            stop.set()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous)
        merged = Measurement(busy_s=perf() - start)
        for m in results:
            merged.merge(m)
        return merged

    def _request(self, index: int, m: Measurement, tracer) -> None:
        rng, session = self.rngs[index], self.sessions[index]
        if rng.random() < self.READ_SHARE:
            keys = rng.sample(range(len(self.refs)), self.READ_OBJECTS)
            floors = [self.acked[key] for key in keys]
            ok, values, seconds = self.timed(
                m, tracer, self._snapshot_read, session, keys
            )
            if not ok:
                return
            for key, floor, value in zip(keys, floors, values):
                if not self._plausible(key, value, floor):
                    m.fail(f"snapshot read of object {key} returned {value[:2]!r}, "
                           f"acknowledged version {floor}")
                    return
            m.reads += 1
            m.read_us.append(seconds * 1e6)
        else:
            keys = (
                rng.randrange(self.HOT_OBJECTS),
                rng.randrange(self.HOT_OBJECTS, len(self.refs)),
            )
            floors = [self.acked[key] for key in keys]
            ok, olds, seconds = self.timed(m, tracer, self._update, session, keys)
            if not ok or not self._acknowledge(keys, floors, olds, m):
                return
            m.write_us.append(seconds * 1e6)
        m.ops += 1

    def _snapshot_read(self, session, keys):
        refs = self.refs
        with session.snapshot(self.stack.partition) as snapshot:
            return snapshot.get_many([refs[key] for key in keys])

    def _update(self, transactions, keys):
        """Bump each object's version; ``transactions`` is a session or
        the object store (for the residual writes)."""
        olds = []
        with transactions.transaction() as tx:
            for key in keys:
                ref = self.refs[key]
                old = tx.get_for_update(ref)
                olds.append(old)
                tx.update(ref, self._value(key, old[1] + 1))
        return olds

    def _plausible(self, key: int, value, floor: int) -> bool:
        return (
            isinstance(value, tuple)
            and len(value) == 3
            and value[0] == key
            and value[1] >= floor
            and value == self._value(key, value[1])
        )

    def _acknowledge(self, keys, floors, olds, m: Measurement) -> bool:
        for key, floor, old in zip(keys, floors, olds):
            if not self._plausible(key, old, floor):
                m.fail(f"update of object {key} read {old[:2]!r}, "
                       f"acknowledged version {floor}")
                return False
        with self._oracle:
            for key, old in zip(keys, olds):
                self.acked[key] = max(self.acked[key], old[1] + 1)
        m.user_bytes += sum(
            _pickled_size(self._value(key, old[1] + 1))
            for key, old in zip(keys, olds)
        )
        return True

    # -- the common ending ----------------------------------------------------

    def finish(self, m: Measurement, after_crash=None) -> Dict[str, Any]:
        # close the server first: the residual writes then take the plain
        # commit path, and no snapshot view outlives the crash
        self.server.close()
        return super().finish(m, after_crash)

    def residual_write(self, rng, pool: list, m: Measurement) -> None:
        keys = sorted(rng.sample(pool, 2))
        floors = [self.acked[key] for key in keys]
        try:
            olds = self._update(self.stack.objects, keys)
        except TDBError as exc:
            m.fail(f"residual write: {type(exc).__name__}: {exc}")
            return
        self._acknowledge(keys, floors, olds, m)

    def check_durable(self, objects) -> List[str]:
        with objects.transaction() as tx:
            values = tx.get_many(self.refs)
        return [
            f"object {key} lost its last acknowledged value"
            for key, value in enumerate(values)
            if value != self._value(key, self.acked[key])
        ]

    def live_user_bytes(self) -> int:
        return sum(
            _pickled_size(self._value(key, version))
            for key, version in enumerate(self.acked)
        )

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        super().close()


WORKLOADS = {cls.name: cls for cls in (BindRelease, BigMap, Serve)}
