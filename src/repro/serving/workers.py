"""Real multi-process serving data plane over an mmap checkpoint.

Everything else in :mod:`repro.serving` measures *simulated* seconds on
the roofline cost model; this module is the wall-clock counterpart: a
pool of genuine OS worker processes that each open the frozen model's
``phi`` / ``phi_cdf`` / ``prior_mass`` straight off an mmap checkpoint
(:func:`repro.core.serialization.save_model_mmap`) with
``mmap_mode="r"``, so N workers share **one physical copy** of the model
through the page cache — replication without N× the memory.

The shape follows the classic multiprocessing job-runner discipline
(per-job argument packs, a pool of long-lived workers, one log file per
worker, crash containment in the parent):

* :class:`WorkerJobSpec` — the pickled argument pack a worker boots
  from: checkpoint directory, RNG seed, sweep count, sampler kind,
  backend, log path.  Workers never receive live objects, only the
  recipe to open their own (shared) view of the model.
* :func:`_worker_main` — the worker loop: open the checkpoint
  read-only, announce readiness (including whether ``phi`` really is a
  memory map — asserted by the tests), then serve micro-batches off a
  task queue until told to stop, appending one log line per batch.
* :class:`WorkerPool` — the parent-side data plane: feeds micro-batches
  over real IPC (one task queue per worker, one shared result queue),
  balances by outstanding batches, and survives worker failure —
  a crashed or wedged worker is detected (liveness + per-batch
  deadline), its in-flight batches are retried on surviving workers up
  to ``DegradationPolicy.max_retries``, and when no worker can answer
  the pool degrades gracefully to in-process execution.  The
  conservation invariant ``admitted == answered + pending + failed``
  holds through every fault path.

Faults are injected one way only: a :class:`~repro.serving.faults.FaultPlan`
keyed by ``(lane, incarnation, lane-local batch index)``, so a fault stays
on its lane — a batch retried or hedged elsewhere never replays it.
Recovery is configured one way only: the pool's
:class:`~repro.serving.supervisor.DegradationPolicy`.

Results are **bit-identical** to the single in-process engine: a
request's draws are keyed by ``(seed, request_id)`` alone
(:func:`~repro.serving.foldin.request_rng`), and the mmapped arrays are
byte-for-byte the arrays :meth:`FrozenModelState.prepare` computes — so
neither the worker count, the batch packing, nor a mid-stream crash and
retry can change a single theta byte
(:func:`~repro.serving.pool.pool_results_digest` is the anchor).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..kernels.backend import KernelBackend, resolve_backend
from ..saberlda.config import PreprocessKind
from ..telemetry.clock import WallClock
from ..telemetry.metrics import MetricsRegistry, null_metrics
from ..telemetry.tracer import Tracer, merge_worker_payloads, null_tracer
from .faults import NO_FAULT, FaultInjector, FaultPlan
from .foldin import FoldInResult, FrozenModelState, request_rng
from .pool import PoolBatchExecution
from .queue import ServingRequest
from .scheduler import InferenceBatch
from .stats import LatencyReportMixin, dispatch_tally_increment
from .supervisor import DegradationPolicy, Supervisor

#: Phase key wall-clock executions report under (there is no simulated
#: phase breakdown on a real process — one measured number).
PHASE_WALL = "wall"

#: How often the parent polls the result queue while sweeping deadlines.
_POLL_SECONDS = 0.05

#: Idle-liveness beacon period: an idle worker emits a ``"heartbeat"``
#: each time its task queue stays empty this long.
_HEARTBEAT_SECONDS = 0.25

#: How long :meth:`WorkerPool.start` waits for every worker's ``"ready"``.
_READY_TIMEOUT_SECONDS = 120.0

#: The one deadline :meth:`WorkerPool.close` joins every lane against
#: before it kills whatever is still alive.
_CLOSE_SECONDS = 5.0

#: Every message placed on a worker queue is a tagged tuple whose first
#: element names its kind — and every kind must be declared here.  This
#: is the wire-format whitelist the IPC002 lint rule enforces: adding a
#: new message shape means adding its tag (and documenting its payload
#: in :func:`_worker_main`), so the IPC surface can never grow by
#: accident.
WIRE_MESSAGE_KINDS = frozenset(
    {
        "batch",       # parent -> worker: (batch_id, attempt, payload)
        "cancel",      # parent -> worker: (batch_id, attempt) — hedge loser
        "stop",        # parent -> worker: shut down after current batch
        "ready",       # worker -> parent: (worker_id, incarnation, boot info dict)
        "boot_error",  # worker -> parent: (worker_id, incarnation, traceback text)
        "ok",          # worker -> parent: (worker_id, incarnation, batch_id, attempt, results, seconds)
        "error",       # worker -> parent: (worker_id, incarnation, batch_id, attempt, traceback text)
        "cancelled",   # worker -> parent: (worker_id, incarnation, batch_id, attempt)
        "heartbeat",   # worker -> parent: (worker_id, incarnation, seq)
        "telemetry",   # worker -> parent: (worker_id, incarnation, seq, spans wire, metrics wire)
    }
)

#: One serialized request on the wire: ``(request_id, word_ids)``.
RequestPayload = Tuple[int, np.ndarray]


@dataclass(frozen=True)
class WorkerJobSpec:
    """The per-job argument pack a worker process boots from.

    Everything a worker needs travels in this one picklable record —
    workers share *nothing* with the parent except the checkpoint files
    they re-open read-only (that re-open is what makes the model pages
    shared rather than copied).
    """

    worker_id: int
    checkpoint_dir: str
    seed: int
    num_sweeps: int
    preprocess: str
    sampler_capacity: int
    backend: str
    log_path: str
    mmap_mode: Optional[str] = "r"
    #: Ship per-batch span/metric buffers back over the result queue
    #: (one ``"telemetry"`` message immediately before each ``"ok"``).
    trace: bool = False
    #: Which respawn generation of the lane this process is (0 = the
    #: original).  Stamped on every message the worker sends so the
    #: parent can discard stragglers from reaped incarnations.
    incarnation: int = 0
    #: Deterministic chaos schedule this worker enacts at the pinned
    #: hook points (boot, before each lane-local batch).  ``None``: no
    #: faults, zero overhead.
    fault_plan: Optional[FaultPlan] = None


@dataclass(frozen=True)
class BatchOutcome:
    """One micro-batch's journey through the pool.

    ``worker_id`` is the worker that finally answered (``-1`` for the
    in-process fallback), ``attempts`` how many submissions it took
    (1 = no fault), ``latency_seconds`` the wall clock from first
    submission to the collected answer.
    """

    batch_id: int
    request_ids: List[int]
    results: List[FoldInResult]
    worker_id: int
    attempts: int
    latency_seconds: float
    status: str  # "answered" | "failed"


@dataclass
class _InFlight:
    """Parent-side record of one batch between submit and resolve.

    ``worker_id`` / ``primary_attempt`` identify the live primary
    dispatch (``-1``: parked, waiting for a lane); ``hedge_worker_id`` /
    ``hedge_attempt`` the live hedge duplicate, if any.  ``next_attempt``
    mints a unique wire attempt id per (re)dispatch so a stale answer
    from any superseded dispatch can never be mistaken for the live one.
    ``dispatch_count`` counts *primary* dispatches only — it is the
    retry budget and the ``attempts`` the outcome reports; hedges ride
    for free (see ``dispatch_tally_increment`` in ``stats.py``).
    """

    payload: List[RequestPayload]
    worker_id: int
    submitted: float
    first_submitted: float
    deadline: float
    primary_attempt: int = -1
    next_attempt: int = 1
    dispatch_count: int = 0
    hedge_worker_id: int = -1
    hedge_attempt: int = -1
    hedge_deadline: Optional[float] = None  # when to fire the hedge (None: never/fired)
    trace_started: float = 0.0  # pool-tracer clock time of first submission


def _worker_main(spec: WorkerJobSpec, task_queue, result_queue) -> None:
    """Worker process entry point: open the shared model, serve batches.

    Protocol (all messages are plain picklable tuples):

    * parent -> worker: ``("batch", batch_id, attempt, payload)``,
      ``("cancel", batch_id, attempt)`` or ``("stop",)``.
    * worker -> parent, each tagged ``(kind, worker_id, incarnation,
      ...)`` as :data:`WIRE_MESSAGE_KINDS` lists: ``"ready"`` once after
      boot, ``"heartbeat"`` whenever the task queue stays empty for
      ``_HEARTBEAT_SECONDS``, then ``"ok"``, ``"error"`` or
      ``"cancelled"`` per batch.
    * with ``spec.trace``, a ``("telemetry", worker_id, incarnation,
      seq, spans, metrics)`` message precedes each ``"ok"`` on the same queue —
      the queue is FIFO per sender, so the parent always holds a
      batch's telemetry before it resolves the batch; ``seq`` counts
      the worker's telemetry messages so the parent-side merge is
      ordered even though workers interleave arbitrarily.

    Faults come only from ``spec.fault_plan``, looked up by this lane's
    own batch counter: a scheduled stall sleeps before executing, a
    scheduled crash hard-exits the process (``os._exit`` after flushing
    the shared result queue's feeder, so the death is confined to this
    lane), a scheduled reply drop computes the batch but never answers.
    The wire carries no fault, so a batch re-sent to another lane (retry
    or hedge) runs clean there.
    """
    # SIGTERM (the parent's escalation signal) must not kill this process
    # between a feeder-thread write to the shared result queue and the
    # release of the queue's write lock — the orphaned lock would wedge
    # every other lane's messages forever.  Convert it to SystemExit in
    # the main thread: the unwind runs multiprocessing's exit handlers,
    # which join the feeder so in-flight sends complete and unlock.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(0))
    log = open(spec.log_path, "a", encoding="utf-8", buffering=1)
    incarnation = spec.incarnation

    def log_line(message: str) -> None:
        log.write(
            f"{time.strftime('%H:%M:%S')} worker{spec.worker_id:02d}"
            f".{incarnation} {message}\n"
        )

    injector = (
        FaultInjector(spec.fault_plan, spec.worker_id, incarnation)
        if spec.fault_plan is not None
        else None
    )
    try:
        if injector is not None:
            injector.check_boot()
        state = FrozenModelState.from_mmap_checkpoint(
            spec.checkpoint_dir,
            kind=PreprocessKind(spec.preprocess),
            sampler_capacity=spec.sampler_capacity,
            backend=spec.backend,
            mmap_mode=spec.mmap_mode,
        )
        info = {
            "pid": os.getpid(),
            "phi_is_memmap": isinstance(state.phi, np.memmap),
            "phi_cdf_is_memmap": isinstance(state.bank.phi_cdf, np.memmap),
            "phi_filename": getattr(state.phi, "filename", None),
            "mmap_mode": spec.mmap_mode,
        }
        result_queue.put(("ready", spec.worker_id, incarnation, info))
        log_line(f"ready pid={info['pid']} phi_is_memmap={info['phi_is_memmap']}")
    except Exception:
        result_queue.put(
            ("boot_error", spec.worker_id, incarnation, traceback.format_exc())
        )
        log.close()
        return

    tracer = Tracer(WallClock()) if spec.trace else null_tracer()
    metrics = MetricsRegistry() if spec.trace else null_metrics()
    telemetry_seq = 0
    heartbeat_seq = 0
    batch_index = 0  # lane-local batch counter — the fault plan's clock
    track = spec.worker_id + 1  # parent-side spans own track 0
    backlog = deque()  # batches waiting behind the one executing
    cancelled: Set[Tuple[int, int]] = set()  # (batch_id, attempt) to skip
    stopping = False

    while not stopping:
        if not backlog:
            try:
                backlog.append(task_queue.get(timeout=_HEARTBEAT_SECONDS))
            except queue_module.Empty:
                # Idle liveness beacon: lets the parent distinguish "no
                # work" from "wedged" without dispatching a probe batch.
                result_queue.put(("heartbeat", spec.worker_id, incarnation, heartbeat_seq))
                heartbeat_seq += 1
                continue
        # Absorb everything already queued before executing: a "cancel"
        # for a batch still in the backlog must win over FIFO order.
        while True:
            try:
                backlog.append(task_queue.get_nowait())
            except queue_module.Empty:
                break
        message = backlog.popleft()
        if message[0] == "stop":
            log_line("stopping")
            stopping = True
            continue
        if message[0] == "cancel":
            _kind, batch_id, attempt = message
            cancelled.add((batch_id, attempt))
            continue
        _kind, batch_id, attempt, payload = message
        if (batch_id, attempt) in cancelled:
            cancelled.discard((batch_id, attempt))
            result_queue.put(("cancelled", spec.worker_id, incarnation, batch_id, attempt))
            log_line(f"batch={batch_id} attempt={attempt} CANCELLED before start")
            continue
        action = injector.before_batch(batch_index) if injector is not None else NO_FAULT
        batch_index += 1
        if action.crash:
            log_line(f"batch={batch_id} attempt={attempt} FAULT crash")
            log.close()
            # Flush this process's feeder thread before hard-exiting.
            # ``result_queue`` is shared by every lane: dying while the
            # feeder is mid-write leaves the queue's write lock acquired
            # forever, silently wedging ALL workers' messages — a blast
            # radius no single-lane fault may have.  The flush delivers
            # messages already queued (previous answers, heartbeats);
            # the current batch is still never answered, which is the
            # fault being simulated.
            result_queue.close()
            result_queue.join_thread()
            os._exit(17)  # hard death for this lane only
        started = time.monotonic()
        try:
            if action.stall_seconds > 0:
                time.sleep(action.stall_seconds)
            with tracer.span("worker_batch", category="worker", track=track,
                             batch_id=batch_id, docs=len(payload)):
                results = []
                for request_id, word_ids in payload:
                    with tracer.span("fold_in", category="worker", track=track):
                        results.append(
                            _fold_in_payload(state, spec, request_id, word_ids)
                        )
            seconds = time.monotonic() - started
            if action.drop_reply:
                # The work happened; the answer vanishes on the wire.
                # Telemetry vanishes with it (nothing about this batch
                # reaches the parent — that is the fault).
                if spec.trace:
                    tracer.drain_wire()
                    metrics.drain_wire()
                log_line(f"batch={batch_id} attempt={attempt} FAULT drop_reply")
                continue
            metrics.counter("worker.batches").inc()
            metrics.counter("worker.documents").inc(len(payload))
            metrics.counter("worker.busy_seconds").inc(seconds)
            if spec.trace:
                # Telemetry first, then the answer: the queue is FIFO per
                # sender, so the parent has a batch's spans in hand before
                # it resolves (and possibly reports on) the batch.
                result_queue.put(
                    (
                        "telemetry",
                        spec.worker_id,
                        incarnation,
                        telemetry_seq,
                        tracer.drain_wire(),
                        metrics.drain_wire(),
                    )
                )
                telemetry_seq += 1
            result_queue.put(
                ("ok", spec.worker_id, incarnation, batch_id, attempt, results, seconds)
            )
            log_line(
                f"batch={batch_id} attempt={attempt} docs={len(payload)} "
                f"seconds={seconds:.4f}"
            )
        except Exception:
            result_queue.put(
                (
                    "error",
                    spec.worker_id,
                    incarnation,
                    batch_id,
                    attempt,
                    traceback.format_exc(),
                )
            )
            log_line(f"batch={batch_id} attempt={attempt} ERROR")
    log.close()


def _fold_in_payload(
    state: FrozenModelState, spec: WorkerJobSpec, request_id: int, word_ids: np.ndarray
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """One request's fold-in, keyed exactly like the in-process engine."""
    rng = request_rng(spec.seed, request_id)
    result = state.fold_in(word_ids, rng, num_sweeps=spec.num_sweeps)
    return (request_id, result.theta, result.doc_topic_counts, result.topics)


def _default_start_method() -> str:
    """``fork`` where the platform offers it (cheap boot), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass
class WorkerPool:
    """N real worker processes serving one mmap checkpoint.

    Build, :meth:`start`, feed with :meth:`submit` / :meth:`collect`
    (or the synchronous :meth:`execute`, which speaks the
    :class:`~repro.serving.pool.EnginePool` execution surface), and
    :meth:`close` — or use it as a context manager.

    Fault model: a worker that dies (crash, kill) or blows the per-batch
    ``batch_timeout_seconds`` deadline is removed from the pool and its
    in-flight batches are resubmitted to surviving workers, up to
    ``policy.max_retries`` extra attempts per batch; when attempts are
    exhausted — or no worker is alive — the batch falls back to an
    in-process engine over the same checkpoint (``policy.fallback``),
    so the data plane degrades to exactly the single-process behaviour
    instead of losing requests.  ``admitted == answered + pending +
    failed`` holds at every point.
    """

    checkpoint_dir: str
    num_workers: int = 2
    seed: int = 0
    num_sweeps: int = 15
    preprocess: PreprocessKind = PreprocessKind.WARY_TREE
    sampler_capacity: int = 4096
    backend: "KernelBackend | str" = KernelBackend.VECTORIZED
    log_dir: Optional[str] = None
    batch_timeout_seconds: float = 30.0
    mmap_mode: Optional[str] = "r"
    #: The degradation ladder (``retry → hedge → respawn → fallback →
    #: shed``) — the one place recovery is configured.  The default is
    #: bounded retry then in-process fallback, no hedging, no respawn.
    policy: DegradationPolicy = field(default_factory=DegradationPolicy)
    #: Deterministic chaos schedule shipped to every worker incarnation
    #: (see :mod:`repro.serving.faults`) — the one way to inject a fault.
    #: ``None``: no faults.
    fault_plan: Optional[FaultPlan] = None

    #: Disabled by default: pass ``Tracer(WallClock())`` /
    #: ``MetricsRegistry()`` to observe the data plane.  Workers inherit
    #: the choice through :attr:`WorkerJobSpec.trace` and ship their
    #: buffers back over the ``"telemetry"`` wire kind; the parent
    #: buffers them per worker and merges deterministically
    #: (:meth:`drain_worker_telemetry`).
    tracer: Tracer = field(default_factory=null_tracer)
    metrics: MetricsRegistry = field(default_factory=null_metrics)

    # Conservation counters: admitted == answered + pending + failed.
    admitted: int = 0
    answered: int = 0
    failed: int = 0
    retries: int = 0
    fallback_batches: int = 0
    #: Micro-batches dispatched to a worker lane, each counted exactly
    #: once at its *first* dispatch — retries and hedges re-send the
    #: same work and never increment (``dispatch_tally_increment`` in
    #: ``stats.py`` is the pinned rule).
    dispatched: int = 0

    worker_info: Dict[int, dict] = field(default_factory=dict)
    _processes: Dict[int, multiprocessing.Process] = field(default_factory=dict)
    _task_queues: Dict[int, object] = field(default_factory=dict)
    _result_queue: Optional[object] = None
    _in_flight: Dict[int, _InFlight] = field(default_factory=dict)
    # Resolved out of order while collect_batch() waited on another batch:
    # handed back, lowest batch id first, by the next collect()/collect_batch().
    _resolved: Dict[int, BatchOutcome] = field(default_factory=dict)
    _outstanding: Dict[int, int] = field(default_factory=dict)
    _next_batch_id: int = 0
    _started: bool = False
    _closed: bool = False
    _fallback_state: Optional[FrozenModelState] = None
    # Buffered worker telemetry, keyed worker_id * 1000 + incarnation so
    # a respawned worker's restarted seq counter can never collide with
    # its predecessor's in the deterministic merge.
    _telemetry: Dict[int, List[Tuple[int, list, list]]] = field(default_factory=dict)
    # Supervision state: lane -> current incarnation / last beacon time /
    # per-batch first-dispatch lane tally; (lane, incarnation) pairs whose
    # failure was already recorded (a boot_error message racing the
    # dead-process sweep must not count twice).
    _supervisor: Optional[Supervisor] = None
    _incarnations: Dict[int, int] = field(default_factory=dict)
    _ready_inc: Dict[int, int] = field(default_factory=dict)
    _last_seen: Dict[int, float] = field(default_factory=dict)
    _lane_dispatches: Dict[int, int] = field(default_factory=dict)
    _failed_incarnations: Set[Tuple[int, int]] = field(default_factory=set)
    _mp_context: Optional[object] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "WorkerPool":
        """Fork the workers and wait until every one has opened the model.

        With ``num_workers == 0`` the pool starts degraded (pure
        in-process execution) — the graceful floor every fault path
        bottoms out on.  A worker that fails to boot is dropped; if none
        boot, the pool degrades rather than raises (the checkpoint
        itself is validated eagerly either way).
        """
        if self._started:
            raise RuntimeError("WorkerPool.start() called twice")
        self._started = True
        self.backend = resolve_backend(self.backend)
        # Validate the checkpoint up front (raises on a bad path) and keep
        # the state around as the fallback engine.
        self._fallback_state = FrozenModelState.from_mmap_checkpoint(
            self.checkpoint_dir,
            kind=self.preprocess,
            sampler_capacity=self.sampler_capacity,
            backend=self.backend,
            mmap_mode=self.mmap_mode,
        )
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self._supervisor = Supervisor(
            num_lanes=self.num_workers, policy=self.policy, seed=self.seed
        )
        if self.num_workers == 0:
            return self
        if self.log_dir is None:
            self.log_dir = os.path.join(self.checkpoint_dir, "worker_logs")
        os.makedirs(self.log_dir, exist_ok=True)
        self._mp_context = multiprocessing.get_context(_default_start_method())
        self._result_queue = self._mp_context.Queue()
        for worker_id in range(self.num_workers):
            self._spawn_worker(worker_id, incarnation=0)
        self._await_ready()
        return self

    def _spawn_worker(self, worker_id: int, incarnation: int) -> None:
        """Fork one worker process for ``(lane, incarnation)``.

        Shared by :meth:`start` (incarnation 0) and the supervisor's
        respawn path.  The lane's log file persists across incarnations
        (each line is stamped ``workerNN.I``), and the fault plan rides
        along so a respawned worker enacts the events scheduled for its
        own generation.
        """
        spec = WorkerJobSpec(
            worker_id=worker_id,
            checkpoint_dir=self.checkpoint_dir,
            seed=self.seed,
            num_sweeps=self.num_sweeps,
            preprocess=self.preprocess.value,
            sampler_capacity=self.sampler_capacity,
            backend=self.backend.value,
            log_path=os.path.join(self.log_dir, f"worker{worker_id:02d}.log"),
            mmap_mode=self.mmap_mode,
            trace=self.tracer.enabled,
            incarnation=incarnation,
            fault_plan=self.fault_plan,
        )
        task_queue = self._mp_context.Queue()
        process = self._mp_context.Process(
            target=_worker_main,
            args=(spec, task_queue, self._result_queue),
            daemon=True,
            name=f"saberlda-worker-{worker_id}",
        )
        process.start()
        self._processes[worker_id] = process
        self._task_queues[worker_id] = task_queue
        self._outstanding[worker_id] = 0
        self._incarnations[worker_id] = incarnation
        self._last_seen[worker_id] = time.monotonic()

    def _await_ready(self) -> None:
        deadline = time.monotonic() + _READY_TIMEOUT_SECONDS
        awaiting = set(self._processes)
        became_ready: List[Tuple[int, int]] = []
        while awaiting and time.monotonic() < deadline:
            try:
                message = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                for worker_id in sorted(awaiting):
                    if not self._processes[worker_id].is_alive():
                        awaiting.discard(worker_id)
                        self._lane_failed(worker_id, "boot_crash")
                continue
            if message[0] == "ready":
                _kind, worker_id, incarnation, info = message
                self.worker_info[worker_id] = info
                self._ready_inc[worker_id] = incarnation
                self._last_seen[worker_id] = time.monotonic()
                awaiting.discard(worker_id)
                became_ready.append((worker_id, incarnation))
            elif message[0] == "boot_error":
                _kind, worker_id, incarnation, trace = message
                self.worker_info[worker_id] = {"boot_error": trace}
                awaiting.discard(worker_id)
                self._lane_failed(worker_id, "boot_error")
        # sorted(): `awaiting` is a set — drop wedged workers in id order
        # so the surviving pool (and its logs) never depend on hash order.
        for worker_id in sorted(awaiting):  # never announced: wedged boot
            self._lane_failed(worker_id, "boot_wedge")
        # Record readiness in lane order, not message-arrival order, so
        # the supervisor event log is identical across replayed runs.
        now = time.monotonic()
        for worker_id, incarnation in sorted(became_ready):
            self._supervisor.record_ready(worker_id, incarnation, now)

    def close(self) -> None:
        """Stop every worker against one deadline and release IPC.

        Idempotent and total: safe to call twice, and guaranteed to run
        on every exception path through the ``with`` statement.  Idle
        lanes get ``stop``; busy lanes — which never read ``stop`` while
        computing or stalled — get SIGTERM at once, which workers trap
        into a graceful exit that flushes their feeder
        (:func:`_worker_main`).  Every lane is joined against the single
        ``_CLOSE_SECONDS`` deadline, whatever is still alive is then
        killed and reaped, never leaked as a zombie; the result queue is
        drained before release so its feeder thread can't block teardown
        on a pipe full of unread answers.
        """
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + _CLOSE_SECONDS
        for worker_id, process in sorted(self._processes.items()):
            if not process.is_alive():
                continue
            if self._outstanding.get(worker_id, 0) > 0:
                process.terminate()
                continue
            try:
                self._task_queues[worker_id].put(("stop",))
            except Exception:
                process.terminate()
        for process in self._processes.values():
            process.join(timeout=max(deadline - time.monotonic(), 0.0))
        stragglers = [process for process in self._processes.values() if process.is_alive()]
        for process in stragglers:
            process.kill()
        for process in stragglers:
            process.join(timeout=1.0)  # SIGKILL cannot be trapped: prompt
        # Drain stragglers (late answers, heartbeats, telemetry) so the
        # queue's feeder thread has nothing left in flight.
        if self._result_queue is not None:
            while True:
                try:
                    self._result_queue.get_nowait()
                except queue_module.Empty:
                    break
                except (EOFError, OSError):  # queue already torn down
                    break
        for task_queue in self._task_queues.values():
            task_queue.close()
            task_queue.cancel_join_thread()
        if self._result_queue is not None:
            self._result_queue.close()
            self._result_queue.cancel_join_thread()
        self._processes.clear()
        self._task_queues.clear()
        self._outstanding.clear()

    def __enter__(self) -> "WorkerPool":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def live_workers(self) -> List[int]:
        """Worker ids currently alive and accepting batches."""
        return sorted(
            worker_id
            for worker_id, process in self._processes.items()
            if process.is_alive()
        )

    @property
    def degraded(self) -> bool:
        """True when every batch runs in-process (no live workers)."""
        return not self.live_workers

    @property
    def pending(self) -> int:
        """Batches submitted but not yet answered or failed (in documents)."""
        return sum(len(flight.payload) for flight in self._in_flight.values())

    @property
    def num_lanes(self) -> int:
        """Concurrent dispatch lanes (EnginePool surface): live workers, min 1."""
        return max(len(self.live_workers), 1)

    @property
    def model(self):
        """The frozen :class:`~repro.core.model.LDAModel` (engine surface).

        The parent's fallback state opens the same mmap checkpoint the
        workers do, so this is the model every lane serves — it is what
        the :class:`~repro.serving.server.TopicServer` admission
        validator reads ``vocabulary_size`` from.
        """
        if self._fallback_state is None:
            raise RuntimeError("WorkerPool.model before start()")
        return self._fallback_state.model

    def stats(self) -> Dict[str, object]:
        """Counters for reports, benchmarks and the conservation check."""
        supervisor = self._supervisor
        return {
            "strategy": "process_pool",
            "num_workers": self.num_workers,
            "live_workers": list(self.live_workers),
            "degraded": self.degraded,
            "admitted": self.admitted,
            "answered": self.answered,
            "failed": self.failed,
            "pending": self.pending,
            "retries": self.retries,
            "fallback_batches": self.fallback_batches,
            "dispatched": self.dispatched,
            "lane_dispatches": {
                lane: count for lane, count in sorted(self._lane_dispatches.items())
            },
            "respawns": supervisor.respawns if supervisor else 0,
            "hedged": supervisor.hedged if supervisor else 0,
            "hedge_wins": supervisor.hedge_wins if supervisor else 0,
            "quarantined": supervisor.quarantined if supervisor else 0,
            "recovery_seconds": supervisor.recovery_seconds() if supervisor else 0.0,
            "mttr_seconds": supervisor.mttr_seconds() if supervisor else 0.0,
            "breaker_states": supervisor.breaker_states() if supervisor else {},
            "ladder": list(self.policy.ladder()),
        }

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #
    def submit(
        self,
        requests: Sequence[ServingRequest],
        worker_id: Optional[int] = None,
    ) -> int:
        """Queue one micro-batch on the least-loaded live worker.

        Returns the batch id to pair with :meth:`collect`.  With no live
        worker the batch is parked in-flight and resolved by
        :meth:`collect` through the in-process fallback.  ``worker_id``
        pins the batch to one worker (tests and benchmarks).
        """
        if not self._started:
            raise RuntimeError("WorkerPool.submit() before start()")
        payload = [
            (int(request.request_id), np.asarray(request.word_ids, dtype=np.int32))
            for request in requests
        ]
        if not payload:
            raise ValueError("a batch needs at least one request")
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        self.admitted += len(payload)
        self.metrics.counter("pool.admitted").inc(len(payload))
        now = time.monotonic()
        flight = _InFlight(
            payload=payload,
            worker_id=-1,
            submitted=now,
            first_submitted=now,
            deadline=now + self.batch_timeout_seconds,
            trace_started=self.tracer.clock.now() if self.tracer.enabled else 0.0,
        )
        self._in_flight[batch_id] = flight
        target = worker_id if worker_id is not None else self._least_loaded()
        if target is None or target not in self._task_queues:
            return batch_id  # no live worker: collect() falls back in-process
        self._dispatch(batch_id, flight, target)
        return batch_id

    def _least_loaded(self, exclude: int = -1) -> Optional[int]:
        live = [
            worker_id for worker_id in self.live_workers if worker_id != exclude
        ]
        if not live:
            return None
        return min(live, key=lambda worker_id: (self._outstanding.get(worker_id, 0), worker_id))

    def _dispatch(
        self, batch_id: int, flight: _InFlight, worker_id: int, hedge: bool = False
    ) -> None:
        """Send the batch to one lane (primary dispatch or hedge duplicate).

        Dispatch accounting follows the pinned rule
        (:func:`~repro.serving.stats.dispatch_tally_increment`): only a
        batch's *first* primary dispatch increments ``dispatched`` and
        the lane tally — a retry or hedge re-sends admitted work.
        """
        attempt_id = flight.next_attempt
        flight.next_attempt += 1
        increment = dispatch_tally_increment(flight.dispatch_count, hedge)
        if increment:
            self.dispatched += increment
            self._lane_dispatches[worker_id] = (
                self._lane_dispatches.get(worker_id, 0) + increment
            )
        if hedge:
            flight.hedge_worker_id = worker_id
            flight.hedge_attempt = attempt_id
        else:
            flight.worker_id = worker_id
            flight.primary_attempt = attempt_id
            flight.dispatch_count += 1
            flight.submitted = time.monotonic()
            flight.deadline = flight.submitted + self.batch_timeout_seconds
            if self.policy.hedge and flight.hedge_worker_id < 0:
                flight.hedge_deadline = (
                    flight.submitted
                    + self.policy.hedge_after_fraction * self.batch_timeout_seconds
                )
        self._outstanding[worker_id] = self._outstanding.get(worker_id, 0) + 1
        self._task_queues[worker_id].put(("batch", batch_id, attempt_id, flight.payload))

    def collect(self, timeout: Optional[float] = None) -> BatchOutcome:
        """Wait for the next answered (or terminally failed) batch.

        Outcomes buffered by :meth:`collect_batch` (resolved while a
        *different* batch was being awaited) are handed back first,
        lowest batch id first — no outcome is ever dropped.  Otherwise
        drives the whole fault path: dead-worker detection, per-batch
        deadlines, bounded retry on surviving workers, and in-process
        fallback.  Raises ``queue_module.Empty`` only when ``timeout``
        elapses with every in-flight batch still healthy.
        """
        if self._resolved:
            return self._resolved.pop(min(self._resolved))
        if not self._in_flight:
            raise ValueError("collect() with no batch in flight")
        overall_deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            outcome = self._collect_step()
            if outcome is not None:
                return outcome
            if overall_deadline is not None and time.monotonic() > overall_deadline:
                raise queue_module.Empty

    def collect_batch(self, batch_id: int, timeout: Optional[float] = None) -> BatchOutcome:
        """Wait for one *specific* batch.

        Other batches resolving in the meantime are buffered — not
        discarded — and come back from their own :meth:`collect` /
        :meth:`collect_batch` call.  Raises ``queue_module.Empty`` when
        ``timeout`` elapses first, ``ValueError`` for a batch id that is
        neither in flight nor buffered.
        """
        if batch_id in self._resolved:
            return self._resolved.pop(batch_id)
        if batch_id not in self._in_flight:
            raise ValueError(f"batch {batch_id} is not in flight")
        overall_deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            outcome = self._collect_step()
            if outcome is not None:
                if outcome.batch_id == batch_id:
                    return outcome
                self._resolved[outcome.batch_id] = outcome
                continue
            if overall_deadline is not None and time.monotonic() > overall_deadline:
                raise queue_module.Empty

    def _collect_step(self) -> Optional[BatchOutcome]:
        """One poll: respawn due lanes, place parked work, drain a message,
        sweep for failures."""
        self._service_respawns()
        # Batches parked with no live lane: dispatch them the moment a
        # lane exists; answer in-process only when no lane exists *and*
        # none is coming back (degraded floor) — a pending respawn means
        # the parked work waits for the replacement worker.
        unassigned = sorted(
            batch_id
            for batch_id, flight in self._in_flight.items()
            if flight.worker_id < 0 or flight.worker_id not in self._task_queues
        )
        if unassigned:
            target = self._least_loaded()
            if target is not None:
                for batch_id in unassigned:
                    flight = self._in_flight[batch_id]
                    if flight.dispatch_count > 0:
                        self.retries += 1
                        self.metrics.counter("pool.retries").inc()
                    self._dispatch(batch_id, flight, self._least_loaded())
            elif (self._result_queue is None) or not self._respawn_pending():
                return self._resolve_inprocess(unassigned[0])

        message = None
        if self._result_queue is not None:
            try:
                message = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                message = None
        if message is not None:
            outcome = self._handle_message(message)
            if outcome is not None:
                return outcome
        return self._sweep_failures()

    def _respawn_pending(self) -> bool:
        """True while some lane is scheduled (or eligible) to come back."""
        return (
            self.policy.respawn
            and self._supervisor is not None
            and self._supervisor.respawn_pending()
        )

    def _service_respawns(self) -> None:
        """Fork replacements for every lane whose backoff delay elapsed."""
        if not self._respawn_pending() or self._mp_context is None:
            return
        now = time.monotonic()
        for worker_id in self._supervisor.due_respawns(now):
            incarnation = self._supervisor.record_respawn_started(worker_id, now)
            self._spawn_worker(worker_id, incarnation)
            self.metrics.counter("pool.respawns").inc()
            if self.tracer.enabled:
                self.tracer.add_span(
                    "respawn",
                    self.tracer.clock.now(),
                    0.0,
                    category="supervisor",
                    depth=1,
                    args={"lane": worker_id, "incarnation": incarnation},
                )

    def _handle_message(self, message) -> Optional[BatchOutcome]:
        kind = message[0]
        now = time.monotonic()
        if kind == "ready":
            # A respawned lane came up mid-run.
            _kind, worker_id, incarnation, info = message
            if incarnation != self._incarnations.get(worker_id, 0):
                return None  # announcement from a reaped incarnation
            self.worker_info[worker_id] = info
            self._ready_inc[worker_id] = incarnation
            self._last_seen[worker_id] = now
            if self._supervisor is not None:
                self._supervisor.record_ready(worker_id, incarnation, now)
            if incarnation > 0 and self.tracer.enabled:
                self.tracer.add_span(
                    "lane_recovered",
                    self.tracer.clock.now(),
                    0.0,
                    category="supervisor",
                    depth=1,
                    args={"lane": worker_id, "incarnation": incarnation},
                )
            return None
        if kind == "boot_error":
            _kind, worker_id, incarnation, trace = message
            if incarnation != self._incarnations.get(worker_id, 0):
                return None
            self.worker_info[worker_id] = {"boot_error": trace}
            self._lane_failed(worker_id, "boot_error")
            return None
        if kind == "heartbeat":
            _kind, worker_id, incarnation, _seq = message
            if incarnation == self._incarnations.get(worker_id, 0):
                self._last_seen[worker_id] = now
            return None
        if kind == "telemetry":
            _kind, worker_id, incarnation, seq, spans_wire, metrics_wire = message
            self._telemetry.setdefault(worker_id * 1000 + incarnation, []).append(
                (seq, spans_wire, metrics_wire)
            )
            return None
        # Batch resolutions: ("ok"|"error"|"cancelled", wid, inc, batch_id,
        # attempt, ...).  A message from a reaped incarnation is dropped
        # wholesale — its lane's outstanding count was reset at the reap.
        _kind, worker_id, incarnation, batch_id, attempt = message[:5]
        if incarnation != self._incarnations.get(worker_id, 0):
            return None
        self._outstanding[worker_id] = max(self._outstanding.get(worker_id, 1) - 1, 0)
        self._last_seen[worker_id] = now
        flight = self._in_flight.get(batch_id)
        if flight is None:
            return None  # already resolved (e.g. the hedge raced and won)
        is_primary = attempt == flight.primary_attempt and worker_id == flight.worker_id
        is_hedge = (
            attempt == flight.hedge_attempt and worker_id == flight.hedge_worker_id
        )
        if not (is_primary or is_hedge):
            return None  # stale: the batch was reassigned since
        if kind == "cancelled":
            if is_hedge:
                flight.hedge_worker_id = -1
                flight.hedge_attempt = -1
            return None
        if kind == "ok":
            # First answer wins; cancel the loser if a duplicate is live.
            loser = flight.hedge_worker_id if is_primary else flight.worker_id
            loser_attempt = flight.hedge_attempt if is_primary else flight.primary_attempt
            if loser >= 0 and loser in self._task_queues:
                self._task_queues[loser].put(("cancel", batch_id, loser_attempt))
            if self._supervisor is not None:
                self._supervisor.record_batch_success(worker_id, now)
                if is_hedge:
                    self._supervisor.record_hedge(
                        flight.worker_id, worker_id, now, won=True
                    )
                    self.metrics.counter("pool.hedge_wins").inc()
            results = [_to_fold_in(entry, self.num_sweeps) for entry in message[5]]
            del self._in_flight[batch_id]
            self.answered += len(flight.payload)
            return self._record_outcome(
                BatchOutcome(
                    batch_id=batch_id,
                    request_ids=[request_id for request_id, _ in flight.payload],
                    results=results,
                    worker_id=worker_id,
                    attempts=flight.dispatch_count,
                    latency_seconds=time.monotonic() - flight.first_submitted,
                    status="answered",
                ),
                flight,
            )
        # kind == "error": the worker survives (the fault was the batch's),
        # but that dispatch is spent.
        if is_hedge:
            flight.hedge_worker_id = -1
            flight.hedge_attempt = -1
            return None  # the primary is still running
        if flight.hedge_worker_id >= 0:
            self._promote_hedge(flight)
            return None
        return self._retry_or_fallback(batch_id, flight)

    def _promote_hedge(self, flight: _InFlight) -> None:
        """The primary dispatch died; its live hedge becomes the primary."""
        flight.worker_id = flight.hedge_worker_id
        flight.primary_attempt = flight.hedge_attempt
        flight.hedge_worker_id = -1
        flight.hedge_attempt = -1
        flight.submitted = time.monotonic()
        flight.deadline = flight.submitted + self.batch_timeout_seconds
        flight.hedge_deadline = None

    def _sweep_failures(self) -> Optional[BatchOutcome]:
        """Detect failed lanes and stragglers; resolve (at most) one batch.

        Three failure signals, checked in order: a dead worker process
        (crash), an idle lane that stopped heartbeating (wedge), and an
        in-flight batch past its deadline (straggler past hope).  Before
        any of that, hedging fires: a batch past its hedge deadline is
        duplicated onto the least-loaded healthy lane — first answer
        wins.  Extra resolutions (several batches orphaned by one lane
        death) are buffered in ``_resolved`` for the next collect.
        """
        now = time.monotonic()
        self._fire_hedges(now)

        failed: Dict[int, str] = {}
        for worker_id in sorted(self._processes):
            if not self._processes[worker_id].is_alive():
                failed[worker_id] = "crash"
        if self.policy.respawn:
            threshold = max(4.0 * _HEARTBEAT_SECONDS, 1.0)
            for worker_id in sorted(self._processes):
                if worker_id in failed:
                    continue
                # Only a *ready, idle* lane owes beacons: a booting lane
                # is busy opening the checkpoint and a lane with work is
                # busy computing — silence is only damning when idle.
                if self._ready_inc.get(worker_id) != self._incarnations.get(worker_id, 0):
                    continue
                if self._outstanding.get(worker_id, 0) > 0:
                    continue
                if now - self._last_seen.get(worker_id, now) > threshold:
                    failed[worker_id] = "heartbeat"
        for batch_id, flight in sorted(self._in_flight.items()):
            worker_id = flight.worker_id
            if worker_id < 0 or worker_id not in self._processes:
                continue
            if worker_id not in failed and now > flight.deadline:
                # Wedged past its deadline: evict so a late answer can
                # never race the retry (stale attempts are dropped too,
                # but a killed worker cannot even try).
                failed[worker_id] = "deadline"

        if not failed:
            return None
        for worker_id, reason in sorted(failed.items()):
            self._lane_failed(worker_id, reason)

        # Re-route every flight the failed lanes were carrying.
        outcomes: List[BatchOutcome] = []
        for batch_id in sorted(self._in_flight):
            flight = self._in_flight.get(batch_id)
            if flight is None:
                continue
            if flight.hedge_worker_id in failed:
                flight.hedge_worker_id = -1
                flight.hedge_attempt = -1
            if flight.worker_id in failed:
                if flight.hedge_worker_id >= 0:
                    self._promote_hedge(flight)
                else:
                    outcome = self._retry_or_fallback(batch_id, flight)
                    if outcome is not None:
                        outcomes.append(outcome)
        for outcome in outcomes[1:]:
            self._resolved[outcome.batch_id] = outcome
        return outcomes[0] if outcomes else None

    def _fire_hedges(self, now: float) -> None:
        """Duplicate straggler batches onto the least-loaded healthy lane."""
        if not self.policy.hedge:
            return
        for batch_id, flight in sorted(self._in_flight.items()):
            if flight.hedge_deadline is None or now < flight.hedge_deadline:
                continue
            flight.hedge_deadline = None  # one hedge per dispatch
            if flight.hedge_worker_id >= 0 or flight.worker_id < 0:
                continue
            target = self._least_loaded(exclude=flight.worker_id)
            if target is None:
                continue
            self._dispatch(batch_id, flight, target, hedge=True)
            self.metrics.counter("pool.hedged").inc()
            if self._supervisor is not None:
                self._supervisor.record_hedge(flight.worker_id, target, now)
            if self.tracer.enabled:
                self.tracer.add_span(
                    "hedge",
                    self.tracer.clock.now(),
                    0.0,
                    category="supervisor",
                    depth=1,
                    args={
                        "batch_id": batch_id,
                        "primary": flight.worker_id,
                        "target": target,
                    },
                )

    def _lane_failed(self, worker_id: int, reason: str) -> None:
        """Reap a failed lane and let the supervisor rule on its future.

        Exactly once per (lane, incarnation): the dead-process sweep and
        a racing ``boot_error`` message both funnel here, and the second
        caller is a no-op.
        """
        incarnation = self._incarnations.get(worker_id, 0)
        if (worker_id, incarnation) in self._failed_incarnations:
            return
        self._failed_incarnations.add((worker_id, incarnation))
        self._kill_worker(worker_id)
        self.metrics.counter(f"pool.faults.{reason}").inc()
        if self.tracer.enabled:
            self.tracer.add_span(
                "lane_failed",
                self.tracer.clock.now(),
                0.0,
                category="supervisor",
                depth=1,
                args={
                    "lane": worker_id,
                    "incarnation": incarnation,
                    "reason": reason,
                },
            )
        if self._supervisor is not None:
            verdict = self._supervisor.record_failure(
                worker_id, time.monotonic(), reason
            )
            if verdict == "quarantine":
                self.metrics.counter("pool.quarantined").inc()

    def _retry_or_fallback(self, batch_id: int, flight: _InFlight) -> Optional[BatchOutcome]:
        """Walk the rest of the ladder for a batch whose dispatch failed."""
        target = self._least_loaded()
        if flight.dispatch_count <= self.policy.max_retries:
            if target is not None:
                self.retries += 1
                self.metrics.counter("pool.retries").inc()
                self._dispatch(batch_id, flight, target)
                return None
            if self._respawn_pending():
                # Park: the replacement lane will pick this batch up
                # (and _collect_step re-dispatches it) — degrading to
                # the parent process would serialize the recovery window.
                flight.worker_id = -1
                flight.primary_attempt = -1
                flight.hedge_deadline = None
                return None
        if self.policy.fallback:
            return self._resolve_inprocess(batch_id)
        del self._in_flight[batch_id]
        self.failed += len(flight.payload)
        return self._record_outcome(
            BatchOutcome(
                batch_id=batch_id,
                request_ids=[request_id for request_id, _ in flight.payload],
                results=[],
                worker_id=flight.worker_id,
                attempts=flight.dispatch_count,
                latency_seconds=time.monotonic() - flight.first_submitted,
                status="failed",
            ),
            flight,
        )

    def _resolve_inprocess(self, batch_id: int) -> BatchOutcome:
        """Graceful degradation: run the batch on the parent's own engine.

        The fallback state shares the same mmap checkpoint, and requests
        are keyed by ``(seed, request_id)`` — the answer is bit-identical
        to what the lost worker would have produced.  (Injected faults
        belong to worker lanes; the parent never enacts one.)
        """
        flight = self._in_flight.pop(batch_id)
        self.fallback_batches += 1
        self.metrics.counter("pool.fallback_batches").inc()
        results = []
        for request_id, word_ids in flight.payload:
            rng = request_rng(self.seed, request_id)
            results.append(
                self._fallback_state.fold_in(
                    word_ids, rng, num_sweeps=self.num_sweeps
                )
            )
        self.answered += len(flight.payload)
        return self._record_outcome(
            BatchOutcome(
                batch_id=batch_id,
                request_ids=[request_id for request_id, _ in flight.payload],
                results=results,
                worker_id=-1,
                attempts=flight.dispatch_count,
                latency_seconds=time.monotonic() - flight.first_submitted,
                status="answered",
            ),
            flight,
        )

    def _record_outcome(self, outcome: BatchOutcome, flight: _InFlight) -> BatchOutcome:
        """Telemetry hook at every batch resolution (answered or failed).

        The ``ipc_batch`` span and its per-request children reuse the
        outcome's exact ``latency_seconds`` float — the same number the
        wall-clock report aggregates — so the trace summarizer
        reproduces the report's percentiles bit for bit.
        """
        counter = "pool.answered" if outcome.status == "answered" else "pool.failed"
        self.metrics.counter(counter).inc(len(flight.payload))
        if self.tracer.enabled:
            self.tracer.add_span(
                "ipc_batch",
                flight.trace_started,
                outcome.latency_seconds,
                category="ipc",
                depth=1,
                args={
                    "batch_id": outcome.batch_id,
                    "worker": outcome.worker_id,
                    "attempts": outcome.attempts,
                    "docs": len(outcome.request_ids),
                },
            )
            name = "request" if outcome.status == "answered" else "request_failed"
            for request_id in outcome.request_ids:
                self.tracer.add_span(
                    name,
                    flight.trace_started,
                    outcome.latency_seconds,
                    category="ipc",
                    depth=2,
                    args={"request_id": request_id},
                )
        return outcome

    def drain_worker_telemetry(self) -> None:
        """Merge every buffered worker span/metric payload into the pool's.

        The merge is deterministic regardless of queue interleaving:
        spans order by ``(worker_id, message seq, position)``
        (:func:`repro.telemetry.tracer.merge_worker_payloads`) and
        worker metrics are commutative deltas (counters, histograms).
        A worker killed mid-run simply contributes the prefix of
        messages that made it out.
        """
        if not self._telemetry:
            return
        spans_by_worker = {
            worker_id: [(seq, spans) for seq, spans, _metrics in messages]
            for worker_id, messages in self._telemetry.items()
        }
        self.tracer.absorb(merge_worker_payloads(spans_by_worker))
        for worker_id in sorted(self._telemetry):
            messages = sorted(self._telemetry[worker_id], key=lambda message: message[0])
            for _seq, _spans, metrics_wire in messages:
                self.metrics.merge_wire(metrics_wire)
        self._telemetry.clear()

    def _kill_worker(self, worker_id: int) -> None:
        process = self._processes.get(worker_id)
        if process is not None and process.is_alive():
            # Join-first grace: a lane that failed by its own report
            # (boot_error) is already exiting, and a signal racing its
            # feeder thread between writing to the shared result queue
            # and releasing the queue's write lock orphans that lock —
            # wedging every other lane's messages forever.  Workers also
            # trap SIGTERM into a graceful exit (see ``_worker_main``)
            # so the escalation below flushes instead of corrupting.
            process.join(timeout=0.25)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        self._drop_worker(worker_id)

    def _drop_worker(self, worker_id: int) -> None:
        self._processes.pop(worker_id, None)
        task_queue = self._task_queues.pop(worker_id, None)
        if task_queue is not None:
            task_queue.close()
            task_queue.cancel_join_thread()
        self._outstanding.pop(worker_id, None)

    # ------------------------------------------------------------------ #
    # EnginePool execution surface
    # ------------------------------------------------------------------ #
    def execute(self, batch: InferenceBatch, lane: int = 0) -> PoolBatchExecution:
        """Run one laid-out micro-batch synchronously (EnginePool surface).

        ``lane`` picks among live workers (modulo the live count), so the
        pool slots behind the same dispatch code paths as
        :class:`~repro.serving.pool.EnginePool`; the phase breakdown is a
        single measured ``"wall"`` entry — a process has no simulated
        phases.
        """
        live = self.live_workers
        worker_id = live[lane % len(live)] if live else None
        batch_id = self.submit(batch.requests, worker_id=worker_id)
        # collect_batch: with interleaved submits, other batches resolving
        # first are buffered for their own collect — never dropped.
        outcome = self.collect_batch(batch_id)
        return PoolBatchExecution(
            batch=batch,
            results=outcome.results,
            engine_id=outcome.worker_id,
            participants=[outcome.worker_id],
            per_engine_phase_seconds=[{PHASE_WALL: outcome.latency_seconds}],
            alltoall_seconds=0.0,
            samplers_built=0,
        )


def _to_fold_in(entry, num_sweeps: int) -> FoldInResult:
    _request_id, theta, doc_topic_counts, topics = entry
    return FoldInResult(
        theta=theta,
        doc_topic_counts=doc_topic_counts,
        topics=topics,
        num_sweeps=num_sweeps,
    )


# --------------------------------------------------------------------------- #
# Wall-clock serving runs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WallClockOutcome:
    """Per-request record of a wall-clock run (digest-compatible shape).

    ``status`` is ``"answered"`` (a worker or the fallback computed the
    theta), ``"cache_hit"`` (answered from the
    :class:`~repro.serving.cache.ResultCache` without a batch slot —
    open-loop runs only), ``"rejected"`` (shed at admission: malformed
    or queue overflow — open-loop runs only), or ``"failed"`` (admitted
    but terminally lost to the fault path).  ``latency_seconds`` is NaN
    for requests that were never answered.
    """

    request_id: int
    theta: Optional[np.ndarray]
    latency_seconds: float
    worker_id: int
    status: str  # "answered" | "cache_hit" | "rejected" | "failed"


@dataclass
class WallClockReport(LatencyReportMixin):
    """Measured (not simulated) serving metrics of one request stream.

    The report speaks the same stats surface as the simulated
    :class:`~repro.serving.server.ServingReport` — identical percentile
    and mean accessors through
    :class:`~repro.serving.stats.LatencyReportMixin` (one pinned
    percentile rule, ``NaN`` with zero answered requests) plus every
    report field the evaluation layer compares field for field
    (:data:`repro.evaluation.serving.REPORT_FIELDS`: ``answered``,
    ``rejected``, ``rejection_rate``, ``sustained_qps``, the latency
    accessors, ``mean_batch_docs``, ``cache_hit_rate``, ``cache_hits``,
    ``cache_lookups``).  Requests the data plane terminally failed count
    into ``rejected`` alongside admission sheds: either way the stream
    offered a request and never got an answer.

    ``cache_hits`` / ``cache_lookups`` are real counters on open-loop
    runs (:func:`~repro.serving.open_loop.serve_open_loop`, which runs
    the server's ResultCache); the closed-loop
    :func:`serve_wallclock` driver bypasses the cache, so there they
    stay 0 and ``cache_hit_rate`` reads 0.0.
    """

    outcomes: List[WallClockOutcome]
    batches: List[BatchOutcome]
    wall_seconds: float
    pool_stats: Dict[str, object]
    cache_hits: int = 0
    cache_lookups: int = 0
    #: Supervision surface (REPORT_FIELDS): worker respawns during the
    #: run, hedged duplicate dispatches, breaker quarantines, and the
    #: worst-case lane death→ready recovery time (0.0: no lane died).
    respawns: int = 0
    hedged: int = 0
    quarantined: int = 0
    recovery_seconds: float = 0.0

    def _latencies(self, include_cache_hits: bool = True) -> np.ndarray:
        values = [
            outcome.latency_seconds
            for outcome in self.outcomes
            if outcome.status == "answered"
            or (include_cache_hits and outcome.status == "cache_hit")
        ]
        return np.asarray(values, dtype=np.float64)

    @property
    def answered(self) -> int:
        """Requests answered (computed or served from cache)."""
        return sum(
            1
            for outcome in self.outcomes
            if outcome.status in ("answered", "cache_hit")
        )

    @property
    def failed(self) -> int:
        """Admitted requests terminally lost to the fault path."""
        return sum(1 for outcome in self.outcomes if outcome.status == "failed")

    @property
    def rejected(self) -> int:
        """Requests that never got an answer: admission sheds + failures."""
        return sum(
            1
            for outcome in self.outcomes
            if outcome.status in ("rejected", "failed")
        )

    @property
    def rejection_rate(self) -> float:
        """Unanswered requests over the whole stream (0.0 on an empty run)."""
        if not self.outcomes:
            return 0.0
        return self.rejected / len(self.outcomes)

    @property
    def sustained_qps(self) -> float:
        """Answered requests per measured wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.answered / self.wall_seconds

    @property
    def mean_batch_docs(self) -> float:
        """Mean documents per dispatched micro-batch."""
        if not self.batches:
            return 0.0
        return sum(len(batch.request_ids) for batch in self.batches) / len(self.batches)

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over lookups during this run (0.0 before any lookup)."""
        if self.cache_lookups == 0:
            return 0.0
        return self.cache_hits / self.cache_lookups

    def summary(self) -> Dict[str, object]:
        """Flat metrics dict for reports and benchmark JSON.

        Carries every key of ``ServingReport.summary()`` (so the two
        planes diff field for field) plus the wall-clock-only extras
        (``wall_seconds``, ``failed``, the ``pool_*`` counters).
        """
        return {
            "answered": self.answered,
            "failed": self.failed,
            "rejected": self.rejected,
            "rejection_rate": self.rejection_rate,
            "wall_seconds": self.wall_seconds,
            "sustained_qps": self.sustained_qps,
            "p50_ms": self.p50_seconds * 1e3,
            "p99_ms": self.p99_seconds * 1e3,
            "mean_ms": self.mean_seconds * 1e3,
            "mean_batch_docs": self.mean_batch_docs,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_hits": self.cache_hits,
            "cache_lookups": self.cache_lookups,
            "respawns": self.respawns,
            "hedged": self.hedged,
            "quarantined": self.quarantined,
            "recovery_seconds": self.recovery_seconds,
            "num_batches": len(self.batches),
            **{f"pool_{key}": value for key, value in self.pool_stats.items()},
        }


def serve_wallclock(
    pool: WorkerPool,
    requests: Sequence[ServingRequest],
    batch_docs: int = 16,
) -> WallClockReport:
    """Drive a request stream through the pool and measure real time.

    Requests are packed into micro-batches of ``batch_docs`` in stream
    order; every batch is submitted up front (closed-loop saturation —
    the measurement is the data plane's sustained capacity) and
    collected as workers answer.  Per-request latency is its batch's
    submit-to-answer wall time.  For measured *open-loop* arrival
    dynamics — Poisson arrivals paced on the wall clock through
    admission control, micro-batching and the result cache — put the
    pool behind a :class:`~repro.serving.server.TopicServer` instead
    (:func:`~repro.serving.open_loop.serve_open_loop`).
    """
    if batch_docs < 1:
        raise ValueError("batch_docs must be >= 1")
    tracing = pool.tracer.enabled
    trace_started = pool.tracer.clock.now() if tracing else 0.0
    started = time.monotonic()
    batch_ids = [
        pool.submit(requests[start : start + batch_docs])
        for start in range(0, len(requests), batch_docs)
    ]
    batches = [pool.collect() for _ in batch_ids]
    wall_seconds = time.monotonic() - started
    if tracing:
        # The root span *is* the measured region (same duration float),
        # so trace coverage of the run is exact by construction.
        pool.tracer.add_span(
            "serve_wallclock",
            trace_started,
            wall_seconds,
            category="serving",
            depth=0,
            args={"requests": len(requests), "batch_docs": batch_docs},
        )
    pool.drain_worker_telemetry()

    outcomes: List[WallClockOutcome] = []
    for batch in batches:
        thetas = (
            [result.theta for result in batch.results]
            if batch.status == "answered"
            else [None] * len(batch.request_ids)
        )
        for request_id, theta in zip(batch.request_ids, thetas, strict=True):
            outcomes.append(
                WallClockOutcome(
                    request_id=request_id,
                    theta=theta,
                    latency_seconds=batch.latency_seconds,
                    worker_id=batch.worker_id,
                    status=batch.status,
                )
            )
    outcomes.sort(key=lambda outcome: outcome.request_id)
    stats = pool.stats()
    return WallClockReport(
        outcomes=outcomes,
        batches=batches,
        wall_seconds=wall_seconds,
        pool_stats=stats,
        respawns=int(stats.get("respawns", 0)),
        hedged=int(stats.get("hedged", 0)),
        quarantined=int(stats.get("quarantined", 0)),
        recovery_seconds=float(stats.get("recovery_seconds", 0.0)),
    )
