"""In-memory span tracer that wraps public `spdelab` names from the outside.

Each target is a public name at the binding its caller looks it up through,
for example `spdelab.scheme:drift_array` for the scheme's calls into the
drift layer.  A wrapped call records a span (name, start, end, parent) and
adds its counts at the same boundary.  Every wrap is undone when the tracer
closes.  A target that no longer exists is listed in `absent` instead of
failing, so the benchmark survives refactors that delete or move internals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time


def _size(x) -> int:
    return int(getattr(x, "size", 0))


def _first(result):
    return result[0] if isinstance(result, tuple) and result else result


def _count_draw(args, kwargs, result, counts):
    counts["noise.streams"] = counts.get("noise.streams", 0) + 1
    counts["noise.normals"] = counts.get("noise.normals", 0) + _size(result)


def _count_fold(args, kwargs, result, counts):
    arr = args[0] if args else kwargs.get("arr")
    counts["noise.fold_elems"] = counts.get("noise.fold_elems", 0) + _size(arr)
    nbytes = int(getattr(arr, "nbytes", 0))
    counts["noise.fine_block_bytes"] = max(counts.get("noise.fine_block_bytes", 0), nbytes)


def _count_drift(args, kwargs, result, counts):
    counts["drift.eval_elems"] = counts.get("drift.eval_elems", 0) + _size(result)


def _count_ou(args, kwargs, result, counts):
    # one draw is one (sample, mode) transition; the joint sampler returns
    # (states, weights) and its weight comes with the same draw
    counts["noise.ou_draws"] = counts.get("noise.ou_draws", 0) + _size(_first(result))


# (target, span name, counter); a target is "module:attribute.path"
WORKLOAD_TARGETS = (
    ("spdelab.noise:NoiseLattice.mode_increments", "noise.draw", _count_draw),
    ("spdelab.scheme:left_fold_blocks", "noise.fold", _count_fold),
    ("spdelab.scheme:drift_array", "drift.eval", _count_drift),
    ("spdelab.analysis:drift_array", "drift.eval", _count_drift),
    ("spdelab.kolmogorov:drift_array", "drift.eval", _count_drift),
    ("spdelab.kolmogorov:ou_transition_sample", "noise.ou", _count_ou),
    ("spdelab.kolmogorov:ou_joint_modes_batch", "noise.ou", _count_ou),
    ("spdelab.cli:temporal_study", "analysis.study", None),
    ("spdelab.cli:spatial_study", "analysis.study", None),
    ("spdelab.cli:increment_statistic", "analysis.study", None),
    ("spdelab.cli:kolmogorov_suite", "kolmogorov.study", None),
)

NOISE_SPANS = ("noise.draw", "noise.fold", "noise.ou")


class Tracer:
    """Context manager: wraps `targets` on entry and restores them on exit.

    `spans` holds [name, start_ns, end_ns, parent_index] lists in start order.
    """

    def __init__(self, targets=WORKLOAD_TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        try:
            for target, name, counter in self.targets:
                self._wrap(target, name, counter)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _wrap(self, target: str, name: str, counter) -> None:
        module_name, _, path = target.partition(":")
        *owners, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        if not callable(original):
            self.absent.append(target)
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if counter is not None:
                counter(args, kwargs, result, self.counts)
            return result

        self._undo.append((owner, attr, attr in vars(owner), vars(owner).get(attr)))
        setattr(owner, attr, traced)

    def _restore(self) -> None:
        while self._undo:
            owner, attr, owned, original = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # the wrapper of every traced call opens and closes a span inline,
    # keeping the per-call overhead to two clock reads and two list appends
    def _open(self, name: str) -> list:
        stack = self._stack
        record = [name, 0, 0, stack[-1] if stack else None]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the caller's own code."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per span name, in seconds."""
        out: dict[str, float] = {}
        for (name, *_), ns in zip(self.spans, self.self_ns()):
            out[name] = out.get(name, 0.0) + ns * 1e-9
        return out

