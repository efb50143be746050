"""Per-layer tracing from outside the program.

``Tracer.installed()`` wraps the public functions of each ``xepecs`` module
listed in ``LAYERS`` and rebinds every name that refers to them, in every
loaded ``xepecs`` module. The rebinding matters because ``amplitudes``,
``spectra``, ``entanglement`` and ``cli`` import their callees with
``from .x import name``: patching the defining module alone would miss those
calls. Methods are patched on their class.

Each call records a span: name, start, end, parent span and job. Spans are
kept in flat arrays in memory and written out at the end of the run. A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# layer (module) -> public functions traced in it
LAYERS: dict[str, tuple[str, ...]] = {
    "model": ("build_hamiltonian", "j_squared_matrix", "s_squared_matrix", "diagonalize",
              "intermediate_eigensystem", "initial_state"),
    "fockspace": ("create", "annihilate", "create_photoelectron", "create_photon",
                  "annihilate_photon", "inner"),
    "polarization": ("polarization_vector", "spherical_components", "alpha_coeffs"),
    "amplitudes": ("AmplitudeCalculator.__init__", "AmplitudeCalculator.amplitudes",
                   "dipole_block", "photoemission_elements", "xepecs_amplitudes"),
    "entanglement": ("entangled_state", "reduce_to_spin", "von_neumann_entropy",
                     "full_density_matrix", "entropy_sweep"),
    "spectra": ("xps_lines", "broaden", "auto_epsilon", "xepecs_spectrum",
                "final_state_energy"),
    "angular": ("cg", "coupled_state"),
    "cli": ("build_config", "run"),
}

JOB_SPAN = "job"


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records nested call spans in flat arrays."""

    def __init__(self):
        self.names: list[str] = [JOB_SPAN]
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._job = -1

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack, starts, ends = self._stack, self.start, self.end
        name_ids, parents, jobs = self.name_id, self.parent, self.job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            jobs.append(self._job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def job_span(self, job: int):
        """Root span of one job; every span recorded inside carries its index."""
        self._job = job
        idx = len(self.start)
        self.name_id.append(0)
        self.parent.append(-1)
        self.job.append(job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._job = -1

    @contextmanager
    def installed(self):
        """Wrap every function in LAYERS for the duration of the block."""
        restore: list[tuple[object, str, object]] = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "xepecs" or name.startswith("xepecs."))]
        try:
            for layer, fns in LAYERS.items():
                module = sys.modules.get(f"xepecs.{layer}")
                if module is None:
                    continue
                for fn_name in fns:
                    owner_name, _, attr = fn_name.rpartition(".")
                    owner = getattr(module, owner_name, None) if owner_name else module
                    original = getattr(owner, attr, None)
                    if original is None:
                        continue  # a later version of the program dropped it
                    wrapper = self.wrap(f"{layer}.{fn_name}", original)
                    targets = [owner] if owner_name else modules
                    for target in targets:
                        for key, value in list(vars(target).items()):
                            if value is original:
                                restore.append((target, key, value))
                                setattr(target, key, wrapper)
            yield self
        finally:
            for target, key, value in reversed(restore):
                setattr(target, key, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive ms, self ms) over every recorded span."""
        a = self.arrays()
        dur = (a["end"] - a["start"]) * 1e3
        has_parent = a["parent"] >= 0
        child_ms = np.zeros_like(dur)
        np.add.at(child_ms, a["parent"][has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        incl = np.bincount(a["name_id"], weights=dur, minlength=n)
        own = np.bincount(a["name_id"], weights=dur - child_ms, minlength=n)
        return {name: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, name in enumerate(self.names)}


def wrapper_cost_us(calls: int = 50_000) -> float:
    """Added time per traced call, from a wrapped no-op against a bare one."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    elapsed = []
    for fn in (noop, traced):
        t = clock()
        for _ in range(calls):
            fn()
        elapsed.append(clock() - t)
    return max(0.0, (elapsed[1] - elapsed[0]) / calls * 1e6)
