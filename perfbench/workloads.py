"""The four benchmark workloads, each a closed loop over the public API.

A workload owns a fixed op sequence: op ``i`` has kind
``kinds[i % len(kinds)]``, a *content* seed derived from the run seed
and ``i`` (stimulus, gate types, annealing), and a *structure* seed
derived from ``i`` alone (which design, which gate to edit).  Two runs
with one seed therefore issue identical ops, and runs with different
seeds issue the same structures with different content, so per-op
cost does not depend on the seed.  Per op the runner calls
:meth:`Workload.prepare` (untimed: fresh stimulus or design), then
times :meth:`Workload.run`.  :meth:`Workload.check` verifies the
recorded outputs against an independent path after the timed window.

- ``opt_passes``: the seven Section-III candidate loops, round robin.
- ``edit_loop``: clone + one gate retype + ``estimate_delta``.
- ``cold_estimate``: ``PowerEstimator.gate`` on never-seen designs.
- ``serve_batch``: 8-job ``estimate`` requests to an
  ``EstimationServer`` through a ``Client``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import PowerEstimator
from repro import store as artifact_store
from repro.fsm import benchmark as fsm_benchmark
from repro.fsm.encoding import low_power_encoding, random_encoding
from repro.fsm.synthesis import synthesize_fsm
from repro.logic import generators, incremental
from repro.logic.fastsim import PackedVectors, random_packed_vectors
from repro.logic.generators import (
    chained_adder_tree,
    magnitude_comparator,
    random_logic,
)
from repro.logic.netlist import Circuit
from repro.logic.simulate import collect_activity, random_vectors
from repro.optimization.bus_encoding import (
    correlated_block_addresses,
    survey_codes,
)
from repro.optimization.clock_gating import sweep_clock_gating
from repro.optimization.guarded_eval import evaluate_guarded
from repro.optimization.precompute import sweep_precomputation
from repro.optimization.respecification import evaluate_respecification
from repro.optimization.retiming import evaluate_power_retiming

Failure = Tuple[int, str]


def op_seed(run_seed: int, index: int) -> int:
    """Content seed of op ``index`` (string seeding hashes with SHA-512,
    so it is stable across processes and Python hash randomization)."""
    return random.Random(f"perfbench:{run_seed}:{index}").getrandbits(31)


def structure_seed(index: int) -> int:
    """Structure seed of op ``index``: the same in every run."""
    return random.Random(f"perfbench-structure:{index}").getrandbits(31)


def digest(output: Any) -> str:
    """Stable hash of an op output (floats by exact repr)."""
    def canon(x):
        if dataclasses.is_dataclass(x):
            return canon(dataclasses.asdict(x))
        if isinstance(x, dict):
            return {str(k): canon(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        return x
    text = json.dumps(canon(output), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sample_indices(n_ops: int, per_kind: int, n_kinds: int) -> List[int]:
    """``per_kind`` op indices of every kind, spread over the run's
    whole rounds of kinds."""
    rounds = n_ops // n_kinds
    if not rounds:
        return []
    picks = sorted({round(r * (rounds - 1) / max(1, per_kind - 1))
                    for r in range(per_kind)})
    return [r * n_kinds + k for r in picks for k in range(n_kinds)]


class Workload:
    """Interface every workload implements."""

    name = ""
    kinds: Tuple[str, ...] = ()
    #: Reference-host ops per second; sizes a run to ``--seconds``.
    nominal_ops_per_s = 1.0
    #: Ops of each kind that :meth:`check` re-verifies.
    per_kind_checks = 2

    def build(self, seed: int) -> None:
        """Fixed designs, stimulus and services (repeatable)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo :meth:`build`: stop services, drop process caches."""
        incremental.clear_cone_cache()
        artifact_store.configure(None)

    def prepare(self, kind: str, index: int, seed: int) -> Any:
        """Untimed inputs of op ``index`` with content seed ``seed``."""
        raise NotImplementedError

    def run(self, kind: str, inputs: Any) -> Any:
        """The timed op."""
        raise NotImplementedError

    def check(self, ops: List["OpRecord"]) -> List[Failure]:
        """(op index, cause) of every recorded output that an
        independent path does not reproduce."""
        raise NotImplementedError

    def outcome(self, output: Any) -> Any:
        """The part of an op's output that must repeat for a seed."""
        return output

    def settings(self) -> Dict[str, Any]:
        """Workload settings recorded with the environment."""
        return {}


@dataclasses.dataclass
class OpRecord:
    index: int
    kind: str
    seed: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    output: Any = None
    error: Optional[str] = None
    traced: bool = False


# ----------------------------------------------------------------------
# opt_passes
# ----------------------------------------------------------------------
OPT_CYCLES = 8192


def guarded_bank(blocks: int = 4, gates_per_block: int = 30,
                 ins_per_block: int = 8, seed: int = 11) -> Circuit:
    """Independent guardable cones, one MUX-observed block each (the
    bank of ``benchmarks/bench_perf_search.py``)."""
    rng = random.Random(seed)
    c = Circuit(f"bank{blocks}x{gates_per_block}")
    for b in range(blocks):
        ins = c.add_inputs([f"b{b}_i{j}" for j in range(ins_per_block)])
        c.add_input(f"b{b}_g")
        nets = list(ins)
        last = ins[0]
        for _ in range(gates_per_block):
            a, d = rng.choice(nets), rng.choice(nets)
            last = c.add_gate(
                rng.choice(["AND2", "OR2", "XOR2", "NAND2", "NOR2"]),
                [a, d])
            nets.append(last)
        z = c.add_gate("BUF", [last], output=f"b{b}_z")
        c.add_gate("MUX2", [z, f"b{b}_g", f"b{b}_g"], output=f"b{b}_y")
        c.add_output(f"b{b}_y")
    return c


def mux_tree(words: int = 4, bits: int = 4) -> Circuit:
    """``words`` x ``bits`` data words steered by log2(words) controls."""
    c = Circuit(f"muxtree{words}x{bits}")
    data = [c.add_inputs([f"d{w}_{b}" for b in range(bits)])
            for w in range(words)]
    level = 0
    while len(data) > 1:
        sel = c.add_input(f"s{level}")
        data = [[c.add_gate("MUX2", [x, y, sel]) for x, y in zip(lo, hi)]
                for lo, hi in zip(data[0::2], data[1::2])]
        level += 1
    for b, net in enumerate(data[0]):
        c.add_output(c.add_gate("BUF", [net], output=f"y{b}"))
    return c


class OptPasses(Workload):
    name = "opt_passes"
    kinds = ("guarded_eval", "clock_gating", "precompute",
             "respecification", "retiming", "encoding", "bus_survey")
    nominal_ops_per_s = 6.0

    def build(self, seed: int) -> None:
        self.bank = guarded_bank()
        self.waiter = fsm_benchmark("waiter")
        self.comparator = magnitude_comparator(5)
        self.mux = mux_tree()
        self.adders = chained_adder_tree(4, 4)
        self.bbsse = fsm_benchmark("bbsse_like")

    def prepare(self, kind: str, index: int, seed: int) -> Any:
        if kind == "guarded_eval":
            return random_packed_vectors(self.bank.inputs, OPT_CYCLES,
                                         seed=seed)
        if kind == "precompute":
            return random_packed_vectors(self.comparator.inputs,
                                         OPT_CYCLES, seed=seed)
        if kind == "respecification":
            return random_vectors(self.mux.inputs, 200, seed=seed)
        if kind == "retiming":
            return random_packed_vectors(self.adders.inputs, 1024,
                                         seed=seed)
        if kind == "bus_survey":
            return correlated_block_addresses(16, OPT_CYCLES, seed=seed)
        return seed                     # clock_gating, encoding

    def run(self, kind: str, inputs: Any, verify: bool = False) -> Any:
        """One candidate-loop call; ``verify`` takes the independent
        path: full resimulation, or the scalar reference engine for
        the encoders."""
        incr = not verify
        if kind == "guarded_eval":
            return evaluate_guarded(self.bank, inputs, top_k=4,
                                    incremental=incr)
        if kind == "clock_gating":
            return sweep_clock_gating(self.waiter, [1.0, 0.6, 0.3],
                                      cycles=OPT_CYCLES, seed=inputs,
                                      incremental=incr)
        if kind == "precompute":
            return sweep_precomputation(self.comparator, "gt", [1, 2, 3],
                                        inputs, incremental=incr)
        if kind == "respecification":
            return evaluate_respecification(self.mux, inputs,
                                            incremental=incr)
        if kind == "retiming":
            if not verify:
                return evaluate_power_retiming(self.adders, inputs)
            # Retiming memoizes whole timed runs in the artifact
            # store; a fresh store makes the rerun simulate them all.
            previous = artifact_store.set_store(
                artifact_store.ArtifactStore())
            try:
                return evaluate_power_retiming(self.adders, inputs)
            finally:
                artifact_store.set_store(previous)
        if kind == "encoding":
            return low_power_encoding(
                self.bbsse, seed=inputs, anneal_steps=1500, restarts=3,
                engine="reference" if verify else None)
        if kind == "bus_survey":
            return survey_codes(inputs,
                                engine="reference" if verify else None)
        raise ValueError(kind)

    def check(self, ops: List[OpRecord]) -> List[Failure]:
        failures = []
        for i in sample_indices(len(ops), self.per_kind_checks,
                                len(self.kinds)):
            op = ops[i]
            if op.error is not None:
                continue
            again = self.run(op.kind,
                             self.prepare(op.kind, op.index, op.seed),
                             verify=True)
            if again != op.output:
                path = "engine=reference" if op.kind in (
                    "encoding", "bus_survey") else "incremental=False"
                failures.append((i, f"{op.kind}: result differs from "
                                    f"the {path} rerun"))
        return failures


# ----------------------------------------------------------------------
# edit_loop
# ----------------------------------------------------------------------
_SAME_ARITY = {1: ("INV", "BUF"),
               2: ("NAND2", "NOR2", "AND2", "OR2", "XOR2"),
               3: ("NAND3", "NOR3", "AOI21")}


class EditLoop(Workload):
    name = "edit_loop"
    kinds = ("elsewhere", "near_outputs")
    nominal_ops_per_s = 20.0
    per_kind_checks = 4
    CYCLES = 131072

    def build(self, seed: int) -> None:
        self.base = random_logic(32, 3000, 16, seed=7)
        self.vectors = random_packed_vectors(self.base.inputs,
                                             self.CYCLES, seed=seed)
        self.estimator = PowerEstimator()
        incremental.prime(self.base, self.vectors)

    def prepare(self, kind: str, index: int, seed: int) -> Tuple[int, str]:
        """(gate index, new type).  The edited gate is structure:
        ``near_outputs`` edits the last tenth of the gate list,
        ``elsewhere`` the rest, each without repeats, so no op can find
        a previous op's variant in the cone cache.  The new same-arity
        type is content."""
        gates = self.base.gates
        near = len(gates) - len(gates) // 10
        if kind == "near_outputs":
            order = random.Random(kind).sample(range(near, len(gates)),
                                               len(gates) - near)
        else:
            order = random.Random(kind).sample(range(near), near)
        site = order[(index // 2) % len(order)]
        current = gates[site].gate_type
        options = [t for t in _SAME_ARITY[len(gates[site].inputs)]
                   if t != current]
        return site, random.Random(seed).choice(options)

    def variant(self, edit: Tuple[int, str]) -> Circuit:
        index, new_type = edit
        variant = self.base.clone()
        variant.gates[index].gate_type = new_type
        variant.invalidate()
        return variant

    def run(self, kind: str, inputs: Tuple[int, str]) -> Any:
        return self.estimator.estimate_delta(self.base,
                                             self.variant(inputs),
                                             self.vectors)

    def check(self, ops: List[OpRecord]) -> List[Failure]:
        failures = []
        for i in sample_indices(len(ops), self.per_kind_checks,
                                len(self.kinds)):
            op = ops[i]
            if op.error is not None:
                continue
            edit = self.prepare(op.kind, op.index, op.seed)
            full = collect_activity(self.variant(edit),
                                    self.vectors).average_power()
            if full != op.output.power:
                failures.append((i, f"delta power {op.output.power!r} != "
                                    f"full resimulation {full!r}"))
        return failures


# ----------------------------------------------------------------------
# cold_estimate
# ----------------------------------------------------------------------
class ColdEstimate(Workload):
    name = "cold_estimate"
    kinds = ("sim_logic", "sim_fsm", "event_logic")
    nominal_ops_per_s = 7.0
    #: Cycles of each sampled op the scalar reference engine replays.
    REFERENCE_CYCLES = 512

    def build(self, seed: int) -> None:
        self.estimator = PowerEstimator()
        self.bbsse = fsm_benchmark("bbsse_like")

    def prepare(self, kind: str, index: int,
                seed: int) -> Tuple[Circuit, Any, str]:
        """A design new to this process (structure seed) and its
        stimulus (content seed)."""
        design = structure_seed(index)
        if kind == "sim_logic":
            circuit, cycles = random_logic(24, 400, 8, seed=design), 262144
        elif kind == "sim_fsm":
            circuit = synthesize_fsm(
                self.bbsse, random_encoding(self.bbsse, seed=design))
            cycles = 16384
        else:
            circuit, cycles = random_logic(16, 200, 8, seed=design), 8192
        technique = "event-driven" if kind == "event_logic" \
            else "simulation"
        return circuit, random_packed_vectors(circuit.inputs, cycles,
                                              seed=seed), technique

    def run(self, kind: str, inputs: Tuple[Circuit, Any, str]) -> Any:
        circuit, vectors, technique = inputs
        return self.estimator.gate(circuit, vectors, technique=technique)

    def check(self, ops: List[OpRecord]) -> List[Failure]:
        """Sampled ops: the scalar reference engine must reproduce the
        default engine bit for bit on the op's first cycles."""
        failures = []
        for i in sample_indices(len(ops), self.per_kind_checks,
                                len(self.kinds)):
            op = ops[i]
            if op.error is not None:
                continue
            circuit, vectors, technique = self.prepare(op.kind, op.index,
                                                       op.seed)
            k = self.REFERENCE_CYCLES
            head = PackedVectors(vectors.names, k,
                                 {n: w & ((1 << k) - 1)
                                  for n, w in vectors.words.items()})
            fast = PowerEstimator().gate(circuit, head,
                                         technique=technique)
            ref = PowerEstimator().gate(circuit, head,
                                        technique=technique,
                                        engine="reference")
            if fast.power != ref.power:
                failures.append((i, f"{op.kind}: default engine "
                                    f"{fast.power!r} != reference "
                                    f"{ref.power!r} on {k} cycles"))
        return failures


# ----------------------------------------------------------------------
# serve_batch
# ----------------------------------------------------------------------
#: The fixed job mix, one of each per request (rotating order).
SERVE_MIX: Sequence[Dict[str, Any]] = (
    {"generator": "ripple_carry_adder", "params": {"width": 16},
     "technique": "simulation", "cycles": 16384},
    {"generator": "array_multiplier", "params": {"width": 6},
     "technique": "simulation", "cycles": 16384},
    {"generator": "magnitude_comparator", "params": {"width": 8},
     "technique": "simulation", "cycles": 16384},
    {"generator": "chained_adder_tree", "params": {"width": 4, "stages": 3},
     "technique": "simulation", "cycles": 16384},
    {"generator": "counter", "params": {"width": 12},
     "technique": "event-driven", "cycles": 4096},
    {"generator": "carry_lookahead_adder", "params": {"width": 16},
     "technique": "event-driven", "cycles": 4096},
    {"generator": "parity_tree", "params": {"width": 16},
     "technique": "probabilistic", "cycles": 1},
)


class ServeBatch(Workload):
    name = "serve_batch"
    kinds = ("request",)
    nominal_ops_per_s = 20.0

    def build(self, seed: int) -> None:
        from repro.serve import Client, EstimationServer

        self.server = EstimationServer()
        host, port = self.server.start()
        self.worker_pids = set()
        self.client = Client(host, port)

    def teardown(self) -> None:
        self.server.stop()
        super().teardown()

    def prepare(self, kind: str, index: int,
                seed: int) -> List[Dict[str, Any]]:
        """The seven mix jobs (rotating order) with fresh stimulus
        seeds, plus one ``random_logic`` structure unique to the
        request."""
        rng = random.Random(seed)
        start = index % len(SERVE_MIX)
        jobs = []
        for k in range(len(SERVE_MIX)):
            spec = SERVE_MIX[(start + k) % len(SERVE_MIX)]
            jobs.append(self._job(spec, rng.getrandbits(31)))
        unique = {"generator": "random_logic",
                  "params": {"n_inputs": 16, "n_gates": 160,
                             "n_outputs": 8,
                             "seed": structure_seed(index)},
                  "technique": "simulation", "cycles": 16384}
        jobs.append(self._job(unique, rng.getrandbits(31)))
        for k, job in enumerate(jobs):
            job["id"] = k
        return jobs

    @staticmethod
    def _job(spec: Dict[str, Any], seed: int) -> Dict[str, Any]:
        return {"circuit": {"generator": spec["generator"],
                            "params": dict(spec["params"])},
                "technique": spec["technique"],
                "cycles": spec["cycles"], "seed": seed}

    def run(self, kind: str, inputs: List[Dict[str, Any]]) -> Any:
        reply = self.client.estimate(inputs)
        self.worker_pids.update(r["pid"] for r in reply["results"]
                                if "pid" in r)
        bad = [r for r in reply["results"] if not r.get("ok")]
        if bad or len(reply["results"]) != len(inputs):
            raise RuntimeError(f"{len(bad)} jobs failed: "
                               f"{bad[0].get('error') if bad else 'missing'}")
        return reply["results"]

    def outcome(self, output: Any) -> Any:
        """Job results without timings, pids and store traffic."""
        return [(r["id"], r["power"], r["technique"], r["fingerprint"])
                for r in output or ()]

    def check(self, ops: List[OpRecord]) -> List[Failure]:
        """Every job recomputed in-process with ``PowerEstimator``."""
        failures = []
        for op in ops:
            if op.error is not None:
                continue
            for job, result in zip(self.prepare(op.kind, op.index,
                                                op.seed), op.output):
                spec = job["circuit"]
                circuit = getattr(generators, spec["generator"])(
                    **spec["params"])
                technique = job["technique"]
                if technique == "probabilistic":
                    power = PowerEstimator().gate(
                        circuit, technique=technique).power
                else:
                    vectors = random_packed_vectors(
                        circuit.inputs, job["cycles"], seed=job["seed"])
                    power = PowerEstimator().gate(
                        circuit, vectors, technique=technique).power
                if power != result["power"]:
                    failures.append((op.index, f"job {job['id']} "
                                     f"({spec['generator']}): served "
                                     f"{result['power']!r} != in-process "
                                     f"{power!r}"))
                    break
        return failures

    def settings(self) -> Dict[str, Any]:
        return {"serve_workers": self.server.workers,
                "serve_store": "private temporary directory"}


WORKLOADS = {w.name: w for w in (OptPasses, EditLoop, ColdEstimate,
                                 ServeBatch)}
