"""E18, E19, E21 — execution-backend ladder on Luby MIS throughput; E24 — setup cost;
E25 — early-exit splitting verification; E26 — incremental sinkless repair.

Claims under test, all with equivalence asserted on every run and
wall-clock ratios taken best-of-N with the GC paused (:func:`_harness.best_of`
— the 1-CPU container jitters too much for single-shot gates):

* **E18**: the dense numpy backend
  (:func:`repro.local.dense.luby_mis_dense`) executes whole rounds as array
  kernels at >= 30x the throughput of the reference simulator
  :func:`repro.local.network.run_local` at n = 10,000 on a
  ``random_sparse_graph`` of average degree ~24, while staying
  bit-identical to it (both draw the same keyed coins).  The floor is the
  product of the two floors it replaces (a CSR engine >= 3x the reference,
  dense >= 10x the engine), so no floor loosens with the engine gone.
* **E19**: faulty dense runs stay cheap — at n = 100,000, deg ~20, the
  keyed fault-coin kernel builds one round's delivery mask of an
  ``IIDMessageDrop(p=0.05)`` scenario in at most 0.12 s, and a full faulty
  Luby run (a fresh mask every round: the drops never settle) completes in
  at most 1.8 s; both timings land in the BENCH json rows.
* **E21**: observability is free when off — a dense Luby run at
  n = 100,000 with the default :class:`repro.obs.NullTracer` stays within
  2% of the untraced run, and a live :class:`repro.obs.Tracer` emits
  exactly one round record per executed round with matching active-set
  trajectories on both backends.
* **E24**: graph generation is no longer most of a one-shot job —
  :func:`random_sparse_graph` at n = 100,000, average degree 20 takes at
  most 1.5x the time :class:`repro.local.Network` takes to validate the
  same graph (the sequential sampling loop took ~4.7x).
* **E25**: rejected splitting attempts stop at the first violator — the
  kernel verifies nodes in ascending-degree order, where low-degree nodes
  reject first — so one recovering ``splitting/byzantine`` trial (n =
  4,000, deg 40, dense, mask-mode faults: 64 fault-blinded attempts, all
  rejected, plus the repair tail) takes at most 2.5x the time of 64 clean,
  accepted :func:`repro.local.dense.uniform_splitting_dense` attempts on
  the same graph, each of which checks every slot (a full pass per
  rejected attempt made it ~5x).  Each rejected attempt reads ≈8k of the
  160k slots (CSR order: ≈34k); the time ratio is too noisy to tell the
  two orders apart, so ``tests/local/test_splitting_blocks.py`` gates the
  slot count instead.
* **E26**: the sinkless repair tail costs O(n + touched slots) per phase —
  on ``sinkless/crash`` at n = 16,000 (4-regular, dense) the
  :func:`repro.scenarios.recovery.sinkless_repair` tails of four trials
  take at most 0.5x the time of their base
  :func:`repro.local.dense.sinkless_trial_dense` runs (which hit the
  400-round cap).  Measured ~0.3x; a full pass over all slots per repair
  round made it 2.2–2.5x.
"""

import time

from repro.bipartite.generators import random_sparse_graph
from repro.core.problems import UniformSplittingSpec
from repro.local import CSREngine, Network, run_local
from repro.local.dense import sinkless_trial_dense, uniform_splitting_dense
from repro.mis.luby import LubyMIS
from repro.scenarios import bind_all, get_scenario, run_scenario
from repro.scenarios.masks import DenseFaults
from repro.scenarios.recovery import sinkless_repair

from _harness import attach_rows, best_of

N = 10_000
AVG_DEGREE = 24

DENSE_N = 100_000
DENSE_AVG_DEGREE = 20


def test_e18_dense_backend_mis_speedup(benchmark):
    """Dense numpy kernels >= 30x over the reference simulator at n = 10k."""
    from repro.local.dense import luby_mis_dense
    from repro.mis.luby import is_mis

    adj = random_sparse_graph(N, AVG_DEGREE, seed=17)
    engine = CSREngine(Network(adj))
    net = engine.network

    # Correctness before speed: the dense run must be bit-identical to the
    # reference and a valid MIS.
    reference = run_local(net, LubyMIS(), seed=1)
    dense = luby_mis_dense(engine, seed=1)
    assert dense.rounds == reference.rounds
    assert dense.in_mis.tolist() == [bool(v.state.get("in_mis")) for v in reference.views]
    assert dense.completed and reference.completed
    assert is_mis(adj, set(dense.in_mis.nonzero()[0].tolist()))

    t_reference = best_of(lambda: run_local(net, LubyMIS(), seed=1), repeat=2)
    t_dense = best_of(lambda: luby_mis_dense(engine, seed=1), repeat=5)
    speedup = t_reference / t_dense
    if speedup < 30.0:
        # One remeasure before failing: on shared CI runners a single noisy
        # window can depress the ratio; a genuine regression will reproduce.
        t_reference = min(
            t_reference, best_of(lambda: run_local(net, LubyMIS(), seed=1), repeat=2)
        )
        t_dense = min(t_dense, best_of(lambda: luby_mis_dense(engine, seed=1), repeat=5))
        speedup = t_reference / t_dense

    benchmark(lambda: luby_mis_dense(engine, seed=1))
    attach_rows(
        benchmark,
        "E18: dense numpy backend vs reference simulator (Luby MIS)",
        ["n", "avg deg", "rounds", "reference s", "dense s", "speedup"],
        [
            (
                N,
                AVG_DEGREE,
                dense.rounds,
                f"{t_reference:.3f}",
                f"{t_dense:.4f}",
                f"{speedup:.1f}x",
            )
        ],
    )
    assert speedup >= 30.0, f"dense backend only {speedup:.2f}x faster than reference"


#: Upper bound on E19's one-round delivery mask build (0.035-0.043 s
#: measured on a 2-core container).
MASK_MAX_SECONDS = 0.12
#: Upper bound on E19's faulty Luby run (0.56-0.66 s measured on a 2-core
#: container).
FAULTY_RUN_MAX_SECONDS = 1.8


def test_e19_keyed_fault_masks_dense_mis(benchmark):
    """Keyed fault masks: one round <= 0.12 s, a faulty run <= 1.8 s at n = 100k.

    The mask build is one keyed hash per node for the (seed, uid, round)
    prefix plus one mix per slot for the port; a fresh ``DenseFaults`` per
    call defeats its round cache, so every call pays the whole build.  The
    faulty run queries a fresh mask in every round, because i.i.d. drops
    never settle.
    """
    import time

    import numpy as np

    from repro.local.dense import luby_mis_dense
    from repro.scenarios import IIDMessageDrop, bind_all
    from repro.scenarios.masks import DenseFaults

    adj = random_sparse_graph(DENSE_N, DENSE_AVG_DEGREE, seed=19)
    engine = CSREngine(Network(adj))
    net = engine.network
    _, _, partner = engine.slot_layout()
    bound = bind_all((IIDMessageDrop(p=0.05),), net, fault_seed=1)

    # Correctness before speed: delivered_in must be the partner-gather of
    # delivered_out, and the mask drop rate must sit at p.
    faults = DenseFaults(engine, bound)
    out1 = faults.delivered_out(1)
    assert np.array_equal(faults.delivered_in(1), out1[partner])
    drop_rate = 1.0 - out1.mean()
    assert abs(drop_rate - 0.05) < 0.005, f"mask drop rate {drop_rate:.4f}"

    def faulty_run():
        return luby_mis_dense(engine, seed=1, faults=DenseFaults(engine, bound))

    def mask_round():
        return DenseFaults(engine, bound).delivered_out(1)

    # A full faulty run completes (under pure drops nobody crashes and
    # every node still decides).
    start = time.perf_counter()
    dense = faulty_run()
    t_faulty_run = time.perf_counter() - start
    assert dense.completed and not dense.crashed.any()

    t_mask = best_of(mask_round, repeat=5)
    t_faulty_run = min(t_faulty_run, best_of(faulty_run, repeat=2))
    if t_mask > MASK_MAX_SECONDS or t_faulty_run > FAULTY_RUN_MAX_SECONDS:
        t_mask = min(t_mask, best_of(mask_round, repeat=5))
        t_faulty_run = min(t_faulty_run, best_of(faulty_run, repeat=2))

    benchmark(mask_round)
    attach_rows(
        benchmark,
        "E19: keyed fault masks (faulty dense Luby)",
        ["n", "avg deg", "rounds", "mask s", "faulty run s"],
        [
            (
                DENSE_N,
                DENSE_AVG_DEGREE,
                dense.rounds,
                f"{t_mask:.4f}",
                f"{t_faulty_run:.3f}",
            )
        ],
    )
    assert t_mask <= MASK_MAX_SECONDS, f"one-round mask build took {t_mask:.4f} s"
    assert t_faulty_run <= FAULTY_RUN_MAX_SECONDS, (
        f"faulty Luby run took {t_faulty_run:.3f} s"
    )


def test_e21_noop_tracer_overhead(benchmark):
    """Tracing must be free when off: no-op tracer within 2% at n = 100k.

    Correctness first, on a small shared (graph, seed): a live Tracer
    attached to each backend — hooks on the reference simulator, explicit
    trace points in the dense kernel — emits exactly one round record per
    executed round, and the two traced active-set trajectories are
    identical (the runs are bit-identical, so their traces must be too).  Then the gate: the
    dense kernel's hoisted ``tracer is not None and tracer.enabled``
    guard means a NullTracer run does no per-round tracing work, and the
    best-of wall time must stay within 2% of the untraced run.
    """
    from repro.local.dense import luby_mis_dense
    from repro.obs import NullTracer, Tracer, TracingHooks

    small = random_sparse_graph(2_000, 12, seed=21)
    net = Network(small)
    engine = CSREngine(net)
    engine.dense_arrays()

    tracers = {
        "reference": Tracer(backend="reference"),
        "dense": Tracer(backend="dense"),
    }
    results = {
        "reference": run_local(net, LubyMIS(), seed=1,
                               hooks=TracingHooks(tracers["reference"])),
        "dense": luby_mis_dense(engine, seed=1, tracer=tracers["dense"]),
    }
    rounds = {k: r.rounds for k, r in results.items()}
    assert rounds["reference"] == rounds["dense"]
    for backend, tracer in tracers.items():
        records = tracer.round_records()
        assert len(records) == rounds[backend], (
            f"{backend}: {len(records)} round records for "
            f"{rounds[backend]} rounds"
        )
    actives = {
        backend: [rec["active"] for rec in tracer.round_records()]
        for backend, tracer in tracers.items()
    }
    assert actives["reference"] == actives["dense"]

    adj = random_sparse_graph(DENSE_N, DENSE_AVG_DEGREE, seed=21)
    big = CSREngine(Network(adj))
    big.dense_arrays()
    null = NullTracer()

    def untraced():
        return luby_mis_dense(big, seed=1)

    def traced():
        return luby_mis_dense(big, seed=1, tracer=null)

    t_plain = best_of(untraced, repeat=5)
    t_traced = best_of(traced, repeat=5)
    overhead = t_traced / t_plain - 1.0
    if overhead > 0.02:
        t_plain = min(t_plain, best_of(untraced, repeat=5))
        t_traced = min(t_traced, best_of(traced, repeat=5))
        overhead = t_traced / t_plain - 1.0

    benchmark(traced)
    attach_rows(
        benchmark,
        "E21: no-op tracer overhead (dense Luby)",
        ["n", "avg deg", "untraced s", "null-traced s", "overhead"],
        [
            (
                DENSE_N,
                DENSE_AVG_DEGREE,
                f"{t_plain:.4f}",
                f"{t_traced:.4f}",
                f"{overhead:+.2%}",
            )
        ],
    )
    assert overhead <= 0.02, (
        f"NullTracer run {overhead:+.2%} slower than untraced (gate: 2%)"
    )


def test_e24_sparse_generation_vs_validation(benchmark):
    """Generating a sparse graph costs <= 1.5x validating it at n = 100k."""

    def generate():
        return random_sparse_graph(DENSE_N, DENSE_AVG_DEGREE, seed=24)

    adj = generate()
    assert sum(map(len, adj)) == DENSE_N * DENSE_AVG_DEGREE
    net = Network(adj)
    assert net.simple

    t_generate = best_of(generate)
    t_validate = best_of(lambda: Network(adj))
    ratio = t_generate / t_validate
    if ratio > 1.5:
        t_generate = min(t_generate, best_of(generate))
        t_validate = min(t_validate, best_of(lambda: Network(adj)))
        ratio = t_generate / t_validate

    benchmark.pedantic(generate, rounds=1, iterations=1)
    attach_rows(
        benchmark,
        "E24: random_sparse_graph vs Network validation (same graph)",
        ["n", "avg deg", "generate s", "validate s", "ratio"],
        [
            (
                DENSE_N,
                DENSE_AVG_DEGREE,
                f"{t_generate:.3f}",
                f"{t_validate:.3f}",
                f"{ratio:.2f}x",
            )
        ],
    )
    assert ratio <= 1.5, f"generation takes {ratio:.2f}x validation (gate: 1.5x)"


def test_e25_rejected_splitting_attempts_stop_early(benchmark):
    """A fault-blinded splitting trial costs <= 2.5x 64 full-pass attempts.

    Its rejected attempts verify nodes in ascending-degree order and stop at
    the block holding the first violator, so each reads a small prefix of
    the slots; the clean ones are accepted and read all of them.
    """

    def trial():
        return run_scenario("splitting/byzantine", n=4_000, seed=25, backend="dense",
                            recover=True, return_state=True)

    metrics, state = trial()
    assert metrics["attempts"] == 64 and metrics["accepted"] == 0
    assert metrics["recovered"] == 1
    engine = CSREngine(Network(state["adjacency"]))
    # Wide bounds: every clean attempt is accepted, so each checks all m slots.
    spec = UniformSplittingSpec(eps=0.45, min_constrained_degree=20)

    def clean():
        return [uniform_splitting_dense(engine, spec, seed=s).ok for s in range(64)]

    assert all(clean())
    t_trial = best_of(trial)
    t_clean = best_of(clean)
    ratio = t_trial / t_clean
    if ratio > 2.5:
        t_trial = min(t_trial, best_of(trial))
        t_clean = min(t_clean, best_of(clean))
        ratio = t_trial / t_clean

    benchmark.pedantic(trial, rounds=1, iterations=1)
    attach_rows(
        benchmark,
        "E25: recovering splitting/byzantine trial vs 64 clean dense attempts",
        ["n", "m", "trial s", "64 clean s", "ratio"],
        [(4_000, metrics["m"], f"{t_trial:.3f}", f"{t_clean:.3f}", f"{ratio:.2f}x")],
    )
    assert ratio <= 2.5, f"byzantine trial takes {ratio:.2f}x 64 clean attempts (gate: 2.5x)"


def test_e26_sinkless_repair_tail_vs_base_run(benchmark):
    """Four sinkless/crash repair tails cost <= 0.5x their base runs at n = 16k."""
    sc = get_scenario("sinkless/crash")
    _, state = run_scenario(sc, n=16_000, seed=26, backend="dense", recover=True,
                            return_state=True)
    engine = CSREngine(Network(state["adjacency"]))
    seeds = (1, 2, 3, 4)
    bound = {s: bind_all(sc.perturbations, engine.network, fault_seed=s) for s in seeds}

    def base():
        return [
            sinkless_trial_dense(
                engine, min_degree=sc.min_degree, seed=s, max_rounds=400,
                faults=DenseFaults(engine, bound[s]), strict=False,
            )
            for s in seeds
        ]

    ends = base()

    def tails():
        return [
            sinkless_repair(
                engine, DenseFaults(engine, bound[s]), s,
                end.out.copy(), end.crashed.copy(), sc.min_degree,
                start_round=end.rounds + 1,
            )
            for s, end in zip(seeds, ends)
        ]

    reps = tails()
    assert all(rep.recovered and rep.repair_rounds > 2 for rep in reps)
    t_base = best_of(base)
    t_tails = best_of(tails)
    ratio = t_tails / t_base
    if ratio > 0.5:
        t_base = min(t_base, best_of(base))
        t_tails = min(t_tails, best_of(tails))
        ratio = t_tails / t_base

    benchmark.pedantic(tails, rounds=1, iterations=1)
    attach_rows(
        benchmark,
        "E26: sinkless/crash repair tails vs their base runs (dense, 4 trials)",
        ["n", "m", "repair rounds", "base s", "tails s", "ratio"],
        [(16_000, int(engine.offsets[-1]) // 2, sum(r.repair_rounds for r in reps),
          f"{t_base:.4f}", f"{t_tails:.4f}", f"{ratio:.2f}x")],
    )
    assert ratio <= 0.5, f"repair tails take {ratio:.2f}x their base runs (gate: 0.5x)"
