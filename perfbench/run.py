#!/usr/bin/env python3
"""Benchmark of corpus learning and cross-validation, end to end and per layer.

    python3 perfbench/run.py                       # all four workloads, untraced
    python3 perfbench/run.py --trace 1             # all four workloads, traced
    python3 perfbench/run.py --workload pcfg-cv --seed 3 --seconds 28 --trace 0

With ``--workload`` the run measures one workload in this process and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named
in BENCHMARK.json when untraced, its per-layer metrics when traced.
Without ``--workload`` every workload runs in a fresh process of its own,
one after the other.  The exit code is non-zero when an output check
fails.  See perfbench/README.md.
"""

import os

# numeric thread pools pinned to one thread, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

from measure import environment, median, peak_rss_mb, unexplained_flips
from tracing import Tracer, durations, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("pcfg-learn", "pcfg-cv", "plcg-cv", "nbh-cv")
# Set-up is repeated this many times before the first pass, and setup_s
# is the median.  Single set-ups of 10 to 70 ms vary by 1.5x on a shared
# machine, both ways, and so does the fastest of a few; the median of 30
# to 40 moved by about 5% between back-to-back processes.
SETUP_REPEATS = 30

UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "learn_s": "s",
    "eval_s": "s",
    "parse_p50_ms": "ms",
    "parse_p95_ms": "ms",
    "parse_fail_share": "ratio",
    "cv_lt_pct": "%",
    "cv_bt_pct": "%",
    "cv_zero_cb_pct": "%",
    "cv_accuracy_pct": "%",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0, help="learner restart seed")
    ap.add_argument(
        "--data-seed",
        type=int,
        default=None,
        help="corpus / row generation seed (default: the workload's fixed inputs)",
    )
    ap.add_argument("--seconds", type=float, default=28.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def spec_metrics(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def print_table(title: str, values: dict) -> None:
    print(title)
    width = max(len(k) for k in values)
    for name, value in values.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>12}  {unit_of(name)}")


def universal_layers(layers: dict) -> dict:
    """Per-layer metrics defined on every workload, named by layer role."""
    def total(*names):
        return sum(layers.get(n, 0) for n in names)

    return {
        "setup.generate_s": total("grammar.gen_corpus_s", "bench.gen_rows_s"),
        "frontend.compile_s": total("grammar.compile_s", "models.compile_s"),
        "learning.learn_s": total("learning.vt_s", "learning.em_s", "learning.map_s"),
        "learning.iterations": total(
            "learning.vt_iterations", "learning.em_iterations", "learning.map_iterations"
        ),
    }


def check_verdicts(checks, what, first, second) -> None:
    flips = unexplained_flips(first, second)
    checks.expect(
        not flips,
        f"{what}: past-deadline set {second['timeouts']} matches {first['timeouts']} "
        f"(sentences changing verdict away from the deadline: {flips})",
    )


def check_timeouts(checks, wl, data_seed, verdicts, env) -> None:
    """The set of sentences past the deadline must not change between runs
    of the same code on the same inputs, except for sentences near it.
    The learner seed does not change the work (VT reaches the same fixed
    point from every start), so runs with any ``--seed`` share one record."""
    from workloads import PARSE_DEADLINE_S

    path = RESULTS / f"{wl.name}-data{data_seed}-timeouts.json"
    record = {"src_sha256": env["src_sha256"], "deadline_s": PARSE_DEADLINE_S, **verdicts}
    if path.exists():
        prev = json.loads(path.read_text())
        if prev["src_sha256"] == record["src_sha256"] and prev["deadline_s"] == PARSE_DEADLINE_S:
            check_verdicts(checks, "this run against the first run", prev, record)
            return
    path.write_text(json.dumps(record) + "\n")


def time_setups(wl, tracer, data_seed):
    """Returns (inputs of the last set-up, setup_s).  Each set-up starts
    from a collected heap; the tracer keeps the last set-up's spans."""
    times = []
    for _ in range(SETUP_REPEATS):
        tracer.spans.clear()
        gc.collect()
        t0 = time.perf_counter()
        data = wl.setup(ROOT, tracer, data_seed)
        times.append(time.perf_counter() - t0)
    return data, median(times)


def run_workload(args) -> int:
    if not (ROOT / "src" / "explgraph").is_dir():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import (
        DEFAULT_DATA_SEED,
        WORKLOADS,
        Checks,
        check_session,
        dp_pass_ms,
        graph_sizes,
    )

    wl = WORKLOADS[args.workload]
    seed = args.seed
    data_seed = DEFAULT_DATA_SEED if args.data_seed is None else args.data_seed
    env = environment(ROOT)
    RESULTS.mkdir(exist_ok=True)
    checks = Checks()

    setup_tracer = Tracer(bool(args.trace))
    data, setup_s = time_setups(wl, setup_tracer, data_seed)
    inputs = {
        "workload": wl.name,
        "seed": seed,
        "data_seed": data_seed,
        "seconds": args.seconds,
        **wl.inputs(data),
        **env,
    }

    if not args.trace:
        passes = []
        t_run = time.perf_counter()
        while True:
            gc.collect()
            p = wl.run_pass(data, Tracer(False), seed)
            if not passes:
                wl.check(checks, p, data)
                if p.graph is not None:
                    inputs["training_graph"] = graph_sizes(p.graph, p.goals)
            else:
                checks.expect(
                    p.outcome == passes[0].outcome,
                    f"pass {len(passes)} reproduces the first pass's results",
                )
                if p.verdicts is not None:
                    check_verdicts(checks, f"pass {len(passes)}", passes[0].verdicts, p.verdicts)
            p.release()
            passes.append(p)
            if time.perf_counter() - t_run + p.wall_s > args.seconds:
                break
        rss = peak_rss_mb()
        if hasattr(wl, "fold_loop"):
            # untimed: the fold loop's checks against the first timed pass
            loop = wl.fold_loop(data, Tracer(False), seed)
            wl.check_loop(checks, loop, passes[0])
            inputs["training_graph"] = graph_sizes(loop.graph, loop.goals)
        if passes[0].verdicts is not None:
            check_timeouts(checks, wl, data_seed, passes[0].verdicts, env)
        check_session(checks)
        values = {"setup_s": setup_s}
        for name in wl.e2e_names:
            if name not in ("setup_s", "peak_rss_mb"):
                values[name] = median([p.e2e[name] for p in passes])
        values["peak_rss_mb"] = rss
        values["job_s"] = median([p.e2e[wl.job_metric] for p in passes])
        ops = sum(p.ops for p in passes)
        record = {
            "inputs": inputs,
            "passes": [{"wall_s": p.wall_s, **p.e2e} for p in passes],
            "verdicts": passes[0].verdicts,
            "metrics": values,
        }
        out_name = f"{wl.name}-seed{seed}-data{data_seed}.json"
    else:
        # one untraced pass as the reference, then one traced pass
        gc.collect()
        ref = wl.run_pass(data, Tracer(False), seed)
        ref.release()
        gc.collect()
        tracer = Tracer(True)
        if hasattr(wl, "fold_loop"):
            traced = wl.fold_loop(data, tracer, seed)
            wl.check(checks, ref, data)
            wl.check_loop(checks, traced, ref)
        else:
            traced = wl.run_pass(data, tracer, seed)
            wl.check(checks, traced, data)
            checks.expect(traced.outcome == ref.outcome, "traced pass reproduces the untraced pass")
            if traced.verdicts is not None:
                check_verdicts(checks, "traced pass", ref.verdicts, traced.verdicts)
                check_timeouts(checks, wl, data_seed, traced.verdicts, env)
        check_session(checks)
        root_id = tracer.spans[0]["id"]
        totals = layer_totals(tracer.spans, root_id)

        def spans_of(name):
            return durations(tracer.spans, name, root_id)

        setup_totals = layer_totals(setup_tracer.spans)
        layers = {
            f"{k}_s": v
            for k, v in setup_totals.items()
            if k in ("grammar.gen_corpus", "bench.gen_rows")
        }
        layers.update(wl.layer_metrics(totals, spans_of, traced))
        layers.update(graph_sizes(traced.graph, traced.goals))
        layers.update(dp_pass_ms(tracer, traced.graph, traced.goals, traced.theta))
        layers.update(universal_layers(layers))
        layers["trace.overhead_share"] = traced.wall_s / ref.wall_s - 1.0
        # share of the untraced job time that the traced layers' self times cover
        layer_self = sum(v for k, v in totals.items() if not k.startswith("bench."))
        layers["trace.accounted_share"] = layer_self / ref.wall_s
        values = layers
        ops = ref.ops + traced.ops
        record = {"inputs": inputs, "metrics": values, "spans": setup_tracer.spans + tracer.spans}
        out_name = f"{wl.name}-seed{seed}-data{data_seed}-trace.json"

    (RESULTS / out_name).write_text(json.dumps(record, indent=1) + "\n")
    print(f"inputs {json.dumps(inputs)}")
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print_table(f"{wl.name}: {kind} metrics", values)
    for what in checks.failures:
        print(f"CHECK FAILED: {what}")
    print(f"checks {checks.run} run, {len(checks.failures)} failed")
    print(f"results in {RESULTS / out_name}")
    wanted = spec_metrics(args.trace)
    result = {
        "correct": not checks.failures,
        "attempted": ops + checks.run,
        "failed": len(checks.failures),
        "metrics": {n: {"value": values[n], "unit": unit_of(n)} for n in wanted},
    }
    print(json.dumps(result))
    return 0 if not checks.failures else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.data_seed is not None:
            cmd += ["--data-seed", str(args.data_seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
        print()
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
